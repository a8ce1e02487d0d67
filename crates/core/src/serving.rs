//! Request-level serving simulation: arrivals, dynamic batching, latency
//! percentiles.
//!
//! The paper motivates everything with production serving ("Using a
//! transformer based model for online scenarios in production requires
//! meeting stringent latency requirements", Sec. I). This module closes
//! that loop: a deterministic discrete-event loop feeds Poisson-ish request
//! arrivals into an [`InferenceEngine`] through a dynamic batcher, and
//! reports p50/p95/p99 latency and goodput — so the kernel- and
//! parallelism-level wins can be read as serving-level wins.
//!
//! It is a cost-model view for capacity planning. Continuous batching and
//! fault handling are executed, not simulated: `dsi-serve`'s scheduler over
//! a [`crate::BatchEngine`], with [`crate::FaultyEngine`] scripting faults.

use crate::engine::InferenceEngine;
use crate::stats::percentile;
use rand::distributions::Distribution;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Serving workload description.
#[derive(Debug, Clone, Serialize)]
pub struct Workload {
    /// Mean request arrival rate (requests/second).
    pub arrival_rate: f64,
    /// Prompt tokens per request.
    pub prompt: usize,
    /// Generated tokens per request.
    pub gen: usize,
    /// Number of requests to simulate.
    pub requests: usize,
    /// RNG seed for arrival jitter.
    pub seed: u64,
}

/// Dynamic batching policy: collect requests until the batch is full or the
/// oldest request has waited `max_wait` seconds.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BatchPolicy {
    pub max_batch: usize,
    pub max_wait: f64,
}

/// Simulation outcome.
#[derive(Debug, Clone, Serialize)]
pub struct ServingReport {
    pub completed: usize,
    /// End-to-end request latencies (queueing + execution), seconds.
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// Mean size of the batches the dynamic batcher formed.
    pub mean_batch: f64,
    /// Requests per second actually served.
    pub goodput: f64,
    /// Fraction of wall-clock the engine was busy.
    pub utilization: f64,
}

/// Run the serving simulation. Deterministic for a given seed.
pub fn simulate_serving(
    engine: &InferenceEngine,
    workload: &Workload,
    policy: BatchPolicy,
) -> ServingReport {
    assert!(workload.requests > 0 && policy.max_batch > 0);
    let mut rng = ChaCha8Rng::seed_from_u64(workload.seed);
    let exp = rand::distributions::Uniform::new(0.0f64, 1.0);

    // Arrival times: exponential inter-arrivals (inverse CDF of uniforms).
    let mut arrivals = Vec::with_capacity(workload.requests);
    let mut t = 0.0;
    for _ in 0..workload.requests {
        let u: f64 = exp.sample(&mut rng).max(1e-12);
        t += -u.ln() / workload.arrival_rate;
        arrivals.push(t);
    }

    // Cache execution latency per batch size (the engine is deterministic).
    let mut latency_cache: Vec<Option<f64>> = vec![None; policy.max_batch + 1];
    let mut exec_latency = |b: usize| -> f64 {
        let b = b.min(policy.max_batch);
        if latency_cache[b].is_none() {
            latency_cache[b] =
                Some(engine.generation(b, workload.prompt, workload.gen).total_latency);
        }
        latency_cache[b].unwrap()
    };

    let mut engine_free = 0.0f64;
    let mut busy = 0.0f64;
    let mut latencies = Vec::with_capacity(workload.requests);
    let mut batches = Vec::new();
    let mut i = 0;
    while i < arrivals.len() {
        // The batch window opens when the engine is free and the next
        // request has arrived.
        let open = engine_free.max(arrivals[i]);
        // Admit everything that arrives within the wait window, up to the
        // batch cap.
        let deadline = arrivals[i] + policy.max_wait;
        let mut j = i + 1;
        while j < arrivals.len() && j - i < policy.max_batch && arrivals[j] <= open.max(deadline) {
            j += 1;
        }
        let start = open.max(if j - i < policy.max_batch {
            // Window closed by timeout: wait until the deadline or the
            // engine frees up, whichever is later (but never before open).
            deadline.min(arrivals.get(j).copied().unwrap_or(deadline)).max(open)
        } else {
            open
        });
        let dur = exec_latency(j - i);
        let end = start + dur;
        batches.push((j - i) as f64);
        busy += dur;
        latencies.extend(arrivals[i..j].iter().map(|a| end - a));
        engine_free = end;
        i = j;
    }

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let wall = engine_free.max(*arrivals.last().unwrap());
    ServingReport {
        completed: latencies.len(),
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
        mean_batch: batches.iter().sum::<f64>() / batches.len() as f64,
        goodput: latencies.len() as f64 / wall,
        utilization: busy / wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use dsi_model::zoo::dense_by_name;
    use dsi_sim::hw::ClusterSpec;

    fn engine() -> InferenceEngine {
        InferenceEngine::new(EngineConfig::deepspeed(
            dense_by_name("GPT-J-6B").unwrap(),
            ClusterSpec::dgx_a100(1),
            1,
            1,
        ))
    }

    fn workload(rate: f64) -> Workload {
        Workload {
            arrival_rate: rate,
            prompt: 128,
            gen: 8,
            requests: 200,
            seed: 11,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let e = engine();
        let policy = BatchPolicy {
            max_batch: 8,
            max_wait: 0.05,
        };
        let a = simulate_serving(&e, &workload(20.0), policy);
        let b = simulate_serving(&e, &workload(20.0), policy);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.completed, 200);
    }

    #[test]
    fn percentiles_ordered() {
        let e = engine();
        let r = simulate_serving(
            &e,
            &workload(30.0),
            BatchPolicy {
                max_batch: 16,
                max_wait: 0.02,
            },
        );
        assert!(r.p50 <= r.p95 && r.p95 <= r.p99);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
    }

    #[test]
    fn higher_load_increases_latency_and_batch() {
        let e = engine();
        let policy = BatchPolicy {
            max_batch: 32,
            max_wait: 0.02,
        };
        let light = simulate_serving(&e, &workload(5.0), policy);
        let heavy = simulate_serving(&e, &workload(200.0), policy);
        assert!(heavy.mean_batch > light.mean_batch);
        assert!(heavy.p99 >= light.p99);
        assert!(heavy.utilization >= light.utilization);
    }

    #[test]
    fn batching_raises_goodput_under_overload() {
        let e = engine();
        let no_batch = simulate_serving(
            &e,
            &workload(100.0),
            BatchPolicy {
                max_batch: 1,
                max_wait: 0.0,
            },
        );
        let batched = simulate_serving(
            &e,
            &workload(100.0),
            BatchPolicy {
                max_batch: 32,
                max_wait: 0.01,
            },
        );
        assert!(
            batched.goodput > 1.5 * no_batch.goodput,
            "batched {:.1} vs serial {:.1} rps",
            batched.goodput,
            no_batch.goodput
        );
    }

    #[test]
    fn faster_engine_means_lower_percentiles() {
        // DeepSpeed kernels vs FT kernels on the same serving workload: the
        // kernel win must surface as a tail-latency win.
        let ds = engine();
        let ft = InferenceEngine::new(EngineConfig::faster_transformer(
            dense_by_name("GPT-J-6B").unwrap(),
            ClusterSpec::dgx_a100(1),
            1,
            1,
        ));
        let policy = BatchPolicy {
            max_batch: 8,
            max_wait: 0.02,
        };
        let rds = simulate_serving(&ds, &workload(10.0), policy);
        let rft = simulate_serving(&ft, &workload(10.0), policy);
        assert!(rds.p50 < rft.p50, "DS p50 {} vs FT {}", rds.p50, rft.p50);
        assert!(rds.p99 < rft.p99);
    }
}
