//! The frozen definition of the benchmark: the model, the six workloads, and
//! the metric tables. `BENCHMARK.json` at the repo root repeats the names,
//! units, directions and bounds from here (a unit test holds the two
//! together); shapes, client counts and rates live only here, because that
//! file has no place for them. Nothing is derived from a calibration of the
//! code under test.

use crate::gen::{Len, Shape};
use crate::stats::Slo;
use dsi_model::config::GptConfig;

/// Weight seed of the model every workload uses; `--seed` drives inputs only.
pub const WEIGHT_SEED: u64 = 7;
/// INT8 group size (input rows sharing one scale), as `bench_decode` uses.
pub const INT8_GROUP: usize = 32;
pub const PAGE_TOKENS: usize = 16;

/// `bench-256`: 27 MB of f32 weights (7 MB INT8), 6.5× one core's L2 (1.7×
/// for INT8), so a decode step streams its weights from beyond L2. Not
/// larger, because on the shared runner a step that walks 57 MB (the
/// `bench-384` the issue sized) slows by 20–50 % for minutes at a time when
/// a neighbour is busy, twice what this one does (README, Sizing).
pub fn model_config() -> GptConfig {
    GptConfig {
        name: "bench-256".into(),
        hidden: 256,
        layers: 8,
        heads: 8,
        vocab: 512,
        max_seq: 1024,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightPath {
    /// `PagedEngine<QuantizedPackedB>`.
    Int8,
    /// `PagedEngine<PackedB>`.
    F32,
    /// `StreamedEngine` over an `OffloadStore` holding `resident_panels` of
    /// the 8 layer panels.
    Streamed {
        resident_panels: usize,
        prefetch_depth: usize,
    },
}

/// A closed loop straight through `BatchEngine`.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    pub weights: WeightPath,
    /// Closed-loop callers, one per engine slot.
    pub clients: usize,
    pub shape: Shape,
    pub slo: Slo,
}

/// A closed loop through `Server` in continuous-batching mode.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub shape: Shape,
    /// Requests of one pass of the list; every pass repeats their lengths in
    /// the same order, and a round is this many completions.
    pub shapes: usize,
    /// Closed-loop callers: the slots plus half the queue, so that the
    /// server is always full and a burst of completions does not overfill
    /// the queue.
    pub clients: usize,
    pub slo: Slo,
    pub max_slots: usize,
    pub pages_total: usize,
    pub queue_capacity: usize,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Engine(EngineSpec),
    Serve(ServeSpec),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

const fn serve(shape: Shape, shapes: usize, slo: Slo) -> Kind {
    Kind::Serve(ServeSpec {
        shape,
        shapes,
        clients: 10,
        slo,
        max_slots: 8,
        pages_total: 256,
        queue_capacity: 4,
    })
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "decode_int8_b1",
        why: "latency regime: batch-1 decode is an INT8 GEMV stream bounded by weight bytes; attention is a small share of a step",
        kind: Kind::Engine(EngineSpec {
            weights: WeightPath::Int8,
            clients: 1,
            shape: Shape { shared_prefix: 0, prompt: Len::Fixed(16), gen: Len::Fixed(128) },
            slo: Slo { first_ms: 60.0, per_token_ms: 1.6 },
        }),
    },
    Workload {
        name: "decode_f32_b8",
        why: "throughput regime: 8 full slots make every step an M-row f32 GEMM; the INT8 and batch-1 paths do nothing here",
        kind: Kind::Engine(EngineSpec {
            weights: WeightPath::F32,
            clients: 8,
            shape: Shape { shared_prefix: 0, prompt: Len::Fixed(16), gen: Len::Fixed(64) },
            slo: Slo { first_ms: 150.0, per_token_ms: 8.0 },
        }),
    },
    Workload {
        name: "streamed_decode",
        why: "ZeRO-Inference regime: the same layer step fed from the offload tier (4 of 8 panels resident), GEMM speed is irrelevant",
        kind: Kind::Engine(EngineSpec {
            weights: WeightPath::Streamed { resident_panels: 4, prefetch_depth: 2 },
            clients: 4,
            shape: Shape { shared_prefix: 0, prompt: Len::Fixed(16), gen: Len::Fixed(12) },
            slo: Slo { first_ms: 700.0, per_token_ms: 150.0 },
        }),
    },
    Workload {
        name: "serve_chat",
        why: "unshared decode-dominated requests through a full Server: admission, scheduler loop and page accounting do the work; control for prefix sharing",
        kind: serve(
            Shape {
                shared_prefix: 0,
                prompt: Len::Uniform(8, 32),
                gen: Len::LogNormal { mu: 2.85, sigma: 0.7, lo: 4, hi: 64 },
            },
            96,
            Slo { first_ms: 800.0, per_token_ms: 10.0 },
        ),
    },
    Workload {
        name: "serve_shared_prefix",
        why: "prefill-dominated requests through a full Server, one 48-token prefix on every prompt: the workload prefix sharing must move",
        kind: serve(
            Shape { shared_prefix: 48, prompt: Len::Uniform(4, 12), gen: Len::Uniform(4, 12) },
            64,
            // A request sent behind a full queue and eight residents waits
            // for a dozen 56-token prefills; the limit sits clear of that
            // (three times the slowest completion seen), where it does not
            // flip.
            Slo { first_ms: 1200.0, per_token_ms: 10.0 },
        ),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Every workload reports every row. The
/// bounds of the timing rows are as wide as the contract allows because the
/// shared runner is: the same binary on the same inputs moves 2–4 % between
/// runs while the host is quiet, 6–10 % while it is busy, and a run the host
/// takes whole is 10–30 % slow (see the repeatability table in README.md).
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("tok_s", "tok/s", true, 0.25),
    e2e("req_p50_ms", "ms", false, 0.25),
    e2e("goodput_rps", "req/s", true, 0.25),
    e2e("slo_share", "share", true, 0.05),
    e2e("served_share", "share", true, 0.05),
    e2e("cpu_ms_per_tok", "ms", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.05),
];

/// The ledger of single layers, from the `--trace 1` pass. A layer a
/// workload does not reach reports 0: it did no work there.
pub const PER_LAYER: [Metric; 66] = [
    // dsi-kernels: the replica's region spans, mean self time per decode
    // step summed over the 8 layers; rates are computed from tensor sizes.
    layer("kernels.qkv_us", "us", false),
    layer("kernels.attn_us", "us", false),
    layer("kernels.wo_us", "us", false),
    layer("kernels.ff1_us", "us", false),
    layer("kernels.ff2_us", "us", false),
    layer("kernels.logits_us", "us", false),
    layer("kernels.gemm_gbps", "GB/s", true),
    layer("kernels.gemm_gflops", "GFLOP/s", true),
    layer("kernels.attn_gbps", "GB/s", true),
    layer("kernels.prefill_gemm_gflops", "GFLOP/s", true),
    layer("kernels.prefill_attn_ms", "ms", false),
    layer("kernels.stream_ceiling_gbps", "GB/s", true),
    layer("kernels.fma_ceiling_gflops", "GFLOP/s", true),
    // dsi-model: the engine's own calls and the packed model's set-up.
    layer("model.step_us", "us", false),
    layer("model.step_p99_us", "us", false),
    layer("model.prefill_us_per_tok", "us", false),
    layer("model.embed_us", "us", false),
    layer("model.kv_write_us", "us", false),
    layer("model.step_unattributed_share", "share", false),
    layer("model.kv_pages_high_water", "count", false),
    layer("model.kv_slack_share", "share", false),
    layer("model.pack_s", "s", false),
    layer("model.quantize_pack_s", "s", false),
    layer("model.io_save_ms", "ms", false),
    // dsi-core: what a streaming client of one slot sees at the BatchEngine
    // boundary, and the streamed engine's passes.
    layer("core.ttft_p50_ms", "ms", false),
    layer("core.itl_p50_ms", "ms", false),
    layer("core.itl_p90_ms", "ms", false),
    layer("core.itl_p99_ms", "ms", false),
    layer("core.streamed_step_us", "us", false),
    layer("core.streamed_prefill_us_per_tok", "us", false),
    // dsi-zero: the offload tier, from the replica's own acquire calls and
    // OffloadStore::stats().
    layer("zero.acquire_wait_us", "us", false),
    layer("zero.acquire_wait_share", "share", false),
    layer("zero.hit_ratio", "share", true),
    layer("zero.demand_fetches", "count", false),
    layer("zero.prefetch_fetches", "count", true),
    layer("zero.evictions", "count", false),
    layer("zero.prefetch_dropped", "count", false),
    layer("zero.retries", "count", false),
    layer("zero.bytes_read", "count", false),
    layer("zero.fetch_gbps", "GB/s", true),
    layer("zero.read_amplification", "share", false),
    layer("zero.peak_resident_mb", "MiB", false),
    layer("zero.open_ms", "ms", false),
    // dsi-serve: spans around start/submit/drain and the drain-time reports.
    layer("serve.start_ms", "ms", false),
    layer("serve.submit_us_p50", "us", false),
    layer("serve.submit_us_p90", "us", false),
    layer("serve.drain_ms", "ms", false),
    layer("serve.req_p90_ms", "ms", false),
    layer("serve.sent", "count", true),
    layer("serve.completed", "count", true),
    layer("serve.rejected_queue_full", "count", false),
    layer("serve.rejected_memory", "count", false),
    layer("serve.evicted", "count", false),
    layer("serve.deadline_expired", "count", false),
    layer("serve.steps", "count", false),
    layer("serve.prefills", "count", false),
    layer("serve.mean_occupancy", "count", true),
    layer("serve.tokens_per_step", "count", true),
    layer("serve.pages_high_water", "count", false),
    layer("serve.page_evictions", "count", false),
    layer("serve.sched_overhead_share", "share", false),
    // The benchmark's own cost and the machine it ran on.
    layer("bench.trace_overhead_share", "share", false),
    layer("bench.replica_vs_engine_share", "share", false),
    layer("bench.ceiling_drift_share", "share", false),
    layer("bench.noisy", "count", false),
    layer("bench.nproc", "count", true),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn names(v: &Value, key: &str) -> Vec<String> {
        v[key]
            .as_array()
            .expect(key)
            .iter()
            .map(|m| m["name"].as_str().unwrap().into())
            .collect()
    }

    /// `BENCHMARK.json` must describe exactly what the binary prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            names(&v, "workloads"),
            WORKLOADS.map(|w| w.name.to_string())
        );
        for (w, j) in WORKLOADS.iter().zip(v["workloads"].as_array().unwrap()) {
            assert_eq!(j["why"].as_str().unwrap(), w.why);
            assert!(w.why.len() <= 200);
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            assert_eq!(
                names(&v, key),
                table.iter().map(|m| m.name.to_string()).collect::<Vec<_>>()
            );
            for (m, j) in table.iter().zip(v[key].as_array().unwrap()) {
                assert_eq!(j["unit"].as_str().unwrap(), m.unit, "{}", m.name);
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(j["better"].as_str().unwrap(), better, "{}", m.name);
                if key == "end_to_end" {
                    assert_eq!(j["bound"].as_f64().unwrap(), m.bound, "{}", m.name);
                    assert!(m.bound > 0.0 && m.bound <= 0.25);
                }
            }
        }
        assert_eq!(v["paths"][0].as_str().unwrap(), "benchmark");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        all.extend(WORKLOADS.iter().map(|w| w.name));
        let n = all.len();
        for name in &all {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
