//! Streaming weight-offload benchmark: how much decode throughput the
//! prefetcher buys back when the model does not fit in memory, and what
//! the fault hardening costs when nothing fails.
//!
//! Three sections, one JSON (`BENCH_offload.json`):
//! * **depth curve** — streamed decode throughput and the demand-fetch
//!   (stall) fraction at prefetch depths 0/1/2/4 under a resident budget
//!   of three panels for a six-layer model, with what bounds a fetch
//!   beside it: per-panel fetch time, the checksum's share of it, and the
//!   bandwidth the tier achieved (`OffloadStats::{fetch_ns, checksum_ns}`).
//!   Since format v3 a fetch is a copy and a CRC32C of a panel already in
//!   execution layout, so it costs about what a batched layer step does;
//!   PR 10's "depth flattens throughput" was measured against a 0.4 GB/s
//!   checksum loop that made a fetch 20× a layer. The depths are sampled
//!   interleaved and reported as medians with their quartile spread: on a
//!   shared 2-vCPU runner the curve bends either way from one process to
//!   the next (DESIGN.md "Streaming weight offload"), and two depths
//!   closer than the spread are not told apart. Depth 4 also shows the
//!   open-time clamp (the budget holds 2 panels beyond the one in use).
//! * **degraded bandwidth** — seeded `SlowRead` storms against the weight
//!   tier at two depths × two stall grades. Tokens must stay bit-exact and
//!   goodput **net of the injected sleep** must hold ≥ 25% of the clean
//!   same-depth run (the recovered-goodput gate): the storm is stated in
//!   absolute time, so a raw `clean / storm` ratio falls whenever the clean
//!   run gets faster — it gated the injector's sleeps, not the store's
//!   recovery. `OffloadStats::stall_ms` is what was injected; time beyond
//!   `clean + injected` is what recovery cost.
//! * **armed idle** — decode throughput with no injector vs an injector
//!   armed holding an *empty* plan (the hook is consulted on every panel
//!   read), medians of interleaved reps. Acceptance bar: the armed median
//!   is slower by less than 2% or by less than the unarmed configuration's
//!   own rep-to-rep quartile spread, whichever is wider — a fixed 2% sat
//!   inside the noise floor (recorded once at −0.14%, read −3.6% on an
//!   unchanged tree).
//!
//! Modes:
//! * default — full sweep, writes the JSON, asserts both gates;
//! * `--smoke` — tiny model: clean + storm + dead-prefetcher runs, both
//!   gates asserted, no JSON. CI's no-hang wall-clock gate runs this.

use dsi_bench::print_table;
use dsi_core::batch::BatchEngine;
use dsi_core::{percentile, StreamedEngine};
use dsi_model::fast::PackedModel;
use dsi_model::reference::GptModel;
use dsi_model::{zoo, GptConfig};
use dsi_sim::fault::{IoFaultInjector, IoFaultKind, IoFaultPlan, IoFaultSite, IoFaultSpec};
use dsi_zero::offload::{OffloadConfig, OffloadStats, OffloadStore};
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct DepthPoint {
    depth: usize,
    effective_depth: usize,
    /// Median of `reps` interleaved reps.
    tokens_per_s: f64,
    /// Distance between the reps' quartiles, percent of the median: two
    /// depths closer than this are not told apart by this run.
    spread_pct: f64,
    hits: u64,
    demand_fetches: u64,
    prefetch_fetches: u64,
    evictions: u64,
    prefetch_dropped: u64,
    /// Fraction of panel acquisitions the decode thread had to wait on —
    /// the stall fraction the prefetcher exists to drive down.
    demand_fraction: f64,
    bytes_read: u64,
    peak_resident_bytes: usize,
    /// Mean wall time of one panel fetch (copy + verify).
    fetch_us_per_panel: f64,
    /// Share of fetch time spent checksumming the copied panel.
    checksum_share: f64,
    /// `bytes_read / fetch_ns`: what the tier delivered while fetching.
    fetch_gbps: f64,
}

#[derive(Serialize)]
struct DegradedCell {
    depth: usize,
    stall_millis: u64,
    faults: usize,
    tokens_per_s: f64,
    /// Throughput under the storm relative to the clean run at the same
    /// depth, sleeps included — reported, not gated (it moves with the
    /// clean run's speed).
    raw_goodput_ratio: f64,
    /// The same net of the injected sleep: `clean / max(clean, storm −
    /// injected)`. Acceptance bar: ≥ 0.25.
    goodput_ratio: f64,
    slow_reads: u64,
    stall_ms_injected: u64,
    tokens_identical: bool,
}

#[derive(Serialize)]
struct OffloadBench {
    unit: String,
    model: String,
    layers: usize,
    hidden: usize,
    panel_bytes: usize,
    file_bytes: usize,
    budget_bytes: usize,
    prompt_tokens: usize,
    gen_tokens: usize,
    reps: usize,
    depth_curve: Vec<DepthPoint>,
    degraded: Vec<DegradedCell>,
    /// No injector attached (median of interleaved reps).
    disabled_tokens_per_s: f64,
    /// Injector armed, empty plan: consulted on every panel read.
    armed_idle_tokens_per_s: f64,
    /// How much slower the armed median is, percent of the unarmed median.
    /// Acceptance bar: < max(2%, `disabled_spread_pct`).
    overhead_armed_pct: f64,
    /// The unarmed configuration's own rep-to-rep spread: distance between
    /// its quartiles, percent of its median.
    disabled_spread_pct: f64,
    min_goodput_ratio: f64,
}

/// Per-slot prompts for a batched run (distinct so cross-slot KV bleed
/// would show up as a divergence).
fn batch_prompts(slots: usize) -> Vec<Vec<usize>> {
    (0..slots).map(|s| vec![1 + s % 7, 2 + s % 5, 3, 4]).collect()
}

/// One timed run: wall seconds, the store's final counters, and the
/// prefetch depth in effect.
#[derive(Clone, Copy)]
struct Sample {
    dt: f64,
    stats: OffloadStats,
    effective_depth: usize,
}

/// One streamed greedy decode of `slots` concurrent sequences over a fresh
/// store; returns the per-slot streams and the timed [`Sample`]. Batching is the point: per layer the fetch cost is paid
/// once while the compute scales with the batch, which is what makes
/// prefetch overlap visible (and is how ZeRO-Inference amortizes the
/// weight stream).
fn run_streamed(
    path: &Path,
    budget: usize,
    depth: usize,
    faults: Option<Arc<IoFaultInjector>>,
    gen: usize,
    slots: usize,
) -> (Vec<Vec<usize>>, Sample) {
    let cfg = OffloadConfig {
        resident_budget_bytes: budget,
        prefetch_depth: depth,
        faults,
        ..OffloadConfig::default()
    };
    let store = OffloadStore::open(path, cfg).expect("open store");
    let effective_depth = store.effective_depth();
    let mut eng = StreamedEngine::new(store, slots, 65_536);
    let prompts = batch_prompts(slots);
    let t0 = Instant::now();
    let mut streams: Vec<Vec<usize>> = prompts
        .iter()
        .enumerate()
        .map(|(s, p)| vec![eng.prefill(s, p).expect("prefill")])
        .collect();
    let ids: Vec<usize> = (0..slots).collect();
    for _ in 1..gen {
        let mut out = Vec::new();
        eng.decode_step(&ids, &mut out).expect("decode");
        for (s, t) in out.into_iter().enumerate() {
            streams[s].push(t);
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    (streams, Sample { dt, stats: eng.store().stats(), effective_depth })
}

/// Resident-path oracle streams for the same batch.
fn oracle_streams(model: &GptModel, gen: usize, slots: usize) -> Vec<Vec<usize>> {
    let pm = PackedModel::pack(model);
    batch_prompts(slots).iter().map(|p| pm.session(p.len()).generate(p, gen)).collect()
}

/// `reps` runs of each `(prefetch depth, injector)` configuration, measured
/// interleaved (one rep of each per round, the order reversed every other
/// round) so drift on a shared runner biases none of them.
fn measure_interleaved(
    path: &Path,
    budget: usize,
    cfgs: &[(usize, Option<Arc<IoFaultInjector>>)],
    gen: usize,
    slots: usize,
    want: &[Vec<usize>],
    reps: usize,
) -> Vec<Vec<Sample>> {
    let mut samples = vec![Vec::with_capacity(reps); cfgs.len()];
    for round in 0..reps {
        let mut order: Vec<usize> = (0..cfgs.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let (depth, faults) = &cfgs[i];
            let (streams, sample) =
                run_streamed(path, budget, *depth, faults.clone(), gen, slots);
            assert_eq!(streams, want, "depth {depth}: streamed decode diverged");
            samples[i].push(sample);
        }
    }
    samples
}

fn dts(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.dt).collect()
}

/// The rep whose wall time is the sample's median.
fn median_sample(samples: &[Sample]) -> Sample {
    let (_, median, _) = quartiles(&dts(samples));
    *samples.iter().find(|s| s.dt == median).expect("the median is one of the reps")
}

/// `(first quartile, median, third quartile)` of a sample (nearest rank,
/// so each is one of the reps).
fn quartiles(sample: &[f64]) -> (f64, f64, f64) {
    let mut v = sample.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    (percentile(&v, 0.25), percentile(&v, 0.5), percentile(&v, 0.75))
}

/// The armed-idle comparison: `(unarmed median dt, armed median dt,
/// overhead %, unarmed quartile spread %)`.
fn armed_idle(unarmed: &[f64], armed: &[f64]) -> (f64, f64, f64, f64) {
    let (q1, med, q3) = quartiles(unarmed);
    let (_, armed_med, _) = quartiles(armed);
    (med, armed_med, (armed_med - med) / med * 100.0, (q3 - q1) / med * 100.0)
}

/// The armed-idle gate: an armed, empty injector may cost 2%, or whatever
/// the unarmed configuration's own reps differ by when that is more — a
/// bar inside the noise floor gates the runner, not the hook.
fn assert_armed_idle(overhead_pct: f64, spread_pct: f64) {
    let bar = spread_pct.max(2.0);
    assert!(
        overhead_pct < bar,
        "armed-idle overhead {overhead_pct:.2}% exceeds the {bar:.2}% gate \
         (unarmed rep-to-rep spread {spread_pct:.2}%)"
    );
}

/// Goodput under a storm relative to the clean run, net of what the storm
/// injected: the injector's sleeps are the experiment's input, so the
/// store is charged only with time beyond `clean + injected` — what
/// noticing, waiting out and recovering from the stalls cost.
fn net_goodput_ratio(clean_dt: f64, storm_dt: f64, stall_ms: u64) -> f64 {
    clean_dt / (storm_dt - stall_ms as f64 / 1e3).max(clean_dt)
}

/// The median of `reps` runs under `storm` (a fresh injector each rep:
/// faults fire once), and whether every rep's tokens matched `want`.
#[allow(clippy::too_many_arguments)]
fn median_storm_run(
    path: &Path,
    budget: usize,
    depth: usize,
    storm: &IoFaultPlan,
    gen: usize,
    slots: usize,
    want: &[Vec<usize>],
    reps: usize,
) -> (Sample, bool) {
    let mut identical = true;
    let samples: Vec<Sample> = (0..reps)
        .map(|_| {
            let (streams, sample) =
                run_streamed(path, budget, depth, Some(Arc::new(storm.injector())), gen, slots);
            identical &= streams == want;
            sample
        })
        .collect();
    (median_sample(&samples), identical)
}

/// A pure-`SlowRead` storm: `n` stalls of `millis` each, spread over the
/// first `max_call` panel reads (call 0, the open-time probe, is skipped so
/// the storm hits steady-state decode, not `open`).
fn slow_storm(seed: u64, n: usize, max_call: u64, millis: u64) -> IoFaultPlan {
    let mut s = seed;
    let mut next = move || -> u64 {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let specs = (0..n)
        .map(|_| IoFaultSpec {
            site: IoFaultSite::Read { call: 1 + next() % (max_call - 1) },
            kind: IoFaultKind::SlowRead { millis },
        })
        .collect();
    IoFaultPlan::new(specs)
}

fn save_model(config: GptConfig, seed: u64, tag: &str) -> (GptModel, std::path::PathBuf) {
    let m = GptModel::random(config, seed);
    let path = std::env::temp_dir()
        .join(format!("dsi_bench_offload_{tag}_{}.bin", std::process::id()));
    dsi_model::io::save(&m, &path).expect("save weight file");
    (m, path)
}

fn smoke() {
    let (model, path) = save_model(zoo::tiny(3), 42, "smoke");
    let gen = 48;
    let slots = 2;
    let want = oracle_streams(&model, gen, slots);
    let probe = OffloadStore::open(&path, OffloadConfig::default()).expect("probe");
    let budget = probe.panel_bytes() * 2;
    drop(probe);

    // Clean streamed decode under a model-bigger-than-budget store.
    let storm_reps = 5;
    let clean = measure_interleaved(&path, budget, &[(1, None)], gen, slots, &want, storm_reps);
    assert!(clean[0].iter().all(|s| s.stats.evictions > 0), "two-panel budget must evict");
    let clean_dt = median_sample(&clean[0]).dt;
    println!("bench_offload --smoke: clean streamed decode token-identical");

    // SlowRead storm: bit-exact and ≥ 25% goodput net of the injected sleep.
    let storm = slow_storm(7, 6, 40, 4);
    let (Sample { dt: storm_dt, stats, .. }, identical) =
        median_storm_run(&path, budget, 1, &storm, gen, slots, &want, storm_reps);
    assert!(identical, "storm streamed decode diverged");
    assert!(stats.slow_reads > 0, "storm never landed");
    let ratio = net_goodput_ratio(clean_dt, storm_dt, stats.stall_ms);
    assert!(ratio >= 0.25, "recovered goodput {ratio:.2} (net of injected sleep) below the 0.25 gate");
    println!(
        "bench_offload --smoke: SlowRead storm bit-exact, goodput {ratio:.2} net of {} ms injected \
         ({:.2} raw)",
        stats.stall_ms,
        clean_dt / storm_dt
    );

    // Dead prefetcher: synchronous fallback, still bit-exact.
    let cfg = OffloadConfig {
        resident_budget_bytes: budget,
        prefetch_depth: 1,
        ..OffloadConfig::default()
    };
    let store = OffloadStore::open(&path, cfg).expect("open store");
    store.kill_prefetcher();
    let mut eng = StreamedEngine::new(store, 1, 4096);
    let prompt = &batch_prompts(1)[0];
    let mut tokens = vec![eng.prefill(0, prompt).expect("prefill")];
    for _ in 1..gen {
        eng.decode_step(&[0], &mut tokens).expect("decode");
    }
    assert_eq!(tokens, want[0], "sync-fallback decode diverged");
    assert!(eng.store().stats().sync_fallbacks > 0, "fallback path never ran");
    println!("bench_offload --smoke: dead prefetcher degraded to sync fetch, bit-exact");

    // Armed-idle gate on a quick interleaved sweep.
    let cfgs = [(1, None), (1, Some(Arc::new(IoFaultPlan::new(Vec::new()).injector())))];
    let samples = measure_interleaved(&path, budget, &cfgs, gen, slots, &want, 40);
    let (_, _, overhead, spread) = armed_idle(&dts(&samples[0]), &dts(&samples[1]));
    assert_armed_idle(overhead, spread);
    println!(
        "bench_offload --smoke: armed-idle injector overhead {overhead:+.2}% \
         (unarmed rep-to-rep spread {spread:.2}%)"
    );

    let _ = std::fs::remove_file(&path);
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let config = GptConfig {
        name: "bench-offload".into(),
        hidden: 128,
        layers: 6,
        heads: 8,
        vocab: 256,
        max_seq: 64,
    };
    let gen_tokens = 16;
    let slots = 16;
    let reps = 15;
    let (model, path) = save_model(config.clone(), 42, "full");
    let want = oracle_streams(&model, gen_tokens, slots);

    let probe = OffloadStore::open(&path, OffloadConfig::default()).expect("probe");
    let panel_bytes = probe.panel_bytes();
    let file_bytes = probe.file_bytes();
    drop(probe);
    let budget = panel_bytes * 3;

    // Depth curve: clean runs, the four depths interleaved rep by rep; a
    // point is its median rep, with the quartile spread beside it.
    let depths = [0usize, 1, 2, 4];
    let cfgs: Vec<_> = depths.iter().map(|&d| (d, None)).collect();
    let samples = measure_interleaved(&path, budget, &cfgs, gen_tokens, slots, &want, reps);
    let mut depth_curve = Vec::new();
    let mut clean_dts = std::collections::BTreeMap::new();
    for (&depth, samples) in depths.iter().zip(&samples) {
        let (q1, median, q3) = quartiles(&dts(samples));
        let Sample { stats, effective_depth, .. } = median_sample(samples);
        clean_dts.insert(depth, median);
        let waited = stats.demand_fetches + stats.sync_fallbacks;
        // Every panel the worker fetched (kept or dropped), every inline
        // fetch, and the open-time probe.
        let fetches =
            stats.prefetch_fetches + stats.prefetch_dropped + stats.sync_fallbacks + 1;
        depth_curve.push(DepthPoint {
            depth,
            effective_depth,
            tokens_per_s: (slots * gen_tokens) as f64 / median,
            spread_pct: (q3 - q1) / median * 100.0,
            hits: stats.hits,
            demand_fetches: stats.demand_fetches,
            prefetch_fetches: stats.prefetch_fetches,
            evictions: stats.evictions,
            prefetch_dropped: stats.prefetch_dropped,
            demand_fraction: waited as f64 / (waited + stats.hits).max(1) as f64,
            bytes_read: stats.bytes_read,
            peak_resident_bytes: stats.peak_resident_bytes,
            fetch_us_per_panel: stats.fetch_ns as f64 / 1e3 / fetches as f64,
            checksum_share: stats.checksum_ns as f64 / stats.fetch_ns.max(1) as f64,
            fetch_gbps: stats.bytes_read as f64 / stats.fetch_ns.max(1) as f64,
        });
    }

    // Degraded-bandwidth cells: SlowRead storms, goodput vs same-depth clean.
    let mut degraded = Vec::new();
    for depth in [0usize, 2] {
        for stall_millis in [2u64, 6] {
            let n_faults = 16usize;
            let storm = slow_storm(11 + depth as u64, n_faults, 120, stall_millis);
            let (Sample { dt, stats, .. }, tokens_identical) =
                median_storm_run(&path, budget, depth, &storm, gen_tokens, slots, &want, 5);
            degraded.push(DegradedCell {
                depth,
                stall_millis,
                faults: n_faults,
                tokens_per_s: (slots * gen_tokens) as f64 / dt,
                raw_goodput_ratio: clean_dts[&depth] / dt,
                goodput_ratio: net_goodput_ratio(clean_dts[&depth], dt, stats.stall_ms),
                slow_reads: stats.slow_reads,
                stall_ms_injected: stats.stall_ms,
                tokens_identical,
            });
        }
    }

    // Armed-idle overhead at depth 2.
    let cfgs = [(2, None), (2, Some(Arc::new(IoFaultPlan::new(Vec::new()).injector())))];
    let samples = measure_interleaved(&path, budget, &cfgs, gen_tokens, slots, &want, 40);
    let (disabled_dt, armed_dt, overhead_armed_pct, disabled_spread_pct) =
        armed_idle(&dts(&samples[0]), &dts(&samples[1]));
    let tokens = (slots * gen_tokens) as f64;
    let (disabled_tps, armed_tps) = (tokens / disabled_dt, tokens / armed_dt);
    let min_goodput_ratio =
        degraded.iter().map(|c| c.goodput_ratio).fold(f64::INFINITY, f64::min);

    let result = OffloadBench {
        unit: "tokens/s".into(),
        model: config.name.clone(),
        layers: config.layers,
        hidden: config.hidden,
        panel_bytes,
        file_bytes,
        budget_bytes: budget,
        prompt_tokens: 4,
        gen_tokens,
        reps,
        depth_curve,
        degraded,
        disabled_tokens_per_s: disabled_tps,
        armed_idle_tokens_per_s: armed_tps,
        overhead_armed_pct,
        disabled_spread_pct,
        min_goodput_ratio,
    };

    println!(
        "Streaming offload: {} ({} layers, h={}), panel {} KiB, file {} KiB, budget {} KiB\n",
        result.model,
        result.layers,
        result.hidden,
        panel_bytes / 1024,
        file_bytes / 1024,
        budget / 1024
    );
    print_table(
        &[
            "depth", "effective", "tokens/s", "spread %", "demand frac", "prefetched", "dropped",
            "evictions", "fetch us", "crc share", "fetch GB/s",
        ],
        &result
            .depth_curve
            .iter()
            .map(|p| {
                vec![
                    p.depth.to_string(),
                    p.effective_depth.to_string(),
                    format!("{:.0}", p.tokens_per_s),
                    format!("{:.1}", p.spread_pct),
                    format!("{:.2}", p.demand_fraction),
                    p.prefetch_fetches.to_string(),
                    p.prefetch_dropped.to_string(),
                    p.evictions.to_string(),
                    format!("{:.0}", p.fetch_us_per_panel),
                    format!("{:.2}", p.checksum_share),
                    format!("{:.2}", p.fetch_gbps),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!("\nDegraded weight tier (SlowRead storms):");
    print_table(
        &["depth", "stall ms", "tokens/s", "goodput raw", "goodput net", "slow reads", "bit-exact"],
        &result
            .degraded
            .iter()
            .map(|c| {
                vec![
                    c.depth.to_string(),
                    c.stall_millis.to_string(),
                    format!("{:.0}", c.tokens_per_s),
                    format!("{:.2}", c.raw_goodput_ratio),
                    format!("{:.2}", c.goodput_ratio),
                    c.slow_reads.to_string(),
                    c.tokens_identical.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!(
        "\nArmed-idle injector: {:.0} vs {:.0} tokens/s ({:+.2}%; unarmed rep-to-rep spread {:.2}%)",
        disabled_tps, armed_tps, overhead_armed_pct, disabled_spread_pct
    );

    let json = serde_json::to_string_pretty(&result).expect("serialize");
    std::fs::write("BENCH_offload.json", &json).expect("write BENCH_offload.json");
    println!("[-> BENCH_offload.json]");
    let _ = std::fs::remove_file(&path);

    // Acceptance criteria, enforced in-process.
    for c in &result.degraded {
        assert!(c.tokens_identical, "depth {} stall {}ms: storm corrupted tokens", c.depth, c.stall_millis);
    }
    assert!(
        result.min_goodput_ratio >= 0.25,
        "recovered goodput {:.2} (net of injected sleep) below the 0.25 gate",
        result.min_goodput_ratio
    );
    assert_armed_idle(result.overhead_armed_pct, result.disabled_spread_pct);
}
