//! The four engine workloads: a closed loop straight through `BatchEngine`
//! over `PagedEngine` (INT8 or f32) or `StreamedEngine`.
//!
//! End-to-end pass: set up (repeated, median reported), run the closed loop
//! (ramp, then a window of `--seconds`), check a sample against a solo
//! session. Trace pass: the same loop over the engine for half the window
//! (engine-boundary timings), then over the span-recording replica for the
//! other half (region timings), with the replica's tokens compared to the
//! engine's.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dsi_core::batch::BatchEngine;
use dsi_core::streamed::StreamedEngine;
use dsi_kernels::blocked::PanelWeights;
use dsi_model::fast::PackedModel;
use dsi_model::paged::PagedEngine;
use dsi_model::reference::GptModel;
use dsi_zero::offload::{OffloadConfig, OffloadStats, OffloadStore};

use crate::closed::{self, ClosedRun, Round};
use crate::gen::{self, Len, Req, Shape};
use crate::oracle;
use crate::probe;
use crate::replica::{Replica, Streamed, Weights};
use crate::report::{slo_share, Opts, Report, Seen, NEVER_MS};
use crate::span::{self, Kind, Spans};
use crate::spec::{self, EngineSpec, WeightPath, PAGE_TOKENS};
use crate::stats::{mean, median, over_rounds, percentile, sorted, Digest};

/// Requests generated per client and second of window; a window that outlasts
/// the list wraps around.
const REQS_PER_CLIENT_SECOND: f64 = 16.0;
/// Requests whose full token streams make the digest: the first of the list,
/// which every full-length run completes.
const DIGEST_REQUESTS: usize = 8;
/// Spans reserved up front (a 15 s pass of the shortest step records 0.5 M).
const SPAN_CAPACITY: usize = 1 << 20;

/// Set-up times of one repetition.
#[derive(Debug, Default, Clone, Copy)]
struct SetupParts {
    total_s: f64,
    pack_s: f64,
    quantize_pack_s: f64,
    io_save_ms: f64,
    open_ms: f64,
}

/// Everything the first repetition measured after its set-up. It runs in a
/// process that has done nothing else, so peak memory is what a fresh engine
/// process would show; the repetitions that make `setup_s` a median follow.
struct Measured {
    run: ClosedRun,
    peak_rss_mb: f64,
    traced: Option<Traced>,
    oracle_checked: u64,
    oracle_mismatches: u64,
}

struct Traced {
    run: ClosedRun,
    spans: Spans,
    gemm_bytes_per_pass: usize,
    /// Streamed only: the tier's counters before and after the replica's
    /// window, and the packed bytes of one layer panel.
    tier: Option<(OffloadStats, OffloadStats, usize)>,
}

struct Ctx<'a> {
    spec: &'a EngineSpec,
    opts: &'a Opts,
    reqs: &'a [Req],
    ramp: &'a [Req],
    warm: &'a Req,
    started: Instant,
    measure: bool,
}

impl Ctx<'_> {
    fn window(&self) -> Duration {
        // The trace pass splits the window between engine and replica.
        Duration::from_secs_f64(if self.opts.trace {
            self.opts.seconds / 2.0
        } else {
            self.opts.seconds
        })
    }

    fn pages_total(&self) -> usize {
        self.spec.clients * self.spec.shape.max_context().div_ceil(PAGE_TOKENS)
    }

    fn oracle<B: PanelWeights>(&self, pm: &PackedModel<B>, run: &ClosedRun) -> (u64, u64) {
        let done = run
            .done
            .iter()
            .map(|d| (&self.reqs[d.index % self.reqs.len()], &d.tokens[..]))
            .collect();
        oracle::check(pm, self.spec.shape.max_prompt(), self.opts, done)
    }

    /// The traced half of the trace pass: the closed loop over the replica.
    fn run_replica<W: Weights>(&self, w: W) -> (ClosedRun, Spans) {
        let clients = self.spec.clients;
        let max_rows = self.spec.shape.max_prompt();
        let mut rep = Replica::new(
            w,
            clients,
            max_rows,
            self.pages_total(),
            PAGE_TOKENS,
            SPAN_CAPACITY,
        );
        warm_up(&mut rep, self.warm);
        rep.spans.spans.clear();
        let run = closed::run(&mut rep, self.ramp, self.reqs, self.window());
        (run, rep.spans)
    }
}

pub fn run(spec: &EngineSpec, opts: &Opts) -> Report {
    let spec = &EngineSpec {
        shape: opts.shape(&spec.shape),
        ..*spec
    };
    let cfg = spec::model_config();
    let n = ((spec.clients as f64 * opts.seconds * REQS_PER_CLIENT_SECOND).ceil() as usize)
        .max(DIGEST_REQUESTS);
    let reqs = gen::requests(&spec.shape, n, cfg.vocab, opts.seed, 1);
    let warm_shape = Shape {
        gen: Len::Fixed(4),
        ..spec.shape
    };
    let warm = gen::requests(&warm_shape, 1, cfg.vocab, opts.seed, 2).remove(0);
    // Client k of n ramps in with (k + 1) / n of a request's tokens, so the
    // clients finish evenly apart.
    let mut ramp = gen::requests(&spec.shape, spec.clients, cfg.vocab, opts.seed, 3);
    for (k, r) in ramp.iter_mut().enumerate() {
        r.n_tokens = (r.n_tokens * (k + 1)).div_ceil(spec.clients);
    }

    let before = probe::Ceilings::probe();
    let mut setups = Vec::with_capacity(opts.setup_reps());
    let mut measured = None;
    for rep in 0..opts.setup_reps() {
        let ctx = Ctx {
            spec,
            opts,
            reqs: &reqs,
            ramp: &ramp,
            warm: &warm,
            started: Instant::now(),
            measure: rep == 0,
        };
        let model = GptModel::random(cfg.clone(), spec::WEIGHT_SEED);
        let (parts, m) = match spec.weights {
            WeightPath::Int8 => {
                let t = Instant::now();
                let pm = PackedModel::quantize_pack(&model, spec::INT8_GROUP);
                let parts = SetupParts {
                    quantize_pack_s: t.elapsed().as_secs_f64(),
                    ..Default::default()
                };
                resident(&pm, &ctx, parts)
            }
            WeightPath::F32 => {
                let t = Instant::now();
                let pm = PackedModel::pack(&model);
                let parts = SetupParts {
                    pack_s: t.elapsed().as_secs_f64(),
                    ..Default::default()
                };
                resident(&pm, &ctx, parts)
            }
            WeightPath::Streamed {
                resident_panels,
                prefetch_depth,
            } => streamed(model, &ctx, resident_panels, prefetch_depth),
        };
        setups.push(parts);
        measured = measured.or(m);
    }
    let after = probe::Ceilings::probe();
    let m = measured.expect("the first repetition measures");
    report(spec, opts, &setups, m, before, after)
}

/// One request through a fresh engine: faults in the code and buffers the
/// timed window would otherwise pay for on its first request.
fn warm_up<E: BatchEngine>(eng: &mut E, warm: &Req) {
    let mut out = vec![eng.prefill(0, &warm.prompt).expect("warm-up prefill")];
    for _ in 1..warm.n_tokens {
        eng.decode_step(&[0], &mut out).expect("warm-up decode");
    }
    eng.release(0);
}

fn resident<B: PanelWeights>(
    pm: &PackedModel<B>,
    ctx: &Ctx,
    mut parts: SetupParts,
) -> (SetupParts, Option<Measured>) {
    let (clients, pages) = (ctx.spec.clients, ctx.pages_total());
    let mut eng = PagedEngine::new(pm, clients, pages, PAGE_TOKENS);
    warm_up(&mut eng, ctx.warm);
    parts.total_s = ctx.started.elapsed().as_secs_f64();
    if !ctx.measure {
        return (parts, None);
    }
    let run = closed::run(&mut eng, ctx.ramp, ctx.reqs, ctx.window());
    let peak_rss_mb = probe::peak_rss_mb();
    drop(eng);

    let traced = ctx.opts.trace.then(|| {
        let (run, spans) = ctx.run_replica(pm);
        Traced {
            run,
            spans,
            gemm_bytes_per_pass: pm.weight_stream_bytes(),
            tier: None,
        }
    });
    let (oracle_checked, oracle_mismatches) = ctx.oracle(pm, &run);
    (
        parts,
        Some(Measured {
            run,
            peak_rss_mb,
            traced,
            oracle_checked,
            oracle_mismatches,
        }),
    )
}

/// The weight file lives beside the benchmark's executable (inside the
/// checkout's build directory) and is removed when the run ends.
struct WeightFile(PathBuf);

impl WeightFile {
    fn new() -> Self {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(PathBuf::from))
            .unwrap_or_else(|| PathBuf::from("."));
        WeightFile(dir.join(format!("dsi-benchmark-weights-{}.bin", std::process::id())))
    }
}

impl Drop for WeightFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn streamed(
    model: GptModel,
    ctx: &Ctx,
    resident_panels: usize,
    prefetch_depth: usize,
) -> (SetupParts, Option<Measured>) {
    let mut parts = SetupParts::default();
    let file = WeightFile::new();
    let t = Instant::now();
    dsi_model::io::save(&model, &file.0).expect("save weight file");
    parts.io_save_ms = t.elapsed().as_secs_f64() * 1e3;

    // The budget is stated in panels; a first open reads the panel size.
    let t = Instant::now();
    let probe_store =
        OffloadStore::open(&file.0, OffloadConfig::default()).expect("open weight file");
    let panel_bytes = probe_store.panel_bytes();
    drop(probe_store);
    let tier = OffloadConfig {
        resident_budget_bytes: resident_panels * panel_bytes,
        prefetch_depth,
        ..OffloadConfig::default()
    };
    let store = OffloadStore::open(&file.0, tier.clone()).expect("open weight file under budget");
    parts.open_ms = t.elapsed().as_secs_f64() * 1e3;

    let clients = ctx.spec.clients;
    let mut eng = StreamedEngine::new(store, clients, clients * ctx.spec.shape.max_context());
    warm_up(&mut eng, ctx.warm);
    parts.total_s = ctx.started.elapsed().as_secs_f64();
    if !ctx.measure {
        return (parts, None);
    }
    // Serving from the tier is the point: the f32 model leaves memory before
    // the window and is rebuilt for the oracle after it.
    drop(model);
    let run = closed::run(&mut eng, ctx.ramp, ctx.reqs, ctx.window());
    let peak_rss_mb = probe::peak_rss_mb();
    drop(eng);

    let traced = ctx.opts.trace.then(|| {
        let store = OffloadStore::open(&file.0, tier).expect("reopen weight file");
        let gemm_bytes_per_pass = Streamed(&store).gemm_bytes_per_pass();
        let s0 = store.stats();
        let (run, spans) = ctx.run_replica(Streamed(&store));
        Traced {
            run,
            spans,
            gemm_bytes_per_pass,
            tier: Some((s0, store.stats(), panel_bytes)),
        }
    });
    let model = GptModel::random(spec::model_config(), spec::WEIGHT_SEED);
    let pm = PackedModel::pack(&model);
    let (oracle_checked, oracle_mismatches) = ctx.oracle(&pm, &run);
    (
        parts,
        Some(Measured {
            run,
            peak_rss_mb,
            traced,
            oracle_checked,
            oracle_mismatches,
        }),
    )
}

/// Requests the replica and the engine both completed must carry the same
/// tokens, or the replica's spans time a different computation.
fn replica_mismatches(engine: &ClosedRun, replica: &ClosedRun) -> (u64, u64) {
    let (mut compared, mut differ) = (0, 0);
    for r in &replica.done {
        if let Some(e) = engine.done.iter().find(|e| e.index == r.index) {
            compared += 1;
            if e.tokens != r.tokens {
                eprintln!("replica differs from engine on request {}", r.index);
                differ += 1;
            }
        }
    }
    (compared, differ)
}

fn report(
    spec: &EngineSpec,
    opts: &Opts,
    setups: &[SetupParts],
    m: Measured,
    before: probe::Ceilings,
    after: probe::Ceilings,
) -> Report {
    let mut r = Report::default();
    let run = &m.run;
    let mut failed = run.failed + m.oracle_mismatches;

    let mut digest = Digest::default();
    let mut digested = 0;
    for i in 0..DIGEST_REQUESTS {
        if let Some(d) = run.done.iter().find(|d| d.index == i) {
            digest.push_tokens(i, &d.tokens);
            digested += 1;
        }
    }
    r.note(format!(
        "closed loop: {} clients, {:.2} s in {} rounds, {} requests completed, {} tokens, {} engine errors",
        spec.clients,
        run.wall_s,
        run.rounds.len(),
        run.timed().count(),
        run.tokens,
        run.failed
    ));
    r.note(format!(
        "oracle: {} sampled, {} mismatches",
        m.oracle_checked, m.oracle_mismatches
    ));
    r.note(format!(
        "tokens_digest {} (first {digested} of {DIGEST_REQUESTS} requests)",
        digest.hex()
    ));
    before.noise_guard(&after, &mut r);

    let setup_of = |f: fn(&SetupParts) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    if opts.trace {
        let t = m.traced.as_ref().expect("trace pass ran the replica");
        let (compared, differ) = replica_mismatches(run, &t.run);
        failed += differ + t.run.failed;
        r.note(format!(
            "replica: {compared} requests compared with the engine, {differ} differ"
        ));
        before.machine_metrics(&after, &mut r);
        layer_metrics(&mut r, spec, run, t);
        r.set("model.pack_s", setup_of(|s| s.pack_s));
        r.set("model.quantize_pack_s", setup_of(|s| s.quantize_pack_s));
        r.set("model.io_save_ms", setup_of(|s| s.io_save_ms));
        r.set("zero.open_ms", setup_of(|s| s.open_ms));
    } else {
        // Every request of a closed loop has one shape, so what tells its
        // repetitions apart is the machine, and a disturbed machine only
        // ever adds time: latency, like the rates, is the fast quartile.
        let seen: Vec<Seen> = run
            .timed()
            .map(|d| Seen {
                n_tokens: d.tokens.len(),
                latency_ms: Some(d.latency_ms),
            })
            .chain((0..run.failed).map(|_| Seen {
                n_tokens: 1,
                latency_ms: None,
            }))
            .collect();
        let latency = sorted(
            seen.iter()
                .map(|s| s.latency_ms.unwrap_or(NEVER_MS))
                .collect(),
        );
        let whole = Round {
            wall_s: run.wall_s,
            tokens: run.tokens,
            cpu_s: run.cpu_s,
        };
        let tok_s = over_rounds(&run.rounds, &whole, 0.75, |x| x.tokens as f64 / x.wall_s);
        // A closed loop completes few, long requests per window, so goodput
        // is counted in request-equivalents: the share of requests inside
        // the SLO times the output rate over the tokens of one request.
        let mean_tokens = seen.iter().map(|s| s.n_tokens).sum::<usize>() as f64 / seen.len() as f64;
        let slo = slo_share(&seen, &spec.slo);
        r.set("setup_s", setup_of(|s| s.total_s));
        r.set("tok_s", tok_s);
        r.set("req_p50_ms", percentile(&latency, 0.25));
        r.set("goodput_rps", slo * tok_s / mean_tokens);
        r.set("slo_share", slo);
        r.set(
            "served_share",
            run.timed().count() as f64 / seen.len() as f64,
        );
        r.set(
            "cpu_ms_per_tok",
            over_rounds(&run.rounds, &whole, 0.25, |x| {
                x.cpu_s * 1e3 / x.tokens as f64
            }),
        );
        r.set("peak_rss_mb", m.peak_rss_mb);
    }
    r.attempted = run.done.len() as u64 + run.failed;
    r.failed = failed;
    r.correct = failed == 0 && m.oracle_checked > 0;
    r
}

fn layer_metrics(r: &mut Report, spec: &EngineSpec, run: &ClosedRun, t: &Traced) {
    let cfg = spec::model_config();
    let (h, layers) = (cfg.hidden as f64, cfg.layers as f64);

    // Engine boundary (untraced half of the window).
    let step_us = mean(&run.step_us);
    let steps = sorted(run.step_us.clone());
    let prefill_us_per_tok = run.prefill_s * 1e6 / run.prefill_tokens.max(1) as f64;
    r.set("model.step_us", step_us);
    r.set_supported("model.step_p99_us", &steps, 0.99);
    r.set("model.prefill_us_per_tok", prefill_us_per_tok);
    r.set("model.kv_pages_high_water", run.kv_high_water as f64);
    r.set("model.kv_slack_share", run.kv_slack_share());
    let ttft = sorted(run.done.iter().map(|d| d.ttft_ms).collect());
    let gaps = sorted(run.gaps_ms.clone());
    r.set(
        "core.ttft_p50_ms",
        if ttft.is_empty() {
            0.0
        } else {
            percentile(&ttft, 0.5)
        },
    );
    r.set_supported("core.itl_p50_ms", &gaps, 0.5);
    r.set_supported("core.itl_p90_ms", &gaps, 0.9);
    r.set_supported("core.itl_p99_ms", &gaps, 0.99);
    if matches!(spec.weights, WeightPath::Streamed { .. }) {
        r.set("core.streamed_step_us", step_us);
        r.set("core.streamed_prefill_us_per_tok", prefill_us_per_tok);
    }

    // Replica regions (traced half).
    let (pre, dec) = span::aggregate(&t.spans.spans);
    let per_step_us = |k: Kind| dec.of(k) as f64 / dec.passes.max(1) as f64 / 1e3;
    r.set("kernels.qkv_us", per_step_us(Kind::Qkv));
    r.set("kernels.attn_us", per_step_us(Kind::Attn));
    r.set("kernels.wo_us", per_step_us(Kind::Wo));
    r.set("kernels.ff1_us", per_step_us(Kind::Ff1));
    r.set("kernels.ff2_us", per_step_us(Kind::Ff2));
    r.set("kernels.logits_us", per_step_us(Kind::Logits));
    r.set("model.embed_us", per_step_us(Kind::Embed));
    r.set("model.kv_write_us", per_step_us(Kind::KvWrite));
    // Computed from tensor sizes, not hardware counters: packed operand bytes
    // per pass, 2·m·k·n per GEMM, K and V rows read per attention call.
    let gemm_flops_per_row = 2.0 * (12.0 * h * h * layers + h * cfg.vocab as f64);
    let per_ns = |num: f64, ns: u64| if ns == 0 { 0.0 } else { num / ns as f64 };
    r.set(
        "kernels.gemm_gbps",
        per_ns(
            (t.gemm_bytes_per_pass as u64 * dec.passes) as f64,
            dec.gemm_ns(),
        ),
    );
    r.set(
        "kernels.gemm_gflops",
        per_ns(gemm_flops_per_row * dec.rows as f64, dec.gemm_ns()),
    );
    r.set(
        "kernels.attn_gbps",
        per_ns(
            dec.kv_rows as f64 * h * 4.0 * 2.0 * layers,
            dec.of(Kind::Attn),
        ),
    );
    r.set(
        "kernels.prefill_gemm_gflops",
        per_ns(gemm_flops_per_row * pre.rows as f64, pre.gemm_ns()),
    );
    r.set(
        "kernels.prefill_attn_ms",
        pre.of(Kind::Attn) as f64 / pre.passes.max(1) as f64 / 1e6,
    );
    let regions_us = (dec.wall_ns - dec.of(Kind::Decode)) as f64 / dec.passes.max(1) as f64 / 1e3;
    let unattributed = 1.0 - regions_us / step_us;
    r.set("model.step_unattributed_share", unattributed);
    if unattributed > 0.10 {
        r.note(format!(
            "replica regions cover only {:.0} % of an engine step: a region is missing",
            (1.0 - unattributed) * 100.0
        ));
    }

    if let Some((s0, s1, panel_bytes)) = &t.tier {
        // Counters are monotonic; the replica's window is the difference.
        let d = |f: fn(&OffloadStats) -> u64| (f(s1) - f(s0)) as f64;
        let acquires = d(|s| s.hits + s.demand_fetches + s.sync_fallbacks);
        r.set("zero.acquire_wait_us", per_step_us(Kind::Acquire));
        r.set(
            "zero.acquire_wait_share",
            dec.of(Kind::Acquire) as f64 / dec.wall_ns.max(1) as f64,
        );
        r.set("zero.hit_ratio", d(|s| s.hits) / acquires.max(1.0));
        r.set("zero.demand_fetches", d(|s| s.demand_fetches));
        r.set("zero.prefetch_fetches", d(|s| s.prefetch_fetches));
        r.set("zero.evictions", d(|s| s.evictions));
        r.set("zero.prefetch_dropped", d(|s| s.prefetch_dropped));
        r.set(
            "zero.retries",
            d(|s| s.short_read_retries + s.checksum_retries),
        );
        r.set("zero.bytes_read", d(|s| s.bytes_read));
        r.set("zero.fetch_gbps", d(|s| s.bytes_read) / t.run.wall_s / 1e9);
        r.set(
            "zero.read_amplification",
            d(|s| s.bytes_read) / ((pre.passes + dec.passes) as f64 * layers * *panel_bytes as f64),
        );
        r.set(
            "zero.peak_resident_mb",
            s1.peak_resident_bytes as f64 / (1 << 20) as f64,
        );
    }

    // The benchmark's own cost: spans recorded × the cost of one span, and
    // how the replica's pace compares with the engine's.
    let span_ns = t.spans.spans.len() as f64 * span::span_cost_ns();
    r.set("bench.trace_overhead_share", span_ns / (t.run.wall_s * 1e9));
    let (engine_rate, replica_rate) = (
        run.tokens as f64 / run.wall_s,
        t.run.tokens as f64 / t.run.wall_s,
    );
    r.set(
        "bench.replica_vs_engine_share",
        engine_rate / replica_rate - 1.0,
    );
}
