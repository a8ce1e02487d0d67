//! Robustness benchmark: what the frozen `benchmark/` deliberately leaves
//! out — fault storms, overload shedding, and what fault hooks cost when
//! armed with nothing scripted — for the three runtimes that recover from
//! faults, under one measurement protocol (`dsi_bench`: interleaved reps,
//! medians with their quartile spread).
//!
//! Three sections, one JSON (`BENCH_robustness.json`):
//! * **tp** — the TP group (`Engine::group`: every pass split across its
//!   members). Armed-idle: no injector vs an injector holding an *empty*
//!   plan (consulted at every join and layer). Storm: a sub-timeout stall
//!   the joins ride out and a member panic (permanent: the group narrows to
//!   tp=1, the pass is recovered by prefix replay) in one decode.
//! * **serve** — shedding on/off at 0.5×/1×/3× of the calibrated service
//!   rate on a one-slot server; one slot vs continuous batching on the
//!   same 3× burst, and
//!   the continuous arm again under an engine-fault storm (panics, stalls
//!   past the step deadline, corruption, allocator exhaustion); armed-idle
//!   cost of `FaultyEngine` + the scheduler's per-step `catch_unwind`; a
//!   permanent-fault storm against the breaker.
//! * **offload** — streamed decode under a resident budget smaller than
//!   the model. Armed-idle: no injector vs an empty one (consulted on every
//!   panel read). Storms: `SlowRead` stalls at several depths × stall
//!   grades. A dead prefetcher must degrade to synchronous fetch.
//!
//! Two gates, each one function in `dsi_bench` called once per section:
//! * armed-idle — the armed median is slower than the unarmed median by
//!   less than 2%, or by less than the unarmed configuration's own
//!   rep-to-rep quartile spread when that is wider (a fixed 2% sits inside
//!   this runner's noise floor);
//! * recovered goodput — under the storm the runtime keeps ≥ 0.25 of its
//!   clean median goodput, **net of the injected sleep**: the storm is
//!   stated in absolute time, so a raw `clean / storm` ratio falls whenever
//!   the clean run gets faster and gates the injector, not the recovery.
//!
//! Every storm cell also asserts token identity against the solo resident
//! oracle and that the runtime's books balance; `serve_section` lists the
//! serving claims asserted besides.
//!
//! Modes: default — full sizes, writes the JSON once every gate has held;
//! `--smoke` — small sizes, no JSON, every gate except the serving bars
//! that need more requests to resolve (three ratios between arms, the
//! breaker's fast-fail count): CI's no-hang wall-clock gate runs this.

use dsi_bench::{
    armed_idle, assert_armed_idle, assert_recovered_goodput, measure_interleaved, quartiles,
    ArmedIdle, Recovered,
};
use dsi_core::batch::{BatchEngine, FaultyEngine};
use dsi_core::StreamedEngine;
use dsi_model::fast::PackedModel;
use dsi_model::paged::{Engine, GroupReport, PagedEngine, StepError};
use dsi_model::reference::GptModel;
use dsi_model::{zoo, GptConfig};
use dsi_serve::{ContinuousConfig, EngineMode, Outcome, Request, ServeConfig, ServeReport, Server};
use dsi_sim::fault::{
    EngineFaultInjector, EngineFaultKind, EngineFaultPlan, EngineFaultSite, EngineFaultSpec, FaultKind,
    FaultPlan, FaultSite, FaultSpec, IoFaultInjector, IoFaultKind, IoFaultPlan, IoFaultSite, IoFaultSpec,
};
use dsi_sim::shmem::CommConfig;
use dsi_zero::offload::{OffloadConfig, OffloadStats, OffloadStore};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROMPT: [usize; 4] = [1, 2, 3, 4];
const SEED: u64 = 42;

fn gpt(name: &str, hidden: usize, layers: usize, vocab: usize, max_seq: usize) -> GptConfig {
    GptConfig { name: name.into(), hidden, layers, heads: 8, vocab, max_seq }
}

fn median_of<S>(samples: &[S], key: impl Fn(&S) -> f64) -> f64 {
    quartiles(&samples.iter().map(key).collect::<Vec<_>>()).1
}

/// The rep at the sample's median of `key`.
fn median_by<S>(samples: &[S], key: impl Fn(&S) -> f64) -> &S {
    let m = median_of(samples, &key);
    samples.iter().find(|s| key(s) == m).expect("the median is one of the reps")
}

// ---------------------------------------------------------------------------
// TP engine
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct TpSection {
    model: String,
    tp: usize,
    gen_tokens: usize,
    reps: usize,
    /// Injector armed, empty plan: the hook is consulted everywhere.
    armed: ArmedIdle,
    storm: Recovered,
}

/// A one-slot TP group of `tp` members over `pm` with `comm`; its pool is
/// built here, outside any timed region.
fn tp_engine<'p>(pm: &'p PackedModel<'p>, tp: usize, comm: CommConfig) -> PagedEngine<'p, 'p> {
    Engine::group(pm, tp, comm, 1, 8, 16)
}

/// Greedy decode of `gen` tokens on slot 0, recovering from every fault the
/// way the serving scheduler does: seat the committed context again. A
/// member's panic fails its pass like its typed departure.
fn decode_replaying(eng: &mut PagedEngine<'_, '_>, prompt: &[usize], gen: usize) -> Vec<usize> {
    let mut toks: Vec<usize> = Vec::with_capacity(gen);
    let mut out = Vec::with_capacity(1);
    let mut seated = false;
    while toks.len() < gen {
        out.clear();
        let r = catch_unwind(AssertUnwindSafe(|| {
            if seated {
                eng.pass(&[], &[0], &mut out)
            } else {
                let ctx: Vec<usize> = prompt.iter().chain(&toks[..toks.len().saturating_sub(1)]).copied().collect();
                eng.pass(&[(0, &ctx)], &[], &mut out)
            }
        }));
        let ok = matches!(r, Ok(Ok(())));
        match r {
            Ok(Ok(())) if seated || toks.is_empty() => toks.push(out[0]),
            Ok(Ok(())) => assert_eq!(toks.last(), Some(&out[0]), "tp: a replay reproduces the last token"),
            Ok(Err(StepError::Member(_))) | Err(_) => {
                if seated {
                    eng.release(0);
                }
            }
            Ok(Err(e)) => panic!("tp: the pool holds one sequence: {e:?}"),
        }
        seated = ok;
    }
    eng.release(0);
    toks
}

fn tp_section(full: bool) -> TpSection {
    // Wide enough that per-layer GEMM work dominates the nine joins of a
    // pass, and a decode long enough that a recovery does not dwarf it.
    let (config, gen, tp) = (gpt("bench-tp", 256, 6, 512, 128), 80, 2);
    let (reps, storm_reps) = if full { (40, 9) } else { (15, 5) };
    let model = GptModel::random(config.clone(), SEED);
    let pm = PackedModel::pack(&model);
    let want = pm.session(PROMPT.len()).generate(&PROMPT, gen);

    let injector = Some(Arc::new(FaultPlan::new(Vec::new()).injector()));
    let cfgs = [CommConfig::default(), CommConfig { injector, ..CommConfig::default() }];
    let dts = measure_interleaved(cfgs.len(), reps, |i| {
        let mut eng = tp_engine(&pm, tp, cfgs[i].clone());
        let t0 = Instant::now();
        let out = decode_replaying(&mut eng, &PROMPT, gen);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(out, want, "tp: hardened path diverged from the solo oracle");
        dt
    });
    let armed = armed_idle(&dts[0], &dts[1]);
    assert_armed_idle("tp (injector)", &armed);

    // One decode, two faults on member 1: a stall the joins ride out, and a
    // panic (the group narrows to tp=1 and the pass is replayed).
    let stall_ms = 20;
    let layer_site = |token| FaultSite::Layer { token, layer: 1 };
    let storm = FaultPlan::new(vec![
        FaultSpec { rank: 1, site: layer_site(PROMPT.len() + gen / 4), kind: FaultKind::Stall { millis: stall_ms } },
        FaultSpec { rank: 1, site: layer_site(PROMPT.len() + gen / 2), kind: FaultKind::Panic },
    ]);
    let plans = [FaultPlan::new(Vec::new()), storm];
    let runs = measure_interleaved(plans.len(), storm_reps, |i| {
        let comm = CommConfig { timeout: Duration::from_millis(250), injector: Some(Arc::new(plans[i].injector())) };
        let mut eng = tp_engine(&pm, tp, comm);
        let t0 = Instant::now();
        let out = decode_replaying(&mut eng, &PROMPT, gen);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(out, want, "tp: recovered decode diverged from the solo oracle");
        (dt, eng.report().clone())
    });
    for (_, clean) in &runs[0] {
        assert_eq!(clean.rebuilds, 0, "tp: the clean arm saw a fault: {:?}", clean.faults);
    }
    for (_, r) in &runs[1] {
        let landed = r.rebuilds == 1 && r.degradations == [(tp, 1)];
        assert!(landed, "tp: the storm must recover one fault and narrow once: {:?}", r.faults);
    }
    let dt = |runs: &[(f64, GroupReport)]| median_of(runs, |r| r.0);
    let inputs = format!("{storm_reps} reps a side of {gen} tokens at tp {tp}");
    let storm = assert_recovered_goodput("tp", dt(&runs[0]), dt(&runs[1]), stall_ms as f64 / 1e3, &inputs);
    TpSection { model: config.name, tp, gen_tokens: gen, reps, armed, storm }
}

// ---------------------------------------------------------------------------
// Serve
// ---------------------------------------------------------------------------

const GEN_TOKENS: usize = 24;
const SERVE_TP: usize = 2;

fn request(i: usize) -> Request {
    let prompt = (0..PROMPT.len()).map(|j| (i + j) % 101).collect();
    Request { prompt, n_tokens: GEN_TOKENS, deadline: None }
}

/// One slot — one request decodes at a time — over `pages_total` pages.
fn one_slot(pages_total: usize) -> EngineMode {
    EngineMode::Continuous(ContinuousConfig { max_slots: 1, pages_total, ..ContinuousConfig::default() })
}

/// Mean sequential service time of a one-slot server: its capacity is
/// 1/service.
fn calibrate(model: &Arc<GptModel>, tp: usize, reps: usize) -> Duration {
    let mut cfg = ServeConfig::new(tp);
    cfg.mode = one_slot(64);
    cfg.comm.timeout = Duration::from_secs(5);
    let srv = Server::start(Arc::clone(model), cfg);
    // Warm-up: the first request touches every buffer once.
    srv.submit(request(0)).unwrap().wait();
    let t0 = Instant::now();
    for i in 0..reps {
        let Outcome::Completed { .. } = srv.submit(request(i)).unwrap().wait() else {
            panic!("calibration request failed");
        };
    }
    let per = t0.elapsed() / reps as u32;
    srv.drain(Duration::from_secs(5));
    per
}

/// Offer `n` requests at `rate_mult × (1/service)` with seeded exponential
/// inter-arrivals, wait for every ticket, drain, balance the books, and
/// return the report with each admitted request's outcome.
type Offered = (ServeReport, Vec<(usize, Outcome)>);

fn offer(srv: Server, service: Duration, rate_mult: f64, seed: u64, n: usize) -> Offered {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mean_gap = service.as_secs_f64() / rate_mult;
    let start = Instant::now();
    let mut next_arrival = 0.0f64;
    let mut tickets = Vec::new();
    for i in 0..n {
        // Exponential inter-arrival against an absolute schedule: oversleep
        // on one gap is repaid by a burst on the next, so the offered rate
        // holds even with coarse sleep granularity. (No spinning — on a
        // single core a spinning submitter starves the engine itself.)
        next_arrival += -rng.unit_f64().max(1e-12).ln() * mean_gap;
        let rem = next_arrival - start.elapsed().as_secs_f64();
        if rem > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(rem));
        }
        if let Ok(t) = srv.submit(request(i)) {
            tickets.push((i, t));
        }
    }
    // Every admitted ticket resolves; rejections were typed.
    let outcomes: Vec<_> = tickets.into_iter().map(|(i, t)| (i, t.wait())).collect();
    let rep = srv.drain(Duration::from_secs(30));
    let done = outcomes.iter().filter(|(_, o)| matches!(o, Outcome::Completed { .. })).count();
    assert_eq!(rep.submitted, n as u64, "books: every offer is counted");
    assert_eq!(rep.submitted, rep.admitted + rep.rejected_total(), "books: admitted + rejected");
    assert_eq!(rep.admitted, rep.completed + rep.evicted + rep.deadline_expired, "books: admitted resolve");
    assert_eq!((rep.admitted, rep.completed), (outcomes.len() as u64, done as u64), "books: client tally");
    (rep, outcomes)
}

fn run_regime(model: &Arc<GptModel>, service: Duration, rate_mult: f64, shedding: bool, n: usize) -> ServeReport {
    let mut cfg = ServeConfig::new(SERVE_TP);
    cfg.comm.timeout = Duration::from_secs(5);
    // Shedding: a short queue and a deadline of ten service times. Without
    // it every offer queues, each on one page of the 512.
    cfg.mode = one_slot(512);
    (cfg.queue_capacity, cfg.default_deadline) =
        if shedding { (4, Some(service * 10)) } else { (usize::MAX / 2, None) };
    let seed = SEED ^ (rate_mult.to_bits() ^ shedding as u64);
    offer(Server::start(Arc::clone(model), cfg), service, rate_mult, seed, n).0
}

/// One engine discipline under the 3×-overload burst: tp=1, a bounded queue
/// of 8, no deadlines — queue overflow is the only shedding, so completed
/// per second isolates what the discipline itself buys. Every arm sees the
/// same seeded arrival schedule.
fn run_engine_arm(
    model: &Arc<GptModel>,
    service: Duration,
    mode: EngineMode,
    faults: Option<Arc<EngineFaultInjector>>,
    n: usize,
) -> Offered {
    let mut cfg = ServeConfig::new(1);
    cfg.queue_capacity = 8;
    cfg.default_deadline = None;
    cfg.mode = mode;
    cfg.engine_faults = faults;
    offer(Server::start(Arc::clone(model), cfg), service, 3.0, SEED ^ 0xe17, n)
}

fn continuous_mode(step_deadline: Option<Duration>) -> EngineMode {
    let rest = ContinuousConfig::default();
    EngineMode::Continuous(ContinuousConfig { max_slots: 8, pages_total: 64, page_tokens: 16, step_deadline, ..rest })
}

/// The engine-fault storm: every kind, the stalls past the step deadline,
/// all early enough in the burst's pass stream to land (one-pass
/// exhaustion storms, so none swallows a later spec).
fn engine_storm(deadline_ms: u64) -> EngineFaultPlan {
    use EngineFaultKind::{Corrupt, Exhaust, Panic, Stall};
    let specs = [
        (1, Corrupt),
        (2, Exhaust { calls: 1 }),
        (5, Panic),
        (7, Stall { millis: deadline_ms + 2 }),
        (12, Stall { millis: deadline_ms + 5 }),
        (16, Exhaust { calls: 1 }),
        (20, Corrupt),
        (26, Panic),
        (30, Stall { millis: deadline_ms + 8 }),
        (40, Panic),
    ];
    let spec = |(call, kind)| EngineFaultSpec { site: EngineFaultSite::Pass { call }, kind };
    EngineFaultPlan::new(specs.into_iter().map(spec).collect())
}

/// Decode wall time of the bare paged engine vs the same engine inside
/// `FaultyEngine` (empty plan) and the scheduler's per-step `catch_unwind`.
fn engine_armed_idle(model: &GptModel, reps: usize) -> ArmedIdle {
    const SLOTS: usize = 4;
    const STEPS: usize = 16;
    let pm = PackedModel::pack(model);
    let slots: Vec<usize> = (0..SLOTS).collect();
    let time = |eng: &mut dyn BatchEngine, guarded: bool| {
        for &s in &slots {
            eng.prefill(s, &[s + 1, s + 2, s + 3]).unwrap();
        }
        let mut out = Vec::with_capacity(SLOTS);
        let t0 = Instant::now();
        for _ in 0..STEPS {
            out.clear();
            if guarded {
                catch_unwind(AssertUnwindSafe(|| eng.decode_step(&slots, &mut out))).unwrap().unwrap();
            } else {
                eng.decode_step(&slots, &mut out).unwrap();
            }
        }
        t0.elapsed().as_secs_f64()
    };
    let dts = measure_interleaved(2, reps, |i| {
        let mut bare = PagedEngine::new(&pm, SLOTS, 64, 16);
        if i == 0 {
            time(&mut bare, false)
        } else {
            let inj = Arc::new(EngineFaultPlan::new(Vec::new()).injector());
            time(&mut FaultyEngine::new(bare, inj), true)
        }
    });
    armed_idle(&dts[0], &dts[1])
}

/// A storm of scripted faults, breaker on/off: member 1 stalls past the
/// join deadline at the first join of each member barrier until the script
/// runs out (a failed pass re-creates the barrier, so the next pass hits
/// the next spec), and no request gets a replay.
fn run_breaker_storm(model: &Arc<GptModel>, breaker: bool, n: usize) -> ServeReport {
    let mut cfg = ServeConfig::new(SERVE_TP);
    cfg.mode = EngineMode::Continuous(ContinuousConfig { max_slots: 1, replay_budget: 0, ..ContinuousConfig::default() });
    cfg.comm.timeout = Duration::from_millis(100);
    cfg.breaker.enabled = breaker;
    cfg.breaker.failure_threshold = 1;
    cfg.breaker.open_window = Duration::from_millis(400);
    let stall = FaultSpec { rank: 1, site: FaultSite::Barrier { epoch: 0 }, kind: FaultKind::Stall { millis: 120 } };
    cfg.comm.injector = Some(Arc::new(FaultPlan::new(vec![stall; 6]).injector()));
    // Paced slower than the engine so breaker state — not queue depth —
    // decides each admission, and open windows elapse mid-run.
    offer(Server::start(Arc::clone(model), cfg), Duration::from_millis(30), 1.0, SEED, n).0
}

#[derive(Serialize)]
struct RegimePoint {
    regime: &'static str,
    rate_multiplier: f64,
    shedding: bool,
    /// The rep at the median goodput.
    report: ServeReport,
}

#[derive(Serialize)]
struct ServeSection {
    n_requests: usize,
    service_time_ms: f64,
    regimes: Vec<RegimePoint>,
    /// Overloaded regime: p99 with shedding / p99 without. Bar: ≤ 0.5.
    p99_ratio_overloaded: f64,
    /// Overloaded regime: goodput with shedding / without. Bar: ≥ 0.9.
    goodput_ratio_overloaded: f64,
    engine_model: String,
    engine_requests: usize,
    /// Sequential tp=1 service time the engine comparison is paced by.
    single_service_time_ms: f64,
    /// The median rep of each arm at 3× overload, each with its scheduler
    /// report (occupancy histograms, page stats, recoveries).
    one_slot: ServeReport,
    continuous: ServeReport,
    continuous_faulted: ServeReport,
    /// Continuous goodput / one-slot goodput. Bar: ≥ 2.
    continuous_goodput_ratio_overloaded: f64,
    armed: ArmedIdle,
    /// Seconds per completed request, faulted vs clean continuous arm.
    storm: Recovered,
    storm_breaker_on: ServeReport,
    storm_breaker_off: Option<ServeReport>,
}

/// The serving claims, asserted beyond the two shared gates: overload is
/// shed through the bounded queue or deadlines while an admit-everything
/// server completes all; both engine disciplines survive the same burst and
/// the continuous one batches (occupancy > 1), accounts for every step and
/// drains its page pool whole; the storm triggers recovery and every
/// scripted fault lands; the breaker opens. Full mode adds the three ratio
/// bars recorded on [`ServeSection`] (medians of interleaved reps) and at
/// least one breaker fast-fail.
fn serve_section(full: bool) -> ServeSection {
    let model = Arc::new(GptModel::random(zoo::tiny(4), SEED));
    let (calib, n, reps, regimes, emodel_cfg, n_engine, armed_reps, n_breaker) = if full {
        // The batching win is weight streaming amortized across resident
        // rows: it needs per-layer weights that exceed cache (`tiny` sits in
        // L1 and would understate continuous batching tenfold).
        let regimes = vec![("light", 0.5), ("saturated", 1.0), ("overloaded", 3.0)];
        (24, 150, 5, regimes, gpt("bench-384", 384, 8, 512, 64), 60, 40, 30)
    } else {
        (8, 40, 3, vec![("overloaded", 3.0)], gpt("bench-192", 192, 8, 512, 64), 24, 24, 12)
    };
    let service = calibrate(&model, SERVE_TP, calib);
    let cells: Vec<(&str, f64, bool)> =
        regimes.into_iter().flat_map(|(r, mult)| [(r, mult, true), (r, mult, false)]).collect();
    let runs = measure_interleaved(cells.len(), reps, |i| run_regime(&model, service, cells[i].1, cells[i].2, n));
    let [shed, noshed] = [&runs[runs.len() - 2], &runs[runs.len() - 1]];
    assert!(shed.iter().all(|r| r.rejected_total() + r.deadline_expired > 0), "serve: overload must shed");
    assert!(noshed.iter().all(|r| r.completed == r.admitted), "serve: the admit-everything arm completes all");
    let p99_ratio = median_of(shed, |r| r.p99_latency_s) / median_of(noshed, |r| r.p99_latency_s);
    let goodput_ratio = median_of(shed, |r| r.goodput_rps) / median_of(noshed, |r| r.goodput_rps);
    println!("serve: 3x overload, shedding vs none: p99 ratio {p99_ratio:.3}, goodput ratio {goodput_ratio:.3}");
    let regimes = cells
        .iter()
        .zip(&runs)
        .map(|(&(regime, rate_multiplier, shedding), reps)| {
            let report = median_by(reps, |r| r.goodput_rps).clone();
            RegimePoint { regime, rate_multiplier, shedding, report }
        })
        .collect();

    // Engine disciplines head to head, and the continuous one under a storm
    // with stalls past the step deadline: same model, same core, same burst,
    // the three arms interleaved rep by rep. The deadline is 8 batch-1 steps
    // (a full batch's step is ~3) and at least 10 ms: a fixed 10 ms sat too
    // close to a full step of the wide model on a busy runner, whose spurious
    // timeouts opened the breaker and starved the arm.
    let emodel = Arc::new(GptModel::random(emodel_cfg.clone(), SEED));
    let service1 = calibrate(&emodel, 1, calib / 3 + 4);
    let step_deadline = (service1 * 8 / GEN_TOKENS as u32).max(Duration::from_millis(10));
    let storm_plan = engine_storm(step_deadline.as_millis() as u64);
    let injected_ms: u64 = storm_plan
        .specs
        .iter()
        .map(|s| if let EngineFaultKind::Stall { millis } = s.kind { millis } else { 0 })
        .sum();
    let pm = PackedModel::pack(&emodel);
    let mut oracle: Vec<Option<Vec<usize>>> = vec![None; n_engine];
    let arms = measure_interleaved(3, reps, |i| match i {
        0 => run_engine_arm(&emodel, service1, one_slot(64), None, n_engine).0,
        1 => run_engine_arm(&emodel, service1, continuous_mode(None), None, n_engine).0,
        _ => {
            let inj = Arc::new(storm_plan.injector());
            let mode = continuous_mode(Some(step_deadline));
            let (rep, outcomes) = run_engine_arm(&emodel, service1, mode, Some(Arc::clone(&inj)), n_engine);
            assert_eq!(inj.pending(), 0, "serve: part of the storm never landed");
            for (r, outcome) in outcomes {
                let want = oracle[r]
                    .get_or_insert_with(|| pm.session(PROMPT.len()).generate(&request(r).prompt, GEN_TOKENS));
                match outcome {
                    Outcome::Completed { tokens, .. } => assert_eq!(&tokens, want, "serve: request {r} diverged"),
                    Outcome::DeadlineExpired { partial } | Outcome::Evicted { partial, .. } => {
                        assert!(want.starts_with(&partial), "serve: request {r}: partial is no prefix")
                    }
                }
            }
            rep
        }
    });
    assert!(arms.iter().flatten().all(|r| r.completed > 0), "serve: every arm must complete work");
    for rep in arms[1].iter().chain(&arms[2]) {
        let sched = rep.scheduler.as_ref().expect("continuous arms publish a scheduler report");
        assert_eq!(sched.pages.fragmentation, 0, "serve: page pool must drain whole");
        assert_eq!(sched.occupancy_hist.iter().sum::<u64>(), sched.steps, "serve: histogram covers every step");
        assert!(sched.mean_occupancy > 1.0, "serve: 3x overload must co-schedule ({:.2})", sched.mean_occupancy);
    }
    let recoveries = |r: &ServeReport| r.scheduler.as_ref().map_or(0, |s| s.recoveries);
    assert!(arms[2].iter().all(|r| recoveries(r) > 0), "serve: the storm must trigger recovery");
    // Seconds per completed request: the arms complete different counts.
    let [single, cont, faulted] = [0, 1, 2].map(|i| median_by(&arms[i], |r| 1.0 / r.goodput_rps));
    let continuous_ratio = cont.goodput_rps / single.goodput_rps;
    // Where the storm arm's uncompleted requests went: shed by an open
    // breaker or otherwise, evicted (engine faults past the replay budget,
    // page exhaustion, cancellation), or past their deadline.
    let fsched = faulted.scheduler.as_ref().expect("continuous arms publish a scheduler report");
    let (fault_evicted, page_evicted) = (fsched.engine_fault_evictions, fsched.page_evictions);
    let split = format!(
        "{} rejected by the breaker, {} otherwise, {} evicted ({fault_evicted} engine fault, {page_evicted} pages, \
         {} cancelled), {} past their deadline",
        faulted.rejected_breaker,
        faulted.rejected_total() - faulted.rejected_breaker,
        faulted.evicted,
        faulted.evicted - fault_evicted - page_evicted,
        faulted.deadline_expired,
    );
    println!(
        "serve: continuous {} done vs one slot {} done ({continuous_ratio:.2}x goodput); storm: {} done, {} recoveries; {split}",
        cont.completed,
        single.completed,
        faulted.completed,
        recoveries(faulted),
    );
    let inputs = format!(
        "clean {:.2} req/s, storm {:.2} req/s, the storm arm completed {}/{} submitted ({split}), {injected_ms} ms injected",
        cont.goodput_rps, faulted.goodput_rps, faulted.completed, faulted.submitted
    );
    let storm = assert_recovered_goodput(
        "serve",
        1.0 / cont.goodput_rps,
        1.0 / faulted.goodput_rps,
        injected_ms as f64 / 1e3 / faulted.completed as f64,
        &inputs,
    );
    let armed = engine_armed_idle(&emodel, armed_reps);
    assert_armed_idle("serve", &armed);

    let storm_on = run_breaker_storm(&model, true, n_breaker);
    let storm_off = full.then(|| run_breaker_storm(&model, false, n_breaker));
    println!("serve: breaker opened {}x, fast-failed {} admissions", storm_on.breaker_opens, storm_on.rejected_breaker);
    assert!(storm_on.breaker_opens >= 1, "serve: the fault storm must open the breaker");
    if full {
        assert!(p99_ratio <= 0.5, "serve: shedding must at least halve overloaded p99 ({p99_ratio:.3})");
        assert!(goodput_ratio >= 0.9, "serve: shedding must keep goodput within 10% ({goodput_ratio:.3})");
        assert!(continuous_ratio >= 2.0, "serve: continuous must double one-slot goodput ({continuous_ratio:.2}x)");
        assert!(storm_on.rejected_breaker >= 1, "serve: an open breaker must fast-fail an admission");
    }
    ServeSection {
        n_requests: n,
        service_time_ms: service.as_secs_f64() * 1e3,
        regimes,
        p99_ratio_overloaded: p99_ratio,
        goodput_ratio_overloaded: goodput_ratio,
        engine_model: emodel_cfg.name,
        engine_requests: n_engine,
        single_service_time_ms: service1.as_secs_f64() * 1e3,
        one_slot: single.clone(),
        continuous: cont.clone(),
        continuous_faulted: faulted.clone(),
        continuous_goodput_ratio_overloaded: continuous_ratio,
        armed,
        storm,
        storm_breaker_on: storm_on,
        storm_breaker_off: storm_off,
    }
}

// ---------------------------------------------------------------------------
// Offload tier
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct DegradedCell {
    depth: usize,
    stall_millis: u64,
    faults: u64,
    slow_reads: u64,
    storm: Recovered,
}

#[derive(Serialize)]
struct OffloadSection {
    model: String,
    panel_bytes: usize,
    budget_bytes: usize,
    slots: usize,
    gen_tokens: usize,
    reps: usize,
    armed: ArmedIdle,
    degraded: Vec<DegradedCell>,
    sync_fallbacks: u64,
}

/// Per-slot prompts for a batched run (distinct so cross-slot KV bleed
/// would show up as a divergence).
fn batch_prompts(slots: usize) -> Vec<Vec<usize>> {
    (0..slots).map(|s| vec![1 + s % 7, 2 + s % 5, 3, 4]).collect()
}

/// One streamed greedy decode of `want.len()` concurrent sequences over
/// `store`, checked against `want`; returns wall seconds and the store's
/// final counters. Batching is the point: per layer the fetch cost is paid
/// once while the compute scales with the batch (how ZeRO-Inference
/// amortizes the weight stream).
fn run_streamed(store: OffloadStore, want: &[Vec<usize>]) -> (f64, OffloadStats) {
    let slots = want.len();
    // Room for every slot's 4-token prompt plus its generation.
    let mut eng = StreamedEngine::new(store, slots, slots * (4 + want[0].len()));
    let t0 = Instant::now();
    let mut streams: Vec<Vec<usize>> = batch_prompts(slots)
        .iter()
        .enumerate()
        .map(|(s, p)| vec![eng.prefill(s, p).expect("prefill")])
        .collect();
    let ids: Vec<usize> = (0..slots).collect();
    let mut out = Vec::with_capacity(slots);
    for _ in 1..want[0].len() {
        out.clear();
        eng.decode_step(&ids, &mut out).expect("decode");
        for (stream, &t) in streams.iter_mut().zip(&out) {
            stream.push(t);
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(streams, want, "offload: streamed decode diverged from the resident oracle");
    (dt, eng.weights().stats())
}

/// A pure-`SlowRead` storm: `n` stalls of `millis` each, spread evenly
/// over the first `max_call` panel reads (call 0, the open-time probe, is
/// skipped so the storm hits steady-state decode, not `open`).
fn slow_storm(n: u64, max_call: u64, millis: u64) -> IoFaultPlan {
    let specs = (0..n)
        .map(|i| IoFaultSpec {
            site: IoFaultSite::Read { call: 1 + i * (max_call - 1) / n },
            kind: IoFaultKind::SlowRead { millis },
        })
        .collect();
    IoFaultPlan::new(specs)
}

fn offload_section(full: bool) -> OffloadSection {
    // A storm cell is (depth, stall ms, faults, over the first N reads).
    let (config, gen, slots, budget_panels, cells) = if full {
        let cells = [0, 2].into_iter().flat_map(|d| [(d, 2, 16, 120), (d, 6, 16, 120)]).collect();
        (gpt("bench-offload", 128, 6, 256, 64), 16, 16, 3, cells)
    } else {
        (zoo::tiny(3), 48, 2, 2, vec![(1, 4, 6, 40)])
    };
    let (reps, storm_reps) = (40, 5);
    let model = GptModel::random(config.clone(), SEED);
    let path = std::env::temp_dir().join(format!("dsi_bench_robustness_{}.bin", std::process::id()));
    dsi_model::io::save(&model, &path).expect("save weight file");
    let pm = PackedModel::pack(&model);
    let want: Vec<Vec<usize>> =
        batch_prompts(slots).iter().map(|p| pm.session(p.len()).generate(p, gen)).collect();
    let panel_bytes = OffloadStore::open(&path, OffloadConfig::default()).expect("probe").panel_bytes();
    let budget = panel_bytes * budget_panels;
    let open = |depth: usize, faults: Option<Arc<IoFaultInjector>>| {
        let cfg = OffloadConfig {
            resident_budget_bytes: budget,
            prefetch_depth: depth,
            faults,
            ..OffloadConfig::default()
        };
        OffloadStore::open(&path, cfg).expect("open store")
    };

    // Clean runs at every depth a storm cell uses, then the deepest again
    // with an armed, empty injector — interleaved rep by rep.
    let mut depths: Vec<usize> = cells.iter().map(|c: &(usize, u64, u64, u64)| c.0).collect();
    depths.dedup();
    let empty = Arc::new(IoFaultPlan::new(Vec::new()).injector());
    let runs = measure_interleaved(depths.len() + 1, reps, |i| match depths.get(i) {
        Some(&depth) => run_streamed(open(depth, None), &want),
        None => run_streamed(open(depths[i - 1], Some(Arc::clone(&empty))), &want),
    });
    assert!(runs.iter().flatten().all(|(_, stats)| stats.evictions > 0), "offload: the budget must force evictions");
    let dts = |runs: &[(f64, OffloadStats)]| runs.iter().map(|r| r.0).collect::<Vec<_>>();
    let armed = armed_idle(&dts(&runs[depths.len() - 1]), &dts(&runs[depths.len()]));
    assert_armed_idle("offload", &armed);

    let degraded = cells
        .into_iter()
        .map(|(depth, stall_millis, faults, max_call)| {
            let plan = slow_storm(faults, max_call, stall_millis);
            // A fresh injector each rep: faults fire once.
            let storm: Vec<_> = (0..storm_reps)
                .map(|_| run_streamed(open(depth, Some(Arc::new(plan.injector()))), &want))
                .collect();
            let (storm_dt, stats) = *median_by(&storm, |r| r.0);
            assert!(stats.slow_reads > 0, "offload: the storm never landed");
            let clean_dt = median_of(&runs[depths.iter().position(|&d| d == depth).unwrap()], |r| r.0);
            let what = format!("offload (depth {depth}, {faults} x {stall_millis} ms)");
            let inputs = format!("{} slow reads", stats.slow_reads);
            let storm = assert_recovered_goodput(&what, clean_dt, storm_dt, stats.stall_ms as f64 / 1e3, &inputs);
            DegradedCell { depth, stall_millis, faults, slow_reads: stats.slow_reads, storm }
        })
        .collect();

    // Dead prefetcher: synchronous fallback, still bit-exact.
    let store = open(1, None);
    store.kill_prefetcher();
    let sync_fallbacks = run_streamed(store, &want[..1]).1.sync_fallbacks;
    assert!(sync_fallbacks > 0, "offload: the fallback path never ran");
    println!("offload: dead prefetcher degraded to {sync_fallbacks} synchronous fetches, bit-exact");
    let _ = std::fs::remove_file(&path);

    let model = config.name;
    OffloadSection { model, panel_bytes, budget_bytes: budget, slots, gen_tokens: gen, reps, armed, degraded, sync_fallbacks }
}

#[derive(Serialize)]
struct Robustness {
    available_parallelism: usize,
    tp: TpSection,
    serve: ServeSection,
    offload: OffloadSection,
}

fn main() {
    let full = !std::env::args().any(|a| a == "--smoke");
    let result = Robustness {
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        tp: tp_section(full),
        serve: serve_section(full),
        offload: offload_section(full),
    };
    if !full {
        println!("bench_robustness --smoke: every gate held");
        return;
    }

    let json = serde_json::to_string_pretty(&result).expect("serialize");
    std::fs::write("BENCH_robustness.json", &json).expect("write BENCH_robustness.json");
    println!("[-> BENCH_robustness.json]");
}
