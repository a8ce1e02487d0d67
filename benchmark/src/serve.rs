//! The two serve workloads: a closed loop through `Server` in
//! continuous-batching mode.
//!
//! `clients` callers (enough to keep every slot full and the queue half
//! full) each send their next request the moment their previous one
//! completes, so the server is always full and does not have to shed; what
//! is measured is what admission, the scheduler loop, page accounting and
//! ticket delivery cost on top of the engine. One
//! thread plays all the callers: it sweeps the outstanding tickets with
//! `Ticket::try_wait`, stamps every completion it finds, sends the next
//! request in its place, and sleeps 0.5 ms (no spinning: a spinning caller
//! starves the engine on a two-core machine). The server only ever delivers
//! a final `Outcome`, so whole-request latency, send → completion seen by
//! the sweep, is what a client of this API can observe.
//!
//! The request list is one *pass* of `shapes` requests repeated over and
//! over: the same lengths in the same order, other token ids each time
//! (nothing a prefix cache could reuse across passes). That makes a round,
//! which ends with every `shapes`-th completion, the same work every time,
//! and gives every request of the pass a dozen repetitions. As in the engine
//! loops, rates are the fast quartile over rounds and a request's latency is
//! the fast quartile over its repetitions: a neighbour on the shared host
//! only ever adds time.
//!
//! It is a closed loop because an open one cannot be measured on this
//! runner inside the bound the contract allows (README, Open loop): behind a
//! stall of the host an arrival schedule piles up a backlog, refusals and
//! SLO misses that a closed loop, which simply pauses with the host, never
//! sees.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsi_core::batch::BatchEngine;
use dsi_model::fast::PackedModel;
use dsi_model::paged::PagedEngine;
use dsi_model::reference::GptModel;
use dsi_serve::{
    ContinuousConfig, EngineMode, Outcome, Rejected, Request, ServeConfig, ServeReport, Server,
    Ticket,
};

use crate::gen::{self, Req};
use crate::oracle;
use crate::probe;
use crate::report::{slo_share, Opts, Report, Seen, NEVER_MS};
use crate::spec::{self, ServeSpec, PAGE_TOKENS};
use crate::stats::{median, over_rounds, percentile, sorted, Digest};

const SWEEP_SLEEP: Duration = Duration::from_micros(500);
const DRAIN_GRACE: Duration = Duration::from_secs(30);
/// Completions per client before the window opens: the server fills, the
/// callers drift apart, lazily built state is built.
const RAMP_PER_CLIENT: usize = 2;
/// At the start the queue takes `queue_capacity` requests at once; each
/// further caller joins this long after the one before it, which is longer
/// than the prefill that moves a queued request into a slot.
const JOIN_GAP: Duration = Duration::from_millis(25);
/// The request list covers this many requests per second of window, several
/// times today's rate; a server that outruns it wraps around.
const LIST_RPS: f64 = 400.0;

/// How one sent request ended, as the client saw it.
#[derive(Debug)]
enum End {
    Completed { tokens: Vec<usize>, latency_ms: f64 },
    Rejected(Rejected),
    Evicted,
    Expired,
}

/// One request the loop sent.
#[derive(Debug)]
struct Sent {
    /// Index into the request list.
    index: usize,
    end: End,
    /// Ended inside the timed window.
    timed: bool,
}

/// Client-side tallies of the server's life (set-up included), to be held
/// against its `ServeReport`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    sent: u64,
    completed: u64,
    rejected_queue_full: u64,
    rejected_memory: u64,
    rejected_other: u64,
    evicted: u64,
    expired: u64,
}

impl Tally {
    fn count(&mut self, end: &End) {
        self.sent += 1;
        match end {
            End::Completed { .. } => self.completed += 1,
            End::Rejected(Rejected::QueueFull) => self.rejected_queue_full += 1,
            End::Rejected(Rejected::MemoryPressure) => self.rejected_memory += 1,
            End::Rejected(_) => self.rejected_other += 1,
            End::Evicted => self.evicted += 1,
            End::Expired => self.expired += 1,
        }
    }
}

/// One stretch of the window between two completion instants, `shapes`
/// completions long.
#[derive(Debug, Clone, Copy)]
struct Round {
    wall_s: f64,
    /// Output tokens of the requests completed inside it.
    tokens: u64,
    /// Of those requests, the ones inside the SLO.
    met: u64,
    /// Process CPU time (all threads) spent inside it.
    cpu_s: f64,
}

/// What the client side of the loop collected.
#[derive(Default)]
struct Driven {
    /// Every request sent, in the order it ended.
    sent: Vec<Sent>,
    /// Opening of the window → the last round's end, as one round.
    whole: Option<Round>,
    rounds: Vec<Round>,
    submit_us: Vec<f64>,
    /// Completions whose observed latency was below the server's own figure.
    clock_violations: u64,
    /// Prompt lengths of every admitted request (set-up included).
    admitted_prompts: Vec<usize>,
    tally: Tally,
    /// First send → last completion of the loop.
    busy_s: f64,
}

fn config(spec: &ServeSpec) -> ServeConfig {
    let mut cfg = ServeConfig::new(1);
    cfg.mode = EngineMode::Continuous(ContinuousConfig {
        max_slots: spec.max_slots,
        pages_total: spec.pages_total,
        page_tokens: PAGE_TOKENS,
        ..ContinuousConfig::default()
    });
    cfg.eos = None;
    cfg.max_prompt = spec.shape.max_prompt();
    cfg.queue_capacity = spec.queue_capacity;
    cfg.default_deadline = None;
    cfg.progress_timeout = None;
    cfg
}

fn request(r: &Req) -> Request {
    Request {
        prompt: r.prompt.clone(),
        n_tokens: r.n_tokens,
        deadline: None,
    }
}

/// Tokens, SLO-meeting requests and completions counted since some instant.
#[derive(Debug, Default, Clone, Copy)]
struct Counted {
    tokens: u64,
    met: u64,
    completions: usize,
}

/// The open window's clock: where it and its current round began, and what
/// has completed since.
struct Open {
    at: Instant,
    cpu: f64,
    all: Counted,
    round_from: Instant,
    round_cpu: f64,
    round: Counted,
}

/// Keep `spec.clients` requests of `reqs` outstanding until `window` has
/// passed since the ramp's last completion and a round has closed (so that a
/// window shorter than a round, as in `--smoke`, still yields one); then let
/// the outstanding ones complete, untimed.
fn drive(srv: &Server, spec: &ServeSpec, reqs: &[Req], window: Duration, run: &mut Driven) {
    struct Flying {
        index: usize,
        sent: Instant,
        ticket: Ticket,
    }
    let mut flying: Vec<Flying> = Vec::with_capacity(spec.clients);
    let mut swept: Vec<(usize, Instant, Outcome)> = Vec::with_capacity(spec.clients);
    let mut next = 0;
    let mut ramp_left = RAMP_PER_CLIENT * spec.clients;
    let mut open: Option<Open> = None;
    let mut closing = false;
    let t0 = Instant::now();
    let mut last_completion = t0;

    while !closing || !flying.is_empty() {
        // Sweep: stamp every completion the server has delivered.
        flying.retain(|f| match f.ticket.try_wait() {
            None => true,
            Some(outcome) => {
                swept.push((f.index, f.sent, outcome));
                false
            }
        });
        let now = Instant::now();
        for (index, sent, outcome) in swept.drain(..) {
            let latency_ms = (now - sent).as_secs_f64() * 1e3;
            let n_tokens = reqs[index % reqs.len()].n_tokens;
            let timed = open.is_some() && !closing;
            let end = match outcome {
                Outcome::Completed { tokens, latency_s } => {
                    // The stamp follows the completion, so the client can
                    // never see less than the server reports.
                    if latency_ms < latency_s * 1e3 {
                        run.clock_violations += 1;
                    }
                    last_completion = now;
                    ramp_left = ramp_left.saturating_sub(1);
                    if let (Some(o), true) = (open.as_mut(), timed) {
                        let met = u64::from(spec.slo.met(Some(latency_ms), n_tokens));
                        for c in [&mut o.all, &mut o.round] {
                            c.tokens += n_tokens as u64;
                            c.met += met;
                            c.completions += 1;
                        }
                    }
                    End::Completed { tokens, latency_ms }
                }
                Outcome::DeadlineExpired { .. } => End::Expired,
                Outcome::Evicted { .. } => End::Evicted,
            };
            run.tally.count(&end);
            run.sent.push(Sent { index, end, timed });
        }
        match open.as_mut() {
            None if ramp_left == 0 => {
                let cpu = probe::cpu_seconds();
                open = Some(Open {
                    at: now,
                    cpu,
                    all: Counted::default(),
                    round_from: now,
                    round_cpu: cpu,
                    round: Counted::default(),
                });
            }
            Some(o) if !closing && o.round.completions >= spec.shapes => {
                let cpu = probe::cpu_seconds();
                let round = |from: Instant, cpu_from: f64, c: Counted| Round {
                    wall_s: (now - from).as_secs_f64(),
                    tokens: c.tokens,
                    met: c.met,
                    cpu_s: cpu - cpu_from,
                };
                run.rounds.push(round(o.round_from, o.round_cpu, o.round));
                run.whole = Some(round(o.at, o.cpu, o.all));
                (o.round_from, o.round_cpu, o.round) = (now, cpu, Counted::default());
                closing = now - o.at >= window;
            }
            _ => {}
        }

        // Every caller that has joined and whose request ended sends its
        // next one.
        let joined = spec.queue_capacity + (t0.elapsed().as_nanos() / JOIN_GAP.as_nanos()) as usize;
        while !closing && flying.len() < joined.min(spec.clients) {
            let index = next;
            next += 1;
            let req = &reqs[index % reqs.len()];
            let sent = Instant::now();
            let submitted = srv.submit(request(req));
            run.submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
            match submitted {
                Ok(ticket) => {
                    run.admitted_prompts.push(req.prompt.len());
                    flying.push(Flying {
                        index,
                        sent,
                        ticket,
                    });
                }
                // Never expected: the callers are as many as slots and
                // queue hold. It is counted, and its caller sends another.
                Err(rej) => {
                    let end = End::Rejected(rej);
                    run.tally.count(&end);
                    run.sent.push(Sent {
                        index,
                        end,
                        timed: open.is_some(),
                    });
                    break;
                }
            }
        }
        std::thread::sleep(SWEEP_SLEEP);
    }
    run.busy_s = (last_completion - t0).as_secs_f64();
}

/// The books, balanced from outside: the report's own identities, and the
/// client's tallies against the report. Returns the number of breaks.
fn audit(run: &Driven, rep: &ServeReport, r: &mut Report) -> u64 {
    let t = &run.tally;
    let rejected = rep.rejected_queue_full
        + rep.rejected_memory
        + rep.rejected_breaker
        + rep.rejected_draining;
    let checks = [
        (
            "submitted == admitted + rejected",
            rep.submitted == rep.admitted + rejected,
        ),
        (
            "admitted == completed + evicted + deadline_expired",
            rep.admitted == rep.completed + rep.evicted + rep.deadline_expired,
        ),
        ("client sent == submitted", t.sent == rep.submitted),
        (
            "client completed == completed",
            t.completed == rep.completed,
        ),
        (
            "client queue-full == rejected_queue_full",
            t.rejected_queue_full == rep.rejected_queue_full,
        ),
        (
            "client memory == rejected_memory",
            t.rejected_memory == rep.rejected_memory,
        ),
        (
            "client other rejections == breaker + draining",
            t.rejected_other == rep.rejected_breaker + rep.rejected_draining,
        ),
        ("client evicted == evicted", t.evicted == rep.evicted),
        (
            "client expired == deadline_expired",
            t.expired == rep.deadline_expired,
        ),
        (
            "observed latency >= server latency",
            run.clock_violations == 0,
        ),
    ];
    let mut breaks = 0;
    for (what, ok) in checks {
        if !ok {
            r.note(format!("books do not balance: {what}"));
            breaks += 1;
        }
    }
    breaks
}

pub fn run(spec: &ServeSpec, opts: &Opts) -> Report {
    let spec = &ServeSpec {
        shape: opts.shape(&spec.shape),
        ..*spec
    };
    let cfg = spec::model_config();
    let passes = ((LIST_RPS * opts.seconds / spec.shapes as f64).ceil() as usize).max(4);
    let reqs = gen::repeated(&spec.shape, spec.shapes, passes, cfg.vocab, opts.seed, 1);
    let first = gen::requests(&spec.shape, 1, cfg.vocab, opts.seed, 2).remove(0);
    let window = Duration::from_secs_f64(opts.seconds);

    // Set-up: model, server, first request served. The first set-up's server
    // goes on to run the loop, in a process that has done nothing else, so
    // peak memory is what a fresh server process would show; the repetitions
    // that make `setup_s` a median run after the measurement.
    let before = probe::Ceilings::probe();
    let set_up = || {
        let t0 = Instant::now();
        let model = Arc::new(GptModel::random(cfg.clone(), spec::WEIGHT_SEED));
        let t = Instant::now();
        let srv = Server::start(Arc::clone(&model), config(spec));
        let start_ms = t.elapsed().as_secs_f64() * 1e3;
        let served = srv
            .submit(request(&first))
            .expect("first request admitted")
            .wait();
        assert!(
            matches!(served, Outcome::Completed { .. }),
            "first request completes"
        );
        (t0.elapsed().as_secs_f64(), model, srv, start_ms)
    };
    let (first_setup_s, model, srv, start_ms) = set_up();
    let mut setup_s = vec![first_setup_s];

    let mut driven = Driven {
        tally: Tally {
            sent: 1,
            completed: 1,
            ..Tally::default()
        },
        admitted_prompts: vec![first.prompt.len()],
        ..Driven::default()
    };
    drive(&srv, spec, &reqs, window, &mut driven);
    let t_drain = Instant::now();
    let report = srv.drain(DRAIN_GRACE);
    let drain_ms = t_drain.elapsed().as_secs_f64() * 1e3;
    let peak_rss_mb = probe::peak_rss_mb();
    for _ in 1..opts.setup_reps() {
        let (s, _model, srv, _) = set_up();
        srv.drain(DRAIN_GRACE);
        setup_s.push(s);
    }

    let mut r = Report::default();
    let mut failed = audit(&driven, &report, &mut r);
    for s in &driven.sent {
        let q = &reqs[s.index % reqs.len()];
        match &s.end {
            End::Completed { tokens, .. } if tokens.len() != q.n_tokens => failed += 1,
            // Evictions and expiries are never expected: nothing here sets a
            // deadline and the pool covers eight full contexts.
            End::Evicted | End::Expired => failed += 1,
            _ => {}
        }
    }
    // The digest covers the first pass in list order, whatever order its
    // requests completed in.
    let mut first_pass: Vec<(usize, &[usize])> = driven
        .sent
        .iter()
        .filter_map(|s| match &s.end {
            End::Completed { tokens, .. } if s.index < spec.shapes => Some((s.index, &tokens[..])),
            _ => None,
        })
        .collect();
    first_pass.sort_by_key(|&(index, _)| index);
    let mut digest = Digest::default();
    for (index, tokens) in &first_pass {
        digest.push_tokens(*index, tokens);
    }

    // What the timed window saw: one entry per request that ended in it.
    let seen: Vec<Seen> = driven
        .sent
        .iter()
        .filter(|s| s.timed)
        .map(|s| Seen {
            n_tokens: reqs[s.index % reqs.len()].n_tokens,
            latency_ms: match &s.end {
                End::Completed { latency_ms, .. } => Some(*latency_ms),
                _ => None,
            },
        })
        .collect();
    let latency = sorted(seen.iter().filter_map(|s| s.latency_ms).collect());
    assert!(!latency.is_empty(), "the window closes behind a round");
    let t = &driven.tally;
    r.note(format!(
        "closed loop through the server: {} callers, {} rounds of {} requests, sent {} (set-up, ramp and tail included), succeeded {} (completed in the window: latency p50 {:.1} / p90 {:.1} / max {:.1} ms), rejected {} (queue {} / memory {}), evicted {}, expired {}",
        spec.clients,
        driven.rounds.len(),
        spec.shapes,
        t.sent,
        t.completed,
        percentile(&latency, 0.5),
        percentile(&latency, 0.9),
        latency[latency.len() - 1],
        t.rejected_queue_full + t.rejected_memory + t.rejected_other,
        t.rejected_queue_full,
        t.rejected_memory,
        t.evicted,
        t.expired,
    ));
    r.note(format!(
        "tokens_digest {} (first pass: {} of {} requests)",
        digest.hex(),
        first_pass.len(),
        spec.shapes
    ));

    // Oracle: a seeded sample of completed requests, recomputed solo.
    let pm = PackedModel::pack(&model);
    let done = driven
        .sent
        .iter()
        .filter_map(|s| match &s.end {
            End::Completed { tokens, .. } => Some((&reqs[s.index % reqs.len()], &tokens[..])),
            _ => None,
        })
        .collect();
    let (checked, mismatches) = oracle::check(&pm, spec.shape.max_prompt(), opts, done);
    r.note(format!(
        "oracle: {checked} sampled, {mismatches} mismatches"
    ));
    failed += mismatches;

    if opts.trace {
        let calib = Calibration::measure(&pm, spec);
        let after = probe::Ceilings::probe();
        before.noise_guard(&after, &mut r);
        before.machine_metrics(&after, &mut r);
        let timing = (start_ms, drain_ms);
        layer_metrics(&mut r, &driven, &report, &latency, &calib, timing);
    } else {
        before.noise_guard(&probe::Ceilings::probe(), &mut r);
        // A request's latency is the fast quartile over its repetitions (a
        // disturbed machine only ever adds time); the metric is the median
        // over the pass's requests.
        let mut by_shape: Vec<Vec<f64>> = vec![Vec::new(); spec.shapes];
        for s in driven.sent.iter().filter(|s| s.timed) {
            by_shape[s.index % spec.shapes].push(match &s.end {
                End::Completed { latency_ms, .. } => *latency_ms,
                _ => NEVER_MS,
            });
        }
        let per_request: Vec<f64> = by_shape
            .into_iter()
            .filter(|reps| !reps.is_empty())
            .map(|reps| percentile(&sorted(reps), 0.25))
            .collect();
        let whole = driven.whole.expect("the loop ends behind a round");
        let rate = |p, f| over_rounds(&driven.rounds, &whole, p, f);
        r.set("setup_s", median(&setup_s));
        r.set("tok_s", rate(0.75, |x| x.tokens as f64 / x.wall_s));
        r.set("req_p50_ms", percentile(&sorted(per_request), 0.5));
        r.set("goodput_rps", rate(0.75, |x| x.met as f64 / x.wall_s));
        r.set("slo_share", slo_share(&seen, &spec.slo));
        r.set("served_share", t.completed as f64 / t.sent as f64);
        r.set(
            "cpu_ms_per_tok",
            rate(0.25, |x| x.cpu_s * 1e3 / x.tokens as f64),
        );
        r.set("peak_rss_mb", peak_rss_mb);
    }
    r.attempted = t.sent;
    r.failed = failed;
    r.correct = failed == 0 && checked > 0;
    r
}

/// Engine-level calibration for `serve.sched_overhead_share`: what the same
/// decode steps and prefills cost on a bare `PagedEngine`, in this process.
struct Calibration {
    /// Median `decode_step` seconds at occupancy `b` (index 0 unused).
    step_s: Vec<f64>,
    /// Prefill seconds as `a + b · prompt_tokens`.
    prefill_fit: (f64, f64),
}

impl Calibration {
    fn measure(pm: &PackedModel, spec: &ServeSpec) -> Self {
        const STEPS: usize = 24;
        let vocab = pm.config().vocab;
        let mut eng = PagedEngine::new(pm, spec.max_slots, spec.pages_total, PAGE_TOKENS);
        let prompt = |n: usize, salt: usize| -> Vec<usize> {
            (0..n).map(|i| (i * 7 + salt) % vocab).collect()
        };
        let (lo, hi) = (spec.shape.min_prompt(), spec.shape.max_prompt());
        let typical_prompt = (lo + hi) / 2;

        let mut step_s = vec![0.0];
        for b in 1..=spec.max_slots {
            let slots: Vec<usize> = (0..b).collect();
            for &s in &slots {
                eng.prefill(s, &prompt(typical_prompt, s))
                    .expect("calibration prefill");
            }
            let mut out = Vec::with_capacity(b);
            let mut times = Vec::with_capacity(STEPS);
            for _ in 0..STEPS {
                out.clear();
                let t = Instant::now();
                eng.decode_step(&slots, &mut out).expect("calibration step");
                times.push(t.elapsed().as_secs_f64());
            }
            step_s.push(median(&times));
            for &s in &slots {
                BatchEngine::release(&mut eng, s);
            }
        }

        // Prefill at the shortest and the longest prompt; a line through the
        // two medians (prefill cost is close to linear over so short a span).
        let time_prefill = |eng: &mut PagedEngine<'_, '_>, n: usize| {
            let times: Vec<f64> = (0..5)
                .map(|i| {
                    let t = Instant::now();
                    eng.prefill(0, &prompt(n, i)).expect("calibration prefill");
                    let dt = t.elapsed().as_secs_f64();
                    BatchEngine::release(eng, 0);
                    dt
                })
                .collect();
            median(&times)
        };
        let (t_lo, t_hi) = (time_prefill(&mut eng, lo), time_prefill(&mut eng, hi));
        let slope = if hi > lo {
            (t_hi - t_lo) / (hi - lo) as f64
        } else {
            0.0
        };
        Calibration {
            step_s,
            prefill_fit: (t_lo - slope * lo as f64, slope),
        }
    }

    /// Engine seconds the calibration predicts for a server's recorded work.
    fn engine_s(&self, run: &Driven, report: &ServeReport) -> f64 {
        let sched = report
            .scheduler
            .as_ref()
            .expect("continuous mode reports its scheduler");
        let steps: f64 = sched
            .occupancy_hist
            .iter()
            .enumerate()
            .map(|(b, &n)| n as f64 * self.step_s.get(b).copied().unwrap_or(0.0))
            .sum();
        let prefills: f64 = run
            .admitted_prompts
            .iter()
            .map(|&n| self.prefill_fit.0 + self.prefill_fit.1 * n as f64)
            .sum();
        steps + prefills
    }
}

fn layer_metrics(
    r: &mut Report,
    run: &Driven,
    report: &ServeReport,
    latency: &[f64],
    calib: &Calibration,
    (start_ms, drain_ms): (f64, f64),
) {
    let sched = report
        .scheduler
        .as_ref()
        .expect("continuous mode reports its scheduler");
    let submit = sorted(run.submit_us.clone());
    let tokens_per_step = {
        let (tokens, steps) = sched
            .tokens_per_step_hist
            .iter()
            .enumerate()
            .fold((0u64, 0u64), |(t, s), (k, &n)| (t + k as u64 * n, s + n));
        tokens as f64 / steps.max(1) as f64
    };
    r.set("serve.start_ms", start_ms);
    r.set("serve.submit_us_p50", percentile(&submit, 0.5));
    r.set_supported("serve.submit_us_p90", &submit, 0.9);
    r.set("serve.drain_ms", drain_ms);
    // The tail of whole-request latency over the window's completions.
    r.set_supported("serve.req_p90_ms", latency, 0.9);
    r.set("serve.sent", report.submitted as f64);
    r.set("serve.completed", report.completed as f64);
    r.set(
        "serve.rejected_queue_full",
        report.rejected_queue_full as f64,
    );
    r.set("serve.rejected_memory", report.rejected_memory as f64);
    r.set("serve.evicted", report.evicted as f64);
    r.set("serve.deadline_expired", report.deadline_expired as f64);
    r.set("serve.steps", sched.steps as f64);
    r.set("serve.prefills", sched.prefills as f64);
    r.set("serve.mean_occupancy", sched.mean_occupancy);
    r.set("serve.tokens_per_step", tokens_per_step);
    r.set("serve.pages_high_water", sched.pages.high_water as f64);
    r.set("serve.page_evictions", sched.page_evictions as f64);
    // Derived, not measured: 1 − calibrated engine time ÷ the loop's wall,
    // through all of which the server was full.
    r.set(
        "serve.sched_overhead_share",
        1.0 - calib.engine_s(run, report) / run.busy_s,
    );
    // Two clock reads per submit are all the tracing a serve workload adds.
    let span_ns = submit.len() as f64 * crate::span::span_cost_ns();
    r.set("bench.trace_overhead_share", span_ns / (run.busy_s * 1e9));
}
