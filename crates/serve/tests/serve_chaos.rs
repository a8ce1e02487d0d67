//! Chaos sweep for the serving runtime: seeded arrival streams × scripted
//! fault storms × overload-inducing capacities.
//!
//! Every scenario is derived deterministically from its seed — the request
//! mix, the fault plan, the queue/KV capacities, deadlines, the breaker
//! tuning, whether a client cancels mid-flight, and how patient the drain
//! is. The acceptance criteria, asserted for EVERY scenario:
//!
//! * **zero hangs** — each scenario completes (CI runs this file under a
//!   wall-clock timeout; every collective, retry, and drain path is
//!   bounded);
//! * **accounting invariants** — `submitted == admitted + rejected` and
//!   `admitted == completed + evicted + deadline_expired` (the server
//!   asserts these internally at drain; the harness re-derives them from
//!   the outcomes the *clients* observed, closing the loop);
//! * **every ticket resolves exactly once** — no request is lost under any
//!   storm;
//! * **token identity** — every completion equals, and every partial is an
//!   exact prefix of, the same prompt's solo fault-free generation, at
//!   every TP degree, under collective fault storms as under engine ones;
//! * **bounded tail latency** — when deadlines are armed, completed
//!   requests finished within deadline + recovery slack;
//! * **no panic but the scripted ones** — an engine assertion the
//!   scheduler's guard absorbed and replayed past fails the sweep.

mod common;

use std::sync::Arc;
use std::time::Duration;

use dsi_model::fast::PackedModel;
use dsi_model::paged::{Engine, PagedEngine};
use dsi_model::reference::GptModel;
use dsi_model::zoo;
use dsi_serve::{
    ContinuousConfig, EngineMode, EvictReason, Outcome, Rejected, Request, ServeConfig, Server,
};
use dsi_sim::fault::{EngineFaultPlan, FaultPlan};
use dsi_sim::shmem::CommConfig;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Uniform in `[lo, hi)` over the vendored `RngCore` surface.
fn range(rng: &mut impl RngCore, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}

fn chance(rng: &mut impl RngCore, p: f64) -> bool {
    rng.unit_f64() < p
}

/// The solo fault-free generation of `prompt` (token streams are
/// TP-invariant and survive every recovery bit-exact).
fn solo(pm: &PackedModel, prompt: &[usize], n: usize) -> Vec<usize> {
    pm.session(prompt.len()).generate(prompt, n)
}

/// The same generation, `n ≥ 1` tokens, from one slot of a fault-free
/// tensor-parallel group: the prompt's pass, then one decode pass per token.
fn tp_solo(eng: &mut PagedEngine<'_, '_>, prompt: &[usize], n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    eng.pass(&[(0, prompt)], &[], &mut out).unwrap();
    while out.len() < n {
        eng.pass(&[], &[0], &mut out).unwrap();
    }
    eng.release(0);
    out
}

/// One seeded scenario, fully derived from `seed`.
struct Scenario {
    seed: u64,
    tp: usize,
    n_requests: usize,
    n_faults: usize,
    queue_capacity: usize,
    kv_budget_tokens: usize,
    deadline: Option<Duration>,
    progress_timeout: Option<Duration>,
    cancel_every: Option<usize>,
    drain_grace: Duration,
}

impl Scenario {
    fn from_seed(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Scenario {
            seed,
            tp: [1, 2, 2, 4][range(&mut rng, 0, 4) as usize],
            n_requests: range(&mut rng, 12, 28) as usize,
            n_faults: range(&mut rng, 0, 5) as usize,
            queue_capacity: range(&mut rng, 1, 6) as usize,
            kv_budget_tokens: range(&mut rng, 24, 160) as usize,
            deadline: if chance(&mut rng, 0.5) {
                Some(Duration::from_millis(range(&mut rng, 5, 60)))
            } else {
                None
            },
            progress_timeout: if chance(&mut rng, 0.5) {
                Some(Duration::from_millis(range(&mut rng, 40, 120)))
            } else {
                None
            },
            cancel_every: if chance(&mut rng, 0.3) {
                Some(range(&mut rng, 3, 6) as usize)
            } else {
                None
            },
            drain_grace: Duration::from_millis([1, 50, 2000][range(&mut rng, 0, 3) as usize]),
        }
    }

    fn config(&self) -> ServeConfig {
        let mut cfg = ServeConfig::new(self.tp);
        cfg.mode = EngineMode::Continuous(ContinuousConfig {
            max_slots: 4,
            // The drawn KV budget is the pool's token capacity.
            pages_total: self.kv_budget_tokens,
            page_tokens: 1,
            replay_budget: 4,
            ..ContinuousConfig::default()
        });
        cfg.max_prompt = 8;
        cfg.queue_capacity = self.queue_capacity;
        cfg.default_deadline = self.deadline;
        cfg.progress_timeout = self.progress_timeout;
        cfg.comm.timeout = Duration::from_millis(200);
        cfg.breaker.failure_threshold = 2;
        cfg.breaker.open_window = Duration::from_millis(10);
        if self.n_faults > 0 && self.tp == 1 {
            // A one-member engine has no joins: as many engine faults.
            let plan = EngineFaultPlan::random(self.seed, self.n_faults, 24, 20);
            cfg.engine_faults = Some(Arc::new(plan.injector()));
        } else if self.n_faults > 0 {
            // Stalls in FaultPlan::random are 1–20 ms — below the join
            // deadline, so they surface as slowness; Exit/Panic surface as
            // a lost member.
            let plan = FaultPlan::random(self.seed, self.n_faults, self.tp, 24, 2, 8);
            cfg.comm.injector = Some(Arc::new(plan.injector()));
        }
        cfg
    }
}

/// Run one scenario end to end; returns (completed, evicted,
/// deadline_expired, rejected) as observed by the clients.
fn run_scenario(sc: &Scenario) -> (u64, u64, u64, u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(sc.seed.wrapping_mul(0x9e37_79b9));
    let model = Arc::new(GptModel::random(zoo::tiny(2), sc.seed ^ 0xabcd));
    let pm = PackedModel::pack(&model);
    let srv = Server::start(Arc::clone(&model), sc.config());

    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for i in 0..sc.n_requests {
        let prompt_len = range(&mut rng, 1, 6) as usize;
        let req = Request {
            prompt: (0..prompt_len).map(|j| (i + j) % 101).collect(),
            n_tokens: range(&mut rng, 1, 10) as usize,
            deadline: None,
        };
        match srv.submit(req.clone()) {
            Ok(t) => {
                if sc.cancel_every.is_some_and(|k| i % k == k - 1) {
                    t.cancel();
                }
                tickets.push((req, t));
            }
            Err(
                Rejected::QueueFull
                | Rejected::MemoryPressure
                | Rejected::BreakerOpen
                | Rejected::Draining,
            ) => rejected += 1,
        }
        // Seeded jitter: bursts (no sleep) interleaved with brief pauses so
        // scenarios exercise both pile-up and steady-state admission.
        if chance(&mut rng, 0.3) {
            std::thread::sleep(Duration::from_millis(range(&mut rng, 0, 4)));
        }
    }

    let report = srv.drain(sc.drain_grace);

    // Every ticket resolves exactly once; tally what the clients saw.
    let (mut completed, mut evicted, mut expired) = (0u64, 0u64, 0u64);
    for (i, (req, t)) in tickets.into_iter().enumerate() {
        let want = solo(&pm, &req.prompt, req.n_tokens);
        let label = format!("seed {} ticket {i}", sc.seed);
        match t.wait() {
            Outcome::Completed { tokens, .. } => {
                assert_eq!(tokens, want, "{label}: completed stream diverged");
                completed += 1;
            }
            Outcome::Evicted { reason, partial } => {
                if let EvictReason::EngineFault { msg, .. } = &reason {
                    assert!(!msg.is_empty(), "{label}: fault eviction without a cause");
                }
                assert_eq!(&want[..partial.len()], &partial[..], "{label}: partial not a prefix");
                evicted += 1;
            }
            Outcome::DeadlineExpired { partial } => {
                assert_eq!(&want[..partial.len()], &partial[..], "{label}: partial not a prefix");
                expired += 1;
            }
        }
    }

    // Client-observed tallies must equal the server's books exactly.
    let label = format!("seed {}", sc.seed);
    assert_eq!(report.completed, completed, "{label}: completed mismatch");
    assert_eq!(report.evicted, evicted, "{label}: evicted mismatch");
    assert_eq!(report.deadline_expired, expired, "{label}: deadline mismatch");
    assert_eq!(report.rejected_total(), rejected, "{label}: rejected mismatch");
    assert_eq!(report.submitted, sc.n_requests as u64, "{label}: submitted mismatch");
    assert_eq!(
        report.admitted,
        completed + evicted + expired,
        "{label}: admitted requests must all resolve"
    );

    // Bounded tail: with a deadline armed, a completed request can overrun
    // it by at most the in-flight pass + recovery slack (collective timeout
    // × replays), never unboundedly.
    if let Some(d) = sc.deadline {
        let slack = 2.0; // comm timeouts + group rebuilds + scheduling, generous
        assert!(
            report.p99_latency_s <= d.as_secs_f64() + slack,
            "{label}: p99 {:.3}s breaches deadline {:?} + slack",
            report.p99_latency_s,
            d
        );
    }
    (completed, evicted, expired, rejected)
}

/// The main sweep: ≥20 seeded scenarios spanning overload, fault storms,
/// client cancellations, impatient drains, and every TP degree.
#[test]
fn chaos_sweep_over_seeded_scenarios() {
    let panics = common::watch();
    let mut total_completed = 0;
    let mut total_rejected = 0;
    for seed in 0..24u64 {
        let sc = Scenario::from_seed(seed);
        let (completed, _evicted, _expired, rejected) = run_scenario(&sc);
        total_completed += completed;
        total_rejected += rejected;
    }
    println!("chaos sweep: {total_completed} completions, {total_rejected} rejections");
    // The sweep as a whole must exercise both sides of admission: plenty of
    // requests served, plenty shed. (Per-scenario counts vary by seed.)
    assert!(total_completed > 50, "sweep too lenient: only {total_completed} completions");
    assert!(total_rejected > 0, "sweep never triggered load shedding");
    panics.assert_none();
}

/// One seeded continuous-batching scenario: ragged joins/retires over the
/// paged engine under cancel and deadline storms, with every outcome held
/// to the solo oracle.
struct ContinuousScenario {
    seed: u64,
    /// TP degree of the *oracle* group — serve output must be identical at
    /// every degree (token streams are TP-invariant by construction).
    oracle_tp: usize,
    n_requests: usize,
    max_slots: usize,
    pages_total: usize,
    page_tokens: usize,
    deadline: Option<Duration>,
    cancel_every: Option<usize>,
    eos: bool,
    drain_grace: Duration,
}

impl ContinuousScenario {
    fn from_seed(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00c0ffee);
        ContinuousScenario {
            seed,
            oracle_tp: [1, 2][range(&mut rng, 0, 2) as usize],
            n_requests: range(&mut rng, 8, 18) as usize,
            max_slots: range(&mut rng, 2, 6) as usize,
            // Small pools force page-exhaustion shedding in some seeds;
            // large ones exercise pure batching.
            pages_total: range(&mut rng, 12, 64) as usize,
            page_tokens: [1, 2, 3, 4][range(&mut rng, 0, 4) as usize],
            deadline: if chance(&mut rng, 0.4) {
                Some(Duration::from_millis(range(&mut rng, 2, 30)))
            } else {
                None
            },
            cancel_every: if chance(&mut rng, 0.4) {
                Some(range(&mut rng, 2, 5) as usize)
            } else {
                None
            },
            eos: chance(&mut rng, 0.3),
            drain_grace: Duration::from_millis([1, 2000][range(&mut rng, 0, 2) as usize]),
        }
    }
}

/// The continuous-batching chaos sweep: for every seeded scenario, every
/// ticket resolves typed (zero hangs), the accounting identities hold, and
/// **every byte of output — full or partial — is an exact prefix of the
/// same prompt's solo generation** by a tensor-parallel group at
/// tp ∈ {1, 2}. That is the strongest correctness statement continuous
/// batching can make: the scheduler is invisible in the tokens.
#[test]
fn continuous_chaos_token_identity_sweep() {
    let panics = common::watch();
    let mut total_completed = 0u64;
    let mut total_page_evictions = 0u64;
    let mut total_attached = 0u64;
    // Seeds 10.. open every prompt with one of two 5-token prefixes (two
    // whole 2-token pages and a bit): joins attach to pages a resident or a
    // retired request filled, under the same cancel / deadline / shed churn.
    for seed in 0..14u64 {
        let mut sc = ContinuousScenario::from_seed(seed);
        let shared = seed >= 10;
        if shared {
            sc.page_tokens = 2;
        }
        if seed == 0 {
            // One deterministic overcommit scenario: an 8-token pool under
            // requests of up to ~17 tokens guarantees the page-exhaustion
            // shed path runs in every sweep.
            sc.pages_total = 8;
            sc.page_tokens = 1;
            sc.max_slots = 4;
            sc.deadline = None;
            sc.cancel_every = None;
            sc.eos = false;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(sc.seed.wrapping_mul(0x5851_f42d));
        let model = Arc::new(GptModel::random(zoo::tiny(2), sc.seed ^ 0x7777));

        // Derive the request mix, then the oracle streams (one slot of a
        // group at the scenario's TP degree — token streams are
        // TP-invariant, so comparing against tp=2 checks the whole chain).
        let mut requests: Vec<(Vec<usize>, usize)> = (0..sc.n_requests)
            .map(|i| {
                let plen = range(&mut rng, 1, if shared { 4 } else { 7 }) as usize;
                let mut prompt: Vec<usize> = (0..plen).map(|j| (3 * i + j) % 97).collect();
                if shared {
                    let family = i % 2;
                    prompt.splice(0..0, (0..5).map(|j| 20 * (family + 1) + j));
                }
                let n_tokens = range(&mut rng, 1, 12) as usize;
                (prompt, n_tokens)
            })
            .collect();
        if seed == 0 {
            // Guarantee a mid-decode page exhaustion: the first request's
            // total footprint (prompt + generated) exceeds the 8-page,
            // 1-token-per-page pool, so its decode-step reservation must
            // fail and the shed path fires deterministically.
            requests[0].1 = 14;
        }
        let pm = PackedModel::pack(&model);
        let mut oracle = Engine::group(&pm, sc.oracle_tp, CommConfig::default(), 1, 64, 4);
        let full_streams: Vec<Vec<usize>> =
            requests.iter().map(|(p, n)| tp_solo(&mut oracle, p, *n)).collect();
        // An EOS id that actually occurs in some stream makes early
        // retirement reachable; truncate the oracles the same way.
        let eos = sc.eos.then(|| full_streams[0][full_streams[0].len() / 2]);
        let oracles: Vec<Vec<usize>> = full_streams
            .iter()
            .map(|s| match eos.and_then(|e| s.iter().position(|t| *t == e)) {
                Some(p) => s[..=p].to_vec(),
                None => s.clone(),
            })
            .collect();

        let mut cfg = ServeConfig::new(1);
        cfg.mode = EngineMode::Continuous(ContinuousConfig {
            max_slots: sc.max_slots,
            pages_total: sc.pages_total,
            page_tokens: sc.page_tokens,
            ..ContinuousConfig::default()
        });
        cfg.eos = eos;
        cfg.max_prompt = 8;
        cfg.queue_capacity = sc.n_requests; // shed on pages, not the queue
        cfg.default_deadline = sc.deadline;
        let srv = Server::start(Arc::clone(&model), cfg);

        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for (i, (prompt, n_tokens)) in requests.iter().enumerate() {
            match srv.submit(Request {
                prompt: prompt.clone(),
                n_tokens: *n_tokens,
                deadline: None,
            }) {
                Ok(t) => {
                    if sc.cancel_every.is_some_and(|k| i % k == k - 1) {
                        t.cancel();
                    }
                    tickets.push((i, t));
                }
                Err(_) => rejected += 1,
            }
            if chance(&mut rng, 0.3) {
                std::thread::sleep(Duration::from_millis(range(&mut rng, 0, 3)));
            }
        }
        let report = srv.drain(sc.drain_grace);

        let (mut completed, mut evicted, mut expired) = (0u64, 0u64, 0u64);
        for (i, t) in tickets {
            let label = format!("seed {seed} req {i} (oracle tp {})", sc.oracle_tp);
            match t.wait() {
                Outcome::Completed { tokens, .. } => {
                    assert_eq!(tokens, oracles[i], "{label}: completed stream diverged");
                    completed += 1;
                }
                Outcome::Evicted { partial, reason } => {
                    assert!(
                        !matches!(reason, EvictReason::EngineFault { .. }),
                        "{label}: un-faulted paged engine cannot fault"
                    );
                    assert_eq!(
                        &full_streams[i][..partial.len()],
                        &partial[..],
                        "{label}: evicted partial is not an exact prefix"
                    );
                    evicted += 1;
                }
                Outcome::DeadlineExpired { partial } => {
                    assert_eq!(
                        &full_streams[i][..partial.len()],
                        &partial[..],
                        "{label}: expired partial is not an exact prefix"
                    );
                    expired += 1;
                }
            }
        }
        // Client-observed tallies == the server's books == the identities.
        assert_eq!(report.completed, completed, "seed {seed}");
        assert_eq!(report.evicted, evicted, "seed {seed}");
        assert_eq!(report.deadline_expired, expired, "seed {seed}");
        assert_eq!(report.rejected_total(), rejected, "seed {seed}");
        assert_eq!(report.admitted, completed + evicted + expired, "seed {seed}");
        let sched = report.scheduler.expect("scheduler report");
        assert_eq!(sched.pages.fragmentation, 0, "seed {seed}: fragmentation");
        assert_eq!(
            sched.occupancy_hist.iter().sum::<u64>(),
            sched.steps,
            "seed {seed}: occupancy histogram covers every step"
        );
        if shared {
            total_attached += sched.prompt_tokens_attached;
        } else {
            // No faults, so no replays: distinct prompts attach nothing.
            assert_eq!(sched.prompt_tokens_attached, 0, "seed {seed}: unrelated prompts shared");
        }
        total_completed += completed;
        total_page_evictions += sched.page_evictions;
    }
    assert!(total_attached > 0, "shared-prefix seeds never attached a page");
    assert!(total_completed > 30, "sweep too lenient: {total_completed} completions");
    // At least one seed must have actually exercised page shedding.
    assert!(total_page_evictions > 0, "sweep never hit page exhaustion");
    panics.assert_none();
}

/// Sustained overload against a tiny queue must shed with typed rejections
/// while the server keeps completing what it admits — and the breaker must
/// stay closed (overload is not a fault).
#[test]
fn overload_sheds_typed_and_keeps_serving() {
    let panics = common::watch();
    let model = Arc::new(GptModel::random(zoo::tiny(2), 7));
    let mut cfg = ServeConfig::new(2);
    cfg.queue_capacity = 2;
    // Four residents of at most 7 rows each never exhaust 40 pages.
    cfg.mode = EngineMode::Continuous(ContinuousConfig {
        max_slots: 4,
        pages_total: 40,
        page_tokens: 1,
        ..ContinuousConfig::default()
    });
    cfg.comm.timeout = Duration::from_secs(2);
    let srv = Server::start(model, cfg);

    let mut tickets = Vec::new();
    let mut rejections = 0u64;
    for i in 0..200 {
        match srv.submit(Request { prompt: vec![i % 101], n_tokens: 6, deadline: None }) {
            Ok(t) => tickets.push(t),
            Err(Rejected::QueueFull | Rejected::MemoryPressure) => rejections += 1,
            Err(other) => panic!("unexpected rejection under pure overload: {other}"),
        }
    }
    let report = srv.drain(Duration::from_secs(10));
    assert!(rejections > 0, "200 burst submissions must overflow a 2-deep queue");
    assert_eq!(report.breaker_opens, 0, "overload must not trip the fault breaker");
    for t in tickets {
        assert!(
            matches!(t.wait(), Outcome::Completed { .. }),
            "admitted requests complete under overload"
        );
    }
    assert_eq!(report.completed, report.admitted);
    panics.assert_none();
}

/// A storm of permanent faults must open the breaker and fast-fail
/// admissions rather than queueing doomed work — and the server must still
/// drain cleanly with the invariants intact.
#[test]
fn fault_storm_fast_fails_through_breaker() {
    let panics = common::watch();
    let model = Arc::new(GptModel::random(zoo::tiny(2), 13));
    let mut cfg = ServeConfig::new(2);
    cfg.comm.timeout = Duration::from_millis(100);
    cfg.mode = EngineMode::Continuous(ContinuousConfig { replay_budget: 0, ..ContinuousConfig::default() });
    cfg.breaker.failure_threshold = 1;
    cfg.breaker.open_window = Duration::from_secs(60); // stays open for the test
    // Rank 1 exits at its first barrier crossing: a permanent fault that
    // evicts the request it meets (no replay budget) and degrades the group;
    // the specs left over wait for a rank 1 no later group has.
    use dsi_sim::fault::{FaultKind, FaultSite, FaultSpec};
    let plan = FaultPlan::new(
        (0..4)
            .map(|_| FaultSpec {
                rank: 1,
                site: FaultSite::Barrier { epoch: 0 },
                kind: FaultKind::Exit,
            })
            .collect(),
    );
    cfg.comm.injector = Some(Arc::new(plan.injector()));
    let srv = Server::start(model, cfg);

    let mut breaker_rejections = 0u64;
    let mut tickets = Vec::new();
    for i in 0..20 {
        match srv.submit(Request { prompt: vec![1, 2], n_tokens: 4, deadline: None }) {
            Ok(t) => tickets.push(t),
            Err(Rejected::BreakerOpen) => breaker_rejections += 1,
            Err(other) => panic!("request {i}: unexpected rejection {other}"),
        }
        // Let the in-flight request resolve so breaker state is observable.
        std::thread::sleep(Duration::from_millis(30));
    }
    for t in tickets {
        t.wait(); // typed outcome either way; no hangs
    }
    let report = srv.drain(Duration::from_secs(10));
    assert!(report.breaker_opens >= 1, "a permanent-fault storm must open the breaker");
    assert!(breaker_rejections > 0, "an open breaker must fast-fail admissions");
    assert_eq!(report.submitted, 20);
    panics.assert_none();
}
