//! Chaos sweep for the fault-tolerant continuous-batching path.
//!
//! Sixteen seeded scenarios drive the continuous scheduler through scripted
//! engine-fault storms — decode/prefill panics, stalls past the step
//! deadline, page-content corruption, transient page-exhaustion storms
//! (`dsi_sim::fault::EngineFaultPlan::random`) — layered over the usual
//! client churn (cancellations, tight deadlines, ~2× page overload). In
//! the last six every prompt opens with one of one or two multi-page
//! prefixes and the pool is sized to the *shared* demand (less than the
//! residents would need unshared), so release-all-then-replay has to
//! re-attach to the shared pages to fit.
//!
//! Every seed must hold the full contract:
//!
//! * **No hangs** — the server drains within the grace window under every
//!   storm (the suite itself is the wall-clock gate in CI).
//! * **Books balance** — `submitted == admitted + rejected` and
//!   `admitted == completed + evicted + deadline_expired`, asserted both
//!   by drain itself and against the client-observed tallies here.
//! * **Bit-exact recovery** — every `Completed` stream is token-identical
//!   to a solo un-faulted session of the same prompt, and every partial
//!   (evicted / expired) is an exact prefix of it: prefix replay never
//!   commits a corrupted token.
//!
//! Across the sweep we additionally require that recovery actually ran
//! (recoveries > 0 and replays > 0 in the scheduler reports) — a sweep
//! that never faults proves nothing — and that the shared-prefix seeds
//! attached pages and replayed over them.

use std::sync::Arc;
use std::time::Duration;

use dsi_model::reference::GptModel;
use dsi_model::zoo;
use dsi_parallel::supervisor::{FtConfig, FtSession};
use dsi_serve::{
    ContinuousConfig, EngineMode, EvictReason, Outcome, Request, ServeConfig, Server,
};
use dsi_sim::fault::EngineFaultPlan;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn continuous_fault_storms_recover_bit_exact() {
    let model = Arc::new(GptModel::random(zoo::tiny(2), 11));
    let mut total_recoveries = 0u64;
    let mut total_replays = 0u64;
    let mut total_completed = 0u64;
    let mut total_fault_evictions = 0u64;
    let (mut shared_attached, mut shared_replays) = (0u64, 0u64);

    for seed in 0u64..16 {
        let mut rng = seed.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(7);
        // Seeds 10.. put a 5-token prefix (two whole 2-token pages and a
        // bit) from one (even seeds) or two families in front of every
        // prompt. Three residents of up to 8 + 8 tokens need 3 × 8 pages
        // unshared; sharing the two prefix pages of one family they need
        // 2 + 3 × 6.
        let shared = seed >= 10;
        let families = if shared { 1 + seed % 2 } else { 0 };
        let pages_total = if shared { 20 } else { 24 };

        // Request mix: prompts of 2–5 tokens (behind the prefix, 1–3),
        // budgets of 3–8 tokens, about 2× the page pool's steady-state
        // capacity so admission, shedding, and recovery all contend.
        let n_requests = 12usize;
        let requests: Vec<(Vec<usize>, usize)> = (0..n_requests)
            .map(|_| {
                let mut prompt: Vec<usize> = if shared {
                    let family = splitmix(&mut rng) % families;
                    (0..5).map(|j| (60 + 10 * family + j) as usize).collect()
                } else {
                    Vec::new()
                };
                let plen =
                    if shared { 1 + splitmix(&mut rng) % 3 } else { 2 + splitmix(&mut rng) % 4 };
                prompt.extend((0..plen).map(|_| (splitmix(&mut rng) % 50) as usize + 1));
                let n_tokens = 3 + (splitmix(&mut rng) % 6) as usize;
                (prompt, n_tokens)
            })
            .collect();
        let mut oracle = FtSession::new(Arc::clone(&model), 64, FtConfig::new(1));
        let oracles: Vec<Vec<usize>> = requests
            .iter()
            .map(|(p, n)| {
                let out = oracle.generate(p, *n).unwrap();
                oracle.reset();
                out
            })
            .collect();

        // Storm: up to 8 faults over the first ~40 engine calls. Stalls run
        // 20–40ms against a 10ms step deadline, so every decode stall is
        // also a Timeout-class fault (prefill budgets scale with context
        // length, so a prefill stall may legitimately land in time);
        // panics, corruption, and exhaustion bursts land on both prefill
        // and decode sites.
        let plan = EngineFaultPlan::random(seed, 8, 40, 40);
        let mut cfg = ServeConfig::new(1);
        cfg.mode = EngineMode::Continuous(ContinuousConfig {
            max_slots: 3,
            pages_total,
            page_tokens: 2,
            replay_budget: 4,
            step_deadline: Some(Duration::from_millis(10)),
            ..ContinuousConfig::default()
        });
        cfg.engine_faults = Some(Arc::new(plan.injector()));
        cfg.max_prompt = 8;
        cfg.queue_capacity = n_requests; // contend on pages, not the queue
        let srv = Server::start(Arc::clone(&model), cfg);

        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for (i, (prompt, n_tokens)) in requests.iter().enumerate() {
            // Churn: every 4th request is cancelled immediately after
            // submit; every 5th carries a deadline tight enough to expire
            // under a stall storm but often met otherwise.
            let deadline = (i % 5 == 4).then(|| Duration::from_millis(60));
            match srv.submit(Request { prompt: prompt.clone(), n_tokens: *n_tokens, deadline }) {
                Ok(t) => {
                    if i % 4 == 3 {
                        t.cancel();
                    }
                    tickets.push((i, t));
                }
                Err(_) => rejected += 1,
            }
            if splitmix(&mut rng) % 10 < 3 {
                std::thread::sleep(Duration::from_millis(splitmix(&mut rng) % 3));
            }
        }
        let report = srv.drain(Duration::from_secs(20));

        let (mut completed, mut evicted, mut expired) = (0u64, 0u64, 0u64);
        for (i, t) in tickets {
            let label = format!("seed {seed} req {i}");
            match t.wait() {
                Outcome::Completed { tokens, .. } => {
                    assert_eq!(
                        tokens, oracles[i],
                        "{label}: completed stream diverged from the un-faulted oracle"
                    );
                    completed += 1;
                }
                Outcome::Evicted { partial, reason } => {
                    if let EvictReason::EngineFault { msg, .. } = &reason {
                        assert!(!msg.is_empty(), "{label}: engine-fault eviction without cause");
                        total_fault_evictions += 1;
                    }
                    assert_eq!(
                        &oracles[i][..partial.len().min(oracles[i].len())],
                        &partial[..],
                        "{label}: evicted partial is not an exact oracle prefix ({reason:?})"
                    );
                    evicted += 1;
                }
                Outcome::DeadlineExpired { partial } => {
                    assert_eq!(
                        &oracles[i][..partial.len().min(oracles[i].len())],
                        &partial[..],
                        "{label}: expired partial is not an exact oracle prefix"
                    );
                    expired += 1;
                }
            }
        }

        // Client-observed tallies must equal the server's books exactly.
        assert_eq!(report.completed, completed, "seed {seed}: completed mismatch");
        assert_eq!(report.evicted, evicted, "seed {seed}: evicted mismatch");
        assert_eq!(report.deadline_expired, expired, "seed {seed}: deadline mismatch");
        assert_eq!(report.rejected_total(), rejected, "seed {seed}: rejected mismatch");
        assert_eq!(report.submitted, n_requests as u64, "seed {seed}: submitted mismatch");
        assert_eq!(
            report.admitted,
            completed + evicted + expired,
            "seed {seed}: admitted requests must all resolve"
        );
        // Per-class opens sum to the headline counter.
        let class_sum: u32 = report.breaker_opens_by_class.iter().map(|(_, n)| n).sum();
        assert_eq!(class_sum, report.breaker_opens, "seed {seed}: per-class opens mismatch");

        let sched = report.scheduler.expect("continuous scheduler report");
        assert_eq!(sched.pages.fragmentation, 0, "seed {seed}: page fragmentation");
        total_recoveries += sched.recoveries;
        total_replays += sched.replays;
        total_completed += completed;
        if shared {
            shared_attached += sched.prompt_tokens_attached;
            shared_replays += sched.replays;
        }
    }

    // The sweep must actually exercise the machinery it claims to cover.
    assert!(total_recoveries > 0, "sweep never triggered a fault recovery");
    assert!(total_replays > 0, "sweep never replayed a committed prefix");
    assert!(shared_attached > 0, "shared-prefix seeds never attached a page");
    assert!(shared_replays > 0, "shared-prefix seeds never replayed over shared pages");
    assert!(
        total_completed > 20,
        "sweep too destructive to prove liveness: {total_completed} completions"
    );
    // Fault evictions (budget exhaustion) are storm-dependent; log-style
    // assert only that the counter is consistent when present.
    let _ = total_fault_evictions;
}
