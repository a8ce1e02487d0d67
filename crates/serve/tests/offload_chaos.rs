//! Chaos sweep for the streamed weight-offload serving path.
//!
//! Fourteen seeded scenarios serve a model **bigger than the resident
//! budget** through `Server::start_streamed` — the paged engine over the
//! offload tier, 2-token pages — while a scripted I/O fault storm
//! (`dsi_sim::fault::IoFaultPlan::random`) batters the weight tier:
//! slow-tier reads stalling past the step deadline, short reads, panel
//! corruption (re-read under checksum), and failed fetch handles — the
//! last of which kills the prefetch worker outright and forces the store
//! to degrade to synchronous fetch. The usual client churn rides on top:
//! immediate cancellations, tight per-request deadlines, ~2× KV-budget
//! overload. Seeds 10.. open every prompt with one of two 5-token prefixes
//! over a pool sized to the *shared* demand, so a recovery from a tier
//! fault has to re-attach to the shared pages to fit.
//!
//! Every seed must hold the full contract:
//!
//! * **No hangs** — the server drains within the grace window under every
//!   storm (the suite's wall-clock timeout is the gate in CI).
//! * **Typed errors only, books balance** — `submitted == admitted +
//!   rejected` and `admitted == completed + evicted + deadline_expired`,
//!   asserted against the client-observed tallies.
//! * **Bit-exact streams** — every `Completed` stream is token-identical
//!   to a resident un-faulted oracle of the same prompt, and every partial
//!   is an exact prefix of it: neither a corrupt panel nor a mid-stream
//!   eviction ever commits a wrong token.
//! * **The pool's books hold** — `fragmentation == 0` at drain, and the
//!   shared-prefix seeds did attach pages.

use std::sync::Arc;
use std::time::Duration;

use dsi_model::fast::PackedModel;
use dsi_model::reference::GptModel;
use dsi_model::zoo;
use dsi_serve::{
    ContinuousConfig, EngineMode, Outcome, Request, ServeConfig, Server,
};
use dsi_sim::fault::{splitmix64, IoFaultPlan};
use dsi_zero::offload::{OffloadConfig, OffloadStore};

#[test]
fn streamed_io_fault_storms_recover_bit_exact() {
    let model = GptModel::random(zoo::tiny(3), 17);
    let path = std::env::temp_dir()
        .join(format!("dsi_offload_chaos_{}.bin", std::process::id()));
    dsi_model::io::save(&model, &path).expect("save weight file");
    // A resident budget of two panels: the file is strictly bigger, so the
    // sweep churns eviction and demand fetch the whole way through.
    let probe = OffloadStore::open(&path, OffloadConfig::default()).expect("probe open");
    let budget = probe.panel_bytes() * 2;
    assert!(probe.file_bytes() > budget, "model must exceed the resident budget");
    drop(probe);
    let oracle_model = PackedModel::pack(&model);

    let mut total_completed = 0u64;
    let mut total_recoveries = 0u64;
    let mut total_open_failures = 0u64;
    let mut shared_attached = 0u64;

    for seed in 0u64..14 {
        let mut rng = seed.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(3);
        // Seeds 10.. put a 5-token prefix (two whole 2-token pages and a
        // bit) from one of two families in front of every prompt.
        let shared = seed >= 10;

        let n_requests = 12usize;
        let requests: Vec<(Vec<usize>, usize)> = (0..n_requests)
            .map(|_| {
                let mut prompt: Vec<usize> = if shared {
                    let family = splitmix64(&mut rng) % 2;
                    (0..5).map(|j| (60 + 10 * family + j) as usize).collect()
                } else {
                    Vec::new()
                };
                let plen =
                    if shared { 1 + splitmix64(&mut rng) % 3 } else { 2 + splitmix64(&mut rng) % 4 };
                prompt.extend((0..plen).map(|_| (splitmix64(&mut rng) % 50) as usize + 1));
                let n_tokens = 3 + (splitmix64(&mut rng) % 6) as usize;
                (prompt, n_tokens)
            })
            .collect();
        let oracles: Vec<Vec<usize>> = requests
            .iter()
            .map(|(p, n)| oracle_model.session(p.len()).generate(p, *n))
            .collect();

        // Storm: up to 10 I/O faults over the first ~80 panel reads.
        // Slow reads run 75–150ms against a 50ms step deadline — well
        // above benign demand-fetch churn (the store's acquire waits in
        // 2ms slices, so a clean 3-layer thrash step stays far under the
        // deadline) — so a stall on a demand fetch is also a
        // Timeout-class engine fault; short
        // reads and corruption exercise the bounded re-read; a failed
        // handle kills the prefetch worker (degrade-to-sync) or types the
        // demand fetch. Read call 0 is the open-time probe fetch, so a
        // storm can also make `start_streamed` itself fail — that must be
        // a typed error, never a hang.
        let plan = IoFaultPlan::random(seed.wrapping_add(101), 10, 80, 150);
        let offload = OffloadConfig {
            resident_budget_bytes: budget,
            prefetch_depth: 1 + (seed as usize % 3),
            faults: Some(Arc::new(plan.injector())),
            ..OffloadConfig::default()
        };
        let mut cfg = ServeConfig::new(1);
        cfg.mode = EngineMode::Continuous(ContinuousConfig {
            max_slots: 3,
            // ~2 full requests resident at once: 13 tokens unshared, 16
            // behind a prefix whose two pages the residents hold once.
            pages_total: if shared { 16 } else { 14 },
            page_tokens: 2,
            replay_budget: 4,
            step_deadline: Some(Duration::from_millis(50)),
            ..ContinuousConfig::default()
        });
        cfg.max_prompt = 8;
        cfg.queue_capacity = n_requests; // contend on KV tokens, not the queue
        let srv = match Server::start_streamed(&path, offload, cfg) {
            Ok(srv) => srv,
            Err(e) => {
                // The storm hit the open-time probe fetch: typed, not hung.
                assert!(!e.to_string().is_empty(), "seed {seed}: untyped open failure");
                total_open_failures += 1;
                continue;
            }
        };

        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for (i, (prompt, n_tokens)) in requests.iter().enumerate() {
            let deadline = (i % 5 == 4).then(|| Duration::from_millis(120));
            match srv.submit(Request { prompt: prompt.clone(), n_tokens: *n_tokens, deadline }) {
                Ok(t) => {
                    if i % 4 == 3 {
                        t.cancel();
                    }
                    tickets.push((i, t));
                }
                Err(_) => rejected += 1,
            }
            if splitmix64(&mut rng) % 10 < 3 {
                std::thread::sleep(Duration::from_millis(splitmix64(&mut rng) % 3));
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
                        "{label}: completed stream diverged from the resident oracle"
                    );
                    completed += 1;
                }
                Outcome::Evicted { partial, reason } => {
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
        let class_sum: u32 = report.breaker_opens_by_class.iter().map(|(_, n)| n).sum();
        assert_eq!(class_sum, report.breaker_opens, "seed {seed}: per-class opens mismatch");

        let sched = report.scheduler.expect("streamed scheduler report");
        assert_eq!(sched.pages.fragmentation, 0, "seed {seed}: page fragmentation");
        if shared {
            shared_attached += sched.prompt_tokens_attached;
        }
        total_recoveries += sched.recoveries;
        total_completed += completed;
    }

    let _ = std::fs::remove_file(&path);

    // The sweep must actually exercise the machinery it claims to cover:
    // storms that reach the decode path show up either as scheduler-level
    // recoveries (stall/typed-fetch faults) or as typed open failures.
    assert!(
        total_recoveries + total_open_failures > 0,
        "sweep never surfaced an I/O fault to the runtime"
    );
    assert!(shared_attached > 0, "shared-prefix seeds never attached a page");
    assert!(
        total_completed > 20,
        "sweep too destructive to prove liveness: {total_completed} completions"
    );
}
