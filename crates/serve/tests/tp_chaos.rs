//! Chaos harness for tensor-parallel serving: deterministic member fault
//! sweeps through a `Server` whose engine is a TP group.
//!
//! Every test scripts faults (via `dsi_sim::fault::FaultPlan`) into the
//! group members' joins and layer sites while two requests share its
//! passes, and asserts the contract: for every fault kind × injection site
//! × victim member, every request **completes with the tokens of the
//! fault-free solo run** — the scheduler replays what a fault lost, and the
//! group serves on, narrower by each member that was lost — never a
//! hang (CI runs this file under a wall-clock timeout), never an
//! unhandled panic, and no panic at all but the scripted members' (an
//! engine assertion the scheduler's guard absorbed fails the test).

mod common;

use std::sync::Arc;
use std::time::Duration;

use dsi_model::fast::PackedModel;
use dsi_model::paged::Engine;
use dsi_model::reference::GptModel;
use dsi_model::zoo;
use dsi_serve::{ContinuousConfig, EngineMode, Outcome, Request, ServeConfig, ServeReport, Server};
use dsi_sim::fault::{FaultKind, FaultPlan, FaultSite, FaultSpec};
use dsi_sim::shmem::CommConfig;

const PROMPTS: [[usize; 3]; 2] = [[1, 2, 3], [7, 5, 4]];
const N_TOKENS: usize = 6;
const LAYERS: usize = 2;

fn model(seed: u64) -> Arc<GptModel> {
    Arc::new(GptModel::random(zoo::tiny(LAYERS), seed))
}

/// Serve `prompts` at `tp` under `plan`, hold every stream to the solo run,
/// and return the report with the number of scripted faults that never
/// landed.
fn serve(m: &Arc<GptModel>, tp: usize, prompts: &[[usize; 3]], plan: FaultPlan, label: &str) -> (ServeReport, usize) {
    let injector = Arc::new(plan.injector());
    let mut cfg = ServeConfig::new(tp);
    cfg.mode = EngineMode::Continuous(ContinuousConfig {
        max_slots: 2,
        pages_total: 16,
        page_tokens: 4,
        // Generous: the sweep asserts *recovery*; budget exhaustion is an
        // eviction the serving chaos sweeps cover.
        replay_budget: 16,
        ..ContinuousConfig::default()
    });
    cfg.comm = CommConfig { timeout: Duration::from_millis(300), injector: Some(Arc::clone(&injector)) };
    cfg.breaker.enabled = false;
    let srv = Server::start(Arc::clone(m), cfg);
    let tickets: Vec<_> = prompts
        .iter()
        .map(|p| srv.submit(Request { prompt: p.to_vec(), n_tokens: N_TOKENS, deadline: None }).unwrap())
        .collect();
    let pm = PackedModel::pack(m);
    for (p, t) in prompts.iter().zip(tickets) {
        match t.wait() {
            Outcome::Completed { tokens, .. } => {
                assert_eq!(tokens, pm.session(p.len()).generate(p, N_TOKENS), "{label}: prompt {p:?} diverged")
            }
            other => panic!("{label}: prompt {p:?} must recover, got {other:?}"),
        }
    }
    (srv.drain(Duration::from_secs(10)), injector.pending())
}

/// Every fault kind at every injection-site class, on member 0 (the
/// caller's thread) and on the last member, at tp ∈ {2, 4}: each is
/// survived with token-identical output. A lost member narrows the group by
/// one; a fault that loses none recovers it at the same degree.
#[test]
fn sweep_fault_kinds_across_injection_sites() {
    let panics = common::watch();
    let m = model(101);
    // Barrier epochs: a pass joins 1 + 4·layers = 9 times, so epoch 3 is
    // mid-way through the first pass and epoch 13 in the second.
    let sites = [
        ("barrier/prompt", FaultSite::Barrier { epoch: 3 }),
        ("barrier/decode", FaultSite::Barrier { epoch: 13 }),
        ("layer/prompt", FaultSite::Layer { token: 1, layer: 0 }),
        ("layer/decode", FaultSite::Layer { token: 4, layer: 1 }),
        ("layer/late-decode", FaultSite::Layer { token: 5, layer: 1 }),
    ];
    let kinds = [
        ("stall", FaultKind::Stall { millis: 1000 }),
        ("exit", FaultKind::Exit),
        ("panic", FaultKind::Panic),
    ];
    for tp in [2usize, 4] {
        for (site_name, site) in sites {
            for (kind_name, kind) in kinds {
                for rank in [0, tp - 1] {
                    let label = format!("tp {tp} {kind_name}@{site_name} rank{rank}");
                    let plan = FaultPlan::new(vec![FaultSpec { rank, site, kind }]);
                    let (report, pending) = serve(&m, tp, &PROMPTS, plan, &label);
                    let ft = report.ft;
                    assert_eq!(pending, 0, "{label}: the fault never landed");
                    let want = match kind {
                        FaultKind::Exit | FaultKind::Panic => vec![(tp, tp - 1)],
                        FaultKind::Stall { .. } => Vec::new(),
                    };
                    assert_eq!(ft.degradations, want, "{label}: {:?}", ft.faults);
                    assert_eq!(ft.rebuilds, 1, "{label}: {:?}", ft.faults);
                }
            }
        }
    }
    panics.assert_none();
}

/// Seed-driven random fault storms at tp=4: whatever the script throws at
/// the group, serving comes back token-identical (the replay budget is
/// sized above any plan the sweep generates).
#[test]
fn sweep_random_fault_plans() {
    let panics = common::watch();
    let m = model(202);
    for seed in [7u64, 19, 23, 31] {
        // Short stalls only matter if they cross the timeout; both happen
        // across these seeds. max_epoch covers the first passes; layer sites
        // cover every layer and fed position.
        let plan = FaultPlan::random(seed, 3, 4, 40, LAYERS, PROMPTS[0].len() + N_TOKENS);
        let (report, _) = serve(&m, 4, &PROMPTS, plan, &format!("random seed {seed}"));
        assert_eq!(report.completed, 2);
    }
    panics.assert_none();
}

/// Determinism of the harness itself: the same seed must produce the same
/// script, the same recovery path, and the same tokens. One request, so
/// the passes do not depend on when the second one arrives.
#[test]
fn chaos_runs_are_seed_deterministic() {
    let panics = common::watch();
    let m = model(303);
    let run = |seed: u64| {
        let plan = FaultPlan::random(seed, 2, 2, 30, LAYERS, PROMPTS[0].len() + N_TOKENS);
        let (report, _) = serve(&m, 2, &PROMPTS[..1], plan, &format!("seed {seed}"));
        let replays = report.scheduler.map(|s| s.replays);
        (report.ft.rebuilds, report.ft.degradations, replays)
    };
    assert_eq!(run(11), run(11), "same seed must replay the same recovery");
    panics.assert_none();
}

/// Dropping a group whose member panicked must not wedge: the panicked
/// pass unwinds to the caller once every member is out, and dropping the
/// group joins helpers that are parked again. (A hang here would trip the
/// CI wall-clock guard.)
#[test]
fn drop_after_worker_death_does_not_wedge() {
    let panics = common::watch();
    let m = model(404);
    let pm = PackedModel::pack(&m);
    let plan = FaultPlan::new(vec![FaultSpec {
        rank: 1,
        site: FaultSite::Layer { token: 0, layer: 0 },
        kind: FaultKind::Panic,
    }]);
    let cfg = CommConfig { timeout: Duration::from_millis(200), injector: Some(Arc::new(plan.injector())) };
    let mut eng = Engine::group(&pm, 2, cfg, 1, 4, 4);
    let start = std::time::Instant::now();
    let pass = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eng.pass(&[(0, &PROMPTS[0])], &[], &mut Vec::new())));
    assert!(pass.is_err(), "a member panic must fail the pass");
    drop(eng);
    assert!(start.elapsed() < Duration::from_secs(2), "took {:?}", start.elapsed());
    panics.assert_none();
}

/// A fault in the *middle* of generation must preserve the already-emitted
/// prefix and produce an identical suffix after recovery.
#[test]
fn mid_stream_fault_preserves_prefix_and_suffix() {
    let panics = common::watch();
    let m = model(505);
    // Position PROMPT.len()+2 is fed well into the stream.
    let plan = FaultPlan::new(vec![FaultSpec {
        rank: 1,
        site: FaultSite::Layer { token: PROMPTS[0].len() + 2, layer: 1 },
        kind: FaultKind::Exit,
    }]);
    let (report, pending) = serve(&m, 2, &PROMPTS, plan, "mid-stream exit");
    assert_eq!(pending, 0);
    assert_eq!(report.ft.degradations, [(2, 1)], "a lost member narrows the group");
    assert!(report.scheduler.expect("scheduler report").replays >= 1, "the residents were replayed");
    panics.assert_none();
}
