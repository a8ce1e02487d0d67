//! Runtime protocol verification: the scheduler's fault-recovery page
//! protocol and the offload tier's prefetch protocol, checked as programs.
//!
//! * [`RecoveryOp`] / [`check_recovery_program`] — the replay protocol as a
//!   checkable program over per-slot page states. The deadly bug shape is
//!   re-seating a sequence while its possibly-poisoned pages are still
//!   reserved: the pool double-books and a survivor's KV is silently
//!   corrupted. That is the `replay-page-leak` diagnostic. The programs it
//!   checks are not written by hand: the `dsi-serve` scheduler records the
//!   recovery steps it takes into its trace ([`SchedTraceOp::Recovery`]),
//!   [`recorded_recoveries`] cuts that trace into one program per
//!   recovery, and the scheduler checks them at exit.
//! * [`check_prefetch_program`] — the streaming weight store's
//!   fetch/acquire/evict protocol, checked on what a real store recorded
//!   while the paged engine decoded over it ([`record_offload`]).
//!
//! The serving circuit breaker is checked where it lives: `dsi-serve`'s
//! breaker module explores the real `Breaker` exhaustively (this crate
//! cannot depend on `dsi-serve`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use dsi_model::paged::Engine;
use dsi_model::reference::GptModel;
use dsi_model::zoo;
use dsi_zero::offload::{OffloadConfig, OffloadStore, StoreEvent};

use crate::locks::SchedTraceOp;
use crate::{Diagnostic, Pass};

// ---------------------------------------------------------------------------
// Recovery-program checker.
// ---------------------------------------------------------------------------

/// One step of a scheduler fault-recovery program, on one engine slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum RecoveryOp {
    /// An engine fault poisons the resident slot (its private pages hold
    /// state past the committed prefix and cannot be trusted).
    Fault { slot: usize },
    /// The slot's references are dropped; pages nobody else holds return
    /// to the pool. A replay whose pass fails is followed by one of these
    /// too: `Err` from a pass means every seat is free.
    Release { slot: usize },
    /// The slot is re-seated by a pass with its committed prefix as context
    /// (re-reserving pages from the pool).
    Replay { slot: usize },
    /// The slot's sequence is evicted (terminal outcome delivered).
    Evict { slot: usize },
}

/// Per-slot page state tracked by [`check_recovery_program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotPages {
    /// Resident with trusted pages.
    Clean,
    /// Resident, but the pages hold post-fault state.
    Poisoned,
    /// Pages returned to the pool.
    Released,
}

/// Check a recovery program for the page-accounting protocol the replay
/// design requires: a faulted slot's table must be **released before the
/// slot is re-seated or evicted** (else the pool double-books — the
/// `replay-page-leak` diagnostic), a release must not run twice
/// (`replay-double-release`, the exact bug `PagePool::release`'s
/// always-on refcount assert catches at runtime), and by the end of the
/// program no slot may still be poisoned (`unrecovered-slot`).
///
/// With prefix sharing, "poisoned" covers the slot's *table* and the pages
/// it holds alone — everything at or past its committed prefix. The shared
/// front of the table (published prompt pages) is never written after
/// publication, so a fault cannot have touched it: `Release` drops the
/// slot's references, the front stays resident while another holder or its
/// index entry keeps it, and `Replay` re-attaches to it. The protocol is
/// unchanged because release-all-first still bounds replay demand by
/// pre-fault demand: every replay can attach every page it shared before
/// (`scratch::check_page_tables` proves the live tables keep that shape).
pub fn check_recovery_program(ops: &[RecoveryOp]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Slots the program has not touched yet are resident and clean.
    let mut slots: BTreeMap<usize, SlotPages> = BTreeMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let site = |what: &str| format!("recovery op {i} ({what})");
        let (RecoveryOp::Fault { slot }
        | RecoveryOp::Release { slot }
        | RecoveryOp::Replay { slot }
        | RecoveryOp::Evict { slot }) = op;
        let state = slots.entry(slot).or_insert(SlotPages::Clean);
        match op {
            RecoveryOp::Fault { .. } => {
                if *state == SlotPages::Released {
                    diags.push(Diagnostic::new(
                        Pass::Collective,
                        "fault-on-free-slot",
                        site("fault"),
                        format!("slot {slot} poisoned while holding no pages"),
                    ));
                } else {
                    *state = SlotPages::Poisoned;
                }
            }
            RecoveryOp::Release { .. } => {
                if *state == SlotPages::Released {
                    diags.push(Diagnostic::new(
                        Pass::Collective,
                        "replay-double-release",
                        site("release"),
                        format!("slot {slot} released twice — the free list would alias"),
                    ));
                }
                *state = SlotPages::Released;
            }
            RecoveryOp::Replay { .. } => {
                if *state != SlotPages::Released {
                    diags.push(Diagnostic::new(
                        Pass::Collective,
                        "replay-page-leak",
                        site("replay"),
                        format!(
                            "slot {slot} re-seated while its pages are still reserved \
                             ({state:?}): the pool double-books and a survivor's KV aliases"
                        ),
                    ));
                }
                *state = SlotPages::Clean;
            }
            RecoveryOp::Evict { .. } => {
                if *state != SlotPages::Released {
                    diags.push(Diagnostic::new(
                        Pass::Collective,
                        "replay-page-leak",
                        site("evict"),
                        format!(
                            "slot {slot} evicted while its pages are still reserved: \
                             the outcome is delivered but the pages never return"
                        ),
                    ));
                }
                *state = SlotPages::Released;
            }
        }
    }
    for (s, state) in &slots {
        if *state == SlotPages::Poisoned {
            diags.push(Diagnostic::new(
                Pass::Collective,
                "unrecovered-slot",
                "recovery program end",
                format!("slot {s} still holds poisoned pages at end of recovery"),
            ));
        }
    }
    diags
}

/// The recovery programs a scheduler trace recorded, one per
/// [`SchedTraceOp::Recover`] marker: the [`RecoveryOp::Fault`]s that follow
/// it, and every later step of the slots they poisoned — their releases,
/// and their replays and evictions, which may come iterations later and
/// after other recoveries opened programs of their own. Each program
/// starts from resident slots with trusted pages, so each is checked on its
/// own with [`check_recovery_program`] — slots are seated by ordinary
/// admissions between recoveries, which the trace does not record.
pub fn recorded_recoveries(trace: &[SchedTraceOp]) -> Vec<Vec<RecoveryOp>> {
    let mut progs: Vec<Vec<RecoveryOp>> = vec![Vec::new()];
    // The program of the fault that last poisoned each slot.
    let mut owner: BTreeMap<usize, usize> = BTreeMap::new();
    for op in trace {
        match *op {
            SchedTraceOp::Recover => progs.push(Vec::new()),
            SchedTraceOp::Recovery(r) => {
                let (RecoveryOp::Fault { slot }
                | RecoveryOp::Release { slot }
                | RecoveryOp::Replay { slot }
                | RecoveryOp::Evict { slot }) = r;
                let newest = progs.len() - 1;
                if let RecoveryOp::Fault { .. } = r {
                    owner.insert(slot, newest);
                }
                progs[owner.get(&slot).copied().unwrap_or(newest)].push(r);
            }
            _ => {}
        }
    }
    progs.retain(|prog| !prog.is_empty());
    progs
}

// ---------------------------------------------------------------------------
// Prefetch-program checker (the streaming weight offload of dsi-zero).
// ---------------------------------------------------------------------------

/// Check an offload store's recorded events ([`OffloadStore::events`]) for
/// the safety invariants of the streaming weight store:
///
/// * `use-before-resident` — a panel is acquired while absent: the decode
///   loop would compute on unfetched (or evicted) weights;
/// * `evict-in-use` — an eviction removes a pinned panel (its recorded
///   `Arc` strong count says a layer step still holds it) or a panel that
///   is not resident at all;
/// * `refetch-without-evict` — a resident panel is fetched again: the
///   budget double-counts its bytes;
/// * `offload-over-budget` — more than `capacity` panels resident at once.
///
/// Dropping a pin is not an event: the store hands out `Arc`s, whose drop
/// it could only see through a hook on the hot path and whose count cannot
/// underflow. The count an eviction records is what says a panel was free.
pub fn check_prefetch_program(
    n_panels: usize,
    capacity: usize,
    ops: &[StoreEvent],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut resident = vec![false; n_panels];
    let mut count = 0usize;
    for (i, &op) in ops.iter().enumerate() {
        let mut flag = |code, what: &str, msg: String| {
            diags.push(Diagnostic::new(Pass::Collective, code, format!("prefetch op {i} ({what})"), msg))
        };
        match op {
            StoreEvent::Fetch { layer } => {
                if resident[layer] {
                    flag(
                        "refetch-without-evict",
                        "fetch",
                        format!("panel {layer} fetched while already resident — budget double-counts"),
                    );
                } else {
                    resident[layer] = true;
                    count += 1;
                }
                if count > capacity {
                    flag("offload-over-budget", "fetch", format!("{count} panels resident, budget holds {capacity}"));
                }
            }
            StoreEvent::Acquire { layer } if !resident[layer] => flag(
                "use-before-resident",
                "acquire",
                format!("panel {layer} used before its fetch completed — the layer step would read absent weights"),
            ),
            StoreEvent::Acquire { .. } => {}
            StoreEvent::Evict { layer, strong } => {
                if !resident[layer] {
                    flag("evict-in-use", "evict", format!("panel {layer} evicted while not resident"));
                    continue;
                }
                if strong > 1 {
                    flag(
                        "evict-in-use",
                        "evict",
                        format!("panel {layer} evicted while pinned ({strong} holders) by a running layer step"),
                    );
                }
                resident[layer] = false;
                count -= 1;
            }
        }
    }
    diags
}

/// Save a tiny `layers`-layer model, open an [`OffloadStore`] on it with a
/// budget of `capacity` panels and a prefetch `depth`, run the paged engine
/// over it for two passes (a prompt, then one decode step), and return the
/// events the store recorded. A recorder that wrapped is a
/// `recording-overflow` diagnostic instead.
pub fn record_offload(layers: usize, depth: usize, capacity: usize) -> Result<Vec<StoreEvent>, Diagnostic> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("dsi_verify_offload_{}_{run}.bin", std::process::id()));
    dsi_model::io::save(&GptModel::random(zoo::tiny(layers), 11), &path).expect("save the tiny model");
    let open = |budget: usize| {
        let cfg = OffloadConfig { resident_budget_bytes: budget, prefetch_depth: depth, ..OffloadConfig::default() };
        OffloadStore::open(&path, cfg).expect("open the store")
    };
    let panel_bytes = open(usize::MAX).panel_bytes();
    let mut engine = Engine::new(open(capacity * panel_bytes), 1, 16, 4);
    engine.prefill(0, &[1, 2, 3]).expect("prompt pass");
    engine.decode(&[0], &mut Vec::new()).expect("decode pass");
    let rec = engine.weights().events();
    let _ = std::fs::remove_file(&path);
    if rec.overflowed() {
        return Err(Diagnostic::recording_overflow(format!(
            "offload layers={layers} depth={depth} budget={capacity}"
        )));
    }
    Ok(rec.events())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_recoveries_follow_each_slot_to_its_fault() {
        use RecoveryOp::*;
        use SchedTraceOp as T;
        // A pass advancing slots 0 and 1 faults. The retry's replay of slot
        // 0 fails (replay, release) while slot 1's seats; slot 0 waits. The
        // next iteration's pass faults slot 1 past its budget (evict) and
        // seats slot 0 in the retry — a step of the first recovery, recorded
        // after the second one opened.
        let trace = [
            T::Execute,
            T::Recover,
            T::Recovery(Fault { slot: 0 }),
            T::Recovery(Fault { slot: 1 }),
            T::Recovery(Release { slot: 0 }),
            T::Recovery(Release { slot: 1 }),
            T::Recovery(Replay { slot: 0 }),
            T::Recovery(Release { slot: 0 }),
            T::Recovery(Replay { slot: 1 }),
            T::Acquire,
            T::Retire,
            T::Release,
            T::Execute,
            T::Recover,
            T::Recovery(Fault { slot: 1 }),
            T::Recovery(Release { slot: 1 }),
            T::Recovery(Evict { slot: 1 }),
            T::Recovery(Replay { slot: 0 }),
        ];
        let progs = recorded_recoveries(&trace);
        assert_eq!(progs.len(), 2);
        assert_eq!(progs[0].last(), Some(&Replay { slot: 0 }));
        assert_eq!(progs[1], [Fault { slot: 1 }, Release { slot: 1 }, Evict { slot: 1 }]);
        for p in &progs {
            let diags = check_recovery_program(p);
            assert!(diags.is_empty(), "{p:?}: {diags:#?}");
        }
    }

    #[test]
    fn replay_without_release_is_a_page_leak() {
        let ops = vec![
            RecoveryOp::Fault { slot: 0 },
            RecoveryOp::Replay { slot: 0 }, // re-seats over reserved pages
        ];
        let diags = check_recovery_program(&ops);
        assert!(diags.iter().any(|d| d.code == "replay-page-leak"), "{diags:#?}");
    }

    #[test]
    fn a_live_store_recording_under_a_tight_budget_is_clean() {
        // Five panels through a two-panel budget with a prefetch ahead:
        // every pass evicts, and whatever order the worker's timing put the
        // events in, none is unsafe.
        let ops = record_offload(5, 2, 2).expect("recorder holds both passes");
        assert!(ops.iter().any(|op| matches!(op, StoreEvent::Evict { strong: 1, .. })), "{ops:?}");
        assert_eq!(ops.iter().filter(|op| matches!(op, StoreEvent::Acquire { .. })).count(), 10);
        let diags = check_prefetch_program(5, 2, &ops);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn acquire_before_fetch_is_use_before_resident() {
        let diags = check_prefetch_program(2, 2, &[StoreEvent::Acquire { layer: 0 }]);
        assert!(diags.iter().any(|d| d.code == "use-before-resident"), "{diags:#?}");
    }

    #[test]
    fn evicting_a_pinned_or_absent_panel_is_flagged() {
        let ops = [
            StoreEvent::Fetch { layer: 0 },
            StoreEvent::Acquire { layer: 0 },
            StoreEvent::Evict { layer: 0, strong: 2 },
            StoreEvent::Evict { layer: 0, strong: 1 },
        ];
        let diags = check_prefetch_program(1, 1, &ops);
        assert_eq!(diags.iter().filter(|d| d.code == "evict-in-use").count(), 2, "{diags:#?}");
    }

    #[test]
    fn refetch_and_over_budget_are_flagged() {
        let ops = [
            StoreEvent::Fetch { layer: 0 },
            StoreEvent::Fetch { layer: 0 }, // refetch-without-evict
            StoreEvent::Fetch { layer: 1 }, // offload-over-budget (capacity 1)
        ];
        let diags = check_prefetch_program(2, 1, &ops);
        assert!(diags.iter().any(|d| d.code == "refetch-without-evict"), "{diags:#?}");
        assert!(diags.iter().any(|d| d.code == "offload-over-budget"), "{diags:#?}");
    }

    #[test]
    fn double_release_and_unrecovered_slots_are_flagged() {
        let ops = vec![
            RecoveryOp::Fault { slot: 0 },
            RecoveryOp::Fault { slot: 1 },
            RecoveryOp::Release { slot: 0 },
            RecoveryOp::Release { slot: 0 },
        ];
        let diags = check_recovery_program(&ops);
        assert!(diags.iter().any(|d| d.code == "replay-double-release"), "{diags:#?}");
        assert!(diags.iter().any(|d| d.code == "unrecovered-slot"), "{diags:#?}");
    }
}
