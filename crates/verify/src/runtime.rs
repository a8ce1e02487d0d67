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
//! * [`PrefetchOp`] / [`check_prefetch_program`] — the streaming weight
//!   store's fetch/acquire/release/evict protocol. Its input is still a
//!   transcription, [`prefetch_program`].
//!
//! The serving circuit breaker is checked where it lives: `dsi-serve`'s
//! breaker module explores the real `Breaker` exhaustively (this crate
//! cannot depend on `dsi-serve`).

use std::collections::BTreeMap;

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
    /// to the pool. A replay whose prefill fails is followed by one of
    /// these too: `Err` from prefill means the slot is free.
    Release { slot: usize },
    /// The slot is re-seated by prefilling its committed prefix
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
/// [`SchedTraceOp::Recover`] marker: the [`SchedTraceOp::Recovery`] steps
/// that follow it. Each starts from resident slots with trusted pages, so
/// each is checked on its own with [`check_recovery_program`] — slots are
/// reseated by ordinary admissions between recoveries, which the trace
/// does not record.
pub fn recorded_recoveries(trace: &[SchedTraceOp]) -> Vec<Vec<RecoveryOp>> {
    trace
        .split(|op| *op == SchedTraceOp::Recover)
        .map(|seg| {
            seg.iter()
                .filter_map(|op| match *op {
                    SchedTraceOp::Recovery(r) => Some(r),
                    _ => None,
                })
                .collect::<Vec<_>>()
        })
        .filter(|prog| !prog.is_empty())
        .collect()
}

// ---------------------------------------------------------------------------
// Prefetch-program checker (the streaming weight offload of dsi-zero).
// ---------------------------------------------------------------------------

/// One step of an offload prefetch program, over weight-panel ids. This is
/// the abstract event alphabet of `dsi_zero::offload::OffloadStore`: the
/// worker (or a sync fallback) *fetches* panels into residency, the decode
/// loop *acquires* (pins) and *releases* them, and the budget *evicts*
/// unpinned residents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefetchOp {
    /// A panel becomes resident (checksum-verified read + pack).
    Fetch { panel: usize },
    /// The decode loop pins the panel for a layer step.
    Acquire { panel: usize },
    /// The decode loop drops its pin (release-before-refetch).
    Release { panel: usize },
    /// The budget evicts the panel.
    Evict { panel: usize },
}

/// Per-panel state tracked by [`check_prefetch_program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PanelState {
    Absent,
    Resident { pinned: bool },
}

/// Check a prefetch program for the safety invariants of the streaming
/// weight store:
///
/// * `use-before-resident` — a panel is acquired while absent: the decode
///   loop would compute on unfetched (or evicted) weights;
/// * `evict-in-use` — an eviction removes a pinned panel out from under a
///   running layer step (or a panel that is not resident at all);
/// * `refetch-without-evict` — a resident panel is fetched again: the
///   budget double-counts its bytes;
/// * `release-unheld` — a release with no matching pin: the pin count
///   (the store's `Arc` strong count) would underflow;
/// * `offload-over-budget` — more than `capacity` panels resident at once.
pub fn check_prefetch_program(
    n_panels: usize,
    capacity: usize,
    ops: &[PrefetchOp],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut panels = vec![PanelState::Absent; n_panels];
    let mut resident = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let site = |what: &str| format!("prefetch op {i} ({what})");
        match *op {
            PrefetchOp::Fetch { panel } => {
                if matches!(panels[panel], PanelState::Resident { .. }) {
                    diags.push(Diagnostic::new(
                        Pass::Collective,
                        "refetch-without-evict",
                        site("fetch"),
                        format!("panel {panel} fetched while already resident — budget double-counts"),
                    ));
                } else {
                    panels[panel] = PanelState::Resident { pinned: false };
                    resident += 1;
                }
                if resident > capacity {
                    diags.push(Diagnostic::new(
                        Pass::Collective,
                        "offload-over-budget",
                        site("fetch"),
                        format!("{resident} panels resident, budget holds {capacity}"),
                    ));
                }
            }
            PrefetchOp::Acquire { panel } => match panels[panel] {
                PanelState::Absent => diags.push(Diagnostic::new(
                    Pass::Collective,
                    "use-before-resident",
                    site("acquire"),
                    format!("panel {panel} used before its fetch completed — the layer step would read absent weights"),
                )),
                PanelState::Resident { .. } => {
                    panels[panel] = PanelState::Resident { pinned: true };
                }
            },
            PrefetchOp::Release { panel } => match panels[panel] {
                PanelState::Resident { pinned: true } => {
                    panels[panel] = PanelState::Resident { pinned: false };
                }
                _ => diags.push(Diagnostic::new(
                    Pass::Collective,
                    "release-unheld",
                    site("release"),
                    format!("panel {panel} released without a pin — the pin count underflows"),
                )),
            },
            PrefetchOp::Evict { panel } => match panels[panel] {
                PanelState::Resident { pinned: false } => {
                    panels[panel] = PanelState::Absent;
                    resident -= 1;
                }
                PanelState::Resident { pinned: true } => diags.push(Diagnostic::new(
                    Pass::Collective,
                    "evict-in-use",
                    site("evict"),
                    format!("panel {panel} evicted while pinned by a running layer step"),
                )),
                PanelState::Absent => diags.push(Diagnostic::new(
                    Pass::Collective,
                    "evict-in-use",
                    site("evict"),
                    format!("panel {panel} evicted while not resident"),
                )),
            },
        }
    }
    diags
}

/// Transcribe the offload store's schedule for `layers` weight panels
/// decoded round-robin (two full passes, so wraparound reuse and eviction
/// are exercised), a prefetch `depth`, and a resident `capacity` in
/// panels: fetch-on-demand before each acquire, prefetch up to `depth`
/// panels ahead while the current one is pinned, evict the unpinned panel
/// with the furthest next use under the cyclic order (the store's exact
/// policy), drop prefetches that cannot fit, release before moving on.
/// [`crate::sweep::verify_all`] checks this program clean across a grid of
/// (layers × depth × capacity); the sweep's negative control acquires
/// before fetching.
pub fn prefetch_program(layers: usize, depth: usize, capacity: usize) -> Vec<PrefetchOp> {
    assert!(layers > 0 && capacity > 0);
    let mut ops = Vec::new();
    let mut resident: Vec<usize> = Vec::new();
    let depth = depth.min(capacity.saturating_sub(1)).min(layers.saturating_sub(1));
    // Evict the unpinned resident with the furthest next use in cyclic
    // layer order starting at `next`.
    fn evict_furthest(
        resident: &mut Vec<usize>,
        ops: &mut Vec<PrefetchOp>,
        layers: usize,
        next: usize,
        pinned: Option<usize>,
    ) -> bool {
        let victim = resident
            .iter()
            .copied()
            .filter(|&p| Some(p) != pinned)
            .max_by_key(|&p| (p + layers - next) % layers);
        match victim {
            Some(v) => {
                resident.retain(|&p| p != v);
                ops.push(PrefetchOp::Evict { panel: v });
                true
            }
            None => false,
        }
    }
    for _pass in 0..2 {
        for l in 0..layers {
            if !resident.contains(&l) {
                while resident.len() >= capacity {
                    assert!(evict_furthest(&mut resident, &mut ops, layers, l, None));
                }
                ops.push(PrefetchOp::Fetch { panel: l });
                resident.push(l);
            }
            ops.push(PrefetchOp::Acquire { panel: l });
            for i in 1..=depth {
                let t = (l + i) % layers;
                if resident.contains(&t) {
                    continue;
                }
                if resident.len() >= capacity
                    && !evict_furthest(&mut resident, &mut ops, layers, (l + 1) % layers, Some(l))
                {
                    continue; // nothing evictable: the store drops the prefetch
                }
                ops.push(PrefetchOp::Fetch { panel: t });
                resident.push(t);
            }
            ops.push(PrefetchOp::Release { panel: l });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_recoveries_are_cut_at_each_recover_marker() {
        use RecoveryOp::*;
        use SchedTraceOp as T;
        // Two recoveries of slot 0, an admission reseating it in between.
        // The first replay's prefill fails (replay, release), the second
        // recovery is past the budget (evict).
        let trace = [
            T::Execute,
            T::Recover,
            T::Recovery(Fault { slot: 0 }),
            T::Recovery(Fault { slot: 1 }),
            T::Recovery(Release { slot: 0 }),
            T::Recovery(Release { slot: 1 }),
            T::Recovery(Replay { slot: 0 }),
            T::Recovery(Release { slot: 0 }),
            T::Recovery(Replay { slot: 0 }),
            T::Recovery(Evict { slot: 1 }),
            T::Acquire,
            T::Retire,
            T::Release,
            T::Execute,
            T::Recover,
            T::Recovery(Fault { slot: 1 }),
            T::Recovery(Release { slot: 1 }),
            T::Recovery(Evict { slot: 1 }),
        ];
        let progs = recorded_recoveries(&trace);
        assert_eq!(progs.len(), 2);
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
    fn prefetch_program_is_clean_across_the_grid() {
        for layers in [1usize, 2, 3, 5, 8] {
            for depth in [0usize, 1, 2, 4] {
                for capacity in [1usize, 2, 3, 6] {
                    let ops = prefetch_program(layers, depth, capacity);
                    let diags = check_prefetch_program(layers, capacity, &ops);
                    assert!(
                        diags.is_empty(),
                        "layers={layers} depth={depth} capacity={capacity}: {diags:#?}"
                    );
                }
            }
        }
    }

    #[test]
    fn acquire_before_fetch_is_use_before_resident() {
        let diags = check_prefetch_program(2, 2, &[PrefetchOp::Acquire { panel: 0 }]);
        assert!(diags.iter().any(|d| d.code == "use-before-resident"), "{diags:#?}");
    }

    #[test]
    fn evicting_a_pinned_panel_is_flagged() {
        let ops = vec![
            PrefetchOp::Fetch { panel: 0 },
            PrefetchOp::Acquire { panel: 0 },
            PrefetchOp::Evict { panel: 0 },
        ];
        let diags = check_prefetch_program(1, 1, &ops);
        assert!(diags.iter().any(|d| d.code == "evict-in-use"), "{diags:#?}");
    }

    #[test]
    fn refetch_over_budget_and_unheld_release_are_flagged() {
        let ops = vec![
            PrefetchOp::Fetch { panel: 0 },
            PrefetchOp::Fetch { panel: 0 }, // refetch-without-evict
            PrefetchOp::Fetch { panel: 1 }, // offload-over-budget (capacity 1)
            PrefetchOp::Release { panel: 1 }, // release-unheld (never pinned)
        ];
        let diags = check_prefetch_program(2, 1, &ops);
        assert!(diags.iter().any(|d| d.code == "refetch-without-evict"), "{diags:#?}");
        assert!(diags.iter().any(|d| d.code == "offload-over-budget"), "{diags:#?}");
        assert!(diags.iter().any(|d| d.code == "release-unheld"), "{diags:#?}");
    }

    #[test]
    fn prefetch_program_respects_capacity_exactly() {
        // Transcribed schedule for a tight budget keeps at most `capacity`
        // resident and exercises eviction (layers > capacity).
        let ops = prefetch_program(5, 2, 2);
        assert!(ops.iter().any(|op| matches!(op, PrefetchOp::Evict { .. })), "{ops:#?}");
        let diags = check_prefetch_program(5, 2, &ops);
        assert!(diags.is_empty(), "{diags:#?}");
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
