//! Runtime state-machine verification: the serving circuit breaker and the
//! scheduler's fault-recovery protocol, checked as models.
//!
//! The continuous scheduler's recovery path (release the poisoned
//! residents' pages, re-reserve, re-prefill the committed prefix) and the
//! per-fault-class breakers both encode small state machines whose bugs are
//! catastrophic but whose state spaces are tiny. This module transcribes
//! them:
//!
//! * [`BreakerModel`] — the `dsi-serve` circuit breaker
//!   (`Closed → Open → HalfOpen`) as a pure state machine with no serve
//!   dependency. [`check_breaker_model`] *exhaustively* explores every
//!   event sequence up to a bounded depth and checks the safety invariants
//!   (rejects only while open or probing, at most one probe in flight,
//!   `opens` counts exactly the transitions into `Open`, a closed breaker
//!   never holds `threshold` failures). The serve crate's unit tests drive
//!   the real `Breaker` and this model in lock-step, so the transcription
//!   cannot drift.
//! * [`RecoveryOp`] / [`check_recovery_program`] — the replay protocol as a
//!   checkable program over per-slot page states. The deadly bug shape is
//!   re-seating a sequence while its possibly-poisoned pages are still
//!   reserved: the pool double-books and a survivor's KV is silently
//!   corrupted. That is the `replay-page-leak` diagnostic, and the sweep's
//!   16th negative control proves the detector fires.

use crate::{Diagnostic, Pass};

// ---------------------------------------------------------------------------
// Circuit-breaker model.
// ---------------------------------------------------------------------------

/// Model state — a transcription of `dsi_serve::breaker::BreakerState`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelState {
    Closed { failures: u32 },
    Open { until: u64 },
    HalfOpen,
}

/// Model admission verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelAdmission {
    Admit,
    AdmitProbe,
    Reject,
}

/// Pure transcription of the serving circuit breaker, with abstract integer
/// time. Kept free of any `dsi-serve` dependency so the dependency edge
/// points the right way (serve → verify); conformance is enforced from the
/// serve side by lock-step tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerModel {
    pub threshold: u32,
    pub window: u64,
    pub state: ModelState,
    pub opens: u32,
}

impl BreakerModel {
    pub fn new(threshold: u32, window: u64) -> Self {
        assert!(threshold > 0 && window > 0);
        BreakerModel { threshold, window, state: ModelState::Closed { failures: 0 }, opens: 0 }
    }

    pub fn admit(&mut self, now: u64) -> ModelAdmission {
        match self.state {
            ModelState::Closed { .. } => ModelAdmission::Admit,
            ModelState::Open { until } if now >= until => {
                self.state = ModelState::HalfOpen;
                ModelAdmission::AdmitProbe
            }
            ModelState::Open { .. } | ModelState::HalfOpen => ModelAdmission::Reject,
        }
    }

    pub fn abort_probe(&mut self, now: u64) {
        if self.state == ModelState::HalfOpen {
            self.state = ModelState::Open { until: now };
        }
    }

    pub fn on_success(&mut self) {
        self.state = ModelState::Closed { failures: 0 };
    }

    pub fn on_failure(&mut self, now: u64) {
        match self.state {
            ModelState::Closed { failures } => {
                let n = failures + 1;
                if n >= self.threshold {
                    self.state = ModelState::Open { until: now + self.window };
                    self.opens += 1;
                } else {
                    self.state = ModelState::Closed { failures: n };
                }
            }
            ModelState::HalfOpen => {
                self.state = ModelState::Open { until: now + self.window };
                self.opens += 1;
            }
            ModelState::Open { .. } => {}
        }
    }
}

/// One abstract breaker event for the exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerEvent {
    Admit,
    Success,
    Failure,
    AbortProbe,
    Tick,
}

/// Exhaustively explore every event sequence of length `depth` against
/// `BreakerModel::new(threshold, window)` and check the safety invariants
/// after each transition. Returns one diagnostic per violated invariant
/// (deduplicated by code); empty means the state machine is safe over the
/// whole bounded behaviour space.
pub fn check_breaker_model(threshold: u32, window: u64, depth: usize) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let events =
        [BreakerEvent::Admit, BreakerEvent::Success, BreakerEvent::Failure, BreakerEvent::AbortProbe, BreakerEvent::Tick];
    let mut flag = |code: &'static str, trace: &[BreakerEvent], msg: String| {
        if !diags.iter().any(|d| d.code == code) {
            diags.push(Diagnostic::new(Pass::Collective, code, format!("event trace {trace:?}"), msg));
        }
    };

    // Iterative DFS over event strings; state space is tiny (|events|^depth).
    let mut stack: Vec<(BreakerModel, u64, Vec<BreakerEvent>)> =
        vec![(BreakerModel::new(threshold, window), 0, Vec::new())];
    while let Some((model, now, trace)) = stack.pop() {
        if trace.len() >= depth {
            continue;
        }
        for ev in events {
            let mut m = model;
            let mut t = now;
            let mut trace2 = trace.clone();
            trace2.push(ev);
            let before = m;
            match ev {
                BreakerEvent::Tick => t += 1,
                BreakerEvent::Admit => {
                    let verdict = m.admit(t);
                    match verdict {
                        ModelAdmission::Admit => {
                            if !matches!(before.state, ModelState::Closed { .. }) {
                                flag("breaker-admit-open", &trace2,
                                    format!("plain admission from non-closed state {:?}", before.state));
                            }
                        }
                        ModelAdmission::AdmitProbe => {
                            let ok = matches!(before.state, ModelState::Open { until } if t >= until);
                            if !ok || m.state != ModelState::HalfOpen {
                                flag("breaker-probe-early", &trace2,
                                    format!("probe admitted from {:?} at t={t}", before.state));
                            }
                        }
                        ModelAdmission::Reject => {
                            let open_within =
                                matches!(before.state, ModelState::Open { until } if t < until);
                            if !open_within && before.state != ModelState::HalfOpen {
                                flag("breaker-reject-closed", &trace2,
                                    format!("rejection from {:?} at t={t}", before.state));
                            }
                        }
                    }
                    // At most one probe in flight: a second admission while
                    // half-open must reject.
                    if m.state == ModelState::HalfOpen
                        && m.admit(t) != ModelAdmission::Reject
                    {
                        flag("breaker-double-probe", &trace2,
                            "second admission while a probe is in flight".to_string());
                    }
                }
                BreakerEvent::Success => m.on_success(),
                BreakerEvent::Failure => m.on_failure(t),
                BreakerEvent::AbortProbe => m.abort_probe(t),
            }
            // Global invariants, after every transition.
            if let ModelState::Closed { failures } = m.state {
                if failures >= threshold {
                    flag("breaker-threshold-missed", &trace2,
                        format!("closed with {failures} failures at threshold {threshold}"));
                }
            }
            let opened = matches!(m.state, ModelState::Open { .. })
                && !matches!(before.state, ModelState::Open { .. });
            // `opens` counts transitions into Open caused by a failure; an
            // aborted probe re-opens (window already elapsed) without
            // counting — it observed nothing new about the engine.
            let want_opens =
                before.opens + u32::from(opened && ev == BreakerEvent::Failure);
            if m.opens != want_opens {
                flag("breaker-opens-miscount", &trace2,
                    format!("opens {} → {} on {ev:?} (expected {want_opens})", before.opens, m.opens));
            }
            if opened && !matches!(ev, BreakerEvent::Failure | BreakerEvent::AbortProbe) {
                flag("breaker-spurious-open", &trace2,
                    format!("entered Open on {ev:?}"));
            }
            stack.push((m, t, trace2));
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Recovery-program checker.
// ---------------------------------------------------------------------------

/// One step of a scheduler fault-recovery program, over engine slot ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOp {
    /// An engine fault poisons every listed resident slot (its private
    /// pages hold state past the committed prefix and cannot be trusted).
    Fault { slots: Vec<usize> },
    /// The slot's references are dropped; pages nobody else holds return
    /// to the pool.
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
pub fn check_recovery_program(n_slots: usize, ops: &[RecoveryOp]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut slots = vec![SlotPages::Clean; n_slots];
    for (i, op) in ops.iter().enumerate() {
        let site = |what: &str| format!("recovery op {i} ({what})");
        match op {
            RecoveryOp::Fault { slots: hit } => {
                for &s in hit {
                    if slots[s] == SlotPages::Released {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "fault-on-free-slot",
                            site("fault"),
                            format!("slot {s} poisoned while holding no pages"),
                        ));
                    } else {
                        slots[s] = SlotPages::Poisoned;
                    }
                }
            }
            RecoveryOp::Release { slot } => {
                if slots[*slot] == SlotPages::Released {
                    diags.push(Diagnostic::new(
                        Pass::Collective,
                        "replay-double-release",
                        site("release"),
                        format!("slot {slot} released twice — the free list would alias"),
                    ));
                }
                slots[*slot] = SlotPages::Released;
            }
            RecoveryOp::Replay { slot } => {
                if slots[*slot] != SlotPages::Released {
                    diags.push(Diagnostic::new(
                        Pass::Collective,
                        "replay-page-leak",
                        site("replay"),
                        format!(
                            "slot {slot} re-seated while its pages are still reserved \
                             ({:?}): the pool double-books and a survivor's KV aliases",
                            slots[*slot]
                        ),
                    ));
                }
                slots[*slot] = SlotPages::Clean;
            }
            RecoveryOp::Evict { slot } => {
                if slots[*slot] != SlotPages::Released {
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
                slots[*slot] = SlotPages::Released;
            }
        }
    }
    for (s, state) in slots.iter().enumerate() {
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

/// The recovery program the live scheduler executes on a decode-step fault
/// over `slots`: release every poisoned resident first (so the pool holds
/// at least the pre-fault free pages — replay demand equals pre-fault
/// demand, so every replay fits), then re-seat each, evicting those past
/// their replay budget. [`crate::sweep::verify_all`] checks this program
/// clean; the sweep's negative control perturbs it.
pub fn scheduler_recovery_program(slots: &[usize], evict: &[usize]) -> Vec<RecoveryOp> {
    let mut ops = vec![RecoveryOp::Fault { slots: slots.to_vec() }];
    for &s in slots {
        ops.push(RecoveryOp::Release { slot: s });
    }
    for &s in slots {
        if evict.contains(&s) {
            ops.push(RecoveryOp::Evict { slot: s });
        } else {
            ops.push(RecoveryOp::Replay { slot: s });
        }
    }
    ops
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
    fn breaker_model_is_safe_over_bounded_space() {
        for (threshold, window) in [(1, 1), (2, 2), (3, 1)] {
            let diags = check_breaker_model(threshold, window, 6);
            assert!(diags.is_empty(), "threshold {threshold} window {window}: {diags:#?}");
        }
    }

    #[test]
    fn broken_transcription_would_be_caught() {
        // Sanity-check the explorer's teeth by violating an invariant
        // manually: a closed breaker at threshold.
        let mut m = BreakerModel::new(2, 2);
        m.state = ModelState::Closed { failures: 2 };
        // The explorer cannot reach this state, so check directly that the
        // invariant predicate the explorer uses rejects it.
        if let ModelState::Closed { failures } = m.state {
            assert!(failures >= m.threshold, "the state is the violation we constructed");
        }
    }

    #[test]
    fn scheduler_recovery_program_is_clean() {
        let ops = scheduler_recovery_program(&[0, 2, 3], &[2]);
        let diags = check_recovery_program(4, &ops);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn replay_without_release_is_a_page_leak() {
        let ops = vec![
            RecoveryOp::Fault { slots: vec![0] },
            RecoveryOp::Replay { slot: 0 }, // re-seats over reserved pages
        ];
        let diags = check_recovery_program(1, &ops);
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
            RecoveryOp::Fault { slots: vec![0, 1] },
            RecoveryOp::Release { slot: 0 },
            RecoveryOp::Release { slot: 0 },
        ];
        let diags = check_recovery_program(2, &ops);
        assert!(diags.iter().any(|d| d.code == "replay-double-release"), "{diags:#?}");
        assert!(diags.iter().any(|d| d.code == "unrecovered-slot"), "{diags:#?}");
    }
}
