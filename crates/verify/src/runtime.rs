//! Runtime protocol verification: the offload tier's prefetch protocol,
//! checked as a program on what a real store recorded.
//!
//! * [`check_prefetch_program`] — the streaming weight store's
//!   fetch/acquire/evict protocol, checked on what a real store recorded
//!   while the paged engine decoded over it ([`record_offload`]).
//!
//! The serving scheduler's recovery protocol (release a faulted slot
//! before it is replayed) is checked where it runs: the paged engine
//! asserts it on every seat, and `dsi-serve`'s chaos sweeps fail on any
//! panic no fault plan scripted. The serving circuit breaker is explored
//! exhaustively next to its code in `dsi-serve` (this crate cannot depend
//! on `dsi-serve`).

use std::sync::atomic::{AtomicUsize, Ordering};

use dsi_model::paged::Engine;
use dsi_model::reference::GptModel;
use dsi_model::zoo;
use dsi_zero::offload::{OffloadConfig, OffloadStore, StoreEvent};

use crate::{Diagnostic, Pass};

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
}
