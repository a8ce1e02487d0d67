//! Deterministic fault injection and typed collective failures.
//!
//! The paper's scale claim — dense inference on up to 256 GPUs — puts every
//! collective on the critical path of *fault* behaviour as much as of
//! latency: at that rank count, stalled peers, crashed workers, and
//! corrupted transfers are routine, and a collective backend that spins
//! forever on a dead rendezvous turns one lost rank into a hung cluster.
//! This module supplies the two halves the executed engines need:
//!
//! * [`CollectiveError`] — the typed failure every hardened collective
//!   returns instead of hanging or panicking: which rank failed, what class
//!   of failure, and at which collective epoch (the per-rank count of
//!   barrier crossings, which doubles as the heartbeat the detector reads).
//! * [`Script`] / [`Injector`] — a deterministic, seed-driven fault script
//!   and its compiled form, one generic pair for every fault family
//!   ([`FaultPlan`] for collectives, [`EngineFaultPlan`] for the batch
//!   engines, [`IoFaultPlan`] for the weight tier). A script is a list of
//!   specs; the injector compiled from it fires each spec **once** (so a
//!   recovered group does not re-hit the same fault on replay) and costs a
//!   single `Option` check per hook when no script is installed — the fault
//!   path is zero-work when injection is disabled, which `bench_robustness`
//!   measures. Seeded scripts draw from one [`splitmix64`] stream.
//!
//! Faults model the four failure classes of the issue: rank stall/slowdown
//! (transient — the rank arrives late), dropped barrier arrival (the rank
//! silently never arrives, as a crashed process would), worker panic at a
//! chosen layer/token, and a corrupted reduce-scatter chunk (caught by the
//! optional per-chunk checksum in `shmem`).

use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Classes of collective failure a hardened collective can report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum CollectiveErrorKind {
    /// The rendezvous did not complete within the timeout. `stalled` lists
    /// the peers whose arrival heartbeat lags the reporter's epoch — the
    /// detector's best guess at who is dead or wedged.
    Timeout { stalled: Vec<usize> },
    /// A peer died (panicked or timed out) and poisoned the group.
    Poisoned,
    /// The per-chunk checksum caught a corrupted reduce-scatter chunk owned
    /// by `owner`.
    Corrupt { owner: usize },
    /// The rank was scripted to drop its barrier arrival (a simulated crash
    /// observed from the inside; peers observe a `Timeout`).
    InjectedExit,
}

/// Typed failure of one collective call: the reporting rank, the failure
/// class, and the rank's collective epoch (number of barrier crossings
/// attempted, i.e. its heartbeat value) at the point of failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CollectiveError {
    pub rank: usize,
    pub kind: CollectiveErrorKind,
    pub epoch: u64,
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            CollectiveErrorKind::Timeout { stalled } => write!(
                f,
                "rank {} timed out at epoch {} (stalled peers: {:?})",
                self.rank, self.epoch, stalled
            ),
            CollectiveErrorKind::Poisoned => {
                write!(f, "rank {} found the group poisoned at epoch {}", self.rank, self.epoch)
            }
            CollectiveErrorKind::Corrupt { owner } => write!(
                f,
                "rank {} detected a corrupted chunk from rank {} at epoch {}",
                self.rank, owner, self.epoch
            ),
            CollectiveErrorKind::InjectedExit => {
                write!(f, "rank {} dropped its barrier arrival at epoch {}", self.rank, self.epoch)
            }
        }
    }
}

impl std::error::Error for CollectiveError {}

/// What a scripted fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultKind {
    /// Sleep `millis` before proceeding (a transient stall; with `millis`
    /// beyond the group timeout this becomes a detected hang).
    Stall { millis: u64 },
    /// Never arrive: the faulted rank returns [`CollectiveErrorKind::InjectedExit`]
    /// and its peers detect the loss via timeout — the "crashed process"
    /// model.
    Exit,
    /// Panic at the injection point (the "kernel assert" model; the worker's
    /// panic guard poisons the group).
    Panic,
    /// Flip the bits of one element of the rank's owned reduce-scatter
    /// chunk after reducing it (only meaningful at a [`FaultSite::Reduce`]).
    Corrupt,
}

/// Where in the execution a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultSite {
    /// At the rank's `epoch`-th barrier crossing (0-based).
    Barrier { epoch: u64 },
    /// After the rank reduces its owned chunk inside the all-reduce whose
    /// first barrier crossing is the rank's `epoch`-th.
    Reduce { epoch: u64 },
    /// In the forward pass, entering `layer` while computing the token at
    /// sequence position `token` (the executed TP engine's hook).
    Layer { token: usize, layer: usize },
}

/// One scripted fault: `rank` hits `kind` at `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FaultSpec {
    pub rank: usize,
    pub site: FaultSite,
    pub kind: FaultKind,
}

/// One step of splitmix64, the reference mixer — deterministic and
/// dependency-free. Every seeded fault script draws from it (the chaos
/// harnesses sweep seeds, not RNG state), and so may a harness's own churn.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic fault script of one family's specs. Construct
/// explicitly ([`Script::new`]) or seed-driven (each family's `random`,
/// e.g. [`FaultPlan::random`]); compile with [`Script::injector`].
#[derive(Debug, Clone)]
pub struct Script<S> {
    pub specs: Vec<S>,
}

impl<S> Default for Script<S> {
    fn default() -> Self {
        Script { specs: Vec::new() }
    }
}

impl<S: Copy> Script<S> {
    pub fn new(specs: Vec<S>) -> Self {
        Script { specs }
    }

    /// Compile the script into a fire-once injector.
    pub fn injector(&self) -> Injector<S> {
        Injector { specs: self.specs.iter().map(|&s| (s, AtomicBool::new(false))).collect() }
    }
}

/// A compiled [`Script`]: each spec fires at most once across the
/// injector's lifetime, so a supervisor that rebuilds the group, or a
/// scheduler that replays, does not re-trip the same scripted fault (unless
/// a *different* spec targets a later call index). Shared behind an `Arc`
/// by whoever hosts the hooks; a `None` injector costs nothing.
#[derive(Debug)]
pub struct Injector<S> {
    specs: Vec<(S, AtomicBool)>,
}

impl<S> Default for Injector<S> {
    fn default() -> Self {
        Injector { specs: Vec::new() }
    }
}

impl<S: Copy> Injector<S> {
    /// Number of specs that have not fired yet.
    pub fn pending(&self) -> usize {
        self.specs.iter().filter(|(_, fired)| !fired.load(Ordering::Relaxed)).count()
    }

    /// The first unfired spec `hit` accepts, consumed.
    fn take(&self, hit: impl Fn(&S) -> bool) -> Option<S> {
        self.specs
            .iter()
            .find(|(spec, fired)| hit(spec) && !fired.swap(true, Ordering::Relaxed))
            .map(|(spec, _)| *spec)
    }
}

/// The collective fault script ([`FaultSpec`]s: rank × site × kind).
pub type FaultPlan = Script<FaultSpec>;
/// A compiled [`FaultPlan`], shared by every rank of (possibly successive)
/// communicators.
pub type FaultInjector = Injector<FaultSpec>;

impl FaultPlan {
    /// A seed-driven plan of `n` faults over `world` ranks: kinds and sites
    /// are drawn from one [`splitmix64`] stream, so the same seed always
    /// yields the same script. Epochs are drawn from `0..max_epoch`, layer
    /// sites from `layers`/`tokens`.
    pub fn random(seed: u64, n: usize, world: usize, max_epoch: u64, layers: usize, tokens: usize) -> Self {
        assert!(world > 0 && max_epoch > 0 && layers > 0 && tokens > 0);
        let mut s = seed;
        let mut next = || splitmix64(&mut s);
        let specs = (0..n)
            .map(|_| {
                let rank = (next() % world as u64) as usize;
                let kind = match next() % 4 {
                    0 => FaultKind::Stall { millis: 1 + next() % 20 },
                    1 => FaultKind::Exit,
                    2 => FaultKind::Panic,
                    _ => FaultKind::Corrupt,
                };
                let site = match (kind, next() % 3) {
                    (FaultKind::Corrupt, _) => FaultSite::Reduce { epoch: next() % max_epoch },
                    (_, 0) => FaultSite::Barrier { epoch: next() % max_epoch },
                    (_, 1) => FaultSite::Reduce { epoch: next() % max_epoch },
                    _ => FaultSite::Layer {
                        token: (next() % tokens as u64) as usize,
                        layer: (next() % layers as u64) as usize,
                    },
                };
                FaultSpec { rank, site, kind }
            })
            .collect();
        Script { specs }
    }
}

impl FaultInjector {
    /// The scripted fault for `rank`'s `epoch`-th barrier crossing, if any
    /// (consumes the spec).
    pub fn at_barrier(&self, rank: usize, epoch: u64) -> Option<FaultKind> {
        self.take(|s| {
            s.rank == rank && matches!(s.site, FaultSite::Barrier { epoch: e } if e == epoch)
        })
        .map(|s| s.kind)
    }

    /// The scripted fault for the reduce step of the all-reduce whose first
    /// barrier was `rank`'s `epoch`-th crossing, if any.
    pub fn at_reduce(&self, rank: usize, epoch: u64) -> Option<FaultKind> {
        self.take(|s| {
            s.rank == rank && matches!(s.site, FaultSite::Reduce { epoch: e } if e == epoch)
        })
        .map(|s| s.kind)
    }

    /// The scripted fault for `rank` entering `layer` while the step covers
    /// sequence positions `[pos_lo, pos_hi)`, if any.
    pub fn at_layer(&self, rank: usize, pos_lo: usize, pos_hi: usize, layer: usize) -> Option<FaultKind> {
        self.take(|s| {
            s.rank == rank
                && matches!(s.site, FaultSite::Layer { token, layer: l }
                    if l == layer && token >= pos_lo && token < pos_hi)
        })
        .map(|s| s.kind)
    }
}

/// Apply the delay of a [`FaultKind::Stall`]. Separated out so callers at
/// every site share one sleep implementation.
pub fn apply_stall(millis: u64) {
    std::thread::sleep(Duration::from_millis(millis));
}

// ---------------------------------------------------------------------------
// Engine-level faults: the paged/continuous path's injection surface.
// ---------------------------------------------------------------------------

/// What a scripted engine fault does when it fires at a batch-engine call.
/// These model the paged fast path's failure classes: a worker panic inside
/// a step, a step stalling past the scheduler's progress deadline, silent
/// page-content corruption (detected because the step's tokens are
/// discarded and the sequence replayed), and a transient page-allocator
/// storm that reports `PagesExhausted` even though pages are free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EngineFaultKind {
    /// Panic at the call boundary, *before* the inner engine runs — the
    /// "kernel assert" model. The injection point guarantees the inner
    /// engine's state is untouched, so `catch_unwind` recovery is sound.
    Panic,
    /// Sleep `millis` before running the call (the call then succeeds
    /// late; a scheduler with a per-step progress deadline detects it).
    Stall { millis: u64 },
    /// Run the call, then report its output as corrupted: the inner engine
    /// advanced (its KV state is poisoned from the scheduler's view) and
    /// the emitted tokens must be discarded.
    Corrupt,
    /// Report `PagesExhausted` for this call and the next `calls - 1`
    /// calls without touching the engine — a transient allocator storm.
    /// `calls` counts the firing call itself, so `0` is clamped to a
    /// one-call storm.
    Exhaust { calls: u32 },
}

/// Where in the batch-engine call stream a fault fires. Calls are indexed
/// per kind from 0 in the order the wrapper sees them; replayed calls count
/// as new calls, so a recovery path can be re-faulted by a later spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EngineFaultSite {
    /// The wrapper's `call`-th prefill (0-based).
    Prefill { call: u64 },
    /// The wrapper's `call`-th decode step (0-based).
    Decode { call: u64 },
}

/// One scripted engine fault: `kind` fires at `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct EngineFaultSpec {
    pub site: EngineFaultSite,
    pub kind: EngineFaultKind,
}

/// The engine-fault script, the paged-path analog of [`FaultPlan`].
pub type EngineFaultPlan = Script<EngineFaultSpec>;
/// A compiled [`EngineFaultPlan`], shared between the serving config and
/// the engine wrapper.
pub type EngineFaultInjector = Injector<EngineFaultSpec>;

impl EngineFaultPlan {
    /// A seed-driven plan of `n` faults over the first `max_call` calls of
    /// each kind, drawn from one [`splitmix64`] stream like
    /// [`FaultPlan::random`]. `stall_millis` bounds injected stalls (keep it
    /// above the scheduler's step deadline to make stalls detectable, below
    /// the test's patience to keep runs fast).
    pub fn random(seed: u64, n: usize, max_call: u64, stall_millis: u64) -> Self {
        assert!(max_call > 0 && stall_millis > 0);
        let mut s = seed;
        let mut next = || splitmix64(&mut s);
        let specs = (0..n)
            .map(|_| {
                let kind = match next() % 4 {
                    0 => EngineFaultKind::Panic,
                    1 => EngineFaultKind::Stall { millis: stall_millis / 2 + next() % (stall_millis / 2 + 1) },
                    2 => EngineFaultKind::Corrupt,
                    _ => EngineFaultKind::Exhaust { calls: 1 + (next() % 3) as u32 },
                };
                let site = if next() % 3 == 0 {
                    EngineFaultSite::Prefill { call: next() % max_call }
                } else {
                    EngineFaultSite::Decode { call: next() % max_call }
                };
                EngineFaultSpec { site, kind }
            })
            .collect();
        Script { specs }
    }
}

impl EngineFaultInjector {
    /// The scripted fault for the `call`-th prefill, if any (consumes it).
    pub fn at_prefill(&self, call: u64) -> Option<EngineFaultKind> {
        self.take(|s| matches!(s.site, EngineFaultSite::Prefill { call: c } if c == call))
            .map(|s| s.kind)
    }

    /// The scripted fault for the `call`-th decode step, if any.
    pub fn at_decode(&self, call: u64) -> Option<EngineFaultKind> {
        self.take(|s| matches!(s.site, EngineFaultSite::Decode { call: c } if c == call))
            .map(|s| s.kind)
    }
}

// ---------------------------------------------------------------------------
// I/O-tier faults: the weight-offload path's injection surface.
// ---------------------------------------------------------------------------

/// What a scripted I/O fault does when it fires at a tier read or open.
/// These model the failure classes of a weight tier (NVMe/DRAM-backed
/// weight file): a read stalling on a saturated device, a read returning
/// fewer bytes than asked, silent bit-rot in a panel payload (caught by the
/// per-panel checksum), and the tier handle failing outright. Reusable by
/// any tier reader — the offload store is the first consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum IoFaultKind {
    /// Sleep `millis` before the read completes (it then succeeds late; a
    /// prefetcher with a clock-measured fetch deadline detects it).
    SlowRead { millis: u64 },
    /// The read returns fewer bytes than requested. The reader must detect
    /// the short count and re-read (bounded) rather than consume garbage.
    ShortRead,
    /// The read completes full-length but a bit has flipped in the panel
    /// payload; only the checksum can tell. A bounded re-read recovers
    /// (the fault is one-shot) — persistent corruption fails typed.
    CorruptPanel,
    /// The open (or the tier handle behind a read) fails outright. At an
    /// [`IoFaultSite::Open`] this makes `open` return a typed error; at a
    /// [`IoFaultSite::Read`] it models the handle dying under the reader —
    /// a prefetch worker hitting it must die cleanly, not wedge.
    FailOpen,
}

/// Where in a tier's I/O call stream a fault fires. Calls are indexed per
/// site kind from 0 in the order the tier reader issues them; re-reads
/// count as new calls, so a retry path can be re-faulted by a later spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum IoFaultSite {
    /// The reader's `call`-th open (0-based).
    Open { call: u64 },
    /// The reader's `call`-th panel read (0-based).
    Read { call: u64 },
}

/// One scripted I/O fault: `kind` fires at `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct IoFaultSpec {
    pub site: IoFaultSite,
    pub kind: IoFaultKind,
}

/// The I/O-fault script, the tier-reader analog of [`EngineFaultPlan`]. A
/// fire-once spec lets a bounded re-read recover from a one-shot
/// corruption; persistent corruption needs a script that targets the
/// retry's call index too.
pub type IoFaultPlan = Script<IoFaultSpec>;
/// A compiled [`IoFaultPlan`], shared between the offload config and the
/// tier reader.
pub type IoFaultInjector = Injector<IoFaultSpec>;

impl IoFaultPlan {
    /// A seed-driven plan of `n` faults over the first `max_call` reads,
    /// drawn from one [`splitmix64`] stream like [`EngineFaultPlan::random`].
    /// `stall_millis` bounds injected read stalls. `FailOpen` is only drawn
    /// at read sites here (a storm that kills the open would end the run
    /// before it starts); script open-faults explicitly when testing the
    /// open path.
    pub fn random(seed: u64, n: usize, max_call: u64, stall_millis: u64) -> Self {
        assert!(max_call > 0 && stall_millis > 0);
        let mut s = seed;
        let mut next = || splitmix64(&mut s);
        let specs = (0..n)
            .map(|_| {
                let kind = match next() % 4 {
                    0 => IoFaultKind::SlowRead {
                        millis: stall_millis / 2 + next() % (stall_millis / 2 + 1),
                    },
                    1 => IoFaultKind::ShortRead,
                    2 => IoFaultKind::CorruptPanel,
                    _ => IoFaultKind::FailOpen,
                };
                let site = IoFaultSite::Read { call: next() % max_call };
                IoFaultSpec { site, kind }
            })
            .collect();
        Script { specs }
    }
}

impl IoFaultInjector {
    /// The scripted fault for the `call`-th open, if any (consumes it).
    pub fn at_open(&self, call: u64) -> Option<IoFaultKind> {
        self.take(|s| matches!(s.site, IoFaultSite::Open { call: c } if c == call))
            .map(|s| s.kind)
    }

    /// The scripted fault for the `call`-th panel read, if any.
    pub fn at_read(&self, call: u64) -> Option<IoFaultKind> {
        self.take(|s| matches!(s.site, IoFaultSite::Read { call: c } if c == call))
            .map(|s| s.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic() {
        let a = FaultPlan::random(42, 8, 4, 16, 3, 10);
        let b = FaultPlan::random(42, 8, 4, 16, 3, 10);
        assert_eq!(a.specs, b.specs);
        let c = FaultPlan::random(43, 8, 4, 16, 3, 10);
        assert_ne!(a.specs, c.specs, "different seeds must give different scripts");
        for s in &a.specs {
            assert!(s.rank < 4);
            if let FaultSite::Layer { token, layer } = s.site {
                assert!(token < 10 && layer < 3);
            }
        }
    }

    #[test]
    fn injector_fires_each_spec_once() {
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 3 },
            kind: FaultKind::Exit,
        }]);
        let inj = plan.injector();
        assert_eq!(inj.at_barrier(0, 3), None, "wrong rank must not fire");
        assert_eq!(inj.at_barrier(1, 2), None, "wrong epoch must not fire");
        assert_eq!(inj.pending(), 1);
        assert_eq!(inj.at_barrier(1, 3), Some(FaultKind::Exit));
        assert_eq!(inj.at_barrier(1, 3), None, "specs are one-shot");
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn layer_site_matches_position_range() {
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 0,
            site: FaultSite::Layer { token: 5, layer: 1 },
            kind: FaultKind::Panic,
        }]);
        let inj = plan.injector();
        assert_eq!(inj.at_layer(0, 0, 4, 1), None, "position 5 not in [0,4)");
        assert_eq!(inj.at_layer(0, 4, 8, 0), None, "wrong layer");
        assert_eq!(inj.at_layer(0, 4, 8, 1), Some(FaultKind::Panic));
    }

    #[test]
    fn error_display_names_rank_kind_epoch() {
        let e = CollectiveError {
            rank: 2,
            kind: CollectiveErrorKind::Timeout { stalled: vec![1] },
            epoch: 7,
        };
        let s = e.to_string();
        assert!(s.contains("rank 2") && s.contains("epoch 7") && s.contains("[1]"), "{s}");
    }

    #[test]
    fn engine_plans_are_seed_deterministic() {
        let a = EngineFaultPlan::random(42, 8, 32, 80);
        let b = EngineFaultPlan::random(42, 8, 32, 80);
        assert_eq!(a.specs, b.specs);
        let c = EngineFaultPlan::random(43, 8, 32, 80);
        assert_ne!(a.specs, c.specs, "different seeds must give different scripts");
        for s in &a.specs {
            match s.site {
                EngineFaultSite::Prefill { call } | EngineFaultSite::Decode { call } => {
                    assert!(call < 32)
                }
            }
            if let EngineFaultKind::Stall { millis } = s.kind {
                assert!((40..=80).contains(&millis), "stall {millis} out of band");
            }
        }
    }

    #[test]
    fn io_plans_are_seed_deterministic() {
        let a = IoFaultPlan::random(42, 8, 64, 40);
        let b = IoFaultPlan::random(42, 8, 64, 40);
        assert_eq!(a.specs, b.specs);
        let c = IoFaultPlan::random(43, 8, 64, 40);
        assert_ne!(a.specs, c.specs, "different seeds must give different scripts");
        for s in &a.specs {
            match s.site {
                IoFaultSite::Read { call } => assert!(call < 64),
                IoFaultSite::Open { .. } => panic!("random plans target reads only"),
            }
            if let IoFaultKind::SlowRead { millis } = s.kind {
                assert!((20..=40).contains(&millis), "stall {millis} out of band");
            }
        }
    }

    /// The chaos sweeps' seeds were chosen against these exact scripts: a
    /// change to the draw order of any `random` would silently re-aim them.
    #[test]
    fn seed_42_collective_script_is_pinned() {
        use FaultKind::*;
        use FaultSite::*;
        let spec = |rank, site, kind| FaultSpec { rank, site, kind };
        assert_eq!(
            FaultPlan::random(42, 8, 4, 16, 3, 10).specs,
            vec![
                spec(1, Reduce { epoch: 4 }, Corrupt),
                spec(2, Reduce { epoch: 4 }, Panic),
                spec(1, Layer { token: 6, layer: 2 }, Panic),
                spec(3, Layer { token: 1, layer: 0 }, Stall { millis: 11 }),
                spec(0, Barrier { epoch: 1 }, Stall { millis: 2 }),
                spec(0, Reduce { epoch: 15 }, Exit),
                spec(3, Reduce { epoch: 14 }, Corrupt),
                spec(1, Reduce { epoch: 3 }, Panic),
            ]
        );
    }

    #[test]
    fn seed_42_engine_script_is_pinned() {
        use EngineFaultKind::*;
        use EngineFaultSite::*;
        let spec = |site, kind| EngineFaultSpec { site, kind };
        assert_eq!(
            EngineFaultPlan::random(42, 8, 32, 80).specs,
            vec![
                spec(Prefill { call: 20 }, Stall { millis: 61 }),
                spec(Prefill { call: 29 }, Corrupt),
                spec(Decode { call: 14 }, Panic),
                spec(Decode { call: 23 }, Exhaust { calls: 2 }),
                spec(Decode { call: 21 }, Panic),
                spec(Prefill { call: 8 }, Stall { millis: 68 }),
                spec(Decode { call: 16 }, Stall { millis: 72 }),
                spec(Decode { call: 7 }, Stall { millis: 74 }),
            ]
        );
    }

    #[test]
    fn seed_42_io_script_is_pinned() {
        use IoFaultKind::*;
        let read = |call, kind| IoFaultSpec { site: IoFaultSite::Read { call }, kind };
        assert_eq!(
            IoFaultPlan::random(42, 8, 64, 40).specs,
            vec![
                read(3, ShortRead),
                read(20, CorruptPanel),
                read(6, CorruptPanel),
                read(36, ShortRead),
                read(46, ShortRead),
                read(62, FailOpen),
                read(55, CorruptPanel),
                read(53, SlowRead { millis: 25 }),
            ]
        );
    }

    #[test]
    fn io_injector_fires_each_spec_once() {
        let plan = IoFaultPlan::new(vec![
            IoFaultSpec { site: IoFaultSite::Read { call: 3 }, kind: IoFaultKind::CorruptPanel },
            IoFaultSpec { site: IoFaultSite::Open { call: 0 }, kind: IoFaultKind::FailOpen },
        ]);
        let inj = plan.injector();
        assert_eq!(inj.at_read(0), None, "wrong call index must not fire");
        assert_eq!(inj.at_read(0), None);
        assert_eq!(inj.pending(), 2);
        assert_eq!(inj.at_read(3), Some(IoFaultKind::CorruptPanel));
        assert_eq!(inj.at_read(3), None, "specs are one-shot");
        assert_eq!(inj.at_open(1), None, "open sites are indexed separately");
        assert_eq!(inj.at_open(0), Some(IoFaultKind::FailOpen));
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn engine_injector_fires_each_spec_once() {
        let plan = EngineFaultPlan::new(vec![
            EngineFaultSpec {
                site: EngineFaultSite::Decode { call: 2 },
                kind: EngineFaultKind::Panic,
            },
            EngineFaultSpec {
                site: EngineFaultSite::Prefill { call: 0 },
                kind: EngineFaultKind::Exhaust { calls: 2 },
            },
        ]);
        let inj = plan.injector();
        assert_eq!(inj.at_decode(0), None, "wrong call index must not fire");
        assert_eq!(inj.at_prefill(2), None, "site kinds are distinct");
        assert_eq!(inj.pending(), 2);
        assert_eq!(inj.at_decode(2), Some(EngineFaultKind::Panic));
        assert_eq!(inj.at_decode(2), None, "specs are one-shot");
        assert_eq!(inj.at_prefill(0), Some(EngineFaultKind::Exhaust { calls: 2 }));
        assert_eq!(inj.pending(), 0);
    }
}
