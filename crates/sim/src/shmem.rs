//! Shared-memory rendezvous for threads that work in lock-step on one host:
//! the executed counterpart of [`crate::collectives`]'s cost models.
//!
//! On a multi-core CPU host the intra-node fabric is the cache-coherent
//! memory system, so the members of a split pass (`dsi_model::team`) need
//! no data movement to combine their work — each writes its own columns of
//! one scratch — only a fence between regions. This module provides it:
//!
//! * [`SenseBarrier`] — a sense-reversing centralized barrier: one atomic
//!   counter plus one atomic sense flag, reusable every round with no
//!   per-round state reset (each participant keeps a thread-local sense bit
//!   that flips per crossing). Waiters spin briefly then yield, so the
//!   barrier stays correct (if slow) even when parties share one core.
//! * [`Doorbell`] — where threads that work in lock-step with a publisher
//!   (a split pass's helper members) park between commands.
//! * [`CommConfig`] — a group's join deadline and optional fault script.
//!
//! ## Fault tolerance
//!
//! Every rendezvous is **bounded**: [`SenseBarrier::try_wait`] spins
//! briefly, then yields with a deadline, and returns a typed
//! [`CollectiveErrorKind`] instead of hanging when a peer never arrives
//! ([`CollectiveErrorKind::Timeout`], naming the stalled peers via the
//! barrier's per-party arrival heartbeats) or when the group is poisoned by
//! a dead peer ([`CollectiveErrorKind::Poisoned`]). A timed-out rendezvous
//! poisons the barrier, so a straggler cannot complete it late and run
//! ahead alone.
//!
//! A [`CommConfig`] can also carry a [`FaultInjector`]: a deterministic,
//! fire-once fault script (stalls, dropped arrivals, panics) the members
//! consult at their joins and layer sites — one `Option` check per hook
//! when disabled, so the fault path costs nothing in production.

use crate::fault::{CollectiveErrorKind, FaultInjector};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How many busy spins to burn before yielding the core. Small: on a
/// saturated or single-core host the barrier degrades to cooperative
/// scheduling instead of burning a quantum per crossing.
const SPINS_BEFORE_YIELD: u32 = 64;

/// How many yields between deadline checks. The deadline is armed at the
/// first yield, never on the spin-release fast path. Few: on a contended
/// core one yield can cost a whole scheduler slice, so a sparse probe would
/// let a stall many times the timeout end before the timeout is noticed.
const YIELDS_PER_CLOCK_CHECK: u32 = 8;

/// A group's rendezvous configuration: the join deadline and an optional
/// fault script.
#[derive(Debug, Clone)]
pub struct CommConfig {
    /// Bound on every barrier rendezvous. A peer that has not arrived by the
    /// deadline produces [`CollectiveErrorKind::Timeout`] instead of a hang.
    pub timeout: Duration,
    /// Deterministic fault script consulted at each hook; `None` disables
    /// injection at the cost of one pointer check per hook.
    pub injector: Option<Arc<FaultInjector>>,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig { timeout: Duration::from_secs(5), injector: None }
    }
}

/// Sense-reversing centralized barrier for a fixed party count.
///
/// Every participant holds its own sense bit and flips it each crossing; the last arriver resets the counter and publishes the new
/// global sense, releasing the spinners. Unlike `std::sync::Barrier` there
/// is no generation bookkeeping or mutex — two atomics, both on one cache
/// line, reused forever.
///
/// A participant that panics would strand the others mid-spin, so the
/// barrier carries a poison flag: [`SenseBarrier::poison`] fails every
/// current and future waiter with a typed [`CollectiveErrorKind::Poisoned`]
/// from [`SenseBarrier::try_wait`]. A waiter that times out poisons the
/// barrier itself on the way out, so one departed party fails the whole
/// group instead of leaving a half-counted crossing a straggler could
/// complete alone. Each party also publishes an arrival heartbeat (its
/// crossing count), which [`SenseBarrier::try_wait`] reads on timeout to
/// name the stalled peers.
#[derive(Debug)]
pub struct SenseBarrier {
    parties: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    poisoned: AtomicBool,
    /// Per-party arrival heartbeat: the number of crossings the party has
    /// *arrived* at. Written at each arrival, read by peers on timeout.
    arrivals: Vec<AtomicU64>,
}

impl SenseBarrier {
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "barrier needs at least one party");
        SenseBarrier {
            parties,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            arrivals: (0..parties).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Crossings `party` has arrived at so far: its heartbeat, which is
    /// also the count of joins it made on this barrier.
    pub fn arrivals(&self, party: usize) -> u64 {
        self.arrivals[party].load(Ordering::Relaxed)
    }

    /// Cross the barrier with a bounded wait. `local_sense` is the caller's
    /// thread-local sense bit (start every participant at `false` and pass
    /// the same variable to every crossing), `party` its party index (for
    /// the arrival heartbeat), `epoch` its count of *previous* crossings.
    /// Fails typed instead of spinning forever:
    /// [`CollectiveErrorKind::Poisoned`] if a peer died,
    /// [`CollectiveErrorKind::Timeout`] (naming the peers whose heartbeat
    /// still lags) if the rendezvous misses the deadline.
    ///
    /// A timeout **poisons** the barrier before the waiter departs: a
    /// timed-out rendezvous can never validly complete, so a straggler that
    /// finally arrives must observe the failure (and fail typed itself)
    /// rather than complete the crossing with already-departed peers and
    /// proceed alone.
    pub fn try_wait(
        &self,
        party: usize,
        epoch: u64,
        local_sense: &mut bool,
        timeout: Duration,
    ) -> Result<(), CollectiveErrorKind> {
        let target = !*local_sense;
        *local_sense = target;
        self.arrivals[party].store(epoch + 1, Ordering::Relaxed);
        // AcqRel: the arrival both publishes this thread's writes (release)
        // and, for the last arriver, observes every peer's writes (acquire)
        // before it releases them all via the sense store.
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Never release peers into a poisoned crossing: if any party
            // timed out (or died) here, it has already departed — a late
            // completion would let the survivors run ahead without it.
            if self.poisoned.load(Ordering::Relaxed) {
                return Err(CollectiveErrorKind::Poisoned);
            }
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(target, Ordering::Release);
            return Ok(());
        }
        let mut spins = 0u32;
        let mut yields = 0u32;
        let mut deadline: Option<Instant> = None;
        while self.sense.load(Ordering::Acquire) != target {
            if self.poisoned.load(Ordering::Relaxed) {
                return Err(CollectiveErrorKind::Poisoned);
            }
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            if yields.is_multiple_of(YIELDS_PER_CLOCK_CHECK) {
                let now = Instant::now();
                match deadline {
                    // First yield: arm the deadline.
                    None => deadline = now.checked_add(timeout),
                    Some(d) if now >= d => {
                        // Poison *before* departing: the count increment
                        // above stays behind, so a straggler arriving later
                        // could otherwise complete the rendezvous without us
                        // and run ahead alone (the poison check on the
                        // releaser path turns that into a typed failure
                        // instead).
                        self.poison();
                        let stalled = self
                            .arrivals
                            .iter()
                            .enumerate()
                            .filter(|&(p, a)| p != party && a.load(Ordering::Relaxed) <= epoch)
                            .map(|(p, _)| p)
                            .collect();
                        return Err(CollectiveErrorKind::Timeout { stalled });
                    }
                    Some(_) => {}
                }
            }
            std::thread::yield_now();
            yields += 1;
        }
        Ok(())
    }

    /// Mark the group dead: every rank currently or subsequently waiting
    /// fails typed (via [`try_wait`](Self::try_wait)) instead of hanging.
    /// Called from rank panic
    /// guards so one failing rank fails the whole group loudly.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }

    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }
}

/// How often a parked [`Doorbell`] waiter looks at its give-up condition.
const PARKED_POLL: Duration = Duration::from_millis(10);

/// A condvar doorbell over a count of published commands: threads that
/// work in lock-step with a publisher park here between commands instead
/// of spinning, so an idle group costs no core and never times out. The
/// paged engine's pass members wait here for each split pass.
#[derive(Debug, Default)]
pub struct Doorbell {
    published: AtomicUsize,
    bell: Mutex<()>,
    rung: Condvar,
}

impl Doorbell {
    fn bell(&self) -> MutexGuard<'_, ()> {
        self.bell.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Commands published so far.
    pub fn published(&self) -> usize {
        self.published.load(Ordering::Acquire)
    }

    /// Announce that `published` commands are out.
    pub fn ring(&self, published: usize) {
        self.published.store(published, Ordering::Release);
        // Taking the lock orders the store before the check of any waiter
        // about to park, so no wake-up is lost.
        drop(self.bell());
        self.rung.notify_all();
    }

    /// Return once more than `seen` commands are published, or `give_up()`
    /// holds (checked on every wake-up, and every 10 ms while parked).
    pub fn wait(&self, seen: usize, give_up: impl Fn() -> bool) {
        let out = || self.published() > seen;
        let mut bell = self.bell();
        while !out() && !give_up() {
            bell = self.rung.wait_timeout(bell, PARKED_POLL).unwrap_or_else(PoisonError::into_inner).0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cross `b` once as `party` at `epoch`, with a fresh sense bit.
    fn cross(b: &SenseBarrier, party: usize, epoch: u64, timeout: Duration) -> Result<(), CollectiveErrorKind> {
        let mut sense = epoch % 2 == 1;
        b.try_wait(party, epoch, &mut sense, timeout)
    }

    #[test]
    fn poisoned_barrier_is_a_typed_error_not_a_panic() {
        let b = Arc::new(SenseBarrier::new(2));
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || cross(&b, 1, 0, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(10));
        b.poison();
        assert_eq!(waiter.join().expect("no panic"), Err(CollectiveErrorKind::Poisoned));
    }

    #[test]
    fn barrier_timeout_names_the_stalled_peer() {
        // Party 0 never arrives: parties 1 and 2 must fail typed within the
        // bound. The first to time out poisons the barrier on the way out,
        // so each waiter reports either a Timeout naming party 0 (and only
        // party 0) or the propagated Poisoned — and at least one observes
        // the Timeout itself.
        let b = Arc::new(SenseBarrier::new(3));
        let threads: Vec<_> = (1..3)
            .map(|party| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let start = Instant::now();
                    (cross(&b, party, 0, Duration::from_millis(100)), start.elapsed())
                })
            })
            .collect();
        let mut timeouts = 0;
        for t in threads {
            let (got, waited) = t.join().unwrap();
            match got {
                Err(CollectiveErrorKind::Timeout { stalled }) => {
                    assert_eq!(stalled, [0]);
                    timeouts += 1;
                }
                Err(CollectiveErrorKind::Poisoned) => {}
                other => panic!("expected Timeout or Poisoned, got {other:?}"),
            }
            assert!(waited < Duration::from_secs(5), "bounded wait, took {waited:?}");
        }
        assert!(timeouts >= 1, "at least one waiter must report the timeout itself");
    }

    #[test]
    fn barrier_timeout_holds_on_a_contended_core() {
        // One busy thread per core, so every yield of the waiter may cost a
        // whole scheduler slice. The deadline still runs from the waiter's
        // first yield and is probed every few yields, so a 50 ms timeout
        // fires long before a 400 ms stall would have ended.
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
        let busy: Vec<_> = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        let b = SenseBarrier::new(2);
        let start = Instant::now();
        let got = cross(&b, 0, 0, Duration::from_millis(50));
        let waited = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        busy.into_iter().for_each(|t| t.join().unwrap());
        assert!(matches!(got, Err(CollectiveErrorKind::Timeout { .. })), "{got:?}");
        assert!(waited < Duration::from_millis(400), "timed out after {waited:?}");
    }

    #[test]
    fn late_arriver_cannot_complete_a_timed_out_rendezvous() {
        // Party 0 times out (its count increment stays behind) and departs;
        // party 1 arrives late as the nominal last arriver. It must observe
        // the poison and fail typed instead of completing the crossing alone
        // and running ahead on a departed peer.
        let b = SenseBarrier::new(2);
        let early = cross(&b, 0, 0, Duration::from_millis(50));
        assert_eq!(early, Err(CollectiveErrorKind::Timeout { stalled: vec![1] }));
        assert_eq!(cross(&b, 1, 0, Duration::from_millis(50)), Err(CollectiveErrorKind::Poisoned));
    }

    #[test]
    fn arrivals_count_every_crossing() {
        let b = Arc::new(SenseBarrier::new(2));
        let peer = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let mut sense = false;
                (0..5).try_for_each(|e| b.try_wait(1, e, &mut sense, Duration::from_secs(5)))
            })
        };
        let mut sense = false;
        (0..5).try_for_each(|e| b.try_wait(0, e, &mut sense, Duration::from_secs(5))).expect("clean");
        peer.join().unwrap().expect("clean");
        assert_eq!((b.arrivals(0), b.arrivals(1)), (5, 5));
    }
}
