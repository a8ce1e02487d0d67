//! Shared-memory collectives: the *executed* counterpart of
//! [`crate::collectives`].
//!
//! [`CommGroup`](crate::collectives::CommGroup) is a functional oracle: it
//! owns every rank's buffer, runs on one thread, and clones freely. That is
//! the right tool for verifying schedule rewrites, but it cannot demonstrate
//! a tensor-parallel *speedup* — the paper's per-layer all-reduces
//! (Sec. IV-A) only pay off because ranks run concurrently and synchronize
//! through a fast intra-node fabric. On a multi-core CPU host the fabric is
//! the cache-coherent memory system, so this module provides the NCCL-role
//! equivalent for threaded ranks:
//!
//! * [`SenseBarrier`] — a sense-reversing centralized barrier: one atomic
//!   counter plus one atomic sense flag, reusable every round with no
//!   per-round state reset (each participant keeps a thread-local sense bit
//!   that flips per crossing). Waiters spin briefly then yield, so the
//!   barrier stays correct (if slow) even when ranks share one core.
//! * [`ShmComm`] / [`ShmRank`] — a communicator over `world` threads where
//!   each rank *stages* its buffer into a **group-owned window** (owned by
//!   the `ShmComm`, so it outlives any individual rank's failure) and the
//!   group runs a chunked all-reduce in the windows: rank `r` owns chunk
//!   `r`, sums that chunk across every rank's window (reduce-scatter), then
//!   copies the other owners' reduced chunks back (all-gather), and finally
//!   copies the result home. Three barrier crossings, no steady-state heap
//!   allocation (windows are reused across calls) — each element is read
//!   `world + 1` times and written three times, independent of `world`.
//! * [`Doorbell`] — where threads that work in lock-step with a publisher
//!   (the TP group's worker ranks, a split pass's members) park between
//!   commands.
//!
//! The reduction order is fixed (rank 0, 1, …, world−1 per element), so a
//! shared-memory all-reduce is bit-identical to
//! [`CommGroup::allreduce_sum`](crate::collectives::CommGroup::allreduce_sum)
//! on the same inputs — the tests hold the two against each other.
//!
//! ## Fault tolerance
//!
//! Every rendezvous is **bounded**: [`ShmRank::try_barrier`] and
//! [`ShmRank::try_allreduce_sum`] spin briefly, then yield with a deadline,
//! and return a typed [`CollectiveError`] instead of hanging when a peer
//! never arrives ([`CollectiveErrorKind::Timeout`], naming the stalled
//! peers via the barrier's per-rank arrival heartbeats), when the group is
//! poisoned by a dead peer ([`CollectiveErrorKind::Poisoned`] — previously a
//! follow-on panic), or when the optional per-chunk checksum catches a
//! corrupted reduce-scatter chunk ([`CollectiveErrorKind::Corrupt`]).
//!
//! Failure never leaves dangling pointers behind: a timed-out rendezvous
//! poisons the group (so a straggler cannot complete it late and run ahead
//! alone), and the data windows peers read during an all-reduce are owned
//! by the `ShmComm` itself — kept alive by every rank handle's `Arc`, even
//! a detached one — so a rank that errors out and frees its caller-side
//! buffers can never invalidate memory a slow peer is still reading.
//!
//! A [`CommConfig`] can also install a [`FaultInjector`]: a deterministic,
//! fire-once fault script (stalls, dropped arrivals, panics, chunk
//! corruption) threaded through the same hooks — one `Option` check per
//! call when disabled, so the fault path costs nothing in production.
//!
//! Every rank records the collective *program* it executes — each barrier
//! arrival with its epoch, each reduce-scatter and all-gather with its
//! element count — into a [`FlightRecorder`] allocated with the group
//! ([`ShmRank::recording`]). `dsi-verify` runs a real tensor-parallel
//! session and checks those recordings for lock-step order and
//! exit-safety, so the schedule it proves deadlock-free is the one that ran.

use crate::fault::{apply_stall, CollectiveError, CollectiveErrorKind, FaultInjector, FaultKind};
use crate::recorder::FlightRecorder;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
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

/// Collective ops each rank's recorder holds (a 2-layer step is 21).
const RECORDED_OPS: usize = 1024;

/// One collective step a rank executed: a barrier arrival (`epoch` = the
/// rank's earlier crossings), or its reduce-scatter / all-gather phase of
/// an all-reduce over an `elems`-long buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommOp {
    Barrier { epoch: u64 },
    ReduceScatter { elems: usize },
    AllGather { elems: usize },
}

/// Group-wide collective configuration: rendezvous timeout, optional
/// per-chunk checksums on the all-reduce, optional fault injection.
#[derive(Debug, Clone)]
pub struct CommConfig {
    /// Bound on every barrier rendezvous. A peer that has not arrived by the
    /// deadline produces [`CollectiveErrorKind::Timeout`] instead of a hang.
    pub timeout: Duration,
    /// Verify every gathered reduce-scatter chunk against the owner's
    /// published checksum (catches corruption between reduce and gather).
    pub checksum: bool,
    /// Deterministic fault script consulted at each hook; `None` disables
    /// injection at the cost of one pointer check per collective call.
    pub injector: Option<Arc<FaultInjector>>,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig { timeout: Duration::from_secs(5), checksum: false, injector: None }
    }
}

/// Sense-reversing centralized barrier for a fixed party count.
///
/// Every participant holds its own sense bit (see [`ShmRank`]) and flips it
/// each crossing; the last arriver resets the counter and publishes the new
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
/// executed TP group's workers wait here for each pass command, and the
/// paged engine's pass members for each split pass.
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

/// One rank's published window for the in-flight all-reduce: base pointer +
/// length, published by the owner before the publish barrier and read by
/// peers between barriers, plus the owner's chunk checksum when
/// [`CommConfig::checksum`] is on.
///
/// The backing store (`win`) is **group-owned**: it lives inside the
/// [`ShmComm`], which every rank handle — including a detached, wedged
/// worker thread — keeps alive through its `Arc`. A rank that errors out of
/// a collective and drops its caller-side buffers therefore can never
/// invalidate the window a slow peer is still reading; windows are freed
/// only when the last handle drops.
#[derive(Debug)]
struct Slot {
    /// Group-owned backing store for the window. Resized and staged only by
    /// the owner rank, strictly outside the barrier-fenced shared phases
    /// (see the protocol on [`ShmRank::try_allreduce_sum`]); peers access it
    /// exclusively through the published `ptr`.
    win: UnsafeCell<Vec<f32>>,
    ptr: AtomicPtr<f32>,
    len: AtomicUsize,
    /// Order-sensitive fold of the owner's reduced chunk bits, published
    /// between the reduce and gather phases.
    sum: AtomicU64,
}

/// Shared state of a thread group: one slot per rank plus the barrier.
/// Create with [`ShmComm::create`] (default config) or
/// [`ShmComm::create_with`], which hand out one [`ShmRank`] per rank; the
/// `ShmComm` itself stays behind an `Arc` inside the handles.
#[derive(Debug)]
pub struct ShmComm {
    slots: Vec<Slot>,
    barrier: SenseBarrier,
    cfg: CommConfig,
}

// SAFETY: `Slot::win` is the only non-`Sync` field. Access to it is
// synchronized by the collective protocol rather than a lock: the owner
// rank mutates its own window (resize + staging copy + result copy-out)
// only outside the barrier-fenced shared phases, and peers read it (through
// the published raw pointer, never a reference) only between barriers 1
// and 3 of an all-reduce the owner entered — the barrier's release/acquire
// chain orders the staging writes before every peer read. A failed
// rendezvous poisons the group (see `SenseBarrier::try_wait`), so no rank
// can start a new collective — and thus restage or reallocate a window —
// while a straggler from a failed one may still be reading.
unsafe impl Sync for ShmComm {}

impl ShmComm {
    /// Build a `world`-rank communicator with the default [`CommConfig`] and
    /// return the per-rank handles, in rank order. Each handle must move to
    /// (at most) one thread.
    pub fn create(world: usize) -> Vec<ShmRank> {
        Self::create_with(world, CommConfig::default())
    }

    /// [`ShmComm::create`] with an explicit timeout/checksum/injection
    /// configuration.
    pub fn create_with(world: usize, cfg: CommConfig) -> Vec<ShmRank> {
        assert!(world >= 1, "communicator needs at least one rank");
        let comm = Arc::new(ShmComm {
            slots: (0..world)
                .map(|_| Slot {
                    win: UnsafeCell::new(Vec::new()),
                    ptr: AtomicPtr::new(std::ptr::null_mut()),
                    len: AtomicUsize::new(0),
                    sum: AtomicU64::new(0),
                })
                .collect(),
            barrier: SenseBarrier::new(world),
            cfg,
        });
        (0..world)
            .map(|rank| ShmRank {
                comm: Arc::clone(&comm),
                rank,
                sense: false,
                epoch: 0,
                ops: FlightRecorder::with_capacity(RECORDED_OPS),
            })
            .collect()
    }
}

/// Order-sensitive fold of a chunk's f32 bit patterns: cheap enough to run
/// inline with the reduce, sensitive to any single-element flip or swap.
fn chunk_checksum(chunk: &[f32]) -> u64 {
    chunk
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(1) ^ u64::from(v.to_bits()))
}

/// A rank's handle on a [`ShmComm`]: carries the rank id, the thread-local
/// barrier sense, the rank's collective epoch (barrier crossings
/// attempted — its heartbeat), and the record of the ops it executed. Not
/// `Clone` — exactly one handle per rank, so each collective call is one
/// arrival per rank.
#[derive(Debug)]
pub struct ShmRank {
    comm: Arc<ShmComm>,
    rank: usize,
    sense: bool,
    epoch: u64,
    ops: FlightRecorder<CommOp>,
}

/// A cloneable poison-only handle on a group's barrier. Panic guards hold
/// one so a dying rank thread can fail the whole group without owning the
/// (non-`Clone`) [`ShmRank`].
#[derive(Debug, Clone)]
pub struct ShmPoisoner(Arc<ShmComm>);

impl ShmPoisoner {
    /// Poison the group barrier (see [`SenseBarrier::poison`]).
    pub fn poison(&self) {
        self.0.barrier.poison();
    }
}

impl ShmRank {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn world(&self) -> usize {
        self.comm.slots.len()
    }

    /// The rank's collective epoch: barrier crossings attempted so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The group's fault injector, if one is installed.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.comm.cfg.injector.as_ref()
    }

    /// The group's collective configuration.
    pub fn config(&self) -> &CommConfig {
        &self.comm.cfg
    }

    /// Every collective op this rank executed, in order (bounded; see
    /// [`FlightRecorder::overflowed`]).
    pub fn recording(&self) -> &FlightRecorder<CommOp> {
        &self.ops
    }

    /// Cross the group barrier with the configured timeout. Consults the
    /// fault injector first (stall → sleep then arrive; dropped arrival →
    /// typed [`CollectiveErrorKind::InjectedExit`] without arriving, so
    /// peers observe a timeout naming this rank; panic → panics here).
    pub fn try_barrier(&mut self) -> Result<(), CollectiveError> {
        let epoch = self.epoch;
        if let Some(inj) = &self.comm.cfg.injector {
            match inj.at_barrier(self.rank, epoch) {
                Some(FaultKind::Stall { millis }) => apply_stall(millis),
                Some(FaultKind::Exit) => {
                    return Err(self.err(CollectiveErrorKind::InjectedExit, epoch));
                }
                Some(FaultKind::Panic) => {
                    panic!("injected fault: rank {} panics at barrier epoch {epoch}", self.rank)
                }
                Some(FaultKind::Corrupt) | None => {}
            }
        }
        self.epoch += 1;
        self.ops.record(CommOp::Barrier { epoch });
        self.comm
            .barrier
            .try_wait(self.rank, epoch, &mut self.sense, self.comm.cfg.timeout)
            .map_err(|kind| self.err(kind, epoch))
    }

    fn err(&self, kind: CollectiveErrorKind, epoch: u64) -> CollectiveError {
        CollectiveError { rank: self.rank, kind, epoch }
    }

    /// Poison the group barrier (see [`SenseBarrier::poison`]).
    pub fn poison(&self) {
        self.comm.barrier.poison();
    }

    pub fn is_poisoned(&self) -> bool {
        self.comm.barrier.is_poisoned()
    }

    /// A detached poison-only handle for panic guards.
    pub fn poisoner(&self) -> ShmPoisoner {
        ShmPoisoner(Arc::clone(&self.comm))
    }

    /// `[start, end)` of the chunk owned by `rank` when `len` elements are
    /// split across the world: near-even contiguous chunks, remainder spread
    /// over the leading ranks.
    fn chunk(&self, owner: usize, len: usize) -> (usize, usize) {
        let world = self.world();
        let q = len / world;
        let rem = len % world;
        let start = owner * q + owner.min(rem);
        let width = q + usize::from(owner < rem);
        (start, start + width)
    }

    /// In-place all-reduce (sum) of `buf` across all ranks: every rank calls
    /// this with its own equal-length buffer; on success every buffer holds
    /// the element-wise sum in rank order (bit-identical to
    /// [`CommGroup::allreduce_sum`](crate::collectives::CommGroup::allreduce_sum)).
    ///
    /// The reduction runs in the group-owned windows: each rank stages `buf`
    /// into its window and publishes it, then rank `r` reduces chunk `r`
    /// across every published window (reduce-scatter), copies each foreign
    /// owner's reduced chunk into its own window (all-gather), and finally
    /// copies the result home, with barriers separating publish / reduce /
    /// gather so no rank reads a chunk before its owner finished writing it,
    /// and no rank restages its window while a peer may still be reading.
    /// Steady state performs no heap allocation (windows are reused across
    /// calls); group ownership of the windows means a rank that fails out of
    /// the collective — even one whose caller then frees `buf` — can never
    /// dangle a pointer a slow peer still dereferences.
    ///
    /// Every rendezvous is bounded by the configured timeout; with
    /// [`CommConfig::checksum`] on, each gathered chunk is verified against
    /// the owner's published checksum and a mismatch fails the group with
    /// [`CollectiveErrorKind::Corrupt`] instead of propagating silent wrong
    /// numbers. On any failure `buf` is left unchanged.
    pub fn try_allreduce_sum(&mut self, buf: &mut [f32]) -> Result<(), CollectiveError> {
        let world = self.world();
        if world == 1 {
            return Ok(());
        }
        // Epoch of this all-reduce's first crossing: the reduce-site key for
        // the fault injector.
        let epoch0 = self.epoch;
        let len = buf.len();
        // Stage into the group-owned window and publish it. (Cloning the Arc
        // keeps the slot borrow disjoint from the `&mut self` the barrier
        // crossings need.)
        let comm = Arc::clone(&self.comm);
        let slot = &comm.slots[self.rank];
        // SAFETY: `win` is this rank's own window and no collective is in
        // flight — peers finished reading it at barrier 3 of the previous
        // call, or the group is poisoned and no peer passes another barrier —
        // so the owner may mutate (even reallocate) the Vec exclusively.
        unsafe {
            let win = &mut *slot.win.get();
            win.clear();
            win.extend_from_slice(buf);
            slot.ptr.store(win.as_mut_ptr(), Ordering::Relaxed);
        }
        slot.len.store(len, Ordering::Relaxed);
        // Barrier 1: every window is published; all staging writes to every
        // window are visible.
        self.try_barrier()?;
        for (r, s) in self.comm.slots.iter().enumerate() {
            assert_eq!(
                s.len.load(Ordering::Relaxed),
                len,
                "allreduce requires equal buffer lengths (rank {r})"
            );
        }

        let (lo, hi) = self.chunk(self.rank, len);
        self.ops.record(CommOp::ReduceScatter { elems: len });
        // Reduce-scatter: sum this rank's owned chunk across every rank's
        // published window, in rank order, writing the result into our own
        // window. Every pointer targets a group-owned window of length `len`
        // (checked above) that lives as long as the `ShmComm` — i.e. as long
        // as any rank handle exists — so it stays valid even if a peer fails
        // out of the collective mid-phase; `i < len` bounds every access.
        //
        // SAFETY: the only locations written between barriers 1 and 2 are
        // `own[lo..hi]`, disjoint from every peer's owned chunk, so no
        // unsynchronized access conflicts; reads of peer chunks race with
        // nothing because peers only write inside their own chunk.
        unsafe {
            let own = slot.ptr.load(Ordering::Relaxed);
            for i in lo..hi {
                let mut s = 0.0f32;
                for peer in &self.comm.slots {
                    s += *peer.ptr.load(Ordering::Relaxed).add(i);
                }
                *own.add(i) = s;
            }
            if self.comm.cfg.checksum {
                // Publish the owned chunk's checksum before anyone gathers.
                // SAFETY: `own[lo..hi]` is this rank's exclusive window
                // region until barrier 3, published at length `len` above.
                let chunk = std::slice::from_raw_parts(own.add(lo), hi - lo);
                slot.sum.store(chunk_checksum(chunk), Ordering::Relaxed);
            }
            if let Some(inj) = &self.comm.cfg.injector {
                match inj.at_reduce(self.rank, epoch0) {
                    Some(FaultKind::Corrupt) if hi > lo => {
                        // Flip one element of the reduced chunk *after* the
                        // checksum was published — the "corrupted transfer"
                        // model the gather-side verification must catch.
                        let p = own.add(lo);
                        *p = f32::from_bits((*p).to_bits() ^ 0x0040_0000);
                    }
                    Some(FaultKind::Corrupt) => {}
                    Some(FaultKind::Stall { millis }) => apply_stall(millis),
                    Some(FaultKind::Exit) => {
                        return Err(self.err(CollectiveErrorKind::InjectedExit, epoch0));
                    }
                    Some(FaultKind::Panic) => {
                        panic!(
                            "injected fault: rank {} panics in reduce at epoch {epoch0}",
                            self.rank
                        )
                    }
                    None => {}
                }
            }
        }
        // Barrier 2: every owned chunk is fully reduced.
        self.try_barrier()?;
        self.ops.record(CommOp::AllGather { elems: len });
        // All-gather: copy each foreign owner's reduced chunk from its
        // window into ours, verifying checksums when enabled. Same
        // group-ownership pointer validity as the reduce-scatter.
        let mut corrupt: Option<usize> = None;
        // SAFETY: between barriers 2 and 3 this rank writes only
        // `own[c_lo..c_hi]` for owners != rank — regions no peer touches
        // (peers read only their own chunk of this window, and write only
        // foreign chunks of their own windows).
        unsafe {
            let own = slot.ptr.load(Ordering::Relaxed);
            for (owner, peer) in self.comm.slots.iter().enumerate() {
                if owner == self.rank {
                    continue;
                }
                let (c_lo, c_hi) = self.chunk(owner, len);
                std::ptr::copy_nonoverlapping(
                    peer.ptr.load(Ordering::Relaxed).add(c_lo),
                    own.add(c_lo),
                    c_hi - c_lo,
                );
                if self.comm.cfg.checksum && corrupt.is_none() {
                    // SAFETY: `own[c_lo..c_hi]` was just written by this
                    // rank and no peer touches it (see region argument
                    // above).
                    let got = std::slice::from_raw_parts(own.add(c_lo), c_hi - c_lo);
                    if chunk_checksum(got) != peer.sum.load(Ordering::Relaxed) {
                        corrupt = Some(owner);
                    }
                }
            }
        }
        if let Some(owner) = corrupt {
            // The data plane is compromised: fail the whole group rather
            // than let one rank decode on corrupt activations.
            self.poison();
            return Err(self.err(CollectiveErrorKind::Corrupt { owner }, epoch0));
        }
        // Barrier 3: no rank may restage its window until every peer has
        // finished gathering from it.
        self.try_barrier()?;
        // Copy the fully-reduced vector home, only on success — a failed
        // rendezvous leaves `buf` untouched.
        //
        // SAFETY: the window holds `len` reduced elements; barrier 3
        // completed, so every peer's reads of it happened-before this point
        // and nobody touches it until this rank stages its next collective.
        unsafe {
            let win = &*slot.win.get();
            buf.copy_from_slice(&win[..len]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::CommGroup;
    use crate::fault::{FaultPlan, FaultSite, FaultSpec};
    use std::sync::Mutex;

    /// Run `world` threads, rank `r` executing `f(rank_handle, r)`.
    fn run_ranks<F>(world: usize, f: F)
    where
        F: Fn(ShmRank, usize) + Send + Sync + 'static,
    {
        run_ranks_with(world, CommConfig::default(), f);
    }

    fn run_ranks_with<F>(world: usize, cfg: CommConfig, f: F)
    where
        F: Fn(ShmRank, usize) + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let handles: Vec<_> = ShmComm::create_with(world, cfg)
            .into_iter()
            .enumerate()
            .map(|(r, h)| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || f(h, r))
            })
            .collect();
        for h in handles {
            h.join().expect("rank thread panicked");
        }
    }

    #[test]
    fn allreduce_matches_comm_group_oracle() {
        for world in [1usize, 2, 3, 4] {
            for len in [1usize, 7, 32, 101] {
                let bufs: Vec<Vec<f32>> = (0..world)
                    .map(|r| (0..len).map(|i| ((r * len + i) as f32).sin()).collect())
                    .collect();
                let mut oracle = CommGroup::new(bufs.clone());
                oracle.allreduce_sum();
                let results = Arc::new(Mutex::new(vec![Vec::new(); world]));
                let results2 = Arc::clone(&results);
                run_ranks(world, move |mut h, r| {
                    let mut buf = bufs[r].clone();
                    h.try_allreduce_sum(&mut buf).expect("clean run");
                    results2.lock().unwrap()[r] = buf;
                });
                let got = results.lock().unwrap();
                for r in 0..world {
                    assert_eq!(got[r], oracle.buffers[r], "world {world} len {len} rank {r}");
                }
            }
        }
    }

    #[test]
    fn checksummed_allreduce_is_bit_identical_to_plain() {
        // Checksums are pure observation: the reduced values must not change.
        let world = 4;
        let len = 37;
        let bufs: Vec<Vec<f32>> = (0..world)
            .map(|r| (0..len).map(|i| ((r * len + i) as f32).cos()).collect())
            .collect();
        let mut oracle = CommGroup::new(bufs.clone());
        oracle.allreduce_sum();
        let results = Arc::new(Mutex::new(vec![Vec::new(); world]));
        let results2 = Arc::clone(&results);
        let cfg = CommConfig { checksum: true, ..CommConfig::default() };
        run_ranks_with(world, cfg, move |mut h, r| {
            let mut buf = bufs[r].clone();
            h.try_allreduce_sum(&mut buf).expect("clean run");
            results2.lock().unwrap()[r] = buf;
        });
        let got = results.lock().unwrap();
        for r in 0..world {
            assert_eq!(got[r], oracle.buffers[r], "rank {r}");
        }
    }

    #[test]
    fn repeated_allreduce_reuses_sense_correctly() {
        // Many rounds over the same communicator: a broken sense reversal
        // (or stale counter) would deadlock or mix rounds. Each round's
        // expected sum depends on the previous, so any cross-round leak
        // shows up numerically.
        let world = 4;
        let rounds = 200;
        run_ranks(world, move |mut h, r| {
            let mut buf = vec![r as f32 + 1.0; 16];
            for round in 0..rounds {
                h.try_allreduce_sum(&mut buf).expect("clean run");
                let want = expected(world, round);
                assert!(
                    buf.iter().all(|&v| v == want),
                    "rank {r} round {round}: {} != {want}",
                    buf[0]
                );
                // Diverge again for the next round.
                for v in buf.iter_mut() {
                    *v = *v / want * (r as f32 + 1.0) + round as f32;
                }
            }
        });
        fn expected(world: usize, round: usize) -> f32 {
            // Closed form of the recurrence above: after the reduce every
            // rank holds sum(1..=world) (+ world * round' corrections).
            let base: f32 = (1..=world).map(|r| r as f32).sum();
            if round == 0 {
                base
            } else {
                base + world as f32 * (round - 1) as f32
            }
        }
    }

    #[test]
    fn every_rank_records_the_fenced_program_it_ran() {
        let programs = Arc::new(Mutex::new(vec![Vec::new(); 2]));
        let programs2 = Arc::clone(&programs);
        run_ranks(2, move |mut h, r| {
            h.try_allreduce_sum(&mut [1.0; 5]).expect("clean run");
            programs2.lock().unwrap()[r] = h.recording().events();
        });
        use CommOp::*;
        let want = [
            Barrier { epoch: 0 },
            ReduceScatter { elems: 5 },
            Barrier { epoch: 1 },
            AllGather { elems: 5 },
            Barrier { epoch: 2 },
        ];
        for p in programs.lock().unwrap().iter() {
            assert_eq!(p, &want);
        }
    }

    #[test]
    fn world_one_is_identity() {
        let mut h = ShmComm::create(1).pop().unwrap();
        let mut buf = vec![3.0, 4.0];
        h.try_allreduce_sum(&mut buf).expect("world 1");
        assert_eq!(buf, vec![3.0, 4.0]);
        h.try_barrier().expect("trivially passes at world 1");
    }

    #[test]
    fn uneven_chunks_cover_buffer() {
        // len not divisible by world: remainder chunks must still tile the
        // buffer exactly (the reduce result proves full coverage).
        for (world, len) in [(3usize, 10usize), (4, 5), (2, 1), (4, 3)] {
            let bufs: Vec<Vec<f32>> = (0..world).map(|r| vec![(r + 1) as f32; len]).collect();
            let want: f32 = (1..=world).map(|r| r as f32).sum();
            let results = Arc::new(Mutex::new(vec![Vec::new(); world]));
            let results2 = Arc::clone(&results);
            run_ranks(world, move |mut h, r| {
                let mut buf = bufs[r].clone();
                h.try_allreduce_sum(&mut buf).expect("clean run");
                results2.lock().unwrap()[r] = buf;
            });
            for b in results.lock().unwrap().iter() {
                assert!(b.iter().all(|&v| v == want), "world {world} len {len}");
            }
        }
    }

    #[test]
    fn poisoned_barrier_is_a_typed_error_not_a_panic() {
        // Satellite fix: the poison flag surfaces as CollectiveError through
        // the try path instead of a follow-on panic.
        let mut handles = ShmComm::create(2);
        let waiter = handles.pop().unwrap();
        let poisoner = handles.pop().unwrap();
        let t = std::thread::spawn(move || {
            let mut w = waiter;
            w.try_barrier()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        poisoner.poison();
        let err = t.join().expect("no panic").expect_err("typed error");
        assert_eq!(err.kind, CollectiveErrorKind::Poisoned);
        assert_eq!(err.rank, 1);
    }

    #[test]
    fn barrier_timeout_names_the_stalled_peer() {
        // Rank 0 never arrives: ranks 1 and 2 must fail typed within the
        // bound. The first to time out poisons the group on the way out, so
        // each waiter reports either Timeout naming rank 0 (and only rank 0)
        // or the propagated Poisoned — and at least one observes the
        // Timeout itself.
        let cfg = CommConfig { timeout: Duration::from_millis(100), ..CommConfig::default() };
        let mut handles = ShmComm::create_with(3, cfg);
        let _absent = handles.remove(0); // rank 0 drops its arrival
        let threads: Vec<_> = handles
            .into_iter()
            .map(|mut h| {
                std::thread::spawn(move || {
                    let start = Instant::now();
                    let err = h.try_barrier().expect_err("must fail typed");
                    (err, start.elapsed())
                })
            })
            .collect();
        let mut timeouts = 0;
        for t in threads {
            let (err, waited) = t.join().unwrap();
            match err.kind {
                CollectiveErrorKind::Timeout { ref stalled } => {
                    assert_eq!(stalled, &[0], "{err}");
                    timeouts += 1;
                }
                CollectiveErrorKind::Poisoned => {}
                ref k => panic!("expected Timeout or Poisoned, got {k:?}"),
            }
            assert_eq!(err.epoch, 0);
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
        let cfg = CommConfig { timeout: Duration::from_millis(50), ..CommConfig::default() };
        let mut handles = ShmComm::create_with(2, cfg);
        let _absent = handles.pop();
        let start = Instant::now();
        let err = handles[0].try_barrier().expect_err("the peer never arrives");
        let waited = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        busy.into_iter().for_each(|t| t.join().unwrap());
        assert!(matches!(err.kind, CollectiveErrorKind::Timeout { .. }), "{err}");
        assert!(waited < Duration::from_millis(400), "timed out after {waited:?}");
    }

    #[test]
    fn late_arriver_cannot_complete_a_timed_out_rendezvous() {
        // Regression for the use-after-free window: rank 0 times out (its
        // count increment stays behind) and departs; rank 1 arrives late as
        // the nominal "last arriver". It must observe the poison and fail
        // typed instead of completing the crossing alone and running ahead
        // into the data phases on a departed peer.
        let cfg = CommConfig { timeout: Duration::from_millis(50), ..CommConfig::default() };
        let mut handles = ShmComm::create_with(2, cfg);
        let mut late = handles.pop().unwrap();
        let mut early = handles.pop().unwrap();
        let e0 = early.try_barrier().expect_err("peer is late beyond the deadline");
        assert!(
            matches!(e0.kind, CollectiveErrorKind::Timeout { ref stalled } if stalled == &[1]),
            "{e0}"
        );
        // Rank 0 has departed (and in a real group may already be tearing
        // its buffers down); the straggler's arrival must fail.
        let e1 = late.try_barrier().expect_err("stale rendezvous must not complete");
        assert_eq!(e1.kind, CollectiveErrorKind::Poisoned, "{e1}");
    }

    #[test]
    fn injected_exit_drops_arrival_and_peers_time_out() {
        // The scripted "crashed rank" model: rank 1 observes InjectedExit,
        // rank 0 observes a timeout naming rank 1.
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 0 },
            kind: crate::fault::FaultKind::Exit,
        }]);
        let cfg = CommConfig {
            timeout: Duration::from_millis(100),
            injector: Some(Arc::new(plan.injector())),
            ..CommConfig::default()
        };
        let mut handles = ShmComm::create_with(2, cfg);
        let mut r1 = handles.pop().unwrap();
        let mut r0 = handles.pop().unwrap();
        let t = std::thread::spawn(move || r1.try_barrier());
        let e0 = r0.try_barrier().expect_err("peer never arrives");
        let e1 = t.join().unwrap().expect_err("scripted exit");
        assert_eq!(e1.kind, CollectiveErrorKind::InjectedExit);
        assert!(
            matches!(e0.kind, CollectiveErrorKind::Timeout { ref stalled } if stalled == &[1]),
            "{e0}"
        );
    }

    #[test]
    fn injected_corruption_is_caught_by_checksum() {
        // Rank 0's owned chunk is flipped after its checksum is published:
        // every gathering peer must fail typed with Corrupt{owner: 0}, and
        // nobody may return Ok with silently wrong numbers.
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 0,
            site: FaultSite::Reduce { epoch: 0 },
            kind: crate::fault::FaultKind::Corrupt,
        }]);
        let cfg = CommConfig {
            timeout: Duration::from_millis(500),
            checksum: true,
            injector: Some(Arc::new(plan.injector())),
        };
        let results = Arc::new(Mutex::new(Vec::new()));
        let results2 = Arc::clone(&results);
        run_ranks_with(2, cfg, move |mut h, r| {
            let mut buf = vec![r as f32 + 1.0; 8];
            let out = h.try_allreduce_sum(&mut buf);
            results2.lock().unwrap().push((r, out));
        });
        let got = results.lock().unwrap();
        let rank1 = got.iter().find(|(r, _)| *r == 1).unwrap();
        match &rank1.1 {
            Err(CollectiveError { kind: CollectiveErrorKind::Corrupt { owner: 0 }, .. }) => {}
            other => panic!("rank 1 must detect rank 0's corruption, got {other:?}"),
        }
    }

    #[test]
    fn stalled_peer_mid_allreduce_fails_typed_without_running_ahead() {
        // The review's use-after-free scenario: rank 1 stalls past the
        // timeout inside the all-reduce (at barrier 2), rank 0 times out,
        // returns, and immediately frees its buffer. The woken straggler
        // must fail typed at its next crossing — never complete the
        // rendezvous alone and gather from the departed rank — and the
        // group-owned windows keep every published pointer valid while it
        // gets there. Both ranks' buffers must come back unchanged (a
        // failed all-reduce writes nothing home).
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 1 }, // barrier 2 of the all-reduce
            kind: crate::fault::FaultKind::Stall { millis: 400 },
        }]);
        let cfg = CommConfig {
            timeout: Duration::from_millis(100),
            injector: Some(Arc::new(plan.injector())),
            ..CommConfig::default()
        };
        let results = Arc::new(Mutex::new(Vec::new()));
        let results2 = Arc::clone(&results);
        run_ranks_with(2, cfg, move |mut h, r| {
            let mut buf = vec![r as f32 + 1.0; 64];
            let out = h.try_allreduce_sum(&mut buf);
            // Rank 0 returns first and `buf` drops right here while rank 1
            // is still asleep mid-collective — safe, because peers read
            // group-owned windows, never this Vec.
            results2.lock().unwrap().push((r, buf.clone(), out));
        });
        let got = results.lock().unwrap();
        for (r, buf, out) in got.iter() {
            assert!(out.is_err(), "rank {r} must fail typed");
            assert!(
                buf.iter().all(|&v| v == *r as f32 + 1.0),
                "rank {r}: failed all-reduce must leave the buffer unchanged"
            );
        }
    }

    #[test]
    fn injected_stall_delays_but_completes() {
        // A stall shorter than the timeout is transparent: the all-reduce
        // completes with correct sums.
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 0 },
            kind: crate::fault::FaultKind::Stall { millis: 20 },
        }]);
        let cfg = CommConfig {
            timeout: Duration::from_secs(2),
            injector: Some(Arc::new(plan.injector())),
            ..CommConfig::default()
        };
        let results = Arc::new(Mutex::new(vec![Vec::new(); 2]));
        let results2 = Arc::clone(&results);
        run_ranks_with(2, cfg, move |mut h, r| {
            let mut buf = vec![r as f32 + 1.0; 8];
            h.try_allreduce_sum(&mut buf).expect("stall is transient");
            results2.lock().unwrap()[r] = buf;
        });
        for b in results.lock().unwrap().iter() {
            assert!(b.iter().all(|&v| v == 3.0));
        }
    }
}
