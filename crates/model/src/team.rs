//! The members of a split pass: the calling thread plus persistent helper
//! threads an engine owns, and the protocol that runs one job on all of
//! them.
//!
//! [`Team::run`] hands a job — a closure borrowing the caller's weights,
//! page pool and scratch — to `members - 1` helpers and runs member 0 on the
//! caller, then returns once every member is done. Helpers park between
//! jobs on a [`Doorbell`], so an idle engine costs no core. Inside a job the
//! members meet at a [`SenseBarrier`] ([`Member`] is the seam `fast::step`
//! joins through); a member that panics poisons it, so every other member
//! leaves at its next join instead of waiting, and [`Team::run`] re-raises
//! the panic on the caller once all of them are out.
//!
//! A team runs under a [`CommConfig`]: the deadline of every join and an
//! optional fault script. An engine `Engine::new` builds passes none and
//! gets a 60 s wedge bound; a tensor-parallel group (`Engine::group`)
//! passes its own. [`Member::join`] consults the script at the member's
//! join count and [`Member::at_layer`] at each layer: a stall sleeps, an
//! exit leaves without arriving (the peers time out naming the member), and
//! a panic panics. A member that leaves a join typed — its deadline passed,
//! the barrier was poisoned, its script made it exit — unwinds out of its
//! job, and [`Team::run`] returns the cause as a [`CollectiveError`].
//!
//! A member cannot be detached: it borrows the caller's scratch, so
//! [`Team::run`] waits for every member, a stalled one included. Every
//! scripted stall ends; the member then leaves at its next join, which the
//! timeout that named it has poisoned.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::fast::{Row, RowParallel, Share};
use dsi_sim::fault::{apply_stall, CollectiveError, CollectiveErrorKind, FaultKind};
use dsi_sim::shmem::{CommConfig, Doorbell, SenseBarrier};

/// Bound on one join of an engine that serves alone. A member this late is
/// wedged, not slow: the pass fails rather than hang.
const JOIN_TIMEOUT: Duration = Duration::from_secs(60);

/// The payload a member unwinds with when it leaves its job typed. It is
/// resumed, not panicked, so no panic hook reports it.
#[derive(Debug)]
struct Left(CollectiveError);

/// How much a member's typed departure says about the job's failure: a
/// scripted exit is a cause, a timeout names a stalled peer, and a
/// poisoned join only follows some other member's failure.
fn weight(kind: &CollectiveErrorKind) -> u8 {
    match kind {
        CollectiveErrorKind::Poisoned => 0,
        CollectiveErrorKind::Timeout { .. } => 1,
        CollectiveErrorKind::InjectedExit => 2,
    }
}

/// One member of a split pass as its job sees it: its share of the pass,
/// the join (the [`RowParallel`] seam `step` runs under) and its fault
/// sites.
pub struct Member<'a> {
    share: Share,
    barrier: &'a SenseBarrier,
    comm: &'a CommConfig,
    /// Barrier crossings so far (the barrier's epoch for this member).
    epoch: u64,
    sense: bool,
}

impl Member<'_> {
    fn new<'a>(share: Share, barrier: &'a SenseBarrier, comm: &'a CommConfig, epoch: u64) -> Member<'a> {
        // Every crossing flips the sense, starting from `false`.
        Member { share, barrier, comm, epoch, sense: epoch % 2 == 1 }
    }

    /// The part of the pass this member computes.
    pub fn share(&self) -> Share {
        self.share
    }

    /// This member failed: every other member leaves at its next join.
    pub fn abandon(&self) {
        self.barrier.poison();
    }

    /// Leave the job typed.
    fn leave(&self, kind: CollectiveErrorKind) -> ! {
        resume_unwind(Box::new(Left(CollectiveError { rank: self.share.member, kind, epoch: self.epoch })))
    }

    /// Act out a scripted fault at `site`.
    fn fault(&self, fault: Option<FaultKind>, site: &str, at: impl std::fmt::Display) {
        match fault {
            Some(FaultKind::Stall { millis }) => apply_stall(millis),
            Some(FaultKind::Exit) => self.leave(CollectiveErrorKind::InjectedExit),
            Some(FaultKind::Panic) => panic!("injected fault: member {} panics at {site} {at}", self.share.member),
            None => {}
        }
    }
}

impl RowParallel for Member<'_> {
    /// One `Option` check when no fault script is installed. A "token 5,
    /// layer 2" script fires in the pass that has a row at position 5,
    /// whether that row belongs to a seat's context or is a decode step.
    #[inline]
    fn at_layer(&mut self, layer: usize, rows: &[Row]) {
        if let Some(inj) = &self.comm.injector {
            self.fault(inj.at_layer(self.share.member, rows.iter().map(|r| r.pos), layer), "layer", layer);
        }
    }

    #[inline]
    fn share(&self) -> Share {
        self.share
    }

    #[inline]
    fn join(&mut self) {
        if let Some(inj) = &self.comm.injector {
            self.fault(inj.at_barrier(self.share.member, self.epoch), "join", self.epoch);
        }
        match self.barrier.try_wait(self.share.member, self.epoch, &mut self.sense, self.comm.timeout) {
            Ok(()) => self.epoch += 1,
            Err(kind) => self.leave(kind),
        }
    }
}

/// What a job is: one call per member, with the member's own rows — a
/// buffer only it reads and writes, kept across jobs.
type JobFn<'a> = dyn Fn(&mut Member<'_>, &mut Vec<f32>) + Sync + 'a;

/// A published job as the helpers read it: the caller's closure and
/// barrier with their lifetimes erased, the barrier's epoch and the member
/// count.
#[derive(Clone, Copy)]
struct Published {
    job: *const JobFn<'static>,
    barrier: *const SenseBarrier,
    epoch: u64,
    members: usize,
}

// SAFETY: the pointers are dereferenced only by helper members between
// reading a publication and counting themselves out of `pending`, and
// `Team::run` — which published them from borrows that live through its
// whole call — returns or unwinds only once `pending` is zero. The closure
// is `Sync` and `SenseBarrier` is `Sync`, so using them from helper threads
// is sound.
unsafe impl Send for Published {}

/// Lock `m`, whatever a panicking holder left.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The state a team's caller and helpers share.
struct Shared {
    comm: CommConfig,
    bell: Doorbell,
    /// The latest publication and its sequence number.
    slot: Mutex<(usize, Option<Published>)>,
    /// Helper members of the current job that have not finished it.
    pending: AtomicUsize,
    /// The first panic of the current job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The weightiest typed departure of the current job.
    left: Mutex<Option<CollectiveError>>,
    /// Members of the current job that exited by script or panicked.
    lost: AtomicUsize,
    shutdown: AtomicBool,
}

impl Shared {
    /// Keep what a member unwound with: a typed departure if it outweighs
    /// the one kept, any other payload if it is the job's first panic, and
    /// count the member lost if it exited or panicked. A panicking member
    /// poisons the barrier, so the others leave too.
    fn keep(&self, payload: Box<dyn Any + Send>, barrier: &SenseBarrier) {
        match payload.downcast::<Left>() {
            Ok(left) => {
                if left.0.kind == CollectiveErrorKind::InjectedExit {
                    self.lost.fetch_add(1, Ordering::Relaxed);
                }
                let mut kept = lock(&self.left);
                if kept.as_ref().is_none_or(|k| weight(&k.kind) < weight(&left.0.kind)) {
                    *kept = Some(left.0);
                }
            }
            Err(payload) => {
                barrier.poison();
                self.lost.fetch_add(1, Ordering::Relaxed);
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }
}

/// A caller's helper threads, spawned as passes first need them and kept
/// for the engine's life.
pub struct Team {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    /// The barrier of the last member count, and its crossings so far.
    barrier: SenseBarrier,
    epoch: u64,
    /// Publications so far.
    seq: usize,
    /// Member 0's own rows.
    local: Vec<f32>,
    /// Members the last job lost: they exited by script or panicked.
    lost: usize,
}

/// The team of an engine that serves alone: no fault script, and the wedge
/// bound on every join.
impl Default for Team {
    fn default() -> Self {
        Team::new(CommConfig { timeout: JOIN_TIMEOUT, injector: None })
    }
}

impl Team {
    /// A team whose joins run under `comm`'s deadline and fault script.
    pub fn new(comm: CommConfig) -> Self {
        let shared = Shared {
            comm,
            bell: Doorbell::default(),
            slot: Mutex::new((0, None)),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            left: Mutex::new(None),
            lost: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        };
        Team {
            shared: Arc::new(shared),
            helpers: Vec::new(),
            barrier: SenseBarrier::new(1),
            epoch: 0,
            seq: 0,
            local: Vec::new(),
            lost: 0,
        }
    }

    /// Joins each member of the current barrier has made: every member's
    /// crossings since the barrier was last re-created (at a new member
    /// count, or after a failed job).
    pub fn joins(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.barrier.parties()).map(|t| self.barrier.arrivals(t))
    }

    /// Members the last job lost: those its fault script made exit, and
    /// those that panicked. A member that timed out or left a poisoned join
    /// is intact.
    pub fn lost(&self) -> usize {
        self.lost
    }

    /// Run `job` once per member of a `members`-member pass — member 0 on
    /// this thread, the others on helpers — and return when every member
    /// has returned. A member that panics poisons the join, so the others
    /// leave at their next one; once all are out, the first panic is
    /// re-raised here. Otherwise a member that left typed fails the job
    /// with the weightiest departure (a scripted exit, else a timeout
    /// naming the stalled members). A job whose members only left because
    /// one of them [`Member::abandon`]ed returns `Ok`.
    pub fn run(&mut self, members: usize, job: &JobFn<'_>) -> Result<(), CollectiveError> {
        assert!(members >= 2, "a team job has at least two members");
        while self.helpers.len() < members - 1 {
            let (shared, t) = (Arc::clone(&self.shared), self.helpers.len() + 1);
            let helper = std::thread::Builder::new()
                .name(format!("dsi-pass-member-{t}"))
                .spawn(move || helper_loop(&shared, t))
                .expect("spawn pass member");
            self.helpers.push(helper);
        }
        if self.barrier.parties() != members || self.barrier.is_poisoned() {
            (self.barrier, self.epoch) = (SenseBarrier::new(members), 0);
        }
        let erased: *const JobFn<'_> = job;
        let published = Published {
            // SAFETY: only the lifetime is erased; see `Published` for why
            // no helper uses the pointer after this call returns.
            job: unsafe { std::mem::transmute::<*const JobFn<'_>, *const JobFn<'static>>(erased) },
            barrier: &self.barrier,
            epoch: self.epoch,
            members,
        };
        self.seq += 1;
        self.shared.pending.store(members - 1, Ordering::Relaxed);
        self.shared.lost.store(0, Ordering::Relaxed);
        *lock(&self.shared.slot) = (self.seq, Some(published));
        self.shared.bell.ring(self.seq);

        let mut me = Member::new(Share { member: 0, members }, &self.barrier, &self.shared.comm, self.epoch);
        let mine = catch_unwind(AssertUnwindSafe(|| job(&mut me, &mut self.local)));
        let epoch = me.epoch;
        if let Err(payload) = mine {
            self.shared.keep(payload, &self.barrier);
        }
        // The helpers are done with the job: from here on nothing reads
        // the pointers it published, so its borrows may end.
        let mut spins = 0u32;
        while self.shared.pending.load(Ordering::Acquire) > 0 {
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        lock(&self.shared.slot).1 = None;
        self.epoch = epoch;
        let left = lock(&self.shared.left).take();
        self.lost = self.shared.lost.load(Ordering::Relaxed);
        if let Some(payload) = lock(&self.shared.panic).take() {
            resume_unwind(payload);
        }
        // Poisoned joins alone mean a member abandoned the job.
        match left {
            Some(e) if e.kind != CollectiveErrorKind::Poisoned => Err(e),
            _ => Ok(()),
        }
    }
}

/// Helper `t`'s life: park until a publication it has not seen, run it if
/// it is one of the job's members, count itself out, repeat.
fn helper_loop(shared: &Shared, t: usize) {
    let mut local = Vec::new();
    let mut seen = 0;
    loop {
        shared.bell.wait(seen, || shared.shutdown.load(Ordering::Acquire));
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let (seq, published) = *lock(&shared.slot);
        seen = seq;
        let Some(p) = published.filter(|p| t < p.members) else { continue };
        // SAFETY: this helper has not counted itself out of the job yet, so
        // the caller is still inside `Team::run` and both borrows are live
        // (see `Published`).
        let (job, barrier) = unsafe { (&*p.job, &*p.barrier) };
        let mut me = Member::new(Share { member: t, members: p.members }, barrier, &shared.comm, p.epoch);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(&mut me, &mut local))) {
            shared.keep(payload, barrier);
        }
        shared.pending.fetch_sub(1, Ordering::Release);
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.bell.ring(self.seq);
        for h in self.helpers.drain(..) {
            // A helper catches its job's panics, so it exits cleanly.
            let _ = h.join();
        }
    }
}
