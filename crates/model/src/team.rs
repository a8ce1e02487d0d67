//! The members of a split pass: the calling thread plus persistent helper
//! threads an engine owns, and the protocol that runs one job on all of
//! them.
//!
//! [`Team::run`] hands a job — a closure borrowing the caller's weights,
//! page pool and scratch — to `members - 1` helpers and runs member 0 on the
//! caller, then returns once every member is done. Helpers park between
//! jobs on a [`Doorbell`] (the one the TP group's workers wait on), so an
//! idle engine costs no core. Inside a job the members meet at a
//! [`SenseBarrier`] ([`Member`] is the seam `fast::step` joins through);
//! a member that panics poisons it, so every other member leaves at its
//! next join instead of waiting, and [`Team::run`] re-raises the panic on
//! the caller once all of them are out.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::fast::{project_local, Row, RowParallel, Share};
use dsi_kernels::blocked::{OutRows, PanelWeights};
use dsi_sim::shmem::{Doorbell, SenseBarrier};
use dsi_sim::CollectiveErrorKind;

/// Bound on one join. A member this late is wedged, not slow: the pass
/// fails with a panic rather than hang.
const JOIN_TIMEOUT: Duration = Duration::from_secs(60);

/// The payload a member panics with when it leaves a join because another
/// member failed first; [`Team::run`] re-raises the first member's own
/// payload instead.
#[derive(Debug)]
struct MemberLost;

/// One member of a split pass as its job sees it: its share of the pass
/// and the join (the [`RowParallel`] seam `step` runs under).
pub struct Member<'a> {
    share: Share,
    barrier: &'a SenseBarrier,
    /// Barrier crossings so far (the barrier's epoch for this member).
    epoch: u64,
    sense: bool,
}

impl Member<'_> {
    fn new(share: Share, barrier: &SenseBarrier, epoch: u64) -> Member<'_> {
        // Every crossing flips the sense, starting from `false`.
        Member { share, barrier, epoch, sense: epoch % 2 == 1 }
    }

    /// The part of the pass this member computes.
    pub fn share(&self) -> Share {
        self.share
    }

    /// This member failed: every other member leaves at its next join.
    pub fn abandon(&self) {
        self.barrier.poison();
    }
}

impl<E> RowParallel<E> for Member<'_> {
    #[inline]
    fn at_layer(&mut self, _: usize, _: &[Row]) -> Result<(), E> {
        Ok(())
    }

    #[inline]
    fn project<B: PanelWeights>(
        &mut self,
        a: &[f32],
        w: &B,
        cols: Range<usize>,
        bias: &[f32],
        residual: &[f32],
        out: OutRows<'_>,
    ) -> Result<(), E> {
        project_local(a, w, cols, bias, residual, out);
        Ok(())
    }

    #[inline]
    fn share(&self) -> Share {
        self.share
    }

    #[inline]
    fn join(&mut self) {
        match self.barrier.try_wait(self.share.member, self.epoch, &mut self.sense, JOIN_TIMEOUT) {
            Ok(()) => self.epoch += 1,
            Err(CollectiveErrorKind::Poisoned) => panic_any(MemberLost),
            Err(kind) => panic!("pass member {} left a join: {kind:?}", self.share.member),
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

/// The state a team's caller and helpers share.
#[derive(Default)]
struct Shared {
    bell: Doorbell,
    /// The latest publication and its sequence number.
    slot: Mutex<(usize, Option<Published>)>,
    /// Helper members of the current job that have not finished it.
    pending: AtomicUsize,
    /// The first helper panic of the current job, its own payload preferred
    /// to a [`MemberLost`].
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    shutdown: AtomicBool,
}

impl Shared {
    fn keep_panic(&self, payload: Box<dyn Any + Send>) {
        let mut kept = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
        if kept.as_ref().is_none_or(|k| k.is::<MemberLost>()) {
            *kept = Some(payload);
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
}

impl Default for Team {
    fn default() -> Self {
        Team {
            shared: Arc::default(),
            helpers: Vec::new(),
            barrier: SenseBarrier::new(1),
            epoch: 0,
            seq: 0,
            local: Vec::new(),
        }
    }
}

impl Team {
    /// Run `job` once per member of a `members`-member pass — member 0 on
    /// this thread, the others on helpers — and return when every member
    /// has returned. A member that panics poisons the join, so the others
    /// leave at their next one; once all are out, the first member's own
    /// panic is re-raised here. A job whose members only left because one
    /// of them [`Member::abandon`]ed returns normally.
    pub fn run(&mut self, members: usize, job: &JobFn<'_>) {
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
        *self.shared.slot.lock().unwrap_or_else(PoisonError::into_inner) = (self.seq, Some(published));
        self.shared.bell.ring(self.seq);

        let mut me = Member::new(Share { member: 0, members }, &self.barrier, self.epoch);
        let mine = catch_unwind(AssertUnwindSafe(|| job(&mut me, &mut self.local)));
        let epoch = me.epoch;
        if mine.is_err() {
            self.barrier.poison();
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
        self.shared.slot.lock().unwrap_or_else(PoisonError::into_inner).1 = None;
        self.epoch = epoch;
        let theirs = self.shared.panic.lock().unwrap_or_else(PoisonError::into_inner).take();
        // `MemberLost`s alone mean a member abandoned the job.
        if let Some(p) = [mine.err(), theirs].into_iter().flatten().find(|p| !p.is::<MemberLost>()) {
            resume_unwind(p);
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
        let (seq, published) = *shared.slot.lock().unwrap_or_else(PoisonError::into_inner);
        seen = seq;
        let Some(p) = published.filter(|p| t < p.members) else { continue };
        // SAFETY: this helper has not counted itself out of the job yet, so
        // the caller is still inside `Team::run` and both borrows are live
        // (see `Published`).
        let (job, barrier) = unsafe { (&*p.job, &*p.barrier) };
        let mut me = Member::new(Share { member: t, members: p.members }, barrier, p.epoch);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(&mut me, &mut local))) {
            barrier.poison();
            shared.keep_panic(payload);
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
