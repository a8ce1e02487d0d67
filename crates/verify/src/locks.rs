//! Lock-order and condvar-discipline audit for the serving runtime.
//!
//! The serving layer (`dsi-serve`) is the first part of the repo where
//! multiple *control* threads — submitters, the worker, the draining
//! caller — contend on shared mutable state, so the classic
//! deadlock shapes (AB/BA lock inversion, waiting on a condvar while
//! holding an unrelated lock) become possible. This pass models each
//! thread's synchronization behaviour as a straight-line program of
//! [`LockOp`]s and verifies
//!
//! 1. **acyclic lock order** — the "held-while-acquiring" relation over
//!    all threads must have no cycle (reusing [`find_cycle`] from the
//!    pipeline race detector on a lock-indexed [`DiGraph`]);
//! 2. **balanced acquire/release** — no double-acquire, no release of a
//!    lock not held, no locks held at thread exit;
//! 3. **condvar discipline** — a [`LockOp::Wait`] must be executed while
//!    holding *exactly* the condvar's mutex: waiting with extra locks held
//!    starves every thread that needs them, and waiting without the mutex
//!    is UB-by-contract for `std::sync::Condvar`.
//!
//! [`continuous_scheduler_model`] encodes `dsi-serve`'s actual design — one
//! state mutex, two condvars tied to it — and [`check_lock_order`] over it
//! is a regression gate: any future change that adds a second lock with an
//! inconsistent order shows up as a `lock-cycle` diagnostic in the sweep.
//! The model is not only a transcription: [`check_sched_trace`] diffs the
//! *live* scheduler's recorded trace against it.

use std::collections::BTreeSet;

use crate::collective::{find_cycle, DiGraph};
use crate::runtime::RecoveryOp;
use crate::{Diagnostic, Pass};

/// One synchronization action of a modeled thread. Locks are small integer
/// ids; condvars are identified by the mutex they are tied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOp {
    /// Block until lock `id` is held.
    Acquire(usize),
    /// Release lock `id`.
    Release(usize),
    /// Wait on a condvar tied to mutex `mutex` (atomically releases and
    /// re-acquires it; legal only while holding exactly that mutex).
    Wait { mutex: usize },
}

/// A thread's synchronization behaviour: a name (for diagnostics) and the
/// sequence of lock operations it can perform.
#[derive(Debug, Clone)]
pub struct ThreadModel {
    pub name: &'static str,
    pub ops: Vec<LockOp>,
}

impl ThreadModel {
    pub fn new(name: &'static str, ops: Vec<LockOp>) -> Self {
        ThreadModel { name, ops }
    }
}

/// Verify the lock discipline of `threads` over `n_locks` locks. Returns
/// one diagnostic per violation; an empty vector means the model is
/// deadlock-free by lock ordering.
pub fn check_lock_order(n_locks: usize, threads: &[ThreadModel]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Held-while-acquiring edges h -> a, with one witness thread per edge.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut witnesses: Vec<&'static str> = Vec::new();

    for t in threads {
        let mut held: BTreeSet<usize> = BTreeSet::new();
        for (i, op) in t.ops.iter().enumerate() {
            let site = |what: &str| format!("thread {} op {i} ({what})", t.name);
            match *op {
                LockOp::Acquire(id) => {
                    if id >= n_locks {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "unknown-lock",
                            site("acquire"),
                            format!("lock {id} out of range (n_locks = {n_locks})"),
                        ));
                        continue;
                    }
                    if held.contains(&id) {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "double-acquire",
                            site("acquire"),
                            format!("lock {id} acquired while already held (std::sync::Mutex is not reentrant)"),
                        ));
                        continue;
                    }
                    for &h in &held {
                        if !edges.contains(&(h, id)) {
                            edges.push((h, id));
                            witnesses.push(t.name);
                        }
                    }
                    held.insert(id);
                }
                LockOp::Release(id) => {
                    if !held.remove(&id) {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "release-unheld",
                            site("release"),
                            format!("lock {id} released but not held"),
                        ));
                    }
                }
                LockOp::Wait { mutex } => {
                    if !held.contains(&mutex) {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "wait-without-mutex",
                            site("wait"),
                            format!("condvar wait on mutex {mutex} without holding it"),
                        ));
                    } else if held.len() > 1 {
                        let extra: Vec<usize> =
                            held.iter().copied().filter(|&h| h != mutex).collect();
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "wait-holding-lock",
                            site("wait"),
                            format!(
                                "condvar wait on mutex {mutex} while also holding {extra:?}: \
                                 the extra locks stay held across the sleep and starve their waiters"
                            ),
                        ));
                    }
                    // The wait itself releases and re-acquires `mutex`; the
                    // held set is unchanged at this abstraction level.
                }
            }
        }
        if !held.is_empty() {
            let leaked: Vec<usize> = held.into_iter().collect();
            diags.push(Diagnostic::new(
                Pass::Collective,
                "lock-leak",
                format!("thread {} exit", t.name),
                format!("locks {leaked:?} still held at end of program"),
            ));
        }
    }

    let g = DiGraph { n: n_locks, edges: edges.clone() };
    if let Some(cycle) = find_cycle(&g) {
        let involved: Vec<&str> = edges
            .iter()
            .zip(&witnesses)
            .filter(|((a, b), _)| cycle.contains(a) && cycle.contains(b))
            .map(|(_, w)| *w)
            .collect();
        diags.push(Diagnostic::new(
            Pass::Collective,
            "lock-cycle",
            "lock-order graph",
            format!(
                "held-while-acquiring cycle through locks {cycle:?} (threads {involved:?}): \
                 a schedule interleaving them deadlocks"
            ),
        ));
    }
    diags
}

/// Lock ids of the serve runtime model. One mutex guards all serving state
/// (queue, counters, breaker, running-job handle); the two condvars (`work`
/// and `idle`) are both tied to it, so the runtime's lock graph has a
/// single node and no edges at all.
pub const SERVE_STATE: usize = 0;

/// The serving scheduler's synchronization design
/// (`dsi-serve::scheduler::run_scheduler`, the one worker loop of every
/// engine, its own progress watchdog included), transcribed phase by
/// phase: **admit** under the state mutex (waiting on the `work` condvar
/// when no request is queued and no sequence is resident), **execute** —
/// one engine pass that seats newcomers and advances residents — with *no*
/// lock held, and
/// **retire** under the mutex again (outcome channels are sent to only
/// after it is dropped). With a single mutex and two condvars tied to it
/// the lock graph is a single node; any second lock introduced by a future
/// scheduler change shows up here as a `lock-cycle` or `wait-holding-lock`
/// diagnostic.
pub fn continuous_scheduler_model() -> (usize, Vec<ThreadModel>) {
    use LockOp::*;
    let threads = vec![
        // submit(): page-granular admission check + enqueue, one section.
        ThreadModel::new(
            "submitter",
            vec![Acquire(SERVE_STATE), Release(SERVE_STATE)],
        ),
        // scheduler: admit (wait on `work` when idle) / execute unlocked /
        // retire and mirror pool stats under the lock.
        ThreadModel::new(
            "scheduler",
            vec![
                Acquire(SERVE_STATE),
                Wait { mutex: SERVE_STATE }, // work condvar
                Release(SERVE_STATE),
                // the engine pass + shed/replay retries run with no lock
                Acquire(SERVE_STATE),
                Release(SERVE_STATE),
                // outcome delivery happens here, after the unlock
            ],
        ),
        // drain: set the flag, then wait for quiescence on `idle`.
        ThreadModel::new(
            "drain",
            vec![
                Acquire(SERVE_STATE),
                Release(SERVE_STATE),
                Acquire(SERVE_STATE),
                Wait { mutex: SERVE_STATE }, // idle condvar (timed)
                Release(SERVE_STATE),
            ],
        ),
    ];
    (1, threads)
}

/// One event recorded by the continuous scheduler's debug-build tracer.
/// `Acquire`/`Wait`/`Release` are the *actual* state-mutex operations of
/// the live scheduler thread; `Admit`/`Execute`/`Recover`/`Retire` mark
/// which phase the surrounding work belongs to, and `Recovery` carries each
/// step a recovery takes. [`check_sched_trace`] diffs a recorded trace
/// against the scheduler thread of [`continuous_scheduler_model`];
/// [`crate::runtime::recorded_recoveries`] reads the recovery programs
/// out of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum SchedTraceOp {
    /// Top of the scheduler loop (also opens the final report section).
    IterStart,
    /// State mutex locked.
    Acquire,
    /// Condvar wait on the state mutex (park for work).
    Wait,
    /// State mutex unlocked.
    Release,
    /// Queue → slot admission work (must hold the lock).
    Admit,
    /// The engine pass (must NOT hold the lock).
    Execute,
    /// Fault recovery — the release of every resident a faulted pass
    /// advanced (must NOT hold the lock). Opens one recovery program.
    Recover,
    /// One step of the recovery program the last `Recover` opened
    /// (must NOT hold the lock).
    Recovery(RecoveryOp),
    /// Outcome accounting (must hold the lock; delivery happens after
    /// release, which is why `Retire` sits inside the second section).
    Retire,
}

/// Diff a live scheduler trace against the verified model: every iteration
/// must be a run of [`continuous_scheduler_model`]'s scheduler thread —
/// `Acquire, Wait*, Release, Acquire, Release`, truncatable at the
/// lock-free points (the idle `continue` and the drain `break` end an
/// iteration after the first release) — with each phase marker inside the
/// right section: admission in the first critical section, engine
/// execution and recovery strictly between the two, retirement in the
/// second. The projected lock ops are then re-checked with the same
/// [`check_lock_order`] that validates the hand-written model, so the live
/// path and the model cannot drift apart silently.
pub fn check_sched_trace(trace: &[SchedTraceOp]) -> Vec<Diagnostic> {
    use SchedTraceOp as T;
    let mut diags = Vec::new();
    if trace.is_empty() {
        diags.push(Diagnostic::new(
            Pass::Collective,
            "sched-trace-empty",
            "scheduler trace",
            "tracing enabled but no iteration was recorded",
        ));
        return diags;
    }
    if trace[0] != T::IterStart {
        diags.push(Diagnostic::new(
            Pass::Collective,
            "sched-trace-start",
            "scheduler trace op 0",
            format!("trace must open with IterStart, found {:?}", trace[0]),
        ));
    }

    // Split into iterations at IterStart markers.
    let mut starts: Vec<usize> = trace
        .iter()
        .enumerate()
        .filter_map(|(i, op)| (*op == T::IterStart).then_some(i))
        .collect();
    starts.push(trace.len());

    let mut projection: Vec<LockOp> = Vec::new();
    for (it, w) in starts.windows(2).enumerate() {
        let iter = &trace[w[0] + 1..w[1]];
        let site = |i: usize, op: T| format!("scheduler iteration {it} op {i} ({op:?})");
        // Section machine derived from the model's scheduler ops
        // [Acquire, Wait*, Release, Acquire, Release]:
        // 0 = before first acquire, 1 = admission section, 2 = unlocked
        // execute window, 3 = retire section, 4 = done.
        let mut sec = 0usize;
        for (i, &op) in iter.iter().enumerate() {
            match op {
                T::Acquire => {
                    projection.push(LockOp::Acquire(SERVE_STATE));
                    match sec {
                        0 => sec = 1,
                        2 => sec = 3,
                        _ => diags.push(Diagnostic::new(
                            Pass::Collective,
                            "sched-model-diff",
                            site(i, op),
                            format!("acquire in section {sec}: not a run of the scheduler model"),
                        )),
                    }
                }
                T::Release => {
                    projection.push(LockOp::Release(SERVE_STATE));
                    match sec {
                        1 => sec = 2,
                        3 => sec = 4,
                        _ => diags.push(Diagnostic::new(
                            Pass::Collective,
                            "sched-model-diff",
                            site(i, op),
                            format!("release in section {sec}: not a run of the scheduler model"),
                        )),
                    }
                }
                T::Wait => {
                    projection.push(LockOp::Wait { mutex: SERVE_STATE });
                    if sec != 1 {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "sched-model-diff",
                            site(i, op),
                            "condvar wait outside the admission critical section".to_string(),
                        ));
                    }
                }
                T::Admit => {
                    if sec != 1 {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "sched-phase-order",
                            site(i, op),
                            "admission work outside the first critical section".to_string(),
                        ));
                    }
                }
                T::Execute | T::Recover | T::Recovery(_) => {
                    if sec != 2 {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "sched-phase-order",
                            site(i, op),
                            "engine work while holding the state lock (or out of order)".to_string(),
                        ));
                    }
                }
                T::Retire => {
                    if sec != 3 {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "sched-phase-order",
                            site(i, op),
                            "retirement accounting outside the second critical section".to_string(),
                        ));
                    }
                }
                T::IterStart => unreachable!("IterStart is an iteration boundary"),
            }
        }
        // An iteration may stop early only at a lock-free point (idle
        // `continue`, drain `break`, report section): sections 2 and 4.
        if sec == 1 || sec == 3 {
            diags.push(Diagnostic::new(
                Pass::Collective,
                "sched-model-diff",
                format!("scheduler iteration {it} end"),
                "iteration ended while still holding the state lock".to_string(),
            ));
        } else if sec == 0 {
            diags.push(Diagnostic::new(
                Pass::Collective,
                "sched-model-diff",
                format!("scheduler iteration {it}"),
                "iteration performed no lock operation at all".to_string(),
            ));
        }
    }

    // The projected lock trace must also satisfy the generic discipline
    // checker the hand-written models are held to.
    diags.extend(check_lock_order(1, &[ThreadModel::new("live-scheduler", projection)]));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuous_scheduler_model_is_clean() {
        let (n, threads) = continuous_scheduler_model();
        let diags = check_lock_order(n, &threads);
        assert!(diags.is_empty(), "scheduler lock model: {diags:#?}");
    }

    #[test]
    fn ab_ba_inversion_is_a_cycle() {
        use LockOp::*;
        let threads = vec![
            ThreadModel::new("t1", vec![Acquire(0), Acquire(1), Release(1), Release(0)]),
            ThreadModel::new("t2", vec![Acquire(1), Acquire(0), Release(0), Release(1)]),
        ];
        let diags = check_lock_order(2, &threads);
        assert!(diags.iter().any(|d| d.code == "lock-cycle"), "{diags:#?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        use LockOp::*;
        let threads = vec![
            ThreadModel::new("t1", vec![Acquire(0), Acquire(1), Release(1), Release(0)]),
            ThreadModel::new("t2", vec![Acquire(0), Acquire(1), Release(1), Release(0)]),
        ];
        assert!(check_lock_order(2, &threads).is_empty());
    }

    #[test]
    fn wait_while_holding_second_lock_is_flagged() {
        use LockOp::*;
        let threads = vec![ThreadModel::new(
            "t",
            vec![
                Acquire(0),
                Acquire(1),
                Wait { mutex: 1 },
                Release(1),
                Release(0),
            ],
        )];
        let diags = check_lock_order(2, &threads);
        assert!(diags.iter().any(|d| d.code == "wait-holding-lock"), "{diags:#?}");
    }

    #[test]
    fn wait_without_mutex_is_flagged() {
        use LockOp::*;
        let threads =
            vec![ThreadModel::new("t", vec![Wait { mutex: 0 }])];
        let diags = check_lock_order(1, &threads);
        assert!(diags.iter().any(|d| d.code == "wait-without-mutex"), "{diags:#?}");
    }

    #[test]
    fn unbalanced_programs_are_flagged() {
        use LockOp::*;
        let threads = vec![
            ThreadModel::new("leaker", vec![Acquire(0)]),
            ThreadModel::new("double", vec![Acquire(0), Acquire(0)]),
            ThreadModel::new("stray", vec![Release(0)]),
        ];
        let diags = check_lock_order(1, &threads);
        for code in ["lock-leak", "double-acquire", "release-unheld"] {
            assert!(diags.iter().any(|d| d.code == code), "missing {code}: {diags:#?}");
        }
    }

    #[test]
    fn sched_trace_of_the_live_shapes_is_clean() {
        use SchedTraceOp::*;
        // Idle park, full work iteration (with recovery), drain break,
        // report section — the four shapes the live scheduler records.
        let trace = vec![
            IterStart, Acquire, Wait, Release,
            IterStart, Acquire, Admit, Release, Execute, Recover,
            Recovery(RecoveryOp::Fault { slot: 0 }), Recovery(RecoveryOp::Release { slot: 0 }),
            Recovery(RecoveryOp::Replay { slot: 0 }), Execute, Acquire, Retire, Release,
            IterStart, Acquire, Release,
            IterStart, Acquire, Release,
        ];
        let diags = check_sched_trace(&trace);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn sched_trace_retire_under_admission_lock_is_flagged() {
        use SchedTraceOp::*;
        let trace = vec![IterStart, Acquire, Admit, Retire, Release, Execute, Acquire, Release];
        let diags = check_sched_trace(&trace);
        assert!(diags.iter().any(|d| d.code == "sched-phase-order"), "{diags:#?}");
    }

    #[test]
    fn sched_trace_execute_while_locked_is_flagged() {
        use SchedTraceOp::*;
        let trace = vec![IterStart, Acquire, Admit, Execute, Release];
        let diags = check_sched_trace(&trace);
        assert!(diags.iter().any(|d| d.code == "sched-phase-order"), "{diags:#?}");
    }

    #[test]
    fn sched_trace_lock_leak_is_flagged() {
        use SchedTraceOp::*;
        let trace = vec![IterStart, Acquire, Admit, Release, Execute, Acquire, Retire];
        let diags = check_sched_trace(&trace);
        assert!(
            diags.iter().any(|d| d.code == "sched-model-diff"),
            "iteration ending locked must diff from the model: {diags:#?}"
        );
        assert!(
            diags.iter().any(|d| d.code == "lock-leak"),
            "the projected trace must also fail the generic checker: {diags:#?}"
        );
    }

    #[test]
    fn sched_trace_third_critical_section_is_flagged() {
        use SchedTraceOp::*;
        // A third lock section per iteration is not a run of the model.
        let trace = vec![
            IterStart, Acquire, Release, Execute, Acquire, Retire, Release, Acquire, Release,
        ];
        let diags = check_sched_trace(&trace);
        assert!(diags.iter().any(|d| d.code == "sched-model-diff"), "{diags:#?}");
    }

    #[test]
    fn empty_sched_trace_is_flagged() {
        let diags = check_sched_trace(&[]);
        assert!(diags.iter().any(|d| d.code == "sched-trace-empty"), "{diags:#?}");
    }
}
