//! The executed continuous-batching scheduler — iteration-level batching
//! (sequences join whenever a slot is free and retire the moment they
//! finish) over a real engine, and the **only** worker loop of the serving
//! runtime: every engine (paged, streamed, single-flight `FtEngine` at
//! `max_slots = 1`) runs under it.
//!
//! Every iteration is three phases around one ragged decode step:
//!
//! 1. **Admit** (under the state lock): pop queued jobs into free slots
//!    while fewer than [`ContinuousConfig::max_slots`] sequences are
//!    resident *and* the page pool can seat the job's prompt right now, net
//!    of the pages already promised to earlier newcomers of the same
//!    iteration.
//! 2. **Execute** (no lock): prefill newcomers (one prompt pass each),
//!    then advance every resident one token through a single ragged pass
//!    via [`BatchEngine::decode_step`]. Page growth
//!    for the step is reserved *before* compute; on exhaustion the newest
//!    resident is shed with [`EvictReason::PagesExhausted`] (its exact
//!    token prefix attached) and the step retries — never an abort, never
//!    a hang.
//! 3. **Retire** (under the lock): resolve residents that completed
//!    (`n_tokens` reached or [`eos`](crate::ServeConfig::eos) emitted),
//!    were cancelled, or passed their deadline — mid-batch, without
//!    disturbing neighbours — and account them: counters, latencies, the
//!    per-class breakers and their probes. This is the one place outcomes
//!    are accounted, so the `submitted == admitted + rejected` and
//!    `admitted == completed + evicted + deadline_expired` identities hold
//!    for every engine.
//!
//! ## Fault tolerance: prefix replay
//!
//! Engine steps run under `catch_unwind` plus an optional per-step
//! progress deadline ([`ContinuousConfig::step_deadline`]), measured on
//! the server's injected [`Clock`] and scaled by the context length for
//! prefill (one deadline per token-step of work). A panic, a typed
//! [`EngineError::Fault`], or a step that completes past the
//! deadline is a **fault**: the step's tokens (if any) are discarded and
//! every active resident is recovered by *prefix replay* — release its
//! table, then re-prefill the committed prefix
//! (`prompt ++ tokens[..len-1]`), which reproduces the last committed
//! token bit-exactly because greedy decode is a pure function of the
//! committed context. What a faulted step may have poisoned is state *past*
//! the committed prefix, which lives only in pages the resident holds
//! alone; the shared front of its table (prompt pages some prefill
//! published, see [`dsi_model::paged`]) lies wholly behind every holder's
//! write frontier and was published only after the pass that filled it
//! returned, so it is never poisoned, keeps its prefix-index entry across
//! the release, and the replay — a prefill like any other — re-attaches to
//! it instead of recomputing it. Every slot is released **before** any
//! replay reserves: each replay can attach every page it shared before the
//! fault (its committed context is no shorter than the prompt it attached
//! under) and needs no more private pages than it held, so the replays
//! together need no more distinct pages than were in use before the fault
//! and every one fits by construction — the protocol `dsi-verify`'s
//! recovery-program checker proves, on the steps this loop records (see
//! the tracer below). A resident that keeps faulting past
//! [`ContinuousConfig::replay_budget`] is evicted with the typed
//! [`EvictReason::EngineFault`]. Each fault's class feeds that class's
//! circuit breaker ([`crate::breaker::BreakerSet`]).
//!
//! Recovery leans on two wrapper guarantees (see
//! [`dsi_core::FaultyEngine`]): an injected panic fires *before* the inner
//! engine runs (its state is untouched under `catch_unwind`), and `Err`
//! from prefill means the slot is free.
//!
//! ## Debug tracer
//!
//! With [`ContinuousConfig::trace`] on (default in debug builds), the loop
//! records its actual lock acquire/release and admit/execute/recover/retire
//! ordering as [`SchedTraceOp`]s, and with them every recovery step it
//! takes — poison, release, replay, evict, per slot, a replay whose
//! prefill fails recorded as a replay followed by a release — as
//! [`SchedTraceOp::Recovery`]. It attaches the trace to the final
//! [`SchedReport`] and self-checks it at exit: the lock and phase ordering
//! against [`dsi_verify::locks::continuous_scheduler_model`] via
//! [`check_sched_trace`], and each recorded recovery program
//! ([`recorded_recoveries`]) with [`check_recovery_program`]. Neither can
//! drift from the code, because the code writes them. `cargo xtask verify`
//! runs [`live_trace_check`] as an end-to-end gate, over a continuous, a
//! single-flight and a fault-scripted server.
//!
//! Because every engine's decode is bit-identical to a solo
//! [`FastSession`](dsi_model::fast::FastSession) run (which is
//! token-identical to `FtSession` at any TP degree), every outcome's token
//! stream — full or partial — is an exact prefix of the request's solo
//! generation. The chaos suite holds serving to that oracle, faults
//! included.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use dsi_core::batch::{BatchEngine, EngineError, FaultClass};
use dsi_model::paged::PageStats;
use dsi_model::reference::GptModel;
use dsi_sim::clock::Clock;
use dsi_verify::locks::{check_sched_trace, SchedTraceOp};
use dsi_verify::runtime::{check_recovery_program, recorded_recoveries, RecoveryOp};
use dsi_verify::{Diagnostic, Pass};
use serde::Serialize;

use crate::server::{ContinuousConfig, EvictReason, Job, Outcome, Running, Server, Shared};

/// Page-allocator statistics at drain, for BENCH_robustness.json.
#[derive(Debug, Clone, Serialize)]
pub struct PageReport {
    pub pages_total: usize,
    pub page_tokens: usize,
    /// Most pages simultaneously in use over the run.
    pub high_water: usize,
    /// `pages_total - in_use - free` at drain — the allocator identity
    /// makes this 0 by construction, and the drain path asserts it.
    pub fragmentation: usize,
}

/// Scheduler-side counters and histograms, attached to the final
/// `ServeReport`.
#[derive(Debug, Clone, Serialize)]
pub struct SchedReport {
    /// Ragged decode steps executed.
    pub steps: u64,
    /// Prompt passes executed (== admissions into slots).
    pub prefills: u64,
    /// Context tokens whose rows a seating pass (admission prefill or
    /// prefix replay) computed...
    pub prompt_tokens_prefilled: u64,
    /// ...and those it found resident in pages an earlier prompt filled
    /// ([`BatchEngine::attached_tokens`]; 0 for engines that share nothing).
    pub prompt_tokens_attached: u64,
    /// `occupancy_hist[b]` = decode steps that ran with `b` residents.
    pub occupancy_hist: Vec<u64>,
    /// `tokens_per_step_hist[t]` = decode steps that emitted `t` tokens.
    /// (Every resident emits one token per step, so this tracks occupancy
    /// unless sequences retire mid-step in a later scheduler.)
    pub tokens_per_step_hist: Vec<u64>,
    /// Mean residents per decode step.
    pub mean_occupancy: f64,
    /// Requests shed with [`EvictReason::PagesExhausted`].
    pub page_evictions: u64,
    /// Step faults recovered from (each recovery replays every active
    /// resident).
    pub recoveries: u64,
    /// Prefix replays executed (committed-prefix prompt passes).
    pub replays: u64,
    /// Residents evicted with [`EvictReason::EngineFault`] after
    /// exhausting their replay budget.
    pub engine_fault_evictions: u64,
    /// Debug-build scheduler trace (lock + phase ordering of the live
    /// worker, and the recovery steps it took); empty when tracing is off.
    /// Checked by [`check_sched_trace`] and [`check_recovery_program`].
    pub trace: Vec<SchedTraceOp>,
    pub pages: PageReport,
}

/// One admitted sequence resident in an engine slot.
struct Resident {
    job: Job,
    /// Generated tokens so far (first one from prefill). Always a
    /// committed, bit-exact prefix of the request's solo generation —
    /// faulted steps never append.
    tokens: Vec<usize>,
    /// Whether the engine currently holds this slot's sequence (pages
    /// reserved). False between a recovery release and its replay.
    seated: bool,
    /// Recovery attempts charged against
    /// [`ContinuousConfig::replay_budget`].
    replays: u32,
    /// Admission order; page-exhaustion sheds the largest (newest first).
    admit_seq: u64,
}

/// How a resident leaves its slot.
enum Retire {
    Completed,
    DeadlineExpired,
    Evicted(EvictReason),
}

fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    let text = p.downcast_ref::<&str>().copied().or(p.downcast_ref::<String>().map(String::as_str));
    text.unwrap_or("engine panicked").to_string()
}

/// One engine call under `catch_unwind` and a progress budget measured on
/// the injected [`Clock`] (deterministic under a manual clock). A caught
/// panic becomes a `Panic` fault carrying its payload text; a call that
/// returns `Ok` past `budget_ns` becomes a `Timeout` fault — treating
/// lateness as a fault is what lets a stall storm trip the Timeout breaker
/// instead of silently degrading every neighbour, and bit-exact replay
/// makes discarding the late result safe. `undo_late` first takes back what
/// such a late call did. On any `Err` the caller discards the call's output.
fn guarded<E: BatchEngine, T>(
    eng: &mut E,
    clock: &Clock,
    budget_ns: Option<u64>,
    call: impl FnOnce(&mut E) -> Result<T, EngineError>,
    undo_late: impl FnOnce(&mut E),
) -> Result<T, EngineError> {
    let t0 = clock.now_ns();
    let r = catch_unwind(AssertUnwindSafe(|| call(&mut *eng)));
    let late = budget_ns.is_some_and(|b| clock.now_ns().saturating_sub(t0) > b);
    match r {
        Ok(Ok(_)) if late => {
            undo_late(eng);
            Err(EngineError::Fault {
                class: FaultClass::Timeout,
                msg: "engine call stalled past the step deadline".to_string(),
            })
        }
        Ok(r) => r,
        Err(p) => Err(EngineError::Fault { class: FaultClass::Panic, msg: panic_msg(p) }),
    }
}

/// What seating passes (admission prefills, prefix replays) and recoveries
/// have done so far.
#[derive(Default)]
struct SeatCounters {
    recoveries: u64,
    replays: u64,
    prompt_tokens_prefilled: u64,
    prompt_tokens_attached: u64,
    /// Fault classes seen this iteration; phase 3 feeds them to the
    /// per-class breakers (one `on_failure` each).
    faults: Vec<FaultClass>,
}

/// Charge one recovery attempt against the resident's budget.
fn charge_replay(r: &mut Resident, counters: &mut SeatCounters, budget: u32) -> bool {
    if r.replays >= budget {
        return false;
    }
    r.replays += 1;
    counters.replays += 1;
    true
}

/// Seat (fresh resident: admission prefill) or re-seat (recovery: prefix
/// replay) `resident` into `slot`, retrying faults against the replay
/// budget. On `Ok` the resident is seated and its last token committed;
/// `Err` names why it must be evicted instead. A replay records each
/// attempt, and a failed one also records the release the prefill contract
/// implies (`Err` from prefill means the slot is free).
fn seat_resident<E: BatchEngine>(
    eng: &mut E,
    slot: usize,
    resident: &mut Resident,
    cont: &ContinuousConfig,
    clock: &Clock,
    counters: &mut SeatCounters,
    tracer: &mut Tracer,
) -> Result<(), EvictReason> {
    let fresh = resident.tokens.is_empty();
    // The committed engine context: the prompt, plus (when replaying) every
    // generated token but the last, whose KV row is only materialized by
    // the step that consumes it.
    let committed = &resident.tokens[..resident.tokens.len().saturating_sub(1)];
    let ctx: Vec<usize> = resident.job.prompt.iter().chain(committed).copied().collect();
    // A prefill does `ctx.len()` token-steps of work in one call, so its
    // deadline scales with the context: a long but healthy prompt pass is
    // not misread as a stall.
    let budget = cont
        .step_deadline
        .map(|d| (d.as_nanos() as u64).saturating_mul(ctx.len().max(1) as u64));
    loop {
        // A late prefill seated the slot: undo the seat, so the slot is
        // free like after any other failed prefill.
        let seated = guarded(eng, clock, budget, |e| e.prefill(slot, &ctx), |e| e.release(slot));
        if !fresh {
            tracer.recovery(RecoveryOp::Replay { slot });
        }
        let err = match seated {
            Ok(tok) => {
                let attached = eng.attached_tokens(slot);
                counters.prompt_tokens_attached += attached as u64;
                counters.prompt_tokens_prefilled += (ctx.len() - attached) as u64;
                if fresh {
                    resident.tokens.push(tok);
                } else {
                    debug_assert_eq!(
                        tok,
                        *resident.tokens.last().expect("replayed resident has tokens"),
                        "prefix replay must be bit-exact"
                    );
                }
                resident.seated = true;
                return Ok(());
            }
            // Phase 1 checked the fit under the lock (net of this
            // iteration's other newcomers), but an injected allocator storm
            // (or a broken invariant) can still surface here: shed typed
            // rather than crash.
            Err(EngineError::OutOfPages { .. }) if fresh => {
                return Err(EvictReason::PagesExhausted)
            }
            Err(e) => e,
        };
        if !fresh {
            tracer.recovery(RecoveryOp::Release { slot });
        }
        // Real exhaustion is impossible during replay: every poisoned slot
        // was released before any replay reserves and replay demand never
        // exceeds pre-fault demand. Only an injected storm reaches here; it
        // burns budget like any other fault.
        let (class, msg) = match err {
            EngineError::Fault { class, msg } => (class, msg),
            oop => (FaultClass::Memory, oop.to_string()),
        };
        counters.faults.push(class);
        if !charge_replay(resident, counters, cont.replay_budget) {
            return Err(EvictReason::EngineFault { class, msg });
        }
    }
}

struct Tracer {
    on: bool,
    ops: Vec<SchedTraceOp>,
}

impl Tracer {
    fn rec(&mut self, op: SchedTraceOp) {
        if self.on {
            self.ops.push(op);
        }
    }

    fn recovery(&mut self, op: RecoveryOp) {
        self.rec(SchedTraceOp::Recovery(op));
    }
}

/// The one worker loop: runs `eng` until the server drains, then hands it
/// back (the single-flight wrapper reads the supervisor's fault report off
/// it).
pub(crate) fn run_scheduler<E: BatchEngine>(
    shared: Arc<Shared>,
    mut eng: E,
    cont: ContinuousConfig,
    eos: Option<usize>,
) -> E {
    let mut residents: Vec<Option<Resident>> = (0..cont.max_slots).map(|_| None).collect();
    let mut admit_seq = 0u64;
    let mut steps = 0u64;
    let mut prefills = 0u64;
    let (mut page_evictions, mut engine_fault_evictions) = (0u64, 0u64);
    let mut counters = SeatCounters::default();
    let mut occupancy_hist = vec![0u64; cont.max_slots + 1];
    let mut tokens_per_step_hist = vec![0u64; cont.max_slots + 1];
    let mut tracer = Tracer { on: cont.trace, ops: Vec::new() };

    loop {
        // ---- Phase 1: admit from the queue into free slots (under lock).
        tracer.rec(SchedTraceOp::IterStart);
        let mut newcomers: Vec<(usize, Job)> = Vec::new();
        {
            let mut st = shared.state.lock().unwrap();
            tracer.rec(SchedTraceOp::Acquire);
            // Newcomers prefill in phase 2, so the engine's free count does
            // not shrink as they are accepted here: track what this
            // iteration has already promised.
            let mut free = eng.kv_stats().map_or(usize::MAX, |s| s.pages_free);
            loop {
                let resident_count =
                    residents.iter().filter(|r| r.is_some()).count() + newcomers.len();
                if resident_count >= cont.max_slots {
                    break;
                }
                let Some(job) = st.queue.front() else { break };
                // Seat the prompt only if the pool can take it *now*;
                // otherwise wait for a retirement to free pages. (Queued
                // jobs are never hopeless: submit rejects prompts larger
                // than the whole pool.)
                let need = eng.pages_for(job.prompt.len() + 1);
                if need > free {
                    break;
                }
                free -= need;
                let job = st.queue.pop_front().unwrap();
                st.inflight_tokens -= job.cost;
                // Stamp the heartbeat before publishing `running`, so the
                // watchdog never reads a stale heartbeat for a fresh job.
                shared.progress_ns.store(shared.clock.now_ns(), Ordering::Release);
                st.running.push(Running { id: job.id, cancel: job.cancel.clone() });
                let slot = (0..residents.len())
                    .find(|&s| {
                        residents[s].is_none() && !newcomers.iter().any(|(t, _)| *t == s)
                    })
                    .expect("can_admit implies a free slot");
                newcomers.push((slot, job));
            }
            if !newcomers.is_empty() {
                tracer.rec(SchedTraceOp::Admit);
            }
            if newcomers.is_empty() && residents.iter().all(|r| r.is_none()) {
                if st.draining && st.queue.is_empty() {
                    drop(st);
                    tracer.rec(SchedTraceOp::Release);
                    break;
                }
                tracer.rec(SchedTraceOp::Wait);
                let st = shared.work.wait(st).unwrap();
                drop(st);
                tracer.rec(SchedTraceOp::Release);
                continue;
            }
            drop(st);
            tracer.rec(SchedTraceOp::Release);
        }

        // ---- Phase 2: execute (no lock held).
        let now = shared.clock.now_ns();
        let mut retired: Vec<(usize, Retire)> = Vec::new();
        if !newcomers.is_empty() {
            tracer.rec(SchedTraceOp::Execute);
        }
        for (slot, job) in newcomers {
            let mut resident =
                Resident { job, tokens: Vec::new(), seated: false, replays: 0, admit_seq };
            admit_seq += 1;
            // A job may be dead on arrival (cancelled or expired while
            // queued) — resolve it without spending a prompt pass.
            if let Some(why) = due(&resident, eos, now) {
                retired.push((slot, why));
            } else {
                shared.progress_ns.store(shared.clock.now_ns(), Ordering::Release);
                let seated = seat_resident(
                    &mut eng,
                    slot,
                    &mut resident,
                    &cont,
                    &shared.clock,
                    &mut counters,
                    &mut tracer,
                );
                match seated {
                    Ok(()) => prefills += 1,
                    Err(reason) => retired.push((slot, Retire::Evicted(reason))),
                }
            }
            residents[slot] = Some(resident);
        }

        // Retire checks for residents that finished at prefill (n_tokens
        // reached, EOS on the first token, cancel/deadline between steps).
        scan_retirements(&residents, eos, shared.clock.now_ns(), &mut retired);

        // One ragged decode step over everyone still live.
        let mut active: Vec<usize> = (0..residents.len())
            .filter(|&s| residents[s].is_some() && !retired.iter().any(|(rs, _)| *rs == s))
            .collect();
        if !active.is_empty() {
            tracer.rec(SchedTraceOp::Execute);
            let budget = cont.step_deadline.map(|d| d.as_nanos() as u64);
            let mut step_out = Vec::with_capacity(active.len());
            while !active.is_empty() {
                step_out.clear();
                let step = guarded(
                    &mut eng,
                    &shared.clock,
                    budget,
                    |e| e.decode_step(&active, &mut step_out),
                    |_| {},
                );
                match step {
                    Ok(()) => {
                        occupancy_hist[active.len()] += 1;
                        tokens_per_step_hist[step_out.len()] += 1;
                        steps += 1;
                        shared.progress_ns.store(shared.clock.now_ns(), Ordering::Release);
                        for (r, &slot) in active.iter().enumerate() {
                            residents[slot]
                                .as_mut()
                                .expect("active slot occupied")
                                .tokens
                                .push(step_out[r]);
                        }
                        break;
                    }
                    Err(EngineError::OutOfPages { .. }) => {
                        // Shed the newest resident and retry; nothing
                        // advanced, so every survivor's stream is intact.
                        let victim = *active
                            .iter()
                            .max_by_key(|&&s| {
                                residents[s].as_ref().expect("occupied").admit_seq
                            })
                            .expect("active is non-empty");
                        // Free the victim's pages NOW so the retry can
                        // succeed; outcome delivery waits for phase 3.
                        let v = residents[victim].as_mut().expect("occupied");
                        if v.seated {
                            eng.release(victim);
                            v.seated = false;
                        }
                        retired.push((victim, Retire::Evicted(EvictReason::PagesExhausted)));
                        active.retain(|&s| s != victim);
                    }
                    Err(EngineError::Fault { class, msg }) => {
                        // The step's output (if any) is discarded; every
                        // active resident's engine state is suspect.
                        // Recover each by prefix replay.
                        tracer.rec(SchedTraceOp::Recover);
                        counters.recoveries += 1;
                        counters.faults.push(class);
                        for &slot in &active {
                            tracer.recovery(RecoveryOp::Fault { slot });
                        }
                        // Release every poisoned slot BEFORE any replay
                        // reserves — replay demand never exceeds
                        // pre-fault demand, so all replays fit (the
                        // release-first protocol dsi-verify's recovery
                        // checker proves).
                        for &slot in &active {
                            let r = residents[slot].as_mut().expect("occupied");
                            if r.seated {
                                eng.release(slot);
                                r.seated = false;
                                tracer.recovery(RecoveryOp::Release { slot });
                            }
                        }
                        let mut keep = Vec::with_capacity(active.len());
                        for &slot in &active {
                            let r = residents[slot].as_mut().expect("occupied");
                            let seated = if charge_replay(r, &mut counters, cont.replay_budget) {
                                seat_resident(
                                    &mut eng,
                                    slot,
                                    r,
                                    &cont,
                                    &shared.clock,
                                    &mut counters,
                                    &mut tracer,
                                )
                            } else {
                                Err(EvictReason::EngineFault { class, msg: msg.clone() })
                            };
                            match seated {
                                Ok(()) => {
                                    shared
                                        .progress_ns
                                        .store(shared.clock.now_ns(), Ordering::Release);
                                    keep.push(slot);
                                }
                                Err(reason) => {
                                    tracer.recovery(RecoveryOp::Evict { slot });
                                    retired.push((slot, Retire::Evicted(reason)));
                                }
                            }
                        }
                        active = keep;
                    }
                }
            }
            // Post-step retirements: completion, EOS, cancel, deadline.
            scan_retirements(&residents, eos, shared.clock.now_ns(), &mut retired);
        }

        // ---- Phase 3: retire + account (under lock), deliver after.
        let mut deliveries: Vec<(Job, Outcome)> = Vec::new();
        {
            let mut st = shared.state.lock().unwrap();
            tracer.rec(SchedTraceOp::Acquire);
            let now = shared.clock.now_ns();
            // Fault events feed the per-class breakers first, so a probe
            // evicted by a fault of its own class sees Open (not
            // HalfOpen) when its abort is processed below.
            for class in counters.faults.drain(..) {
                st.breaker.on_failure(class, now);
            }
            if !retired.is_empty() {
                tracer.rec(SchedTraceOp::Retire);
            }
            for (slot, why) in retired {
                let Resident { job, mut tokens, seated, .. } =
                    residents[slot].take().expect("retired slot occupied");
                if seated {
                    eng.release(slot);
                }
                st.running.retain(|r| r.id != job.id);
                let outcome = match why {
                    Retire::Completed => {
                        tokens.truncate(job.n_tokens);
                        st.counters.completed += 1;
                        let latency_s = (now - job.submit_ns) as f64 / 1e9;
                        st.latencies_s.push(latency_s);
                        st.breaker.on_success(job.probe);
                        Outcome::Completed { tokens, latency_s }
                    }
                    Retire::DeadlineExpired => {
                        st.counters.deadline_expired += 1;
                        Outcome::DeadlineExpired { partial: tokens }
                    }
                    Retire::Evicted(reason) => {
                        st.counters.evicted += 1;
                        match reason {
                            EvictReason::PagesExhausted => page_evictions += 1,
                            EvictReason::EngineFault { .. } => engine_fault_evictions += 1,
                            EvictReason::Cancelled => {}
                        }
                        Outcome::Evicted { partial: tokens, reason }
                    }
                };
                // A probe that ended without an answer proved nothing: abort
                // it for an immediate re-probe (a no-op if a fault of its
                // class re-opened the breaker above).
                let answered = matches!(outcome, Outcome::Completed { .. });
                if let Some(pc) = job.probe.filter(|_| !answered) {
                    st.breaker.abort_probe(pc, now);
                }
                deliveries.push((job, outcome));
            }
            st.pool_pages = eng.kv_stats().map_or(0, |s| s.pages_in_use);
            drop(st);
            tracer.rec(SchedTraceOp::Release);
        }
        for (job, outcome) in deliveries {
            let _ = job.tx.send(outcome);
        }
        shared.idle.notify_all();
    }

    // Loop exit: draining, queue empty, no residents. Publish the
    // scheduler report and hand the final pool identity to drain's
    // asserts.
    let stats = eng.kv_stats().unwrap_or(PageStats {
        pages_total: 0,
        pages_in_use: 0,
        pages_free: 0,
        high_water: 0,
        page_tokens: 0,
    });
    let total_occ: u64 = occupancy_hist.iter().enumerate().map(|(b, &n)| b as u64 * n).sum();
    tracer.rec(SchedTraceOp::IterStart);
    let mut st = shared.state.lock().unwrap();
    tracer.rec(SchedTraceOp::Acquire);
    // The release below follows unconditionally once the report is
    // published; record it now so the attached trace is complete.
    tracer.rec(SchedTraceOp::Release);
    if tracer.on {
        let mut diags = check_sched_trace(&tracer.ops);
        for prog in recorded_recoveries(&tracer.ops) {
            diags.extend(check_recovery_program(&prog));
        }
        debug_assert!(diags.is_empty(), "live scheduler trace diverged from model: {diags:#?}");
    }
    st.pool_pages = stats.pages_in_use;
    st.sched_report = Some(SchedReport {
        steps,
        prefills,
        prompt_tokens_prefilled: counters.prompt_tokens_prefilled,
        prompt_tokens_attached: counters.prompt_tokens_attached,
        mean_occupancy: if steps > 0 { total_occ as f64 / steps as f64 } else { 0.0 },
        occupancy_hist,
        tokens_per_step_hist,
        page_evictions,
        recoveries: counters.recoveries,
        replays: counters.replays,
        engine_fault_evictions,
        trace: tracer.ops,
        pages: PageReport {
            pages_total: stats.pages_total,
            page_tokens: stats.page_tokens,
            high_water: stats.high_water,
            fragmentation: stats.pages_total - stats.pages_in_use - stats.pages_free,
        },
    });
    st.worker_done = true;
    drop(st);
    shared.idle.notify_all();
    eng
}

/// Why `r` must leave its slot now, if it must: complete (token budget or
/// EOS), cancelled, or past its deadline.
fn due(r: &Resident, eos: Option<usize>, now: u64) -> Option<Retire> {
    if r.tokens.len() >= r.job.n_tokens || (eos.is_some() && r.tokens.last() == eos.as_ref()) {
        Some(Retire::Completed)
    } else if r.job.cancel.is_cancelled() {
        Some(Retire::Evicted(EvictReason::Cancelled))
    } else if r.job.deadline_ns.is_some_and(|d| now >= d) {
        Some(Retire::DeadlineExpired)
    } else {
        None
    }
}

/// Append the retirements [`due`] finds among residents not already in
/// `out`.
fn scan_retirements(
    residents: &[Option<Resident>],
    eos: Option<usize>,
    now: u64,
    out: &mut Vec<(usize, Retire)>,
) {
    for (slot, r) in residents.iter().enumerate() {
        let Some(r) = r else { continue };
        if out.iter().any(|(s, _)| *s == slot) {
            continue;
        }
        if let Some(why) = due(r, eos, now) {
            out.push((slot, why));
        }
    }
}

/// What [`live_trace_check`] found.
#[derive(Debug)]
pub struct LiveCheck {
    /// Every diagnostic (empty = clean).
    pub diagnostics: Vec<Diagnostic>,
    /// The recovery programs the fault-scripted server recorded, one per
    /// recovery (the input of `dsi-verify`'s page-leak negative control).
    pub recoveries: Vec<Vec<RecoveryOp>>,
}

impl LiveCheck {
    /// Across [`LiveCheck::recoveries`]: replays that re-seated their
    /// slot, replays whose prefill failed (a replay, then a release), and
    /// evictions.
    pub fn recovery_shape(&self) -> (usize, usize, usize) {
        // Each op, seen together with the ops after it in its program.
        let count = |f: fn(&[RecoveryOp]) -> bool| {
            let tails = self.recoveries.iter().flat_map(|p| (0..p.len()).map(move |i| &p[i..]));
            tails.filter(|t| f(t)).count()
        };
        let failed = count(|t| match t {
            [RecoveryOp::Replay { slot }, RecoveryOp::Release { slot: s }, ..] => s == slot,
            _ => false,
        });
        let replays = count(|t| matches!(t, [RecoveryOp::Replay { .. }, ..]));
        (replays - failed, failed, count(|t| matches!(t, [RecoveryOp::Evict { .. }, ..])))
    }
}

/// Drain `srv` and check the trace its scheduler recorded: the lock and
/// phase ordering, and every recovery program in it. Returns the programs.
fn check_drained(srv: Server, diags: &mut Vec<Diagnostic>) -> Vec<Vec<RecoveryOp>> {
    let report = srv.drain(Duration::from_secs(5));
    let trace = report.scheduler.expect("the scheduler attaches its report").trace;
    diags.extend(check_sched_trace(&trace));
    let recoveries = recorded_recoveries(&trace);
    for prog in &recoveries {
        diags.extend(check_recovery_program(prog));
    }
    recoveries
}

/// End-to-end tracer gate for `cargo xtask verify`: run three short serves
/// with tracing forced on and check what each scheduler recorded — its lock
/// and phase trace against the verified lock model, its recoveries with the
/// recovery-program checker. A continuous and a single-flight server see
/// batched completions, a cancel, an idle park and a drain; a continuous
/// server under scripted engine faults must record a recovery whose replay
/// re-seats, a replay whose prefill fails, and an eviction past the replay
/// budget.
pub fn live_trace_check() -> LiveCheck {
    use crate::server::{EngineMode, Request, ServeConfig};
    use dsi_sim::fault::EngineFaultSite::{Decode, Prefill};
    use dsi_sim::fault::{EngineFaultKind, EngineFaultPlan, EngineFaultSpec};
    let model = Arc::new(GptModel::random(dsi_model::zoo::tiny(2), 7));
    let cont = ContinuousConfig {
        max_slots: 2,
        pages_total: 32,
        page_tokens: 4,
        trace: true,
        ..ContinuousConfig::default()
    };
    let mut cfg = ServeConfig::new(1);
    cfg.mode = EngineMode::Continuous(cont);
    let continuous = Server::start(Arc::clone(&model), cfg.clone());
    // The single-slot discipline is the same loop at `max_slots = 1`.
    let single = Server::start_single_flight(
        Arc::clone(&model),
        ServeConfig::new(1),
        ContinuousConfig { max_slots: 1, page_tokens: 1, ..cont },
    );
    let mut diags = Vec::new();
    for srv in [continuous, single] {
        let tickets: Vec<_> = (0..3)
            .map(|i| {
                srv.submit(Request { prompt: vec![i + 1, i + 2], n_tokens: 4, deadline: None })
                    .expect("admission")
            })
            .collect();
        let cancelled = srv
            .submit(Request { prompt: vec![9, 9], n_tokens: 16, deadline: None })
            .expect("admission");
        cancelled.cancel();
        for t in tickets {
            t.wait();
        }
        cancelled.wait();
        // Let the scheduler park at least once before draining, so the
        // trace contains the idle Wait shape too.
        std::thread::sleep(Duration::from_millis(10));
        check_drained(srv, &mut diags);
    }

    // The first request runs alone, so the first engine calls are its own:
    // decode 0 is corrupted (a recovery), so is the replay's prefill 1 (a
    // replay, then a release); prefill 2 re-seats it, and decode 1 faults
    // again with its two-replay budget spent (an eviction). Decode 4 faults
    // whoever is resident by then. Corruption, not a panic, keeps the
    // output quiet; this server exercises recovery, not the breaker.
    let faults = [Decode { call: 0 }, Prefill { call: 1 }, Decode { call: 1 }, Decode { call: 4 }]
        .map(|site| EngineFaultSpec { site, kind: EngineFaultKind::Corrupt });
    cfg.mode = EngineMode::Continuous(ContinuousConfig { replay_budget: 2, ..cont });
    cfg.engine_faults = Some(Arc::new(EngineFaultPlan::new(faults.to_vec()).injector()));
    cfg.breaker.enabled = false;
    let faulted = Server::start(model, cfg);
    let request = |i: usize| Request { prompt: vec![i + 1, i + 2], n_tokens: 6, deadline: None };
    faulted.submit(request(0)).expect("admission").wait();
    let rest: Vec<_> = (1..3).map(|i| faulted.submit(request(i)).expect("admission")).collect();
    for t in rest {
        t.wait();
    }
    let mut live = LiveCheck { recoveries: check_drained(faulted, &mut diags), diagnostics: diags };
    let (seated, failed, evicted) = live.recovery_shape();
    if seated == 0 || failed == 0 || evicted == 0 {
        let (code, site) = ("live-recovery-incomplete", "fault-scripted server, each ≥ 1");
        let recorded = &live.recoveries;
        let msg = format!("{seated} replays, {failed} failed, {evicted} evicted: {recorded:?}");
        live.diagnostics.push(Diagnostic::new(Pass::Collective, code, site, msg));
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{new_shared, ServeConfig};
    use dsi_sim::clock::{CancelToken, ManualClock};
    use std::sync::mpsc::{self, Receiver};

    /// Stub engine that advances a manual clock by a fixed amount inside
    /// every call — the deterministic stand-in for a slow/stalled step the
    /// review asked the deadline guards to be testable against.
    struct SlowEngine {
        time: ManualClock,
        advance: Duration,
        released: Vec<usize>,
    }

    impl BatchEngine for SlowEngine {
        fn max_slots(&self) -> usize {
            1
        }

        fn prefill(&mut self, _slot: usize, _prompt: &[usize]) -> Result<usize, EngineError> {
            self.time.advance(self.advance);
            Ok(7)
        }

        fn decode_step(
            &mut self,
            _slots: &[usize],
            out: &mut Vec<usize>,
        ) -> Result<(), EngineError> {
            self.time.advance(self.advance);
            out.push(7);
            Ok(())
        }

        fn release(&mut self, slot: usize) {
            self.released.push(slot);
        }
    }

    fn slow(advance_ms: u64) -> (SlowEngine, Clock) {
        let (clock, time) = Clock::manual();
        (SlowEngine { time, advance: Duration::from_millis(advance_ms), released: Vec::new() }, clock)
    }

    /// Decode through the one guard, with a per-step budget of `ms`.
    fn guarded_decode<E: BatchEngine>(
        eng: &mut E,
        clock: &Clock,
        ms: u64,
    ) -> Result<Vec<usize>, EngineError> {
        let mut out = Vec::new();
        guarded(eng, clock, Some(ms * 1_000_000), |e| e.decode_step(&[0], &mut out), |_| {})
            .map(|()| out)
    }

    #[test]
    fn decode_past_deadline_is_a_timeout_fault_under_manual_clock() {
        let (mut eng, clock) = slow(20);
        assert!(
            matches!(
                guarded_decode(&mut eng, &clock, 10),
                Err(EngineError::Fault { class: FaultClass::Timeout, .. })
            ),
            "a 20ms step against a 10ms deadline must be a timeout fault"
        );

        let (mut eng, clock) = slow(5);
        assert_eq!(guarded_decode(&mut eng, &clock, 10), Ok(vec![7]), "a 5ms step is on time");
    }

    /// A job for `prompt` whose admission pinned `cost` pages, and the
    /// receiving end of its outcome channel.
    fn job(id: u64, prompt: Vec<usize>, n_tokens: usize, cost: usize) -> (Job, Receiver<Outcome>) {
        let (tx, rx) = mpsc::channel();
        let (cancel, probe, deadline_ns) = (CancelToken::new(), None, None);
        (Job { id, prompt, n_tokens, deadline_ns, cost, cancel, probe, submit_ns: 0, tx }, rx)
    }

    /// An admitted resident for `prompt`, not yet seated.
    fn resident(prompt: Vec<usize>) -> Resident {
        let job = job(0, prompt, 4, 0).0;
        Resident { job, tokens: Vec::new(), seated: false, replays: 0, admit_seq: 0 }
    }

    #[test]
    fn prefill_deadline_scales_with_context_length() {
        let cont = ContinuousConfig {
            step_deadline: Some(Duration::from_millis(10)),
            replay_budget: 0,
            ..ContinuousConfig::default()
        };
        let mut tracer = Tracer { on: false, ops: Vec::new() };
        let mut counters = SeatCounters::default();

        // 4 context tokens buy a 40ms budget: a 20ms prefill is healthy,
        // not a stall.
        let (mut eng, clock) = slow(20);
        let mut r = resident(vec![1, 2, 3, 4]);
        let seated = seat_resident(&mut eng, 0, &mut r, &cont, &clock, &mut counters, &mut tracer);
        assert_eq!(seated, Ok(()), "long prompt must get a scaled budget");
        assert!(eng.released.is_empty());

        // 50ms blows even the scaled budget: timeout fault, seat undone.
        let (mut eng, clock) = slow(50);
        let mut r = resident(vec![1, 2, 3, 4]);
        let seated = seat_resident(&mut eng, 0, &mut r, &cont, &clock, &mut counters, &mut tracer);
        assert!(
            matches!(seated, Err(EvictReason::EngineFault { class: FaultClass::Timeout, .. })),
            "a stalled prefill must still be caught, got {seated:?}"
        );
        assert_eq!(eng.released, [0], "late prefill must release its seat");
    }

    /// Stub engine whose every call panics, with a `&str` payload in
    /// prefill and a `String` one in decode.
    struct PanicEngine;

    impl BatchEngine for PanicEngine {
        fn max_slots(&self) -> usize {
            1
        }

        fn prefill(&mut self, _slot: usize, _prompt: &[usize]) -> Result<usize, EngineError> {
            panic!("prefill kernel assert")
        }

        fn decode_step(&mut self, rows: &[usize], _: &mut Vec<usize>) -> Result<(), EngineError> {
            panic!("decode kernel assert on {} rows", rows.len())
        }

        fn release(&mut self, _slot: usize) {}
    }

    #[test]
    fn one_guard_maps_panics_and_late_returns_to_classed_faults() {
        let (clock, _time) = Clock::manual();
        let prefill = guarded(&mut PanicEngine, &clock, None, |e| e.prefill(0, &[1]), |_| {});
        let panic = |msg: &str| EngineError::Fault { class: FaultClass::Panic, msg: msg.into() };
        assert_eq!(prefill, Err(panic("prefill kernel assert")));
        let decode = guarded_decode(&mut PanicEngine, &clock, 10);
        assert_eq!(decode, Err(panic("decode kernel assert on 1 rows")));

        // A prefill that returns late is a timeout, and its seat is undone.
        let (mut eng, clock) = slow(20);
        let late = guarded(&mut eng, &clock, Some(10_000_000), |e| e.prefill(0, &[1]), |e| {
            e.release(0)
        });
        assert!(matches!(late, Err(EngineError::Fault { class: FaultClass::Timeout, .. })));
        assert_eq!(eng.released, [0], "late prefill must release its seat");
    }

    #[test]
    fn live_recoveries_are_recorded_and_checked() {
        let live = live_trace_check();
        assert!(live.diagnostics.is_empty(), "{:#?}", live.diagnostics);
        let (seated, failed, evicted) = live.recovery_shape();
        assert!(seated >= 1 && failed >= 1 && evicted >= 1, "{:?}", live.recoveries);
        // The live recording is what the page-leak control mutates.
        let recorded = dsi_verify::sweep::record_live();
        let controls = dsi_verify::sweep::negative_controls(&live.recoveries, &recorded);
        assert!(dsi_verify::sweep::controls_all_fire(&controls));
    }

    /// Stub engine over a pool of one-token pages: a prefill pins
    /// `prompt + 1` of them until the slot is released.
    struct PoolEngine {
        total: usize,
        held: Vec<usize>,
    }

    impl BatchEngine for PoolEngine {
        fn max_slots(&self) -> usize {
            self.held.len()
        }

        fn prefill(&mut self, slot: usize, prompt: &[usize]) -> Result<usize, EngineError> {
            let (needed, free) = (prompt.len() + 1, self.kv_stats().unwrap().pages_free);
            if needed > free {
                return Err(EngineError::OutOfPages { needed, free });
            }
            self.held[slot] = needed;
            Ok(7)
        }

        fn decode_step(
            &mut self,
            slots: &[usize],
            out: &mut Vec<usize>,
        ) -> Result<(), EngineError> {
            out.extend(slots.iter().map(|_| 7));
            Ok(())
        }

        fn release(&mut self, slot: usize) {
            self.held[slot] = 0;
        }

        fn kv_stats(&self) -> Option<PageStats> {
            let in_use = self.held.iter().sum();
            Some(PageStats {
                pages_total: self.total,
                pages_in_use: in_use,
                pages_free: self.total - in_use,
                high_water: 0,
                page_tokens: 1,
            })
        }
    }

    #[test]
    fn newcomers_of_one_iteration_share_the_free_pages() {
        // Two queued jobs of 3 pages each against 4 free pages and 2 free
        // slots: each fits, both do not. The second must wait for the
        // first to retire — not be admitted on the stale free count, fail
        // its prefill, and be evicted without ever having run.
        let cont = ContinuousConfig {
            max_slots: 2,
            pages_total: 4,
            page_tokens: 1,
            trace: true,
            ..ContinuousConfig::default()
        };
        let shared = new_shared(&ServeConfig::new(1));
        let mut tickets = Vec::new();
        {
            let mut st = shared.state.lock().unwrap();
            for id in 0..2 {
                let (job, rx) = job(id, vec![1, 2], 3, 3);
                tickets.push(rx);
                st.inflight_tokens += 3;
                st.queue.push_back(job);
            }
            st.draining = true; // exit once both have resolved
        }
        run_scheduler(Arc::clone(&shared), PoolEngine { total: 4, held: vec![0; 2] }, cont, None);
        for (id, rx) in tickets.into_iter().enumerate() {
            let outcome = rx.recv().expect("resolved");
            assert!(
                matches!(&outcome, Outcome::Completed { tokens, .. } if tokens == &[7, 7, 7]),
                "job {id} must wait its turn and complete, got {outcome:?}"
            );
        }
        let st = shared.state.lock().unwrap();
        assert_eq!(st.sched_report.as_ref().unwrap().page_evictions, 0);
        assert_eq!((st.inflight_tokens, st.pool_pages), (0, 0));
    }
}
