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
//! recovery-program checker proves. A resident that keeps faulting past
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
//! ordering as [`SchedTraceOp`]s, attaches the trace to the final
//! [`SchedReport`], and self-checks it against
//! [`dsi_verify::locks::continuous_scheduler_model`] via
//! [`check_sched_trace`] at exit — the recovery transitions cannot drift
//! from the verified model. `cargo xtask verify` runs [`live_trace_check`]
//! as an end-to-end gate, over a continuous and a single-flight server.
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
use serde::Serialize;

use crate::server::{ContinuousConfig, EvictReason, Job, Outcome, Running, Shared};

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
    /// worker); empty when tracing is off. Checked against the verified
    /// model by [`check_sched_trace`].
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

enum Retire {
    Completed,
    Cancelled,
    DeadlineExpired,
    PagesExhausted,
    EngineFault { class: FaultClass, msg: String },
}

/// Outcome of one guarded engine call.
enum StepVerdict<T> {
    Ok(T),
    OutOfPages,
    Fault { class: FaultClass, msg: String },
}

fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked".to_string()
    }
}

/// Prefill under `catch_unwind` + the step deadline. A success that lands
/// past the deadline is treated as a timeout fault: the seat is undone
/// (release) and the caller replays — bit-exactness makes the discard
/// safe, and treating lateness as a fault is what lets a stall storm trip
/// the Timeout breaker instead of silently degrading every neighbour.
///
/// Lateness is measured on the injected [`Clock`] (deterministic under a
/// manual clock), and the deadline scales with the context length: a
/// prefill does `prompt.len()` token-steps of work in one call, so a long
/// but healthy prompt pass is not misread as a stall.
fn guarded_prefill<E: BatchEngine>(
    eng: &mut E,
    slot: usize,
    prompt: &[usize],
    deadline: Option<Duration>,
    clock: &Clock,
) -> StepVerdict<usize> {
    let t0 = clock.now_ns();
    let r = catch_unwind(AssertUnwindSafe(|| eng.prefill(slot, prompt)));
    let late = deadline.is_some_and(|d| {
        let budget = (d.as_nanos() as u64).saturating_mul(prompt.len().max(1) as u64);
        clock.now_ns().saturating_sub(t0) > budget
    });
    match r {
        Ok(Ok(tok)) if !late => StepVerdict::Ok(tok),
        Ok(Ok(_)) => {
            // Seated, but past the progress deadline: undo the seat and
            // report a timeout fault (the slot is free again — the
            // prefill contract the caller relies on).
            eng.release(slot);
            StepVerdict::Fault {
                class: FaultClass::Timeout,
                msg: "prefill stalled past the step deadline".to_string(),
            }
        }
        Ok(Err(EngineError::OutOfPages { .. })) => StepVerdict::OutOfPages,
        Ok(Err(EngineError::Fault { class, msg })) => StepVerdict::Fault { class, msg },
        Err(p) => StepVerdict::Fault { class: FaultClass::Panic, msg: panic_msg(p) },
    }
}

/// One ragged decode step under `catch_unwind` + the step deadline. On any
/// fault verdict the contents of `out` are untrustworthy and the caller
/// must discard them and replay every active resident.
fn guarded_decode<E: BatchEngine>(
    eng: &mut E,
    slots: &[usize],
    out: &mut Vec<usize>,
    deadline: Option<Duration>,
    clock: &Clock,
) -> StepVerdict<()> {
    let t0 = clock.now_ns();
    let r = catch_unwind(AssertUnwindSafe(|| eng.decode_step(slots, out)));
    let late =
        deadline.is_some_and(|d| clock.now_ns().saturating_sub(t0) > d.as_nanos() as u64);
    match r {
        Ok(Ok(())) if !late => StepVerdict::Ok(()),
        Ok(Ok(())) => StepVerdict::Fault {
            class: FaultClass::Timeout,
            msg: "decode step stalled past the step deadline".to_string(),
        },
        Ok(Err(EngineError::OutOfPages { .. })) => StepVerdict::OutOfPages,
        Ok(Err(EngineError::Fault { class, msg })) => StepVerdict::Fault { class, msg },
        Err(p) => StepVerdict::Fault { class: FaultClass::Panic, msg: panic_msg(p) },
    }
}

/// What seating passes (admission prefills, prefix replays) and recoveries
/// have done so far.
#[derive(Default)]
struct SeatCounters {
    recoveries: u64,
    replays: u64,
    engine_fault_evictions: u64,
    prompt_tokens_prefilled: u64,
    prompt_tokens_attached: u64,
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
/// replay) `resident` into `slot`, retrying injected faults against the
/// replay budget. Returns `Some(retire)` when the resident must be retired
/// instead. On `None` the resident is seated and its last token committed.
fn seat_resident<E: BatchEngine>(
    eng: &mut E,
    slot: usize,
    resident: &mut Resident,
    cont: &ContinuousConfig,
    clock: &Clock,
    fault_events: &mut Vec<FaultClass>,
    counters: &mut SeatCounters,
) -> Option<Retire> {
    loop {
        let fresh = resident.tokens.is_empty();
        let ctx: Vec<usize> = if fresh {
            resident.job.prompt.clone()
        } else {
            // The committed engine context: prompt plus every generated
            // token except the last (whose KV row is only materialized by
            // the step that consumes it).
            resident
                .job
                .prompt
                .iter()
                .chain(&resident.tokens[..resident.tokens.len() - 1])
                .copied()
                .collect()
        };
        match guarded_prefill(eng, slot, &ctx, cont.step_deadline, clock) {
            StepVerdict::Ok(tok) => {
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
                return None;
            }
            StepVerdict::OutOfPages if fresh => {
                // Phase 1 checked the fit under the lock (net of this
                // iteration's other newcomers), but an injected allocator
                // storm (or a broken invariant) can still surface here:
                // shed typed rather than crash.
                return Some(Retire::PagesExhausted);
            }
            StepVerdict::OutOfPages => {
                // Real exhaustion is impossible during replay: every
                // poisoned slot was released before any replay reserves
                // and replay demand never exceeds pre-fault demand. Only an
                // injected storm reaches this arm; it burns budget like
                // any other fault.
                fault_events.push(FaultClass::Memory);
                if !charge_replay(resident, counters, cont.replay_budget) {
                    return Some(Retire::EngineFault {
                        class: FaultClass::Memory,
                        msg: "replay budget exhausted under allocator storm".to_string(),
                    });
                }
            }
            StepVerdict::Fault { class, msg } => {
                fault_events.push(class);
                if !charge_replay(resident, counters, cont.replay_budget) {
                    return Some(Retire::EngineFault { class, msg });
                }
            }
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
    let mut page_evictions = 0u64;
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
        // Fault classes observed this iteration; fed to the per-class
        // breakers in phase 3 (one `on_failure` per event).
        let mut fault_events: Vec<FaultClass> = Vec::new();
        if !newcomers.is_empty() {
            tracer.rec(SchedTraceOp::Execute);
        }
        for (slot, job) in newcomers {
            // A job may be dead on arrival (cancelled or expired while
            // queued) — resolve it without spending a prompt pass.
            let mut resident =
                Resident { job, tokens: Vec::new(), seated: false, replays: 0, admit_seq };
            admit_seq += 1;
            if resident.job.cancel.is_cancelled() {
                residents[slot] = Some(resident);
                retired.push((slot, Retire::Cancelled));
            } else if resident.job.deadline_ns.is_some_and(|d| now >= d) {
                residents[slot] = Some(resident);
                retired.push((slot, Retire::DeadlineExpired));
            } else {
                shared.progress_ns.store(shared.clock.now_ns(), Ordering::Release);
                let retire = seat_resident(
                    &mut eng,
                    slot,
                    &mut resident,
                    &cont,
                    &shared.clock,
                    &mut fault_events,
                    &mut counters,
                );
                match retire {
                    None => prefills += 1,
                    Some(Retire::PagesExhausted) => page_evictions += 1,
                    Some(Retire::EngineFault { .. }) => counters.engine_fault_evictions += 1,
                    Some(_) => unreachable!("seat_resident retires typed page/fault only"),
                }
                residents[slot] = Some(resident);
                if let Some(why) = retire {
                    retired.push((slot, why));
                }
            }
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
            let mut step_out = Vec::with_capacity(active.len());
            loop {
                if active.is_empty() {
                    break;
                }
                step_out.clear();
                match guarded_decode(
                    &mut eng,
                    &active,
                    &mut step_out,
                    cont.step_deadline,
                    &shared.clock,
                ) {
                    StepVerdict::Ok(()) => {
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
                    StepVerdict::OutOfPages => {
                        // Shed the newest resident and retry; nothing
                        // advanced, so every survivor's stream is intact.
                        let victim = *active
                            .iter()
                            .max_by_key(|&&s| {
                                residents[s].as_ref().expect("occupied").admit_seq
                            })
                            .expect("active is non-empty");
                        page_evictions += 1;
                        // Free the victim's pages NOW so the retry can
                        // succeed; outcome delivery waits for phase 3.
                        let v = residents[victim].as_mut().expect("occupied");
                        if v.seated {
                            eng.release(victim);
                            v.seated = false;
                        }
                        retired.push((victim, Retire::PagesExhausted));
                        active.retain(|&s| s != victim);
                    }
                    StepVerdict::Fault { class, msg } => {
                        // The step's output (if any) is discarded; every
                        // active resident's engine state is suspect.
                        // Recover each by prefix replay.
                        tracer.rec(SchedTraceOp::Recover);
                        counters.recoveries += 1;
                        fault_events.push(class);
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
                            }
                        }
                        let mut keep = Vec::with_capacity(active.len());
                        for &slot in &active {
                            let r = residents[slot].as_mut().expect("occupied");
                            let retire = if !charge_replay(r, &mut counters, cont.replay_budget)
                            {
                                Some(Retire::EngineFault { class, msg: msg.clone() })
                            } else {
                                seat_resident(
                                    &mut eng,
                                    slot,
                                    r,
                                    &cont,
                                    &shared.clock,
                                    &mut fault_events,
                                    &mut counters,
                                )
                            };
                            match retire {
                                None => {
                                    shared
                                        .progress_ns
                                        .store(shared.clock.now_ns(), Ordering::Release);
                                    keep.push(slot);
                                }
                                Some(why) => {
                                    if matches!(why, Retire::EngineFault { .. }) {
                                        counters.engine_fault_evictions += 1;
                                    } else {
                                        page_evictions += 1;
                                    }
                                    retired.push((slot, why));
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
            for class in fault_events.drain(..) {
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
                    Retire::Cancelled => {
                        st.counters.evicted += 1;
                        if let Some(pc) = job.probe {
                            st.breaker.abort_probe(pc, now);
                        }
                        Outcome::Evicted { partial: tokens, reason: EvictReason::Cancelled }
                    }
                    Retire::DeadlineExpired => {
                        st.counters.deadline_expired += 1;
                        if let Some(pc) = job.probe {
                            st.breaker.abort_probe(pc, now);
                        }
                        Outcome::DeadlineExpired { partial: tokens }
                    }
                    Retire::PagesExhausted => {
                        st.counters.evicted += 1;
                        if let Some(pc) = job.probe {
                            st.breaker.abort_probe(pc, now);
                        }
                        Outcome::Evicted { partial: tokens, reason: EvictReason::PagesExhausted }
                    }
                    Retire::EngineFault { class, msg } => {
                        st.counters.evicted += 1;
                        // The class breaker already counted the underlying
                        // fault events; a probe evicted this way proved
                        // nothing (abort_probe no-ops if the class
                        // breaker re-opened above).
                        if let Some(pc) = job.probe {
                            st.breaker.abort_probe(pc, now);
                        }
                        Outcome::Evicted {
                            partial: tokens,
                            reason: EvictReason::EngineFault { class, msg },
                        }
                    }
                };
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
        let diags = check_sched_trace(&tracer.ops);
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
        engine_fault_evictions: counters.engine_fault_evictions,
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

/// Append retirements for residents that are complete (token budget or
/// EOS), cancelled, or past deadline — skipping slots already in `out`.
fn scan_retirements(
    residents: &[Option<Resident>],
    eos: Option<usize>,
    now: u64,
    out: &mut Vec<(usize, Retire)>,
) {
    for (slot, r) in residents.iter().enumerate() {
        let Some(r) = r else { continue };
        if r.tokens.is_empty() || out.iter().any(|(s, _)| *s == slot) {
            continue;
        }
        if r.tokens.len() >= r.job.n_tokens
            || (eos.is_some() && r.tokens.last() == eos.as_ref())
        {
            out.push((slot, Retire::Completed));
        } else if r.job.cancel.is_cancelled() {
            out.push((slot, Retire::Cancelled));
        } else if r.job.deadline_ns.is_some_and(|d| now >= d) {
            out.push((slot, Retire::DeadlineExpired));
        }
    }
}

/// End-to-end tracer gate for `cargo xtask verify`: run a short continuous
/// serve and a short single-flight serve with tracing forced on — batched
/// completions, a cancel, an idle park, a drain — and diff each live
/// scheduler trace against the verified lock model. Returns the
/// diagnostics (empty = clean).
pub fn live_trace_check() -> Vec<dsi_verify::Diagnostic> {
    use crate::server::{EngineMode, Request, ServeConfig, Server};
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
    let continuous = Server::start(Arc::clone(&model), cfg);
    // The single-slot discipline is the same loop at `max_slots = 1`.
    let single = Server::start_single_flight(
        model,
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
        let report = srv.drain(Duration::from_secs(5));
        let trace = report.scheduler.expect("the scheduler attaches its report").trace;
        diags.extend(check_sched_trace(&trace));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{new_shared, ServeConfig};
    use dsi_sim::clock::{CancelToken, ManualClock};
    use std::sync::mpsc;

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

    #[test]
    fn decode_past_deadline_is_a_timeout_fault_under_manual_clock() {
        let deadline = Some(Duration::from_millis(10));
        let mut out = Vec::new();

        let (mut eng, clock) = slow(20);
        let v = guarded_decode(&mut eng, &[0], &mut out, deadline, &clock);
        assert!(
            matches!(v, StepVerdict::Fault { class: FaultClass::Timeout, .. }),
            "a 20ms step against a 10ms deadline must be a timeout fault"
        );

        let (mut eng, clock) = slow(5);
        out.clear();
        let v = guarded_decode(&mut eng, &[0], &mut out, deadline, &clock);
        assert!(matches!(v, StepVerdict::Ok(())), "a 5ms step is on time");
        assert_eq!(out, [7]);
    }

    #[test]
    fn prefill_deadline_scales_with_context_length() {
        let deadline = Some(Duration::from_millis(10));

        // 4 context tokens buy a 40ms budget: a 20ms prefill is healthy,
        // not a stall — the long-prompt false-positive the review flagged.
        let (mut eng, clock) = slow(20);
        let v = guarded_prefill(&mut eng, 0, &[1, 2, 3, 4], deadline, &clock);
        assert!(matches!(v, StepVerdict::Ok(7)), "long prompt must get a scaled budget");
        assert!(eng.released.is_empty());

        // 50ms blows even the scaled budget: timeout fault, seat undone.
        let (mut eng, clock) = slow(50);
        let v = guarded_prefill(&mut eng, 0, &[1, 2, 3, 4], deadline, &clock);
        assert!(
            matches!(v, StepVerdict::Fault { class: FaultClass::Timeout, .. }),
            "a stalled prefill must still be caught"
        );
        assert_eq!(eng.released, [0], "late prefill must release its seat");
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
                let (tx, rx) = mpsc::channel();
                tickets.push(rx);
                st.inflight_tokens += 3;
                st.queue.push_back(Job {
                    id,
                    prompt: vec![1, 2],
                    n_tokens: 3,
                    deadline_ns: None,
                    cost: 3,
                    cancel: CancelToken::new(),
                    probe: None,
                    submit_ns: 0,
                    tx,
                });
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
