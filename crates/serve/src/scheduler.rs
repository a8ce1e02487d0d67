//! The executed continuous-batching scheduler — iteration-level batching
//! (sequences join whenever a slot is free and retire the moment they
//! finish) over a real engine, and the **only** worker loop of the serving
//! runtime: every engine (resident, streamed, a TP group) runs under it.
//!
//! Every iteration is three phases around **one** engine pass
//! ([`BatchEngine::pass`]), the paper's hybrid schedule (Sec. IV-B): prompt
//! rows and generation rows share the pass, so the weights stream once per
//! iteration rather than once per prompt plus once for decode.
//!
//! 1. **Admit** (under the state lock): pop queued jobs into free slots
//!    while fewer than [`ContinuousConfig::max_slots`] sequences are
//!    resident *and* the page pool can seat the job's prompt right now, net
//!    of the pages promised to every resident still *waiting* for a seat.
//! 2. **Execute** (no lock): one pass in which every *seated* resident
//!    advances one token and *waiting* residents — newcomers, and residents
//!    a fault released — are seated with their context, oldest first, while
//!    the seats' summed context stays within
//!    [`ServeConfig::max_prompt`](crate::ServeConfig::max_prompt) (the first
//!    always goes; the rest wait for the next iteration). The engine
//!    reserves the pass's pages *before* compute; on exhaustion the pass's
//!    newest resident is shed with [`EvictReason::PagesExhausted`] (its
//!    exact token prefix attached) and the pass retries — never an abort,
//!    never a hang.
//!    After each pass attempt the loop is its own watchdog: with no
//!    progress (an admission or a pass that succeeded) within
//!    [`ServeConfig::progress_timeout`](crate::ServeConfig::progress_timeout),
//!    it cancels every resident.
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
//! The pass runs under `catch_unwind` plus an optional progress deadline
//! ([`ContinuousConfig::step_deadline`]), measured on the server's injected
//! [`Clock`] and scaled by the pass's work (one deadline per context token
//! it seats, plus one if it advances anyone). A panic, a typed
//! [`EngineError::Fault`], or a pass that completes past the deadline is a
//! **fault**: the pass's tokens (if any) are discarded, its seats are free
//! again, and every resident it advanced is released and joins the
//! waiting residents, to be seated again by *prefix replay* — its context
//! is its committed prefix (`prompt ++ tokens[..len-1]`), and seating it
//! reproduces the last committed token bit-exactly because greedy decode
//! is a pure function of the committed context. Every resident of a faulted
//! pass is charged one replay, and the pass retries with them waiting.
//! What a faulted pass may have poisoned is state *past* the committed
//! prefix, which lives only in pages the resident holds alone; the shared
//! front of its table (prompt pages some pass published, see
//! [`dsi_model::paged`]) lies wholly behind every holder's write frontier
//! and stays indexed only once the pass that filled it returned, so it is
//! never poisoned, keeps its prefix-index entry across the release, and the
//! replay — a seat like any other — re-attaches to it instead of
//! recomputing it. Every faulted slot is released **before** any replay
//! reserves, and admission promises every waiting resident its pages, so
//! the replays fit. The engine enforces the release-first half itself:
//! [`Engine`](dsi_model::paged::Engine) asserts on every seat that its slot
//! is free. The guard below turns that panic into a fault like any other,
//! so the chaos sweeps fail on every panic no fault plan scripted. A
//! resident that keeps faulting past [`ContinuousConfig::replay_budget`] is
//! evicted with the typed [`EvictReason::EngineFault`], and only that
//! eviction — a request the engine's faults ended — counts against its
//! class's circuit breaker ([`crate::breaker::BreakerSet`]), as a completion
//! resets it. A fault a replay recovers from is counted in
//! [`SchedReport::recoveries`] and [`SchedReport::replays`], not by the
//! breaker.
//!
//! Recovery leans on two wrapper guarantees (see
//! [`dsi_core::FaultyEngine`]): an injected panic fires *before* the inner
//! engine runs (its state is untouched under `catch_unwind`), and `Err`
//! from a pass means every seat is free.
//!
//! Because every engine's decode is bit-identical to a solo
//! [`FastSession`](dsi_model::fast::FastSession) run (and a TP group's is
//! token-identical to it at any degree), every outcome's token stream —
//! full or partial — is an exact prefix of the request's solo generation.
//! The chaos suite holds serving to that oracle, faults included.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use dsi_core::batch::{BatchEngine, EngineError, FaultClass};
use dsi_model::paged::PageStats;
use dsi_sim::clock::Clock;
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
    /// Engine passes executed: one per iteration that had a resident.
    pub steps: u64,
    /// Newcomers seated (== admissions that reached a pass).
    pub prefills: u64,
    /// Context tokens whose rows a seat (a newcomer or a prefix replay)
    /// computed...
    pub prompt_tokens_prefilled: u64,
    /// ...and those it found resident in pages an earlier prompt filled
    /// ([`BatchEngine::attached_tokens`]; 0 for engines that share nothing).
    pub prompt_tokens_attached: u64,
    /// `occupancy_hist[b]` = passes that ran with `b` residents, seated and
    /// advanced.
    pub occupancy_hist: Vec<u64>,
    /// `tokens_per_step_hist[t]` = passes that emitted `t` tokens. (Every
    /// resident of a pass emits one token, so this tracks occupancy.)
    pub tokens_per_step_hist: Vec<u64>,
    /// Mean residents per pass.
    pub mean_occupancy: f64,
    /// Requests shed with [`EvictReason::PagesExhausted`].
    pub page_evictions: u64,
    /// Pass faults recovered from (each releases every resident the pass
    /// advanced, for prefix replay).
    pub recoveries: u64,
    /// Prefix replays charged: one per resident of each faulted pass.
    pub replays: u64,
    /// Residents evicted with [`EvictReason::EngineFault`] after
    /// exhausting their replay budget.
    pub engine_fault_evictions: u64,
    pub pages: PageReport,
}

/// One admitted sequence resident in an engine slot.
struct Resident {
    job: Job,
    /// Generated tokens so far (the first from the pass that seated it).
    /// Always a committed, bit-exact prefix of the request's solo
    /// generation — faulted passes never append.
    tokens: Vec<usize>,
    /// Whether the engine currently holds this slot's sequence (pages
    /// reserved). False while it waits for a seat: a newcomer, or a
    /// resident a fault released.
    seated: bool,
    /// Recovery attempts charged against
    /// [`ContinuousConfig::replay_budget`].
    replays: u32,
    /// Admission order; seats go oldest first, page exhaustion sheds the
    /// newest.
    admit_seq: u64,
}

impl Resident {
    /// Length of the committed engine context: the prompt, plus every
    /// generated token but the last, whose KV row only the pass that
    /// consumes it writes.
    fn context_len(&self) -> usize {
        self.job.prompt.len() + self.tokens.len().saturating_sub(1)
    }

    /// The committed engine context itself, what a pass seats.
    fn context(&self) -> Vec<usize> {
        let committed = &self.tokens[..self.tokens.len().saturating_sub(1)];
        self.job.prompt.iter().chain(committed).copied().collect()
    }
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

/// The one worker loop: runs `eng` until the server drains, then hands it
/// back (its fault report is read off it). `max_prompt` bounds the
/// context a pass seats beyond its first seat; `progress_timeout` arms the
/// watchdog.
pub(crate) fn run_scheduler<E: BatchEngine>(
    shared: Arc<Shared>,
    mut eng: E,
    cont: ContinuousConfig,
    eos: Option<usize>,
    max_prompt: usize,
    progress_timeout: Option<Duration>,
) -> E {
    let mut residents: Vec<Option<Resident>> = (0..cont.max_slots).map(|_| None).collect();
    let mut admit_seq = 0u64;
    let (mut steps, mut prefills) = (0u64, 0u64);
    let (mut page_evictions, mut engine_fault_evictions) = (0u64, 0u64);
    let (mut recoveries, mut replays) = (0u64, 0u64);
    let (mut prompt_tokens_prefilled, mut prompt_tokens_attached) = (0u64, 0u64);
    let mut occupancy_hist = vec![0u64; cont.max_slots + 1];
    let mut tokens_per_step_hist = vec![0u64; cont.max_slots + 1];
    let mut out = Vec::with_capacity(cont.max_slots);
    // Serve-clock ns of the last admission or successful pass, and the
    // watchdog's fires not yet added to the books.
    let mut last_progress = shared.clock.now_ns();
    let mut watchdog_fires = 0u64;

    loop {
        // ---- Phase 1: admit from the queue into free slots (under lock).
        {
            let mut st = shared.state.lock().unwrap();
            // Waiting residents seat in phase 2, so the engine's free count
            // does not show them yet: promise each its pages first.
            let promised: usize = residents
                .iter()
                .flatten()
                .filter(|r| !r.seated)
                .map(|r| eng.pages_for(r.context_len() + 1))
                .sum();
            let mut free = eng.kv_stats().map_or(usize::MAX, |s| s.pages_free.saturating_sub(promised));
            while let Some(slot) = residents.iter().position(Option::is_none) {
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
                last_progress = shared.clock.now_ns();
                st.running.push(Running { id: job.id, cancel: job.cancel.clone() });
                residents[slot] =
                    Some(Resident { job, tokens: Vec::new(), seated: false, replays: 0, admit_seq });
                admit_seq += 1;
            }
            if residents.iter().all(Option::is_none) {
                if st.draining && st.queue.is_empty() {
                    break;
                }
                let st = shared.work.wait(st).unwrap();
                drop(st);
                continue;
            }
        }

        // ---- Phase 2: one pass (no lock held).
        // Residents that are done, cancelled or expired — a job may be dead
        // on arrival — leave without spending pass rows.
        let mut retired: Vec<(usize, Retire)> = Vec::new();
        scan_retirements(&residents, eos, shared.clock.now_ns(), &mut retired);
        let (mut advance, mut waiting): (Vec<usize>, Vec<usize>) = (0..residents.len())
            .filter(|&s| residents[s].is_some() && !retired.iter().any(|(rs, _)| *rs == s))
            .partition(|&s| residents[s].as_ref().is_some_and(|r| r.seated));
        while !(advance.is_empty() && waiting.is_empty()) {
            let resident = |s: usize| residents[s].as_ref().expect("pass slot occupied");
            // Seat the oldest waiting residents while their contexts fit
            // `max_prompt`; the first always goes.
            waiting.sort_by_key(|&s| resident(s).admit_seq);
            let mut ctxs: Vec<(usize, Vec<usize>)> = Vec::new();
            let mut room = max_prompt;
            for &s in &waiting {
                let n = resident(s).context_len();
                if !ctxs.is_empty() && n > room {
                    break;
                }
                room = room.saturating_sub(n);
                ctxs.push((s, resident(s).context()));
            }
            let seats: Vec<(usize, &[usize])> = ctxs.iter().map(|(s, c)| (*s, &c[..])).collect();
            // One deadline per context token seated, plus one for the step.
            let work = ctxs.iter().map(|(_, c)| c.len()).sum::<usize>() + usize::from(!advance.is_empty());
            let budget = cont.step_deadline.map(|d| (d.as_nanos() as u64).saturating_mul(work as u64));
            out.clear();
            // A late pass seated its seats: undo them, so they are free like
            // after any other failed pass.
            let ran = guarded(
                &mut eng,
                &shared.clock,
                budget,
                |e| e.pass(&seats, &advance, &mut out),
                |e| seats.iter().for_each(|&(s, _)| e.release(s)),
            );
            // The watchdog, before this attempt's progress is stamped: a
            // wedged engine stalls every resident, so it cancels them all
            // and counts one fire.
            let now = shared.clock.now_ns();
            if progress_timeout.is_some_and(|t| now.saturating_sub(last_progress) > t.as_nanos() as u64) {
                let mut fired = false;
                for r in residents.iter().flatten().filter(|r| !r.job.cancel.is_cancelled()) {
                    r.job.cancel.cancel();
                    fired = true;
                }
                watchdog_fires += u64::from(fired);
            }
            let err = match ran {
                Ok(()) => {
                    for (&(slot, ctx), &tok) in seats.iter().zip(&out) {
                        let attached = eng.attached_tokens(slot);
                        prompt_tokens_attached += attached as u64;
                        prompt_tokens_prefilled += (ctx.len() - attached) as u64;
                        let r = residents[slot].as_mut().expect("seat occupied");
                        if r.tokens.is_empty() {
                            r.tokens.push(tok);
                            prefills += 1;
                        } else {
                            debug_assert_eq!(Some(&tok), r.tokens.last(), "prefix replay must be bit-exact");
                        }
                        r.seated = true;
                    }
                    for (&slot, &tok) in advance.iter().zip(&out[seats.len()..]) {
                        residents[slot].as_mut().expect("advanced slot occupied").tokens.push(tok);
                    }
                    occupancy_hist[seats.len() + advance.len()] += 1;
                    tokens_per_step_hist[out.len()] += 1;
                    steps += 1;
                    last_progress = now;
                    break;
                }
                Err(e) => e,
            };
            let seated = seats.iter().map(|&(s, _)| s);
            match err {
                EngineError::OutOfPages { .. } => {
                    // Shed the pass's newest resident and retry; nothing
                    // advanced, so every survivor's stream is intact.
                    let victim = advance
                        .iter()
                        .copied()
                        .chain(seated)
                        .max_by_key(|&s| resident(s).admit_seq)
                        .expect("a pass has a resident");
                    let v = residents[victim].as_mut().expect("occupied");
                    // Free the victim's pages NOW so the retry can succeed;
                    // outcome delivery waits for phase 3.
                    if v.seated {
                        eng.release(victim);
                        v.seated = false;
                    }
                    retired.push((victim, Retire::Evicted(EvictReason::PagesExhausted)));
                    advance.retain(|&s| s != victim);
                    waiting.retain(|&s| s != victim);
                }
                EngineError::Fault { class, msg } => {
                    // The seats are free again (`Err` frees them). Every
                    // resident the pass advanced is suspect: release each
                    // BEFORE any replay reserves — the engine asserts a
                    // seat's slot is free.
                    if !advance.is_empty() {
                        recoveries += 1;
                        for &slot in &advance {
                            eng.release(slot);
                            residents[slot].as_mut().expect("occupied").seated = false;
                        }
                    }
                    // Every resident of the pass is charged one replay and
                    // retries waiting.
                    let pass: Vec<usize> = advance.drain(..).chain(seated).collect();
                    waiting.retain(|s| !pass.contains(s));
                    for slot in pass {
                        let r = residents[slot].as_mut().expect("occupied");
                        if r.replays < cont.replay_budget {
                            r.replays += 1;
                            replays += 1;
                            waiting.push(slot);
                            continue;
                        }
                        let reason = EvictReason::EngineFault { class, msg: msg.clone() };
                        retired.push((slot, Retire::Evicted(reason)));
                    }
                }
            }
        }
        // Post-pass retirements: completion, EOS, cancel, deadline.
        scan_retirements(&residents, eos, shared.clock.now_ns(), &mut retired);

        // ---- Phase 3: retire + account (under lock), deliver after.
        let mut deliveries: Vec<(Job, Outcome)> = Vec::new();
        {
            let mut st = shared.state.lock().unwrap();
            let now = shared.clock.now_ns();
            st.counters.watchdog_fires += std::mem::take(&mut watchdog_fires);
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
                            // A request the engine's faults ended: the
                            // mirror of `on_success`, fed before the abort
                            // below, so a probe evicted by a fault of its
                            // own class sees Open, not HalfOpen. A fault a
                            // replay recovered from ends no request.
                            EvictReason::EngineFault { class, .. } => {
                                engine_fault_evictions += 1;
                                st.breaker.on_failure(class, now);
                            }
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
    let mut st = shared.state.lock().unwrap();
    st.pool_pages = stats.pages_in_use;
    st.sched_report = Some(SchedReport {
        steps,
        prefills,
        prompt_tokens_prefilled,
        prompt_tokens_attached,
        mean_occupancy: if steps > 0 { total_occ as f64 / steps as f64 } else { 0.0 },
        occupancy_hist,
        tokens_per_step_hist,
        page_evictions,
        recoveries,
        replays,
        engine_fault_evictions,
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

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod panic_watch;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{new_shared, ServeConfig, Shared};
    use dsi_core::FaultyEngine;
    use dsi_model::fast::PackedModel;
    use dsi_model::paged::{Engine, PagedEngine};
    use dsi_model::reference::GptModel;
    use dsi_sim::clock::{CancelToken, ManualClock};
    use dsi_sim::fault::{EngineFaultKind, EngineFaultPlan, EngineFaultSite, EngineFaultSpec};
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

    /// Queue `jobs` (prompt, token budget) on a fresh state, run the loop
    /// over `eng` until it drains them, and return their outcomes, the
    /// engine and the state.
    fn serve<E: BatchEngine>(
        eng: E,
        cont: ContinuousConfig,
        clock: Clock,
        jobs: Vec<(Vec<usize>, usize)>,
    ) -> (Vec<Outcome>, E, Arc<Shared>) {
        let mut cfg = ServeConfig::new(1);
        cfg.clock = clock;
        let shared = new_shared(&cfg);
        let mut tickets = Vec::new();
        {
            let mut st = shared.state.lock().unwrap();
            for (id, (prompt, n_tokens)) in jobs.into_iter().enumerate() {
                let cost = cont.pages_for(prompt.len() + 1);
                let (job, rx) = job(id as u64, prompt, n_tokens, cost);
                tickets.push(rx);
                st.inflight_tokens += cost;
                st.queue.push_back(job);
            }
            st.draining = true; // exit once every job has resolved
        }
        let eng = run_scheduler(Arc::clone(&shared), eng, cont, None, cfg.max_prompt, None);
        (tickets.iter().map(|rx| rx.recv().expect("resolved")).collect(), eng, shared)
    }

    #[test]
    fn a_pass_deadline_scales_with_the_context_it_seats() {
        let cont = ContinuousConfig {
            max_slots: 1,
            step_deadline: Some(Duration::from_millis(10)),
            replay_budget: 0,
            ..ContinuousConfig::default()
        };

        // 4 context tokens buy a 40ms budget: a 20ms seating pass is
        // healthy, not a stall.
        let (eng, clock) = slow(20);
        let (outcomes, eng, _) = serve(eng, cont, clock, vec![(vec![1, 2, 3, 4], 1)]);
        assert!(
            matches!(&outcomes[0], Outcome::Completed { tokens, .. } if tokens == &[7]),
            "long prompt must get a scaled budget, got {:?}",
            outcomes[0]
        );
        assert_eq!(eng.released, [0], "released once, at retirement");

        // 50ms blows even the scaled budget: timeout fault, seat undone.
        let (eng, clock) = slow(50);
        let (outcomes, eng, _) = serve(eng, cont, clock, vec![(vec![1, 2, 3, 4], 1)]);
        assert!(
            matches!(
                &outcomes[0],
                Outcome::Evicted { reason: EvictReason::EngineFault { class: FaultClass::Timeout, .. }, .. }
            ),
            "a stalled seating pass must still be caught, got {:?}",
            outcomes[0]
        );
        assert_eq!(eng.released, [0], "the late pass's seat is undone, once");
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

    /// A model whose layer 1 panics when fetched on a split pass's helper
    /// thread (`anywhere`: on any thread, the caller's too).
    struct PanicsAtLayer1<'a> {
        pm: &'a dsi_model::fast::PackedModel<'a>,
        anywhere: bool,
    }

    impl dsi_model::fast::WeightSource for PanicsAtLayer1<'_> {
        type B = dsi_kernels::blocked::PackedB;
        type Layer<'a>
            = &'a dsi_model::fast::PackedLayer
        where
            Self: 'a;
        type Error = std::convert::Infallible;
        const RESIDENT: bool = true;
        fn config(&self) -> &dsi_model::GptConfig {
            self.pm.config()
        }
        fn embeddings(&self) -> (&dsi_kernels::tensor::Tensor, &dsi_kernels::tensor::Tensor) {
            self.pm.embeddings()
        }
        fn lnf(&self) -> (&[f32], &[f32]) {
            self.pm.lnf()
        }
        fn logits_w(&self) -> &dsi_kernels::blocked::PackedB {
            self.pm.logits_w()
        }
        fn layer(&self, l: usize) -> Result<&dsi_model::fast::PackedLayer, Self::Error> {
            let helper = std::thread::current().name().is_some_and(|n| n.starts_with("dsi-pass-member"));
            assert!(l != 1 || !(helper || self.anywhere), "fault at layer 1");
            self.pm.layer(l)
        }
    }

    /// A panic in a helper member of a group's pass reaches the one guard
    /// as the caller's own panic would: the same `Panic` fault with the
    /// same message as that panic in a one-member pass, and the group,
    /// narrowed to the member it kept, serves the next pass.
    #[test]
    fn a_member_panic_maps_like_a_one_member_pass_panic() {
        use dsi_sim::shmem::CommConfig;
        let m = GptModel::random(dsi_model::zoo::tiny(2), 3);
        let pm = PackedModel::pack(&m);
        let (clock, _time) = Clock::manual();
        let (member, solo) = (PanicsAtLayer1 { pm: &pm, anywhere: false }, PanicsAtLayer1 { pm: &pm, anywhere: true });
        let mut split = Engine::group(&member, 2, CommConfig::default(), 1, 16, 4);
        let mut one = Engine::group(&solo, 1, CommConfig::default(), 1, 16, 4);
        let from_member = guarded(&mut split, &clock, None, |e| BatchEngine::prefill(e, 0, &[1, 2, 3]), |_| {});
        let from_solo = guarded(&mut one, &clock, None, |e| BatchEngine::prefill(e, 0, &[1, 2, 3]), |_| {});
        let fault = EngineError::Fault { class: FaultClass::Panic, msg: "fault at layer 1".into() };
        assert_eq!((&from_member, &from_solo), (&Err(fault.clone()), &Err(fault)));
        // One member left: the fault never fires, and the slot the panicked
        // pass left behind is free again.
        assert_eq!(split.degree(), 1);
        let tok = guarded(&mut split, &clock, None, |e| BatchEngine::prefill(e, 0, &[1, 2, 3]), |_| {});
        assert_eq!(tok, Ok(pm.session(3).generate(&[1, 2, 3], 1)[0]));
    }

    /// The paged engine over `pm`, sized by `cont`, with its passes
    /// `corrupt` scripted to fail with `Corruption`.
    fn corrupted_at<'p, 'm>(
        pm: &'p PackedModel<'m>,
        cont: ContinuousConfig,
        corrupt: &[u64],
    ) -> FaultyEngine<PagedEngine<'p, 'm>> {
        let specs = corrupt.iter().map(|&call| EngineFaultSpec {
            site: EngineFaultSite::Pass { call },
            kind: EngineFaultKind::Corrupt,
        });
        let injector = Arc::new(EngineFaultPlan::new(specs.collect()).injector());
        FaultyEngine::new(Engine::new(pm, cont.max_slots, cont.pages_total, cont.page_tokens), injector)
    }

    /// The fault-scripted serve: corruption at passes 1, 2, 4 and 7 of one
    /// engine, a replay budget of 2, and requests `[i + 1, i + 2]` of six
    /// tokens — request 0 alone, then requests 1 and 2 together. Two runs of
    /// the loop over the one engine, each with its jobs queued before it
    /// starts, so which pass carries which request does not depend on when
    /// a client submits. (No breaker is involved: the jobs skip admission.)
    #[test]
    fn scripted_corruption_recovers_replays_and_evicts_by_the_script() {
        let m = GptModel::random(dsi_model::zoo::tiny(2), 7);
        let pm = PackedModel::pack(&m);
        let cont =
            ContinuousConfig { max_slots: 2, pages_total: 32, page_tokens: 4, replay_budget: 2, ..ContinuousConfig::default() };
        let request = |i: usize| (vec![i + 1, i + 2], 6);
        let solo = |i: usize| pm.session(2).generate(&request(i).0, 6);
        let counts = |shared: &Shared| {
            let st = shared.state.lock().unwrap();
            let r = st.sched_report.as_ref().expect("the scheduler attaches its report");
            (r.recoveries, r.replays, r.engine_fault_evictions)
        };

        // Pass 0 seats request 0. Pass 1 advances it and is corrupted: a
        // recovery releases it, and it is charged its first replay. Pass 2
        // seats the replay and is corrupted: its second replay, and no
        // recovery, since the pass advanced no one. Pass 3 re-seats it, its
        // first token again. Pass 4 advances it and is corrupted: the third
        // fault finds its budget spent, so the second recovery evicts it.
        let eng = corrupted_at(&pm, cont, &[1, 2, 4, 7]);
        let (outcomes, eng, shared) = serve(eng, cont, Clock::wall(), vec![request(0)]);
        match &outcomes[0] {
            Outcome::Evicted { partial, reason: EvictReason::EngineFault { class: FaultClass::Corruption, .. } } => {
                assert_eq!(partial[..], solo(0)[..1], "request 0 keeps the one token it committed")
            }
            other => panic!("request 0 must be evicted by its third corruption, got {other:?}"),
        }
        assert_eq!(counts(&shared), (2, 2, 1), "(recoveries, replays, engine-fault evictions)");

        // Pass 5 seats requests 1 and 2 together, pass 6 advances both, and
        // pass 7 advances both and is corrupted: one recovery releases both,
        // a replay each. Pass 8 re-seats both, and they run to completion.
        let (outcomes, _, shared) = serve(eng, cont, Clock::wall(), vec![request(1), request(2)]);
        for (i, outcome) in (1..).zip(&outcomes) {
            assert!(
                matches!(outcome, Outcome::Completed { tokens, .. } if *tokens == solo(i)),
                "request {i} must complete token-identical to its solo run, got {outcome:?}"
            );
        }
        assert_eq!(counts(&shared), (1, 2, 0), "(recoveries, replays, engine-fault evictions)");
    }

    /// The breaker counts requests, not passes. Four corrupted passes in a
    /// row, each recovered by a replay, end no request: every breaker stays
    /// closed and the request completes token-identical. When every pass is
    /// corrupted and there is no replay budget, each request ends evicted
    /// by the fault, and the Corruption breaker opens at the
    /// `failure_threshold`-th such eviction, not before.
    #[test]
    fn the_breaker_counts_requests_the_engine_faults_ended() {
        let m = GptModel::random(dsi_model::zoo::tiny(2), 7);
        let pm = PackedModel::pack(&m);
        let threshold = ServeConfig::new(1).breaker.failure_threshold as usize;
        let cont = |max_slots, replay_budget| {
            ContinuousConfig { max_slots, pages_total: 32, page_tokens: 4, replay_budget, ..ContinuousConfig::default() }
        };
        let opens = |shared: &Shared| shared.state.lock().unwrap().breaker.opens_by_class();
        let corruption_opens =
            |shared: &Shared| opens(shared).iter().find(|(c, _)| *c == FaultClass::Corruption).map_or(0, |&(_, n)| n);

        let storm = cont(1, 8);
        let (outcomes, _, shared) = serve(corrupted_at(&pm, storm, &[1, 2, 3, 4]), storm, Clock::wall(), vec![(vec![1, 2], 6)]);
        let want = pm.session(2).generate(&[1, 2], 6);
        assert!(matches!(&outcomes[0], Outcome::Completed { tokens, .. } if *tokens == want), "{:?}", outcomes[0]);
        assert!(opens(&shared).iter().all(|&(_, n)| n == 0), "recovered faults opened a breaker: {:?}", opens(&shared));

        let permanent = cont(1, 0);
        let every_pass: Vec<u64> = (0..16).collect();
        for (requests, want_opens) in [(threshold - 1, 0), (threshold, 1)] {
            let jobs = (0..requests).map(|i| (vec![i + 1, i + 2], 4)).collect();
            let (outcomes, _, shared) = serve(corrupted_at(&pm, permanent, &every_pass), permanent, Clock::wall(), jobs);
            assert!(
                outcomes.iter().all(|o| matches!(o, Outcome::Evicted { reason: EvictReason::EngineFault { .. }, .. })),
                "{outcomes:?}"
            );
            assert_eq!(corruption_opens(&shared), want_opens, "after {requests} engine-fault evictions");
        }
    }

    /// Drops the first `release` after a `Corrupt` fault: a scheduler that
    /// replays a faulted slot without releasing it first.
    struct SkipsARelease<E> {
        inner: E,
        after_corrupt: bool,
        skipped: bool,
    }

    impl<E: BatchEngine> BatchEngine for SkipsARelease<E> {
        fn max_slots(&self) -> usize {
            self.inner.max_slots()
        }

        fn prefill(&mut self, slot: usize, prompt: &[usize]) -> Result<usize, EngineError> {
            self.inner.prefill(slot, prompt)
        }

        fn decode_step(&mut self, slots: &[usize], out: &mut Vec<usize>) -> Result<(), EngineError> {
            self.inner.decode_step(slots, out)
        }

        fn pass(&mut self, seats: &[(usize, &[usize])], advance: &[usize], out: &mut Vec<usize>) -> Result<(), EngineError> {
            let ran = self.inner.pass(seats, advance, out);
            self.after_corrupt |= matches!(ran, Err(EngineError::Fault { class: FaultClass::Corruption, .. }));
            ran
        }

        fn release(&mut self, slot: usize) {
            if self.after_corrupt && !self.skipped {
                self.skipped = true;
            } else {
                self.inner.release(slot);
            }
        }
    }

    /// The release-first control: with the release after a corrupted pass
    /// dropped, the replay seats into a slot the engine still holds. The
    /// engine's assertion fires, the guard turns it into a `Panic` fault,
    /// and the request ends typed as after any fault: the chaos sweeps'
    /// unscripted-panic check is what tells it from a scripted one.
    #[test]
    fn a_replay_before_its_release_is_an_unscripted_panic() {
        let panics = panic_watch::watch();
        let m = GptModel::random(dsi_model::zoo::tiny(2), 7);
        let pm = PackedModel::pack(&m);
        let cont =
            ContinuousConfig { max_slots: 1, pages_total: 32, page_tokens: 4, replay_budget: 2, ..ContinuousConfig::default() };
        let eng = SkipsARelease { inner: corrupted_at(&pm, cont, &[1]), after_corrupt: false, skipped: false };
        let (outcomes, eng, _) = serve(eng, cont, Clock::wall(), vec![(vec![1, 2], 6)]);
        assert!(eng.skipped, "the corrupted pass's release was dropped");
        assert!(
            matches!(&outcomes[0], Outcome::Evicted { reason: EvictReason::EngineFault { class: FaultClass::Panic, .. }, .. }),
            "{outcomes:?}"
        );
        let fired = catch_unwind(|| panics.assert_none()).expect_err("the unscripted-panic check must fire");
        let msg = panic_msg(fired);
        assert!(msg.contains("seat into occupied slot 0"), "{msg}");
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
            ..ContinuousConfig::default()
        };
        let eng = PoolEngine { total: 4, held: vec![0; 2] };
        let jobs = vec![(vec![1, 2], 3); 2];
        let (outcomes, _, shared) = serve(eng, cont, Clock::wall(), jobs);
        for (id, outcome) in outcomes.iter().enumerate() {
            assert!(
                matches!(outcome, Outcome::Completed { tokens, .. } if tokens == &[7, 7, 7]),
                "job {id} must wait its turn and complete, got {outcome:?}"
            );
        }
        let st = shared.state.lock().unwrap();
        assert_eq!(st.sched_report.as_ref().unwrap().page_evictions, 0);
        assert_eq!((st.inflight_tokens, st.pool_pages), (0, 0));
    }
}
