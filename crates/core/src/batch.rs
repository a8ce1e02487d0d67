//! The batched engine step trait — the seam that lets one scheduler drive
//! many execution engines.
//!
//! The trait is the *slot lifecycle*, factored out of the execution engine:
//!
//! ```text
//!   free ──prefill(slot, prompt)──▶ resident ──decode_step*──▶ resident
//!                                       │
//!                                  release(slot)
//!                                       ▼
//!                                     free
//! ```
//!
//! * `prefill` admits a prompt into a free slot, runs its prompt pass, and
//!   returns the first greedy token;
//! * `decode_step` advances any strictly-ascending subset of resident slots
//!   one token each through a single ragged M-row pass;
//! * `release` retires a slot (returning its KV pages, if the engine is
//!   paged).
//!
//! Implementations: [`FastSession`] (one slot, contiguous KV — the oracle),
//! [`Engine`] (M slots over a shared page pool, the serving configuration,
//! over whichever [`WeightSource`] it was built on: a resident packed model
//! as `PagedEngine`, the offload tier as [`crate::streamed::StreamedEngine`]
//! builds it), and [`FtEngine`] (one slot over the fault-tolerant
//! tensor-parallel [`FtSession`]). Every implementation emits **the same
//! token stream** for a given prompt — the microkernel
//! accumulation-order invariant makes batching, paging and streaming
//! invisible to the numerics — which is what lets the chaos suite use solo
//! sessions as bitwise oracles for continuous-batched serving.
//!
//! Failures are classed by type: every error an engine can surface maps to
//! its [`FaultClass`] through an exhaustive `match` on its variants (here
//! for the TP supervisor's [`FaultError`], in [`crate::streamed`] for the
//! offload tier's), never by reading its message.

use dsi_kernels::blocked::PanelWeights;
use dsi_model::fast::{FastSession, WeightSource};
use dsi_model::paged::{Engine, PageStats, PagesExhausted, StepError};
use dsi_parallel::supervisor::{FaultError, FtSession};
use dsi_parallel::RankFailureCause;
use dsi_sim::fault::{CollectiveErrorKind, EngineFaultInjector, EngineFaultKind};
use serde::Serialize;
use std::convert::Infallible;
use std::sync::Arc;

/// The failure classes an engine fault is binned into. Each class gets its
/// own circuit breaker in the serving runtime, so a stall storm cannot mask
/// a panic storm (and vice versa): tripping one class's breaker leaves the
/// others admitting normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FaultClass {
    /// A step exceeded its progress deadline (stall, slow rank, hang).
    Timeout,
    /// A step panicked or a worker died mid-step.
    Panic,
    /// A step completed but its output or KV state is untrustworthy.
    Corruption,
    /// Allocation pressure: page reservations failing beyond scheduling.
    Memory,
}

impl FaultClass {
    /// All classes, in breaker-set order.
    pub const ALL: [FaultClass; 4] =
        [FaultClass::Timeout, FaultClass::Panic, FaultClass::Corruption, FaultClass::Memory];
}

/// The class of a terminal supervisor failure is that of the step failure
/// which ended it, whether it spent the retry budget or the last rank.
impl From<&FaultError> for FaultClass {
    fn from(e: &FaultError) -> Self {
        let (FaultError::RetriesExhausted { last, .. } | FaultError::Unrecoverable(last)) = e;
        match &last.cause {
            RankFailureCause::Collective(c) => match &c.kind {
                CollectiveErrorKind::Timeout { .. } => FaultClass::Timeout,
                CollectiveErrorKind::Poisoned => FaultClass::Panic,
                CollectiveErrorKind::Corrupt { .. } => FaultClass::Corruption,
                CollectiveErrorKind::InjectedExit => FaultClass::Panic,
            },
            RankFailureCause::Panicked(_) => FaultClass::Panic,
            RankFailureCause::Unjoined => FaultClass::Timeout,
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultClass::Timeout => "timeout",
            FaultClass::Panic => "panic",
            FaultClass::Corruption => "corruption",
            FaultClass::Memory => "memory",
        })
    }
}

/// Why an engine step could not run. `OutOfPages` is a *scheduling* signal
/// (retire a victim and retry — nothing advanced, nothing leaked); `Fault`
/// is an execution failure (the slot's sequence must be replayed from its
/// committed prefix or evicted, and the fault's class feeds that class's
/// circuit breaker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A page reservation failed; the step was not executed.
    OutOfPages { needed: usize, free: usize },
    /// The underlying engine faulted (collective failure, rank loss,
    /// injected chaos, ...).
    Fault { class: FaultClass, msg: String },
}

impl EngineError {
    /// Build a `Fault` by binning `msg` into a class by keyword; unknown
    /// text is `Panic` (the most conservative class: the engine's state is
    /// suspect). A shim kept for callers outside the workspace that hold
    /// only a message (the frozen benchmark's replica): nothing in the
    /// workspace calls it, every error type converts through its `From`
    /// impl instead.
    pub fn classified(msg: String) -> Self {
        let m = msg.to_ascii_lowercase();
        let class = if m.contains("timed out") || m.contains("stall") || m.contains("deadline") {
            FaultClass::Timeout
        } else if m.contains("corrupt") {
            FaultClass::Corruption
        } else if m.contains("pages") || m.contains("memory") {
            FaultClass::Memory
        } else {
            FaultClass::Panic
        };
        EngineError::Fault { class, msg }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::OutOfPages { needed, free } => {
                write!(f, "out of kv pages: need {needed}, {free} free")
            }
            EngineError::Fault { class, msg } => write!(f, "engine fault [{class}]: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PagesExhausted> for EngineError {
    fn from(e: PagesExhausted) -> Self {
        EngineError::OutOfPages { needed: e.needed, free: e.free }
    }
}

/// A resident packed model never fails to produce a layer.
impl From<Infallible> for EngineError {
    fn from(e: Infallible) -> Self {
        match e {}
    }
}

impl From<FaultError> for EngineError {
    fn from(e: FaultError) -> Self {
        EngineError::Fault { class: FaultClass::from(&e), msg: e.to_string() }
    }
}

impl<E> From<StepError<E>> for EngineError
where
    EngineError: From<E>,
{
    fn from(e: StepError<E>) -> Self {
        match e {
            StepError::Pages(p) => p.into(),
            StepError::Weights(w) => w.into(),
        }
    }
}

/// A multi-slot generation engine a continuous-batching scheduler can
/// drive. See the module docs for the slot lifecycle and the
/// token-identity contract.
pub trait BatchEngine {
    /// Number of sequence slots (the scheduler's
    /// `ContinuousConfig::max_slots` must not exceed this).
    fn max_slots(&self) -> usize;

    /// Admit `prompt` into free `slot`; returns the first greedy token.
    /// On `Err(OutOfPages)` the slot stays free and nothing is held.
    fn prefill(&mut self, slot: usize, prompt: &[usize]) -> Result<usize, EngineError>;

    /// Advance the given resident slots (strictly ascending) one token each
    /// in a single ragged pass, appending each new token to `out` in
    /// `slots` order. On `Err(OutOfPages)` no slot advanced.
    fn decode_step(&mut self, slots: &[usize], out: &mut Vec<usize>) -> Result<(), EngineError>;

    /// Retire `slot`, returning its KV storage for reuse.
    fn release(&mut self, slot: usize);

    /// Pages a `tokens`-long context pins. Unpaged engines meter at token
    /// granularity (one "page" per token), so page-based admission math
    /// degrades to token accounting without a special case.
    fn pages_for(&self, tokens: usize) -> usize {
        tokens
    }

    /// Allocator statistics, if the engine meters KV at page granularity.
    /// `None` means contiguous growth (admission falls back to the
    /// caller's token budget).
    fn kv_stats(&self) -> Option<PageStats> {
        None
    }

    /// Of the context `slot` was last prefilled with, the leading tokens
    /// whose K/V rows were found resident (shared pages) rather than
    /// computed. Engines that share nothing compute every row.
    fn attached_tokens(&self, _slot: usize) -> usize {
        0
    }
}

impl<B: PanelWeights> BatchEngine for FastSession<'_, '_, B> {
    fn max_slots(&self) -> usize {
        1
    }

    fn prefill(&mut self, slot: usize, prompt: &[usize]) -> Result<usize, EngineError> {
        assert_eq!(slot, 0, "FastSession has one slot");
        self.reset();
        self.begin(prompt);
        Ok(self.generate_step())
    }

    fn decode_step(&mut self, slots: &[usize], out: &mut Vec<usize>) -> Result<(), EngineError> {
        assert_eq!(slots, [0], "FastSession has one slot");
        out.push(self.generate_step());
        Ok(())
    }

    fn release(&mut self, slot: usize) {
        assert_eq!(slot, 0, "FastSession has one slot");
        self.reset();
    }
}

/// The paged engine over any weight source whose failures have a class: a
/// weight fetch that fails mid-pass is an `EngineError::Fault`, a pool that
/// cannot seat the pass is `OutOfPages`.
impl<W: WeightSource> BatchEngine for Engine<W>
where
    EngineError: From<W::Error>,
{
    fn max_slots(&self) -> usize {
        Engine::max_slots(self)
    }

    fn prefill(&mut self, slot: usize, prompt: &[usize]) -> Result<usize, EngineError> {
        Engine::prefill(self, slot, prompt).map_err(StepError::into)
    }

    fn decode_step(&mut self, slots: &[usize], out: &mut Vec<usize>) -> Result<(), EngineError> {
        Engine::decode(self, slots, out).map_err(StepError::into)
    }

    fn release(&mut self, slot: usize) {
        Engine::release(self, slot);
    }

    fn pages_for(&self, tokens: usize) -> usize {
        Engine::pages_for(self, tokens)
    }

    fn kv_stats(&self) -> Option<PageStats> {
        Some(self.pool_stats())
    }

    fn attached_tokens(&self, slot: usize) -> usize {
        Engine::attached_tokens(self, slot)
    }
}

/// The fault-tolerant tensor-parallel engine: one slot over an
/// [`FtSession`], so TP execution plugs into the same scheduler seam as
/// the fast-path engines (`dsi-serve`'s single-flight mode is this engine
/// under the one scheduler loop). Faults surface as [`EngineError::Fault`]
/// with the slot's sequence lost; the session is reset at the next
/// `prefill` (teardown of a group never runs inside `release`, which the
/// scheduler calls under its state lock). The session grows its KV
/// contiguously, so `kv_stats` meters it per token — one-token pages —
/// against a `token_budget` that admission reads and nothing enforces on a
/// resident.
pub struct FtEngine {
    sess: FtSession,
    resident: bool,
    token_budget: usize,
    high_water: usize,
}

impl FtEngine {
    pub fn new(sess: FtSession, token_budget: usize) -> Self {
        FtEngine { sess, resident: false, token_budget, high_water: 0 }
    }

    /// The wrapped session (fault report, TP degree, ...).
    pub fn session(&self) -> &FtSession {
        &self.sess
    }

    pub fn into_session(self) -> FtSession {
        self.sess
    }

    fn tokens_in_use(&self) -> usize {
        if self.resident {
            self.sess.context_len() + 1
        } else {
            0
        }
    }
}

impl BatchEngine for FtEngine {
    fn max_slots(&self) -> usize {
        1
    }

    fn prefill(&mut self, slot: usize, prompt: &[usize]) -> Result<usize, EngineError> {
        assert_eq!(slot, 0, "FtEngine has one slot");
        assert!(!self.resident, "prefill into occupied slot");
        // Fresh context per request (also tears down a faulted group).
        self.sess.reset();
        let tok = self
            .sess
            .begin(prompt)
            .and_then(|()| self.sess.generate_step())?;
        self.resident = true;
        self.high_water = self.high_water.max(self.tokens_in_use());
        Ok(tok)
    }

    fn decode_step(&mut self, slots: &[usize], out: &mut Vec<usize>) -> Result<(), EngineError> {
        assert_eq!(slots, [0], "FtEngine has one slot");
        assert!(self.resident, "decode of free slot");
        match self.sess.generate_step() {
            Ok(tok) => {
                out.push(tok);
                self.high_water = self.high_water.max(self.tokens_in_use());
                Ok(())
            }
            Err(f) => {
                // The sequence is unrecoverable: drop residency so the
                // scheduler can reuse the slot after accounting the loss.
                self.resident = false;
                Err(f.into())
            }
        }
    }

    fn release(&mut self, slot: usize) {
        assert_eq!(slot, 0, "FtEngine has one slot");
        self.resident = false;
    }

    fn kv_stats(&self) -> Option<PageStats> {
        let in_use = self.tokens_in_use();
        Some(PageStats {
            pages_total: self.token_budget,
            pages_in_use: in_use,
            pages_free: self.token_budget.saturating_sub(in_use),
            high_water: self.high_water,
            page_tokens: 1,
        })
    }
}

/// Chaos wrapper: any [`BatchEngine`] plus a scripted
/// [`EngineFaultInjector`]. Each fault kind is injected with semantics the
/// scheduler's recovery can rely on:
///
/// * `Panic` fires **before** the inner call, so the inner engine's state
///   is untouched when `catch_unwind` catches it — prefix replay of every
///   resident is sound and leaks nothing.
/// * `Stall` sleeps, then runs the call normally; detection is the
///   caller's per-step progress deadline (the call itself succeeds late).
/// * `Corrupt` runs the call, then reports its output as poisoned: decode
///   tokens are discarded (`out` is truncated back), a prefilled slot is
///   released again before the error returns — `Err` from prefill still
///   means "slot free".
/// * `Exhaust { calls }` returns `OutOfPages` for this call and the next
///   `calls - 1` calls of either kind without touching the inner engine —
///   a transient allocator storm the scheduler sheds through. A scripted
///   fault whose call index lands *inside* the storm is left pending (the
///   storm-eaten call never reaches the injector), so it shows up in
///   [`EngineFaultInjector::pending`] rather than vanishing silently.
///
/// With an empty plan the wrapper costs one atomic scan per call — the
/// armed-idle overhead `bench_robustness` gates in its serve section.
pub struct FaultyEngine<E: BatchEngine> {
    inner: E,
    injector: Arc<EngineFaultInjector>,
    prefill_calls: u64,
    decode_calls: u64,
    exhaust_left: u32,
}

impl<E: BatchEngine> FaultyEngine<E> {
    pub fn new(inner: E, injector: Arc<EngineFaultInjector>) -> Self {
        FaultyEngine { inner, injector, prefill_calls: 0, decode_calls: 0, exhaust_left: 0 }
    }

    pub fn inner(&self) -> &E {
        &self.inner
    }

    pub fn into_inner(self) -> E {
        self.inner
    }

    /// Apply the shared pre-call kinds; `Corrupt` is site-specific and
    /// handled by the caller. The injector is queried only when no exhaust
    /// storm is draining, so a scripted fault whose call index lands inside
    /// a storm stays pending (observable via `EngineFaultInjector::pending`)
    /// instead of being consumed without firing. Returns `Err` if the call
    /// must not reach the inner engine.
    fn pre_call(&mut self, decode: bool, call: u64, needed: usize) -> Result<bool, EngineError> {
        if self.exhaust_left > 0 {
            self.exhaust_left -= 1;
            return Err(EngineError::OutOfPages { needed, free: 0 });
        }
        let kind = if decode {
            self.injector.at_decode(call)
        } else {
            self.injector.at_prefill(call)
        };
        match kind {
            Some(EngineFaultKind::Panic) => panic!("injected engine panic"),
            Some(EngineFaultKind::Stall { millis }) => {
                dsi_sim::fault::apply_stall(millis);
                Ok(false)
            }
            Some(EngineFaultKind::Exhaust { calls }) => {
                // `calls` counts this call too; clamp so a (public-field)
                // zero still means a one-call storm instead of wrapping to
                // a permanent one.
                self.exhaust_left = calls.saturating_sub(1);
                Err(EngineError::OutOfPages { needed, free: 0 })
            }
            Some(EngineFaultKind::Corrupt) => Ok(true),
            None => Ok(false),
        }
    }
}

impl<E: BatchEngine> BatchEngine for FaultyEngine<E> {
    fn max_slots(&self) -> usize {
        self.inner.max_slots()
    }

    fn prefill(&mut self, slot: usize, prompt: &[usize]) -> Result<usize, EngineError> {
        let call = self.prefill_calls;
        self.prefill_calls += 1;
        let needed = self.inner.pages_for(prompt.len() + 1);
        let corrupt = self.pre_call(false, call, needed)?;
        let tok = self.inner.prefill(slot, prompt)?;
        if corrupt {
            self.inner.release(slot);
            return Err(EngineError::Fault {
                class: FaultClass::Corruption,
                msg: format!("injected corruption at prefill {call}"),
            });
        }
        Ok(tok)
    }

    fn decode_step(&mut self, slots: &[usize], out: &mut Vec<usize>) -> Result<(), EngineError> {
        let call = self.decode_calls;
        self.decode_calls += 1;
        let corrupt = self.pre_call(true, call, slots.len())?;
        let base = out.len();
        self.inner.decode_step(slots, out)?;
        if corrupt {
            // The inner engine advanced: its KV now holds tokens the
            // scheduler never committed, so every stepped slot must be
            // replayed from its committed prefix.
            out.truncate(base);
            return Err(EngineError::Fault {
                class: FaultClass::Corruption,
                msg: format!("injected corruption at decode {call}"),
            });
        }
        Ok(())
    }

    fn release(&mut self, slot: usize) {
        self.inner.release(slot);
    }

    fn pages_for(&self, tokens: usize) -> usize {
        self.inner.pages_for(tokens)
    }

    fn kv_stats(&self) -> Option<PageStats> {
        self.inner.kv_stats()
    }

    fn attached_tokens(&self, slot: usize) -> usize {
        self.inner.attached_tokens(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_model::fast::{PackedModel, QuantizedPackedModel};
    use dsi_model::io::IoError;
    use dsi_model::paged::PagedEngine;
    use dsi_model::reference::GptModel;
    use dsi_model::zoo;
    use dsi_parallel::supervisor::FtConfig;
    use dsi_parallel::RankFailure;
    use dsi_sim::fault::CollectiveError;
    use dsi_zero::offload::{OffloadConfig, OffloadError, OffloadStore};
    use std::sync::Arc;

    fn model(seed: u64) -> GptModel {
        GptModel::random(zoo::tiny(2), seed)
    }

    /// Drive any engine through the common lifecycle and return the token
    /// stream of one slot-0 request.
    fn run_slot0<E: BatchEngine>(eng: &mut E, prompt: &[usize], n: usize) -> Vec<usize> {
        let mut toks = vec![eng.prefill(0, prompt).unwrap()];
        let mut step = Vec::new();
        for _ in 1..n {
            step.clear();
            eng.decode_step(&[0], &mut step).unwrap();
            toks.push(step[0]);
        }
        eng.release(0);
        toks
    }

    /// Drive `eng` through everything the scheduler asks of an engine and
    /// hold every stream to `oracle(prompt, n)`: solo decode, a release +
    /// prefix replay, and — when the engine has the slots — a ragged join
    /// of a prompt sharing its first `shared` tokens' pages with a resident
    /// (0 for engines that share nothing), a mid-stream retirement and the
    /// reuse of the retired slot.
    fn drive_lifecycle<E: BatchEngine>(
        eng: &mut E,
        oracle: impl Fn(&[usize], usize) -> Vec<usize>,
        shared: usize,
        label: &str,
    ) {
        let multi = eng.max_slots() >= 2;
        let prompts = [vec![3usize, 1, 4, 1, 5], vec![3, 1, 4, 1, 7, 6], vec![11, 12, 13, 14]];
        let mut streams: [Vec<usize>; 3] = Default::default();
        // One ragged step over `(slot, stream)` pairs, slots ascending.
        let decode = |eng: &mut E, pairs: &[(usize, usize)], streams: &mut [Vec<usize>; 3]| {
            let slots: Vec<usize> = pairs.iter().map(|&(slot, _)| slot).collect();
            let mut step = Vec::new();
            eng.decode_step(&slots, &mut step).unwrap();
            for (&(_, stream), tok) in pairs.iter().zip(step) {
                streams[stream].push(tok);
            }
        };

        streams[0].push(eng.prefill(0, &prompts[0]).unwrap());
        decode(eng, &[(0, 0)], &mut streams);
        decode(eng, &[(0, 0)], &mut streams);
        if multi {
            // Stream 1 joins at a different position, over the pages of
            // the prefix it shares with stream 0 where the engine shares.
            streams[1].push(eng.prefill(1, &prompts[1]).unwrap());
            assert_eq!(eng.attached_tokens(1), shared, "{label}: shared-prefix join");
            decode(eng, &[(0, 0), (1, 1)], &mut streams);
        }
        // Recovery: release slot 0 and replay its committed prefix (prompt
        // plus every generated token but the last, whose KV row only the
        // step that consumes it writes).
        eng.release(0);
        let committed: Vec<usize> = prompts[0]
            .iter()
            .chain(&streams[0][..streams[0].len() - 1])
            .copied()
            .collect();
        let replayed = eng.prefill(0, &committed).unwrap();
        assert_eq!(Some(&replayed), streams[0].last(), "{label}: replay reproduces the last token");
        if multi {
            decode(eng, &[(0, 0), (1, 1)], &mut streams);
            // Stream 0 retires mid-batch; stream 2 takes over its slot.
            eng.release(0);
            streams[2].push(eng.prefill(0, &prompts[2]).unwrap());
            for _ in 0..3 {
                decode(eng, &[(0, 2), (1, 1)], &mut streams);
            }
            eng.release(1);
        } else {
            decode(eng, &[(0, 0)], &mut streams);
        }
        eng.release(0);
        for (p, got) in prompts.iter().zip(&streams).filter(|(_, got)| !got.is_empty()) {
            assert_eq!(got, &oracle(p, got.len()), "{label}: prompt {p:?}");
        }
        if let Some(kv) = eng.kv_stats() {
            assert_eq!(kv.pages_in_use, 0, "{label}: released engine holds no KV");
        }
    }

    /// The token-identity matrix of the one decode step: every engine, over
    /// every weight source and KV sink, emits the solo `FastSession` stream.
    #[test]
    fn every_engine_emits_the_same_tokens() {
        let m = model(11);
        let pm = PackedModel::pack(&m);
        let f32_oracle = |p: &[usize], n: usize| pm.session(p.len()).generate(p, n);

        drive_lifecycle(&mut pm.session(8), f32_oracle, 0, "FastSession");
        // page_tokens = 3 misaligns pages with the AVX 8-block.
        drive_lifecycle(&mut PagedEngine::new(&pm, 3, 32, 3), f32_oracle, 3, "PagedEngine f32");

        let qm = QuantizedPackedModel::quantize_pack(&m, 32);
        let int8_oracle = |p: &[usize], n: usize| qm.session(p.len()).generate(p, n);
        drive_lifecycle(&mut PagedEngine::new(&qm, 3, 32, 4), int8_oracle, 4, "PagedEngine int8");

        let path = std::env::temp_dir().join("dsi_batch_engine_matrix.bin");
        dsi_model::io::save(&m, &path).expect("save");
        let probe = OffloadStore::open(&path, OffloadConfig::default()).expect("probe");
        // Room for one of the model's two panels: every layer of every
        // pass is fetched from the tier.
        let tight = OffloadConfig {
            resident_budget_bytes: probe.panel_bytes(),
            ..OffloadConfig::default()
        };
        drop(probe);
        let store = OffloadStore::open(&path, tight).expect("open");
        drive_lifecycle(&mut Engine::new(store, 3, 32, 3), f32_oracle, 3, "Engine over the tier");
        let _ = std::fs::remove_file(path);

        for tp in [1, 2] {
            let sess = FtSession::new(Arc::new(model(11)), 8, FtConfig::new(tp));
            drive_lifecycle(&mut FtEngine::new(sess, 4096), f32_oracle, 0, &format!("FtEngine tp={tp}"));
        }
    }

    #[test]
    fn slot_is_reusable_after_release() {
        let m = model(13);
        let pm = PackedModel::pack(&m);
        let mut paged = PagedEngine::new(&pm, 2, 16, 4);
        let a = run_slot0(&mut paged, &[1, 2, 3], 4);
        let b = run_slot0(&mut paged, &[1, 2, 3], 4);
        assert_eq!(a, b, "release must fully clear the slot");
        assert_eq!(paged.kv_stats().unwrap().pages_in_use, 0);
    }

    use dsi_sim::fault::{EngineFaultPlan, EngineFaultSite, EngineFaultSpec};

    fn spec(site: EngineFaultSite, kind: EngineFaultKind) -> EngineFaultSpec {
        EngineFaultSpec { site, kind }
    }

    #[test]
    fn faulty_engine_with_empty_plan_is_transparent() {
        let m = model(11);
        let pm = PackedModel::pack(&m);
        let prompt = [3usize, 1, 4, 1, 5];
        let want = pm.session(prompt.len()).generate(&prompt, 6);
        let paged = PagedEngine::new(&pm, 3, 32, 4);
        let mut faulty = FaultyEngine::new(paged, Arc::new(EngineFaultPlan::default().injector()));
        assert_eq!(run_slot0(&mut faulty, &prompt, 6), want);
    }

    #[test]
    fn corrupt_prefill_returns_err_with_slot_free() {
        let m = model(19);
        let pm = PackedModel::pack(&m);
        let plan = EngineFaultPlan::new(vec![spec(
            EngineFaultSite::Prefill { call: 0 },
            EngineFaultKind::Corrupt,
        )]);
        let paged = PagedEngine::new(&pm, 2, 16, 4);
        let mut eng = FaultyEngine::new(paged, Arc::new(plan.injector()));
        let err = eng.prefill(0, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, EngineError::Fault { class: FaultClass::Corruption, .. }), "{err}");
        assert_eq!(eng.kv_stats().unwrap().pages_in_use, 0, "Err from prefill must leave slot free");
        // The slot is immediately reusable and numerics are untouched.
        let want = pm.session(3).generate(&[1, 2, 3], 4);
        assert_eq!(run_slot0(&mut eng, &[1, 2, 3], 4), want);
    }

    #[test]
    fn corrupt_decode_discards_tokens_and_reports_poisoned_state() {
        let m = model(23);
        let pm = PackedModel::pack(&m);
        let plan = EngineFaultPlan::new(vec![spec(
            EngineFaultSite::Decode { call: 0 },
            EngineFaultKind::Corrupt,
        )]);
        let paged = PagedEngine::new(&pm, 2, 16, 4);
        let mut eng = FaultyEngine::new(paged, Arc::new(plan.injector()));
        eng.prefill(0, &[1, 2, 3]).unwrap();
        let mut out = vec![99];
        let err = eng.decode_step(&[0], &mut out).unwrap_err();
        assert!(matches!(err, EngineError::Fault { class: FaultClass::Corruption, .. }), "{err}");
        assert_eq!(out, [99], "corrupted step's tokens must be discarded");
        // The inner engine advanced: context length shows the poison.
        assert_eq!(eng.inner().context_len(0), 4, "inner state advanced past the committed prefix");
    }

    #[test]
    fn exhaust_storm_counts_down_without_touching_inner() {
        let m = model(29);
        let pm = PackedModel::pack(&m);
        let plan = EngineFaultPlan::new(vec![spec(
            EngineFaultSite::Decode { call: 0 },
            EngineFaultKind::Exhaust { calls: 2 },
        )]);
        let paged = PagedEngine::new(&pm, 2, 16, 4);
        let mut eng = FaultyEngine::new(paged, Arc::new(plan.injector()));
        let t0 = eng.prefill(0, &[1, 2, 3]).unwrap();
        let mut out = Vec::new();
        for _ in 0..2 {
            let err = eng.decode_step(&[0], &mut out).unwrap_err();
            assert!(matches!(err, EngineError::OutOfPages { .. }), "{err}");
        }
        eng.decode_step(&[0], &mut out).unwrap();
        let want = pm.session(3).generate(&[1, 2, 3], 2);
        assert_eq!(vec![t0, out[0]], want, "storm must not advance or corrupt the sequence");
    }

    #[test]
    fn scripted_fault_inside_exhaust_storm_stays_pending() {
        let m = model(41);
        let pm = PackedModel::pack(&m);
        // The storm at decode call 0 covers calls 0-1; the panic scripted
        // at call 1 lands inside it and must NOT be consumed (a one-shot
        // spec silently eaten by the storm would shrink chaos coverage).
        let plan = EngineFaultPlan::new(vec![
            spec(EngineFaultSite::Decode { call: 0 }, EngineFaultKind::Exhaust { calls: 2 }),
            spec(EngineFaultSite::Decode { call: 1 }, EngineFaultKind::Panic),
        ]);
        let injector = Arc::new(plan.injector());
        let paged = PagedEngine::new(&pm, 2, 16, 4);
        let mut eng = FaultyEngine::new(paged, Arc::clone(&injector));
        eng.prefill(0, &[1, 2, 3]).unwrap();
        let mut out = Vec::new();
        for _ in 0..2 {
            let err = eng.decode_step(&[0], &mut out).unwrap_err();
            assert!(matches!(err, EngineError::OutOfPages { .. }), "{err}");
        }
        assert_eq!(injector.pending(), 1, "storm-covered spec must stay pending, not vanish");
        // The storm has drained; the next call runs clean.
        eng.decode_step(&[0], &mut out).unwrap();
    }

    #[test]
    fn exhaust_zero_calls_clamps_to_one_call_storm() {
        let m = model(43);
        let pm = PackedModel::pack(&m);
        // `calls` is a public field: 0 must mean a one-call storm, not a
        // `0 - 1` wrap into a permanent one.
        let plan = EngineFaultPlan::new(vec![spec(
            EngineFaultSite::Decode { call: 0 },
            EngineFaultKind::Exhaust { calls: 0 },
        )]);
        let paged = PagedEngine::new(&pm, 2, 16, 4);
        let mut eng = FaultyEngine::new(paged, Arc::new(plan.injector()));
        eng.prefill(0, &[1, 2, 3]).unwrap();
        let mut out = Vec::new();
        let err = eng.decode_step(&[0], &mut out).unwrap_err();
        assert!(matches!(err, EngineError::OutOfPages { .. }), "{err}");
        eng.decode_step(&[0], &mut out).unwrap();
    }

    #[test]
    fn injected_panic_fires_before_inner_state_changes() {
        let m = model(31);
        let pm = PackedModel::pack(&m);
        let plan = EngineFaultPlan::new(vec![spec(
            EngineFaultSite::Decode { call: 0 },
            EngineFaultKind::Panic,
        )]);
        let paged = PagedEngine::new(&pm, 2, 16, 4);
        let mut eng = FaultyEngine::new(paged, Arc::new(plan.injector()));
        eng.prefill(0, &[1, 2, 3]).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = Vec::new();
            eng.decode_step(&[0], &mut out)
        }));
        assert!(r.is_err(), "scripted panic must fire");
        assert_eq!(eng.inner().context_len(0), 3, "panic fires before the inner engine runs");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The recovery contract the scheduler's prefix replay rests on:
        /// releasing a resident and re-prefilling its committed prefix
        /// reproduces the exact token stream — greedy decode is a pure
        /// function of the committed context.
        #[test]
        fn prefix_replay_is_bit_exact(
            prompt in prop::collection::vec(0usize..16, 1..6),
            k in 1usize..6,
            tail in 2usize..5,
        ) {
            let m = model(37);
            let pm = PackedModel::pack(&m);
            let want = pm.session(prompt.len()).generate(&prompt, k + tail);
            let mut eng = PagedEngine::new(&pm, 2, 64, 4);
            // Run k tokens, fault, release, replay the committed prefix,
            // finish — the stream must equal the un-faulted oracle.
            let mut toks = vec![eng.prefill(0, &prompt).unwrap()];
            let mut step = Vec::new();
            for _ in 1..k {
                step.clear();
                eng.decode_step(&[0], &mut step).unwrap();
                toks.push(step[0]);
            }
            BatchEngine::release(&mut eng, 0);
            let mut committed: Vec<usize> = prompt.clone();
            committed.extend_from_slice(&toks[..k - 1]);
            let replayed = eng.prefill(0, &committed).unwrap();
            prop_assert_eq!(replayed, toks[k - 1], "replay must reproduce the last token");
            for _ in 0..tail {
                step.clear();
                eng.decode_step(&[0], &mut step).unwrap();
                toks.push(step[0]);
            }
            prop_assert_eq!(&toks, &want);
        }
    }

    /// Every variant's class, pinned — and equal to the class the keyword
    /// shim gives the variant's `Display` string: the shim still serves
    /// callers that hold only a message, so the two must not drift. The two
    /// rows at the end are where keywords cannot agree with the type: they
    /// bin by whatever a path, an OS detail or a panic payload happens to
    /// say.
    #[test]
    fn every_error_variant_has_a_class_and_the_shim_agrees_on_its_message() {
        use FaultClass::{Corruption, Memory, Panic, Timeout};
        fn shim(msg: String) -> FaultClass {
            match EngineError::classified(msg) {
                EngineError::Fault { class, .. } => class,
                EngineError::OutOfPages { .. } => unreachable!("the shim only builds faults"),
            }
        }
        assert_eq!(shim("step stalled past deadline".into()), Timeout);
        assert_eq!(shim("out of kv pages: need 2, 0 free".into()), Memory);
        assert_eq!(shim("???".into()), Panic, "unknown defaults to Panic");

        let offload = [
            (OffloadError::FailedOpen { path: "/w.bin".into(), detail: "not found".into() }, Panic),
            (OffloadError::Io(IoError::Io(std::io::Error::other("disk gone"))), Panic),
            (OffloadError::Io(IoError::BadMagic), Panic),
            (OffloadError::Io(IoError::BadVersion(2)), Panic),
            (OffloadError::Io(IoError::Corrupt("layer panel")), Corruption),
            (OffloadError::Io(IoError::ChecksumMismatch { panel: 0 }), Corruption),
            (OffloadError::Io(IoError::PanelWidth { file: 16, build: 32 }), Panic),
            (OffloadError::ChecksumFailed { layer: 1, attempts: 3 }, Corruption),
            (OffloadError::ShortReadFailed { layer: 1, attempts: 3 }, Corruption),
            (OffloadError::HandleLost { layer: 2 }, Panic),
            (OffloadError::FetchTimeout { layer: 3, waited_ms: 10 }, Timeout),
            (OffloadError::BudgetExhausted { need: 10, budget: 5 }, Memory),
        ];
        for (e, want) in offload {
            assert_eq!(FaultClass::from(&e), want, "{e:?}");
            assert_eq!(shim(e.to_string()), want, "{e}");
        }

        let collective = |kind| RankFailureCause::Collective(CollectiveError { rank: 1, kind, epoch: 7 });
        let causes = [
            (collective(CollectiveErrorKind::Timeout { stalled: vec![0] }), Timeout),
            (collective(CollectiveErrorKind::Poisoned), Panic),
            (collective(CollectiveErrorKind::Corrupt { owner: 0 }), Corruption),
            (collective(CollectiveErrorKind::InjectedExit), Panic),
            (RankFailureCause::Panicked("index out of bounds".into()), Panic),
            (RankFailureCause::Unjoined, Timeout),
        ];
        for (cause, want) in causes {
            let last = RankFailure { rank: 1, cause };
            for e in [
                FaultError::RetriesExhausted { attempts: 3, last: last.clone() },
                FaultError::Unrecoverable(last),
            ] {
                assert_eq!(FaultClass::from(&e), want, "{e:?}");
                assert_eq!(shim(e.to_string()), want, "{e}");
            }
        }

        let mounted = OffloadError::FailedOpen { path: "/mnt/pages/w.bin".into(), detail: "EIO".into() };
        assert_eq!((FaultClass::from(&mounted), shim(mounted.to_string())), (Panic, Memory));
        let oom = FaultError::RetriesExhausted {
            attempts: 1,
            last: RankFailure { rank: 0, cause: RankFailureCause::Panicked("memory allocation failed".into()) },
        };
        assert_eq!((FaultClass::from(&oom), shim(oom.to_string())), (Panic, Memory));
    }

    #[test]
    fn unpaged_engines_meter_per_token() {
        let m = model(17);
        let pm = PackedModel::pack(&m);
        let fast = pm.session(4);
        assert_eq!(BatchEngine::pages_for(&fast, 7), 7);
        assert!(BatchEngine::kv_stats(&fast).is_none());
        let paged = PagedEngine::new(&pm, 1, 8, 4);
        assert_eq!(BatchEngine::pages_for(&paged, 7), 2);
        assert_eq!(BatchEngine::kv_stats(&paged).unwrap().pages_total, 8);
    }
}
