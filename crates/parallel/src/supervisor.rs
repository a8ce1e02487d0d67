//! Fault-tolerant TP decoding: detection, retry, and graceful degradation.
//!
//! The paper's scale story (Sec. VII: up to 256 GPUs for the MT-530B runs)
//! makes fault handling a first-class part of the serving system: at that
//! rank count a stalled peer or crashed worker is routine, and the
//! difference between a production system and a benchmark harness is what
//! happens *next*. [`FtSession`] wraps the executed TP engine
//! ([`TpSession`]) with the supervisor loop the issue specifies:
//!
//! * **Detection** — every collective is bounded (timeout + arrival
//!   heartbeats in `dsi-sim::shmem`), so a fault surfaces as a typed
//!   [`CollectiveError`] or a caught panic, never a hang. The supervisor
//!   additionally catches rank 0's own unwind, so a driver-side fault is
//!   handled symmetrically with a worker-side one.
//! * **Classification** — faults where a rank's *memory* is gone (panic,
//!   scripted crash, wedged-and-detached thread) are **permanent**: the
//!   group cannot be rebuilt at the same width. Faults where every rank
//!   survived with intact state (timeout from a transient stall, poison
//!   propagation, a corrupt chunk caught by checksum) are **transient**:
//!   the same degree is retried after an exponential backoff.
//! * **Degradation** — on permanent loss the supervisor re-shards the model
//!   to the largest feasible TP degree not exceeding the survivor count
//!   (`tp | heads` must hold; degree 1 — the single-rank fast path — is the
//!   floor, so decoding can always continue).
//! * **KV salvage** — surviving ranks' KV shards are column shards of the
//!   full cache (head-contiguous, rank `r` owns columns
//!   `[r·h/tp, (r+1)·h/tp)`), so when *every* shard survives, the committed
//!   prefix is re-sliced to the new partition without recomputing anything
//!   ([`repack_kv`]). If any shard is lost the full cache is rebuilt by
//!   re-prefilling the token history — more compute, same result.
//! * **Token identity** — KV rows are bit-identical whether produced in a
//!   prompt batch or stepwise, and column shards of the panel GEMMs are
//!   bit-identical per column (the PR-3 property suite), so replay after a
//!   rebuild reproduces exactly the state an uninterrupted run would have
//!   had: decoding resumes **token-identically**, which the chaos harness
//!   asserts for every fault kind × injection site.
//!
//! Determinism is preserved end to end: the fault script is seed-driven and
//! fire-once (a rebuilt group replaying the same epochs does not re-trip a
//!  consumed fault), greedy argmax is deterministic, and the supervisor
//! never samples from replayed logits — only from fresh steps.
//!
//! [`CollectiveError`]: dsi_sim::CollectiveError

use std::sync::Arc;
use std::time::Duration;

use dsi_model::fast::argmax;
use dsi_model::reference::{GptModel, KvCache};
use dsi_sim::shmem::CommConfig;
use dsi_sim::CollectiveErrorKind;
use serde::Serialize;

use crate::tp_exec::{
    panic_payload_to_string, RankFailure, RankFailureCause, TpPackedModel, TpSession,
};

/// Terminal failure of a fault-tolerant decode: retries and degradation
/// could not produce a working group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The retry budget ran out; `last` is the step failure that spent it.
    RetriesExhausted { attempts: u32, last: RankFailure },
    /// No feasible group remains: the step failure took the last rank's
    /// memory with it at tp=1, so there is nothing to reshard onto.
    Unrecoverable(RankFailure),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts (last fault: {last})")
            }
            FaultError::Unrecoverable(last) => {
                write!(f, "unrecoverable fault: the last rank was lost at tp=1 ({last})")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Bounded retry-with-backoff policy for transient faults. The backoff
/// doubles per attempt (capped at 64× the base), so a brief stall storm is
/// ridden out without hammering the rebuild path.
#[derive(Debug, Clone, Serialize)]
pub struct RetryPolicy {
    /// Total fault-recovery attempts (transient retries *and* degradations)
    /// allowed per step before giving up.
    pub max_retries: u32,
    /// Base backoff before a transient retry, in milliseconds.
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 8, backoff_ms: 5 }
    }
}

/// Configuration of a fault-tolerant session.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Initial TP degree.
    pub tp: usize,
    /// Collective configuration (timeout, checksums, fault injection)
    /// applied to every group this session builds.
    pub comm: CommConfig,
    pub retry: RetryPolicy,
}

impl FtConfig {
    pub fn new(tp: usize) -> Self {
        FtConfig { tp, comm: CommConfig::default(), retry: RetryPolicy::default() }
    }
}

/// What the supervisor did to keep decoding alive — the chaos harness's
/// and `bench_robustness`'s observability surface.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FtReport {
    /// Transient faults retried at the same degree.
    pub retries: u32,
    /// Groups (re)built after a fault (excludes the initial group).
    pub rebuilds: u32,
    /// Degradations as `(from_tp, to_tp)` pairs, in order.
    pub degradations: Vec<(usize, usize)>,
    /// Human-readable description of every fault observed.
    pub faults: Vec<String>,
    /// KV rows salvaged across all rebuilds (rows that did not need
    /// re-prefilling).
    pub rows_salvaged: usize,
    /// KV rows re-prefilled across all rebuilds.
    pub rows_replayed: usize,
}

/// The largest TP degree `d ≤ survivors` with `heads.is_multiple_of(*d)` (degree 1 is
/// always feasible — the single-rank fast-path fallback).
fn degrade_tp(heads: usize, survivors: usize) -> usize {
    (1..=survivors.min(heads)).rev().find(|d| heads.is_multiple_of(*d)).unwrap_or(1)
}

/// Re-slice salvaged per-rank KV shards (old column partition) into
/// `new_tp` shards, keeping only the first `committed` rows per layer.
///
/// Returns `None` when any shard is missing — some columns of the cache are
/// then unrecoverable and the caller must re-prefill from token history.
/// Rows beyond `committed` (partial appends from the failing step) are
/// dropped: the failed step is re-run, and keeping its partial rows would
/// double-append them.
pub fn repack_kv(
    salvaged: &[Option<KvCache>],
    committed: usize,
    hidden: usize,
    layers: usize,
    max_seq: usize,
    new_tp: usize,
) -> Option<(Vec<KvCache>, usize)> {
    let old_tp = salvaged.len();
    let shards: Vec<&KvCache> = salvaged.iter().map(|s| s.as_ref()).collect::<Option<_>>()?;
    let hs_old = hidden / old_tp;
    let hs_new = hidden / new_tp;
    // Rows present in *every* layer of *every* shard, capped at committed.
    let mut rows = committed;
    for kv in &shards {
        for l in &kv.layers {
            rows = rows.min(l.len());
        }
    }
    let mut out: Vec<KvCache> =
        (0..new_tp).map(|_| KvCache::with_capacity(layers, hs_new, max_seq)).collect();
    let mut kfull = vec![0.0f32; hidden];
    let mut vfull = vec![0.0f32; hidden];
    for l in 0..layers {
        for i in 0..rows {
            for (o, kv) in shards.iter().enumerate() {
                kfull[o * hs_old..(o + 1) * hs_old].copy_from_slice(kv.layers[l].k.row(i));
                vfull[o * hs_old..(o + 1) * hs_old].copy_from_slice(kv.layers[l].v.row(i));
            }
            for (r, nkv) in out.iter_mut().enumerate() {
                nkv.layers[l].append_row_slices(
                    &kfull[r * hs_new..(r + 1) * hs_new],
                    &vfull[r * hs_new..(r + 1) * hs_new],
                );
            }
        }
    }
    Some((out, rows))
}

/// A fault-tolerant greedy-decode session: the supervisor of the issue's
/// tentpole. Drives [`TpSession`] groups, detects faults (typed collective
/// errors, caught panics, wedged threads), retries transient ones with
/// backoff, degrades the TP degree on permanent rank loss (salvaging the
/// surviving KV shards), and resumes decoding token-identically.
pub struct FtSession {
    model: Arc<GptModel>,
    packed: Arc<TpPackedModel>,
    cfg: FtConfig,
    tp: usize,
    base_max_prompt: usize,
    sess: Option<TpSession>,
    /// KV shards (in the *current* partition) to seed the next group with.
    pending_kv: Option<Vec<KvCache>>,
    /// Committed fed tokens: the i-th entry occupies KV row i of every
    /// group this session ever builds.
    history: Vec<usize>,
    /// Token emitted by the last step that has not been fed yet (fed lazily
    /// at the start of the next step, so a caller that stops early never
    /// pays for a step whose logits it will not sample).
    to_feed: Option<usize>,
    report: FtReport,
}

impl FtSession {
    pub fn new(model: Arc<GptModel>, max_prompt: usize, cfg: FtConfig) -> Self {
        let packed = Arc::new(TpPackedModel::shard(&model, cfg.tp));
        FtSession {
            tp: cfg.tp,
            model,
            packed,
            cfg,
            base_max_prompt: max_prompt.max(1),
            sess: None,
            pending_kv: None,
            history: Vec::new(),
            to_feed: None,
            report: FtReport::default(),
        }
    }

    /// Current TP degree (shrinks on degradation).
    pub fn tp(&self) -> usize {
        self.tp
    }

    /// Committed context length (tokens fed through completed steps).
    pub fn context_len(&self) -> usize {
        self.history.len()
    }

    pub fn report(&self) -> &FtReport {
        &self.report
    }

    /// Greedy generation with the [`TpSession::generate`] semantics, but
    /// fault-tolerant: any fault is detected, classified, and survived
    /// (retry or degrade) or reported typed — never a hang, never a panic
    /// for scripted faults. Implemented on the step-wise surface, so it is
    /// token-identical to `begin` + `n_tokens × generate_step` by
    /// construction.
    pub fn generate(&mut self, prompt: &[usize], n_tokens: usize) -> Result<Vec<usize>, FaultError> {
        self.begin(prompt)?;
        (0..n_tokens).map(|_| self.generate_step()).collect()
    }

    /// Ingest `prompt` as a committed step and arm step-wise generation.
    pub fn begin(&mut self, prompt: &[usize]) -> Result<(), FaultError> {
        assert!(!prompt.is_empty(), "empty prompt");
        self.to_feed = None;
        self.step_committed(prompt)
    }

    /// Emit the next greedy token (fault-tolerantly). The previous step's
    /// token (if any) is fed through the model first, so a caller can stop
    /// between any two steps (deadline, cancellation) with the tokens
    /// emitted so far forming an exact prefix of the full generation. On
    /// `Err` the session must be [`FtSession::reset`] (or re-prompted via
    /// `begin`) before reuse.
    pub fn generate_step(&mut self) -> Result<usize, FaultError> {
        if let Some(t) = self.to_feed {
            self.step_committed(&[t])?;
            self.to_feed = None;
        }
        let tok = argmax(self.sess.as_ref().expect("live session").last_logits());
        self.to_feed = Some(tok);
        Ok(tok)
    }

    /// Drop all request state — context history, pending KV, the live group
    /// — routing teardown through [`TpSession::dismantle`] (bounded joins,
    /// salvage discarded). The session is then ready for an unrelated
    /// prompt at the current (possibly degraded) TP degree; the serving
    /// runtime calls this between requests and after watchdog
    /// cancellations.
    pub fn reset(&mut self) {
        if let Some(sess) = self.sess.take() {
            let _ = sess.dismantle();
        }
        self.pending_kv = None;
        self.history.clear();
        self.to_feed = None;
    }

    /// Shut the current group down cleanly (if any), salvaging its KV for a
    /// potential later `generate` on the same context.
    pub fn park(&mut self) {
        if let Some(sess) = self.sess.take() {
            let d = sess.dismantle();
            if let Some((kv, rows)) = repack_kv(
                &d.kv,
                self.history.len(),
                self.model.config.hidden,
                self.model.config.layers,
                self.model.config.max_seq,
                self.tp,
            ) {
                if rows == self.history.len() {
                    self.pending_kv = Some(kv);
                }
            }
        }
    }

    /// Feed `tokens` as one committed step, surviving faults. On success the
    /// session's `last_logits()` covers the final fed position.
    fn step_committed(&mut self, tokens: &[usize]) -> Result<(), FaultError> {
        let mut attempt = 0u32;
        loop {
            if self.sess.is_none() {
                self.build_session(tokens.len());
            }
            // Replay any committed suffix the salvage could not cover. The
            // replayed logits are never sampled — the next tokens are known —
            // so replay only has to rebuild KV state, which it does
            // bit-identically (batched and stepwise KV rows agree exactly).
            let ctx = self.sess.as_ref().expect("live session").context_len();
            if ctx < self.history.len() {
                let replay = self.history[ctx..].to_vec();
                self.report.rows_replayed += replay.len();
                match self.catch_step(&replay) {
                    Ok(()) => {}
                    Err(failure) => {
                        self.handle_fault(failure, &mut attempt)?;
                        continue;
                    }
                }
            }
            match self.catch_step(tokens) {
                Ok(()) => {
                    self.history.extend_from_slice(tokens);
                    return Ok(());
                }
                Err(failure) => self.handle_fault(failure, &mut attempt)?,
            }
        }
    }

    /// Build a fresh group at the current degree, seeded with whatever KV
    /// the last salvage produced.
    fn build_session(&mut self, step_len: usize) {
        let seeded = self.pending_kv.take();
        let have = seeded.as_ref().map_or(0, |v| v[0].context_len());
        self.report.rows_salvaged += have;
        let max_prompt = self
            .base_max_prompt
            .max(self.history.len().saturating_sub(have))
            .max(step_len);
        self.sess =
            Some(self.packed.session_with(max_prompt, self.cfg.comm.clone(), seeded));
    }

    /// Run one step on the live group, converting rank 0's own unwind into
    /// a typed failure (scripted panics can target rank 0 too).
    fn catch_step(&mut self, tokens: &[usize]) -> Result<(), RankFailure> {
        let sess = self.sess.as_mut().expect("live session");
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if tokens.len() == 1 && sess.context_len() > 0 {
                sess.try_decode(tokens[0])
            } else {
                sess.try_prompt(tokens)
            }
        }));
        match res {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(RankFailure { rank: e.rank, cause: RankFailureCause::Collective(e) }),
            Err(payload) => {
                // The unwind tore through the step: mark rank 0's memory
                // untrustworthy so dismantle does not salvage it.
                self.sess.as_mut().expect("live session").note_rank0_panic();
                Err(RankFailure {
                    rank: 0,
                    cause: RankFailureCause::Panicked(panic_payload_to_string(payload)),
                })
            }
        }
    }

    /// Dismantle the failed group, classify the fault, and prepare the next
    /// attempt: backoff-retry at the same degree for transient faults,
    /// degrade to fewer ranks for permanent ones.
    fn handle_fault(&mut self, failure: RankFailure, attempt: &mut u32) -> Result<(), FaultError> {
        let sess = self.sess.take().expect("failed session");
        let old_tp = self.tp;
        let d = sess.dismantle();
        self.report.faults.push(format!("tp={old_tp}: {failure}"));

        // Permanent = some rank's memory is gone: a caught panic, a scripted
        // crash (InjectedExit), or a thread wedged past the join deadline.
        let mut lost = vec![false; old_tp];
        if let RankFailureCause::Panicked(_) = &failure.cause {
            lost[failure.rank] = true;
        }
        for f in &d.failures {
            self.report.faults.push(format!("tp={old_tp} rank {}: {}", f.rank, f.cause));
            match &f.cause {
                RankFailureCause::Panicked(_) | RankFailureCause::Unjoined => {
                    lost[f.rank] = true;
                }
                RankFailureCause::Collective(e)
                    if e.kind == CollectiveErrorKind::InjectedExit =>
                {
                    lost[f.rank] = true;
                }
                RankFailureCause::Collective(_) => {}
            }
        }

        *attempt += 1;
        if *attempt > self.cfg.retry.max_retries {
            return Err(FaultError::RetriesExhausted { attempts: *attempt, last: failure });
        }

        let survivors = old_tp - lost.iter().filter(|&&l| l).count();
        if lost.iter().any(|&l| l) {
            // Permanent: degrade to the widest feasible surviving degree.
            if survivors == 0 && old_tp == 1 {
                return Err(FaultError::Unrecoverable(failure));
            }
            let new_tp = degrade_tp(self.model.config.heads, survivors.max(1));
            self.report.degradations.push((old_tp, new_tp));
            self.pending_kv = repack_kv(
                &d.kv,
                self.history.len(),
                self.model.config.hidden,
                self.model.config.layers,
                self.model.config.max_seq,
                new_tp,
            )
            .map(|(kv, _)| kv);
            self.tp = new_tp;
            self.packed = Arc::new(TpPackedModel::shard(&self.model, new_tp));
        } else {
            // Transient: every rank survived with intact memory — retry the
            // same degree after a doubling backoff.
            self.report.retries += 1;
            let shift = (*attempt - 1).min(6);
            std::thread::sleep(Duration::from_millis(self.cfg.retry.backoff_ms << shift));
            self.pending_kv = repack_kv(
                &d.kv,
                self.history.len(),
                self.model.config.hidden,
                self.model.config.layers,
                self.model.config.max_seq,
                old_tp,
            )
            .map(|(kv, _)| kv);
        }
        self.report.rebuilds += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_model::zoo;
    use dsi_sim::fault::{FaultKind, FaultPlan, FaultSite, FaultSpec};
    use dsi_sim::shmem::CommConfig;

    fn model(layers: usize, seed: u64) -> Arc<GptModel> {
        Arc::new(GptModel::random(zoo::tiny(layers), seed))
    }

    fn fault_cfg(tp: usize, plan: FaultPlan, checksum: bool) -> FtConfig {
        FtConfig {
            tp,
            comm: CommConfig {
                timeout: Duration::from_millis(300),
                checksum,
                injector: Some(Arc::new(plan.injector())),
            },
            retry: RetryPolicy { max_retries: 8, backoff_ms: 1 },
        }
    }

    fn baseline(m: &Arc<GptModel>, prompt: &[usize], n: usize) -> Vec<usize> {
        let tpm = Arc::new(TpPackedModel::shard(m, 1));
        tpm.session(prompt.len()).generate(prompt, n)
    }

    #[test]
    fn degrade_tp_picks_widest_divisor() {
        assert_eq!(degrade_tp(4, 3), 2);
        assert_eq!(degrade_tp(4, 4), 4);
        assert_eq!(degrade_tp(4, 1), 1);
        assert_eq!(degrade_tp(6, 5), 3);
        assert_eq!(degrade_tp(8, 7), 4);
    }

    #[test]
    fn fault_free_supervised_run_matches_baseline() {
        let m = model(2, 31);
        let want = baseline(&m, &[1, 2, 3], 6);
        let mut ft = FtSession::new(Arc::clone(&m), 4, FtConfig::new(2));
        let got = ft.generate(&[1, 2, 3], 6).expect("no faults");
        assert_eq!(got, want);
        assert_eq!(ft.report().rebuilds, 0);
        assert_eq!(ft.tp(), 2);
    }

    #[test]
    fn worker_crash_degrades_and_resumes_token_identically() {
        // Rank 1 crashes (drops its arrival) during decode: the supervisor
        // must detect the timeout, degrade 2 → 1, re-prefill (rank 1's KV
        // columns are gone), and produce the exact baseline tokens.
        let m = model(2, 37);
        let want = baseline(&m, &[1, 2, 3], 6);
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 9 },
            kind: FaultKind::Exit,
        }]);
        let mut ft = FtSession::new(Arc::clone(&m), 4, fault_cfg(2, plan, false));
        let got = ft.generate(&[1, 2, 3], 6).expect("must survive");
        assert_eq!(got, want);
        assert_eq!(ft.tp(), 1, "group must have degraded");
        assert_eq!(ft.report().degradations, vec![(2, 1)]);
    }

    #[test]
    fn transient_stall_retries_at_same_degree() {
        // A stall longer than the collective timeout: detected as a timeout,
        // classified transient (the stalled rank is alive and salvaged), and
        // retried at the same degree.
        let m = model(2, 41);
        let want = baseline(&m, &[2, 7], 5);
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 5 },
            kind: FaultKind::Stall { millis: 1500 },
        }]);
        let mut ft = FtSession::new(Arc::clone(&m), 4, fault_cfg(2, plan, false));
        let got = ft.generate(&[2, 7], 5).expect("must survive");
        assert_eq!(got, want);
        assert_eq!(ft.tp(), 2, "transient faults must not degrade");
        assert!(ft.report().retries >= 1, "{:?}", ft.report());
    }

    #[test]
    fn corrupt_chunk_is_caught_and_retried() {
        let m = model(2, 43);
        let want = baseline(&m, &[5, 6], 5);
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Reduce { epoch: 1 },
            kind: FaultKind::Corrupt,
        }]);
        let mut ft = FtSession::new(Arc::clone(&m), 4, fault_cfg(2, plan, true));
        let got = ft.generate(&[5, 6], 5).expect("must survive");
        assert_eq!(got, want);
        assert_eq!(ft.tp(), 2);
        assert!(
            ft.report().faults.iter().any(|f| f.contains("corrupt")),
            "{:?}",
            ft.report().faults
        );
    }

    #[test]
    fn rank0_panic_is_survived_via_degradation() {
        let m = model(2, 47);
        let want = baseline(&m, &[4, 2], 5);
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 0,
            site: FaultSite::Layer { token: 3, layer: 1 },
            kind: FaultKind::Panic,
        }]);
        let mut ft = FtSession::new(Arc::clone(&m), 4, fault_cfg(2, plan, false));
        let got = ft.generate(&[4, 2], 5).expect("must survive");
        assert_eq!(got, want);
        assert_eq!(ft.tp(), 1);
    }

    #[test]
    fn multiple_faults_across_one_decode_are_all_survived() {
        // A transient stall *and* a later permanent crash in one run.
        let m = model(2, 53);
        let want = baseline(&m, &[1, 2, 3, 4], 8);
        let plan = FaultPlan::new(vec![
            FaultSpec {
                rank: 0,
                site: FaultSite::Barrier { epoch: 3 },
                kind: FaultKind::Stall { millis: 1500 },
            },
            FaultSpec {
                rank: 1,
                site: FaultSite::Layer { token: 6, layer: 0 },
                kind: FaultKind::Exit,
            },
        ]);
        let mut ft = FtSession::new(Arc::clone(&m), 4, fault_cfg(2, plan, false));
        let got = ft.generate(&[1, 2, 3, 4], 8).expect("must survive");
        assert_eq!(got, want);
        assert_eq!(ft.tp(), 1);
        assert!(ft.report().rebuilds >= 2, "{:?}", ft.report());
    }

    #[test]
    fn retry_budget_exhaustion_is_a_typed_error() {
        // A zero-retry budget with a scripted stall storm: the supervisor
        // must give up with RetriesExhausted, not hang or panic. (The stall
        // is much longer than the timeout so the fault fires regardless of
        // scheduler noise.)
        let m = model(1, 59);
        let specs: Vec<FaultSpec> = (0..2)
            .map(|e| FaultSpec {
                rank: 1,
                site: FaultSite::Barrier { epoch: e },
                kind: FaultKind::Stall { millis: 800 },
            })
            .collect();
        let mut cfg = fault_cfg(2, FaultPlan::new(specs), false);
        cfg.comm.timeout = Duration::from_millis(100);
        cfg.retry = RetryPolicy { max_retries: 0, backoff_ms: 1 };
        let mut ft = FtSession::new(m, 4, cfg);
        let err = ft.generate(&[1, 2], 4).expect_err("budget must run out");
        assert!(matches!(err, FaultError::RetriesExhausted { attempts: 1, .. }), "{err}");
    }

    #[test]
    fn same_degree_repack_is_the_identity_on_committed_rows() {
        // Repacking salvaged shards at the same degree must reproduce the
        // old group's KV bits exactly (truncated to the committed prefix) —
        // this is what transient-fault retries rely on.
        let m = model(2, 61);
        let tpm4 = Arc::new(TpPackedModel::shard(&m, 4));
        let mut s4 = tpm4.session(3);
        let out4 = s4.generate(&[1, 2, 3], 3);
        let committed = 3 + out4.len() - 1;
        let d4 = s4.dismantle();
        let c = &m.config;
        let (same, rows) =
            repack_kv(&d4.kv, committed, c.hidden, c.layers, c.max_seq, 4).expect("all salvaged");
        assert_eq!(rows, committed);
        for (r, packed) in same.iter().enumerate() {
            let old = d4.kv[r].as_ref().unwrap();
            for l in 0..c.layers {
                assert_eq!(packed.layers[l].k.data(), old.layers[l].k.data(), "rank {r} K");
                assert_eq!(packed.layers[l].v.data(), old.layers[l].v.data(), "rank {r} V");
            }
        }
    }

    #[test]
    fn cross_degree_repack_resumes_token_identically() {
        // Decode at tp=4, dismantle, re-slice the salvaged shards to tp=2,
        // and continue decoding on a seeded tp=2 group: the continuation
        // must match an uninterrupted run token-for-token. (The repacked
        // rows carry the tp=4 group's exact bits — salvage recomputes
        // nothing.)
        let m = model(2, 61);
        let tpm4 = Arc::new(TpPackedModel::shard(&m, 4));
        let mut oracle = tpm4.session(3);
        let out_a = oracle.generate(&[1, 2, 3], 3);
        let want_b = oracle.generate(&[out_a[2]], 4);

        let mut s4 = tpm4.session(3);
        let got_a = s4.generate(&[1, 2, 3], 3);
        assert_eq!(got_a, out_a);
        let committed = 3 + got_a.len() - 1;
        let d4 = s4.dismantle();
        let c = &m.config;
        let (repacked, rows) =
            repack_kv(&d4.kv, committed, c.hidden, c.layers, c.max_seq, 2).expect("all salvaged");
        assert_eq!(rows, committed);
        let tpm2 = Arc::new(TpPackedModel::shard(&m, 2));
        let mut s2 = tpm2.session_with(3, CommConfig::default(), Some(repacked));
        assert_eq!(s2.context_len(), committed);
        let got_b = s2.generate(&[got_a[2]], 4);
        assert_eq!(got_b, want_b);
    }

    #[test]
    fn park_salvages_kv_for_reuse() {
        let m = model(2, 67);
        let want_a = baseline(&m, &[3, 1], 3);
        let mut ft = FtSession::new(Arc::clone(&m), 4, FtConfig::new(2));
        let got_a = ft.generate(&[3, 1], 3).expect("clean");
        assert_eq!(got_a, want_a);
        ft.park();
        // Continue on the parked context: must match an uninterrupted run.
        let tpm = Arc::new(TpPackedModel::shard(&m, 1));
        let mut oracle = tpm.session(2);
        let _ = oracle.generate(&[3, 1], 3);
        let want_b = oracle.generate(&[want_a[2]], 3);
        let got_b = ft.generate(&[got_a[2]], 3).expect("resume");
        assert_eq!(got_b, want_b);
        assert_eq!(ft.report().rows_replayed, 0, "park salvage must avoid replay");
    }
}
