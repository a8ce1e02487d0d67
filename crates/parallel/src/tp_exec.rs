//! Executed tensor parallelism: threaded TP ranks over the fast path.
//!
//! [`tp`](crate::tp) proves the Megatron sharding math (Sec. IV-A) but runs
//! every rank sequentially through the slow reference ops, so it can never
//! show a *speedup* — the whole point of Fig. 8's scaling story. This module
//! is the executed counterpart:
//!
//! * **Pack-time sharding** — [`TpPackedModel::shard`] splits every layer
//!   with [`tp::shard_layer`](crate::tp::shard_layer) (column-parallel
//!   QKV/FF1, row-parallel W_o/FF2, heads contiguous per rank) and packs
//!   each shard into the panel layout of `dsi_kernels::blocked::PackedB`,
//!   exactly like `PackedModel` packs the full weights. The output biases
//!   are kept *full* and applied once after the all-reduce (the functional
//!   path instead pre-divides them by `tp`; summing `tp` rounded copies of
//!   `b/tp` is not bit-stable, applying `b` once is).
//! * **One OS thread per rank** — [`TpSession`] runs rank 0 inline on the
//!   caller's thread and spawns ranks `1..tp` as worker threads, each with
//!   its own scratch arena and KV shard (`h/tp` columns — the KV memory
//!   saving of Sec. IV-A). Workers are pinned to distinct cores when the
//!   host has enough of them (best-effort `sched_setaffinity`).
//! * **Shared-memory collectives** — the two per-layer all-reduces run on
//!   [`dsi_sim::shmem::ShmRank::try_allreduce_sum`]: a sense-reversing
//!   barrier plus a chunked in-place reduce over published buffer pointers.
//!   No per-token allocation, no full-buffer clones, reduction in rank
//!   order.
//! * **Lock-step command protocol** — the driver publishes a command
//!   (prompt / decode / shutdown) and crosses the group barrier; every rank
//!   then runs the same forward step and meets again at the next step
//!   barrier. The barrier's release/acquire chain makes the command and the
//!   decoded token visible without locks in the steady state.
//!
//! Greedy decode is **token-identical** to the single-thread
//! [`FastSession`]: column shards of a panel GEMM produce bit-identical
//! columns (each output column has its own accumulator chain), attention
//! heads are disjoint, and the row-parallel partial sums only reassociate
//! the same f32 additions the fused epilogue performs — the property suite
//! asserts exact token equality across random configs.
//!
//! ## Failure handling
//!
//! Every rendezvous is bounded (the `dsi-sim` collectives carry a timeout),
//! so a dead or wedged rank surfaces as a typed
//! [`CollectiveError`] through [`TpSession::try_prompt`] /
//! [`TpSession::try_decode`] instead of a hang. Worker threads run their
//! rank loop under `catch_unwind`: on any exit — clean shutdown, collective
//! failure, scripted crash, or panic — they report a `WorkerExit` over a
//! salvage channel carrying their KV shard (when their memory is still
//! trustworthy) and the failure cause (including the panic payload).
//! [`TpSession::dismantle`] tears the group down with a *deadline* join —
//! never hanging on a wedged thread — and returns everything salvaged, so a
//! supervisor (see [`supervisor`](crate::supervisor)) can re-pack the KV to
//! a smaller TP degree and resume decoding token-identically.
//!
//! [`FastSession`]: dsi_model::fast::FastSession
//! [`CollectiveError`]: dsi_sim::CollectiveError

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dsi_kernels::blocked::{self, PackedB};
use dsi_kernels::fused;
use dsi_kernels::tensor::Tensor;
use dsi_model::config::GptConfig;
use dsi_model::fast::argmax;
use dsi_model::reference::{GptModel, KvCache};
use dsi_sim::fault::{apply_stall, FaultKind};
use dsi_sim::shmem::{CommConfig, ShmComm, ShmRank};
use dsi_sim::{CollectiveError, CollectiveErrorKind};

use crate::tp::shard_layer;

/// One rank's shard of one layer, in execution layout (packed GEMM panels,
/// bias vectors as plain slices). Mirrors `dsi_model::fast::PackedLayer`,
/// but with `w_qkv`/`w_ff1` column-sharded, `w_o`/`w_ff2` row-sharded, and
/// the two output biases full-width (applied once post-reduce).
#[derive(Debug)]
pub struct TpPackedShard {
    pub ln1_g: Vec<f32>,
    pub ln1_b: Vec<f32>,
    /// `[h, 3h/tp]` column shard (this rank's q|k|v columns), packed.
    pub w_qkv: PackedB,
    pub b_qkv: Vec<f32>,
    /// `[h/tp, h]` row shard of the output projection, packed.
    pub w_o: PackedB,
    /// Full `[h]` output bias, applied once after the all-reduce.
    pub b_o: Vec<f32>,
    pub ln2_g: Vec<f32>,
    pub ln2_b: Vec<f32>,
    /// `[h, 4h/tp]` column shard, packed.
    pub w_ff1: PackedB,
    pub b_ff1: Vec<f32>,
    /// `[4h/tp, h]` row shard, packed.
    pub w_ff2: PackedB,
    /// Full `[h]` FF2 bias, applied once after the all-reduce.
    pub b_ff2: Vec<f32>,
}

/// A model sharded and packed for `tp` executed ranks. Owns everything the
/// rank threads touch (replicated embeddings, final layer-norm, per-rank
/// packed shards), so it can sit behind an `Arc` shared across threads.
#[derive(Debug)]
pub struct TpPackedModel {
    config: GptConfig,
    tp: usize,
    /// `shards[rank][layer]`.
    shards: Vec<Vec<TpPackedShard>>,
    /// Replicated `[vocab, h]` token embedding (also the logits operand).
    wte: Tensor,
    /// Replicated `[max_seq, h]` position embedding.
    wpe: Tensor,
    lnf_g: Vec<f32>,
    lnf_b: Vec<f32>,
    /// `wteᵀ` panel-packed as the `[h, vocab]` logits projection (rank 0
    /// computes logits; the projection is not sharded).
    wte_packed: PackedB,
}

impl TpPackedModel {
    /// Shard `model` across `tp` ranks and pack every shard. Requires
    /// `tp | heads` (and therefore `tp | hidden`).
    pub fn shard(model: &GptModel, tp: usize) -> Self {
        let c = model.config.clone();
        let mut shards: Vec<Vec<TpPackedShard>> =
            (0..tp).map(|_| Vec::with_capacity(c.layers)).collect();
        for lw in &model.layers {
            for (r, s) in shard_layer(lw, c.heads, tp).iter().enumerate() {
                shards[r].push(TpPackedShard {
                    ln1_g: s.ln1_g.data().to_vec(),
                    ln1_b: s.ln1_b.data().to_vec(),
                    w_qkv: PackedB::pack(&s.w_qkv),
                    b_qkv: s.b_qkv.data().to_vec(),
                    w_o: PackedB::pack(&s.w_o),
                    b_o: lw.b_o.data().to_vec(),
                    ln2_g: s.ln2_g.data().to_vec(),
                    ln2_b: s.ln2_b.data().to_vec(),
                    w_ff1: PackedB::pack(&s.w_ff1),
                    b_ff1: s.b_ff1.data().to_vec(),
                    w_ff2: PackedB::pack(&s.w_ff2),
                    b_ff2: lw.b_ff2.data().to_vec(),
                });
            }
        }
        TpPackedModel {
            tp,
            shards,
            wte: model.wte.clone(),
            wpe: model.wpe.clone(),
            lnf_g: model.lnf_g.data().to_vec(),
            lnf_b: model.lnf_b.data().to_vec(),
            wte_packed: PackedB::from_pre_transposed(&model.wte),
            config: c,
        }
    }

    pub fn config(&self) -> &GptConfig {
        &self.config
    }

    pub fn tp(&self) -> usize {
        self.tp
    }

    /// Start a decode session: spawns the `tp - 1` worker rank threads and
    /// sizes every rank's scratch/KV for `max_prompt` prompt tokens plus
    /// generation up to the model's `max_seq`.
    pub fn session(self: &Arc<Self>, max_prompt: usize) -> TpSession {
        TpSession::new(Arc::clone(self), max_prompt)
    }

    /// [`TpPackedModel::session`] with an explicit collective configuration
    /// (timeout / checksum / fault injection) and optionally one pre-seeded
    /// KV shard per rank (salvaged from a previous group — the supervisor's
    /// recovery path).
    pub fn session_with(
        self: &Arc<Self>,
        max_prompt: usize,
        cfg: CommConfig,
        kv: Option<Vec<KvCache>>,
    ) -> TpSession {
        TpSession::with_options(Arc::clone(self), max_prompt, cfg, kv)
    }
}

// --- command protocol -------------------------------------------------------

const CMD_PROMPT: u8 = 1;
const CMD_DECODE: u8 = 2;
const CMD_SHUTDOWN: u8 = 3;

/// Grace added to the collective timeout when joining worker threads: long
/// enough for a worker stuck in a rendezvous to observe its own timeout and
/// exit, short enough that teardown stays bounded.
const JOIN_GRACE: Duration = Duration::from_secs(2);

/// Step descriptor published by the driver before each step barrier and read
/// by every worker after it. The barrier's release/acquire chain orders the
/// plain atomic stores against the reads, so the steady-state decode step
/// touches no locks (the mutex only guards the prompt hand-off).
#[derive(Debug)]
struct TpShared {
    cmd: AtomicU8,
    /// The token id to decode (valid when `cmd == CMD_DECODE`).
    token: AtomicUsize,
    /// The prompt to ingest (valid when `cmd == CMD_PROMPT`).
    prompt: Mutex<Vec<usize>>,
}

// --- worker exit reporting --------------------------------------------------

/// Why a rank left the group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankFailureCause {
    /// A collective call failed typed (timeout / poison / corrupt chunk /
    /// scripted crash).
    Collective(CollectiveError),
    /// The rank's thread panicked; the payload is preserved.
    Panicked(String),
    /// The rank's thread did not exit within the join deadline (wedged);
    /// it was detached, its state abandoned.
    Unjoined,
}

impl std::fmt::Display for RankFailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankFailureCause::Collective(e) => write!(f, "collective failure: {e}"),
            RankFailureCause::Panicked(p) => write!(f, "panicked: {p}"),
            RankFailureCause::Unjoined => write!(f, "thread wedged past the join deadline"),
        }
    }
}

/// One rank's failure, as reported by [`TpSession::dismantle`] and carried
/// by the supervisor's terminal `FaultError::RetriesExhausted`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFailure {
    pub rank: usize,
    pub cause: RankFailureCause,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cause {
            // A collective error names its reporting rank itself.
            RankFailureCause::Collective(e) => write!(f, "{e}"),
            cause => write!(f, "rank {} {cause}", self.rank),
        }
    }
}

/// A worker thread's exit report, sent over the salvage channel.
#[derive(Debug)]
struct WorkerExit {
    rank: usize,
    /// The rank's KV shard, when its memory is still trustworthy (clean
    /// shutdown or typed collective failure). `None` models a crashed
    /// process whose memory is gone (scripted exit, panic).
    kv: Option<KvCache>,
    cause: Option<RankFailureCause>,
}

/// Everything [`TpSession::dismantle`] could salvage from a (possibly
/// failed) group: per-rank KV shards and the per-rank failure causes. The
/// supervisor re-packs the shards to a smaller TP degree when every column
/// survived, or falls back to re-prefilling from the token history.
#[derive(Debug)]
pub struct Dismantled {
    /// `kv[rank]` is the rank's salvaged KV shard, `None` if the rank's
    /// memory was lost (crash / panic / wedged thread).
    pub kv: Vec<Option<KvCache>>,
    /// Every failure observed during the group's lifetime and teardown.
    pub failures: Vec<RankFailure>,
}

// --- per-rank execution state ----------------------------------------------

/// One rank's private buffers: KV shard plus a scratch arena mirroring
/// `dsi_model::fast::Scratch`, sized once at session start so the
/// steady-state decode loop performs zero heap allocations (alloc-guard
/// tested).
struct RankState {
    rank: usize,
    /// Max prompt rows the scratch is sized for.
    m_max: usize,
    /// KV shard: `h/tp` columns per layer.
    kv: KvCache,
    /// `[m, h]` replicated activations.
    x: Vec<f32>,
    /// `[m, h]` layer-norm rows (interior of the fused regions).
    normed: Vec<f32>,
    /// `[m, 3h/tp]` sharded QKV output; attention reads query rows in place
    /// at stride `3h/tp` (no gather buffer).
    qkv: Vec<f32>,
    /// `[m, h/tp]` attention context over this rank's heads.
    attn: Vec<f32>,
    /// `[m, h]` row-parallel partial output; the all-reduce buffer.
    part: Vec<f32>,
    /// `[m, 4h/tp]` sharded FF1 activation.
    ff: Vec<f32>,
    /// `[m, vocab]` logits (rank 0 only; empty on workers).
    logits: Vec<f32>,
    /// Workers' private copy of the prompt (filled under the hand-off lock,
    /// released before compute starts so ranks never serialize on it).
    ids_buf: Vec<usize>,
    /// Row count of the most recent forward (selects the sampling row).
    last_m: usize,
}

impl RankState {
    fn new(model: &TpPackedModel, rank: usize, max_prompt: usize, kv: Option<KvCache>) -> Self {
        let c = &model.config;
        let m = max_prompt.max(1);
        let hs = c.hidden / model.tp;
        let kv = match kv {
            Some(kv) => {
                assert_eq!(kv.layers.len(), c.layers, "seeded KV layer count");
                kv
            }
            None => KvCache::with_capacity(c.layers, hs, c.max_seq),
        };
        RankState {
            rank,
            m_max: m,
            kv,
            x: vec![0.0; m * c.hidden],
            normed: vec![0.0; m * c.hidden],
            qkv: vec![0.0; m * 3 * hs],
            attn: vec![0.0; m * hs],
            part: vec![0.0; m * c.hidden],
            ff: vec![0.0; m * 4 * hs],
            logits: if rank == 0 { vec![0.0; m * c.vocab] } else { Vec::new() },
            ids_buf: Vec::with_capacity(m),
            last_m: 0,
        }
    }

    /// Forward `ids` through this rank's layer shards, meeting the group at
    /// the two per-layer all-reduces. Every rank computes the full `[m, h]`
    /// activations (replicated, as in Megatron) but only its own slice of
    /// heads / FF neurons; rank 0 additionally computes logits.
    ///
    /// Fails typed when a collective rendezvous fails (the error names the
    /// reporting rank, failure kind, and collective epoch) or when the fault
    /// injector scripts a crash at a layer site; an injected panic at a
    /// layer site panics here (the worker's `catch_unwind` converts it to a
    /// [`RankFailureCause::Panicked`] report).
    fn try_forward(
        &mut self,
        model: &TpPackedModel,
        comm: &mut ShmRank,
        ids: &[usize],
    ) -> Result<(), CollectiveError> {
        let c = &model.config;
        let (h, tp) = (c.hidden, model.tp);
        let hs = h / tp;
        let heads = c.heads / tp;
        let m = ids.len();
        let offset = self.kv.context_len();
        assert!(m <= self.m_max, "step of {m} rows exceeds scratch capacity");
        assert!(offset + m <= c.max_seq, "sequence exceeds max_seq");
        let s = self;

        // Replicated embedding: token row + position row.
        for (i, &id) in ids.iter().enumerate() {
            assert!(id < c.vocab, "token id {id} out of vocab");
            let te = model.wte.row(id);
            let pe = model.wpe.row(offset + i);
            for (x, (&t, &p)) in s.x[i * h..(i + 1) * h].iter_mut().zip(te.iter().zip(pe)) {
                *x = t + p;
            }
        }

        for (l, pl) in model.shards[s.rank].iter().enumerate() {
            // Layer-site fault hook: one `Option` check when no injector is
            // installed. The site key is the sequence-position range this
            // step covers, so a "token 5, layer 2" script fires whether
            // position 5 arrives in the prompt batch or as a decode step.
            if let Some(inj) = comm.injector() {
                match inj.at_layer(s.rank, offset, offset + m, l) {
                    Some(FaultKind::Stall { millis }) => apply_stall(millis),
                    Some(FaultKind::Exit) => {
                        return Err(CollectiveError {
                            rank: s.rank,
                            kind: CollectiveErrorKind::InjectedExit,
                            epoch: comm.epoch(),
                        });
                    }
                    Some(FaultKind::Panic) => {
                        panic!("injected fault: rank {} panics at layer {l}", s.rank)
                    }
                    Some(FaultKind::Corrupt) | None => {}
                }
            }
            let kv = &mut s.kv.layers[l];
            // Region 1: layer-norm → sharded QKV GEMM → bias.
            fused::ln_matmul_bias_into(
                &s.x[..m * h], m, &pl.ln1_g, &pl.ln1_b, 1e-5,
                &pl.w_qkv, &pl.b_qkv, &mut s.normed[..m * h], &mut s.qkv[..m * 3 * hs],
            );
            // KV shard append in place (this rank's heads only).
            for i in 0..m {
                let row = &s.qkv[i * 3 * hs..(i + 1) * 3 * hs];
                kv.append_row_slices(&row[hs..2 * hs], &row[2 * hs..3 * hs]);
            }
            // Region 2: streaming-softmax attention over this rank's heads,
            // reading query rows in place from the QKV scratch (stride
            // 3h/tp) — no gather, no m == 1 special case.
            fused::attention_seq_into(
                &s.qkv[..m * 3 * hs], 3 * hs, m, &kv.k, &kv.v, heads, offset,
                &mut s.attn[..m * hs],
            );
            // Region 3: row-parallel output projection → all-reduce →
            // bias + residual (applied once, post-reduce).
            blocked::matmul_into(&s.attn[..m * hs], m, &pl.w_o, &mut s.part[..m * h]);
            comm.try_allreduce_sum(&mut s.part[..m * h])?;
            fused::bias_residual_inplace(&mut s.part[..m * h], &pl.b_o, &s.x[..m * h]);
            std::mem::swap(&mut s.x, &mut s.part);
            // Region 4: layer-norm → sharded FF1 GEMM → bias → GeLU.
            fused::ln_matmul_bias_gelu_into(
                &s.x[..m * h], m, &pl.ln2_g, &pl.ln2_b, 1e-5,
                &pl.w_ff1, &pl.b_ff1, &mut s.normed[..m * h], &mut s.ff[..m * 4 * hs],
            );
            // Region 5: row-parallel FF2 → all-reduce → bias + residual.
            blocked::matmul_into(&s.ff[..m * 4 * hs], m, &pl.w_ff2, &mut s.part[..m * h]);
            comm.try_allreduce_sum(&mut s.part[..m * h])?;
            fused::bias_residual_inplace(&mut s.part[..m * h], &pl.b_ff2, &s.x[..m * h]);
            std::mem::swap(&mut s.x, &mut s.part);
        }

        // Logits on rank 0 only: final layer-norm + tied-embedding GEMM
        // (replicated activations make the projection rank-local).
        if s.rank == 0 {
            for i in 0..m {
                fused::layernorm_row_into(
                    &s.x[i * h..(i + 1) * h], &model.lnf_g, &model.lnf_b, 1e-5,
                    &mut s.normed[i * h..(i + 1) * h],
                );
            }
            blocked::matmul_into(
                &s.normed[..m * h], m, &model.wte_packed, &mut s.logits[..m * c.vocab],
            );
        }
        s.last_m = m;
        Ok(())
    }
}

// --- thread pinning ---------------------------------------------------------

/// Best-effort pin of the calling thread to `cpu` (Linux/x86-64 only; other
/// targets report `false`). Uses the raw `sched_setaffinity` syscall — the
/// repo links no libc crate.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u64; 16]; // 1024-cpu affinity set
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1u64 << (cpu % 64);
    let ret: isize;
    // Raw syscall 203 (sched_setaffinity) on x86-64 Linux with pid 0
    // (= the calling thread), the size of, and a pointer to, a stack-owned
    // cpu_set_t bitmask that outlives the call.
    //
    // SAFETY: the kernel only reads the mask and mutates scheduler state;
    // registers follow the syscall ABI (rax in/out, rdi/rsi/rdx arguments,
    // rcx/r11 clobbered), and `nostack` holds — no stack red-zone use.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Non-Linux / non-x86-64 fallback: pinning unavailable.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_current_thread(_cpu: usize) -> bool {
    false
}

// --- the worker loop --------------------------------------------------------

/// A worker rank's lock-step loop: barrier, read command, execute, repeat.
/// Returns `Ok` on a clean shutdown command, `Err` when any collective (or
/// the layer fault hook) fails typed.
fn worker_loop(
    state: &mut RankState,
    model: &TpPackedModel,
    shared: &TpShared,
    comm: &mut ShmRank,
) -> Result<(), CollectiveError> {
    loop {
        // Step barrier: the driver has published the command.
        comm.try_barrier()?;
        match shared.cmd.load(Ordering::Relaxed) {
            CMD_SHUTDOWN => return Ok(()),
            CMD_PROMPT => {
                {
                    let p = shared.prompt.lock().unwrap();
                    state.ids_buf.clear();
                    state.ids_buf.extend_from_slice(&p);
                } // drop the guard before compute
                let ids = std::mem::take(&mut state.ids_buf);
                let r = state.try_forward(model, comm, &ids);
                state.ids_buf = ids;
                r?;
            }
            CMD_DECODE => {
                let id = shared.token.load(Ordering::Relaxed);
                state.try_forward(model, comm, &[id])?;
            }
            other => panic!("tp_exec: invalid step command {other}"),
        }
    }
}

pub(crate) fn panic_payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// --- the session ------------------------------------------------------------

/// A threaded tensor-parallel decode session with the same `generate`
/// surface as [`dsi_model::fast::FastSession`]. Rank 0 runs inline on the
/// caller's thread; ranks `1..tp` run on their own (best-effort pinned)
/// OS threads and rendezvous at the shared-memory barrier each step.
///
/// The fallible surface ([`TpSession::try_prompt`],
/// [`TpSession::try_decode`], [`TpSession::dismantle`]) reports collective
/// failures typed and salvages surviving state; the legacy surface
/// ([`TpSession::generate`]) panics on failure, including any worker panic
/// payloads in the message.
pub struct TpSession {
    model: Arc<TpPackedModel>,
    shared: Arc<TpShared>,
    comm: ShmRank,
    rank0: RankState,
    workers: Vec<(usize, JoinHandle<()>)>,
    exits: Receiver<WorkerExit>,
    /// True between publishing a step command and rank 0 completing its
    /// forward. If rank 0 unwinds mid-step, the workers may not have read
    /// the command yet — a graceful shutdown rendezvous would race the
    /// in-flight command, so teardown must poison instead.
    inflight: bool,
    /// The failure that killed the session, if any. Once set, every further
    /// step refuses with a clone of it.
    failed: Option<CollectiveError>,
    /// Rank 0's memory is not trustworthy (scripted crash or a panic the
    /// supervisor caught): `dismantle` reports its KV as lost.
    rank0_lost: bool,
    /// `dismantle` ran: `Drop` has nothing left to do.
    done: bool,
    /// Token emitted by the last [`TpSession::try_generate_step`] that has
    /// not been fed yet (fed lazily at the start of the next step, so an
    /// early stop never pays for an unsampled forward).
    to_feed: Option<usize>,
}

impl TpSession {
    pub fn new(model: Arc<TpPackedModel>, max_prompt: usize) -> Self {
        Self::with_options(model, max_prompt, CommConfig::default(), None)
    }

    /// [`TpSession::new`] with an explicit collective configuration and
    /// optionally one pre-seeded KV shard per rank (in rank order; the
    /// supervisor's recovery path hands salvaged shards back in here).
    pub fn with_options(
        model: Arc<TpPackedModel>,
        max_prompt: usize,
        cfg: CommConfig,
        kv: Option<Vec<KvCache>>,
    ) -> Self {
        let tp = model.tp;
        let mut seeded: Vec<Option<KvCache>> = match kv {
            Some(v) => {
                assert_eq!(v.len(), tp, "need one seeded KV shard per rank");
                v.into_iter().map(Some).collect()
            }
            None => (0..tp).map(|_| None).collect(),
        };
        let shared = Arc::new(TpShared {
            cmd: AtomicU8::new(0),
            token: AtomicUsize::new(0),
            prompt: Mutex::new(Vec::with_capacity(max_prompt.max(1))),
        });
        let (tx, exits) = std::sync::mpsc::channel::<WorkerExit>();
        let mut ranks = ShmComm::create_with(tp, cfg);
        // Pin only when the host actually has a core per rank; on smaller
        // hosts the barrier's yield path keeps correctness via the scheduler.
        let pin = std::thread::available_parallelism().is_ok_and(|n| n.get() >= tp);
        let workers = ranks
            .drain(1..)
            .map(|mut rank_comm| {
                let model = Arc::clone(&model);
                let shared = Arc::clone(&shared);
                let tx: Sender<WorkerExit> = tx.clone();
                let r = rank_comm.rank();
                let seed_kv = seeded[r].take();
                let handle = std::thread::spawn(move || {
                    let poisoner = rank_comm.poisoner();
                    if pin {
                        pin_current_thread(r);
                    }
                    // The rank loop runs under `catch_unwind` so that even a
                    // panicking worker reports an exit (with its payload)
                    // instead of silently dying; the state comes back out so
                    // its KV shard can be salvaged.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        move || {
                            let mut state = RankState::new(&model, r, max_prompt, seed_kv);
                            let res = worker_loop(&mut state, &model, &shared, &mut rank_comm);
                            (state.kv, res)
                        },
                    ));
                    let exit = match outcome {
                        Ok((kv, Ok(()))) => WorkerExit { rank: r, kv: Some(kv), cause: None },
                        // A scripted crash models a dead process: its memory
                        // is gone, and it does NOT poison — peers must detect
                        // the loss through the timeout/heartbeat path.
                        Ok((_, Err(e))) if e.kind == CollectiveErrorKind::InjectedExit => {
                            WorkerExit {
                                rank: r,
                                kv: None,
                                cause: Some(RankFailureCause::Collective(e)),
                            }
                        }
                        // A typed collective failure leaves the rank's own
                        // memory intact: salvage the KV, poison so every
                        // peer unblocks promptly.
                        Ok((kv, Err(e))) => {
                            poisoner.poison();
                            WorkerExit {
                                rank: r,
                                kv: Some(kv),
                                cause: Some(RankFailureCause::Collective(e)),
                            }
                        }
                        Err(payload) => {
                            poisoner.poison();
                            WorkerExit {
                                rank: r,
                                kv: None,
                                cause: Some(RankFailureCause::Panicked(panic_payload_to_string(
                                    payload,
                                ))),
                            }
                        }
                    };
                    let _ = tx.send(exit);
                });
                (r, handle)
            })
            .collect();
        let comm = ranks.pop().expect("rank 0 handle");
        let rank0 = RankState::new(&model, 0, max_prompt, seeded[0].take());
        TpSession {
            model,
            shared,
            comm,
            rank0,
            workers,
            exits,
            inflight: false,
            failed: None,
            rank0_lost: false,
            done: false,
            to_feed: None,
        }
    }

    pub fn tp(&self) -> usize {
        self.model.tp
    }

    /// Context length consumed so far.
    pub fn context_len(&self) -> usize {
        self.rank0.kv.context_len()
    }

    /// The failure that killed this session, if any.
    pub fn failure(&self) -> Option<&CollectiveError> {
        self.failed.as_ref()
    }

    /// The `[vocab]` logits row of the most recently forwarded position
    /// (same contract as [`FastSession::last_logits`]).
    ///
    /// [`FastSession::last_logits`]: dsi_model::fast::FastSession::last_logits
    pub fn last_logits(&self) -> &[f32] {
        assert!(self.rank0.last_m > 0, "last_logits() before any step");
        let vocab = self.model.config.vocab;
        &self.rank0.logits[(self.rank0.last_m - 1) * vocab..self.rank0.last_m * vocab]
    }

    /// Feed a multi-token prompt step. On failure the session is dead:
    /// every later call refuses with the same error, and
    /// [`TpSession::dismantle`] salvages what survives.
    pub fn try_prompt(&mut self, prompt: &[usize]) -> Result<(), CollectiveError> {
        assert!(!prompt.is_empty(), "empty prompt");
        assert!(prompt.len() <= self.rank0.m_max, "prompt exceeds session max_prompt");
        {
            let mut p = self.shared.prompt.lock().unwrap();
            p.clear();
            p.extend_from_slice(prompt);
        }
        self.try_step(CMD_PROMPT, prompt)
    }

    /// Feed one decode token. Same failure contract as
    /// [`TpSession::try_prompt`].
    pub fn try_decode(&mut self, token: usize) -> Result<(), CollectiveError> {
        self.shared.token.store(token, Ordering::Relaxed);
        let ids = [token];
        self.try_step(CMD_DECODE, &ids)
    }

    /// Run one group step: publish the command, cross the step barrier, and
    /// execute rank 0's share inline.
    fn try_step(&mut self, cmd: u8, ids: &[usize]) -> Result<(), CollectiveError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if self.comm.is_poisoned() {
            let e = CollectiveError {
                rank: 0,
                kind: CollectiveErrorKind::Poisoned,
                epoch: self.comm.epoch(),
            };
            return Err(self.fail(e));
        }
        self.inflight = true;
        self.shared.cmd.store(cmd, Ordering::Relaxed);
        if let Err(e) = self.comm.try_barrier() {
            return Err(self.fail(e));
        }
        match self.rank0.try_forward(&self.model, &mut self.comm, ids) {
            Ok(()) => {
                // The workers have read the command (they joined this step's
                // all-reduces), so a later shutdown store cannot race it.
                self.inflight = false;
                Ok(())
            }
            Err(e) => Err(self.fail(e)),
        }
    }

    /// Record a fatal step failure: poison the group so every worker
    /// unblocks promptly (they salvage their KV on the way out), remember
    /// the error, classify rank 0's own memory.
    fn fail(&mut self, e: CollectiveError) -> CollectiveError {
        self.comm.poison();
        if e.rank == 0 && e.kind == CollectiveErrorKind::InjectedExit {
            self.rank0_lost = true;
        }
        self.failed = Some(e.clone());
        e
    }

    /// Record that the driver (rank 0) panicked out of a step — called by a
    /// supervisor that caught the unwind. Poisons the group and marks rank
    /// 0's memory untrustworthy, so [`TpSession::dismantle`] reports its KV
    /// as lost.
    pub fn note_rank0_panic(&mut self) {
        self.comm.poison();
        self.rank0_lost = true;
        self.inflight = true;
    }

    /// Ingest `prompt` and arm step-wise generation: after `try_begin`,
    /// each [`TpSession::try_generate_step`] emits the next greedy token.
    /// Token-identical to one-shot [`TpSession::generate`], which is
    /// implemented on top of this pair.
    pub fn try_begin(&mut self, prompt: &[usize]) -> Result<(), CollectiveError> {
        self.try_prompt(prompt)?;
        self.to_feed = None;
        Ok(())
    }

    /// Emit the next greedy token: feed the previously emitted token (if
    /// any) through the group, then sample the fresh logits row. A caller
    /// can stop between any two steps — the emitted tokens form an exact
    /// prefix of the full generation, and the unfed final token costs no
    /// group step.
    pub fn try_generate_step(&mut self) -> Result<usize, CollectiveError> {
        if let Some(t) = self.to_feed {
            self.try_decode(t)?;
            self.to_feed = None;
        }
        let tok = argmax(self.last_logits());
        self.to_feed = Some(tok);
        Ok(tok)
    }

    /// Greedy generation with the exact [`FastSession`] semantics: process
    /// `prompt`, then emit `n_tokens` tokens (`n_tokens == 0` ingests the
    /// prompt and returns no tokens).
    ///
    /// Panics on any collective failure; the panic message carries the typed
    /// error plus any worker panic payloads collected before the deadline.
    ///
    /// [`FastSession`]: dsi_model::fast::FastSession
    pub fn generate(&mut self, prompt: &[usize], n_tokens: usize) -> Vec<usize> {
        if let Err(e) = self.try_begin(prompt) {
            self.panic_with_failures(e);
        }
        let mut out = Vec::with_capacity(n_tokens);
        for _ in 0..n_tokens {
            match self.try_generate_step() {
                Ok(tok) => out.push(tok),
                Err(e) => self.panic_with_failures(e),
            }
        }
        out
    }

    /// Join the dead group (with the deadline) and panic with the collected
    /// failure detail — the legacy surface's error report.
    fn panic_with_failures(&mut self, e: CollectiveError) -> ! {
        let deadline = self.comm.config().timeout + JOIN_GRACE;
        let _ = join_with_deadline(&mut self.workers, deadline);
        let mut msg = format!("tp_exec group failed: {e}");
        while let Ok(exit) = self.exits.try_recv() {
            if let Some(cause) = exit.cause {
                msg.push_str(&format!("; rank {}: {cause}", exit.rank));
            }
        }
        panic!("{msg}");
    }

    /// Tear the group down and salvage what survives. Clean sessions get a
    /// graceful shutdown rendezvous; failed ones are poisoned. Workers are
    /// joined with a deadline (collective timeout + grace) — a wedged thread
    /// is detached and reported [`RankFailureCause::Unjoined`], never
    /// hung on. Worker panic payloads come back in
    /// [`Dismantled::failures`].
    pub fn dismantle(mut self) -> Dismantled {
        let tp = self.model.tp;
        let clean = self.failed.is_none()
            && !self.inflight
            && !self.rank0_lost
            && !self.comm.is_poisoned();
        if clean {
            self.shared.cmd.store(CMD_SHUTDOWN, Ordering::Relaxed);
            if self.comm.try_barrier().is_err() {
                self.comm.poison();
            }
        } else {
            self.comm.poison();
        }
        let deadline = self.comm.config().timeout + JOIN_GRACE;
        let mut failures = Vec::new();
        if let Some(e) = self.failed.take() {
            failures.push(RankFailure { rank: e.rank, cause: RankFailureCause::Collective(e) });
        }
        let unjoined = join_with_deadline(&mut self.workers, deadline);
        let mut kv: Vec<Option<KvCache>> = (0..tp).map(|_| None).collect();
        let mut exited = vec![false; tp];
        while let Ok(exit) = self.exits.try_recv() {
            exited[exit.rank] = true;
            kv[exit.rank] = exit.kv;
            if let Some(cause) = exit.cause {
                failures.push(RankFailure { rank: exit.rank, cause });
            }
        }
        // A worker that finished just past the join deadline may still have
        // delivered its exit report (the channel send precedes the thread's
        // actual exit): it is not a lost rank, and its salvage stands. Only
        // ranks with no report are truly wedged.
        for rank in unjoined {
            if !exited[rank] {
                failures.push(RankFailure { rank, cause: RankFailureCause::Unjoined });
            }
        }
        if !self.rank0_lost {
            kv[0] = Some(std::mem::replace(
                &mut self.rank0.kv,
                KvCache::with_capacity(0, 1, 0),
            ));
        }
        self.done = true;
        Dismantled { kv, failures }
    }
}

/// Poll-join every handle until `deadline` elapses; handles that never
/// finish are detached (dropped) and their ranks returned. `JoinHandle` has
/// no native timed join, and blocking forever on a wedged worker is exactly
/// the hang this layer exists to prevent.
fn join_with_deadline(
    workers: &mut Vec<(usize, JoinHandle<()>)>,
    deadline: Duration,
) -> Vec<usize> {
    let start = std::time::Instant::now();
    while !workers.is_empty() && start.elapsed() < deadline {
        if workers.iter().all(|(_, h)| h.is_finished()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut unjoined = Vec::new();
    for (rank, handle) in workers.drain(..) {
        if handle.is_finished() {
            // The worker caught its own panic, so this join cannot panic.
            let _ = handle.join();
        } else {
            unjoined.push(rank);
        }
    }
    unjoined
}

impl Drop for TpSession {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        if self.inflight
            || self.failed.is_some()
            || self.comm.is_poisoned()
            || std::thread::panicking()
        {
            // A rank (possibly this one) is already dead: make sure every
            // spinning peer unblocks, then reap without double-panicking.
            self.comm.poison();
        } else {
            self.shared.cmd.store(CMD_SHUTDOWN, Ordering::Relaxed);
            // A worker can still die between the check above and the
            // rendezvous; the typed result means a failed shutdown barrier
            // is "group already dead", not a new panic out of Drop.
            if self.comm.try_barrier().is_err() {
                self.comm.poison();
            }
        }
        // Deadline join: Drop must never hang, even on a wedged worker.
        let deadline = self.comm.config().timeout + JOIN_GRACE;
        let _ = join_with_deadline(&mut self.workers, deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_model::fast::PackedModel;
    use dsi_model::zoo;
    use dsi_sim::fault::{FaultPlan, FaultSite, FaultSpec};

    fn model(layers: usize, seed: u64) -> GptModel {
        GptModel::random(zoo::tiny(layers), seed)
    }

    #[test]
    fn tp1_generate_matches_fast_session_exactly() {
        let m = model(2, 42);
        let pm = PackedModel::pack(&m);
        let want = pm.session(4).generate(&[1, 2, 3, 4], 8);
        let tpm = Arc::new(TpPackedModel::shard(&m, 1));
        let got = tpm.session(4).generate(&[1, 2, 3, 4], 8);
        assert_eq!(got, want);
    }

    #[test]
    fn tp2_and_tp4_generate_match_fast_session() {
        for seed in [7u64, 21] {
            let m = model(2, seed);
            let pm = PackedModel::pack(&m);
            let want = pm.session(4).generate(&[5, 6, 7], 10);
            for tp in [2usize, 4] {
                let tpm = Arc::new(TpPackedModel::shard(&m, tp));
                let got = tpm.session(4).generate(&[5, 6, 7], 10);
                assert_eq!(got, want, "tp {tp} seed {seed}");
            }
        }
    }

    #[test]
    fn zero_token_generate_returns_empty_after_ingesting_prompt() {
        // n_tokens == 0 must not emit a token; the prompt is still ingested
        // (context advances and last_logits covers its final position), so
        // a later generate continues exactly like an uninterrupted one.
        let m = model(2, 9);
        let pm = PackedModel::pack(&m);
        let mut fast = pm.session(4);
        assert!(fast.generate(&[1, 2], 0).is_empty());
        let want = fast.generate(&[3], 3);
        let tpm = Arc::new(TpPackedModel::shard(&m, 2));
        let mut sess = tpm.session(4);
        assert!(sess.generate(&[1, 2], 0).is_empty());
        assert_eq!(sess.context_len(), 2);
        assert_eq!(sess.last_logits().len(), tpm.config().vocab); // prompt row is live
        assert_eq!(sess.generate(&[3], 3), want);
    }

    #[test]
    fn session_reuse_continues_context() {
        // Two generate calls on one session share the KV context, exactly
        // like FastSession.
        let m = model(2, 9);
        let pm = PackedModel::pack(&m);
        let mut fast = pm.session(4);
        let f1 = fast.generate(&[1, 2], 3);
        let f2 = fast.generate(&[8, 9], 3);
        let tpm = Arc::new(TpPackedModel::shard(&m, 2));
        let mut sess = tpm.session(4);
        assert_eq!(sess.generate(&[1, 2], 3), f1);
        assert_eq!(sess.generate(&[8, 9], 3), f2);
    }

    #[test]
    fn last_logits_exposes_sampling_row() {
        let m = model(1, 3);
        let tpm = Arc::new(TpPackedModel::shard(&m, 2));
        let mut sess = tpm.session(2);
        let toks = sess.generate(&[1, 2], 1);
        assert_eq!(toks[0], argmax(sess.last_logits()));
        assert_eq!(sess.last_logits().len(), tpm.config().vocab);
    }

    #[test]
    fn worker_panic_poisons_instead_of_hanging() {
        // An out-of-vocab token makes every rank's forward assert; the
        // workers' catch_unwind must fail the group loudly (and Drop must
        // reap the dead threads without hanging).
        let m = model(1, 5);
        let tpm = Arc::new(TpPackedModel::shard(&m, 2));
        let mut sess = tpm.session(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sess.generate(&[1_000_000], 1);
        }));
        assert!(caught.is_err());
        drop(sess); // must not deadlock
    }

    #[test]
    fn indivisible_tp_rejected() {
        let m = model(1, 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            TpPackedModel::shard(&m, 3); // tiny() has 4 heads
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn clean_dismantle_salvages_every_kv_shard() {
        let m = model(2, 11);
        let tpm = Arc::new(TpPackedModel::shard(&m, 2));
        let mut sess = tpm.session(4);
        let out = sess.generate(&[1, 2, 3], 4);
        let ctx = 3 + out.len() - 1; // prompt rows + decode rows
        let d = sess.dismantle();
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        assert_eq!(d.kv.len(), 2);
        for (r, kv) in d.kv.iter().enumerate() {
            let kv = kv.as_ref().unwrap_or_else(|| panic!("rank {r} kv lost"));
            assert_eq!(kv.context_len(), ctx, "rank {r}");
        }
    }

    #[test]
    fn worker_panic_payload_surfaces_in_dismantle() {
        // Script rank 1 to panic at a layer site: the step fails typed on
        // rank 0 (timeout or poison), and dismantle carries rank 1's panic
        // payload back to the caller.
        let m = model(2, 13);
        let tpm = Arc::new(TpPackedModel::shard(&m, 2));
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Layer { token: 0, layer: 0 },
            kind: FaultKind::Panic,
        }]);
        let cfg = CommConfig {
            timeout: Duration::from_millis(500),
            injector: Some(Arc::new(plan.injector())),
            ..CommConfig::default()
        };
        let mut sess = tpm.session_with(4, cfg, None);
        let err = sess.try_prompt(&[1, 2]).expect_err("group must fail typed");
        assert!(
            matches!(
                err.kind,
                CollectiveErrorKind::Poisoned | CollectiveErrorKind::Timeout { .. }
            ),
            "{err}"
        );
        let d = sess.dismantle();
        assert!(d.kv[1].is_none(), "panicked rank's memory must not be salvaged");
        let payload = d.failures.iter().find_map(|f| match &f.cause {
            RankFailureCause::Panicked(p) if f.rank == 1 => Some(p.clone()),
            _ => None,
        });
        let payload = payload.expect("rank 1 panic payload must surface");
        assert!(payload.contains("injected fault"), "{payload}");
    }

    #[test]
    fn scripted_worker_exit_times_out_and_salvage_drops_its_kv() {
        // Rank 1 "crashes" (drops its arrival): rank 0 must observe a typed
        // timeout naming rank 1, and dismantle must salvage rank 0's KV but
        // not rank 1's.
        let m = model(1, 17);
        let tpm = Arc::new(TpPackedModel::shard(&m, 2));
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 0 },
            kind: FaultKind::Exit,
        }]);
        let cfg = CommConfig {
            timeout: Duration::from_millis(200),
            injector: Some(Arc::new(plan.injector())),
            ..CommConfig::default()
        };
        let mut sess = tpm.session_with(4, cfg, None);
        let err = sess.try_prompt(&[1, 2]).expect_err("lost rank must surface");
        match &err.kind {
            CollectiveErrorKind::Timeout { stalled } => assert_eq!(stalled, &[1], "{err}"),
            other => panic!("expected Timeout, got {other:?}"),
        }
        let d = sess.dismantle();
        assert!(d.kv[0].is_some(), "rank 0 survives");
        assert!(d.kv[1].is_none(), "crashed rank's memory is gone");
        assert!(
            d.failures.iter().any(|f| f.rank == 1
                && matches!(&f.cause, RankFailureCause::Collective(e)
                    if e.kind == CollectiveErrorKind::InjectedExit)),
            "{:?}",
            d.failures
        );
    }

    #[test]
    fn failed_session_refuses_further_steps_with_same_error() {
        let m = model(1, 19);
        let tpm = Arc::new(TpPackedModel::shard(&m, 2));
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 0 },
            kind: FaultKind::Exit,
        }]);
        let cfg = CommConfig {
            timeout: Duration::from_millis(200),
            injector: Some(Arc::new(plan.injector())),
            ..CommConfig::default()
        };
        let mut sess = tpm.session_with(4, cfg, None);
        let e1 = sess.try_prompt(&[1]).expect_err("first failure");
        let e2 = sess.try_decode(1).expect_err("dead session refuses");
        assert_eq!(e1, e2);
    }

    #[test]
    fn seeded_kv_resumes_decoding_token_identically() {
        // Decode a few tokens, dismantle, rebuild a session at the same tp
        // from the salvaged shards, and continue: the continuation must
        // match an uninterrupted run token-for-token.
        let m = model(2, 23);
        let tpm = Arc::new(TpPackedModel::shard(&m, 2));
        let mut uninterrupted = tpm.session(4);
        let want_a = uninterrupted.generate(&[3, 1, 4], 3);
        let want_b = uninterrupted.generate(&[want_a[2]], 4);

        let mut first = tpm.session(4);
        let got_a = first.generate(&[3, 1, 4], 3);
        assert_eq!(got_a, want_a);
        let d = first.dismantle();
        let kv: Vec<KvCache> = d.kv.into_iter().map(|k| k.unwrap()).collect();
        let mut second = tpm.session_with(4, CommConfig::default(), Some(kv));
        let got_b = second.generate(&[got_a[2]], 4);
        assert_eq!(got_b, want_b);
    }
}
