//! Executed tensor parallelism: a group of threaded ranks, each running the
//! paged engine's pass over its view of one packed model.
//!
//! [`tp`](crate::tp) proves the Megatron sharding math (Sec. IV-A) but runs
//! every rank sequentially through the slow reference ops, so it can never
//! show a *speedup* — the whole point of Fig. 8's scaling story. This module
//! is the executed counterpart:
//!
//! * **A rank is a view** — the model is packed once ([`SharedModel`],
//!   FP32 or INT8 panels alike), and every rank of every group reads it
//!   through windows of its operands (`PanelWeights::gemm_window`): QKV as
//!   three column windows (its heads' q, k and v), FF1 as one, W_o and FF2
//!   as row ranges, the embeddings, layer-norms and logits operand whole.
//!   These are the shards [`tp::shard_layer`](crate::tp::shard_layer)
//!   cuts, and a window computes the bits its shard packed on its own
//!   would, so that function stays this path's oracle. W_o's and FF2's
//!   biases stay *full* and are applied once after the all-reduce (the
//!   functional path pre-divides them by `tp`; summing `tp` rounded copies
//!   of `b/tp` is not bit-stable, applying `b` once is).
//! * **One engine per rank** — every rank owns a `dsi_model::paged::Engine`
//!   over its view (a `WeightSource`) and its own page pool of `h/tp`-wide
//!   K/V rows (the KV memory saving of Sec. IV-A). A pass is
//!   `Engine::pass_with` with a row-parallel seam that holds the rank's
//!   layer fault site and finishes W_o/FF2 as partial GEMM → all-reduce →
//!   bias + residual. After each all-reduce the activations are replicated
//!   bit for bit, so every rank runs the logits head and samples the same
//!   tokens: no token broadcast.
//! * **One OS thread per rank** — [`TpSession`] runs rank 0 inline on the
//!   caller's thread and spawns ranks `1..tp` as worker threads, pinned to
//!   distinct cores when the host has enough of them (best-effort
//!   `sched_setaffinity`). A view holds `Arc` shares of the model, not
//!   borrows: a rank thread outlives a pass, and a wedged one is detached.
//! * **Shared-memory collectives** — the two per-layer all-reduces run on
//!   [`dsi_sim::shmem::ShmRank::try_allreduce_sum`]: a sense-reversing
//!   barrier plus a chunked in-place reduce over published buffer pointers.
//! * **One pass command** — rank 0 publishes each pass (the slots it
//!   released since the last one, the seats with their contexts, the
//!   advanced slots, and its pool's statistics), rings a doorbell the idle
//!   workers park on, and crosses the step barrier; every worker applies
//!   the releases, asserts that its pool matches rank 0's, and runs the
//!   same pass. All ranks make the same
//!   engine calls in the same order, so their page tables and prefix
//!   indexes are identical, and a pass the pool cannot seat returns
//!   `Err(Pages)` on every rank before any collective. Commands alternate
//!   between two buffers, so a worker still reading command `k` never sees
//!   rank 0 writing `k + 1`; the buffers are reused, so steady-state decode
//!   allocates nothing.
//!
//! Greedy decode is **token-identical** to the single-thread
//! [`FastSession`] over the same packing: column windows of a panel GEMM
//! produce bit-identical columns (each output column has its own
//! accumulator chain), attention heads are disjoint, and the row-parallel
//! partial sums only reassociate the same f32 additions the fused epilogue
//! performs. At `tp = 1` the logits are bit-identical too: partial GEMM +
//! `bias_residual_inplace` is the fused `matmul_bias_add_into` epilogue's
//! expression.
//!
//! ## Failure handling
//!
//! Every rendezvous is bounded (the `dsi-sim` collectives carry a timeout),
//! so a dead or wedged rank surfaces as a typed [`CollectiveError`] from
//! [`TpSession::try_pass`] instead of a hang. Worker threads run their rank
//! loop under `catch_unwind` and report a `WorkerExit` on any exit — clean
//! shutdown, collective failure, scripted crash, or panic (with its
//! payload). [`TpSession::dismantle`] tears the group down with a
//! *deadline* join — never hanging on a wedged thread — and returns every
//! failure and each rank's recorded collective program
//! ([`Dismantled::programs`], which `dsi-verify` checks).
//!
//! [`TpEngine`] is the group as a multi-slot engine that lives across
//! requests. A fault anywhere in the group fails the pass with the
//! [`RankFailure`] that caused it; the engine dismantles the group and
//! builds a new one over the same packed model at its next pass — at the
//! widest degree the surviving ranks can split the model into
//! ([`SharedModel::splits`]) when some rank's memory was lost (panic,
//! scripted crash, wedged thread), at the same degree otherwise. Nothing is
//! salvaged or re-packed: the caller recovers its sequences by replaying
//! their committed contexts, as it does on every other engine.
//!
//! [`FastSession`]: dsi_model::fast::FastSession

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use dsi_kernels::blocked::{self, Epilogue, OutRows, PackedB, PanelWeights, Window};
use dsi_kernels::fused;
use dsi_kernels::tensor::Tensor;
use dsi_model::config::GptConfig;
use dsi_model::fast::{PackedLayer, PackedModel, Row, RowParallel, WeightSource};
use dsi_model::paged::{Engine, PageStats, StepError};
use dsi_model::reference::GptModel;
use dsi_sim::fault::{apply_stall, FaultKind};
use dsi_sim::shmem::{CommConfig, CommOp, Doorbell, ShmComm, ShmRank};
use dsi_sim::FlightRecorder;
use dsi_sim::{CollectiveError, CollectiveErrorKind};
use serde::Serialize;

/// A model packed once for every group a [`TpEngine`] builds, at any
/// degree: each GEMM operand sits behind its own `Arc`, so a rank's view of
/// it is a share, not a copy, and the embeddings and final layer-norm are
/// read from the model itself. A clone shares the operands too.
#[derive(Debug, Clone)]
pub struct SharedModel<B = PackedB> {
    model: Arc<GptModel>,
    layers: Vec<PackedLayer<Arc<B>>>,
    /// `wteᵀ` packed as the `[h, vocab]` logits projection (every rank
    /// computes logits; the projection is not split).
    logits: Arc<B>,
}

impl SharedModel {
    /// Pack `model` into FP32 panels.
    pub fn pack(model: Arc<GptModel>) -> Self {
        Self::with_packing(model, |m| PackedModel::pack(m))
    }
}

impl<B: PanelWeights> SharedModel<B> {
    /// Pack `model` with `pack` (`PackedModel::pack`, or
    /// `QuantizedPackedModel::quantize_pack` at a group size), then share
    /// its operands.
    pub fn with_packing(model: Arc<GptModel>, pack: impl FnOnce(&GptModel) -> PackedModel<'_, B>) -> Self {
        let PackedModel { layers, wte_packed, .. } = pack(&model);
        let layers = layers
            .into_iter()
            .map(|l| PackedLayer {
                ln1_g: l.ln1_g,
                ln1_b: l.ln1_b,
                w_qkv: Arc::new(l.w_qkv),
                b_qkv: l.b_qkv,
                w_o: Arc::new(l.w_o),
                b_o: l.b_o,
                ln2_g: l.ln2_g,
                ln2_b: l.ln2_b,
                w_ff1: Arc::new(l.w_ff1),
                b_ff1: l.b_ff1,
                w_ff2: Arc::new(l.w_ff2),
                b_ff2: l.b_ff2,
            })
            .collect();
        SharedModel { model, layers, logits: Arc::new(wte_packed) }
    }

    pub fn config(&self) -> &GptConfig {
        &self.model.config
    }

    /// Whether `d` ranks can split this model: whole heads per rank, and
    /// every rank's row range of W_o and FF2 on its operand's row alignment
    /// (an INT8 quantization group). The one feasibility test of a degree:
    /// a group is built only at a degree that passes it, the first one and
    /// every degraded one alike.
    pub fn splits(&self, d: usize) -> bool {
        let heads = self.config().heads;
        let aligned = |w: &Arc<B>| (w.k() / d).is_multiple_of(w.row_align());
        d >= 1
            && heads.is_multiple_of(d)
            && (d == 1 || self.layers.iter().all(|l| aligned(&l.w_o) && aligned(&l.w_ff2)))
    }
}

// --- command protocol -------------------------------------------------------

/// Grace added to the collective timeout when joining worker threads: long
/// enough for a worker stuck in a rendezvous to observe its own timeout and
/// exit, short enough that teardown stays bounded.
const JOIN_GRACE: Duration = Duration::from_secs(2);

/// One command as rank 0 publishes it before a step barrier and every
/// worker copies it after.
#[derive(Debug, Default)]
struct PassCmd {
    shutdown: bool,
    /// Slots rank 0 released since the previous command, in order.
    releases: Vec<usize>,
    /// `(slot, context length)` per seat; the contexts, concatenated in
    /// seat order, are `tokens`.
    seats: Vec<(usize, usize)>,
    tokens: Vec<usize>,
    advance: Vec<usize>,
    /// Rank 0's pool after the releases, before the pass.
    stats: Option<PageStats>,
}

impl PassCmd {
    /// Copy `o` into this command's buffers, reusing their capacity.
    fn copy_from(&mut self, o: &PassCmd) {
        self.shutdown = o.shutdown;
        self.releases.clone_from(&o.releases);
        self.seats.clone_from(&o.seats);
        self.tokens.clone_from(&o.tokens);
        self.advance.clone_from(&o.advance);
        self.stats = o.stats;
    }

    /// The seats as `Engine::pass` takes them.
    fn seats(&self) -> Vec<(usize, &[usize])> {
        let mut at = 0;
        let seat = |&(slot, len): &(usize, usize)| {
            at += len;
            (slot, &self.tokens[at - len..at])
        };
        self.seats.iter().map(seat).collect()
    }
}

/// The command buffers: command `k` lives in `cmds[k % 2]`. Rank 0 writes
/// command `k + 2` only after the step barrier of `k + 1`, which every
/// worker reaches only once it has copied command `k`.
///
/// A worker waits for each command at the doorbell before it enters the
/// step barrier, so an idle group — a server between requests — parks
/// instead of spinning, and never times out.
#[derive(Debug, Default)]
struct TpShared {
    cmds: [Mutex<PassCmd>; 2],
    bell: Doorbell,
}

impl TpShared {
    fn cmd(&self, k: usize) -> MutexGuard<'_, PassCmd> {
        // A worker that panicked holding the lock left a whole command
        // behind (it only copies under it).
        self.cmds[k % 2].lock().unwrap_or_else(PoisonError::into_inner)
    }
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

/// One rank's failure, as reported by [`TpSession::dismantle`] and by a
/// failed [`TpEngine::pass`].
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

impl RankFailure {
    /// The rank's memory is gone: a panic, a scripted crash, or a thread
    /// wedged past the join deadline. Anything else left it intact.
    fn lost_memory(&self) -> bool {
        match &self.cause {
            RankFailureCause::Panicked(_) | RankFailureCause::Unjoined => true,
            RankFailureCause::Collective(e) => e.kind == CollectiveErrorKind::InjectedExit,
        }
    }
}

/// A worker thread's exit report, sent over the exit channel.
#[derive(Debug)]
struct WorkerExit {
    rank: usize,
    cause: Option<RankFailureCause>,
    /// Every collective op the rank executed.
    ops: FlightRecorder<CommOp>,
}

/// What [`TpSession::dismantle`] collected from a (possibly failed) group.
#[derive(Debug)]
pub struct Dismantled {
    /// Every failure observed during the group's lifetime and teardown.
    pub failures: Vec<RankFailure>,
    /// `programs[rank]` is the collective program the rank executed, from
    /// group creation through teardown (empty for a rank that never
    /// reported back).
    pub programs: Vec<FlightRecorder<CommOp>>,
}

// --- per-rank execution state ----------------------------------------------

/// One rank's view of a shared packed operand: input rows `rows`, and the
/// output columns `cols` laid side by side (QKV's q, k and v windows of the
/// rank's heads; one window elsewhere). A GEMM over it is one windowed GEMM
/// of the shared operand per column window, each into its own columns of
/// the output.
struct OperandView<B> {
    op: Arc<B>,
    rows: Range<usize>,
    cols: Vec<Range<usize>>,
}

impl<B: PanelWeights> OperandView<B> {
    /// Every row of `op`, output columns `cols`.
    fn columns(op: &Arc<B>, cols: impl IntoIterator<Item = Range<usize>>) -> Self {
        OperandView { op: Arc::clone(op), rows: 0..op.k(), cols: cols.into_iter().collect() }
    }

    /// Input rows `rows` of `op`, every output column.
    fn rows(op: &Arc<B>, rows: Range<usize>) -> Self {
        OperandView { op: Arc::clone(op), rows, cols: std::iter::once(0..op.n()).collect() }
    }
}

impl<B: PanelWeights> PanelWeights for OperandView<B> {
    fn k(&self) -> usize {
        self.rows.len()
    }
    fn n(&self) -> usize {
        self.cols.iter().map(ExactSizeIterator::len).sum()
    }
    /// The operand's bytes in proportion to the share of it the view reads.
    fn storage_bytes(&self) -> usize {
        self.op.storage_bytes() * self.k() * self.n() / (self.op.k() * self.op.n()).max(1)
    }
    fn row_align(&self) -> usize {
        self.op.row_align()
    }
    fn gemm_window(&self, win: &Window, a: &[f32], mut out: OutRows<'_>, ep: Epilogue<'_>) {
        assert!(win.rows.end <= self.k() && win.cols.end <= self.n(), "view: {win:?} outside the view");
        let rows = self.rows.start + win.rows.start..self.rows.start + win.rows.end;
        // `at` is the view column the window `c` starts at.
        let mut at = 0;
        for c in &self.cols {
            let (lo, hi) = (win.cols.start.max(at), win.cols.end.min(at + c.len()));
            if lo < hi {
                let o = lo - win.cols.start;
                let cols = c.start + lo - at..c.start + hi - at;
                let ep = ep.columns(o, hi - lo);
                self.op.gemm_window(&Window { rows: rows.clone(), cols }, a, out.cols_at(o, hi - lo), ep);
            }
            at += c.len();
        }
    }
}

/// Rank `rank` of a `tp`-rank group as `fast::step` reads a
/// [`SharedModel`]: the windows [`tp::shard_layer`](crate::tp::shard_layer)
/// would cut as this rank's shard of every layer, with W_o's and FF2's
/// biases whole (applied once, post-reduce), and the embeddings, final
/// layer-norm and logits operand shared whole. Every operand is an `Arc`
/// share of the model's, so building a view copies no weight; only the
/// layers' gain and bias vectors are the view's own.
struct RankView<B> {
    model: Arc<GptModel>,
    layers: Vec<PackedLayer<OperandView<B>>>,
    logits: OperandView<B>,
    /// The rank's `h / tp` columns of every K/V row.
    kv_width: usize,
}

impl<B: PanelWeights> RankView<B> {
    fn new(m: &SharedModel<B>, rank: usize, tp: usize) -> Self {
        let h = m.config().hidden;
        let a = h / tp;
        let heads = rank * a..(rank + 1) * a;
        let layers = m
            .layers
            .iter()
            .map(|l| {
                let f = l.w_ff1.n() / tp;
                let ff = rank * f..(rank + 1) * f;
                let qkv = (0..3).map(|j| j * h + heads.start..j * h + heads.end);
                PackedLayer {
                    ln1_g: l.ln1_g.clone(),
                    ln1_b: l.ln1_b.clone(),
                    b_qkv: qkv.clone().flat_map(|c| l.b_qkv[c].to_vec()).collect(),
                    w_qkv: OperandView::columns(&l.w_qkv, qkv),
                    w_o: OperandView::rows(&l.w_o, heads.clone()),
                    b_o: l.b_o.clone(),
                    ln2_g: l.ln2_g.clone(),
                    ln2_b: l.ln2_b.clone(),
                    w_ff1: OperandView::columns(&l.w_ff1, std::iter::once(ff.clone())),
                    b_ff1: l.b_ff1[ff.clone()].to_vec(),
                    w_ff2: OperandView::rows(&l.w_ff2, ff),
                    b_ff2: l.b_ff2.clone(),
                }
            })
            .collect();
        RankView {
            model: Arc::clone(&m.model),
            layers,
            logits: OperandView::rows(&m.logits, 0..m.logits.k()),
            kv_width: a,
        }
    }
}

impl<B: PanelWeights> WeightSource for RankView<B> {
    type B = OperandView<B>;
    type Layer<'a>
        = &'a PackedLayer<OperandView<B>>
    where
        Self: 'a;
    /// A resident view never fails to yield a layer; a rank's pass fails
    /// only in its [`AllReduce`] seam.
    type Error = CollectiveError;

    fn config(&self) -> &GptConfig {
        &self.model.config
    }
    fn embeddings(&self) -> (&Tensor, &Tensor) {
        (&self.model.wte, &self.model.wpe)
    }
    fn lnf(&self) -> (&[f32], &[f32]) {
        (self.model.lnf_g.data(), self.model.lnf_b.data())
    }
    fn logits_w(&self) -> &OperandView<B> {
        &self.logits
    }
    fn layer(&self, l: usize) -> Result<&PackedLayer<OperandView<B>>, CollectiveError> {
        Ok(&self.layers[l])
    }
    fn kv_width(&self) -> usize {
        self.kv_width
    }
}

/// A rank's row-parallel seam: the layer-site fault hook, and W_o/FF2 as
/// this rank's partial GEMM → all-reduce → full bias + residual.
struct AllReduce<'c>(&'c mut ShmRank);

impl RowParallel<CollectiveError> for AllReduce<'_> {
    /// One `Option` check when no injector is installed. A "token 5,
    /// layer 2" script fires in the pass that has a row at position 5,
    /// whether that row belongs to a seat's context or is a decode step. A
    /// scripted crash fails typed; an injected panic panics here (a
    /// worker's `catch_unwind` converts it to a
    /// [`RankFailureCause::Panicked`] report, [`TpEngine`] catches rank
    /// 0's).
    fn at_layer(&mut self, l: usize, rows: &[Row]) -> Result<(), CollectiveError> {
        let comm = &*self.0;
        let Some(inj) = comm.injector() else { return Ok(()) };
        match inj.at_layer(comm.rank(), rows.iter().map(|r| r.pos), l) {
            Some(FaultKind::Stall { millis }) => apply_stall(millis),
            Some(FaultKind::Exit) => {
                return Err(CollectiveError {
                    rank: comm.rank(),
                    kind: CollectiveErrorKind::InjectedExit,
                    epoch: comm.epoch(),
                });
            }
            Some(FaultKind::Panic) => {
                panic!("injected fault: rank {} panics at layer {l}", comm.rank())
            }
            Some(FaultKind::Corrupt) | None => {}
        }
        Ok(())
    }

    fn project<B: PanelWeights>(
        &mut self,
        a: &[f32],
        w: &B,
        cols: Range<usize>,
        bias: &[f32],
        residual: &[f32],
        mut out: OutRows<'_>,
    ) -> Result<(), CollectiveError> {
        // A rank computes its whole pass: the one share is every column.
        debug_assert_eq!(cols, 0..w.n());
        let m = out.rows();
        let out = out.dense();
        blocked::matmul_into(a, m, w, out);
        self.0.try_allreduce_sum(out)?;
        fused::bias_residual_inplace(out, bias, residual);
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

/// A worker rank's lock-step loop: doorbell, barrier, copy the command,
/// apply its releases, check the pool against rank 0's, run the pass,
/// repeat. Returns
/// `Ok` on a clean shutdown command, `Err` when any collective (or the
/// layer fault hook) fails typed.
fn worker_loop<B: PanelWeights>(
    eng: &mut Engine<RankView<B>>,
    shared: &TpShared,
    comm: &mut ShmRank,
) -> Result<(), CollectiveError> {
    let mut cmd = PassCmd::default();
    let mut out = Vec::new();
    for k in 0.. {
        // Return once command `k` is published, or the group is poisoned
        // (the step barrier then fails typed).
        shared.bell.wait(k, || comm.is_poisoned());
        // Step barrier: rank 0 has published command `k`.
        comm.try_barrier()?;
        cmd.copy_from(&shared.cmd(k));
        if cmd.shutdown {
            break;
        }
        for &slot in &cmd.releases {
            eng.release(slot);
        }
        // Always on: a divergence would otherwise surface only as a
        // collective timeout, far from its cause.
        assert_eq!(Some(eng.pool_stats()), cmd.stats, "tp_exec: rank {}'s page pool diverged from rank 0's", comm.rank());
        out.clear();
        match eng.pass_with(&mut AllReduce(comm), &cmd.seats(), &cmd.advance, &mut out) {
            Ok(()) | Err(StepError::Pages(_)) => {}
            Err(StepError::Weights(e)) => return Err(e),
        }
    }
    Ok(())
}

fn panic_payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// --- the group --------------------------------------------------------------

/// A threaded tensor-parallel group: rank 0's engine runs inline on the
/// caller's thread; ranks `1..tp` run theirs on their own (best-effort
/// pinned) OS threads and rendezvous at the shared-memory barrier each
/// pass. See the module docs for the pass command and the failure contract.
pub struct TpSession<B = PackedB> {
    tp: usize,
    shared: Arc<TpShared>,
    comm: ShmRank,
    rank0: Engine<RankView<B>>,
    /// Slots rank 0 released since the last command.
    released: Vec<usize>,
    /// Commands published so far.
    published: usize,
    workers: Vec<(usize, JoinHandle<()>)>,
    exits: Receiver<WorkerExit>,
    /// True between publishing a pass and rank 0 completing it. If rank 0
    /// unwinds mid-pass, the workers may be inside its collectives — a
    /// graceful shutdown rendezvous would pair with one of them, so
    /// teardown must poison instead.
    inflight: bool,
    /// The failure that killed the group, if any. Once set, every further
    /// pass refuses with a clone of it.
    failed: Option<CollectiveError>,
    /// Rank 0's memory is not trustworthy (scripted crash or a panic the
    /// caller caught).
    rank0_lost: bool,
    /// `dismantle` ran: `Drop` has nothing left to do.
    done: bool,
}

impl<B: PanelWeights + Send + Sync + 'static> TpSession<B> {
    /// Start a group of `tp` ranks over `model`: spawns the `tp - 1`
    /// worker rank threads, each (and rank 0) with an engine of `max_slots`
    /// slots over `pages_total` pages of `page_tokens` tokens, all
    /// collectives on `cfg` (timeout / checksum / fault injection). Panics
    /// unless `model` [`SharedModel::splits`] `tp` ways.
    pub fn new(
        model: &SharedModel<B>,
        tp: usize,
        max_slots: usize,
        pages_total: usize,
        page_tokens: usize,
        cfg: CommConfig,
    ) -> Self {
        let c = model.config();
        assert!(model.splits(tp), "tp {tp} cannot split {} heads of a {}-wide model", c.heads, c.hidden);
        let shared = Arc::new(TpShared::default());
        let (tx, exits) = std::sync::mpsc::channel::<WorkerExit>();
        let mut ranks = ShmComm::create_with(tp, cfg);
        // Pin only when the host actually has a core per rank; on smaller
        // hosts the barrier's yield path keeps correctness via the scheduler.
        let pin = std::thread::available_parallelism().is_ok_and(|n| n.get() >= tp);
        let workers = ranks
            .drain(1..)
            .map(|mut rank_comm| {
                let view = RankView::new(model, rank_comm.rank(), tp);
                let shared = Arc::clone(&shared);
                let tx: Sender<WorkerExit> = tx.clone();
                let r = rank_comm.rank();
                let handle = std::thread::spawn(move || {
                    let poisoner = rank_comm.poisoner();
                    if pin {
                        pin_current_thread(r);
                    }
                    // The rank loop runs under `catch_unwind` so that even a
                    // panicking worker reports an exit (with its payload)
                    // instead of silently dying; the handle stays outside so
                    // its op recording always can.
                    let comm = &mut rank_comm;
                    let outcome = catch_unwind(AssertUnwindSafe(move || {
                        let mut eng = Engine::new(view, max_slots, pages_total, page_tokens);
                        worker_loop(&mut eng, &shared, comm)
                    }));
                    let cause = match outcome {
                        Ok(Ok(())) => None,
                        // A scripted crash models a dead process: it does NOT
                        // poison — peers must detect the loss through the
                        // timeout/heartbeat path.
                        Ok(Err(e)) if e.kind == CollectiveErrorKind::InjectedExit => {
                            Some(RankFailureCause::Collective(e))
                        }
                        // Poison so every peer unblocks promptly.
                        Ok(Err(e)) => {
                            poisoner.poison();
                            Some(RankFailureCause::Collective(e))
                        }
                        Err(payload) => {
                            poisoner.poison();
                            Some(RankFailureCause::Panicked(panic_payload_to_string(payload)))
                        }
                    };
                    let ops = rank_comm.recording().clone();
                    let _ = tx.send(WorkerExit { rank: r, cause, ops });
                });
                (r, handle)
            })
            .collect();
        let comm = ranks.pop().expect("rank 0 handle");
        TpSession {
            rank0: Engine::new(RankView::new(model, 0, tp), max_slots, pages_total, page_tokens),
            released: Vec::with_capacity(max_slots),
            tp,
            shared,
            comm,
            published: 0,
            workers,
            exits,
            inflight: false,
            failed: None,
            rank0_lost: false,
            done: false,
        }
    }

    pub fn tp(&self) -> usize {
        self.tp
    }

    /// Rank 0's pool — every rank's, while the group is healthy.
    pub fn pool_stats(&self) -> PageStats {
        self.rank0.pool_stats()
    }

    pub fn slot_in_use(&self, slot: usize) -> bool {
        self.rank0.slot_in_use(slot)
    }

    /// See `Engine::attached_tokens`.
    pub fn attached_tokens(&self, slot: usize) -> usize {
        self.rank0.attached_tokens(slot)
    }

    /// Retire `slot` on rank 0 at once (so admission sees its pages free);
    /// the workers apply it at the start of the next pass.
    pub fn release(&mut self, slot: usize) {
        self.rank0.release(slot);
        self.released.push(slot);
    }

    /// One pass of the group: `Engine::pass` on every rank, with the same
    /// arguments. `out` gets rank 0's tokens, which every rank computed.
    /// On `Err(Weights)` the group is dead: every later pass refuses with
    /// the same error, and [`TpSession::dismantle`] reports what failed.
    pub fn try_pass(
        &mut self,
        seats: &[(usize, &[usize])],
        advance: &[usize],
        out: &mut Vec<usize>,
    ) -> Result<(), StepError<CollectiveError>> {
        if let Some(e) = &self.failed {
            return Err(StepError::Weights(e.clone()));
        }
        if self.comm.is_poisoned() {
            let e = CollectiveError {
                rank: 0,
                kind: CollectiveErrorKind::Poisoned,
                epoch: self.comm.epoch(),
            };
            return Err(StepError::Weights(self.fail(e)));
        }
        let stats = self.rank0.pool_stats();
        let mut released = std::mem::take(&mut self.released);
        self.publish(|cmd| {
            cmd.shutdown = false;
            std::mem::swap(&mut cmd.releases, &mut released);
            cmd.seats.clear();
            cmd.tokens.clear();
            for &(slot, ctx) in seats {
                cmd.seats.push((slot, ctx.len()));
                cmd.tokens.extend_from_slice(ctx);
            }
            cmd.advance.clear();
            cmd.advance.extend_from_slice(advance);
            cmd.stats = Some(stats);
        });
        // The buffer the command held before: empty it for the next passes'
        // releases, keeping its capacity.
        released.clear();
        self.released = released;
        self.inflight = true;
        if let Err(e) = self.comm.try_barrier() {
            return Err(StepError::Weights(self.fail(e)));
        }
        match self.rank0.pass_with(&mut AllReduce(&mut self.comm), seats, advance, out) {
            Ok(()) => {
                self.inflight = false;
                Ok(())
            }
            // Every rank's pool is rank 0's: they all refused, before any
            // collective.
            Err(StepError::Pages(p)) => {
                self.inflight = false;
                Err(StepError::Pages(p))
            }
            Err(StepError::Weights(e)) => Err(StepError::Weights(self.fail(e))),
        }
    }

    /// Record a fatal pass failure: poison the group so every worker
    /// unblocks promptly, remember the error, classify rank 0's own memory.
    fn fail(&mut self, e: CollectiveError) -> CollectiveError {
        self.comm.poison();
        if e.rank == 0 && e.kind == CollectiveErrorKind::InjectedExit {
            self.rank0_lost = true;
        }
        self.failed = Some(e.clone());
        e
    }

    /// Record that rank 0 panicked out of a pass — called by the caller
    /// that caught the unwind. Poisons the group and marks rank 0's memory
    /// lost.
    fn note_rank0_panic(&mut self) {
        self.comm.poison();
        self.rank0_lost = true;
        self.inflight = true;
    }

    /// Tear the group down. Clean groups get a graceful shutdown
    /// rendezvous; failed ones are poisoned. Workers are joined with a
    /// deadline (collective timeout + grace) — a wedged thread is detached
    /// and reported [`RankFailureCause::Unjoined`], never hung on. Worker
    /// panic payloads come back in [`Dismantled::failures`].
    pub fn dismantle(mut self) -> Dismantled {
        self.teardown()
    }

    /// [`TpSession::dismantle`] in place: the session is left inert, and
    /// dropping it does nothing.
    fn teardown(&mut self) -> Dismantled {
        let tp = self.tp;
        self.shut_down();
        let mut failures = Vec::new();
        if let Some(e) = self.failed.take() {
            failures.push(RankFailure { rank: e.rank, cause: RankFailureCause::Collective(e) });
        }
        let deadline = self.comm.config().timeout + JOIN_GRACE;
        let unjoined = join_with_deadline(&mut self.workers, deadline);
        let mut exited = vec![false; tp];
        let mut programs = vec![FlightRecorder::default(); tp];
        programs[0] = self.comm.recording().clone();
        while let Ok(exit) = self.exits.try_recv() {
            exited[exit.rank] = true;
            programs[exit.rank] = exit.ops;
            if let Some(cause) = exit.cause {
                failures.push(RankFailure { rank: exit.rank, cause });
            }
        }
        // A worker that finished just past the join deadline may still have
        // delivered its exit report (the channel send precedes the thread's
        // actual exit): it is not a lost rank. Only ranks with no report are
        // truly wedged.
        for rank in unjoined {
            if !exited[rank] {
                failures.push(RankFailure { rank, cause: RankFailureCause::Unjoined });
            }
        }
        self.done = true;
        Dismantled { failures, programs }
    }
}

/// What the teardown paths share, `Drop` included: no bound on the operand.
impl<B> TpSession<B> {
    /// Fill the next command buffer and ring the workers' doorbell.
    fn publish(&mut self, fill: impl FnOnce(&mut PassCmd)) {
        fill(&mut self.shared.cmd(self.published));
        self.published += 1;
        self.shared.bell.ring(self.published);
    }

    /// Send the workers the shutdown command if the group is healthy, else
    /// poison it (a rank — possibly this one — is already dead, so every
    /// spinning peer must unblock).
    fn shut_down(&mut self) {
        let clean = self.failed.is_none()
            && !self.inflight
            && !self.rank0_lost
            && !self.comm.is_poisoned()
            && !std::thread::panicking();
        if clean {
            self.publish(|cmd| cmd.shutdown = true);
            // A worker can still die between the check above and the
            // rendezvous: a failed shutdown barrier means "already dead".
            if self.comm.try_barrier().is_err() {
                self.comm.poison();
            }
        } else {
            self.comm.poison();
        }
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

impl<B> Drop for TpSession<B> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        self.shut_down();
        // Deadline join: Drop must never hang, even on a wedged worker.
        let deadline = self.comm.config().timeout + JOIN_GRACE;
        let _ = join_with_deadline(&mut self.workers, deadline);
    }
}

// --- the engine -------------------------------------------------------------

/// Faults the [`TpReport`] log keeps: the most recent ones.
const FAULT_LOG: usize = 32;

/// What a [`TpEngine`] did to keep its group serving.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TpReport {
    /// Groups built after a fault (the first group is not counted).
    pub rebuilds: u32,
    /// Degradations as `(from_tp, to_tp)` pairs, in order.
    pub degradations: Vec<(usize, usize)>,
    /// The last 32 rank failures, oldest first.
    pub faults: Vec<String>,
}

impl TpReport {
    fn log(&mut self, fault: String) {
        if self.faults.len() == FAULT_LOG {
            self.faults.remove(0);
        }
        self.faults.push(fault);
    }
}

/// The largest degree `d ≤ survivors` that `splits` the model (degree 1
/// always does — the single-rank floor).
fn degrade_tp(survivors: usize, splits: impl Fn(usize) -> bool) -> usize {
    (1..=survivors).rev().find(|&d| splits(d)).unwrap_or(1)
}

/// A tensor-parallel group as a multi-slot engine that lives across
/// requests: the paged engine's slot lifecycle, run by every rank over its
/// view of one [`SharedModel`] — FP32 panels by default, INT8 ones as
/// `TpEngine<QuantizedPackedB>`. A fault anywhere in the group fails the
/// pass with its [`RankFailure`]; the group is dismantled and built again
/// over the same packed model before the pass returns — narrower when a
/// rank's memory was lost, down to a one-rank group, which can always be
/// rebuilt. After a fault, releasing a slot the lost group held is a no-op,
/// and [`TpEngine::pool_stats`] is the empty pool the next group starts
/// with.
///
/// [`QuantizedPackedB`]: dsi_kernels::quant::QuantizedPackedB
pub struct TpEngine<B = PackedB> {
    model: SharedModel<B>,
    comm: CommConfig,
    pages_total: usize,
    page_tokens: usize,
    group: TpSession<B>,
    /// `orphaned[slot]`: the slot was held by a group that has since failed.
    orphaned: Vec<bool>,
    /// High water of the groups already lost.
    high_water: usize,
    report: TpReport,
}

impl TpEngine {
    /// A group of `tp` ranks over `model` packed into FP32 panels, each
    /// rank's engine with `max_slots` slots over `pages_total` pages of
    /// `page_tokens` tokens; every group it builds uses `comm`.
    pub fn new(
        model: Arc<GptModel>,
        tp: usize,
        comm: CommConfig,
        max_slots: usize,
        pages_total: usize,
        page_tokens: usize,
    ) -> Self {
        Self::with_model(SharedModel::pack(model), tp, comm, max_slots, pages_total, page_tokens)
    }
}

impl<B: PanelWeights + Send + Sync + 'static> TpEngine<B> {
    /// [`TpEngine::new`] over a model already packed, in any operand type.
    /// Panics unless the model [`SharedModel::splits`] `tp` ways.
    pub fn with_model(
        model: SharedModel<B>,
        tp: usize,
        comm: CommConfig,
        max_slots: usize,
        pages_total: usize,
        page_tokens: usize,
    ) -> Self {
        let group = TpSession::new(&model, tp, max_slots, pages_total, page_tokens, comm.clone());
        TpEngine {
            model,
            comm,
            pages_total,
            page_tokens,
            group,
            orphaned: vec![false; max_slots],
            high_water: 0,
            report: TpReport::default(),
        }
    }

    /// The degree of the current group.
    pub fn tp(&self) -> usize {
        self.group.tp()
    }

    pub fn report(&self) -> &TpReport {
        &self.report
    }

    pub fn max_slots(&self) -> usize {
        self.orphaned.len()
    }

    /// Pages a `tokens`-long context pins.
    pub fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_tokens)
    }

    /// The pool the next pass runs over.
    pub fn pool_stats(&self) -> PageStats {
        let s = self.group.pool_stats();
        PageStats { high_water: s.high_water.max(self.high_water), ..s }
    }

    /// See `Engine::attached_tokens`.
    pub fn attached_tokens(&self, slot: usize) -> usize {
        self.group.attached_tokens(slot)
    }

    /// Retire `slot`; a slot a failed group held has nothing to return.
    pub fn release(&mut self, slot: usize) {
        if std::mem::take(&mut self.orphaned[slot]) {
            return;
        }
        self.group.release(slot);
    }

    /// One pass of the group (see `Engine::pass`). Rank 0's own unwind is
    /// caught here: the group is poisoned, rank 0 counted lost, and the
    /// pass fails with its panic. On `Err(Weights)` no slot advanced, every
    /// seat is free, the slots the group held are gone, and the next
    /// group is already built.
    pub fn pass(
        &mut self,
        seats: &[(usize, &[usize])],
        advance: &[usize],
        out: &mut Vec<usize>,
    ) -> Result<(), StepError<RankFailure>> {
        let group = &mut self.group;
        let base = out.len();
        let failure = match catch_unwind(AssertUnwindSafe(|| group.try_pass(seats, advance, out))) {
            Ok(Ok(())) => return Ok(()),
            Ok(Err(StepError::Pages(p))) => return Err(StepError::Pages(p)),
            Ok(Err(StepError::Weights(e))) => {
                RankFailure { rank: e.rank, cause: RankFailureCause::Collective(e) }
            }
            Err(payload) => {
                group.note_rank0_panic();
                RankFailure { rank: 0, cause: RankFailureCause::Panicked(panic_payload_to_string(payload)) }
            }
        };
        out.truncate(base);
        Err(StepError::Weights(self.lose_group(failure)))
    }

    /// Dismantle the failed group, log what failed, and build the next
    /// one over the same packed model: narrower when some rank's memory was
    /// lost. Returns the failure the pass reports.
    fn lose_group(&mut self, failure: RankFailure) -> RankFailure {
        let group = &mut self.group;
        for (slot, orphaned) in self.orphaned.iter_mut().enumerate() {
            *orphaned |= group.slot_in_use(slot);
        }
        self.high_water = self.high_water.max(group.pool_stats().high_water);
        let old_tp = group.tp();
        let d = group.teardown();
        self.report.log(format!("tp={old_tp}: {failure}"));
        let mut lost = vec![false; old_tp];
        lost[failure.rank] |= failure.lost_memory();
        for f in &d.failures {
            self.report.log(format!("tp={old_tp} rank {}: {}", f.rank, f.cause));
            lost[f.rank] |= f.lost_memory();
        }
        // A survivor that timed out on a peer which then died saw its death
        // late: the death is the failure, and the class the caller sees.
        let mut failure = failure;
        if let RankFailureCause::Collective(e) = &failure.cause {
            if let CollectiveErrorKind::Timeout { stalled } = &e.kind {
                let died = |f: &&RankFailure| {
                    stalled.contains(&f.rank) && matches!(f.cause, RankFailureCause::Panicked(_))
                };
                failure = d.failures.iter().find(died).cloned().unwrap_or(failure);
            }
        }
        let survivors = lost.iter().filter(|&&l| !l).count();
        let new_tp = degrade_tp(survivors.max(1), |d| self.model.splits(d));
        if new_tp < old_tp {
            self.report.degradations.push((old_tp, new_tp));
        }
        self.report.rebuilds += 1;
        let (slots, pages, tokens) = (self.max_slots(), self.pages_total, self.page_tokens);
        self.group = TpSession::new(&self.model, new_tp, slots, pages, tokens, self.comm.clone());
        failure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tp::shard_layer;
    use dsi_kernels::quant::QuantizedPackedB;
    use dsi_model::fast::QuantizedPackedModel;
    use dsi_model::reference::LayerWeights;
    use dsi_model::zoo;
    use dsi_sim::fault::{FaultPlan, FaultSite, FaultSpec};

    fn model(layers: usize, seed: u64) -> GptModel {
        GptModel::random(zoo::tiny(layers), seed)
    }

    fn shared(m: GptModel) -> SharedModel {
        SharedModel::pack(Arc::new(m))
    }

    fn oracle(m: &GptModel, prompt: &[usize], n: usize) -> Vec<usize> {
        PackedModel::pack(m).session(prompt.len()).generate(prompt, n)
    }

    fn faulty(plan: FaultPlan, checksum: bool, timeout_ms: u64) -> CommConfig {
        CommConfig {
            timeout: Duration::from_millis(timeout_ms),
            checksum,
            injector: Some(Arc::new(plan.injector())),
        }
    }

    #[test]
    fn degrade_tp_picks_widest_divisor() {
        let heads = |h: usize| move |d: usize| h.is_multiple_of(d);
        assert_eq!(degrade_tp(3, heads(4)), 2);
        assert_eq!(degrade_tp(4, heads(4)), 4);
        assert_eq!(degrade_tp(1, heads(4)), 1);
        assert_eq!(degrade_tp(5, heads(6)), 3);
        assert_eq!(degrade_tp(7, heads(8)), 4);
    }

    /// Ragged multi-slot passes at every degree: two seats in one pass, a
    /// shared-prefix seat that attaches, a retirement whose release reaches
    /// the workers with the next pass, and a mixed pass that reseats the
    /// retired slot while the others advance. Every worker checks its pool
    /// against rank 0's on every pass; every stream is the solo oracle's.
    #[test]
    fn every_degree_serves_ragged_passes_token_identically() {
        let m = model(2, 7);
        let prompts = [vec![5usize, 6, 7, 8, 1], vec![9, 8], vec![5, 6, 7, 8, 2, 3], vec![4]];
        for tp in [1usize, 2, 4] {
            let mut eng = TpEngine::new(Arc::new(m.clone()), tp, CommConfig::default(), 3, 32, 2);
            let mut streams: Vec<Vec<usize>> = vec![Vec::new(); prompts.len()];
            // Run one pass and hand its tokens to `to`'s streams, in order.
            let mut pass = |eng: &mut TpEngine, seats: &[(usize, &[usize])], advance: &[usize], to: &[usize]| {
                let mut out = Vec::new();
                eng.pass(seats, advance, &mut out).unwrap();
                for (&s, t) in to.iter().zip(out) {
                    streams[s].push(t);
                }
            };
            pass(&mut eng, &[(0, &prompts[0]), (1, &prompts[1])], &[], &[0, 1]);
            pass(&mut eng, &[(2, &prompts[2])], &[0, 1], &[2, 0, 1]);
            assert_eq!(eng.attached_tokens(2), 4, "tp {tp}: the shared prefix attaches");
            eng.release(1);
            pass(&mut eng, &[(1, &prompts[3])], &[0, 2], &[3, 0, 2]);
            for _ in 0..3 {
                pass(&mut eng, &[], &[0, 1, 2], &[0, 3, 2]);
            }
            for s in 0..3 {
                eng.release(s);
            }
            assert_eq!(eng.pool_stats().pages_in_use, 0, "tp {tp}");
            for (p, got) in prompts.iter().zip(&streams) {
                assert_eq!(got, &oracle(&m, p, got.len()), "tp {tp} prompt {p:?}");
            }
            assert_eq!(eng.report().rebuilds, 0);
        }
    }

    /// At tp = 1 the rank's seam computes partial GEMM, then all-reduce,
    /// then bias and residual, where the solo path fuses that epilogue: the
    /// same expression, so every logit matches `FastSession`'s bit for bit,
    /// prompt and decode alike.
    #[test]
    fn tp1_logits_are_bitwise_the_fast_session_logits() {
        use dsi_model::fast::{self, argmax, Scratch};
        use dsi_model::reference::KvCache;
        let m = model(3, 29);
        let pm = PackedModel::pack(&m);
        let mut solo = pm.session(4);
        let shard = RankView::new(&shared(m.clone()), 0, 1);
        let c = m.config.clone();
        let mut comm = ShmComm::create(1).pop().expect("one rank");
        let mut kv = [KvCache::with_capacity(c.layers, shard.kv_width(), c.max_seq)];
        let mut scratch = Scratch::new(&c, 4);
        let mut rows = Vec::new();
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Every logits row of the pass, in row order.
        let mut pass = |ids: &[usize], offset: usize| -> Vec<u32> {
            Row::prompt_pass(&mut rows, 0, offset, ids);
            fast::step(&shard, &mut kv[..], &mut scratch, &rows, &mut AllReduce(&mut comm)).expect("pass");
            fast::logits(&shard, &mut scratch, ids.len());
            (0..ids.len()).flat_map(|i| bits(scratch.logits_row(i, c.vocab))).collect()
        };
        let prompt = [4usize, 8, 15, 16];
        assert_eq!(pass(&prompt, 0), bits(solo.forward(&prompt)), "prompt");
        for step in 0..6 {
            let next = argmax(solo.last_logits());
            assert_eq!(pass(&[next], prompt.len() + step), bits(solo.forward(&[next])), "decode step {step}");
        }
    }

    #[test]
    fn indivisible_tp_rejected() {
        let m = model(1, 1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            TpEngine::new(Arc::new(m), 3, CommConfig::default(), 1, 4, 4); // tiny() has 4 heads
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn worker_panic_poisons_instead_of_hanging() {
        // An out-of-vocab token makes every rank's pass assert; the workers'
        // catch_unwind must fail the group loudly (and Drop must reap the
        // dead threads without hanging).
        let mut sess = TpSession::new(&shared(model(1, 5)), 2, 1, 4, 4, CommConfig::default());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _ = sess.try_pass(&[(0, &[1_000_000])], &[], &mut Vec::new());
        }));
        assert!(caught.is_err());
        drop(sess); // must not deadlock
    }

    #[test]
    fn clean_dismantle_reports_every_rank_and_no_failure() {
        let mut sess = TpSession::new(&shared(model(2, 11)), 2, 1, 4, 4, CommConfig::default());
        let mut out = Vec::new();
        sess.try_pass(&[(0, &[1, 2, 3])], &[], &mut out).unwrap();
        sess.try_pass(&[], &[0], &mut out).unwrap();
        let d = sess.dismantle();
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        assert!(d.programs.iter().all(|p| !p.events().is_empty()), "every rank recorded its program");
    }

    #[test]
    fn worker_panic_payload_surfaces_in_dismantle() {
        // Script rank 1 to panic at a layer site: the pass fails typed on
        // rank 0 (timeout or poison), and dismantle carries rank 1's panic
        // payload back to the caller.
        let tpm = shared(model(2, 13));
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Layer { token: 0, layer: 0 },
            kind: FaultKind::Panic,
        }]);
        let mut sess = TpSession::new(&tpm, 2, 1, 4, 4, faulty(plan, false, 500));
        let err = sess.try_pass(&[(0, &[1, 2])], &[], &mut Vec::new()).expect_err("group must fail typed");
        let StepError::Weights(err) = err else { panic!("expected a collective failure, got {err:?}") };
        assert!(
            matches!(err.kind, CollectiveErrorKind::Poisoned | CollectiveErrorKind::Timeout { .. }),
            "{err}"
        );
        let d = sess.dismantle();
        let payload = d.failures.iter().find_map(|f| match &f.cause {
            RankFailureCause::Panicked(p) if f.rank == 1 => Some(p.clone()),
            _ => None,
        });
        let payload = payload.expect("rank 1 panic payload must surface");
        assert!(payload.contains("injected fault"), "{payload}");
    }

    #[test]
    fn scripted_worker_exit_times_out_and_is_reported() {
        // Rank 1 "crashes" (drops its arrival): rank 0 must observe a typed
        // timeout naming rank 1, and dismantle must report the crash.
        let tpm = shared(model(1, 17));
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 0 },
            kind: FaultKind::Exit,
        }]);
        let mut sess = TpSession::new(&tpm, 2, 1, 4, 4, faulty(plan, false, 200));
        let err = sess.try_pass(&[(0, &[1, 2])], &[], &mut Vec::new()).expect_err("lost rank must surface");
        match &err {
            StepError::Weights(CollectiveError { kind: CollectiveErrorKind::Timeout { stalled }, .. }) => {
                assert_eq!(stalled, &[1], "{err:?}")
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        let d = sess.dismantle();
        assert!(
            d.failures.iter().any(|f| f.rank == 1 && f.lost_memory()),
            "{:?}",
            d.failures
        );
    }

    #[test]
    fn failed_session_refuses_further_passes_with_same_error() {
        let tpm = shared(model(1, 19));
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 0 },
            kind: FaultKind::Exit,
        }]);
        let mut sess = TpSession::new(&tpm, 2, 1, 4, 4, faulty(plan, false, 200));
        let e1 = sess.try_pass(&[(0, &[1])], &[], &mut Vec::new()).expect_err("first failure");
        let e2 = sess.try_pass(&[], &[0], &mut Vec::new()).expect_err("dead group refuses");
        assert_eq!(e1, e2);
    }

    /// Generate `n` tokens for each prompt, one slot each, recovering from
    /// every fault the way the serving scheduler does: release what the
    /// failed pass advanced, then seat each committed context again.
    /// Returns the streams and the faults survived.
    fn serve<B: PanelWeights + Send + Sync + 'static>(
        eng: &mut TpEngine<B>,
        prompts: &[&[usize]],
        n: usize,
    ) -> (Vec<Vec<usize>>, usize) {
        let mut toks: Vec<Vec<usize>> = vec![Vec::new(); prompts.len()];
        let mut seated = vec![false; prompts.len()];
        let (mut out, mut faults) = (Vec::new(), 0);
        while toks.iter().any(|t| t.len() < n) {
            let ctxs: Vec<(usize, Vec<usize>)> = (0..prompts.len())
                .filter(|&s| !seated[s])
                .map(|s| (s, [prompts[s], &toks[s][..toks[s].len().saturating_sub(1)]].concat()))
                .collect();
            let seats: Vec<(usize, &[usize])> = ctxs.iter().map(|(s, c)| (*s, &c[..])).collect();
            let advance: Vec<usize> = (0..prompts.len()).filter(|&s| seated[s] && toks[s].len() < n).collect();
            out.clear();
            match eng.pass(&seats, &advance, &mut out) {
                Ok(()) => {
                    for (&(s, _), &t) in seats.iter().zip(&out) {
                        if toks[s].is_empty() {
                            toks[s].push(t);
                        } else {
                            assert_eq!(toks[s].last(), Some(&t), "a replay reproduces the last token");
                        }
                        seated[s] = true;
                    }
                    for (&s, &t) in advance.iter().zip(&out[seats.len()..]) {
                        toks[s].push(t);
                    }
                }
                Err(StepError::Weights(_)) => {
                    // A slot done before the fault stays seated here: its
                    // release below finds the group that held it gone.
                    for &s in &advance {
                        eng.release(s);
                        seated[s] = false;
                    }
                    faults += 1;
                    assert!(faults < 16, "fault storm: {:?}", eng.report());
                }
                Err(StepError::Pages(e)) => panic!("{e:?}"),
            }
        }
        for s in (0..prompts.len()).filter(|&s| seated[s]) {
            eng.release(s);
        }
        assert_eq!(eng.pool_stats().pages_in_use, 0, "every slot came back");
        (toks, faults)
    }

    /// Serve two prompts at tp = 2 under `plan`; returns the engine.
    fn serve_two(seed: u64, plan: FaultPlan, checksum: bool, n: usize) -> TpEngine {
        let m = model(2, seed);
        let prompts: [&[usize]; 2] = [&[1, 2, 3], &[4, 2]];
        let mut eng = TpEngine::new(Arc::new(m.clone()), 2, faulty(plan, checksum, 300), 2, 16, 4);
        let (got, _) = serve(&mut eng, &prompts, n);
        for (p, got) in prompts.iter().zip(&got) {
            assert_eq!(got, &oracle(&m, p, n), "prompt {p:?}");
        }
        eng
    }

    #[test]
    fn fault_free_group_is_built_once() {
        let eng = serve_two(31, FaultPlan::new(Vec::new()), false, 6);
        assert_eq!((eng.report().rebuilds, eng.tp()), (0, 2));
    }

    #[test]
    fn worker_crash_degrades_and_replays_token_identically() {
        // Rank 1 crashes (drops its arrival) in the first pass: rank 0
        // times out, the group is rebuilt at tp = 1 (rank 1's memory is
        // gone), and the replay reproduces every stream.
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 9 },
            kind: FaultKind::Exit,
        }]);
        let eng = serve_two(37, plan, false, 6);
        assert_eq!(eng.tp(), 1, "group must have degraded");
        assert_eq!(eng.report().degradations, vec![(2, 1)]);
        assert_eq!(eng.report().rebuilds, 1);
    }

    #[test]
    fn transient_stall_rebuilds_at_the_same_degree() {
        // A stall longer than the collective timeout: detected as a timeout
        // with every rank's memory intact, so the group is rebuilt at the
        // same degree.
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 20 },
            kind: FaultKind::Stall { millis: 1500 },
        }]);
        let eng = serve_two(41, plan, false, 5);
        assert_eq!(eng.tp(), 2, "transient faults must not degrade");
        assert_eq!(eng.report().rebuilds, 1, "{:?}", eng.report());
    }

    #[test]
    fn corrupt_chunk_is_caught_and_replayed() {
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Reduce { epoch: 1 },
            kind: FaultKind::Corrupt,
        }]);
        let eng = serve_two(43, plan, true, 5);
        assert_eq!(eng.tp(), 2);
        assert!(eng.report().faults.iter().any(|f| f.contains("corrupt")), "{:?}", eng.report());
    }

    #[test]
    fn rank0_panic_is_caught_and_degrades() {
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 0,
            site: FaultSite::Layer { token: 3, layer: 1 },
            kind: FaultKind::Panic,
        }]);
        let eng = serve_two(47, plan, false, 5);
        assert_eq!(eng.tp(), 1);
        assert!(eng.report().faults[0].contains("rank 0 panicked"), "{:?}", eng.report());
    }

    #[test]
    fn multiple_faults_are_all_survived() {
        // A transient stall *and* a later permanent crash in one run.
        let plan = FaultPlan::new(vec![
            FaultSpec { rank: 0, site: FaultSite::Barrier { epoch: 3 }, kind: FaultKind::Stall { millis: 1500 } },
            FaultSpec { rank: 1, site: FaultSite::Layer { token: 6, layer: 0 }, kind: FaultKind::Exit },
        ]);
        let eng = serve_two(53, plan, false, 8);
        assert_eq!(eng.tp(), 1);
        assert!(eng.report().rebuilds >= 2, "{:?}", eng.report());
    }

    /// After a fault the lost group's slots release as no-ops — also after
    /// a second group is lost before they are released — the pool the next
    /// pass will use shows empty, and the next pass builds the group.
    #[test]
    fn a_failed_group_leaves_nothing_held() {
        let m = model(1, 59);
        let plan = FaultPlan::new(vec![
            FaultSpec { rank: 1, site: FaultSite::Layer { token: 3, layer: 0 }, kind: FaultKind::Exit },
            FaultSpec { rank: 0, site: FaultSite::Layer { token: 5, layer: 0 }, kind: FaultKind::Panic },
        ]);
        let mut eng = TpEngine::new(Arc::new(m.clone()), 2, faulty(plan, false, 200), 3, 8, 2);
        let mut out = Vec::new();
        eng.pass(&[(0, &[1, 2, 3]), (1, &[4, 5])], &[], &mut out).unwrap();
        let held = eng.pool_stats();
        let err = eng.pass(&[], &[0, 1], &mut out).expect_err("rank 1 crashes");
        assert!(matches!(err, StepError::Weights(ref f) if f.rank == 0 || f.rank == 1), "{err:?}");
        assert_eq!(out.len(), 2, "the failed pass emits nothing");
        let next = eng.pool_stats();
        assert_eq!((next.pages_in_use, next.pages_free), (0, 8));
        // The failed pass reserved slot 1's next page before it ran.
        assert_eq!(next.high_water, held.high_water + 1, "the lost group's high water stands");
        // A second group is lost (rank 0 panics on position 5) while slots
        // 0 and 1 are still unreleased.
        let err = eng.pass(&[(2, &[6, 7, 8, 9, 1, 2])], &[], &mut out).expect_err("rank 0 panics");
        assert!(matches!(err, StepError::Weights(ref f) if f.rank == 0), "{err:?}");
        eng.release(1);
        eng.release(0);
        out.clear();
        eng.pass(&[(0, &[1, 2, 3])], &[], &mut out).unwrap();
        assert_eq!(out, oracle(&m, &[1, 2, 3], 1));
        assert_eq!((eng.tp(), eng.report().rebuilds), (1, 2));
    }

    /// Every operand of `v` is an `Arc` share of `m`'s.
    fn assert_view_shares<B>(v: &RankView<B>, m: &SharedModel<B>, what: &str) {
        assert!(Arc::ptr_eq(&v.model, &m.model), "{what}: embeddings and layer-norm");
        assert!(Arc::ptr_eq(&v.logits.op, &m.logits), "{what}: logits");
        for (l, (vl, ml)) in v.layers.iter().zip(&m.layers).enumerate() {
            let pairs = [(&vl.w_qkv, &ml.w_qkv), (&vl.w_o, &ml.w_o), (&vl.w_ff1, &ml.w_ff1), (&vl.w_ff2, &ml.w_ff2)];
            for (view, op) in pairs {
                assert!(Arc::ptr_eq(&view.op, op), "{what}: layer {l}");
            }
        }
    }

    /// Shares of each packed operand besides the model's own: one per live
    /// rank view.
    fn view_shares<B>(m: &SharedModel<B>) -> Vec<usize> {
        let ops = m.layers.iter().flat_map(|l| [&l.w_qkv, &l.w_o, &l.w_ff1, &l.w_ff2]);
        ops.chain([&m.logits]).map(|op| Arc::strong_count(op) - 1).collect()
    }

    /// A group copies no weight: every rank's view — rank 0's inline, and
    /// the workers' on their own threads, counted through the operands'
    /// `Arc`s — reads the one packed model, at tp 1, 2 and 4, and again
    /// after a 2 → 1 degrade rebuilt the group over the same model.
    #[test]
    fn rank_views_share_the_one_packed_model() {
        for tp in [1usize, 2, 4] {
            let eng = TpEngine::new(Arc::new(model(2, 3)), tp, CommConfig::default(), 1, 8, 4);
            assert_eq!(view_shares(&eng.model), [tp; 9], "tp {tp}: one share per rank");
            assert_view_shares(eng.group.rank0.weights(), &eng.model, &format!("tp {tp} rank 0"));
            for r in 0..tp {
                assert_view_shares(&RankView::new(&eng.model, r, tp), &eng.model, &format!("tp {tp} rank {r}"));
            }
        }
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 9 },
            kind: FaultKind::Exit,
        }]);
        let eng = serve_two(37, plan, false, 6);
        assert_eq!(eng.report().degradations, [(2, 1)]);
        assert_eq!(view_shares(&eng.model), [1; 9], "the lost group's views are gone");
        assert_view_shares(eng.group.rank0.weights(), &eng.model, "tp 1 after the degrade");
    }

    /// Each rank's four GEMMs through its views are bitwise those of its
    /// shard cut by `tp::shard_layer` and packed on its own, FP32 and INT8
    /// alike: QKV and FF1 with their bias windows fused, W_o and FF2 as the
    /// seam runs them, before the all-reduce.
    #[test]
    fn rank_gemms_are_bitwise_the_shard_layer_packs() {
        fn same<V: PanelWeights, B: PanelWeights>(got: &V, want: &B, ep: Epilogue<'_>, what: &str) {
            assert_eq!((got.k(), got.n()), (want.k(), want.n()), "{what}: shape");
            for m in [1usize, 3, 8] {
                let a = Tensor::randn(&[m, got.k()], 1.0, m as u64);
                let (mut g, mut w) = (vec![0.0f32; m * got.n()], vec![0.0f32; m * got.n()]);
                got.gemm(a.data(), m, &mut g, ep);
                want.gemm(a.data(), m, &mut w, ep);
                assert!(g.iter().zip(&w).all(|(x, y)| x.to_bits() == y.to_bits()), "{what} m={m}");
            }
        }
        fn check<B: PanelWeights>(sm: &SharedModel<B>, pack: impl Fn(&LayerWeights) -> PackedLayer<B>, what: &str) {
            let heads = sm.config().heads;
            for tp in [1usize, 2, 4] {
                for r in 0..tp {
                    let view = RankView::new(sm, r, tp);
                    for (l, lw) in sm.model.layers.iter().enumerate() {
                        let (got, want) = (&view.layers[l], pack(&shard_layer(lw, heads, tp)[r].w));
                        let what = format!("{what} tp {tp} rank {r} layer {l}");
                        assert_eq!((&got.b_qkv, &got.b_ff1), (&want.b_qkv, &want.b_ff1), "{what}: bias windows");
                        same(&got.w_qkv, &want.w_qkv, Epilogue::Bias(&got.b_qkv), &format!("{what} qkv"));
                        same(&got.w_o, &want.w_o, Epilogue::None, &format!("{what} w_o"));
                        same(&got.w_ff1, &want.w_ff1, Epilogue::BiasGelu(&got.b_ff1), &format!("{what} ff1"));
                        same(&got.w_ff2, &want.w_ff2, Epilogue::None, &format!("{what} ff2"));
                    }
                }
            }
        }
        // 32 columns a head and 128 FF columns a rank at tp 4: every row
        // range starts on an INT8 group of 32.
        let c = GptConfig { name: "views".into(), hidden: 128, layers: 2, heads: 4, vocab: 61, max_seq: 16 };
        let gm = Arc::new(GptModel::random(c, 5));
        check(&SharedModel::pack(Arc::clone(&gm)), PackedLayer::pack, "f32");
        let int8 = SharedModel::with_packing(Arc::clone(&gm), |m| QuantizedPackedModel::quantize_pack(m, 32));
        check(&int8, |lw| PackedLayer::pack_with(lw, |w| QuantizedPackedB::quantize_pack(w, 32)), "int8");
    }

    /// A 6-head, 192-wide model splits 3 ways in INT8 groups of 64 (64 W_o
    /// rows a rank) but not 2 ways (96): losing one rank of three degrades
    /// an INT8 group to one rank where an FP32 one keeps two, and the
    /// rebuilt group replays token-identically to resident INT8.
    #[test]
    fn int8_degrades_past_an_unaligned_degree() {
        let c = GptConfig { name: "six-heads".into(), hidden: 192, layers: 1, heads: 6, vocab: 61, max_seq: 32 };
        let gm = Arc::new(GptModel::random(c, 61));
        let f32m = SharedModel::pack(Arc::clone(&gm));
        let int8 = SharedModel::with_packing(Arc::clone(&gm), |m| QuantizedPackedModel::quantize_pack(m, 64));
        let degrees = |m: &dyn Fn(usize) -> bool| (1..=6).filter(|&d| m(d)).collect::<Vec<_>>();
        assert_eq!(degrees(&|d| f32m.splits(d)), [1, 2, 3, 6]);
        assert_eq!(degrees(&|d| int8.splits(d)), [1, 3]);
        assert_eq!(degrade_tp(2, |d| f32m.splits(d)), 2);
        assert_eq!(degrade_tp(2, |d| int8.splits(d)), 1);

        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch: 9 },
            kind: FaultKind::Exit,
        }]);
        let mut eng = TpEngine::with_model(int8, 3, faulty(plan, false, 300), 2, 16, 4);
        let prompts: [&[usize]; 2] = [&[1, 2, 3], &[4, 2]];
        let (got, _) = serve(&mut eng, &prompts, 6);
        let qm = QuantizedPackedModel::quantize_pack(&gm, 64);
        for (p, got) in prompts.iter().zip(&got) {
            assert_eq!(got, &qm.session(p.len()).generate(p, 6), "prompt {p:?}");
        }
        assert_eq!(eng.report().degradations, [(3, 1)]);
    }
}
