//! The executed Deep-Fusion decode path: packed weights + fused kernels +
//! amortized KV + scratch reuse.
//!
//! [`GptModel`] (the reference) is written for clarity: every operator
//! allocates its output, the KV cache is rebuilt per token, and GEMMs run
//! against the row-major weight layout. This module is the performance
//! counterpart the paper's Sec. III argues for, built from four ingredients:
//!
//! 1. **Pack once, reuse every token** — [`PackedModel`] pre-transposes each
//!    layer's four weight matrices into the panel layout of
//!    `dsi_kernels::blocked` at construction, including the tied embedding
//!    (stored `[vocab, h]`, i.e. already transposed for the logits
//!    projection — `PackedB::from_pre_transposed` only re-panels it).
//! 2. **Fused region kernels** — each transformer layer executes as the five
//!    Fig. 1(c) small-batch fused regions of
//!    `dsi_kernels::fusion::FusionPlan::deepspeed_small_batch` (LN + QKV,
//!    attention with its K/V write, W_o, LN + FF1 + GeLU, FF2): interior
//!    activations live in scratch rows, never in fresh tensors.
//! 3. **Amortized KV cache** — the session reserves the full
//!    prompt+generation KV budget up front and appends rows in place
//!    ([`LayerKv::append_row_slices`]), replacing the seed's O(T²)
//!    per-token `cat_rows` rebuild.
//! 4. **Scratch reuse** — [`Scratch`] owns every intermediate buffer; the
//!    steady-state one-token decode loop performs **zero heap allocations**
//!    (its buffers keep their addresses, [`FastSession::buffer_fingerprint`],
//!    which `steady_state_decode_does_not_allocate` checks; the paged
//!    engine's passes are counted by the `decode_alloc` test's allocator).
//!
//! Numerically the path tracks the reference within f32 reassociation noise
//! (the packed GEMM sums in a different order); greedy decode is verified
//! token-for-token against [`GptModel::generate`] in the property suite.
//!
//! [`LayerKv::append_row_slices`]: crate::reference::LayerKv::append_row_slices

use std::convert::Infallible;
use std::ops::{Deref, Range};

use crate::config::GptConfig;
use crate::reference::{GptModel, KvCache, LayerWeights};
use dsi_kernels::blocked::{Epilogue, OutRows, PackedB, PanelWeights};
use dsi_kernels::fused;
use dsi_kernels::quant::QuantizedPackedB;
use dsi_kernels::tensor::Tensor;

/// One layer's weights in execution layout: GEMM operands packed (FP32
/// panels by default, group-quantized INT8 panels for the
/// [`QuantizedPackedModel`] fast path), vectors as plain slices.
#[derive(Debug, Clone, Default)]
pub struct PackedLayer<B = PackedB> {
    pub ln1_g: Vec<f32>,
    pub ln1_b: Vec<f32>,
    /// `[h, 3h]` QKV projection, packed.
    pub w_qkv: B,
    pub b_qkv: Vec<f32>,
    /// `[h, h]` attention output projection, packed.
    pub w_o: B,
    pub b_o: Vec<f32>,
    pub ln2_g: Vec<f32>,
    pub ln2_b: Vec<f32>,
    /// `[h, 4h]`, packed.
    pub w_ff1: B,
    pub b_ff1: Vec<f32>,
    /// `[4h, h]`, packed.
    pub w_ff2: B,
    pub b_ff2: Vec<f32>,
}

impl<B> PackedLayer<B> {
    /// Pack one layer with an arbitrary weight-packing function (FP32
    /// panels, INT8 quantize-and-pack, ...).
    pub fn pack_with(lw: &LayerWeights, f: impl Fn(&Tensor) -> B) -> Self {
        PackedLayer {
            ln1_g: lw.ln1_g.data().to_vec(),
            ln1_b: lw.ln1_b.data().to_vec(),
            w_qkv: f(&lw.w_qkv),
            b_qkv: lw.b_qkv.data().to_vec(),
            w_o: f(&lw.w_o),
            b_o: lw.b_o.data().to_vec(),
            ln2_g: lw.ln2_g.data().to_vec(),
            ln2_b: lw.ln2_b.data().to_vec(),
            w_ff1: f(&lw.w_ff1),
            b_ff1: lw.b_ff1.data().to_vec(),
            w_ff2: f(&lw.w_ff2),
            b_ff2: lw.b_ff2.data().to_vec(),
        }
    }
}

impl PackedLayer<PackedB> {
    pub fn pack(lw: &LayerWeights) -> Self {
        Self::pack_with(lw, PackedB::pack)
    }

    /// The row-major layer this was packed from, bit for bit — the inverse
    /// of [`PackedLayer::pack`] (how `io::from_bytes` rebuilds a model from
    /// a weight file that stores execution layout).
    pub fn unpack(self) -> LayerWeights {
        let vector = |v: Vec<f32>| Tensor::from_vec(&[v.len()], v);
        LayerWeights {
            ln1_g: vector(self.ln1_g),
            ln1_b: vector(self.ln1_b),
            w_qkv: self.w_qkv.unpack(),
            b_qkv: vector(self.b_qkv),
            w_o: self.w_o.unpack(),
            b_o: vector(self.b_o),
            ln2_g: vector(self.ln2_g),
            ln2_b: vector(self.ln2_b),
            w_ff1: self.w_ff1.unpack(),
            b_ff1: vector(self.b_ff1),
            w_ff2: self.w_ff2.unpack(),
            b_ff2: vector(self.b_ff2),
        }
    }
}

/// A reference model plus its packed execution layout. Embedding lookups and
/// final layer-norm parameters are borrowed from the model; the tied
/// embedding is additionally panel-packed once as the logits operand.
///
/// Generic over the packed weight storage `B`: `PackedModel<'m>` is the
/// FP32 fast path, [`QuantizedPackedModel`] streams ~¼ the weight bytes via
/// INT8 panels dequantized in registers (Sec. III-D).
pub struct PackedModel<'m, B = PackedB> {
    pub model: &'m GptModel,
    pub layers: Vec<PackedLayer<B>>,
    /// `wteᵀ` as the packed `[h, vocab]` logits projection.
    pub wte_packed: B,
}

/// The INT8 weight-only fast path: group-quantized panels, FP32
/// activations, dequantization in registers inside the GEMM microkernels —
/// the FP32 weights are never materialized.
pub type QuantizedPackedModel<'m> = PackedModel<'m, QuantizedPackedB>;

/// A [`FastSession`] decoding over INT8 packed weights.
pub type QuantizedFastSession<'p, 'm> = FastSession<'p, 'm, QuantizedPackedB>;

impl<'m> PackedModel<'m> {
    /// One-time packing pass over all layers.
    pub fn pack(model: &'m GptModel) -> Self {
        PackedModel {
            layers: model.layers.iter().map(PackedLayer::pack).collect(),
            wte_packed: PackedB::from_pre_transposed(&model.wte),
            model,
        }
    }
}

impl<'m> QuantizedPackedModel<'m> {
    /// One-time group-quantize + pack pass over all layers (`group_size`
    /// input rows share one scale).
    pub fn quantize_pack(model: &'m GptModel, group_size: usize) -> Self {
        PackedModel {
            layers: model
                .layers
                .iter()
                .map(|lw| PackedLayer::pack_with(lw, |w| QuantizedPackedB::quantize_pack(w, group_size)))
                .collect(),
            wte_packed: QuantizedPackedB::quantize_pack_pre_transposed(&model.wte, group_size),
            model,
        }
    }
}

impl<'m, B: PanelWeights> PackedModel<'m, B> {
    pub fn config(&self) -> &GptConfig {
        &self.model.config
    }

    /// Bytes of packed weight storage streamed by one full forward pass
    /// (all four layer GEMM operands plus the logits projection) — the
    /// denominator of the benchmark's `kernels.gemm_gbps`.
    pub fn weight_stream_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                l.w_qkv.storage_bytes()
                    + l.w_o.storage_bytes()
                    + l.w_ff1.storage_bytes()
                    + l.w_ff2.storage_bytes()
            })
            .sum::<usize>()
            + self.wte_packed.storage_bytes()
    }

    /// Start a decode session with all scratch and KV capacity sized for
    /// `max_prompt` prompt tokens plus generation up to the model's
    /// `max_seq`.
    pub fn session(&self, max_prompt: usize) -> FastSession<'_, 'm, B> {
        let c = self.config();
        FastSession {
            pm: self,
            cache: KvCache::with_capacity(c.layers, c.hidden, c.max_seq),
            scratch: Scratch::new(c, max_prompt.max(1)),
            rows: Vec::with_capacity(max_prompt.max(1)),
            last_m: 0,
            to_feed: None,
        }
    }
}

// ---------------------------------------------------------------------------
// The fused forward pass: ONE step, generic over where the weights come
// from, where the KV rows go, and which part of the pass the caller
// computes.
//
// Every executed engine — the resident [`FastSession`], and `paged::Engine`
// over a packed model or over an offload tier (which holds only a window of
// layer panels resident at a time), split across the members of a pass or
// of a tensor-parallel group — drives this one function, so "paged /
// batched / streamed / TP decode is token-identical to the solo resident
// oracle" holds by construction: the paths cannot drift apart numerically,
// only in where a `PackedLayer` came from, where a K/V row lives, and which
// output columns a member writes.
// ---------------------------------------------------------------------------

/// One row of a pass: `token` of sequence `seq` at context position `pos`.
/// A prompt pass is `m` rows of one sequence at consecutive positions; a
/// decode step is one row each of `m` sequences. What `seq` names is up to
/// the [`KvSink`] (a slot index, an index into a cache slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub seq: usize,
    pub token: usize,
    pub pos: usize,
}

impl Row {
    /// Refill `rows` with a prompt pass: `ids` of sequence `seq` at
    /// consecutive positions from `offset`.
    pub fn prompt_pass(rows: &mut Vec<Row>, seq: usize, offset: usize, ids: &[usize]) {
        rows.clear();
        rows.extend(ids.iter().enumerate().map(|(i, &token)| Row { seq, token, pos: offset + i }));
    }
}

/// Where a pass's weights come from: resident packed layers
/// ([`PackedModel`]), or layer panels checked out of an offload tier one at
/// a time (`dsi_zero::offload::OffloadStore`, fallibly). A source is
/// `Sync` and its error `Send`: the members of a split pass read it from
/// several threads, and a member's failure is handed back to the caller.
pub trait WeightSource: Sync {
    type B: PanelWeights;
    /// Layer `l`'s weights, held until the guard drops.
    type Layer<'a>: Deref<Target = PackedLayer<Self::B>>
    where
        Self: 'a;
    type Error: Send;
    /// Every layer is held in memory, so [`WeightSource::layer`] is a
    /// lookup: no I/O, no waiting, no per-call bookkeeping, and any number
    /// of threads may fetch one layer at once. Only a pass over a resident
    /// source splits across members (`paged::Engine::pass`); the offload
    /// tier, whose `layer` counts hits, demand-fetches and waits on its
    /// prefetcher, keeps the default.
    const RESIDENT: bool = false;
    fn config(&self) -> &GptConfig;
    /// Token and position embedding tables.
    fn embeddings(&self) -> (&Tensor, &Tensor);
    /// Final layer-norm gain and bias.
    fn lnf(&self) -> (&[f32], &[f32]);
    /// `wteᵀ` packed as the logits projection.
    fn logits_w(&self) -> &Self::B;
    fn layer(&self, l: usize) -> Result<Self::Layer<'_>, Self::Error>;
}

impl<B: PanelWeights> WeightSource for PackedModel<'_, B> {
    type B = B;
    type Layer<'a>
        = &'a PackedLayer<B>
    where
        Self: 'a;
    type Error = Infallible;
    const RESIDENT: bool = true;

    fn config(&self) -> &GptConfig {
        &self.model.config
    }
    fn embeddings(&self) -> (&Tensor, &Tensor) {
        (&self.model.wte, &self.model.wpe)
    }
    fn lnf(&self) -> (&[f32], &[f32]) {
        (self.model.lnf_g.data(), self.model.lnf_b.data())
    }
    fn logits_w(&self) -> &B {
        &self.wte_packed
    }
    fn layer(&self, l: usize) -> Result<&PackedLayer<B>, Infallible> {
        Ok(&self.layers[l])
    }
}

/// A borrowed source is a source, so an engine can own its tier or borrow a
/// resident model through the same type parameter. `#[inline]` for the same
/// reason as on [`KvSink`]: these forward once per layer inside [`step`].
impl<T: WeightSource> WeightSource for &T {
    type B = T::B;
    type Layer<'a>
        = T::Layer<'a>
    where
        Self: 'a;
    type Error = T::Error;
    const RESIDENT: bool = T::RESIDENT;

    #[inline]
    fn config(&self) -> &GptConfig {
        T::config(self)
    }
    #[inline]
    fn embeddings(&self) -> (&Tensor, &Tensor) {
        T::embeddings(self)
    }
    #[inline]
    fn lnf(&self) -> (&[f32], &[f32]) {
        T::lnf(self)
    }
    #[inline]
    fn logits_w(&self) -> &T::B {
        T::logits_w(self)
    }
    #[inline]
    fn layer(&self, l: usize) -> Result<T::Layer<'_>, T::Error> {
        T::layer(self, l)
    }
}

/// Where a pass's K/V rows go and where attention reads them back from:
/// contiguous per-sequence caches (`[KvCache]`), or a shared page pool
/// addressed through per-sequence page tables (`paged::Engine`). Both
/// methods take a column range, so a member of a split pass writes and
/// reads only the heads it owns.
/// Implementations mark both methods `#[inline]`: they run once per row per
/// layer inside [`step`], which is monomorphised in the *calling* crate, and
/// a non-generic method is not inlined across crates without it (measured:
/// ~2 % of a 0.7 ms batch-1 INT8 step).
pub trait KvSink {
    /// Store columns `cols` of `row`'s K/V for `layer` at `row.pos` of
    /// sequence `row.seq`; `k` and `v` hold those columns.
    fn write(&mut self, layer: usize, row: Row, cols: Range<usize>, k: &[f32], v: &[f32]);
    /// `row`'s query attends over positions `0..=row.pos` of its sequence
    /// in the heads `heads` of `head_dim` columns each; `q` and `out` hold
    /// those heads' columns.
    fn attend(&self, layer: usize, row: Row, heads: Range<usize>, head_dim: usize, q: &[f32], out: &mut [f32]);
}

/// Contiguous KV: sequence `seq`'s cache is `self[seq]`, rows appended in
/// place (amortized; no reallocation once capacity is reserved). Whole
/// rows only: a session never splits its pass.
impl KvSink for [KvCache] {
    #[inline]
    fn write(&mut self, layer: usize, row: Row, cols: Range<usize>, k: &[f32], v: &[f32]) {
        let kv = &mut self[row.seq].layers[layer];
        assert_eq!(kv.len(), row.pos, "contiguous KV appends in position order");
        assert_eq!(cols, 0..k.len(), "contiguous KV writes whole rows");
        kv.append_row_slices(k, v);
    }

    #[inline]
    fn attend(&self, layer: usize, row: Row, heads: Range<usize>, _: usize, q: &[f32], out: &mut [f32]) {
        let kv = &self[row.seq].layers[layer];
        assert_eq!(heads.start, 0, "contiguous KV attends over whole rows");
        fused::attention_row_into(q, &kv.k, &kv.v, heads.len(), row.pos, out);
    }
}

/// The part of a pass one member computes: member `member` of `members`.
/// A member owns [`Share::part`] of the heads (their QKV columns, their
/// keys and values and their attention) and of the output columns of W_o, FF1,
/// FF2 and the logits. Every output column keeps its own accumulator
/// chain, so a split pass is bitwise the whole one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    pub member: usize,
    pub members: usize,
}

impl Share {
    /// The whole pass, on one member.
    pub const WHOLE: Share = Share { member: 0, members: 1 };

    /// This member's part of `n` items (heads or output columns): member
    /// `t` owns `t·n/members .. (t+1)·n/members`, so the parts tile `0..n`
    /// in member order, differ in length by at most one, and need not
    /// start on a panel.
    pub fn part(&self, n: usize) -> Range<usize> {
        let bound = |t: usize| t * n / self.members;
        bound(self.member)..bound(self.member + 1)
    }
}

/// Whether a kernel reads what a `Buf` accessor hands it, or writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    Write,
}

/// The seam of a pass between its members: what runs at the top of each
/// layer, which part of the pass the caller computes, how its members
/// meet, and what each scratch access hands a kernel. Like [`KvSink`] it is
/// a monomorphised parameter of [`step`], not a branch inside it.
/// Single-process engines pass [`Solo`]; a member of a split pass passes
/// `team::Member`, whose share is its part, whose join is a barrier, and
/// whose layer hook is its fault site. A member that fails at either leaves
/// the pass by unwinding (see `team`). Both keep [`RowParallel::touch`]'s
/// no-op; `paged::Engine::record_pass` wraps them in a seam that logs it.
pub trait RowParallel {
    /// Layer `layer` of the pass over `rows` is about to run.
    #[inline]
    fn at_layer(&mut self, _layer: usize, _rows: &[Row]) {}
    /// The part of the pass this caller computes.
    #[inline]
    fn share(&self) -> Share {
        Share::WHOLE
    }
    /// Wait until every member has finished the region before.
    #[inline]
    fn join(&mut self) {}
    /// Scratch buffer `buf` (a [`scratch_layout`] name) is handed to a
    /// kernel: columns `cols` of rows `rows`, `stride` floats apart, to
    /// read or to write. Every slice a pass takes of its scratch is handed
    /// out through `Buf`, which calls this as it does.
    #[inline]
    fn touch(&mut self, _buf: &'static str, _rows: Range<usize>, _stride: usize, _cols: Range<usize>, _access: Access) {}
}

/// `out = a·w[.., cols] + ep` over every row of `a`, into the window `out`
/// of columns `cols`: [`PanelWeights::gemm_window`], skipped when the
/// member owns no column.
#[inline]
pub(crate) fn gemm_cols<B: PanelWeights + ?Sized>(w: &B, a: &[f32], cols: Range<usize>, out: OutRows<'_>, ep: Epilogue<'_>) {
    if !cols.is_empty() {
        w.gemm_window(cols, a, out, ep);
    }
}

/// A row-parallel projection (W_o, FF2) over output columns `cols`: the
/// window's GEMM with the bias and residual fused into its output pass.
#[inline]
pub(crate) fn project_local<B: PanelWeights>(
    a: &[f32],
    w: &B,
    cols: Range<usize>,
    bias: &[f32],
    residual: &[f32],
    out: OutRows<'_>,
) {
    gemm_cols(w, a, cols.clone(), out, Epilogue::BiasAdd(&bias[cols], residual));
}

/// The seam of every single-process engine: no fault site, one member.
#[derive(Debug, Clone, Copy)]
pub struct Solo;

impl RowParallel for Solo {}

/// One forward pass of `rows` through every layer — embed, then per layer
/// the Fig. 1(c) fused regions (LN+QKV, KV write, attention, W_o,
/// LN+FF1+GeLU, FF2) — leaving the `[rows.len(), h]` final activations in
/// `s` for [`logits`].
///
/// `seam` says which part of the pass the caller computes and where it
/// meets the pass's other members ([`RowParallel`]).
///
/// Every K/V row of a layer is written before any query attends, which for
/// a prompt pass is the causal stair-step (query `i` sees keys `0..=pos_i`)
/// and for a decode step changes nothing (the rows belong to different
/// sequences). Because every microkernel accumulates like the M=1 kernel,
/// the logits of a row are **bit-identical** however the rows are batched.
///
/// On `Err` (a weight fetch failed) the KV state of the rows'
/// sequences is unspecified.
pub fn step<W: WeightSource, K: KvSink + ?Sized, R: RowParallel>(
    w: &W,
    kv: &mut K,
    s: &mut Scratch,
    rows: &[Row],
    seam: &mut R,
) -> Result<(), W::Error> {
    assert!(!rows.is_empty(), "step: empty pass");
    s.ensure(w.config(), rows.len());
    step_in(w, kv, &mut s.arena(), rows, seam)
}

/// [`step`]'s body over an [`Arena`]: the caller's own view of its scratch,
/// or one member's view of the scratch a split pass shares. The member
/// computes its [`RowParallel::share`] of every region and meets the other
/// members at five joins: after the embedding, and per layer after
/// attention, W_o, FF1 and FF2 — each before the first region that reads
/// whole rows of what the one before wrote. Between two joins every member
/// writes only its own columns, reads only buffers nobody writes in that
/// span, and recomputes the layer norms into its own rows (`s.normed`).
/// Every slice is handed out by a [`Buf`] accessor, which reports it to the
/// seam, so `paged::Engine::record_pass` records exactly these accesses
/// and `dsi-verify` checks this protocol on that record.
pub(crate) fn step_in<W: WeightSource, K: KvSink + ?Sized, R: RowParallel>(
    w: &W,
    kv: &mut K,
    s: &mut Arena<'_>,
    rows: &[Row],
    seam: &mut R,
) -> Result<(), W::Error> {
    let c = w.config();
    let (h, m) = (c.hidden, rows.len());
    let me = seam.share();
    // This member's columns of the residual stream (W_o and FF2 outputs).
    let xc = me.part(h);
    // The layer widths, as `scratch_layout` has them: `a` attention
    // columns (`heads` heads of `d`), `f` FF neurons; this member's heads
    // `hs`, i.e. attention columns `ac`.
    let (a, f, d) = (h, 4 * h, h / c.heads);
    let hs = me.part(c.heads);
    let ac = hs.start * d..hs.end * d;
    // Columns `ac` of the q (`j` = 0), k (1) or v (2) third of a QKV row.
    let third = |j: usize| j * a + ac.start..j * a + ac.end;

    // Embedding: token row + position row fused into one write of `s.x`.
    let (wte, wpe) = w.embeddings();
    // SAFETY: arena protocol (see `Arena`) — until the join below this
    // member alone writes columns `xc` of `x`, and nobody reads `x`.
    let mut x = unsafe { s.x.window(seam, 0..m, h, xc.clone()) };
    for (i, r) in rows.iter().enumerate() {
        assert!(r.token < c.vocab, "token id {} out of vocab", r.token);
        assert!(r.pos < c.max_seq, "sequence exceeds max_seq");
        let (te, pe) = (&wte.row(r.token)[xc.clone()], &wpe.row(r.pos)[xc.clone()]);
        for (x, (&t, &p)) in x.row(i).iter_mut().zip(te.iter().zip(pe)) {
            *x = t + p;
        }
    }
    seam.join();

    for l in 0..c.layers {
        seam.at_layer(l, rows);
        let pl = w.layer(l)?;
        // Region 1: layer-norm rows → one M-row QKV GEMM → bias, over the
        // q, k and v windows of this member's heads (one window when it
        // owns them all).
        // SAFETY: arena protocol — until the next join `x` is read by all
        // and written by none, this member alone writes its heads' q, k
        // and v columns of `qkv` and their columns of `attn`, and `normed`
        // is its own.
        let xr = unsafe { s.x.read(seam, 0..m, h, 0..h) };
        let normed = normed_rows(s.normed, seam, m, h);
        layer_norm_rows(xr, &pl.ln1_g, &pl.ln1_b, normed);
        if ac.len() == a {
            // SAFETY: as above; this member owns every head.
            let qkv = unsafe { s.qkv.window(seam, 0..m, 3 * a, 0..3 * a) };
            gemm_cols(&pl.w_qkv, normed, 0..3 * a, qkv, Epilogue::Bias(&pl.b_qkv));
        } else {
            for j in 0..3 {
                // SAFETY: as above.
                let out = unsafe { s.qkv.window(seam, 0..m, 3 * a, third(j)) };
                gemm_cols(&pl.w_qkv, normed, third(j), out, Epilogue::Bias(&pl.b_qkv[third(j)]));
            }
        }
        // Region 2: each row's K/V written, then streaming-softmax
        // attention over this member's heads, its query read in place from
        // the QKV block (stride 3a) — no gather.
        for (i, &r) in rows.iter().enumerate() {
            // SAFETY: as above — this member's k and v columns, which the
            // QKV GEMM is done with.
            let (k, v) = unsafe { (s.qkv.read(seam, i..i + 1, 3 * a, third(1)), s.qkv.read(seam, i..i + 1, 3 * a, third(2))) };
            kv.write(l, r, ac.clone(), k, v);
        }
        for (i, &r) in rows.iter().enumerate() {
            // SAFETY: as above — this member's q columns, and its columns
            // of `attn`.
            let (q, mut out) = unsafe { (s.qkv.read(seam, i..i + 1, 3 * a, third(0)), s.attn.window(seam, i..i + 1, a, ac.clone())) };
            kv.attend(l, r, hs.clone(), d, q, out.row(0));
        }
        seam.join();
        // Region 3: output projection GEMM + bias + residual.
        // SAFETY: arena protocol — `attn` and `x` are read by all and
        // written by none until the next join; this member alone writes
        // columns `xc` of `y`.
        let (attn, xr, y) = unsafe {
            (s.attn.read(seam, 0..m, a, 0..a), s.x.read(seam, 0..m, h, 0..h), s.y.window(seam, 0..m, h, xc.clone()))
        };
        project_local(attn, &pl.w_o, xc.clone(), &pl.b_o, &xr[xc.start..], y);
        seam.join();
        std::mem::swap(&mut s.x, &mut s.y);
        // Region 4: layer-norm → FF1 GEMM → bias → GeLU, this member's FF
        // columns.
        let fc = me.part(f);
        // SAFETY: arena protocol — `x` is read by all and written by none
        // until the next join; this member alone writes columns `fc` of
        // `ff`, and `normed` is its own.
        let (xr, ff) = unsafe { (s.x.read(seam, 0..m, h, 0..h), s.ff.window(seam, 0..m, f, fc.clone())) };
        let normed = normed_rows(s.normed, seam, m, h);
        layer_norm_rows(xr, &pl.ln2_g, &pl.ln2_b, normed);
        gemm_cols(&pl.w_ff1, normed, fc.clone(), ff, Epilogue::BiasGelu(&pl.b_ff1[fc]));
        seam.join();
        // Region 5: FF2 GEMM + bias + residual.
        // SAFETY: arena protocol — `ff` and `x` are read by all and written
        // by none until the next join; this member alone writes columns
        // `xc` of `y` (the buffer regions 1 and 3 read as `x`, which no
        // member reads after the join that ended region 3).
        let (ff, xr, y) = unsafe {
            (s.ff.read(seam, 0..m, f, 0..f), s.x.read(seam, 0..m, h, 0..h), s.y.window(seam, 0..m, h, xc.clone()))
        };
        project_local(ff, &pl.w_ff2, xc.clone(), &pl.b_ff2, &xr[xc.start..], y);
        seam.join();
        std::mem::swap(&mut s.x, &mut s.y);
    }
    Ok(())
}

/// Layer-norm every `h`-wide row of `x` into `out`.
#[inline]
fn layer_norm_rows(x: &[f32], g: &[f32], b: &[f32], out: &mut [f32]) {
    let h = g.len();
    for (row, o) in x.chunks_exact(h).zip(out.chunks_exact_mut(h)) {
        fused::layernorm_row_into(row, g, b, 1e-5, o);
    }
}

/// The head of an `m`-row pass [`step`] left in `s`: final layer-norm of
/// each row, then one M-row tied-embedding logits GEMM via the pre-packed
/// `wteᵀ`, leaving `[m, vocab]` logits in `s`, row `i` belonging to the
/// pass's row `i`.
pub fn logits<W: WeightSource>(w: &W, s: &mut Scratch, m: usize) {
    logits_in(w, &mut s.arena(), m, &mut Solo);
}

/// [`logits`] over an [`Arena`], computing the seam's part of the
/// vocabulary.
pub(crate) fn logits_in<W: WeightSource, R: RowParallel>(w: &W, s: &mut Arena<'_>, m: usize, seam: &mut R) {
    let (h, vocab) = (w.config().hidden, w.config().vocab);
    let (lnf_g, lnf_b) = w.lnf();
    let vc = seam.share().part(vocab);
    // SAFETY: arena protocol — `x` is read by all and written by none; this
    // member alone writes columns `vc` of `logits`, and `normed` is its own.
    let (xr, out) = unsafe { (s.x.read(seam, 0..m, h, 0..h), s.logits.window(seam, 0..m, vocab, vc.clone())) };
    let normed = normed_rows(s.normed, seam, m, h);
    layer_norm_rows(xr, lnf_g, lnf_b, normed);
    gemm_cols(w.logits_w(), normed, vc, out, Epilogue::None);
}

/// One buffer of a [`Scratch`], as a pass addresses it: its
/// [`scratch_layout`] name, base and length. The name travels with the
/// buffer, so `x` and `y` keep theirs through the swap after each block.
/// Every slice of it a pass takes goes through one of its accessors, which
/// bounds-check it and report it to the pass's seam
/// ([`RowParallel::touch`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Buf {
    name: &'static str,
    ptr: *mut f32,
    len: usize,
}

impl Buf {
    fn of(name: &'static str, v: &mut [f32]) -> Buf {
        Buf { name, ptr: v.as_mut_ptr(), len: v.len() }
    }

    /// Columns `cols` of rows `rows`, `ldc` floats apart, to read: whole
    /// rows, or part of one row (so the slice is contiguous).
    ///
    /// # Safety
    /// The buffer outlives `'a`, and until the reader's next join no member
    /// writes any float of the slice.
    #[inline]
    unsafe fn read<'a, R: RowParallel>(self, seam: &mut R, rows: Range<usize>, ldc: usize, cols: Range<usize>) -> &'a [f32] {
        assert!(cols.start <= cols.end && cols.end <= ldc, "scratch read {cols:?} outside a {ldc}-wide row");
        assert!(rows.len() == 1 || cols.len() == ldc, "scratch read of part rows is not contiguous");
        let (lo, hi) = (rows.start * ldc + cols.start, rows.end.saturating_sub(1) * ldc + cols.end);
        assert!(!rows.is_empty() && hi <= self.len, "scratch read past the buffer");
        seam.touch(self.name, rows, ldc, cols, Access::Read);
        // SAFETY: in bounds (asserted), and nothing writes the range while
        // the slice is used (the caller's contract).
        unsafe { std::slice::from_raw_parts(self.ptr.add(lo), hi - lo) }
    }

    /// Columns `cols` of rows `rows`, `ldc` floats apart, to write and read
    /// back: an [`OutRows`] window, which forms references to one row's
    /// window columns at a time and never to the other members' columns
    /// between.
    ///
    /// # Safety
    /// The buffer outlives `'a`, and until the writer's next join no other
    /// member accesses any element of the window.
    #[inline]
    unsafe fn window<'a, R: RowParallel>(self, seam: &mut R, rows: Range<usize>, ldc: usize, cols: Range<usize>) -> OutRows<'a> {
        assert!(cols.start <= cols.end && cols.end <= ldc, "scratch window {cols:?} outside a {ldc}-wide row");
        assert!(!rows.is_empty() && (rows.end - 1) * ldc + cols.end <= self.len, "scratch window past the buffer");
        let at = rows.start * ldc + cols.start;
        let (n, width) = (rows.len(), cols.len());
        seam.touch(self.name, rows, ldc, cols, Access::Write);
        // SAFETY: every row's window is in bounds (asserted), and this
        // member alone accesses it until its next join (the caller's
        // contract).
        unsafe { OutRows::from_raw(self.ptr.add(at), n, ldc, width) }
    }
}

/// The first `m` rows of a member's own layer-norm buffer, `width` floats
/// each, to write and read back, reported to the seam as `normed`.
#[inline]
fn normed_rows<'a, R: RowParallel>(normed: &'a mut [f32], seam: &mut R, m: usize, width: usize) -> &'a mut [f32] {
    seam.touch("normed", 0..m, width, 0..width, Access::Write);
    &mut normed[..m * width]
}

/// The buffers of a [`Scratch`] that the members of a split pass share:
/// every one but the layer-norm rows, which each member keeps to itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScratchShare {
    x: Buf,
    y: Buf,
    qkv: Buf,
    attn: Buf,
    ff: Buf,
    logits: Buf,
}

// SAFETY: a `ScratchShare` is only addresses; every access through them
// goes through `Buf::read` / `Buf::window`, whose contracts (the arena
// protocol of `step_in`) keep concurrent accesses by different members on
// disjoint elements or read-only.
unsafe impl Send for ScratchShare {}
// SAFETY: as above.
unsafe impl Sync for ScratchShare {}

/// A pass's view of a [`Scratch`]: the shared buffers plus this member's
/// own layer-norm rows.
///
/// **The arena protocol.** Between two joins of a pass, each element of a
/// shared buffer is either read by any number of members and written by
/// none, or accessed by one member only. `step_in` keeps it by giving each
/// member its own columns of every output ([`Share::part`]) and joining
/// before any region reads whole rows of what another member wrote; a
/// one-member pass keeps it trivially. The `unsafe` accesses in `step_in`
/// and `logits_in` each cite it.
pub(crate) struct Arena<'s> {
    normed: &'s mut [f32],
    x: Buf,
    y: Buf,
    qkv: Buf,
    attn: Buf,
    ff: Buf,
    logits: Buf,
}

impl<'s> Arena<'s> {
    /// One member's view of `share` with its own layer-norm rows.
    ///
    /// # Safety
    /// The scratch `share` was taken from outlives `'s` and is not touched
    /// otherwise while the view is used; every member of the pass follows
    /// the arena protocol.
    pub(crate) unsafe fn shared(share: ScratchShare, normed: &'s mut [f32]) -> Self {
        let ScratchShare { x, y, qkv, attn, ff, logits } = share;
        Arena { normed, x, y, qkv, attn, ff, logits }
    }
}

/// Preallocated intermediate buffers for the fused layer loop, sized for
/// `m` concurrent rows. A [`step`] pass uses the first `rows.len()` rows of
/// each buffer: one per context token it seats and one per slot it
/// advances, so a decode pass is as wide as the batch it carries.
#[derive(Debug)]
pub struct Scratch {
    /// `[m, h]` layer-norm output (interior of fused regions 1 and 4).
    pub(crate) normed: Vec<f32>,
    /// `[m, h]` current activations.
    pub(crate) x: Vec<f32>,
    /// `[m, 3h]` fused QKV projection output.
    pub(crate) qkv: Vec<f32>,
    /// `[m, h]` attention context output.
    pub(crate) attn: Vec<f32>,
    /// `[m, h]` block output (regions 3/5 write here, then swap with `x`).
    pub(crate) y: Vec<f32>,
    /// `[m, 4h]` FF1 activation.
    pub(crate) ff: Vec<f32>,
    /// `[m, vocab]` logits.
    pub(crate) logits: Vec<f32>,
}

/// The scratch arena's layout: `(buffer name, capacity in floats)` for `m`
/// concurrent rows, in declaration order. [`Scratch::new`] allocates from
/// this table, `Buf` names each buffer by it, and `dsi-verify::scratch`
/// checks a recorded pass's accesses against it, so the three cannot
/// drift apart.
pub fn scratch_layout(c: &GptConfig, m: usize) -> [(&'static str, usize); 7] {
    let h = c.hidden;
    [
        ("normed", m * h),
        ("x", m * h),
        ("qkv", m * 3 * h),
        ("attn", m * h),
        ("y", m * h),
        ("ff", m * 4 * h),
        ("logits", m * c.vocab),
    ]
}

impl Scratch {
    /// Allocate for `m` concurrent rows (public so batched front-ends in
    /// sibling modules can own their scratch).
    pub fn new(c: &GptConfig, m: usize) -> Self {
        let [normed, x, qkv, attn, y, ff, logits] =
            scratch_layout(c, m).map(|(_, len)| vec![0.0; len]);
        Scratch { normed, x, qkv, attn, y, ff, logits }
    }

    /// Grow (never shrink) to fit `m` rows.
    pub fn ensure(&mut self, c: &GptConfig, m: usize) {
        let h = c.hidden;
        if self.x.len() < m * h {
            *self = Scratch::new(c, m);
        }
    }

    /// The caller's own view of every buffer: a one-member pass.
    pub(crate) fn arena(&mut self) -> Arena<'_> {
        let share = self.share();
        // SAFETY: `share` addresses this scratch, borrowed mutably for the
        // view's life, and the view's holder is the pass's only member.
        unsafe { Arena::shared(share, &mut self.normed) }
    }

    /// The shared buffers' addresses, for the members of a split pass.
    /// Every access through them is `unsafe` (see [`Arena`]).
    pub(crate) fn share(&mut self) -> ScratchShare {
        ScratchShare {
            x: Buf::of("x", &mut self.x),
            y: Buf::of("y", &mut self.y),
            qkv: Buf::of("qkv", &mut self.qkv),
            attn: Buf::of("attn", &mut self.attn),
            ff: Buf::of("ff", &mut self.ff),
            logits: Buf::of("logits", &mut self.logits),
        }
    }

    /// Logits row `i` of the most recent `m`-row forward.
    pub fn logits_row(&self, i: usize, vocab: usize) -> &[f32] {
        &self.logits[i * vocab..(i + 1) * vocab]
    }

    /// Capacity fingerprint: total reserved floats across all buffers. The
    /// zero-allocation invariant of steady-state decode is "this value and
    /// every buffer pointer are unchanged across tokens".
    pub fn reserved_len(&self) -> usize {
        self.normed.len()
            + self.x.len()
            + self.qkv.len()
            + self.attn.len()
            + self.y.len()
            + self.ff.len()
            + self.logits.len()
    }
}

/// A generation session over a packed model: owns the KV cache and scratch.
pub struct FastSession<'p, 'm, B = PackedB> {
    pm: &'p PackedModel<'m, B>,
    pub cache: KvCache,
    scratch: Scratch,
    /// Reused row list of the current pass.
    rows: Vec<Row>,
    /// Row count of the most recent [`FastSession::forward`] call; selects
    /// the sampling row inside the scratch logits buffer.
    last_m: usize,
    /// The token emitted by the last [`FastSession::generate_step`] that has
    /// not been fed through the model yet. Feeding is deferred to the start
    /// of the *next* step so a caller that stops early (deadline,
    /// cancellation) never pays for a forward pass whose logits it will not
    /// sample.
    to_feed: Option<usize>,
}

impl<B: PanelWeights> FastSession<'_, '_, B> {
    /// Context length consumed so far.
    pub fn context_len(&self) -> usize {
        self.cache.context_len()
    }

    /// The `[vocab]` logits row of the most recently forwarded position —
    /// the row greedy sampling reads.
    ///
    /// Panics if no `forward` has run yet.
    pub fn last_logits(&self) -> &[f32] {
        assert!(self.last_m > 0, "last_logits() before any forward()");
        self.scratch.logits_row(self.last_m - 1, self.pm.config().vocab)
    }

    /// Forward `ids` through all layers, extending the KV cache; leaves
    /// `[ids.len(), vocab]` logits in scratch and returns them as a slice.
    pub fn forward(&mut self, ids: &[usize]) -> &[f32] {
        let m = ids.len();
        Row::prompt_pass(&mut self.rows, 0, self.cache.context_len(), ids);
        let Ok(()) = step(
            self.pm, std::slice::from_mut(&mut self.cache), &mut self.scratch, &self.rows, &mut Solo,
        );
        logits(self.pm, &mut self.scratch, m);
        self.last_m = m;
        &self.scratch.logits[..m * self.pm.config().vocab]
    }

    /// Ingest `prompt` and arm step-wise generation: after `begin`, each
    /// [`FastSession::generate_step`] emits the next greedy token. The
    /// step-wise pair is token-identical to one-shot
    /// [`FastSession::generate`] (which is implemented on top of it).
    pub fn begin(&mut self, prompt: &[usize]) {
        self.forward(prompt);
        self.to_feed = None;
    }

    /// Emit the next greedy token. The previous step's token (if any) is fed
    /// through the model first, then the fresh logits row is sampled — so a
    /// caller can stop between any two steps (deadline, cancellation) with
    /// the tokens emitted so far forming an exact prefix of the full
    /// generation.
    ///
    /// Panics if no [`FastSession::begin`] / [`FastSession::forward`] has
    /// run yet.
    pub fn generate_step(&mut self) -> usize {
        if let Some(t) = self.to_feed.take() {
            self.forward(&[t]);
        }
        let tok = argmax(self.last_logits());
        self.to_feed = Some(tok);
        tok
    }

    /// Drop all decode state (KV context, pending token), keeping every
    /// buffer's capacity: the session is ready for a fresh prompt with zero
    /// reallocation — the single-slot engine's `release` path.
    pub fn reset(&mut self) {
        self.cache.clear();
        self.to_feed = None;
        self.last_m = 0;
    }

    /// Greedy generation: process `prompt`, then emit `n_tokens` tokens
    /// (`n_tokens == 0` ingests the prompt and returns no tokens). Matches
    /// [`GptModel::generate`] token-for-token (up to f32 reassociation in
    /// the GEMMs).
    pub fn generate(&mut self, prompt: &[usize], n_tokens: usize) -> Vec<usize> {
        self.begin(prompt);
        (0..n_tokens).map(|_| self.generate_step()).collect()
    }

    /// Scratch capacity fingerprint (see [`Scratch::reserved_len`]).
    pub fn scratch_reserved(&self) -> usize {
        self.scratch.reserved_len()
    }

    /// Data pointers of every scratch buffer and KV tensor — unchanged
    /// pointers across decode steps prove the loop ran allocation-free.
    pub fn buffer_fingerprint(&self) -> Vec<usize> {
        let s = &self.scratch;
        let mut f = vec![
            s.normed.as_ptr() as usize,
            s.qkv.as_ptr() as usize,
            s.attn.as_ptr() as usize,
            s.ff.as_ptr() as usize,
            s.logits.as_ptr() as usize,
        ];
        // x and y swap per layer, so fingerprint them as an unordered pair.
        let (a, b) = (s.x.as_ptr() as usize, s.y.as_ptr() as usize);
        f.push(a.min(b));
        f.push(a.max(b));
        for l in &self.cache.layers {
            f.push(l.k.data().as_ptr() as usize);
            f.push(l.v.data().as_ptr() as usize);
        }
        f
    }
}

/// Greedy sampling over one logits row, shared by every session front-end
/// (the fast path, the paged engine at every degree, the benches) so
/// tie-breaking cannot drift.
#[inline]
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    let mut bv = f32::NEG_INFINITY;
    // `>=` keeps the *last* maximum on exact ties, matching the reference
    // `ops::argmax_rows` (Iterator::max_by returns the last of equals).
    for (i, &v) in row.iter().enumerate() {
        if v >= bv {
            bv = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use dsi_kernels::tensor::Tensor;

    fn model(layers: usize, seed: u64) -> GptModel {
        GptModel::random(zoo::tiny(layers), seed)
    }

    #[test]
    fn fast_logits_match_reference() {
        let m = model(2, 42);
        let pm = PackedModel::pack(&m);
        let mut sess = pm.session(4);
        let got = sess.forward(&[1, 2, 3, 4]).to_vec();
        let want = m.forward_full(&[1, 2, 3, 4]);
        let gt = Tensor::from_vec(&[4, 101], got);
        assert!(
            gt.allclose(&want, 1e-3),
            "max diff {}",
            gt.max_abs_diff(&want)
        );
    }

    #[test]
    fn fast_incremental_matches_fast_full() {
        let m = model(3, 7);
        let pm = PackedModel::pack(&m);
        let mut inc = pm.session(3);
        inc.forward(&[5, 6, 7]);
        let got = inc.forward(&[8]).to_vec();
        let mut full = pm.session(4);
        let all = full.forward(&[5, 6, 7, 8]);
        let last = &all[3 * 101..4 * 101];
        let diff = got
            .iter()
            .zip(last)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-3, "max diff {diff}");
    }

    /// Greedy tie-breaking is part of token identity: the engines' `argmax`
    /// and the oracle's `ops::argmax_rows` must pick the same index on every
    /// NaN-free row, ties included.
    #[test]
    fn argmax_breaks_ties_like_the_oracle() {
        let (inf, ninf) = (f32::INFINITY, f32::NEG_INFINITY);
        let rows: [&[f32]; 12] = [
            &[3.0, 1.0, 2.0],
            &[3.0, 3.0, 1.0, 2.0],
            &[1.0, 3.0, 3.0, 2.0],
            &[1.0, 2.0, 3.0, 3.0],
            &[3.0, 1.0, 3.0, 2.0, 3.0],
            &[0.5; 5],
            &[7.0],
            &[1.0, inf, 2.0, inf],
            &[ninf, ninf, ninf],
            &[ninf, -1.0, ninf],
            &[-0.0, 0.0, -1.0],
            &[0.0, -0.0, -1.0],
        ];
        for row in rows {
            let t = Tensor::from_vec(&[1, row.len()], row.to_vec());
            assert_eq!(argmax(row), dsi_kernels::ops::argmax_rows(&t)[0], "row {row:?}");
        }
    }

    #[test]
    fn fast_generate_matches_reference_generate() {
        for seed in [1u64, 9, 33] {
            let m = model(2, seed);
            let pm = PackedModel::pack(&m);
            let mut sess = pm.session(4);
            let want = m.generate(&[1, 2, 3, 4], 8);
            let got = sess.generate(&[1, 2, 3, 4], 8);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn steady_state_decode_does_not_allocate() {
        let m = model(2, 5);
        let pm = PackedModel::pack(&m);
        let mut sess = pm.session(4);
        // Prompt + one decode step to reach steady state.
        sess.forward(&[1, 2, 3, 4]);
        sess.forward(&[7]);
        let fp = sess.buffer_fingerprint();
        let reserved = sess.scratch_reserved();
        // Every further token must reuse the same buffers: identical data
        // pointers for all scratch and KV storage.
        for t in 0..20 {
            sess.forward(&[(t * 13 + 2) % 101]);
            assert_eq!(sess.buffer_fingerprint(), fp, "token {t} reallocated");
            assert_eq!(sess.scratch_reserved(), reserved);
        }
    }

    #[test]
    fn quantized_packed_model_decodes() {
        // Fidelity bounds live in the root proptest suite; here: the INT8
        // session runs end-to-end and mostly agrees with FP32 greedy decode
        // on a well-separated tiny model.
        let m = model(2, 31);
        let qm = QuantizedPackedModel::quantize_pack(&m, 32);
        let fp = PackedModel::pack(&m);
        let got = qm.session(4).generate(&[1, 2, 3, 4], 8);
        let want = fp.session(4).generate(&[1, 2, 3, 4], 8);
        let agree = got.iter().zip(&want).filter(|(a, b)| a == b).count();
        assert!(agree * 2 >= want.len(), "agreement {agree}/{}", want.len());
    }

    #[test]
    fn int8_weight_stream_is_under_half_of_fp32() {
        let m = model(2, 37);
        let fp = PackedModel::pack(&m);
        let qm = QuantizedPackedModel::quantize_pack(&m, 64);
        assert!(
            qm.weight_stream_bytes() * 2 < fp.weight_stream_bytes(),
            "int8 {} vs fp32 {}",
            qm.weight_stream_bytes(),
            fp.weight_stream_bytes()
        );
    }

    /// Deep-Fusion's legality rule (Sec. III-B) on the executed step:
    /// attention may not be tiled along the tokens of one sequence. A sink
    /// that applies each row's K/V write only after that row attends — as a
    /// token tile that ran attention before the tile holding its own keys
    /// had written them — breaks the causal stair-step (a row no longer
    /// sees its own key), and the prompt pass leaves the reference; the
    /// same pass through the contiguous sink does not.
    #[test]
    fn attending_before_a_rows_kv_write_breaks_the_prompt_pass() {
        use std::cell::RefCell;

        /// Each row's K and V, in the order the step wrote them.
        struct AfterAttend<'c> {
            caches: RefCell<&'c mut [KvCache]>,
            pending: RefCell<std::collections::VecDeque<[Vec<f32>; 2]>>,
        }

        impl KvSink for AfterAttend<'_> {
            fn write(&mut self, _: usize, _: Row, _: Range<usize>, k: &[f32], v: &[f32]) {
                self.pending.get_mut().push_back([k.to_vec(), v.to_vec()]);
            }

            fn attend(&self, layer: usize, row: Row, heads: Range<usize>, d: usize, q: &[f32], out: &mut [f32]) {
                self.caches.borrow().attend(layer, row, heads, d, q, out);
                let [k, v] = self.pending.borrow_mut().pop_front().expect("a row attends after its write");
                self.caches.borrow_mut().write(layer, row, 0..k.len(), &k, &v);
            }
        }

        let m = model(2, 13);
        let (pm, c) = (PackedModel::pack(&m), &m.config);
        let ids = [3, 1, 4, 1, 5, 9];
        let want = m.forward_full(&ids).row_slice(2, 6);
        // The first two tokens through the contiguous sink, then the other
        // four as one prompt pass through `after` or the same sink.
        let run = |after: bool| {
            let (mut cache, mut s, mut rows) = ([KvCache::with_capacity(c.layers, c.hidden, c.max_seq)], Scratch::new(c, 4), Vec::new());
            Row::prompt_pass(&mut rows, 0, 0, &ids[..2]);
            let Ok(()) = step(&pm, &mut cache[..], &mut s, &rows, &mut Solo);
            Row::prompt_pass(&mut rows, 0, 2, &ids[2..]);
            let Ok(()) = if after {
                let mut sink = AfterAttend { caches: RefCell::new(&mut cache[..]), pending: RefCell::default() };
                step(&pm, &mut sink, &mut s, &rows, &mut Solo)
            } else {
                step(&pm, &mut cache[..], &mut s, &rows, &mut Solo)
            };
            logits(&pm, &mut s, 4);
            Tensor::from_vec(&[4, c.vocab], s.logits[..4 * c.vocab].to_vec())
        };
        assert!(run(false).allclose(&want, 1e-3), "the stair-step pass tracks the reference");
        let diff = run(true).max_abs_diff(&want);
        assert!(diff > 1e-2, "a row that cannot see its own key must leave the reference, max diff {diff}");
    }

    #[test]
    fn session_reuse_across_prompts() {
        let m = model(2, 11);
        let pm = PackedModel::pack(&m);
        let mut a = pm.session(3);
        let first = a.generate(&[1, 2, 3], 4);
        // A fresh session over the same packed model reproduces it.
        let mut b = pm.session(3);
        assert_eq!(b.generate(&[1, 2, 3], 4), first);
    }
}
