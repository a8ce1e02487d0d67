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
//! 2. **Fused region kernels** — each transformer layer executes as the four
//!    Fig. 1(c) small-batch fused regions (`dsi_kernels::fused`): interior
//!    activations live in scratch rows, never in fresh tensors.
//! 3. **Amortized KV cache** — the session reserves the full
//!    prompt+generation KV budget up front and appends rows in place
//!    ([`LayerKv::append_row_slices`]), replacing the seed's O(T²) per-token
//!    `cat_rows` rebuild.
//! 4. **Scratch reuse** — [`Scratch`] owns every intermediate buffer; the
//!    steady-state one-token decode loop performs **zero heap allocations**
//!    (asserted by `Scratch::alloc_guard` in tests).
//!
//! Numerically the path tracks the reference within f32 reassociation noise
//! (the packed GEMM sums in a different order); greedy decode is verified
//! token-for-token against [`GptModel::generate`] in the property suite.

use std::convert::Infallible;
use std::ops::Deref;

use crate::config::GptConfig;
use crate::reference::{GptModel, KvCache, LayerWeights};
use dsi_kernels::blocked::{self, PackedB, PanelWeights};
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
// from and where the KV rows go.
//
// Every executed engine — the resident [`FastSession`] and `paged::Engine`
// over a packed model or over an offload tier (which holds only a window of
// layer panels resident at a time) —
// drives this one function, so "paged / batched / streamed decode is
// token-identical to the solo resident oracle" holds by construction: the
// paths cannot drift apart numerically, only in where a `PackedLayer` came
// from and where a K/V row lives.
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
/// a time (`dsi_zero::offload::OffloadStore`, fallibly).
pub trait WeightSource {
    type B: PanelWeights;
    /// Layer `l`'s weights, held until the guard drops.
    type Layer<'a>: Deref<Target = PackedLayer<Self::B>>
    where
        Self: 'a;
    type Error;
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
/// addressed through per-sequence page tables (`paged::Engine`).
/// Implementations mark both methods `#[inline]`: they run once per row per
/// layer inside [`step`], which is monomorphised in the *calling* crate, and
/// a non-generic method is not inlined across crates without it (measured:
/// ~2 % of a 0.7 ms batch-1 INT8 step).
pub trait KvSink {
    /// Store `row`'s K/V for `layer` at `row.pos` of sequence `row.seq`.
    fn write(&mut self, layer: usize, row: Row, k: &[f32], v: &[f32]);
    /// `row`'s query attends over positions `0..=row.pos` of its sequence.
    fn attend(&self, layer: usize, row: Row, q: &[f32], heads: usize, out: &mut [f32]);
}

/// Contiguous KV: sequence `seq`'s cache is `self[seq]`, rows appended in
/// place (amortized; no reallocation once capacity is reserved).
impl KvSink for [KvCache] {
    #[inline]
    fn write(&mut self, layer: usize, row: Row, k: &[f32], v: &[f32]) {
        let kv = &mut self[row.seq].layers[layer];
        assert_eq!(kv.len(), row.pos, "contiguous KV appends in position order");
        kv.append_row_slices(k, v);
    }

    #[inline]
    fn attend(&self, layer: usize, row: Row, q: &[f32], heads: usize, out: &mut [f32]) {
        let kv = &self[row.seq].layers[layer];
        fused::attention_row_into(q, &kv.k, &kv.v, heads, row.pos, out);
    }
}

/// One forward pass of `rows` through the whole model — embed; per layer
/// the Fig. 1(c) fused regions (LN+QKV, KV write, attention, W_o,
/// LN+FF1+GeLU, FF2); final LN + tied-embedding logits — leaving
/// `[rows.len(), vocab]` logits in `s`, row `i` belonging to `rows[i]`.
///
/// Every K/V row of a layer is written before any query attends, which for
/// a prompt pass is the causal stair-step (query `i` sees keys `0..=pos_i`)
/// and for a decode step changes nothing (the rows belong to different
/// sequences). Because every microkernel accumulates like the M=1 kernel,
/// the logits of a row are **bit-identical** however the rows are batched.
///
/// On `Err` (a weight fetch failed) the KV state of the rows' sequences is
/// unspecified.
pub fn step<W: WeightSource, K: KvSink + ?Sized>(
    w: &W,
    kv: &mut K,
    s: &mut Scratch,
    rows: &[Row],
) -> Result<(), W::Error> {
    let c = w.config();
    let (h, heads) = (c.hidden, c.heads);
    let m = rows.len();
    assert!(m > 0, "step: empty pass");
    s.ensure(c, m);

    // Embedding: token row + position row fused into one write of `s.x`.
    let (wte, wpe) = w.embeddings();
    for (i, r) in rows.iter().enumerate() {
        assert!(r.token < c.vocab, "token id {} out of vocab", r.token);
        assert!(r.pos < c.max_seq, "sequence exceeds max_seq");
        let (te, pe) = (wte.row(r.token), wpe.row(r.pos));
        for (x, (&t, &p)) in s.x[i * h..(i + 1) * h].iter_mut().zip(te.iter().zip(pe)) {
            *x = t + p;
        }
    }

    for l in 0..c.layers {
        let pl = w.layer(l)?;
        // Region 1: layer-norm rows → one M-row QKV GEMM → bias.
        fused::ln_matmul_bias_into(
            &s.x[..m * h], m, &pl.ln1_g, &pl.ln1_b, 1e-5,
            &pl.w_qkv, &pl.b_qkv, &mut s.normed[..m * h], &mut s.qkv[..m * 3 * h],
        );
        for (i, &r) in rows.iter().enumerate() {
            let row = &s.qkv[i * 3 * h..(i + 1) * 3 * h];
            kv.write(l, r, &row[h..2 * h], &row[2 * h..3 * h]);
        }
        // Region 2: streaming-softmax attention, queries read in place from
        // the QKV block (stride 3h) — no gather.
        for (i, &r) in rows.iter().enumerate() {
            kv.attend(l, r, &s.qkv[i * 3 * h..i * 3 * h + h], heads, &mut s.attn[i * h..(i + 1) * h]);
        }
        // Region 3: output projection GEMM + bias + residual.
        blocked::matmul_bias_add_into(
            &s.attn[..m * h], m, &pl.w_o, &pl.b_o, &s.x[..m * h], &mut s.y[..m * h],
        );
        std::mem::swap(&mut s.x, &mut s.y);
        // Region 4: layer-norm → FF1 GEMM → bias → GeLU.
        fused::ln_matmul_bias_gelu_into(
            &s.x[..m * h], m, &pl.ln2_g, &pl.ln2_b, 1e-5,
            &pl.w_ff1, &pl.b_ff1, &mut s.normed[..m * h], &mut s.ff[..m * 4 * h],
        );
        // Region 5: FF2 GEMM + bias + residual.
        blocked::matmul_bias_add_into(
            &s.ff[..m * 4 * h], m, &pl.w_ff2, &pl.b_ff2, &s.x[..m * h],
            &mut s.y[..m * h],
        );
        std::mem::swap(&mut s.x, &mut s.y);
    }

    // Final layer-norm of each row, then one M-row tied-embedding logits
    // GEMM via the pre-packed `wteᵀ`.
    let (lnf_g, lnf_b) = w.lnf();
    for i in 0..m {
        fused::layernorm_row_into(
            &s.x[i * h..(i + 1) * h],
            lnf_g, lnf_b, 1e-5,
            &mut s.normed[i * h..(i + 1) * h],
        );
    }
    blocked::matmul_into(&s.normed[..m * h], m, w.logits_w(), &mut s.logits[..m * c.vocab]);
    Ok(())
}

/// Preallocated intermediate buffers for the fused layer loop. Sized for
/// `m` concurrent rows (the prompt length; steady-state decode uses `m=1`
/// slices of the same buffers).
#[derive(Debug)]
pub struct Scratch {
    /// `[h]` layer-norm output row (interior of fused regions 1 and 4).
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
/// this table and the static verifier (`dsi-verify::scratch`) analyses
/// aliasing/lifetimes against it, so the two cannot drift apart.
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
    /// the row greedy sampling reads. Centralizes the
    /// `(m - 1) * vocab` slice math so session front-ends (this one and
    /// `dsi-parallel`'s `TpSession`) never duplicate it.
    ///
    /// Panics if no `forward` has run yet.
    pub fn last_logits(&self) -> &[f32] {
        assert!(self.last_m > 0, "last_logits() before any forward()");
        let vocab = self.pm.config().vocab;
        &self.scratch.logits[(self.last_m - 1) * vocab..self.last_m * vocab]
    }

    /// Forward `ids` through all layers, extending the KV cache; leaves
    /// `[ids.len(), vocab]` logits in scratch and returns them as a slice.
    pub fn forward(&mut self, ids: &[usize]) -> &[f32] {
        let m = ids.len();
        Row::prompt_pass(&mut self.rows, 0, self.cache.context_len(), ids);
        let Ok(()) =
            step(self.pm, std::slice::from_mut(&mut self.cache), &mut self.scratch, &self.rows);
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
/// (fast path, TP engine, benches) so tie-breaking cannot drift.
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
