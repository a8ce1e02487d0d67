//! Executed Deep-Fusion kernels: single-pass implementations of the four
//! Fig. 1(c) small-batch fusion regions.
//!
//! [`crate::fusion`] *plans* fused regions and prices their launch/traffic
//! savings; this module *executes* them. Each function is one "launch": it
//! reads its region's inputs once, keeps every interior value in registers
//! (or a caller-provided scratch row standing in for shared memory), and
//! writes only the region boundary tensor:
//!
//! * region 1 — [`ln_matmul_bias_into`]: layer-norm → QKV GEMM → bias; the
//!   normalized row never becomes a tensor, it lives in a scratch row reused
//!   across rows and tokens.
//! * region 2 — [`attention_row_into`] (or [`attention_row_paged_into`]
//!   through a page table, or [`attention_heads_paged_into`] over a range
//!   of its heads), one launch per query row: score → softmax →
//!   weighted-sum in one streaming pass over the keys (online softmax), with
//!   **no scores buffer** of any size — the running max/sum rescale trick
//!   keeps state in three registers plus the output accumulator.
//! * regions 3/5 — `blocked::matmul_bias_add_into`: projection GEMM with
//!   the bias and residual folded into the output write.
//! * region 4 — [`ln_matmul_bias_gelu_into`]: layer-norm → FF1 GEMM → bias
//!   → GeLU, again one output pass.
//!
//! All kernels write into caller scratch, so a steady-state decode step
//! performs zero heap allocations (see `dsi-model::fast`).

use std::marker::PhantomData;
use std::ops::Range;

use crate::blocked::{dot, matmul_bias_gelu_into, matmul_bias_into, PanelWeights};
use crate::tensor::Tensor;

/// Layer-norm one row into `out` (gamma/beta applied).
#[inline]
pub fn layernorm_row_into(row: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
    let n = row.len();
    debug_assert_eq!(gamma.len(), n);
    debug_assert_eq!(beta.len(), n);
    debug_assert_eq!(out.len(), n);
    let mean = row.iter().sum::<f32>() / n as f32;
    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
    let inv = 1.0 / (var + eps).sqrt();
    for i in 0..n {
        out[i] = (row[i] - mean) * inv * gamma[i] + beta[i];
    }
}

/// Fig. 1(c) region 1: `out = layernorm(x)·W + bias` for `x = [m, h]`.
/// `normed` is an `[m, h]` scratch block (the region's interior tensor):
/// all rows are normalized first, then a **single M-row GEMM** streams the
/// weight panels once for the whole batch instead of once per row — the
/// Sec. III-C3 amortization that makes batched decode scale.
#[allow(clippy::too_many_arguments)]
pub fn ln_matmul_bias_into<B: PanelWeights + ?Sized>(
    x: &[f32],
    m: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    w: &B,
    bias: &[f32],
    normed: &mut [f32],
    out: &mut [f32],
) {
    let h = w.k();
    assert_eq!(x.len(), m * h, "ln_matmul: input size mismatch");
    assert_eq!(normed.len(), m * h, "ln_matmul: scratch must be [m*h]");
    for i in 0..m {
        layernorm_row_into(
            &x[i * h..(i + 1) * h],
            gamma,
            beta,
            eps,
            &mut normed[i * h..(i + 1) * h],
        );
    }
    matmul_bias_into(normed, m, w, bias, out);
}

/// Fig. 1(c) region 4: `out = gelu(layernorm(x)·W + bias)`; same `[m, h]`
/// scratch contract and single M-row GEMM as [`ln_matmul_bias_into`].
#[allow(clippy::too_many_arguments)]
pub fn ln_matmul_bias_gelu_into<B: PanelWeights + ?Sized>(
    x: &[f32],
    m: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    w: &B,
    bias: &[f32],
    normed: &mut [f32],
    out: &mut [f32],
) {
    let h = w.k();
    assert_eq!(x.len(), m * h, "ln_matmul_gelu: input size mismatch");
    assert_eq!(normed.len(), m * h, "ln_matmul_gelu: scratch must be [m*h]");
    for i in 0..m {
        layernorm_row_into(
            &x[i * h..(i + 1) * h],
            gamma,
            beta,
            eps,
            &mut normed[i * h..(i + 1) * h],
        );
    }
    matmul_bias_gelu_into(normed, m, w, bias, out);
}

/// Fused `x += bias; x += residual` in one pass.
pub fn bias_residual_inplace(x: &mut [f32], bias: &[f32], residual: &[f32]) {
    let n = bias.len();
    assert_eq!(x.len(), residual.len(), "residual size mismatch");
    for (row, rrow) in x.chunks_exact_mut(n).zip(residual.chunks_exact(n)) {
        for ((v, &b), &r) in row.iter_mut().zip(bias).zip(rrow) {
            *v += b + r;
        }
    }
}

/// Fig. 1(c) region 2 for one query row: multi-head causal attention as one
/// streaming pass per head over the visible keys — the score row is never
/// materialized. Uses the online-softmax recurrence: on a new running max
/// the accumulator and weight sum are rescaled by `exp(m_old - m_new)`, so
/// score → softmax → weighted-sum completes in a single traversal of the KV
/// cache with O(1) extra state.
///
/// `k`/`v = [t_ctx, h]`; the query attends to keys `0..=offset` (clamped to
/// the cache length), so query row `i` of a causal block at `offset0` is
/// this call at `offset0 + i`. Each row of a **ragged batch** carries its
/// own KV tensors and position. `out` (`[h]`) doubles as the accumulator.
pub fn attention_row_into(
    q: &[f32],
    k: &Tensor,
    v: &Tensor,
    n_heads: usize,
    offset: usize,
    out: &mut [f32],
) {
    let visible = (offset + 1).min(k.rows());
    attention_row_core(q, k, v, n_heads, visible, out);
}

/// One sequence's **paged** KV cache: K/V rows live in shared per-layer
/// arenas, scattered across fixed-size token pages named by `pages` (the
/// sequence's page table). Token position `j` resolves to arena row
/// `pages[j / page_tokens] * page_tokens + j % page_tokens`.
pub struct PagedKvView<'a> {
    /// K arena, `[pages * page_tokens, h]` row-major, covering every page
    /// `pages` names.
    pub k: &'a [f32],
    /// V arena, same shape as `k`.
    pub v: &'a [f32],
    /// This sequence's page table, in position order.
    pub pages: &'a [u32],
    /// Tokens per page.
    pub page_tokens: usize,
    /// Context rows written through the table so far.
    pub len: usize,
    /// The query's position: it attends to keys `0..=offset`.
    pub offset: usize,
}

/// One query row attending through a page table ([`PagedKvView`]). The FLOP
/// sequence is the *same monomorphized code* as [`attention_row_into`] —
/// only the key-row addressing differs — so the output is bit-identical to
/// contiguous attention over the same K/V values.
pub fn attention_row_paged_into(
    q: &[f32],
    kv: &PagedKvView<'_>,
    n_heads: usize,
    out: &mut [f32],
) {
    let h = q.len();
    assert_eq!(h % n_heads, 0, "heads must divide hidden");
    let table = PageTable { pages: kv.pages, page_tokens: kv.page_tokens, len: kv.len, offset: kv.offset, head_major: false };
    attention_heads_paged_into(q, KvArenas::new(kv.k, kv.v), &table, h, h / n_heads, 0..n_heads, out);
}

/// The K and V arenas an attention call reads, by address: `len` floats
/// each. The kernels form references only to the head columns of one row
/// they read (`head_dim` floats at a time), never to a whole row or arena,
/// so other threads may write other columns of the same rows meanwhile —
/// the members of a split pass each attend over their own heads while the
/// others write theirs.
#[derive(Clone, Copy)]
pub struct KvArenas<'a> {
    k: *const f32,
    v: *const f32,
    len: usize,
    _arenas: PhantomData<&'a [f32]>,
}

impl<'a> KvArenas<'a> {
    /// Both arenas, borrowed whole.
    pub fn new(k: &'a [f32], v: &'a [f32]) -> Self {
        // SAFETY: borrowed for `'a`, so nothing writes them meanwhile.
        unsafe { KvArenas::from_raw(k.as_ptr(), v.as_ptr(), k.len().min(v.len())) }
    }

    /// The arenas at `k` and `v`, `len` floats each.
    ///
    /// # Safety
    /// For `'a`, both address `len` floats valid for reads, and no float an
    /// attention call over them reads — its heads' columns of the rows its
    /// table maps — is written.
    pub unsafe fn from_raw(k: *const f32, v: *const f32, len: usize) -> Self {
        KvArenas { k, v, len, _arenas: PhantomData }
    }

    /// `d` floats of the K arena from `at`.
    #[inline]
    fn key(&self, at: usize, d: usize) -> &'a [f32] {
        assert!(at + d <= self.len, "attention: key {at}..{} past the arena", at + d);
        // SAFETY: in bounds (asserted), and not written for `'a` (`from_raw`).
        unsafe { std::slice::from_raw_parts(self.k.add(at), d) }
    }

    /// `d` floats of the V arena from `at`.
    #[inline]
    fn value(&self, at: usize, d: usize) -> &'a [f32] {
        assert!(at + d <= self.len, "attention: value {at}..{} past the arena", at + d);
        // SAFETY: as in `key`.
        unsafe { std::slice::from_raw_parts(self.v.add(at), d) }
    }
}

/// One sequence's page table as attention reads it: the fields of a
/// [`PagedKvView`] but its arenas.
pub struct PageTable<'a> {
    /// This sequence's page table, in position order.
    pub pages: &'a [u32],
    /// Tokens per page.
    pub page_tokens: usize,
    /// Context rows written through the table so far.
    pub len: usize,
    /// The query's position: it attends to keys `0..=offset`.
    pub offset: usize,
    /// How a page lays out its `page_tokens × row_width` floats: row by
    /// row (`false`, a [`PagedKvView`]'s layout), or head by head
    /// (`true`): `[row_width / head_dim][page_tokens][head_dim]`, so one
    /// head's keys of a page are one dense block.
    pub head_major: bool,
}

/// [`attention_row_paged_into`] over the heads `heads` of `head_dim`
/// columns each, alone: the K/V arena rows are `row_width` wide (every
/// head), page `p` holding arena floats `p·page_tokens·row_width` onward in
/// the table's layout ([`PageTable::head_major`]), while `q` and `out`
/// hold only the range's `heads.len() * head_dim` columns. Each head runs
/// the code it runs in a whole-row call — only its key addresses depend on
/// the layout — so the output is bitwise those heads' columns of
/// [`attention_row_paged_into`] over the same K/V values: the entry a pass
/// member uses for the heads it owns.
pub fn attention_heads_paged_into(
    q: &[f32],
    kv: KvArenas<'_>,
    table: &PageTable<'_>,
    row_width: usize,
    head_dim: usize,
    heads: Range<usize>,
    out: &mut [f32],
) {
    let pt = table.page_tokens;
    assert!(pt > 0, "paged attention: zero page_tokens");
    assert!(head_dim > 0 && heads.end * head_dim <= row_width, "paged attention: heads {heads:?} outside the row");
    let visible = (table.offset + 1).min(table.len);
    let pages_needed = visible.div_ceil(pt);
    assert!(
        pages_needed <= table.pages.len(),
        "paged attention: page table too short ({} pages for {visible} tokens)",
        table.pages.len()
    );
    // Every page the pass will touch must map inside both arenas — this is
    // the bounds contract the AVX kernel's raw pointer arithmetic relies on.
    for &p in &table.pages[..pages_needed] {
        let end = (p as usize + 1) * pt * row_width;
        assert!(end <= kv.len, "paged attention: page {p} out of arena bounds");
    }
    // Head `c`'s key `j` sits at `idx.row(j) * stride + c * head_stride`:
    // row by row, rows are `row_width` apart and heads `head_dim`; head by
    // head, a page is `row_width / head_dim` blocks of `page_tokens` rows
    // of `head_dim`. Either way it lies inside its page (`heads.end ·
    // head_dim <= row_width`), which lies inside the arenas (checked above).
    let (stride, head_stride, page_rows) = if table.head_major {
        assert!(row_width.is_multiple_of(head_dim), "paged attention: head-major rows of whole heads");
        (head_dim, pt * head_dim, pt * row_width / head_dim)
    } else {
        (row_width, head_dim, pt)
    };
    attention_heads_indexed(
        q,
        kv,
        (stride, head_stride),
        head_dim,
        heads,
        visible,
        PagedRows { pages: table.pages, page_tokens: pt, page_rows },
        out,
    );
}

/// Maps a logical context index to its physical row in the K/V backing
/// storage. Contiguous caches are the identity; paged caches translate
/// through a page table. Monomorphization keeps the floating-point
/// instruction sequence of both paths identical — paged attention is
/// bit-identical to contiguous attention by construction, not by tolerance.
trait RowIndex: Copy {
    fn row(&self, j: usize) -> usize;
}

#[derive(Clone, Copy)]
struct ContigRows;

impl RowIndex for ContigRows {
    #[inline(always)]
    fn row(&self, j: usize) -> usize {
        j
    }
}

/// A page table over pages of `page_rows` arena rows, the first
/// `page_tokens` of which hold one head's (or one token's) keys.
#[derive(Clone, Copy)]
struct PagedRows<'a> {
    pages: &'a [u32],
    page_tokens: usize,
    page_rows: usize,
}

impl RowIndex for PagedRows<'_> {
    #[inline(always)]
    fn row(&self, j: usize) -> usize {
        self.pages[j / self.page_tokens] as usize * self.page_rows + j % self.page_tokens
    }
}

/// Shared per-(query row) core: all heads, `visible` keys, AVX2 fast path
/// when the head dim allows it.
fn attention_row_core(
    qrow: &[f32],
    k: &Tensor,
    v: &Tensor,
    n_heads: usize,
    visible: usize,
    out: &mut [f32],
) {
    let t_ctx = k.rows();
    let h = k.cols();
    assert_eq!(v.rows(), t_ctx);
    assert_eq!(v.cols(), h);
    assert!(visible <= t_ctx, "attention: visible exceeds cache");
    assert_eq!(h % n_heads, 0, "heads must divide hidden");
    let kv = KvArenas::new(k.data(), v.data());
    attention_heads_indexed(qrow, kv, (h, h / n_heads), h / n_heads, 0..n_heads, visible, ContigRows, out);
}

/// Heads `heads` (`d` columns each) of one query row over arbitrary K/V
/// placement: head `c`'s key for logical context index `j` is the `d`
/// floats at `idx.row(j) * stride + c * head_stride` of each arena
/// (`(stride, head_stride)` = `layout`); `qrow` and `out` hold the heads'
/// columns only. The caller must guarantee that those floats lie inside
/// both arenas for every `j < visible` and every head.
#[allow(clippy::too_many_arguments)]
fn attention_heads_indexed<I: RowIndex>(
    qrow: &[f32],
    kv: KvArenas<'_>,
    layout: (usize, usize),
    d: usize,
    heads: Range<usize>,
    visible: usize,
    idx: I,
    out: &mut [f32],
) {
    let (stride, head_stride) = layout;
    let width = heads.len() * d;
    assert_eq!(qrow.len(), width, "attention: q row size mismatch");
    assert_eq!(out.len(), width, "attention: out row size mismatch");
    let scale = 1.0 / (d as f32).sqrt();
    for (i, hd) in heads.enumerate() {
        let lo = hd * head_stride;
        let qi = &qrow[i * d..(i + 1) * d];
        let acc = &mut out[i * d..(i + 1) * d];
        #[cfg(target_arch = "x86_64")]
        if d.is_multiple_of(8) && crate::simd::avx2_fma() {
            // SAFETY: feature support checked; `d` divides 8; the pointer
            // arithmetic stays inside both arenas because the caller bounds
            // every key `idx.row(j) * stride + lo .. + d` inside them.
            unsafe { attn_avx::head_attention(qi, kv, stride, lo, visible, scale, idx, acc) };
            continue;
        }
        head_attention_scalar(qi, kv, stride, lo, visible, scale, idx, acc);
    }
}

/// One (query, head) online-softmax pass: the portable reference kernel.
#[allow(clippy::too_many_arguments)]
fn head_attention_scalar<I: RowIndex>(
    qi: &[f32],
    kv: KvArenas<'_>,
    h: usize,
    lo: usize,
    visible: usize,
    scale: f32,
    idx: I,
    acc: &mut [f32],
) {
    let d = qi.len();
    acc.fill(0.0);
    let mut m_run = f32::NEG_INFINITY;
    let mut sum = 0.0f32;
    for j in 0..visible {
        let r = idx.row(j);
        let kj = kv.key(r * h + lo, d);
        let s = dot(qi, kj) * scale;
        if s > m_run {
            // Rescale history to the new max. First iteration:
            // exp(-inf - s) = 0 zeroes the (already zero) state.
            let corr = (m_run - s).exp();
            sum *= corr;
            for a in acc.iter_mut() {
                *a *= corr;
            }
            m_run = s;
        }
        let w = (s - m_run).exp();
        sum += w;
        let vj = kv.value(r * h + lo, d);
        for (a, &vv) in acc.iter_mut().zip(vj) {
            *a += w * vv;
        }
    }
    let inv = 1.0 / sum;
    for a in acc.iter_mut() {
        *a *= inv;
    }
}

#[cfg(target_arch = "x86_64")]
mod attn_avx {
    use super::{KvArenas, RowIndex};
    use crate::simd::avx::exp_ps;
    use std::arch::x86_64::*;

    /// Horizontal sum of one YMM register.
    ///
    /// # Safety
    /// Requires AVX2+FMA.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// One (query, head) online-softmax pass, blocked 8 keys at a time:
    /// 8 vector dot products, one shared running-max rescale, one 8-wide
    /// `exp`, then 8 FMA accumulations — same recurrence as the scalar
    /// kernel, still O(1) state (an 8-score register block, no per-query
    /// buffer). Key rows are addressed through `idx` (identity for
    /// contiguous caches, page-table translation for paged ones); each of
    /// the 8 dots addresses its own row, so non-contiguous placement
    /// changes nothing but the load addresses. Requires `d % 8 == 0`.
    ///
    /// # Safety
    /// Requires AVX2+FMA; `idx.row(j) * h + lo + d <= kv.len` for every
    /// `j < visible` (each key lies inside both arenas), and
    /// `d == qi.len() == acc.len()`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn head_attention<I: RowIndex>(
        qi: &[f32],
        kv: KvArenas<'_>,
        h: usize,
        lo: usize,
        visible: usize,
        scale: f32,
        idx: I,
        acc: &mut [f32],
    ) {
        let d = qi.len();
        // Contract checks: every SAFETY argument below reduces to these.
        debug_assert!(d.is_multiple_of(8), "head_dim must be a multiple of 8");
        debug_assert_eq!(acc.len(), d);
        debug_assert!(
            (0..visible).all(|j| idx.row(j) * h + lo + d <= kv.len),
            "indexed keys exceed K/V data"
        );
        acc.fill(0.0);
        let mut m_run = f32::NEG_INFINITY;
        let mut sum = 0.0f32;
        let mut sbuf = [0.0f32; 8];
        let mut wbuf = [0.0f32; 8];
        let mut j = 0;
        while j + 8 <= visible {
            for (jr, sb) in sbuf.iter_mut().enumerate() {
                // SAFETY: `j + jr < visible` and the key bound
                // `idx.row(j) * h + lo + d <= kv.len` keep `kj.add(t)` (t <
                // d, 8-aligned) inside the K arena, in this head's key;
                // `t + 8 <= d == qi.len()` bounds the q loads; AVX2+FMA.
                unsafe {
                    let kj = kv.k.add(idx.row(j + jr) * h + lo);
                    let mut dv = _mm256_setzero_ps();
                    let mut t = 0;
                    while t < d {
                        dv = _mm256_fmadd_ps(
                            _mm256_loadu_ps(qi.as_ptr().add(t)),
                            _mm256_loadu_ps(kj.add(t)),
                            dv,
                        );
                        t += 8;
                    }
                    *sb = hsum(dv) * scale;
                }
            }
            // Block max via `>` so a NaN score leaves `m_run` alone and
            // poisons the weights (and thus `sum`) instead — identical to
            // the scalar kernel's NaN behavior.
            let mut bm = m_run;
            for &sc in &sbuf {
                if sc > bm {
                    bm = sc;
                }
            }
            if bm > m_run {
                let corr = (m_run - bm).exp();
                sum *= corr;
                let cv = _mm256_set1_ps(corr);
                let mut t = 0;
                while t < d {
                    // SAFETY: `t + 8 <= d == acc.len()` bounds the
                    // read-modify-write of `acc[t..t + 8]`.
                    unsafe {
                        let p = acc.as_mut_ptr().add(t);
                        _mm256_storeu_ps(p, _mm256_mul_ps(cv, _mm256_loadu_ps(p)));
                    }
                    t += 8;
                }
                m_run = bm;
            }
            // SAFETY: `sbuf`/`wbuf` are exactly 8 floats; `exp_ps` and
            // `hsum` require AVX2+FMA, guaranteed by this fn's contract.
            let w_sum = unsafe {
                let w = exp_ps(_mm256_sub_ps(
                    _mm256_loadu_ps(sbuf.as_ptr()),
                    _mm256_set1_ps(m_run),
                ));
                _mm256_storeu_ps(wbuf.as_mut_ptr(), w);
                hsum(w)
            };
            sum += w_sum;
            for (jr, &wv) in wbuf.iter().enumerate() {
                let wv = _mm256_set1_ps(wv);
                // SAFETY: same bounds as the K pass — `j + jr < visible`
                // and the caller's key bound keep the V loads in the V
                // arena; `t + 8 <= d == acc.len()` bounds the accumulator
                // update.
                unsafe {
                    let vj = kv.v.add(idx.row(j + jr) * h + lo);
                    let mut t = 0;
                    while t < d {
                        let p = acc.as_mut_ptr().add(t);
                        _mm256_storeu_ps(
                            p,
                            _mm256_fmadd_ps(wv, _mm256_loadu_ps(vj.add(t)), _mm256_loadu_ps(p)),
                        );
                        t += 8;
                    }
                }
            }
            j += 8;
        }
        // Scalar tail: fewer than 8 keys left.
        for jj in j..visible {
            let r = idx.row(jj);
            let kj = kv.key(r * h + lo, d);
            let s = crate::blocked::dot(qi, kj) * scale;
            if s > m_run {
                let corr = (m_run - s).exp();
                sum *= corr;
                for a in acc.iter_mut() {
                    *a *= corr;
                }
                m_run = s;
            }
            let w = (s - m_run).exp();
            sum += w;
            let vj = kv.value(r * h + lo, d);
            for (a, &vv) in acc.iter_mut().zip(vj) {
                *a += w * vv;
            }
        }
        let inv = 1.0 / sum;
        for a in acc.iter_mut() {
            *a *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::PackedB;
    use crate::ops;

    #[test]
    fn ln_gemm_bias_matches_unfused() {
        let (m, h, n) = (3, 16, 24);
        let x = Tensor::randn(&[m, h], 1.0, 1);
        let g = Tensor::randn(&[h], 0.3, 2);
        let b = Tensor::randn(&[h], 0.1, 3);
        let w = Tensor::randn(&[h, n], 0.5, 4);
        let bias = Tensor::randn(&[n], 0.1, 5);
        let mut want = ops::matmul(&ops::layernorm(&x, &g, &b, 1e-5), &w);
        ops::add_bias(&mut want, &bias);
        let pw = PackedB::pack(&w);
        let mut normed = vec![0.0f32; m * h];
        let mut got = Tensor::zeros(&[m, n]);
        ln_matmul_bias_into(
            x.data(), m, g.data(), b.data(), 1e-5, &pw, bias.data(),
            &mut normed, got.data_mut(),
        );
        assert!(got.allclose(&want, 1e-5), "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn ln_gemm_bias_gelu_matches_unfused() {
        let (m, h, n) = (2, 16, 64);
        let x = Tensor::randn(&[m, h], 1.0, 11);
        let g = Tensor::from_vec(&[h], vec![1.0; h]);
        let b = Tensor::zeros(&[h]);
        let w = Tensor::randn(&[h, n], 0.5, 12);
        let bias = Tensor::randn(&[n], 0.1, 13);
        let mut want = ops::matmul(&ops::layernorm(&x, &g, &b, 1e-5), &w);
        ops::add_bias(&mut want, &bias);
        ops::gelu(&mut want);
        let pw = PackedB::pack(&w);
        let mut normed = vec![0.0f32; m * h];
        let mut got = Tensor::zeros(&[m, n]);
        ln_matmul_bias_gelu_into(
            x.data(), m, g.data(), b.data(), 1e-5, &pw, bias.data(),
            &mut normed, got.data_mut(),
        );
        assert!(got.allclose(&want, 1e-5), "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn bias_residual_pass_matches_unfused() {
        let mut x = Tensor::randn(&[3, 8], 1.0, 31);
        let bias = Tensor::randn(&[8], 0.5, 32);
        let res = Tensor::randn(&[3, 8], 1.0, 33);
        let mut want = x.clone();
        ops::add_bias(&mut want, &bias);
        ops::add_inplace(&mut want, &res);
        bias_residual_inplace(x.data_mut(), bias.data(), res.data());
        assert!(x.allclose(&want, 1e-6));
    }

    #[test]
    fn streaming_attention_matches_reference() {
        for (t_new, t_ctx, heads, off) in [(1, 1, 1, 0), (1, 9, 2, 8), (4, 4, 4, 0), (3, 7, 2, 4)] {
            let h = 8 * heads;
            let q = Tensor::randn(&[t_new, h], 1.0, 41);
            let k = Tensor::randn(&[t_ctx, h], 1.0, 42);
            let v = Tensor::randn(&[t_ctx, h], 1.0, 43);
            let want = ops::attention(&q, &k, &v, heads, off);
            let mut got = Tensor::zeros(&[t_new, h]);
            for i in 0..t_new {
                attention_row_into(q.row(i), &k, &v, heads, off + i, got.row_mut(i));
            }
            assert!(
                got.allclose(&want, 1e-5),
                "({t_new},{t_ctx},{heads},{off}) diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn ragged_attention_matches_reference_per_row() {
        // Each row has its own KV length/offset (the batched-decode shape
        // `fast::step` runs row by row); every row must equal an independent
        // single-query reference attention over its own cache.
        let heads = 2;
        let h = 8 * heads;
        for (i, len) in [1usize, 5, 3, 9].into_iter().enumerate() {
            let seed = 71 + 3 * i as u64;
            let q = Tensor::randn(&[1, h], 1.0, seed);
            let k = Tensor::randn(&[len, h], 1.0, seed + 1);
            let v = Tensor::randn(&[len, h], 1.0, seed + 2);
            let mut got = Tensor::zeros(&[1, h]);
            attention_row_into(q.data(), &k, &v, heads, len - 1, got.data_mut());
            let want = ops::attention(&q, &k, &v, heads, len - 1);
            assert!(got.allclose(&want, 1e-5), "row {i} diff {}", got.max_abs_diff(&want));
        }
    }

    /// Scatter the rows of a contiguous `[t, h]` K (or V) into a paged
    /// arena through an arbitrary page table.
    fn scatter_paged(src: &Tensor, pages: &[u32], pt: usize, arena_pages: usize) -> Vec<f32> {
        let h = src.cols();
        let mut arena = vec![f32::NAN; arena_pages * pt * h]; // poison unused slots
        for j in 0..src.rows() {
            let r = pages[j / pt] as usize * pt + j % pt;
            arena[r * h..(r + 1) * h].copy_from_slice(src.row(j));
        }
        arena
    }

    #[test]
    fn paged_attention_bit_identical_to_contiguous() {
        // Shuffled, non-adjacent page tables; lengths that land mid-page, on
        // page edges, and inside the first page; head dims hitting both the
        // AVX (d % 8 == 0) and scalar paths.
        let cases = [
            (1usize, 4usize, 1usize, 8usize), // single token, AVX head
            (7, 4, 2, 8),                     // mid-page, 2 heads
            (8, 4, 1, 8),                     // exact page boundary
            (13, 4, 2, 8),                    // crosses 3 pages
            (16, 8, 2, 8),                    // two full pages
            (9, 3, 1, 4),                     // pt % 8 != 0, scalar head (d=4)
            (21, 5, 3, 8),                    // ragged everything
        ];
        for (ci, &(len, pt, heads, d)) in cases.iter().enumerate() {
            let h = heads * d;
            let seed = 100 + ci as u64;
            let q = Tensor::randn(&[1, h], 1.0, seed);
            let k = Tensor::randn(&[len, h], 1.0, seed + 1);
            let v = Tensor::randn(&[len, h], 1.0, seed + 2);
            let n_pages = len.div_ceil(pt);
            // Reverse page order + a gap: pages are deliberately scattered.
            let arena_pages = n_pages + 2;
            let pages: Vec<u32> = (0..n_pages).map(|p| (arena_pages - 1 - p) as u32).collect();
            let ka = scatter_paged(&k, &pages, pt, arena_pages);
            let va = scatter_paged(&v, &pages, pt, arena_pages);
            for offset in [0, len / 2, len - 1] {
                let mut want = vec![0.0f32; h];
                attention_row_into(q.row(0), &k, &v, heads, offset, &mut want);
                let mut got = vec![0.0f32; h];
                attention_row_paged_into(
                    q.row(0),
                    &PagedKvView {
                        k: &ka,
                        v: &va,
                        pages: &pages,
                        page_tokens: pt,
                        len,
                        offset,
                    },
                    heads,
                    &mut got,
                );
                assert_eq!(
                    got.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    "case {ci} (len {len}, pt {pt}, offset {offset}) not bit-identical"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "page table too short")]
    fn paged_attention_rejects_short_table() {
        let h = 8;
        let arena = vec![0.0f32; 4 * h];
        let q = vec![0.0f32; h];
        let mut out = vec![0.0f32; h];
        attention_row_paged_into(
            &q,
            &PagedKvView { k: &arena, v: &arena, pages: &[0], page_tokens: 4, len: 6, offset: 5 },
            1,
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "out of arena bounds")]
    fn paged_attention_rejects_out_of_range_page() {
        let h = 8;
        let arena = vec![0.0f32; 4 * h]; // one 4-token page worth of rows
        let q = vec![0.0f32; h];
        let mut out = vec![0.0f32; h];
        attention_row_paged_into(
            &q,
            &PagedKvView { k: &arena, v: &arena, pages: &[3], page_tokens: 4, len: 2, offset: 1 },
            1,
            &mut out,
        );
    }

    #[test]
    fn streaming_attention_propagates_nan() {
        // A NaN key must poison the affected query's output — the seed's
        // `w == 0.0` skip could silently drop it.
        let q = Tensor::randn(&[1, 8], 1.0, 51);
        let mut k = Tensor::randn(&[3, 8], 1.0, 52);
        k.data_mut()[0] = f32::NAN;
        let v = Tensor::randn(&[3, 8], 1.0, 53);
        let mut got = Tensor::zeros(&[1, 8]);
        attention_row_into(q.data(), &k, &v, 1, 2, got.data_mut());
        assert!(got.data().iter().all(|x| x.is_nan()));
    }
}
