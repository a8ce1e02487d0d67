//! Cache-blocked GEMM over panel-packed weights — the "executed" half of
//! Deep-Fusion's GEMM scheduling (Sec. III-B/III-C).
//!
//! Inference reuses the same weight matrix for every generated token, so the
//! layout work that makes a GEMM fast should be paid **once per model, not
//! once per call** (the same observation that motivates the paper's SBI-GeMM
//! weight-layout transform). [`PackedB`] stores a `[k, n]` weight repacked
//! into panels of [`PANEL`] output columns: panel `jp` holds rows
//! `0..k`, each row contributing `PANEL` consecutive weights, so the decode
//! GEMV streams the panel exactly once with unit stride. Output columns past
//! `n` are zero-padded inside the last panel and never stored.
//!
//! Against that layout the row kernel keeps one accumulator register lane
//! per output column for the whole `k` loop: each step broadcasts one
//! element of `a` and fuses it into four 8-wide accumulators (AVX2+FMA when
//! the CPU has it — detected once at runtime, `std::arch` only, no
//! dependencies — otherwise a portable 32-lane scalar loop the
//! auto-vectorizer handles). Four independent chains break the FMA latency
//! serialization a single running sum would pay, and the output row is
//! touched exactly once — no read-modify-write traffic like the naive
//! saxpy form in [`crate::ops::matmul`].
//!
//! Every kernel writes into a caller-provided output slice, so steady-state
//! decode can run entirely out of preallocated scratch (see
//! `dsi-model::fast`). The `matmul_*_into` variants fuse the common
//! epilogues (bias, bias+GeLU, bias+residual) into the same output pass —
//! the interior tensor of each Fig. 1(c) region never touches memory twice.

use crate::tensor::Tensor;

/// Output columns per packed panel: four 8-float SIMD registers.
pub const PANEL: usize = 32;

/// Unit-stride dot product with 4 independent accumulators.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}


#[cfg(target_arch = "x86_64")]
mod avx {
    use super::PANEL;
    use std::arch::x86_64::*;

    /// One GEMV row over panel-packed weights: `out[0..n] = a[0..k] · B`.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support, and `panels` must hold
    /// `n.div_ceil(PANEL)` panels of `k * PANEL` floats ([`super::PackedB`]
    /// layout).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemv(a: &[f32], k: usize, panels: &[f32], out: &mut [f32]) {
        let n = out.len();
        let n_panels = n.div_ceil(PANEL);
        // Contract checks: the SAFETY arguments below all reduce to these
        // two equalities (the `PackedB` layout invariant).
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(panels.len(), n_panels * k * PANEL);
        for jp in 0..n_panels {
            // SAFETY: `jp < n_panels` and `panels.len() == n_panels * k *
            // PANEL`, so the panel base stays in bounds (`add` lands at most
            // one-past-the-end when `k == 0`).
            let p = unsafe { panels.as_ptr().add(jp * k * PANEL) };
            // Four independent FMA chains: one register per 8 output
            // columns, alive across the whole k loop.
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            for i in 0..k {
                // SAFETY: `i < k == a.len()` bounds the `get_unchecked`;
                // `i * PANEL + 24 + 8 <= k * PANEL` keeps all four 8-wide
                // loads inside panel `jp` of `panels`.
                unsafe {
                    let av = _mm256_set1_ps(*a.get_unchecked(i));
                    let row = p.add(i * PANEL);
                    acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row), acc0);
                    acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(8)), acc1);
                    acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(16)), acc2);
                    acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(24)), acc3);
                }
            }
            let j0 = jp * PANEL;
            if j0 + PANEL <= n {
                // SAFETY: `j0 + PANEL <= n == out.len()`, so the four
                // stores cover exactly `out[j0..j0 + 32]`.
                unsafe {
                    let o = out.as_mut_ptr().add(j0);
                    _mm256_storeu_ps(o, acc0);
                    _mm256_storeu_ps(o.add(8), acc1);
                    _mm256_storeu_ps(o.add(16), acc2);
                    _mm256_storeu_ps(o.add(24), acc3);
                }
            } else {
                // Tail panel: spill the padded lanes, store only the real
                // columns.
                let mut tmp = [0.0f32; PANEL];
                // SAFETY: `tmp` is exactly `PANEL == 32` floats, matching
                // the four 8-wide stores at offsets 0/8/16/24.
                unsafe {
                    _mm256_storeu_ps(tmp.as_mut_ptr(), acc0);
                    _mm256_storeu_ps(tmp.as_mut_ptr().add(8), acc1);
                    _mm256_storeu_ps(tmp.as_mut_ptr().add(16), acc2);
                    _mm256_storeu_ps(tmp.as_mut_ptr().add(24), acc3);
                }
                out[j0..n].copy_from_slice(&tmp[..n - j0]);
            }
        }
    }

    /// `MR`-row register-blocked GEMM over one panel-packed operand:
    /// `out[0..MR, 0..n] = a[0..MR, 0..k] · B`, with `a` and `out` row-major
    /// and densely packed (`lda == k`, `ldc == n`).
    ///
    /// Each weight panel is streamed from memory **once per column group**
    /// and broadcast across all `MR` activation rows — the CPU execution of
    /// the paper's Sec. III-C3 M-row interleaving: for skinny decode GEMMs
    /// the weight stream dominates, so amortizing it across M rows multiplies
    /// arithmetic per byte by M. `NR` is the number of 8-wide column
    /// registers per pass; `MR * NR` accumulators plus `NR` weight registers
    /// plus one broadcast must fit the 16 YMM registers (MR=16 deliberately
    /// spills — the dispatcher measures whether that ever wins rather than
    /// assuming).
    ///
    /// Numerics: each output element accumulates over `k` sequentially in a
    /// single register lane, exactly like [`gemv`] — every `(MR, NR)`
    /// instantiation is bit-identical to the M=1 kernel, so microkernel
    /// choice is purely a performance decision.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support; `panels` must be in
    /// [`super::PackedB`] layout for `k` rows and `n.div_ceil(PANEL)` panels;
    /// `a.len() == MR * k`; `out.len() == MR * n`; `PANEL % (8 * NR) == 0`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_block<const MR: usize, const NR: usize>(
        a: &[f32],
        k: usize,
        panels: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let n_panels = n.div_ceil(PANEL);
        debug_assert_eq!(a.len(), MR * k);
        debug_assert_eq!(out.len(), MR * n);
        debug_assert_eq!(panels.len(), n_panels * k * PANEL);
        debug_assert_eq!(PANEL % (8 * NR), 0);
        for jp in 0..n_panels {
            // SAFETY: `jp < n_panels` and `panels.len() == n_panels * k *
            // PANEL` keep the panel base in bounds (one-past-the-end only
            // when `k == 0`).
            let p = unsafe { panels.as_ptr().add(jp * k * PANEL) };
            // Column-group passes: the panel is re-read once per group, but
            // it stays L1/L2-resident between passes, so DRAM still streams
            // it once per block of MR rows.
            for cg in 0..PANEL / (8 * NR) {
                let base = cg * 8 * NR;
                let mut acc = [[_mm256_setzero_ps(); NR]; MR];
                for i in 0..k {
                    // SAFETY: `i < k` and `base + 8 * (NR - 1) + 8 <= PANEL`
                    // keep every 8-wide load inside panel `jp`; `r * k + i <
                    // MR * k == a.len()` bounds the broadcasts.
                    unsafe {
                        let row = p.add(i * PANEL + base);
                        let mut w = [_mm256_setzero_ps(); NR];
                        for (t, wt) in w.iter_mut().enumerate() {
                            *wt = _mm256_loadu_ps(row.add(8 * t));
                        }
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let av = _mm256_set1_ps(*a.get_unchecked(r * k + i));
                            for (wt, at) in w.iter().zip(accr.iter_mut()) {
                                *at = _mm256_fmadd_ps(av, *wt, *at);
                            }
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    for (t, at) in accr.iter().enumerate() {
                        let j0 = jp * PANEL + base + 8 * t;
                        if j0 + 8 <= n {
                            // SAFETY: `r < MR` and `j0 + 8 <= n` keep the
                            // store inside row `r` of `out` (`MR * n` floats).
                            unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(r * n + j0), *at) };
                        } else if j0 < n {
                            // Tail columns: spill the padded lanes, copy only
                            // the real ones.
                            let mut tmp = [0.0f32; 8];
                            // SAFETY: `tmp` is exactly 8 floats.
                            unsafe { _mm256_storeu_ps(tmp.as_mut_ptr(), *at) };
                            out[r * n + j0..r * n + n].copy_from_slice(&tmp[..n - j0]);
                        }
                    }
                }
            }
        }
    }

    /// Runtime-`mr` front end over the const-generic block kernels. `mr`
    /// must be one of the dispatch candidates (1, 2, 4, 8, 16).
    ///
    /// # Safety
    /// Same contract as [`gemm_block`] with `MR == mr`.
    pub unsafe fn gemm_rows(a: &[f32], mr: usize, k: usize, panels: &[f32], n: usize, out: &mut [f32]) {
        // SAFETY: forwarded caller contract; each arm fixes MR == mr and an
        // NR that divides PANEL/8, with MR*NR + NR + 1 <= 16 registers
        // (except the deliberately-spilling MR=16 candidate).
        unsafe {
            match mr {
                1 => gemv(a, k, panels, out),
                2 => gemm_block::<2, 4>(a, k, panels, n, out),
                4 => gemm_block::<4, 2>(a, k, panels, n, out),
                8 => gemm_block::<8, 1>(a, k, panels, n, out),
                16 => gemm_block::<16, 1>(a, k, panels, n, out),
                _ => unreachable!("unsupported microkernel row count {mr}"),
            }
        }
    }
}

/// Portable fallback row kernel over the same panel layout. The fixed-width
/// 32-lane accumulator loop is what the auto-vectorizer wants to see.
fn gemv_scalar(a: &[f32], k: usize, panels: &[f32], out: &mut [f32]) {
    let n = out.len();
    let n_panels = n.div_ceil(PANEL);
    debug_assert_eq!(a.len(), k);
    debug_assert_eq!(panels.len(), n_panels * k * PANEL);
    for jp in 0..n_panels {
        let panel = &panels[jp * k * PANEL..(jp + 1) * k * PANEL];
        let mut acc = [0.0f32; PANEL];
        for (i, rows) in panel.chunks_exact(PANEL).enumerate() {
            let av = a[i];
            for (lane, &w) in acc.iter_mut().zip(rows) {
                *lane += av * w;
            }
        }
        let j0 = jp * PANEL;
        let je = (j0 + PANEL).min(n);
        out[j0..je].copy_from_slice(&acc[..je - j0]);
    }
}

#[inline]
fn gemv(a: &[f32], k: usize, panels: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_fma() {
        // SAFETY: feature support verified by `avx2_fma`; the slice layout
        // contract is upheld by `PackedB` (the only producer of `panels`).
        unsafe { avx::gemv(a, k, panels, out) };
        return;
    }
    gemv_scalar(a, k, panels, out);
}

/// A weight matrix packed for repeated right-multiplication: logically
/// `[k, n]`, stored as `n.div_ceil(PANEL)` panels of `PANEL` consecutive
/// output columns (`data[jp * k * PANEL + i * PANEL + jr] == B[i, jp*PANEL +
/// jr]`, zero past column `n`). `Default` is the empty `[0, 0]` operand.
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

impl PackedB {
    fn with_writer(k: usize, n: usize, fill: impl Fn(usize, usize) -> f32) -> Self {
        let n_panels = n.div_ceil(PANEL);
        let mut data = vec![0.0f32; n_panels * k * PANEL];
        for jp in 0..n_panels {
            let panel = &mut data[jp * k * PANEL..(jp + 1) * k * PANEL];
            let width = (n - jp * PANEL).min(PANEL);
            for i in 0..k {
                for jr in 0..width {
                    panel[i * PANEL + jr] = fill(i, jp * PANEL + jr);
                }
            }
        }
        PackedB { k, n, data }
    }

    /// Pack a `[k, n]` matrix (one-time layout transform; amortized over
    /// every subsequent token).
    pub fn pack(b: &Tensor) -> Self {
        let (k, n) = (b.rows(), b.cols());
        let bd = b.data();
        Self::with_writer(k, n, |i, j| bd[i * n + j])
    }

    /// Pack a matrix already stored transposed (`[n, k]` row-major), e.g.
    /// the tied embedding used for the logits projection `x · wteᵀ`.
    pub fn from_pre_transposed(bt: &Tensor) -> Self {
        let (n, k) = (bt.rows(), bt.cols());
        let bd = bt.data();
        Self::with_writer(k, n, |i, j| bd[j * k + i])
    }

    /// Floats a `[k, n]` operand occupies in panel layout (`None` when the
    /// product overflows — `k` and `n` may come from a file header).
    pub fn packed_len(k: usize, n: usize) -> Option<usize> {
        n.div_ceil(PANEL).checked_mul(PANEL)?.checked_mul(k)
    }

    /// Adopt floats that are already in panel layout (the array
    /// [`PackedB::as_packed`] exposes, e.g. read back from a weight file):
    /// no transform, only the length check every kernel's bounds argument
    /// rests on. `None` if `data` is not exactly `packed_len(k, n)` floats.
    pub fn from_packed(k: usize, n: usize, data: Vec<f32>) -> Option<Self> {
        (Self::packed_len(k, n) == Some(data.len())).then_some(PackedB { k, n, data })
    }

    /// The packed float array, exactly as the kernels stream it.
    pub fn as_packed(&self) -> &[f32] {
        &self.data
    }

    /// Give the packed float array back, e.g. so a retired operand's buffer
    /// can be refilled and re-adopted instead of reallocated.
    pub fn into_packed(self) -> Vec<f32> {
        self.data
    }

    /// Rebuild the row-major `[k, n]` matrix — the inverse permutation of
    /// [`PackedB::pack`], bit for bit (the zero padding is dropped).
    pub fn unpack(&self) -> Tensor {
        let (k, n) = (self.k, self.n);
        let mut out = vec![0.0f32; k * n];
        for (jp, panel) in self.data.chunks_exact((k * PANEL).max(1)).enumerate() {
            let j0 = jp * PANEL;
            let width = (n - j0).min(PANEL);
            for (i, row) in panel.chunks_exact(PANEL).enumerate() {
                out[i * n + j0..i * n + j0 + width].copy_from_slice(&row[..width]);
            }
        }
        Tensor::from_vec(&[k, n], out)
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn n(&self) -> usize {
        self.n
    }
}

/// How the GEMM finishes each output element (fused epilogue).
#[derive(Clone, Copy)]
pub enum Epilogue<'a> {
    /// `out = a·B`
    None,
    /// `out = a·B + bias`
    Bias(&'a [f32]),
    /// `out = gelu(a·B + bias)`
    BiasGelu(&'a [f32]),
    /// `out = a·B + bias + residual` (residual is `[m, n]` like `out`)
    BiasAdd(&'a [f32], &'a [f32]),
}

/// Weight storage a fused region kernel can right-multiply by: panel-packed
/// FP32 ([`PackedB`]) or group-quantized INT8
/// ([`crate::quant::QuantizedPackedB`]).
///
/// `gemm` computes `out[m, n] = a[m, k] · B` with the epilogue fused into
/// the output pass; implementations walk the rows in microkernel blocks
/// chosen per `(remaining rows, dtype)` by [`crate::dispatch`]. Every
/// microkernel accumulates each output element in the same order, so the
/// block decomposition never changes results — batched decode stays
/// bit-identical to one-row-at-a-time decode.
pub trait PanelWeights {
    /// Input (reduction) dimension.
    fn k(&self) -> usize;
    /// Output dimension.
    fn n(&self) -> usize;
    /// Bytes streamed per full traversal of the packed operand (including
    /// scale metadata for quantized forms) — roofline accounting for the
    /// decode bench.
    fn storage_bytes(&self) -> usize;
    /// `out[m, n] = a[m, k] · B`, epilogue fused into the output pass.
    fn gemm(&self, a: &[f32], m: usize, out: &mut [f32], ep: Epilogue<'_>);
}

/// GeLU (tanh approximation), matching [`crate::ops::gelu`].
#[inline]
pub fn gelu_scalar(u: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * u * (1.0 + (C * (u + 0.044715 * u * u * u)).tanh())
}

/// Apply the fused epilogue to rows `r0..r0 + mr` of `out` while they are
/// still hot in L1 — one extra register pass, no second GEMM-sized
/// traversal.
#[inline]
pub(crate) fn apply_epilogue_rows(
    out: &mut [f32],
    n: usize,
    r0: usize,
    mr: usize,
    ep: Epilogue<'_>,
) {
    for i in r0..r0 + mr {
        let orow = &mut out[i * n..(i + 1) * n];
        match ep {
            Epilogue::None => {}
            Epilogue::Bias(bias) => {
                for (o, &bv) in orow.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
            Epilogue::BiasGelu(bias) => crate::simd::bias_gelu_row(orow, bias),
            Epilogue::BiasAdd(bias, res) => {
                let rrow = &res[i * n..(i + 1) * n];
                for ((o, &bv), &rv) in orow.iter_mut().zip(bias).zip(rrow) {
                    *o += bv + rv;
                }
            }
        }
    }
}

/// Dispatch-driven row-blocked GEMM over FP32 panels. `force_mr` pins the
/// microkernel row count (used by [`crate::dispatch`] calibration, which
/// must not consult the table it is building); `None` consults the measured
/// table per remaining-row count.
pub(crate) fn gemm_f32_with(
    a: &[f32],
    m: usize,
    b: &PackedB,
    out: &mut [f32],
    ep: Epilogue<'_>,
    force_mr: Option<usize>,
) {
    let (k, n) = (b.k, b.n);
    assert_eq!(a.len(), m * k, "gemm: lhs size mismatch");
    assert_eq!(out.len(), m * n, "gemm: out size mismatch");
    #[cfg(target_arch = "x86_64")]
    let use_avx = crate::simd::avx2_fma();
    #[cfg(not(target_arch = "x86_64"))]
    let use_avx = false;
    let mut r = 0;
    while r < m {
        let rem = m - r;
        let mr = if use_avx {
            match force_mr {
                Some(c) => crate::dispatch::largest_candidate_le(c.min(rem)),
                None => crate::dispatch::mr_for(rem, crate::dispatch::GemmDtype::F32),
            }
        } else {
            1
        };
        let ablk = &a[r * k..(r + mr) * k];
        let oblk = &mut out[r * n..(r + mr) * n];
        if mr == 1 {
            gemv(ablk, k, &b.data, oblk);
        } else {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `use_avx` verified AVX2+FMA; slice layout upheld by
            // `PackedB` (the only producer of `b.data`), block sizes by the
            // asserts above.
            unsafe {
                avx::gemm_rows(ablk, mr, k, &b.data, n, oblk)
            };
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("mr > 1 requires AVX2");
        }
        apply_epilogue_rows(out, n, r, mr, ep);
        r += mr;
    }
}

impl PanelWeights for PackedB {
    fn k(&self) -> usize {
        self.k
    }
    fn n(&self) -> usize {
        self.n
    }
    fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
    fn gemm(&self, a: &[f32], m: usize, out: &mut [f32], ep: Epilogue<'_>) {
        gemm_f32_with(a, m, self, out, ep, None);
    }
}

/// `out[m,n] = a[m,k] · B`, into caller storage.
pub fn matmul_into<B: PanelWeights + ?Sized>(a: &[f32], m: usize, b: &B, out: &mut [f32]) {
    b.gemm(a, m, out, Epilogue::None);
}

/// `out = a·B + bias` in one output pass.
pub fn matmul_bias_into<B: PanelWeights + ?Sized>(
    a: &[f32],
    m: usize,
    b: &B,
    bias: &[f32],
    out: &mut [f32],
) {
    assert_eq!(bias.len(), b.n(), "bias length mismatch");
    b.gemm(a, m, out, Epilogue::Bias(bias));
}

/// `out = gelu(a·B + bias)` in one output pass (Fig. 1(c) region 4 tail).
pub fn matmul_bias_gelu_into<B: PanelWeights + ?Sized>(
    a: &[f32],
    m: usize,
    b: &B,
    bias: &[f32],
    out: &mut [f32],
) {
    assert_eq!(bias.len(), b.n(), "bias length mismatch");
    b.gemm(a, m, out, Epilogue::BiasGelu(bias));
}

/// `out = a·B + bias + residual` in one output pass (Fig. 1(c) regions 3
/// and 5 tails: projection GEMM, bias add, and residual connection fused).
pub fn matmul_bias_add_into<B: PanelWeights + ?Sized>(
    a: &[f32],
    m: usize,
    b: &B,
    bias: &[f32],
    residual: &[f32],
    out: &mut [f32],
) {
    assert_eq!(bias.len(), b.n(), "bias length mismatch");
    assert_eq!(residual.len(), m * b.n(), "residual size mismatch");
    b.gemm(a, m, out, Epilogue::BiasAdd(bias, residual));
}

/// Allocating convenience wrapper: `a [m,k] · B -> [m,n]`.
pub fn matmul_packed<B: PanelWeights + ?Sized>(a: &Tensor, b: &B) -> Tensor {
    let m = a.rows();
    let mut out = Tensor::zeros(&[m, b.n()]);
    matmul_into(a.data(), m, b, out.data_mut());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn packed_matmul_matches_naive() {
        // Shapes straddle panel boundaries: n < PANEL, n == PANEL, ragged
        // tails, and the real layer shapes.
        for (m, k, n) in [
            (1, 7, 5),
            (3, 16, 9),
            (4, 33, 12),
            (1, 16, 32),
            (2, 10, 37),
            (1, 64, 101),
            (2, 64, 192),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, 11);
            let b = Tensor::randn(&[k, n], 1.0, 12);
            let want = ops::matmul(&a, &b);
            let got = matmul_packed(&a, &PackedB::pack(&b));
            assert!(
                got.allclose(&want, 1e-4),
                "({m},{k},{n}) diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn scalar_fallback_matches_dispatch() {
        // Whatever the runtime dispatch picks must agree with the portable
        // kernel on identical inputs.
        let a = Tensor::randn(&[2, 48], 1.0, 15);
        let b = Tensor::randn(&[48, 77], 1.0, 16);
        let pb = PackedB::pack(&b);
        let mut got = vec![0.0f32; 2 * 77];
        matmul_into(a.data(), 2, &pb, &mut got);
        let mut want = vec![0.0f32; 2 * 77];
        for i in 0..2 {
            gemv_scalar(&a.data()[i * 48..(i + 1) * 48], 48, &pb.data, &mut want[i * 77..(i + 1) * 77]);
        }
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn pre_transposed_matches_matmul_transb() {
        let a = Tensor::randn(&[3, 16], 1.0, 21);
        let bt = Tensor::randn(&[9, 16], 1.0, 22); // stored [n, k]
        let want = ops::matmul_transb(&a, &bt);
        let mut got = Tensor::zeros(&[3, 9]);
        matmul_into(a.data(), 3, &PackedB::from_pre_transposed(&bt), got.data_mut());
        assert!(got.allclose(&want, 1e-4), "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn pre_transposed_pack_matches_pack() {
        let b = Tensor::randn(&[10, 6], 1.0, 31);
        let mut bt = Tensor::zeros(&[6, 10]);
        for i in 0..10 {
            for j in 0..6 {
                bt.row_mut(j)[i] = b.row(i)[j];
            }
        }
        let a = Tensor::randn(&[2, 10], 1.0, 32);
        let c1 = matmul_packed(&a, &PackedB::pack(&b));
        let c2 = matmul_packed(&a, &PackedB::from_pre_transposed(&bt));
        assert!(c1.allclose(&c2, 0.0));
    }

    #[test]
    fn unpack_and_adopt_invert_pack_bitwise() {
        // Full panels, a ragged tail, n < PANEL, and a single row.
        for (k, n) in [(16, 64), (48, 144), (7, 5), (1, 33), (64, 101)] {
            let b = Tensor::randn(&[k, n], 1.0, 91);
            let pb = PackedB::pack(&b);
            assert_eq!(PackedB::packed_len(k, n), Some(pb.as_packed().len()));
            let back = pb.unpack();
            assert_eq!(back.shape(), b.shape());
            assert_eq!(back.data(), b.data(), "({k},{n}) unpack");
            let adopted = PackedB::from_packed(k, n, pb.as_packed().to_vec()).expect("exact length");
            assert_eq!(adopted.as_packed(), pb.as_packed());
            assert_eq!((adopted.k(), adopted.n()), (k, n));
        }
    }

    #[test]
    fn adopt_rejects_a_length_the_kernels_would_overrun() {
        let pb = PackedB::pack(&Tensor::randn(&[8, 40], 1.0, 92));
        let mut short = pb.as_packed().to_vec();
        short.pop();
        assert!(PackedB::from_packed(8, 40, short).is_none());
        // The same floats claimed for a wider operand: one more panel needed.
        assert!(PackedB::from_packed(8, 65, pb.as_packed().to_vec()).is_none());
        assert!(PackedB::from_packed(usize::MAX, 40, Vec::new()).is_none());
    }

    #[test]
    fn bias_epilogue_matches_unfused() {
        let a = Tensor::randn(&[3, 20], 1.0, 41);
        let b = Tensor::randn(&[20, 11], 1.0, 42);
        let bias = Tensor::randn(&[11], 1.0, 43);
        let mut want = ops::matmul(&a, &b);
        ops::add_bias(&mut want, &bias);
        let mut got = Tensor::zeros(&[3, 11]);
        matmul_bias_into(a.data(), 3, &PackedB::pack(&b), bias.data(), got.data_mut());
        assert!(got.allclose(&want, 1e-4));
    }

    #[test]
    fn bias_gelu_epilogue_matches_unfused() {
        let a = Tensor::randn(&[2, 12], 1.0, 51);
        let b = Tensor::randn(&[12, 8], 1.0, 52);
        let bias = Tensor::randn(&[8], 1.0, 53);
        let mut want = ops::matmul(&a, &b);
        ops::add_bias(&mut want, &bias);
        ops::gelu(&mut want);
        let mut got = Tensor::zeros(&[2, 8]);
        matmul_bias_gelu_into(a.data(), 2, &PackedB::pack(&b), bias.data(), got.data_mut());
        assert!(got.allclose(&want, 1e-5));
    }

    #[test]
    fn bias_add_epilogue_matches_unfused() {
        let a = Tensor::randn(&[2, 12], 1.0, 61);
        let b = Tensor::randn(&[12, 12], 1.0, 62);
        let bias = Tensor::randn(&[12], 1.0, 63);
        let res = Tensor::randn(&[2, 12], 1.0, 64);
        let mut want = ops::matmul(&a, &b);
        ops::add_bias(&mut want, &bias);
        ops::add_inplace(&mut want, &res);
        let mut got = Tensor::zeros(&[2, 12]);
        matmul_bias_add_into(
            a.data(),
            2,
            &PackedB::pack(&b),
            bias.data(),
            res.data(),
            got.data_mut(),
        );
        assert!(got.allclose(&want, 1e-4));
    }

    #[test]
    fn mrow_blocks_bit_identical_to_per_row() {
        // Every forced microkernel (and whatever the measured dispatch
        // picks) must produce bit-identical output to the M=1 row kernel:
        // per output element the k-reduction runs sequentially in one lane
        // regardless of the block shape, so dispatch is perf-only.
        for (m, k, n) in [(2, 48, 77), (4, 64, 192), (8, 33, 12), (16, 64, 101), (5, 16, 32), (11, 20, 37)] {
            let a = Tensor::randn(&[m, k], 1.0, 81);
            let b = Tensor::randn(&[k, n], 1.0, 82);
            let pb = PackedB::pack(&b);
            let mut want = vec![0.0f32; m * n];
            for i in 0..m {
                gemv(&a.data()[i * k..(i + 1) * k], k, &pb.data, &mut want[i * n..(i + 1) * n]);
            }
            for force in [1, 2, 4, 8, 16] {
                let mut got = vec![0.0f32; m * n];
                gemm_f32_with(a.data(), m, &pb, &mut got, Epilogue::None, Some(force));
                assert_eq!(got, want, "m={m} k={k} n={n} force={force}");
            }
            let mut got = vec![0.0f32; m * n];
            gemm_f32_with(a.data(), m, &pb, &mut got, Epilogue::None, None);
            assert_eq!(got, want, "m={m} k={k} n={n} dispatch");
        }
    }

    #[test]
    fn nan_propagates_through_packed_gemm() {
        // The packed path must keep IEEE semantics: a NaN anywhere in the
        // reduction poisons every real output column (the zero-padded tail
        // lanes are never stored, so they cannot launder the NaN away).
        let mut a = Tensor::zeros(&[1, 8]);
        a.data_mut()[3] = f32::NAN;
        let b = Tensor::randn(&[8, 4], 1.0, 71);
        let got = matmul_packed(&a, &PackedB::pack(&b));
        assert!(got.data().iter().all(|v| v.is_nan()));
    }
}
