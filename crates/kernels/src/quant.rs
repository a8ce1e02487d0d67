//! INT8 weight quantization (Sec. III-D).
//!
//! The paper's INT8 path quantizes GEMM weights to 8 bits (halving the bytes
//! the memory-bandwidth-bound small-batch GEMMs must read, and unlocking the
//! 2× INT8 tensor-core peak at large batch). We implement symmetric
//! group-wise quantization: each group of `group_size` consecutive weights
//! along the input dimension shares one `f32` scale, chosen so the group's
//! max-abs value maps to 127.
//!
//! Because a group shares its scale, the GEMM factors it out: inside a
//! group it sums `a · q` with one fused multiply-add per weight (`q as f32`
//! is exact), and applies the scale once at the group's end. The scale
//! multiply leaves the per-row loop, and each weight costs one rounding.
//! [`matmul_quantized`] is the portable oracle that fixes this order; every
//! executed path over [`QuantizedPackedB`] is bitwise equal to it.

use crate::blocked::{Epilogue, Geom, OutRows, PanelWeights, Window, PANEL};
use crate::ops;
use crate::simd::Tier;
use crate::tensor::Tensor;

/// An INT8-quantized matrix with group-wise scales.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    /// Original shape `[k, n]`.
    pub shape: [usize; 2],
    /// Quantized values, row-major, same layout as the source.
    pub q: Vec<i8>,
    /// One scale per (row-group, column): `scales[g * n + j]`.
    pub scales: Vec<f32>,
    /// Rows per quantization group.
    pub group_size: usize,
}

impl QuantizedMatrix {
    /// Quantize a `[k, n]` weight matrix with `group_size` rows per group.
    pub fn quantize(w: &Tensor, group_size: usize) -> Self {
        let (k, n) = (w.rows(), w.cols());
        assert!(group_size > 0);
        let n_groups = k.div_ceil(group_size);
        let mut scales = vec![0.0f32; n_groups * n];
        let mut q = vec![0i8; k * n];
        for g in 0..n_groups {
            let lo = g * group_size;
            let hi = (lo + group_size).min(k);
            for j in 0..n {
                let mut maxabs = 0.0f32;
                for r in lo..hi {
                    maxabs = maxabs.max(w.row(r)[j].abs());
                }
                let scale = if maxabs == 0.0 { 1.0 } else { maxabs / 127.0 };
                scales[g * n + j] = scale;
                for r in lo..hi {
                    let v = (w.row(r)[j] / scale).round();
                    q[r * n + j] = v.clamp(-127.0, 127.0) as i8;
                }
            }
        }
        QuantizedMatrix {
            shape: [k, n],
            q,
            scales,
            group_size,
        }
    }

    /// Reconstruct the `f32` matrix.
    pub fn dequantize(&self) -> Tensor {
        let [k, n] = self.shape;
        let mut out = Tensor::zeros(&[k, n]);
        for r in 0..k {
            let g = r / self.group_size;
            let row = out.row_mut(r);
            for (j, o) in row.iter_mut().enumerate() {
                *o = self.q[r * n + j] as f32 * self.scales[g * n + j];
            }
        }
        out
    }

    /// The worst-case absolute reconstruction error of any element: half a
    /// quantization step, i.e. `scale / 2`, per group/column.
    pub fn max_error_bound(&self) -> f32 {
        self.scales.iter().copied().fold(0.0, f32::max) / 2.0 + f32::EPSILON
    }

    /// Bytes of the quantized representation (values + scales); used by the
    /// cost model to credit the 2× weight-read reduction.
    pub fn storage_bytes(&self) -> usize {
        self.q.len() + self.scales.len() * 4
    }
}

/// `x [m,k] × dequant(wq) [k,n]`: the INT8 GEMM of Sec. III-D with the
/// dequantization epilogue fused (we dequantize on the fly rather than
/// materializing the f32 weights).
///
/// This is the **portable oracle** for the AVX2 dequant-in-register kernels
/// in [`QuantizedPackedB`], and it fixes their rounding order. Per output
/// element and per group `g`, a partial sum starts at `+0.0` and takes one
/// fused multiply-add per row, `t = x.mul_add(q as f32, t)`. `q as f32` is
/// exact, so each weight costs one rounding. The group's scale is then
/// applied once, `acc = t.mul_add(scale, acc)`, with groups in order from
/// `acc = +0.0`. The AVX kernels perform the same roundings in the same
/// order, so oracle and kernel are bitwise equal, not approximations
/// (enforced by proptest and the kernel crate's differential harness).
/// Deliberately no `x == 0.0` skip: the kernels don't skip, and signed-zero
/// normalization would otherwise diverge.
pub fn matmul_quantized(x: &Tensor, wq: &QuantizedMatrix) -> Tensor {
    let [k, n] = wq.shape;
    assert_eq!(x.cols(), k, "quantized matmul inner-dim mismatch");
    let m = x.rows();
    let n_groups = k.div_ceil(wq.group_size);
    let mut out = Tensor::zeros(&[m, n]);
    let mut t = vec![0.0f32; n];
    for i in 0..m {
        let xi = x.row(i);
        let orow = out.row_mut(i);
        for g in 0..n_groups {
            let lo = g * wq.group_size;
            let hi = (lo + wq.group_size).min(k);
            t.fill(0.0);
            for (r, &xv) in xi.iter().enumerate().take(hi).skip(lo) {
                let qrow = &wq.q[r * n..(r + 1) * n];
                for (tl, &qv) in t.iter_mut().zip(qrow) {
                    *tl = xv.mul_add(qv as f32, *tl);
                }
            }
            let srow = &wq.scales[g * n..(g + 1) * n];
            for ((o, &tl), &s) in orow.iter_mut().zip(&t).zip(srow) {
                *o = tl.mul_add(s, *o);
            }
        }
    }
    out
}

/// An INT8 weight matrix repacked into [`PANEL`]-column panels for the
/// executed fast path, with the group scales panel-packed alongside
/// (`scales[jp * n_groups * PANEL + g * PANEL + jr]`).
///
/// The GEMM dequantizes **in registers**: 8 INT8 lanes are widened with
/// `_mm256_cvtepi8_epi32` and converted exactly via `_mm256_cvtepi32_ps`,
/// FMA'd into a per-group partial sum, and the group's scale is applied to
/// that sum once — the FP32 weight row never exists in memory, so the
/// decode loop streams ~¼ the weight bytes of the FP32 path (Sec. III-D's
/// bandwidth argument executed on CPU). Padded tail columns store
/// `q == 0`, `scale == 0.0` and are never written back.
#[derive(Debug, Clone)]
pub struct QuantizedPackedB {
    k: usize,
    n: usize,
    group_size: usize,
    n_groups: usize,
    q: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedPackedB {
    /// Repack an already-quantized matrix into panel layout (one-time).
    pub fn from_matrix(wq: &QuantizedMatrix) -> Self {
        let [k, n] = wq.shape;
        let n_groups = k.div_ceil(wq.group_size);
        let n_panels = n.div_ceil(PANEL);
        let mut q = vec![0i8; n_panels * k * PANEL];
        let mut scales = vec![0.0f32; n_panels * n_groups * PANEL];
        for jp in 0..n_panels {
            let width = (n - jp * PANEL).min(PANEL);
            for i in 0..k {
                for jr in 0..width {
                    q[jp * k * PANEL + i * PANEL + jr] = wq.q[i * n + jp * PANEL + jr];
                }
            }
            for g in 0..n_groups {
                for jr in 0..width {
                    scales[jp * n_groups * PANEL + g * PANEL + jr] =
                        wq.scales[g * n + jp * PANEL + jr];
                }
            }
        }
        QuantizedPackedB {
            k,
            n,
            group_size: wq.group_size,
            n_groups,
            q,
            scales,
        }
    }

    /// Quantize a `[k, n]` weight matrix and pack it in one step.
    pub fn quantize_pack(w: &Tensor, group_size: usize) -> Self {
        Self::from_matrix(&QuantizedMatrix::quantize(w, group_size))
    }

    /// Quantize a matrix stored transposed (`[n, k]` row-major, e.g. the
    /// tied embedding used for the logits projection); groups still run
    /// along the input dimension `k`.
    pub fn quantize_pack_pre_transposed(bt: &Tensor, group_size: usize) -> Self {
        let (n, k) = (bt.rows(), bt.cols());
        let btd = bt.data();
        let mut w = Tensor::zeros(&[k, n]);
        for i in 0..k {
            let row = w.row_mut(i);
            for (j, o) in row.iter_mut().enumerate() {
                *o = btd[j * k + i];
            }
        }
        Self::quantize_pack(&w, group_size)
    }

    pub fn group_size(&self) -> usize {
        self.group_size
    }
}

/// Portable fallback row kernel over a window of the packed INT8 layout.
/// Performs the identical rounding sequence as both [`matmul_quantized`]
/// and the AVX kernels: per group, `t = x.mul_add(q as f32, t)` row by row
/// from `+0.0`, then `acc = t.mul_add(scale, acc)`. Like
/// `blocked::gemv_scalar` it pays a libm `fmaf` call per lane on a build
/// without the `fma` target feature (≈ 14× the old mul-then-add loop on
/// x86_64) to stay bitwise equal.
pub(crate) fn gemv_int8_scalar(a: &[f32], b: &QuantizedPackedB, g: Geom, out: &mut OutRows<'_>) {
    let (k, gs) = (b.k, b.group_size);
    let out = out.row(0);
    debug_assert_eq!(a.len(), g.kw());
    let groups = g.r0 / gs..g.r1.div_ceil(gs);
    for jp in g.panels() {
        let qp = &b.q[jp * k * PANEL..(jp + 1) * k * PANEL];
        let sp = &b.scales[jp * b.n_groups * PANEL..(jp + 1) * b.n_groups * PANEL];
        let mut acc = [0.0f32; PANEL];
        for grp in groups.clone() {
            let lo = grp * gs;
            let hi = (lo + gs).min(k);
            let mut t = [0.0f32; PANEL];
            for i in lo..hi {
                let xv = a[i - g.r0];
                let qrow = &qp[i * PANEL..(i + 1) * PANEL];
                for (tl, &qv) in t.iter_mut().zip(qrow) {
                    *tl = xv.mul_add(qv as f32, *tl);
                }
            }
            let srow = &sp[grp * PANEL..(grp + 1) * PANEL];
            for ((lane, &tl), &s) in acc.iter_mut().zip(&t).zip(srow) {
                *lane = tl.mul_add(s, *lane);
            }
        }
        let (lo, hi, at) = g.lanes(jp);
        out[at..at + hi - lo].copy_from_slice(&acc[lo..hi]);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{Geom, OutRows, QuantizedPackedB, PANEL};
    use std::arch::x86_64::*;

    /// `MR`-row GEMM over a window of panel-packed INT8 weights with
    /// dequant in registers. Per group and 8-column lane group, `q` bytes
    /// are widened exactly (`cvtepi8_epi32` → `cvtepi32_ps`) and FMA'd into
    /// a partial sum, `t = a·q + t`; at the group's end the scale is
    /// applied once, `acc = t·scale + acc`. That is one FMA per weight and
    /// row, and no scale multiply inside the row loop. `acc` waits between
    /// groups in a stack buffer (f32 store and reload are exact), so only
    /// the `MR * NR` partial sums need registers across the rows. Every
    /// output lane keeps one fixed order — rows in order within a group,
    /// groups in order — so each `(MR, NR)` instantiation is bitwise equal
    /// to the `MR = 1` kernel and to the scalar oracle, which rounds the
    /// same way. A column group wholly outside the window is skipped.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support; `b` must uphold the
    /// `QuantizedPackedB` layout invariants and `g` be checked against it
    /// (`Geom::new` with its group size); `a.len() == MR * kw`; `out` holds
    /// `MR` rows of at least `nw` floats; `PANEL % (8 * NR) == 0`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_block_int8<const MR: usize, const NR: usize>(
        a: &[f32],
        b: &QuantizedPackedB,
        g: Geom,
        out: &mut OutRows<'_>,
    ) {
        let (k, gs, kw) = (b.k, b.group_size, g.kw());
        debug_assert_eq!(a.len(), MR * kw);
        debug_assert!(out.rows() == MR && out.width() >= g.nw());
        debug_assert!(g.r1 <= k && b.q.len() >= g.panels_len());
        debug_assert!(b.scales.len() >= g.panels().end * b.n_groups * PANEL);
        debug_assert_eq!(PANEL % (8 * NR), 0);
        // A checked window starts on a group and ends on one or at `k`, so
        // these groups cover exactly rows `r0..r1`.
        let groups = g.r0 / gs..g.r1.div_ceil(gs);
        // Activations indexed by the operand's row: `a_rows + r * kw + i`
        // is activation row `r`'s element for operand row `i`. Only
        // in-bounds elements are read through it.
        let a_rows = a.as_ptr().wrapping_sub(g.r0);
        for jp in g.panels() {
            // SAFETY: `jp < panels().end` with the two length bounds above
            // keeps both panel bases in bounds.
            let (qp, sp) = unsafe {
                (
                    b.q.as_ptr().add(jp * k * PANEL),
                    b.scales.as_ptr().add(jp * b.n_groups * PANEL),
                )
            };
            let (lo_lane, hi_lane, at) = g.lanes(jp);
            let mut acc = [[0.0f32; PANEL]; MR];
            for cg in 0..PANEL / (8 * NR) {
                let base = cg * 8 * NR;
                if base + 8 * NR <= lo_lane || base >= hi_lane {
                    continue;
                }
                for grp in groups.clone() {
                    let lo = grp * gs;
                    let hi = (lo + gs).min(k);
                    let mut t = [[_mm256_setzero_ps(); NR]; MR];
                    // Row `i`'s lanes `base..` of q-panel `jp`, stepped a
                    // row at a time (a base register, not an index, for
                    // the loads).
                    let mut qrow = qp.wrapping_add(lo * PANEL + base);
                    for i in lo..hi {
                        // SAFETY: `qrow` is row `i < r1 <= k` of q-panel
                        // `jp` at lane `base`; `base + 8c + 8 <= PANEL` keeps
                        // the INT8 loads in it, `r0 <= i` and `r * kw + i -
                        // r0 < MR * kw` the broadcasts in `a`.
                        unsafe {
                            for c in 0..NR {
                                // Dequantize 8 lanes in registers, exactly:
                                // i8 → i32 → f32. No FP32 weight memory.
                                let qi = _mm_loadl_epi64(qrow.add(8 * c) as *const __m128i);
                                let qf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(qi));
                                for (r, tr) in t.iter_mut().enumerate() {
                                    let av = _mm256_set1_ps(*a_rows.wrapping_add(r * kw + i));
                                    tr[c] = _mm256_fmadd_ps(av, qf, tr[c]);
                                }
                            }
                        }
                        qrow = qrow.wrapping_add(PANEL);
                    }
                    for c in 0..NR {
                        let lanes = base + 8 * c..base + 8 * c + 8;
                        // SAFETY: `grp < n_groups` and `base + 8c + 8 <= PANEL`
                        // keep the load inside scale panel `jp`.
                        let sv = unsafe { _mm256_loadu_ps(sp.add(grp * PANEL + lanes.start)) };
                        for (accr, tr) in acc.iter_mut().zip(&t) {
                            let p = accr[lanes.clone()].as_mut_ptr();
                            // SAFETY: `p` heads the 8-float slice `lanes` of
                            // `accr`.
                            unsafe {
                                let sum = _mm256_fmadd_ps(tr[c], sv, _mm256_loadu_ps(p));
                                _mm256_storeu_ps(p, sum);
                            }
                        }
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out.row(r)[at..at + hi_lane - lo_lane].copy_from_slice(&accr[lo_lane..hi_lane]);
            }
        }
    }

    /// Runtime-`mr` front end; `mr` must be a dispatch candidate.
    ///
    /// # Safety
    /// Same contract as [`gemm_block_int8`] with `MR == mr`.
    pub unsafe fn gemm_rows_int8(a: &[f32], mr: usize, b: &QuantizedPackedB, g: Geom, out: &mut OutRows<'_>) {
        // SAFETY: forwarded caller contract; each arm fixes MR == mr with an
        // NR that keeps the MR*NR partial sums + one weight + one broadcast
        // within 16 YMM regs (except the deliberately-spilling MR=16
        // candidate); the running sums wait in memory between groups.
        unsafe {
            match mr {
                1 => gemm_block_int8::<1, 4>(a, b, g, out),
                2 => gemm_block_int8::<2, 4>(a, b, g, out),
                4 => gemm_block_int8::<4, 2>(a, b, g, out),
                8 => gemm_block_int8::<8, 1>(a, b, g, out),
                16 => gemm_block_int8::<16, 1>(a, b, g, out),
                _ => unreachable!("unsupported microkernel row count {mr}"),
            }
        }
    }
}

/// Dispatch-driven row-blocked GEMM over a window of INT8 panels (mirror
/// of `blocked::gemm_f32_with`). The AVX-512 tier runs the AVX2 kernel:
/// INT8 has no 512-bit form.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_int8_with(
    b: &QuantizedPackedB,
    win: &Window,
    a: &[f32],
    mut out: OutRows<'_>,
    ep: Epilogue<'_>,
    tier: Tier,
    force_mr: Option<usize>,
) {
    let g = Geom::new(b.k, b.n, b.group_size, win);
    let (kw, m) = (g.kw(), out.rows());
    assert_eq!(a.len(), m * kw, "int8 gemm: lhs size mismatch");
    assert_eq!(out.width(), g.nw(), "int8 gemm: out width mismatch");
    assert!(
        tier <= Tier::host(),
        "int8 gemm: {tier:?} kernels on a {:?} host",
        Tier::host()
    );
    let mut r = 0;
    while r < m {
        let rem = m - r;
        let mr = match (tier, force_mr) {
            (Tier::Scalar, _) => 1,
            (_, Some(c)) => crate::dispatch::largest_candidate_le(c.min(rem)),
            (_, None) => crate::dispatch::mr_for(rem, crate::dispatch::GemmDtype::Int8),
        };
        let ablk = &a[r * kw..(r + mr) * kw];
        let oblk = &mut out.rows_at(r, mr);
        match tier {
            Tier::Scalar => gemv_int8_scalar(ablk, b, g, oblk),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `tier <= Tier::host()` (asserted above), so CPUID
            // reported AVX2+FMA; layout invariants upheld by
            // `QuantizedPackedB` construction, the window by `Geom::new`;
            // block sizes by the asserts above.
            Tier::Avx2 | Tier::Avx512 => unsafe { avx::gemm_rows_int8(ablk, mr, b, g, oblk) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("SIMD tiers are detected on x86_64 only"),
        }
        crate::blocked::apply_epilogue_rows(&mut out, r, mr, ep);
        r += mr;
    }
}

impl PanelWeights for QuantizedPackedB {
    fn k(&self) -> usize {
        self.k
    }
    fn n(&self) -> usize {
        self.n
    }
    fn storage_bytes(&self) -> usize {
        self.q.len() + self.scales.len() * std::mem::size_of::<f32>()
    }
    fn row_align(&self) -> usize {
        self.group_size
    }
    fn gemm_window(&self, win: &Window, a: &[f32], out: OutRows<'_>, ep: Epilogue<'_>) {
        gemm_int8_with(self, win, a, out, ep, Tier::host(), None);
    }
}

/// Relative Frobenius-norm error between an f32 GEMM and its INT8
/// counterpart; the quality metric the INT8 claims rest on.
pub fn quantized_gemm_rel_error(x: &Tensor, w: &Tensor, group_size: usize) -> f32 {
    let exact = ops::matmul(x, w);
    let wq = QuantizedMatrix::quantize(w, group_size);
    let approx = matmul_quantized(x, &wq);
    let num: f32 = exact
        .data()
        .iter()
        .zip(approx.data())
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let den: f32 = exact.data().iter().map(|a| a * a).sum();
    if den == 0.0 {
        0.0
    } else {
        (num / den).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_bounded() {
        let w = Tensor::randn(&[16, 8], 0.5, 11);
        let q = QuantizedMatrix::quantize(&w, 4);
        let d = q.dequantize();
        let bound = q.max_error_bound();
        assert!(w.max_abs_diff(&d) <= bound, "err {} bound {}", w.max_abs_diff(&d), bound);
    }

    #[test]
    fn zero_matrix_quantizes_exactly() {
        let w = Tensor::zeros(&[4, 4]);
        let q = QuantizedMatrix::quantize(&w, 2);
        assert!(q.dequantize().allclose(&w, 0.0));
    }

    #[test]
    fn max_values_map_to_127() {
        let w = Tensor::from_vec(&[2, 1], vec![2.0, -2.0]);
        let q = QuantizedMatrix::quantize(&w, 2);
        assert_eq!(q.q[0], 127);
        assert_eq!(q.q[1], -127);
    }

    #[test]
    fn storage_halves_vs_fp16() {
        let w = Tensor::randn(&[128, 128], 0.1, 3);
        let q = QuantizedMatrix::quantize(&w, 64);
        let fp16_bytes = w.len() * 2;
        // INT8 + scale overhead must still be well under FP16.
        assert!(q.storage_bytes() < fp16_bytes * 6 / 10);
    }

    #[test]
    fn quantized_gemm_small_error() {
        let x = Tensor::randn(&[4, 32], 1.0, 21);
        let w = Tensor::randn(&[32, 16], 0.2, 22);
        let err = quantized_gemm_rel_error(&x, &w, 8);
        assert!(err < 0.02, "relative error too high: {err}");
    }

    #[test]
    fn smaller_groups_reduce_error() {
        let x = Tensor::randn(&[4, 64], 1.0, 31);
        // Heavy-tailed weights: one large outlier per column region.
        let mut w = Tensor::randn(&[64, 16], 0.1, 32);
        for j in 0..16 {
            w.row_mut(0)[j] = 5.0;
        }
        let coarse = quantized_gemm_rel_error(&x, &w, 64);
        let fine = quantized_gemm_rel_error(&x, &w, 8);
        assert!(fine < coarse, "fine {fine} coarse {coarse}");
    }

    #[test]
    fn ragged_last_group_handled() {
        let w = Tensor::randn(&[10, 4], 0.5, 41);
        let q = QuantizedMatrix::quantize(&w, 4); // groups of 4,4,2
        assert!(w.max_abs_diff(&q.dequantize()) <= q.max_error_bound());
    }

    #[test]
    fn oracle_matches_dequantized_gemm() {
        // The restructured group-blocked oracle must still compute the same
        // product (allclose; op-order differs from a dense f32 GEMM).
        let x = Tensor::randn(&[3, 40], 1.0, 51);
        let w = Tensor::randn(&[40, 21], 0.3, 52);
        let wq = QuantizedMatrix::quantize(&w, 16);
        let want = ops::matmul(&x, &wq.dequantize());
        let got = matmul_quantized(&x, &wq);
        assert!(got.allclose(&want, 1e-4), "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn pre_transposed_quantize_matches_direct() {
        let w = Tensor::randn(&[12, 9], 0.5, 71);
        let mut wt = Tensor::zeros(&[9, 12]);
        for i in 0..12 {
            for j in 0..9 {
                wt.row_mut(j)[i] = w.row(i)[j];
            }
        }
        let x = Tensor::randn(&[2, 12], 1.0, 72);
        let a = crate::blocked::matmul_packed(&x, &QuantizedPackedB::quantize_pack(&w, 4));
        let b = crate::blocked::matmul_packed(&x, &QuantizedPackedB::quantize_pack_pre_transposed(&wt, 4));
        assert!(a.allclose(&b, 0.0));
    }
}
