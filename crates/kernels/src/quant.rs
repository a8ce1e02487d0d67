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
//! executed path over [`QuantizedPackedB`] (the scalar fallback and the
//! AVX2 and AVX-512 dequant-in-register kernels) is bitwise equal to it.
//! The weights are widened to f32 in registers, so what INT8 buys here is
//! the smaller weight stream, not an integer arithmetic peak.

use std::ops::Range;

use crate::blocked::{gemm_row_blocks, Epilogue, Geom, OutRows, PanelWeights, PANEL};
use crate::dispatch::GemmDtype;
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
/// This is the **portable oracle** for the AVX2 and AVX-512
/// dequant-in-register kernels over [`QuantizedPackedB`], and it fixes
/// their rounding order. Per output element and per group `g`, a partial
/// sum starts at `+0.0` and takes one fused multiply-add per row,
/// `t = x.mul_add(q as f32, t)`. `q as f32` is exact, so each weight costs
/// one rounding. The group's scale is then
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
/// The GEMM dequantizes **in registers**: INT8 lanes are widened with
/// `cvtepi8_epi32` and converted exactly via `cvtepi32_ps`, 8 at a time on
/// the AVX2 tier and 16 on the AVX-512 tier, FMA'd into a per-group partial
/// sum, and the group's scale is applied to that sum once — the FP32
/// weight row never exists in memory, so the decode loop streams ~¼ the
/// weight bytes of the FP32 path (Sec. III-D's bandwidth argument executed
/// on CPU). Padded tail columns store
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

/// Portable fallback row kernel over a column window of the packed INT8
/// layout.
/// Performs the identical rounding sequence as [`matmul_quantized`] and
/// the AVX2 and AVX-512 kernels: per group, `t = x.mul_add(q as f32, t)`
/// row by row from `+0.0`, then `acc = t.mul_add(scale, acc)`. Like
/// `blocked::gemv_scalar` it pays a libm `fmaf` call per lane on a build
/// without the `fma` target feature (≈ 14× the old mul-then-add loop on
/// x86_64) to stay bitwise equal.
pub(crate) fn gemv_int8_scalar(a: &[f32], b: &QuantizedPackedB, g: Geom, out: &mut OutRows<'_>) {
    let (k, gs) = (b.k, b.group_size);
    let out = out.row(0);
    debug_assert_eq!(a.len(), k);
    for jp in g.panels() {
        let qp = &b.q[jp * k * PANEL..(jp + 1) * k * PANEL];
        let sp = &b.scales[jp * b.n_groups * PANEL..(jp + 1) * b.n_groups * PANEL];
        let mut acc = [0.0f32; PANEL];
        for grp in 0..b.n_groups {
            let lo = grp * gs;
            let hi = (lo + gs).min(k);
            let mut t = [0.0f32; PANEL];
            for i in lo..hi {
                let xv = a[i];
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

    /// `MR`-row GEMM over a column window of panel-packed INT8 weights with
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
    /// (`Geom::new`); `a.len() == MR * k`; `out` holds `MR` rows of at
    /// least `nw` floats; `PANEL % (8 * NR) == 0`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_block_int8<const MR: usize, const NR: usize>(
        a: &[f32],
        b: &QuantizedPackedB,
        g: Geom,
        out: &mut OutRows<'_>,
    ) {
        let (k, gs) = (b.k, b.group_size);
        debug_assert_eq!(a.len(), MR * k);
        debug_assert!(out.rows() == MR && out.width() >= g.nw());
        debug_assert!(g.k == k && b.q.len() >= g.panels_len());
        debug_assert!(b.scales.len() >= g.panels().end * b.n_groups * PANEL);
        debug_assert_eq!(PANEL % (8 * NR), 0);
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
                for grp in 0..b.n_groups {
                    let lo = grp * gs;
                    let hi = (lo + gs).min(k);
                    let mut t = [[_mm256_setzero_ps(); NR]; MR];
                    // Row `i`'s lanes `base..` of q-panel `jp`, stepped a
                    // row at a time (a base register, not an index, for
                    // the loads).
                    let mut qrow = qp.wrapping_add(lo * PANEL + base);
                    for i in lo..hi {
                        // SAFETY: `qrow` is row `i < k` of q-panel `jp` at
                        // lane `base`; `base + 8c + 8 <= PANEL` keeps the
                        // INT8 loads in it, `r * k + i < MR * k` the
                        // broadcasts in `a`.
                        unsafe {
                            for c in 0..NR {
                                // Dequantize 8 lanes in registers, exactly:
                                // i8 → i32 → f32. No FP32 weight memory.
                                let qi = _mm_loadl_epi64(qrow.add(8 * c) as *const __m128i);
                                let qf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(qi));
                                for (r, tr) in t.iter_mut().enumerate() {
                                    let av = _mm256_set1_ps(*a.get_unchecked(r * k + i));
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
        // within 16 YMM regs; the running sums wait in memory between
        // groups.
        unsafe {
            match mr {
                1 => gemm_block_int8::<1, 4>(a, b, g, out),
                2 => gemm_block_int8::<2, 4>(a, b, g, out),
                4 => gemm_block_int8::<4, 2>(a, b, g, out),
                8 => gemm_block_int8::<8, 1>(a, b, g, out),
                _ => unreachable!("unsupported microkernel row count {mr}"),
            }
        }
    }
}

/// The AVX-512 tier: one 32-lane panel row of INT8 weights is two 16-lane
/// dequants (`vpmovsxbd` from memory, then `vcvtdq2ps`), half the
/// conversions per weight of the AVX2 kernel's 8-lane ones. The kernels are
/// safe `#[target_feature]` functions: the weights, scales and activations
/// of a group are cut as bounds-checked slices once per group, so only the
/// loads and stores inside them are `unsafe`. Every output lane keeps the
/// AVX2 kernel's order (rows in order inside a group from `+0.0`, then
/// `acc = t·scale + acc` with groups in order), so the tier is bitwise the
/// AVX2 kernel and [`matmul_quantized`].
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Geom, OutRows, QuantizedPackedB, PANEL};
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// `out` row `r` = `a[r * k..][..k] · dequant(B)` over the window
    /// panels `panels`, `NP` panels per pass. Per pass and
    /// group: `MR × NP × 2` zmm partial sums, `NP × 2` weight registers and
    /// one broadcast. That is 9 of the 32 zmm registers at `<1, 2>` (four
    /// FMA chains per row) and 19 at `<8, 1>`. The running sums `acc` wait
    /// between groups in a stack buffer (f32 store and reload are exact),
    /// as in the AVX2 kernel. A pass computes whole panels; a window that
    /// cuts a panel copies out only its lanes.
    #[target_feature(enable = "avx512f")]
    fn gemm_block_int8_512<const MR: usize, const NP: usize>(
        a: &[f32],
        b: &QuantizedPackedB,
        g: Geom,
        panels: Range<usize>,
        out: &mut OutRows<'_>,
    ) {
        let (k, gs) = (b.k, b.group_size);
        assert_eq!(a.len(), MR * k, "int8 gemm512: lhs size mismatch");
        assert!(out.rows() == MR && out.width() >= g.nw(), "int8 gemm512: out size mismatch");
        let window = g.panels();
        assert!(
            window.start <= panels.start && panels.end <= window.end && panels.len().is_multiple_of(NP),
            "int8 gemm512: panels {panels:?} outside {window:?} or not in passes of {NP}"
        );
        for jp in panels.step_by(NP) {
            let mut acc = [[[0.0f32; PANEL]; NP]; MR];
            for grp in 0..b.n_groups {
                let (lo, hi) = (grp * gs, (grp * gs + gs).min(k));
                let rows = hi - lo;
                // The group's rows of each panel, and of each activation
                // row (plain loops: `array::from_fn` is not inlined here).
                let mut q = [&b.q[..0]; NP];
                for (p, qp) in q.iter_mut().enumerate() {
                    *qp = &b.q[((jp + p) * k + lo) * PANEL..((jp + p) * k + hi) * PANEL];
                }
                let mut x = [&a[..0]; MR];
                for (r, xr) in x.iter_mut().enumerate() {
                    *xr = &a[r * k + lo..r * k + hi];
                }
                let mut t = [[[_mm512_setzero_ps(); 2]; NP]; MR];
                for i in 0..rows {
                    let mut w = [[_mm512_setzero_ps(); 2]; NP];
                    for (wp, qp) in w.iter_mut().zip(&q) {
                        for (c, wc) in wp.iter_mut().enumerate() {
                            // SAFETY: `i < rows` and `qp.len() == rows * PANEL`,
                            // so the 16 bytes at `i * PANEL + 16 * c` (`c < 2`)
                            // lie inside `qp`.
                            let qi = unsafe { _mm_loadu_si128(qp.as_ptr().add(i * PANEL + 16 * c).cast()) };
                            // Dequantize 16 lanes exactly: i8 → i32 → f32.
                            *wc = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(qi));
                        }
                    }
                    for (tr, xr) in t.iter_mut().zip(&x) {
                        let av = _mm512_set1_ps(xr[i]);
                        for (tp, wp) in tr.iter_mut().zip(&w) {
                            for (tc, &wc) in tp.iter_mut().zip(wp) {
                                *tc = _mm512_fmadd_ps(av, wc, *tc);
                            }
                        }
                    }
                }
                for p in 0..NP {
                    let s = &b.scales[(jp + p) * b.n_groups * PANEL + grp * PANEL..][..PANEL];
                    // SAFETY: `s` is exactly `PANEL == 32` floats, so both
                    // 16-wide loads read inside it.
                    let sv = unsafe { [_mm512_loadu_ps(s.as_ptr()), _mm512_loadu_ps(s.as_ptr().add(16))] };
                    for (accr, tr) in acc.iter_mut().zip(&t) {
                        for (c, &tc) in tr[p].iter().enumerate() {
                            let at = accr[p][16 * c..16 * c + 16].as_mut_ptr();
                            // SAFETY: `at` heads a 16-float slice of `accr[p]`.
                            unsafe { _mm512_storeu_ps(at, _mm512_fmadd_ps(tc, sv[c], _mm512_loadu_ps(at))) };
                        }
                    }
                }
            }
            for p in 0..NP {
                let (lo, hi, at) = g.lanes(jp + p);
                for (r, accr) in acc.iter().enumerate() {
                    out.row(r)[at..at + hi - lo].copy_from_slice(&accr[p][lo..hi]);
                }
            }
        }
    }

    /// Runtime-`mr` front end for the dispatch candidates. M = 1 reads the
    /// window's panels two per pass (four 16-lane FMA chains, one broadcast
    /// per row), the odd last panel alone.
    #[target_feature(enable = "avx512f")]
    pub(super) fn gemm_rows_int8(a: &[f32], mr: usize, b: &QuantizedPackedB, g: Geom, out: &mut OutRows<'_>) {
        let ps = g.panels();
        match mr {
            1 => {
                let pairs = ps.start..ps.end - ps.len() % 2;
                gemm_block_int8_512::<1, 2>(a, b, g, pairs.clone(), out);
                gemm_block_int8_512::<1, 1>(a, b, g, pairs.end..ps.end, out);
            }
            2 => gemm_block_int8_512::<2, 1>(a, b, g, ps, out),
            4 => gemm_block_int8_512::<4, 1>(a, b, g, ps, out),
            8 => gemm_block_int8_512::<8, 1>(a, b, g, ps, out),
            _ => unreachable!("unsupported AVX-512 row count {mr}"),
        }
    }
}

/// [`gemm_row_blocks`] over INT8 panels, on the kernels of `tier`:
/// scalar, AVX2 or AVX-512, all bitwise equal.
pub(crate) fn gemm_int8_with(
    b: &QuantizedPackedB,
    cols: Range<usize>,
    a: &[f32],
    out: OutRows<'_>,
    ep: Epilogue<'_>,
    tier: Tier,
    force_mr: Option<usize>,
) {
    let g = Geom::new(b.k, b.n, cols);
    gemm_row_blocks(g, GemmDtype::Int8, a, out, ep, tier, force_mr, |a, mr, out| match tier {
        Tier::Scalar => gemv_int8_scalar(a, b, g, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `gemm_row_blocks` checked `tier <= Tier::host()`, so
        // CPUID reported AVX-512F; the kernels check their own bounds.
        Tier::Avx512 => unsafe { avx512::gemm_rows_int8(a, mr, b, g, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `gemm_row_blocks` checked `tier <= Tier::host()`, so
        // CPUID reported AVX2+FMA, and sized `a` and `out` to `mr` rows;
        // layout invariants upheld by `QuantizedPackedB` construction, the
        // columns by `Geom::new`.
        Tier::Avx2 => unsafe { avx::gemm_rows_int8(a, mr, b, g, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("SIMD tiers are detected on x86_64 only"),
    });
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
    fn gemm_window(&self, cols: Range<usize>, a: &[f32], out: OutRows<'_>, ep: Epilogue<'_>) {
        gemm_int8_with(self, cols, a, out, ep, Tier::host(), None);
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
