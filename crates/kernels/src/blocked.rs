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
//! dependencies — otherwise a portable 32-lane scalar loop that rounds each
//! multiply-add once, exactly like the FMA). Four independent chains break
//! the FMA latency serialization a single running sum would pay, and the
//! output row is touched exactly once — no read-modify-write traffic like
//! the naive saxpy form in [`crate::ops::matmul`].
//!
//! Three kernel tiers share the layout, chosen once per process by CPUID:
//! scalar, AVX2 (8-lane registers, so an `MR`-row block walks a panel once
//! per 8·`NR` columns) and AVX-512 (a whole panel row in two 16-lane
//! registers, so an `MR`-row block reads each panel once). Every tier keeps
//! each output lane's one sequential FMA chain over `k`, so all three
//! compute the same bits.
//!
//! Every kernel writes into a caller-provided output window ([`OutRows`]),
//! so steady-state decode can run entirely out of preallocated scratch (see
//! `dsi-model::fast`). The `matmul_*_into` variants fuse the common
//! epilogues (bias, bias+GeLU, bias+residual) into the same output pass —
//! the interior tensor of each Fig. 1(c) region never touches memory twice.

use std::marker::PhantomData;
use std::ops::Range;

use crate::dispatch::{self, GemmDtype};
use crate::simd::Tier;
use crate::tensor::Tensor;

/// Output columns per packed panel: four 8-float YMM or two 16-float ZMM
/// registers.
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

/// A GEMM's output: `rows` rows of `width` floats, `ldc` apart, by
/// address. The kernels reach it one row at a time ([`OutRows::row`]), so
/// no reference they form covers the floats between two rows' windows:
/// those may belong to another window that another thread writes meanwhile
/// (each member of a split pass writes its own column window of one
/// output buffer).
#[derive(Debug)]
pub struct OutRows<'a> {
    ptr: *mut f32,
    rows: usize,
    width: usize,
    ldc: usize,
    _out: PhantomData<&'a mut [f32]>,
}

impl<'a> OutRows<'a> {
    /// Columns `cols` of the first `rows` rows of `out`, rows `ldc` apart.
    pub fn new(out: &'a mut [f32], rows: usize, ldc: usize, cols: Range<usize>) -> Self {
        assert!(cols.start <= cols.end && cols.end <= ldc, "gemm: columns {cols:?} outside a {ldc}-wide row");
        assert!(rows == 0 || (rows - 1) * ldc + cols.end <= out.len(), "gemm: out size mismatch");
        // SAFETY: every row's window lies inside `out` (asserted), which is
        // borrowed mutably for `'a`.
        unsafe { OutRows::from_raw(out.as_mut_ptr().wrapping_add(cols.start), rows, ldc, cols.len()) }
    }

    /// The window at `ptr`: `rows` rows of `width` floats, `ldc` apart.
    ///
    /// # Safety
    /// `width <= ldc`; for `'a`, each row's `width` floats are valid for
    /// reads and writes and accessed through this window only.
    pub unsafe fn from_raw(ptr: *mut f32, rows: usize, ldc: usize, width: usize) -> Self {
        debug_assert!(width <= ldc);
        OutRows { ptr, rows, width, ldc, _out: PhantomData }
    }

    /// Rows in the window.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Floats per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `r`'s floats.
    #[inline]
    pub fn row(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "gemm: output row {r} of {}", self.rows);
        // SAFETY: row `r < rows` is `width` floats this window alone
        // accesses (`from_raw`'s contract), borrowed through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(r * self.ldc), self.width) }
    }

    /// Rows `r0..r0 + n` as a window of their own.
    #[inline]
    pub fn rows_at(&mut self, r0: usize, n: usize) -> OutRows<'_> {
        assert!(r0 + n <= self.rows, "gemm: output rows {r0}..{} of {}", r0 + n, self.rows);
        // SAFETY: a subset of this window's rows, borrowed through `&mut self`.
        unsafe { OutRows::from_raw(self.ptr.wrapping_add(r0 * self.ldc), n, self.ldc, self.width) }
    }
}

/// A column window checked against its operand, as the kernels walk it:
/// the operand's depth `k` (the activation row width; one panel is
/// `k * PANEL` weights) and output columns `c0..c1`, which may start and
/// end inside a [`PANEL`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geom {
    pub(crate) k: usize,
    pub(crate) c0: usize,
    pub(crate) c1: usize,
}

impl Geom {
    /// Check `cols` against a `[k, n]` operand.
    pub(crate) fn new(k: usize, n: usize, cols: Range<usize>) -> Geom {
        assert!(cols.start <= cols.end && cols.end <= n, "gemm: columns {cols:?} outside n = {n}");
        Geom { k, c0: cols.start, c1: cols.end }
    }

    /// Output columns per row.
    pub(crate) fn nw(&self) -> usize {
        self.c1 - self.c0
    }

    /// The panels holding the window's columns.
    pub(crate) fn panels(&self) -> Range<usize> {
        self.c0 / PANEL..self.c1.div_ceil(PANEL)
    }

    /// Floats of packed operand the window's panels end within.
    pub(crate) fn panels_len(&self) -> usize {
        self.panels().end * self.k * PANEL
    }

    /// Panel `jp`'s lanes `lo..hi` inside the window, and the output
    /// column lane `lo` lands in.
    pub(crate) fn lanes(&self, jp: usize) -> (usize, usize, usize) {
        let j0 = jp * PANEL;
        let lo = self.c0.max(j0) - j0;
        (lo, self.c1.min(j0 + PANEL) - j0, j0 + lo - self.c0)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{Geom, OutRows, PANEL};
    use std::arch::x86_64::*;

    /// One GEMV row over a column window of panel-packed weights: `out`
    /// row 0 = `a[0..k] · B[.., c0..c1]`.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support, and `panels` must hold
    /// at least `g.panels_len()` floats in [`super::PackedB`] layout for
    /// depth `g.k`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemv(a: &[f32], panels: &[f32], g: Geom, out: &mut OutRows<'_>) {
        let out = out.row(0);
        // Contract checks: the SAFETY arguments below all reduce to these
        // (the `PackedB` layout invariant and a checked `Geom`).
        debug_assert_eq!(a.len(), g.k);
        debug_assert!(out.len() >= g.nw());
        debug_assert!(panels.len() >= g.panels_len());
        for jp in g.panels() {
            // SAFETY: `jp < panels().end`, so panel `jp` starts at most one
            // past the end of `panels_len() <= panels.len()` floats.
            let p = unsafe { panels.as_ptr().add(jp * g.k * PANEL) };
            // Four independent FMA chains: one register per 8 output
            // columns, alive across the whole k loop.
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            for i in 0..g.k {
                // SAFETY: `i < k == a.len()` bounds the `get_unchecked`,
                // and keeps all four 8-wide loads inside panel `jp` of
                // `panels`.
                unsafe {
                    let av = _mm256_set1_ps(*a.get_unchecked(i));
                    let row = p.add(i * PANEL);
                    acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row), acc0);
                    acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(8)), acc1);
                    acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(16)), acc2);
                    acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(row.add(24)), acc3);
                }
            }
            let (lo, hi, at) = g.lanes(jp);
            if hi - lo == PANEL {
                // SAFETY: a whole panel inside the window ends at output
                // column `at + PANEL <= nw <= out.len()`, so the four
                // stores cover exactly `out[at..at + 32]`.
                unsafe {
                    let o = out.as_mut_ptr().add(at);
                    _mm256_storeu_ps(o, acc0);
                    _mm256_storeu_ps(o.add(8), acc1);
                    _mm256_storeu_ps(o.add(16), acc2);
                    _mm256_storeu_ps(o.add(24), acc3);
                }
            } else {
                // A panel the window cuts: spill, store only its lanes.
                let mut tmp = [0.0f32; PANEL];
                // SAFETY: `tmp` is exactly `PANEL == 32` floats, matching
                // the four 8-wide stores at offsets 0/8/16/24.
                unsafe {
                    _mm256_storeu_ps(tmp.as_mut_ptr(), acc0);
                    _mm256_storeu_ps(tmp.as_mut_ptr().add(8), acc1);
                    _mm256_storeu_ps(tmp.as_mut_ptr().add(16), acc2);
                    _mm256_storeu_ps(tmp.as_mut_ptr().add(24), acc3);
                }
                out[at..at + hi - lo].copy_from_slice(&tmp[lo..hi]);
            }
        }
    }

    /// `MR`-row register-blocked GEMM over a column window of one
    /// panel-packed operand: `out` row `r` = `a[r * k..][..k] · B[..,
    /// c0..c1]` for `r < MR`, with `a` dense.
    ///
    /// Each weight panel is streamed from memory **once per column group**
    /// and broadcast across all `MR` activation rows — the CPU execution of
    /// the paper's Sec. III-C3 M-row interleaving: for skinny decode GEMMs
    /// the weight stream dominates, so amortizing it across M rows multiplies
    /// arithmetic per byte by M. `NR` is the number of 8-wide column
    /// registers per pass; `MR * NR` accumulators plus `NR` weight registers
    /// plus one broadcast must fit the 16 YMM registers, so `MR = 8` takes
    /// `NR = 1` and walks each panel four times. A column group wholly
    /// outside the window is skipped. The AVX-512
    /// tier (`avx512`) has 32 registers and needs no column groups.
    ///
    /// Numerics: each output element accumulates over `k` sequentially in a
    /// single register lane, exactly like [`gemv`] — every `(MR, NR)`
    /// instantiation is bit-identical to the M=1 kernel, so microkernel
    /// choice is purely a performance decision.
    ///
    /// # Safety
    /// Caller must have verified AVX2+FMA support; `panels` as for
    /// [`gemv`]; `a.len() == MR * k`; `out` holds `MR` rows of at least
    /// `nw` floats; `PANEL % (8 * NR) == 0`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_block<const MR: usize, const NR: usize>(
        a: &[f32],
        panels: &[f32],
        g: Geom,
        out: &mut OutRows<'_>,
    ) {
        let k = g.k;
        debug_assert_eq!(a.len(), MR * k);
        debug_assert!(out.rows() == MR && out.width() >= g.nw());
        debug_assert!(panels.len() >= g.panels_len());
        debug_assert_eq!(PANEL % (8 * NR), 0);
        for jp in g.panels() {
            // SAFETY: as in `gemv`, panel `jp` starts in bounds
            // (one-past-the-end only when `k == 0`).
            let p = unsafe { panels.as_ptr().add(jp * k * PANEL) };
            let (lo, hi, at) = g.lanes(jp);
            // Column-group passes: the panel is re-read once per group, but
            // it stays L1/L2-resident between passes, so DRAM still streams
            // it once per block of MR rows.
            for cg in 0..PANEL / (8 * NR) {
                let base = cg * 8 * NR;
                if base + 8 * NR <= lo || base >= hi {
                    continue;
                }
                let mut acc = [[_mm256_setzero_ps(); NR]; MR];
                for i in 0..k {
                    // SAFETY: `i < k` and `base + 8 * (NR - 1) + 8 <= PANEL`
                    // keep every 8-wide load inside panel `jp`; `r * k + i
                    // < MR * k == a.len()` bounds the broadcasts.
                    unsafe {
                        let row = p.add(i * PANEL + base);
                        let mut w = [_mm256_setzero_ps(); NR];
                        for (t, wt) in w.iter_mut().enumerate() {
                            *wt = _mm256_loadu_ps(row.add(8 * t));
                        }
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let av = _mm256_set1_ps(*a.get_unchecked(r * k + i));
                            for (wt, acc_t) in w.iter().zip(accr.iter_mut()) {
                                *acc_t = _mm256_fmadd_ps(av, *wt, *acc_t);
                            }
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let out = out.row(r);
                    for (t, v) in accr.iter().enumerate() {
                        // This register's lanes `l0..l0 + 8`, cut to the window.
                        let l0 = base + 8 * t;
                        let (s, e) = (l0.max(lo), (l0 + 8).min(hi));
                        if s >= e {
                            continue;
                        }
                        let o = at + s - lo;
                        if e - s == 8 {
                            // SAFETY: lane `e <= hi` puts output column
                            // `o + 8` at most `nw <= out.len()`.
                            unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(o), *v) };
                        } else {
                            // Lanes the window cuts: spill the register,
                            // copy only the window's ones.
                            let mut tmp = [0.0f32; 8];
                            // SAFETY: `tmp` is exactly 8 floats.
                            unsafe { _mm256_storeu_ps(tmp.as_mut_ptr(), *v) };
                            out[o..o + e - s].copy_from_slice(&tmp[s - l0..e - l0]);
                        }
                    }
                }
            }
        }
    }

    /// Runtime-`mr` front end over the const-generic block kernels. `mr`
    /// must be one of the dispatch candidates (1, 2, 4, 8). The f32 cap
    /// on this tier is 2, so `<4, 2>` and `<8, 1>` run only under a forced
    /// `mr`: they stay so that the differential harness's drift report can
    /// re-time this tier's crossover on a host (DESIGN.md, "Row-block caps").
    ///
    /// # Safety
    /// Same contract as [`gemm_block`] with `MR == mr`.
    pub unsafe fn gemm_rows(a: &[f32], mr: usize, panels: &[f32], g: Geom, out: &mut OutRows<'_>) {
        // SAFETY: forwarded caller contract; each arm fixes MR == mr and an
        // NR that divides PANEL/8, with MR*NR + NR + 1 <= 16 YMM registers.
        unsafe {
            match mr {
                1 => gemv(a, panels, g, out),
                2 => gemm_block::<2, 4>(a, panels, g, out),
                4 => gemm_block::<4, 2>(a, panels, g, out),
                8 => gemm_block::<8, 1>(a, panels, g, out),
                _ => unreachable!("unsupported microkernel row count {mr}"),
            }
        }
    }
}

/// The AVX-512 tier: a whole 32-column panel row in two zmm registers, so
/// an `MR`-row block reads each panel once, contiguously, and broadcasts
/// each activation across `MR × 2` accumulators. The kernels are safe
/// `#[target_feature]` functions: only their loads and stores are `unsafe`,
/// and the layout checks those rest on run in every build. Each output lane
/// keeps one sequential FMA chain over `k` from `+0.0`, as in `avx`, so
/// the tier is bitwise equal to the AVX2 kernels and to the scalar oracle.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Geom, OutRows, PANEL};
    use std::arch::x86_64::*;

    /// The lane mask of the first `lanes <= 16` lanes.
    fn mask(lanes: usize) -> __mmask16 {
        ((1u32 << lanes) - 1) as __mmask16
    }

    /// Store the first `o.len()` lanes of one panel row: a masked store
    /// writes no lane past the end of `o`, so an off-panel tail needs no
    /// spill buffer.
    #[target_feature(enable = "avx512f")]
    fn store_row(o: &mut [f32], v: [__m512; 2]) {
        let w = o.len();
        // SAFETY: `mask(w.min(16))` enables only lanes `< w == o.len()`;
        // masked-off lanes are not accessed.
        unsafe { _mm512_mask_storeu_ps(o.as_mut_ptr(), mask(w.min(16)), v[0]) };
        if w > 16 {
            // SAFETY: `w > 16` puts `add(16)` inside `o`, and the mask
            // enables only lanes `< w - 16` past it.
            unsafe { _mm512_mask_storeu_ps(o.as_mut_ptr().add(16), mask((w - 16).min(16)), v[1]) };
        }
    }

    /// `out` row `r` = `a[r * k..][..k] · B[.., c0..c1]` for `r < MR` over
    /// [`super::PackedB`] panels, with `a` dense. Per panel,
    /// `MR × 2` accumulators, two weight registers and one broadcast: at
    /// most 19 of the 32 zmm registers.
    #[target_feature(enable = "avx512f")]
    fn gemm_block512<const MR: usize>(a: &[f32], panels: &[f32], g: Geom, out: &mut OutRows<'_>) {
        let k = g.k;
        assert_eq!(a.len(), MR * k, "gemm512: lhs size mismatch");
        assert!(out.rows() == MR && out.width() >= g.nw(), "gemm512: out size mismatch");
        assert!(panels.len() >= g.panels_len(), "gemm512: panels size mismatch");
        for jp in g.panels() {
            let panel = &panels[jp * k * PANEL..(jp + 1) * k * PANEL];
            let mut acc = [[_mm512_setzero_ps(); 2]; MR];
            for (i, row) in panel.chunks_exact(PANEL).enumerate() {
                // SAFETY: `row` is exactly `PANEL == 32` floats, so both
                // 16-wide loads read inside it.
                let w = unsafe {
                    [
                        _mm512_loadu_ps(row.as_ptr()),
                        _mm512_loadu_ps(row.as_ptr().add(16)),
                    ]
                };
                for (r, accr) in acc.iter_mut().enumerate() {
                    // SAFETY: `i < k`, so `r * k + i < MR * k == a.len()`
                    // (asserted above).
                    let av = _mm512_set1_ps(unsafe { *a.get_unchecked(r * k + i) });
                    accr[0] = _mm512_fmadd_ps(av, w[0], accr[0]);
                    accr[1] = _mm512_fmadd_ps(av, w[1], accr[1]);
                }
            }
            let (lo, hi, at) = g.lanes(jp);
            for (r, &accr) in acc.iter().enumerate() {
                let o = &mut out.row(r)[at..at + hi - lo];
                if lo == 0 {
                    store_row(o, accr);
                } else {
                    // The window starts inside this panel: spill the row,
                    // copy only its lanes.
                    let mut tmp = [0.0f32; PANEL];
                    // SAFETY: `tmp` is exactly `PANEL == 32` floats, matching
                    // the two 16-wide stores at offsets 0 and 16.
                    unsafe {
                        _mm512_storeu_ps(tmp.as_mut_ptr(), accr[0]);
                        _mm512_storeu_ps(tmp.as_mut_ptr().add(16), accr[1]);
                    }
                    o.copy_from_slice(&tmp[lo..hi]);
                }
            }
        }
    }

    /// Runtime-`mr` front end for `mr` ∈ {2, 4, 8}. M = 1 is not here: it
    /// stays on the AVX2 GEMV, which measured faster.
    #[target_feature(enable = "avx512f")]
    pub(super) fn gemm_rows(a: &[f32], mr: usize, panels: &[f32], g: Geom, out: &mut OutRows<'_>) {
        match mr {
            2 => gemm_block512::<2>(a, panels, g, out),
            4 => gemm_block512::<4>(a, panels, g, out),
            8 => gemm_block512::<8>(a, panels, g, out),
            _ => unreachable!("unsupported AVX-512 row count {mr}"),
        }
    }
}

/// Portable fallback row kernel over the same panel layout. Each lane fuses
/// its multiply-add with one rounding (`mul_add`), as `_mm256_fmadd_ps`
/// does, so a host without AVX2 decodes the same tokens bit for bit.
/// Exactness is chosen over speed here: built without the `fma` target
/// feature, each `mul_add` is a libm `fmaf` call the auto-vectorizer cannot
/// batch, ≈ 38× slower than a plain mul-then-add loop on x86_64 (DESIGN.md,
/// "M-row microkernels").
pub(crate) fn gemv_scalar(a: &[f32], panels: &[f32], g: Geom, out: &mut OutRows<'_>) {
    debug_assert_eq!(a.len(), g.k);
    let out = out.row(0);
    for jp in g.panels() {
        let panel = &panels[jp * g.k * PANEL..(jp + 1) * g.k * PANEL];
        let mut acc = [0.0f32; PANEL];
        for (i, rows) in panel.chunks_exact(PANEL).enumerate() {
            let av = a[i];
            for (lane, &w) in acc.iter_mut().zip(rows) {
                *lane = av.mul_add(w, *lane);
            }
        }
        let (lo, hi, at) = g.lanes(jp);
        out[at..at + hi - lo].copy_from_slice(&acc[lo..hi]);
    }
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
    /// `out = a·B + bias + residual` (residual is laid out like `out`)
    BiasAdd(&'a [f32], &'a [f32]),
}

/// Weight storage a fused region kernel can right-multiply by: panel-packed
/// FP32 ([`PackedB`]) or group-quantized INT8
/// ([`crate::quant::QuantizedPackedB`]).
///
/// An operand has one GEMM entry, [`PanelWeights::gemm_window`]; `gemm` is
/// its whole width. Implementations walk the rows in microkernel blocks
/// chosen per `(remaining rows, tier, dtype)` by [`crate::dispatch`]. Every
/// microkernel accumulates each output element in the same order, so the
/// block decomposition never changes results — batched decode stays
/// bit-identical to one-row-at-a-time decode — and neither does a window:
/// a column is computed alike whichever window holds it.
///
/// Operands are `Send + Sync`: the members of a split pass read one
/// operand from several threads at once.
pub trait PanelWeights: Send + Sync {
    /// Input (reduction) dimension.
    fn k(&self) -> usize;
    /// Output dimension.
    fn n(&self) -> usize;
    /// Bytes streamed per full traversal of the packed operand (including
    /// scale metadata for quantized forms) — roofline accounting for the
    /// decode bench.
    fn storage_bytes(&self) -> usize;
    /// Row `i` of `out`, column `j` = `a[i] · B[.., cols.start + j]` for
    /// the `out.rows()` rows `a[i]` of `a` (each `k` wide) and every
    /// `j < cols.len() == out.width()`, the epilogue fused into the output
    /// pass (its bias is the window's, its residual laid out like `out`'s
    /// rows, `ldc` apart from column 0 of row 0). The result is bitwise
    /// the matching columns of `gemm`.
    fn gemm_window(&self, cols: Range<usize>, a: &[f32], out: OutRows<'_>, ep: Epilogue<'_>);
    /// `out[m, n] = a[m, k] · B`, epilogue fused into the output pass: the
    /// whole operand's [`PanelWeights::gemm_window`].
    fn gemm(&self, a: &[f32], m: usize, out: &mut [f32], ep: Epilogue<'_>) {
        assert_eq!(out.len(), m * self.n(), "gemm: out size mismatch");
        let n = self.n();
        self.gemm_window(0..n, a, OutRows::new(out, m, n, 0..n), ep);
    }
}

/// GeLU (tanh approximation), matching [`crate::ops::gelu`].
#[inline]
pub fn gelu_scalar(u: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * u * (1.0 + (C * (u + 0.044715 * u * u * u)).tanh())
}

/// Apply the fused epilogue to output rows `r0..r0 + mr` of a window while
/// they are still hot in L1 — one extra register pass, no second GEMM-sized
/// traversal.
#[inline]
pub(crate) fn apply_epilogue_rows(out: &mut OutRows<'_>, r0: usize, mr: usize, ep: Epilogue<'_>) {
    let (nw, ldc) = (out.width, out.ldc);
    for i in r0..r0 + mr {
        let row = i * ldc..i * ldc + nw;
        let orow = out.row(i);
        match ep {
            Epilogue::None => {}
            Epilogue::Bias(bias) => {
                for (o, &bv) in orow.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
            Epilogue::BiasGelu(bias) => crate::simd::bias_gelu_row(orow, bias),
            Epilogue::BiasAdd(bias, res) => {
                for ((o, &bv), &rv) in orow.iter_mut().zip(bias).zip(&res[row]) {
                    *o += bv + rv;
                }
            }
        }
    }
}

/// The row-block loop of every GEMM: `out` = `a · B[.., g.c0..g.c1]` +
/// `ep` over the `out.rows()` rows of `a` (each `g.k` wide), in blocks of
/// [`dispatch::mr_for`] rows on the kernels of `tier`, which must not
/// exceed [`Tier::host`]. `force_mr` pins the block instead (the
/// differential harness checks each one; the scalar tier runs one row at a
/// time regardless). `block(a, mr, out)` runs the operand's `tier` kernel
/// over `mr` rows; it is called only after the tier check here. Each
/// block's epilogue runs while its rows are hot in L1.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_row_blocks(
    g: Geom,
    dtype: GemmDtype,
    a: &[f32],
    mut out: OutRows<'_>,
    ep: Epilogue<'_>,
    tier: Tier,
    force_mr: Option<usize>,
    block: impl Fn(&[f32], usize, &mut OutRows<'_>),
) {
    let (k, m) = (g.k, out.rows());
    assert_eq!(a.len(), m * k, "gemm: lhs size mismatch");
    assert_eq!(out.width(), g.nw(), "gemm: out width mismatch");
    assert!(tier <= Tier::host(), "gemm: {tier:?} kernels on a {:?} host", Tier::host());
    let mut r = 0;
    while r < m {
        let rem = m - r;
        let mr = match force_mr {
            Some(c) if tier > Tier::Scalar => dispatch::largest_candidate_le(c.min(rem)),
            _ => dispatch::mr_for(rem, tier, dtype),
        };
        block(&a[r * k..(r + mr) * k], mr, &mut out.rows_at(r, mr));
        apply_epilogue_rows(&mut out, r, mr, ep);
        r += mr;
    }
}

/// [`gemm_row_blocks`] over FP32 panels.
pub(crate) fn gemm_f32_with(
    b: &PackedB,
    cols: Range<usize>,
    a: &[f32],
    out: OutRows<'_>,
    ep: Epilogue<'_>,
    tier: Tier,
    force_mr: Option<usize>,
) {
    let g = Geom::new(b.k, b.n, cols);
    gemm_row_blocks(g, GemmDtype::F32, a, out, ep, tier, force_mr, |a, mr, out| match tier {
        Tier::Scalar => gemv_scalar(a, &b.data, g, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `gemm_row_blocks` checked `tier <= Tier::host()`, so
        // CPUID reported AVX-512F; the kernels check their own bounds.
        Tier::Avx512 if mr > 1 => unsafe { avx512::gemm_rows(a, mr, &b.data, g, out) },
        // M = 1 runs the AVX2 GEMV on both SIMD tiers.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `gemm_row_blocks` checked `tier <= Tier::host()`, so
        // CPUID reported AVX2+FMA, and sized `a` and `out` to `mr` rows;
        // slice layout upheld by `PackedB` (the only producer of `b.data`)
        // and `Geom::new` (the columns lie inside `[k, n]`).
        Tier::Avx2 | Tier::Avx512 => unsafe { avx::gemm_rows(a, mr, &b.data, g, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("SIMD tiers are detected on x86_64 only"),
    });
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
    fn gemm_window(&self, cols: Range<usize>, a: &[f32], out: OutRows<'_>, ep: Epilogue<'_>) {
        gemm_f32_with(self, cols, a, out, ep, Tier::host(), None);
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
        // kernel on identical inputs, bit for bit: both round each
        // multiply-add once, in the same order.
        let a = Tensor::randn(&[2, 48], 1.0, 15);
        let b = Tensor::randn(&[48, 77], 1.0, 16);
        let pb = PackedB::pack(&b);
        let mut got = vec![0.0f32; 2 * 77];
        matmul_into(a.data(), 2, &pb, &mut got);
        let mut want = vec![0.0f32; 2 * 77];
        for i in 0..2 {
            let g = Geom::new(48, 77, 0..77);
            let out = OutRows::new(&mut want[i * 77..(i + 1) * 77], 1, 77, 0..77);
            gemv_scalar(&a.data()[i * 48..(i + 1) * 48], &pb.data, g, &mut { out });
        }
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "{g} vs {w}");
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
