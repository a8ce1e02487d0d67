//! Shape-adversarial differential harness for the packed GEMM kernels and
//! the column-windowed paged attention entry.
//!
//! Every executed path over [`PackedB`] and [`QuantizedPackedB`] — on each
//! kernel tier the host has (scalar, AVX2, AVX-512), each forced
//! microkernel row block and the dispatched blocks at every row count
//! `1..=17` — is held **bitwise** to one scalar oracle per dtype on a fixed seed corpus: `k` and `n` off the
//! 32-column panel, quantization groups of 1, 7, 32, 64 and longer than
//! `k`, the FF2 depth `k = 1024`, and activation rows carrying ±0.0,
//! denormals, ±Inf and NaN. NaN is compared by NaN-ness only: no kernel
//! promises a payload.
//!
//! The column-windowed entry (`PanelWeights::gemm_window`) is held the
//! same way, and twice: a column window that starts and ends inside a
//! panel, written into an output stride wider than the window, must
//! compute bitwise the oracle over the window's columns and bitwise the
//! window's columns of the whole GEMM, which is what lets the members of a
//! split pass each compute their own part of one output.
//!
//! The windowed paged attention entry a pass member runs over its heads is
//! held bitwise to a scalar oracle of the kernel it dispatches to — the
//! portable recurrence, or the SIMD kernel modelled operation by operation
//! (lane-order dot products and sums, the vector `exp`) — computed per head
//! from the head's own contiguous rows (see its test for the corpus). Miri and AddressSanitizer are not
//! installed on the runner this harness was built on, so the raw-pointer
//! kernels are checked by these differentials and their `debug_assert`
//! bounds contracts in debug builds, not under either tool.
//!
//! The harness compares kernel against oracle and pins no output, so a
//! declared numerics change that moves a kernel and its oracle together
//! keeps it green. Each output slice is followed by a guard region the
//! kernels must leave untouched.
//!
//! One report here gates nothing: [`row_block_drift_report`] times every
//! row block per SIMD tier on bench-256's GEMM shapes and prints the
//! measured winner beside the tier's constant cap (`dispatch::cap`), so a
//! host where a cap is wrong shows in the log.

use std::ops::Range;
use std::time::Instant;

use crate::blocked::{gemm_f32_with, matmul_bias_add_into, matmul_into, Epilogue, OutRows, PackedB, PanelWeights};
use crate::fused::bias_residual_inplace;
use crate::dispatch::{cap, GemmDtype, MR_CANDIDATES};
use crate::quant::{gemm_int8_with, matmul_quantized, QuantizedMatrix, QuantizedPackedB};
use crate::simd::Tier;
use crate::tensor::Tensor;

/// Off-panel widths and depths: below, around and across the 32-column
/// panel.
const DIMS: [usize; 7] = [1, 7, 31, 33, 63, 65, 77];
/// FF2's reduction depth on the benchmark model (`4 * hidden`).
const FF2_K: usize = 1024;
/// Two of the widest row block and a ragged one-row remainder.
const MAX_M: usize = 17;
/// Extra f32 `(k, n)` and INT8 `(k, n, group)` cases: the shapes the
/// kernel modules once checked in loops of their own.
const F32_CASES: [(usize, usize); 6] = [(48, 77), (64, 192), (33, 12), (64, 101), (16, 32), (20, 37)];
const INT8_CASES: [(usize, usize, usize); 5] =
    [(32, 16, 8), (48, 77, 16), (33, 40, 7), (64, 101, 32), (20, 37, 64)];
/// Floats after each output slice that no kernel may write.
const GUARD: usize = 16;
/// What output buffers hold before a kernel runs: finite, so an unwritten
/// element cannot pass as an oracle NaN.
const SENTINEL: f32 = -7.5e30;

fn shapes() -> impl Iterator<Item = (usize, usize)> {
    DIMS.iter()
        .chain(&[FF2_K])
        .flat_map(|&k| DIMS.iter().map(move |&n| (k, n)))
}

/// `MAX_M` activation rows of width `k`. Row `r` is of kind `r % 8`, so
/// every forced row block and every dispatch width mixes clean rows with
/// special ones, and a special value leaking across rows shows.
fn activations(k: usize, seed: u64) -> Tensor {
    let mut x = Tensor::randn(&[MAX_M, k], 1.0, seed);
    for r in 0..MAX_M {
        let row = x.row_mut(r);
        let at = (seed as usize * 31 + r * 7) % k;
        let sign = |i: usize| if i.is_multiple_of(2) { 1.0 } else { -1.0 };
        match r % 8 {
            // Signed zeros in every other lane.
            1 => {
                for (i, v) in row.iter_mut().step_by(2).enumerate() {
                    *v = sign(i) * 0.0;
                }
            }
            // Denormals of both signs in every third lane.
            2 => {
                for (i, v) in row.iter_mut().step_by(3).enumerate() {
                    *v = sign(i) * f32::from_bits(1 + (i as u32 * 0x1_0001) % 0x007f_ffff);
                }
            }
            3 => row[at] = f32::INFINITY,
            4 => row[at] = f32::NEG_INFINITY,
            5 => row[at] = f32::NAN,
            // Exponents over ±20 binades: products and sums round hard.
            6 => {
                for (i, v) in row.iter_mut().enumerate() {
                    *v *= 2f32.powi((i % 41) as i32 - 20);
                }
            }
            7 => row.fill(-0.0),
            _ => {}
        }
    }
    x
}

/// A `[k, n]` weight where every seventh column is all zero and another
/// every seventh is denormal; quantized, those get the zero-group scale
/// 1.0 and denormal scales.
fn weights(k: usize, n: usize, seed: u64) -> Tensor {
    let mut w = Tensor::randn(&[k, n], 0.5, seed);
    for i in 0..k {
        for (j, v) in w.row_mut(i).iter_mut().enumerate() {
            match j % 7 {
                3 => *v = 0.0,
                5 => *v *= 1e-39,
                _ => {}
            }
        }
    }
    w
}

/// The f32 contract: per output element, one sequential fused
/// multiply-add chain over `k` from `+0.0`, on the unpacked matrix.
fn matmul_f32_oracle(x: &Tensor, w: &Tensor) -> Vec<f32> {
    let (m, k, n) = (x.rows(), w.rows(), w.cols());
    let mut out = vec![0.0f32; m * n];
    for (i, orow) in out.chunks_exact_mut(n).enumerate() {
        for (j, o) in orow.iter_mut().enumerate() {
            *o = (0..k).fold(0.0f32, |acc, p| x.row(i)[p].mul_add(w.row(p)[j], acc));
        }
    }
    out
}

fn assert_same(got: &[f32], want: &[f32], what: &str) {
    let (out, guard) = got.split_at(want.len());
    assert!(
        guard.iter().all(|&g| g == SENTINEL),
        "{what}: wrote past the output"
    );
    for (i, (&g, &w)) in out.iter().zip(want).enumerate() {
        let same = if w.is_nan() {
            g.is_nan()
        } else {
            g.to_bits() == w.to_bits()
        };
        assert!(
            same,
            "{what}: element {i}: got {g:e} ({:#010x}), oracle {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// The tiers this host runs, lowest first.
fn host_tiers() -> impl Iterator<Item = Tier> {
    [Tier::Scalar, Tier::Avx2, Tier::Avx512]
        .into_iter()
        .filter(|&t| t <= Tier::host())
}

/// Run every executed path of one operand against `want`, the oracle's
/// `MAX_M`-row product: on every tier the host has, each forced row block
/// over all rows and the dispatched blocks at each row count.
fn check_paths(
    what: &str,
    a: &[f32],
    k: usize,
    n: usize,
    want: &[f32],
    gemm: impl Fn(&[f32], usize, &mut [f32], Tier, Option<usize>),
) {
    let fresh = |m: usize| vec![SENTINEL; m * n + GUARD];
    for tier in host_tiers() {
        for force in MR_CANDIDATES {
            let mut got = fresh(MAX_M);
            gemm(a, MAX_M, &mut got[..MAX_M * n], tier, Some(force));
            assert_same(&got, want, &format!("{what} {tier:?} force={force}"));
        }
        for m in 1..=MAX_M {
            let mut got = fresh(m);
            gemm(&a[..m * k], m, &mut got[..m * n], tier, None);
            assert_same(
                &got,
                &want[..m * n],
                &format!("{what} {tier:?} dispatch m={m}"),
            );
        }
    }
}

/// Print which kernel tiers a dtype's paths were checked on, so a log
/// shows whether the AVX-512 tier ran.
fn print_tiers(dtype: &str) {
    let checked: Vec<_> = host_tiers()
        .map(|t| format!("{t:?}").to_lowercase())
        .collect();
    let skipped = if Tier::host() < Tier::Avx512 {
        " (avx512 skipped: this host lacks it)"
    } else {
        ""
    };
    println!("{dtype} tiers checked: {}{skipped}", checked.join(", "));
}

#[test]
fn f32_paths_match_the_fma_oracle_bitwise() {
    print_tiers("f32");
    for (case, (k, n)) in shapes().chain(F32_CASES).enumerate() {
        let seed = case as u64;
        let x = activations(k, seed);
        let w = weights(k, n, seed + 500);
        let pb = PackedB::pack(&w);
        check_paths(
            &format!("f32 k={k} n={n}"),
            x.data(),
            k,
            n,
            &matmul_f32_oracle(&x, &w),
            |a, m, out, tier, force| {
                gemm_f32_with(&pb, 0..n, a, OutRows::new(out, m, n, 0..n), Epilogue::None, tier, force)
            },
        );
    }
}

/// The AVX-512 tier's 8-row block against eight AVX2 M = 1 rows, bit for
/// bit (NaN by NaN-ness), at every off-panel width: the two tiers agree
/// directly, not only through the oracle.
#[test]
fn avx512_eight_row_block_matches_eight_avx2_rows_bitwise() {
    if Tier::host() < Tier::Avx512 {
        println!("avx512 skipped: this host lacks it");
        return;
    }
    for (case, (k, n)) in shapes().enumerate() {
        let seed = case as u64;
        let x = activations(k, seed);
        let pb = PackedB::pack(&weights(k, n, seed + 500));
        let a = &x.data()[..8 * k];
        let mut want = vec![SENTINEL; 8 * n + GUARD];
        for (arow, orow) in a.chunks_exact(k).zip(want.chunks_exact_mut(n)) {
            gemm_f32_with(&pb, 0..n, arow, OutRows::new(orow, 1, n, 0..n), Epilogue::None, Tier::Avx2, Some(1));
        }
        let mut got = vec![SENTINEL; 8 * n + GUARD];
        let got_out = &mut got[..8 * n];
        gemm_f32_with(&pb, 0..n, a, OutRows::new(got_out, 8, n, 0..n), Epilogue::None, Tier::Avx512, Some(8));
        assert_same(&got, &want[..8 * n], &format!("avx512 vs avx2 k={k} n={n}"));
    }
}

#[test]
fn int8_paths_match_matmul_quantized_bitwise() {
    print_tiers("int8");
    let grid = shapes().flat_map(|(k, n)| [1, 7, 32, 64, k + 1].map(|group| (k, n, group)));
    for (case, (k, n, group)) in grid.chain(INT8_CASES).enumerate() {
        let seed = case as u64;
        let x = activations(k, seed);
        let wq = QuantizedMatrix::quantize(&weights(k, n, seed + 500), group);
        let qb = QuantizedPackedB::from_matrix(&wq);
        check_paths(
            &format!("int8 k={k} n={n} group={group}"),
            x.data(),
            k,
            n,
            matmul_quantized(&x, &wq).data(),
            |a, m, out, tier, force| {
                gemm_int8_with(&qb, 0..n, a, OutRows::new(out, m, n, 0..n), Epilogue::None, tier, force)
            },
        );
    }
}

/// The AVX-512 INT8 tier against AVX2 M = 1 rows, bit for bit (NaN by
/// NaN-ness): every forced row block, M = 1's two-panel passes included.
/// `DIMS` spans one to three panels, so the pairing's odd last panel runs;
/// groups of 7 leave a ragged last group at every depth here, 32 one at
/// `k = 33`; and the column windows start inside a panel, at an even and at
/// an odd panel index.
#[test]
fn avx512_int8_blocks_match_avx2_rows_bitwise() {
    if Tier::host() < Tier::Avx512 {
        println!("avx512 skipped: this host lacks it");
        return;
    }
    let grid = shapes().flat_map(|(k, n)| [7, 32].map(|group| (k, n, group)));
    for (case, (k, n, group)) in grid.enumerate() {
        let seed = case as u64;
        let qb = QuantizedPackedB::quantize_pack(&weights(k, n, seed + 500), group);
        let x = activations(k, seed + k as u64);
        let a = x.data();
        for cols in [0..n, 5.min(n - 1)..n, (n / 2).max(1) - 1..n] {
            let nw = cols.len();
            let mut want = vec![SENTINEL; MAX_M * nw + GUARD];
            for (arow, orow) in a.chunks_exact(k).zip(want.chunks_exact_mut(nw)) {
                let out = OutRows::new(orow, 1, nw, 0..nw);
                gemm_int8_with(&qb, cols.clone(), arow, out, Epilogue::None, Tier::Avx2, Some(1));
            }
            for force in MR_CANDIDATES {
                let mut got = vec![SENTINEL; MAX_M * nw + GUARD];
                let out = OutRows::new(&mut got[..MAX_M * nw], MAX_M, nw, 0..nw);
                gemm_int8_with(&qb, cols.clone(), a, out, Epilogue::None, Tier::Avx512, Some(force));
                let what = format!("int8 avx512 vs avx2 k={k} n={n} group={group} cols {cols:?} force={force}");
                assert_same(&got, &want[..MAX_M * nw], &what);
            }
        }
    }
}

/// f32 `(k, n)` and INT8 `(k, n, group)` operands the windowed entry is
/// checked on: ragged tail panels, and (INT8) a ragged last group.
const F32_WINDOWED: [(usize, usize); 2] = [(96, 100), (37, 77)];
const INT8_WINDOWED: [(usize, usize, usize); 3] = [(128, 100, 16), (100, 77, 32), (200, 70, 64)];

/// Column windows of an `n`-wide operand (`n > 48`): inside panel 0,
/// starting inside panel 0 and ending inside panel 1, starting inside the
/// odd panel 1 and ending inside the tail panel, and the whole width.
fn windows(n: usize) -> [Range<usize>; 4] {
    [5..27, 16..48, 33..n - 3, 0..n]
}

/// Columns `cols` of a row-major matrix.
fn sub(w: &Tensor, cols: &Range<usize>) -> Tensor {
    let data = (0..w.rows()).flat_map(|i| w.row(i)[cols.clone()].to_vec()).collect();
    Tensor::from_vec(&[w.rows(), cols.len()], data)
}

/// Columns `cols` of a quantized matrix: the same values under the same
/// scales.
fn sub_quantized(wq: &QuantizedMatrix, cols: &Range<usize>) -> QuantizedMatrix {
    let [k, n] = wq.shape;
    let q = (0..k).flat_map(|i| wq.q[i * n..][cols.clone()].to_vec()).collect();
    let groups = k.div_ceil(wq.group_size);
    let scales = (0..groups).flat_map(|g| wq.scales[g * n..][cols.clone()].to_vec()).collect();
    QuantizedMatrix { shape: [k, cols.len()], q, scales, group_size: wq.group_size }
}

/// Columns `cols` of each row of a row-major `[.., n]` product.
fn columns(full: &[f32], n: usize, cols: &Range<usize>) -> Vec<f32> {
    full.chunks_exact(n).flat_map(|row| row[cols.clone()].to_vec()).collect()
}

/// Run one windowed entry (`gemm(a, m, out, ldc, tier, force)`) on every
/// tier the host has, for m ∈ {1, 2, 4, 8, 16}, each at its forced row
/// block (16 runs as two 8-row blocks, the second at row offset 8) and at
/// the dispatched blocks, into outputs whose rows are the window's width
/// apart and 5 floats wider. Every output row must be the
/// matching row of each of `wants` (`MAX_M` rows of the window's `nw`
/// columns), and nothing between the rows or past the last one written.
fn check_window(
    what: &str,
    a: &[f32],
    k: usize,
    nw: usize,
    wants: [&[f32]; 2],
    gemm: impl Fn(&[f32], usize, &mut [f32], usize, Tier, Option<usize>),
) {
    for tier in host_tiers() {
        for m in [1, 2, 4, 8, 16] {
            for (force, ldc) in [Some(m), None].into_iter().flat_map(|f| [(f, nw), (f, nw + 5)]) {
                let span = (m - 1) * ldc + nw;
                let mut got = vec![SENTINEL; span + GUARD];
                gemm(&a[..m * k], m, &mut got[..span], ldc, tier, force);
                for want in wants {
                    let mut expect = vec![SENTINEL; span];
                    for (i, row) in want.chunks_exact(nw).take(m).enumerate() {
                        expect[i * ldc..i * ldc + nw].copy_from_slice(row);
                    }
                    assert_same(&got, &expect, &format!("{what} {tier:?} m={m} force={force:?} ldc={ldc}"));
                }
            }
        }
    }
}

/// The windowed entry, f32: every window of every operand, bitwise the
/// FMA oracle over the window's columns and bitwise the window's columns
/// of the whole GEMM.
#[test]
fn f32_windows_match_the_oracle_and_the_full_gemm_bitwise() {
    for (case, (k, n)) in F32_WINDOWED.into_iter().enumerate() {
        let w = weights(k, n, case as u64 + 700);
        let pb = PackedB::pack(&w);
        for (i, cols) in windows(n).into_iter().enumerate() {
            let nw = cols.len();
            let x = activations(k, (case * 100 + i) as u64);
            let oracle = matmul_f32_oracle(&x, &sub(&w, &cols));
            let mut full = vec![0.0f32; MAX_M * n];
            matmul_into(x.data(), MAX_M, &pb, &mut full);
            check_window(
                &format!("f32 k={k} n={n} cols {cols:?}"),
                x.data(),
                k,
                nw,
                [&oracle, &columns(&full, n, &cols)],
                |a, m, out, ldc, tier, force| {
                    let out = OutRows::new(out, m, ldc, 0..nw);
                    gemm_f32_with(&pb, cols.clone(), a, out, Epilogue::None, tier, force)
                },
            );
        }
    }
}

/// The windowed entry, INT8: bitwise `matmul_quantized` over the window's
/// columns of the quantized matrix and bitwise the window's columns of the
/// whole GEMM.
#[test]
fn int8_windows_match_the_oracle_and_the_full_gemm_bitwise() {
    for (case, (k, n, group)) in INT8_WINDOWED.into_iter().enumerate() {
        let wq = QuantizedMatrix::quantize(&weights(k, n, case as u64 + 800), group);
        let qb = QuantizedPackedB::from_matrix(&wq);
        for (i, cols) in windows(n).into_iter().enumerate() {
            let nw = cols.len();
            let x = activations(k, (case * 100 + i) as u64);
            let oracle = matmul_quantized(&x, &sub_quantized(&wq, &cols));
            let mut full = vec![0.0f32; MAX_M * n];
            matmul_into(x.data(), MAX_M, &qb, &mut full);
            check_window(
                &format!("int8 k={k} n={n} group={group} cols {cols:?}"),
                x.data(),
                k,
                nw,
                [oracle.data(), &columns(&full, n, &cols)],
                |a, m, out, ldc, tier, force| {
                    let out = OutRows::new(out, m, ldc, 0..nw);
                    gemm_int8_with(&qb, cols.clone(), a, out, Epilogue::None, tier, force)
                },
            );
        }
    }
}

/// The unfused oracle of the `BiasAdd` epilogue: `matmul_into` followed by
/// `bias_residual_inplace` must agree bit for bit (NaN by NaN-ness) with
/// the GEMM that fuses the same `o += bias + residual` into its output
/// pass, at every row count, so the fused W_o/FF2 tails change no bit of
/// the step they end.
#[test]
fn unfused_bias_residual_matches_the_fused_epilogue_bitwise() {
    fn check<B: PanelWeights>(what: &str, w: &B, x: &Tensor, bias: &[f32], res: &Tensor) {
        let n = w.n();
        for m in 1..=16 {
            let (a, r) = (&x.data()[..m * w.k()], &res.data()[..m * n]);
            let mut want = vec![SENTINEL; m * n + GUARD];
            matmul_bias_add_into(a, m, w, bias, r, &mut want[..m * n]);
            let mut got = vec![SENTINEL; m * n + GUARD];
            matmul_into(a, m, w, &mut got[..m * n]);
            bias_residual_inplace(&mut got[..m * n], bias, r);
            assert_same(&got, &want[..m * n], &format!("{what} m={m}"));
        }
    }
    for (case, (k, n)) in shapes().enumerate() {
        let seed = case as u64;
        let x = activations(k, seed);
        let res = activations(n, seed + 1000);
        let bias = Tensor::randn(&[n], 0.5, seed + 2000);
        let w = weights(k, n, seed + 500);
        check(&format!("f32 k={k} n={n}"), &PackedB::pack(&w), &x, bias.data(), &res);
        for group in [7, 64] {
            let qb = QuantizedPackedB::from_matrix(&QuantizedMatrix::quantize(&w, group));
            check(&format!("int8 k={k} n={n} group={group}"), &qb, &x, bias.data(), &res);
        }
    }
}

/// Scalar model of the SIMD `exp` (`simd::avx::exp_ps`), lane by lane:
/// the same clamp (NaN kept), round-half-even, two-step reduction and
/// fused polynomial, and `2^n` built in the exponent field.
fn exp_ps_oracle(x: f32) -> f32 {
    let x = if 88.376_26 < x { 88.376_26 } else { x };
    let x = if -88.376_26 > x { -88.376_26 } else { x };
    let n = (x * std::f32::consts::LOG2_E).round_ties_even();
    let r = (-n).mul_add(0.693_359_4, x);
    let r = (-n).mul_add(-2.121_944_4e-4, r);
    let p = [1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_5e-1, 0.5]
        .iter()
        .fold(1.987_569_1e-4f32, |p, &c| p.mul_add(r, c));
    let y = p.mul_add(r * r, r) + 1.0;
    y * f32::from_bits(((n as i32 + 127) << 23) as u32)
}

/// The SIMD horizontal sum's order over eight lanes.
fn hsum_oracle(v: &[f32; 8]) -> f32 {
    ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]))
}

/// Scalar oracle of one (query, head) online-softmax pass over `keys` and
/// `values` (one `d`-wide row per context position): the portable kernel's
/// recurrence, or — `simd`, as the kernel dispatches for `d % 8 == 0` on an
/// AVX2 host — the SIMD kernel's, modelled operation by operation: 8-lane
/// FMA dot products reduced in its lane order, one rescale per 8-key block,
/// `exp_ps` on the block's weights, FMA accumulation, and the portable
/// recurrence on the last `< 8` keys.
fn head_attention_oracle(q: &[f32], keys: &[&[f32]], values: &[&[f32]], simd: bool) -> Vec<f32> {
    let d = q.len();
    let scale = 1.0 / (d as f32).sqrt();
    let mut acc = vec![0.0f32; d];
    let (mut m_run, mut sum) = (f32::NEG_INFINITY, 0.0f32);
    let mut j = 0;
    while simd && j + 8 <= keys.len() {
        let score = |k: &[f32]| {
            let mut lanes = [0.0f32; 8];
            for t in (0..d).step_by(8) {
                for (l, lane) in lanes.iter_mut().enumerate() {
                    *lane = q[t + l].mul_add(k[t + l], *lane);
                }
            }
            hsum_oracle(&lanes) * scale
        };
        let s: Vec<f32> = keys[j..j + 8].iter().map(|k| score(k)).collect();
        let bm = s.iter().fold(m_run, |bm, &sc| if sc > bm { sc } else { bm });
        if bm > m_run {
            let corr = (m_run - bm).exp();
            sum *= corr;
            acc.iter_mut().for_each(|a| *a *= corr);
            m_run = bm;
        }
        let w: [f32; 8] = std::array::from_fn(|l| exp_ps_oracle(s[l] - m_run));
        sum += hsum_oracle(&w);
        for (l, &wl) in w.iter().enumerate() {
            for (a, &v) in acc.iter_mut().zip(values[j + l]) {
                *a = wl.mul_add(v, *a);
            }
        }
        j += 8;
    }
    for (k, v) in keys[j..].iter().zip(&values[j..]) {
        let s = crate::blocked::dot(q, k) * scale;
        if s > m_run {
            let corr = (m_run - s).exp();
            sum *= corr;
            acc.iter_mut().for_each(|a| *a *= corr);
            m_run = s;
        }
        let w = (s - m_run).exp();
        sum += w;
        for (a, &vv) in acc.iter_mut().zip(*v) {
            *a += w * vv;
        }
    }
    let inv = 1.0 / sum;
    acc.iter_mut().for_each(|a| *a *= inv);
    acc
}

/// The column-windowed paged attention entry
/// (`fused::attention_heads_paged_into`) — the one a member of a split pass
/// runs over the heads it owns, reading K/V through a page table over
/// pages laid out row by row (at the full arena row stride) and head by
/// head (each head's keys of a page one dense block) — held bitwise to the
/// scalar oracle of the kernel it dispatches to ([`head_attention_oracle`]),
/// computed per head from
/// that head's own contiguous `[ctx, head_dim]` rows (no page table, no
/// stride). Head dims 4 (the portable kernel) and 8 and 16 (the SIMD kernel
/// where the host has AVX2+FMA). Page sizes 3 and 5 put page boundaries
/// inside the SIMD kernel's 8-key blocks, contexts run
/// `1..=page_tokens + 1` (and 17, past two blocks), and the head range is
/// every part of every member count that divides the heads. The arena's
/// columns outside the range and its unused rows hold NaN, so a read
/// outside the window shows; queries carry NaN, ±Inf and denormals (NaN
/// compared by NaN-ness).
#[test]
fn windowed_paged_attention_matches_the_scalar_oracle_bitwise() {
    use crate::fused::{attention_heads_paged_into, KvArenas, PageTable};
    #[cfg(target_arch = "x86_64")]
    let simd_host = crate::simd::avx2_fma();
    #[cfg(not(target_arch = "x86_64"))]
    let simd_host = false;
    let queries = |width: usize, seed: u64| -> Vec<Vec<f32>> {
        let clean = Tensor::randn(&[1, width], 1.0, seed).data().to_vec();
        let with = |at: usize, v: f32| {
            let mut q = clean.clone();
            q[at % width] = v;
            q
        };
        let denormal = clean.iter().enumerate().map(|(i, &v)| if i % 3 == 0 { f32::from_bits(1 + i as u32) } else { v }).collect();
        vec![clean.clone(), with(1, f32::NAN), with(2, f32::INFINITY), with(0, f32::NEG_INFINITY), denormal]
    };
    for (heads, d) in [(4usize, 4usize), (4, 8), (6, 8), (8, 16)] {
        let h = heads * d;
        for pt in [1usize, 3, 5, 8] {
            for ctx in (1..=pt + 1).chain([17]) {
                let seed = (heads * 1000 + d * 100 + pt * 10 + ctx) as u64;
                let (k, v) = (Tensor::randn(&[ctx, h], 1.0, seed), Tensor::randn(&[ctx, h], 1.0, seed + 1));
                // Pages in reverse order with a gap: scattered on purpose.
                let n_pages = ctx.div_ceil(pt);
                let arena_pages = n_pages + 2;
                let pages: Vec<u32> = (0..n_pages).map(|p| (arena_pages - 1 - p) as u32).collect();
                let splits = (1..=heads).filter(|n| heads.is_multiple_of(*n));
                for (members, head_major) in splits.flat_map(|n| [(n, false), (n, true)]) {
                    for t in 0..members {
                        let range = t * heads / members..(t + 1) * heads / members;
                        let cols = range.start * d..range.end * d;
                        // Row by row, key (j, c) of page p sits at row
                        // `p·pt + j % pt`, column `c·d`; head by head, at
                        // `p·pt·h + c·pt·d + (j % pt)·d`.
                        let scatter = |src: &Tensor| {
                            let mut arena = vec![f32::NAN; arena_pages * pt * h];
                            for j in 0..ctx {
                                let (page, slot) = (pages[j / pt] as usize * pt * h, j % pt);
                                for c in range.clone() {
                                    let at = if head_major { page + c * pt * d + slot * d } else { page + slot * h + c * d };
                                    arena[at..at + d].copy_from_slice(&src.row(j)[c * d..(c + 1) * d]);
                                }
                            }
                            arena
                        };
                        let (ka, va) = (scatter(&k), scatter(&v));
                        let table = PageTable { pages: &pages, page_tokens: pt, len: ctx, offset: ctx - 1, head_major };
                        for (qi, q) in queries(cols.len(), seed + 7).into_iter().enumerate() {
                            let mut got = vec![SENTINEL; cols.len() + GUARD];
                            let kv = KvArenas::new(&ka, &va);
                            attention_heads_paged_into(&q, kv, &table, h, d, range.clone(), &mut got[..cols.len()]);
                            let mut want = Vec::with_capacity(cols.len());
                            for (i, hd) in range.clone().enumerate() {
                                let head = |src: &Tensor| -> Vec<Vec<f32>> {
                                    (0..ctx).map(|j| src.row(j)[hd * d..(hd + 1) * d].to_vec()).collect()
                                };
                                let (kh, vh) = (head(&k), head(&v));
                                let (kr, vr): (Vec<&[f32]>, Vec<&[f32]>) =
                                    (kh.iter().map(Vec::as_slice).collect(), vh.iter().map(Vec::as_slice).collect());
                                let simd = simd_host && d.is_multiple_of(8);
                                want.extend(head_attention_oracle(&q[i * d..(i + 1) * d], &kr, &vr, simd));
                            }
                            let what = format!("heads {heads}×{d} pt {pt} ctx {ctx} member {t}/{members} head-major {head_major} query {qi}");
                            assert_same(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }
}

/// bench-256's five GEMM shapes `[k, n]`: QKV, W_o, FF1, FF2 and the
/// logits.
const BENCH_SHAPES: [(usize, usize); 5] = [(256, 768), (256, 256), (256, 1024), (1024, 256), (256, 512)];

/// Not a check, a report: on each SIMD tier the host has, for f32 and INT8
/// (group 32, as bench-256 quantizes) at M ∈ {2, 4, 8, 16}, time every row
/// block `<= M` on the five bench-256 shapes, candidates alternating within
/// each of `reps` rounds, and print each block's median time over the
/// rounds (the five shapes summed, with the rounds' quartiles), the
/// measured winner and the block `dispatch` runs. In a release build a
/// dispatched block slower than the winner's upper quartile is flagged, so
/// a host where a cap is wrong shows in the log without failing it. A
/// debug build times unoptimized kernels once and flags nothing.
#[test]
fn row_block_drift_report() {
    let (reps, iters) = if cfg!(debug_assertions) { (1, 1) } else { (11, 8) };
    let build = if cfg!(debug_assertions) { " (debug build: unoptimized kernels, read a release run)" } else { "" };
    println!("row-block drift, bench-256 shapes, median [quartiles] µs of {reps} rounds × {iters} calls{build}:");
    let operands: Vec<_> = BENCH_SHAPES
        .iter()
        .map(|&(k, n)| {
            let w = Tensor::randn(&[k, n], 0.1, (k + n) as u64);
            (k, n, PackedB::pack(&w), QuantizedPackedB::quantize_pack(&w, 32))
        })
        .collect();
    let x = Tensor::randn(&[16, 1024], 1.0, 5);
    let mut out = vec![0.0f32; 16 * 1024];
    for tier in host_tiers().filter(|&t| t > Tier::Scalar) {
        for dtype in [GemmDtype::F32, GemmDtype::Int8] {
            // One forced-block GEMM of every operand, timed `iters` times
            // after a warm-up call; µs per call, the operands summed.
            let mut time = |m: usize, mr: usize| -> f64 {
                let mut us = 0.0;
                for (k, n, pb, qb) in &operands {
                    let (a, n) = (&x.data()[..m * k], *n);
                    let mut call = || {
                        let out = OutRows::new(&mut out[..m * n], m, n, 0..n);
                        match dtype {
                            GemmDtype::F32 => gemm_f32_with(pb, 0..n, a, out, Epilogue::None, tier, Some(mr)),
                            GemmDtype::Int8 => gemm_int8_with(qb, 0..n, a, out, Epilogue::None, tier, Some(mr)),
                        }
                    };
                    call();
                    let t0 = Instant::now();
                    (0..iters).for_each(|_| call());
                    us += t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
                }
                us
            };
            for m in [2, 4, 8, 16] {
                let cands: Vec<usize> = MR_CANDIDATES.iter().copied().filter(|&c| c <= m).collect();
                // Rounds alternate the candidates; each candidate's rounds
                // give its median and quartiles.
                let rounds: Vec<Vec<f64>> = (0..reps).map(|_| cands.iter().map(|&mr| time(m, mr)).collect()).collect();
                let stats: Vec<[f64; 3]> = (0..cands.len())
                    .map(|c| {
                        let mut t: Vec<f64> = rounds.iter().map(|round| round[c]).collect();
                        t.sort_by(f64::total_cmp);
                        [t[reps / 4], t[reps / 2], t[(3 * reps) / 4]]
                    })
                    .collect();
                let best = (0..cands.len()).min_by(|&a, &b| stats[a][1].total_cmp(&stats[b][1])).unwrap_or(0);
                let run = crate::dispatch::mr_for(m, tier, dtype);
                let at = cands.iter().position(|&c| c == run).unwrap_or(best);
                let times: Vec<String> = cands
                    .iter()
                    .zip(&stats)
                    .map(|(c, [q1, med, q3])| format!("{c}: {med:.1} [{q1:.1}–{q3:.1}]"))
                    .collect();
                let slow = !cfg!(debug_assertions) && stats[at][1] > stats[best][2];
                let flag = if slow { "  <- cap slower than the winner's spread" } else { "" };
                println!(
                    "  {tier:?} {dtype:?} M={m:2}: {}; winner {}, cap {} runs {run} ({:.2}×){flag}",
                    times.join(", "),
                    cands[best],
                    cap(tier, dtype),
                    stats[at][1] / stats[best][1],
                );
            }
        }
    }
    std::hint::black_box(&out);
}
