//! Shape-adversarial differential harness for the packed GEMM kernels.
//!
//! Every executed path over [`PackedB`] and [`QuantizedPackedB`] — on each
//! kernel tier the host has (scalar, AVX2, AVX-512), each forced
//! microkernel row block and the measured dispatch at every row count
//! `1..=17` — is held **bitwise** to one scalar oracle per dtype on a fixed seed corpus: `k` and `n` off the
//! 32-column panel, quantization groups of 1, 7, 32, 64 and longer than
//! `k`, the FF2 depth `k = 1024`, and activation rows carrying ±0.0,
//! denormals, ±Inf and NaN. NaN is compared by NaN-ness only: no kernel
//! promises a payload.
//!
//! The harness compares kernel against oracle and pins no output, so a
//! declared numerics change that moves a kernel and its oracle together
//! keeps it green. Each output slice is followed by a guard region the
//! kernels must leave untouched.

use crate::blocked::{
    gemm_f32_with, matmul_bias_add_into, matmul_into, Epilogue, PackedB, PanelWeights,
};
use crate::fused::bias_residual_inplace;
use crate::dispatch::MR_CANDIDATES;
use crate::quant::{gemm_int8_with, matmul_quantized, QuantizedMatrix, QuantizedPackedB};
use crate::simd::Tier;
use crate::tensor::Tensor;

/// Off-panel widths and depths: below, around and across the 32-column
/// panel.
const DIMS: [usize; 7] = [1, 7, 31, 33, 63, 65, 77];
/// FF2's reduction depth on the benchmark model (`4 * hidden`).
const FF2_K: usize = 1024;
/// One past the widest dispatch table entry, so the widest row block is
/// followed by a ragged remainder.
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
/// over all rows and the measured dispatch at each row count.
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

#[test]
fn f32_paths_match_the_fma_oracle_bitwise() {
    let checked: Vec<_> = host_tiers()
        .map(|t| format!("{t:?}").to_lowercase())
        .collect();
    let skipped = if Tier::host() < Tier::Avx512 {
        " (avx512 skipped: this host lacks it)"
    } else {
        ""
    };
    println!("tiers checked: {}{skipped}", checked.join(", "));
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
            |a, m, out, tier, force| gemm_f32_with(a, m, &pb, out, Epilogue::None, tier, force),
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
            gemm_f32_with(arow, 1, &pb, orow, Epilogue::None, Tier::Avx2, Some(1));
        }
        let mut got = vec![SENTINEL; 8 * n + GUARD];
        let got_out = &mut got[..8 * n];
        gemm_f32_with(a, 8, &pb, got_out, Epilogue::None, Tier::Avx512, Some(8));
        assert_same(&got, &want[..8 * n], &format!("avx512 vs avx2 k={k} n={n}"));
    }
}

#[test]
fn int8_paths_match_matmul_quantized_bitwise() {
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
            |a, m, out, tier, force| gemm_int8_with(a, m, &qb, out, Epilogue::None, tier, force),
        );
    }
}

/// A tensor-parallel rank finishes W_o/FF2 as `matmul_into`, an all-reduce
/// and `bias_residual_inplace`; a single-process step fuses the same
/// `o += bias + residual` into the GEMM's epilogue. The two must agree bit
/// for bit (NaN by NaN-ness) at every row count, so a tp = 1 rank reproduces
/// the fast path's logits exactly.
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
