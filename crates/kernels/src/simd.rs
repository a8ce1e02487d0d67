//! Runtime-dispatched SIMD transcendentals for the executed fusion path.
//!
//! The fused epilogues spend most of their time in `tanh` (GeLU) and `exp`
//! (softmax) — on the hidden sizes of the tiny models a single decode token
//! makes thousands of scalar libm calls, which ends up costing more than the
//! GEMMs once those are register-blocked. This module provides 8-wide
//! AVX2+FMA implementations (classic Cephes range-reduction + degree-5
//! polynomial, ~1 ulp for `exp`), selected once at runtime; every entry
//! point falls back to scalar libm so results stay portable.
//!
//! NaN inputs propagate: the range clamp is ordered so an unordered compare
//! keeps the NaN operand, and every downstream step is arithmetic.

/// The widest kernel family the CPU runs. Tiers are ordered: a host of one
/// tier runs every tier below it, and every tier computes the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Tier {
    /// Portable scalar kernels: the correctness floor.
    Scalar,
    /// AVX2+FMA, 8 lanes.
    Avx2,
    /// AVX-512F on top of AVX2+FMA: the f32 panel GEMMs run 16 lanes.
    Avx512,
}

impl Tier {
    /// This host's tier, read from CPUID once per process.
    #[inline]
    pub(crate) fn host() -> Tier {
        static HOST: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
        *HOST.get_or_init(detect)
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Tier {
    use std::arch::is_x86_feature_detected as has;
    if !(has!("avx2") && has!("fma")) {
        Tier::Scalar
    } else if has!("avx512f") {
        Tier::Avx512
    } else {
        Tier::Avx2
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Tier {
    Tier::Scalar
}

/// Whether the AVX2+FMA kernels can run on this CPU.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx2_fma() -> bool {
    Tier::host() >= Tier::Avx2
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx {
    use std::arch::x86_64::*;

    /// 8-wide `exp(x)` (Cephes `expf`): `n = round(x/ln2)`, degree-5
    /// polynomial on the reduced argument, scale by `2^n` through the
    /// exponent bits.
    ///
    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn exp_ps(x: __m256) -> __m256 {
        // Clamp to the finite range of f32 exp. Operand order matters: with
        // `x` as the second operand, min/max return the NaN unchanged.
        let x = _mm256_min_ps(_mm256_set1_ps(88.376_26), x);
        let x = _mm256_max_ps(_mm256_set1_ps(-88.376_26), x);
        let n = _mm256_round_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        // r = x - n*ln2, ln2 split in two for extra bits.
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693_359_4), x);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.121_944_4e-4), r);
        // e^r ≈ 1 + r + r^2·P(r) on r ∈ [-ln2/2, ln2/2].
        let mut p = _mm256_set1_ps(1.987_569_1e-4);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.398_199_9e-3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.333_452e-3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.166_579_6e-2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.666_666_5e-1));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(0.5));
        let r2 = _mm256_mul_ps(r, r);
        let y = _mm256_add_ps(
            _mm256_fmadd_ps(p, r2, r),
            _mm256_set1_ps(1.0),
        );
        // 2^n via exponent-field construction.
        let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(
            _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)),
            23,
        ));
        _mm256_mul_ps(y, pow2n)
    }

    /// 8-wide `tanh(x) = 1 - 2/(e^{2x} + 1)`.
    ///
    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tanh_ps(x: __m256) -> __m256 {
        // SAFETY: `exp_ps` requires AVX2+FMA, which this fn's own contract
        // already guarantees.
        let e2x = unsafe { exp_ps(_mm256_add_ps(x, x)) };
        let one = _mm256_set1_ps(1.0);
        _mm256_sub_ps(
            one,
            _mm256_div_ps(_mm256_set1_ps(2.0), _mm256_add_ps(e2x, one)),
        )
    }

    /// 8-wide GeLU (tanh approximation), matching
    /// [`crate::blocked::gelu_scalar`].
    ///
    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gelu_ps(u: __m256) -> __m256 {
        let c = _mm256_set1_ps(0.797_884_6); // sqrt(2/pi)
        let u3 = _mm256_mul_ps(_mm256_mul_ps(u, u), u);
        let inner = _mm256_mul_ps(c, _mm256_fmadd_ps(_mm256_set1_ps(0.044715), u3, u));
        // SAFETY: `tanh_ps` requires AVX2+FMA, guaranteed by this fn's own
        // contract.
        let t = unsafe { tanh_ps(inner) };
        _mm256_mul_ps(
            _mm256_mul_ps(_mm256_set1_ps(0.5), u),
            _mm256_add_ps(_mm256_set1_ps(1.0), t),
        )
    }

    /// `row[j] = gelu(row[j] + bias[j])` for a full row, 8 lanes at a time,
    /// the tail too.
    ///
    /// # Safety
    /// Requires AVX2+FMA; `bias.len() == row.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn bias_gelu_row(row: &mut [f32], bias: &[f32]) {
        let n = row.len();
        debug_assert_eq!(bias.len(), n, "bias/row length mismatch");
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: `j + 8 <= n == row.len() == bias.len()` bounds both
            // loads and the store; `gelu_ps` requires AVX2+FMA, guaranteed
            // by this fn's own contract.
            unsafe {
                let v = _mm256_add_ps(
                    _mm256_loadu_ps(row.as_ptr().add(j)),
                    _mm256_loadu_ps(bias.as_ptr().add(j)),
                );
                _mm256_storeu_ps(row.as_mut_ptr().add(j), gelu_ps(v));
            }
            j += 8;
        }
        if j < n {
            // The tail through the same vector code, on a padded lane
            // buffer: an element's result depends on its value alone, never
            // on where a row or a column window starts.
            let (mut r, mut b) = ([0.0f32; 8], [0.0f32; 8]);
            r[..n - j].copy_from_slice(&row[j..]);
            b[..n - j].copy_from_slice(&bias[j..]);
            // SAFETY: `r` and `b` are 8 floats each; `gelu_ps` requires
            // AVX2+FMA, guaranteed by this fn's own contract.
            unsafe {
                let v = _mm256_add_ps(_mm256_loadu_ps(r.as_ptr()), _mm256_loadu_ps(b.as_ptr()));
                _mm256_storeu_ps(r.as_mut_ptr(), gelu_ps(v));
            }
            row[j..].copy_from_slice(&r[..n - j]);
        }
    }
}

/// `row[j] = gelu(row[j] + bias[j])`, vectorized when the CPU allows.
#[inline]
pub fn bias_gelu_row(row: &mut [f32], bias: &[f32]) {
    debug_assert_eq!(row.len(), bias.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        // SAFETY: feature support checked; lengths asserted above.
        unsafe { avx::bias_gelu_row(row, bias) };
        return;
    }
    for (v, &b) in row.iter_mut().zip(bias) {
        *v = crate::blocked::gelu_scalar(*v + b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_gelu_row_matches_scalar() {
        let n = 37; // exercises both the 8-wide body and the scalar tail
        let mut row: Vec<f32> = (0..n).map(|i| (i as f32 - 18.0) * 0.37).collect();
        let bias: Vec<f32> = (0..n).map(|i| (i as f32) * 0.05 - 1.0).collect();
        let want: Vec<f32> = row
            .iter()
            .zip(&bias)
            .map(|(&v, &b)| crate::blocked::gelu_scalar(v + b))
            .collect();
        bias_gelu_row(&mut row, &bias);
        for (g, w) in row.iter().zip(&want) {
            assert!((g - w).abs() <= 2e-6 * (1.0 + w.abs()), "{g} vs {w}");
        }
    }

    /// An element's GeLU does not depend on where its slice starts: a
    /// column window's epilogue is bitwise the whole row's.
    #[test]
    fn bias_gelu_of_a_window_is_bitwise_the_whole_rows() {
        let n = 37;
        let row: Vec<f32> = (0..n).map(|i| (i as f32 - 18.0) * 0.37).collect();
        let bias: Vec<f32> = (0..n).map(|i| (i as f32) * 0.05 - 1.0).collect();
        let mut whole = row.clone();
        bias_gelu_row(&mut whole, &bias);
        for (lo, hi) in [(0, 5), (3, 37), (5, 30), (12, 13), (29, 37)] {
            let mut part = row[lo..hi].to_vec();
            bias_gelu_row(&mut part, &bias[lo..hi]);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&part), bits(&whole[lo..hi]), "window {lo}..{hi}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_exp_matches_libm() {
        if !avx2_fma() {
            return;
        }
        use std::arch::x86_64::*;
        for base in [-80.0f32, -10.0, -1.0, -0.01, 0.0, 0.01, 1.0, 10.0, 80.0] {
            let xs: [f32; 8] = std::array::from_fn(|i| base + i as f32 * 0.123);
            let mut out = [0.0f32; 8];
            // SAFETY: avx2_fma() checked above.
            unsafe {
                _mm256_storeu_ps(out.as_mut_ptr(), avx::exp_ps(_mm256_loadu_ps(xs.as_ptr())));
            }
            for (x, got) in xs.iter().zip(out) {
                let want = x.exp();
                assert!(
                    (got - want).abs() <= 2e-6 * (1.0 + want.abs()),
                    "exp({x}) = {got}, want {want}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_exp_propagates_nan() {
        if !avx2_fma() {
            return;
        }
        use std::arch::x86_64::*;
        let xs = [f32::NAN, 0.0, 1.0, -1.0, f32::NAN, 2.0, 3.0, 4.0];
        let mut out = [0.0f32; 8];
        // SAFETY: avx2_fma() checked above.
        unsafe {
            _mm256_storeu_ps(out.as_mut_ptr(), avx::exp_ps(_mm256_loadu_ps(xs.as_ptr())));
        }
        assert!(out[0].is_nan() && out[4].is_nan());
        assert!((out[1] - 1.0).abs() < 1e-6);
    }
}
