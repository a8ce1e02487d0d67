//! Row-block dispatch for the executed fast path — the CPU analog of the
//! paper's batch-size-dependent GEMM switch (SBI-GeMM below the crossover
//! batch, cuBLAS above it, Sec. III-C; GDEV-AI's point that the crossover
//! must be *measured*, not assumed).
//!
//! An `m`-row GEMM runs in microkernel row blocks: a block of `MR` rows
//! reads each weight panel once for all of them, so a wider block streams
//! fewer weight bytes per row until its accumulators outgrow the registers.
//! Each kernel tier has one cap per dtype, and a block is the largest
//! candidate no wider than the cap and the rows left. The caps are
//! constants, measured on bench-256's five GEMM shapes with the tier forced
//! (DESIGN.md, "Row-block caps"). The AVX-512 tier reads each panel once
//! per block at any `MR`, so 8 rows win for both dtypes. The AVX2 tier's
//! f32 `<8, 1>` re-walks each panel four times, so there four `<2, 4>`
//! blocks beat it at 8 rows and the cap is 2; its INT8 kernel is bound by
//! the conversions, which `<8, 1>` amortizes best, so that cap is 8. The
//! scalar tier runs one row at a time. The differential harness's drift
//! report re-times every candidate per tier and prints the winner beside
//! the cap, so a host where a constant is wrong shows in its log.
//!
//! Correctness never depends on the cap: every candidate accumulates each
//! output element in the same order on every tier (see
//! `blocked::gemm_block`), so dispatch is purely a performance decision,
//! and every process of a host runs the same blocks.

use crate::simd::Tier;

/// Element type of the packed GEMM operand being dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmDtype {
    F32,
    Int8,
}

/// Microkernel row counts, largest first: every block some tier's cap
/// selects, down to the one-row GEMV.
pub const MR_CANDIDATES: [usize; 4] = [8, 4, 2, 1];

/// Largest candidate `MR` that is `<= m` (and at least 1).
pub fn largest_candidate_le(m: usize) -> usize {
    for &c in &MR_CANDIDATES {
        if c <= m {
            return c;
        }
    }
    1
}

/// The widest row block `tier`'s kernels run for `dtype`.
pub(crate) fn cap(tier: Tier, dtype: GemmDtype) -> usize {
    match (tier, dtype) {
        (Tier::Scalar, _) => 1,
        (Tier::Avx2, GemmDtype::F32) => 2,
        (Tier::Avx2, GemmDtype::Int8) => 8,
        (Tier::Avx512, _) => 8,
    }
}

/// The microkernel row count for the next block of an `m`-row GEMM on
/// `tier`'s kernels: a candidate `<= m`.
pub(crate) fn mr_for(m: usize, tier: Tier, dtype: GemmDtype) -> usize {
    largest_candidate_le(m.min(cap(tier, dtype)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIERS: [Tier; 3] = [Tier::Scalar, Tier::Avx2, Tier::Avx512];

    /// The caps as literals, so a change to one is a visible diff here.
    #[test]
    fn caps_are_pinned() {
        let caps = TIERS.map(|t| [cap(t, GemmDtype::F32), cap(t, GemmDtype::Int8)]);
        assert_eq!(caps, [[1, 1], [2, 8], [8, 8]]);
        for c in caps.as_flattened() {
            assert!(MR_CANDIDATES.contains(c), "cap {c} is not a candidate");
        }
    }

    /// Every candidate is some tier's block, and every row count gets a
    /// candidate no wider than itself, never narrower than at fewer rows.
    #[test]
    fn mr_for_is_a_candidate_le_m_and_monotone() {
        for dtype in [GemmDtype::F32, GemmDtype::Int8] {
            for tier in TIERS {
                let mut last = 1;
                for m in 1..=64 {
                    let mr = mr_for(m, tier, dtype);
                    assert!(MR_CANDIDATES.contains(&mr) && mr <= m, "{tier:?} {dtype:?} m={m} mr={mr}");
                    assert!(mr >= last, "{tier:?} {dtype:?} not monotone at m={m}");
                    last = mr;
                }
                assert_eq!(last, cap(tier, dtype));
            }
        }
        for c in MR_CANDIDATES {
            let dtypes = [GemmDtype::F32, GemmDtype::Int8];
            let selected = TIERS.iter().any(|&t| dtypes.iter().any(|&d| mr_for(c, t, d) == c));
            assert!(selected, "no tier selects {c}");
        }
    }

    #[test]
    fn largest_candidate_le_basics() {
        assert_eq!(largest_candidate_le(0), 1);
        assert_eq!(largest_candidate_le(1), 1);
        assert_eq!(largest_candidate_le(3), 2);
        assert_eq!(largest_candidate_le(7), 4);
        assert_eq!(largest_candidate_le(15), 8);
        assert_eq!(largest_candidate_le(100), 8);
    }
}
