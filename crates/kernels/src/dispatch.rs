//! Measured microkernel dispatch for the executed fast path — the CPU
//! analog of the paper's batch-size-dependent GEMM switch (SBI-GeMM below
//! the crossover batch, cuBLAS above it, Sec. III-C; GDEV-AI's point that
//! the crossover must be *measured*, not assumed).
//!
//! Each `(row count, dtype)` pair maps to a microkernel row-block `MR`.
//! The mapping is calibrated once per process at first use ("pack time"):
//! every candidate `MR` is timed, on the kernel tier the host will run, on
//! a synthetic decode-shaped GEMM (`k = n = 256`) and the winner recorded
//! per batch width. A static fallback covers hosts without AVX2.
//!
//! That operand is 256 KiB of f32, so it stays resident in a core's L2 on
//! hosts with 1 MiB or more: a row block that re-reads the panels pays L2,
//! not DRAM, prices. That is why the AVX2 tier picks `MR = 2` at 8 rows
//! (`gemm_block::<2, 4>` four times) over `<8, 1>`, which re-walks each
//! panel four times at a 128-byte stride. The AVX-512 tier reads a panel
//! once per block at any `MR`; on a Sapphire Rapids core (2 MiB L2) its
//! calibration picks 8 at 8 rows.
//!
//! Correctness never depends on the table: every candidate accumulates each
//! output element in the same order on every tier (see
//! `blocked::gemm_block`), so dispatch is purely a performance decision.

use crate::blocked::{Epilogue, PackedB, Window};
use crate::quant::{QuantizedMatrix, QuantizedPackedB};
use crate::simd::Tier;
use crate::tensor::Tensor;
use std::sync::OnceLock;
use std::time::Instant;

/// Element type of the packed GEMM operand being dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmDtype {
    F32,
    Int8,
}

/// Microkernel row counts, largest first. On the AVX2 tier 16 deliberately
/// exceeds the 16-YMM register budget (its accumulators spill); it is
/// included so the measurement — not an assumption — decides whether it
/// ever wins. The AVX-512 tier runs 16 as two 8-row blocks: 16 × 2 zmm
/// accumulators would spill too.
pub const MR_CANDIDATES: [usize; 5] = [16, 8, 4, 2, 1];

/// Largest batch width with its own table entry; wider GEMMs reuse it.
pub const MAX_M: usize = 16;

/// Largest candidate `MR` that is `<= m` (and at least 1).
pub fn largest_candidate_le(m: usize) -> usize {
    for &c in &MR_CANDIDATES {
        if c <= m {
            return c;
        }
    }
    1
}

/// The calibrated `(m, dtype) -> MR` table.
#[derive(Debug, Clone)]
pub struct DispatchTable {
    /// Entry `m` holds the microkernel row count for an `m`-row GEMM
    /// (index 0 unused).
    pub f32_mr: [usize; MAX_M + 1],
    pub int8_mr: [usize; MAX_M + 1],
}

impl DispatchTable {
    /// The microkernel row count for the next block of an `m`-row GEMM.
    /// Guaranteed to be a candidate `<= m`.
    pub fn mr_for(&self, m: usize, dtype: GemmDtype) -> usize {
        let entry = match dtype {
            GemmDtype::F32 => self.f32_mr[m.min(MAX_M)],
            GemmDtype::Int8 => self.int8_mr[m.min(MAX_M)],
        };
        largest_candidate_le(entry.min(m))
    }
}

/// Static fallback: a per-dtype cap on the row block (one 64-byte weight
/// line holds 16 f32 or 64 INT8 elements, so INT8 amortizes over more rows
/// before it leaves the bandwidth-bound regime), and a power-of-two block
/// never overshoots the remaining rows.
fn fallback_table(dtype: GemmDtype) -> [usize; MAX_M + 1] {
    let cap = match dtype {
        GemmDtype::F32 => 4,
        GemmDtype::Int8 => 8,
    };
    let mut t = [1usize; MAX_M + 1];
    for (m, e) in t.iter_mut().enumerate().skip(1) {
        *e = largest_candidate_le(m.min(cap));
    }
    t
}

/// Deterministic pseudo-random fill for the calibration operands (no RNG
/// dependency in this crate; values only need to be non-degenerate).
fn lcg_fill(len: usize, seed: u32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            ((s >> 9) as f32 / (1 << 23) as f32) - 1.0
        })
        .collect()
}

/// Time one forced-`mr` GEMM configuration; returns the best-of-reps
/// duration in nanoseconds for `iters` back-to-back calls.
fn time_config(mut run: impl FnMut(), iters: usize) -> u128 {
    run(); // warm: page in operands, settle the branch predictors
    let mut best = u128::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            run();
        }
        best = best.min(t0.elapsed().as_nanos());
    }
    best
}

/// Batch widths actually timed; intermediate widths inherit the nearest
/// measured width below them.
const PROBE_M: [usize; 5] = [1, 2, 4, 8, 16];

fn calibrate() -> DispatchTable {
    let mut table = DispatchTable {
        f32_mr: fallback_table(GemmDtype::F32),
        int8_mr: fallback_table(GemmDtype::Int8),
    };
    let tier = Tier::host();
    if tier > Tier::Scalar {
        // Decode-shaped operands: skinny activations against a square-ish
        // weight big enough that the weight stream dominates.
        let (k, n) = (256usize, 256usize);
        let b = Tensor::from_vec(&[k, n], lcg_fill(k * n, 7));
        let pb = PackedB::pack(&b);
        let qb = QuantizedPackedB::from_matrix(&QuantizedMatrix::quantize(&b, 64));
        let a = lcg_fill(MAX_M * k, 11);
        let mut out = vec![0.0f32; MAX_M * n];
        for dtype in [GemmDtype::F32, GemmDtype::Int8] {
            let mut chosen = [0usize; MAX_M + 1];
            for &m in &PROBE_M {
                let iters = (32 / m).max(2);
                let mut best = (u128::MAX, 1usize);
                for &cand in &MR_CANDIDATES {
                    if cand > m {
                        continue;
                    }
                    let ns = match dtype {
                        GemmDtype::F32 => time_config(
                            || {
                                crate::blocked::gemm_f32_with(
                                    &pb,
                                    &Window::full(&pb),
                                    &a[..m * k],
                                    crate::blocked::OutRows::new(&mut out[..m * n], m, n, 0..n),
                                    Epilogue::None,
                                    tier,
                                    Some(cand),
                                )
                            },
                            iters,
                        ),
                        GemmDtype::Int8 => time_config(
                            || {
                                crate::quant::gemm_int8_with(
                                    &qb,
                                    &Window::full(&qb),
                                    &a[..m * k],
                                    crate::blocked::OutRows::new(&mut out[..m * n], m, n, 0..n),
                                    Epilogue::None,
                                    tier,
                                    Some(cand),
                                )
                            },
                            iters,
                        ),
                    };
                    if ns < best.0 {
                        best = (ns, cand);
                    }
                }
                chosen[m] = best.1;
            }
            // Fill unprobed widths from the nearest probed width below.
            let mut last = 1;
            for (m, e) in chosen.iter_mut().enumerate().skip(1) {
                if PROBE_M.contains(&m) {
                    last = *e;
                } else {
                    *e = largest_candidate_le(last.min(m));
                }
            }
            match dtype {
                GemmDtype::F32 => table.f32_mr = chosen,
                GemmDtype::Int8 => table.int8_mr = chosen,
            }
        }
        // `out` participated in every timing; keep the compiler honest.
        std::hint::black_box(&out);
    }
    table
}

static TABLE: OnceLock<DispatchTable> = OnceLock::new();

/// The process-wide calibrated table (built on first use).
pub fn table() -> &'static DispatchTable {
    TABLE.get_or_init(calibrate)
}

/// The microkernel row count for the next block of an `m`-row GEMM.
pub fn mr_for(m: usize, dtype: GemmDtype) -> usize {
    table().mr_for(m, dtype)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_entries_are_valid_candidates() {
        let t = table();
        for m in 1..=MAX_M {
            for dtype in [GemmDtype::F32, GemmDtype::Int8] {
                let mr = t.mr_for(m, dtype);
                assert!(MR_CANDIDATES.contains(&mr), "m={m} mr={mr}");
                assert!(mr <= m, "m={m} mr={mr}");
            }
        }
        // Wider-than-table GEMMs reuse the widest entry.
        assert_eq!(t.mr_for(1000, GemmDtype::F32), t.mr_for(MAX_M, GemmDtype::F32));
    }

    #[test]
    fn fallback_is_monotone_and_capped() {
        for dtype in [GemmDtype::F32, GemmDtype::Int8] {
            let t = fallback_table(dtype);
            for m in 1..MAX_M {
                assert!(t[m] <= t[m + 1], "fallback not monotone at {m}");
                assert!(t[m] <= m);
            }
        }
        // The caps as literals: f32 blocks stop at 4 rows, INT8 at 8.
        assert_eq!(
            fallback_table(GemmDtype::F32),
            [1, 1, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]
        );
        assert_eq!(
            fallback_table(GemmDtype::Int8),
            [1, 1, 2, 2, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8]
        );
    }

    #[test]
    fn largest_candidate_le_basics() {
        assert_eq!(largest_candidate_le(0), 1);
        assert_eq!(largest_candidate_le(1), 1);
        assert_eq!(largest_candidate_le(3), 2);
        assert_eq!(largest_candidate_le(7), 4);
        assert_eq!(largest_candidate_le(15), 8);
        assert_eq!(largest_candidate_le(100), 16);
    }
}
