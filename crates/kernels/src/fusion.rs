//! Deep-Fusion (Sec. III-B): partition a layer's op list into fused regions
//! under the tile-dependency legality rule, and recompute costs with interior
//! activations held in registers/shared memory.
//!
//! Fusion legality: "two operators can be fused using Deep-Fusion if each
//! tile of the second operator depends on exactly one output tile of the
//! first" — which holds exactly when the two ops share a tileable axis. A
//! region is legal iff every adjacent pair shares an axis.
//!
//! Cost effect of fusing a region:
//! * launches: 1 (vs one — or several, for eager frameworks — per op),
//! * weight bytes: unchanged (weights always stream from HBM),
//! * activation traffic: only the region's *boundary* tensors hit HBM; all
//!   interior producer→consumer tensors stay on-chip ("the data produced by
//!   each tile is either kept in registers or in shared memory").

use crate::cost::KernelCost;
use crate::graph::{OpDesc, OpKind};
use dsi_sim::hw::DType;
use serde::Serialize;

/// A partition of an op list into contiguous fused regions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FusionPlan {
    /// Each region is a contiguous, non-empty range of op indices; regions
    /// must cover `0..n` in order.
    pub regions: Vec<(usize, usize)>,
}

/// Ways a plan can be rejected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum FusionError {
    /// Regions don't tile `0..n` contiguously.
    BadPartition,
    /// Adjacent ops in a region share no tileable axis. Carries both the op
    /// indices and their names, so the error is actionable without the op
    /// list at hand.
    NoSharedAxis {
        left: usize,
        right: usize,
        left_name: &'static str,
        right_name: &'static str,
    },
}

impl std::fmt::Display for FusionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FusionError::BadPartition => write!(f, "regions do not partition the op list"),
            FusionError::NoSharedAxis {
                left,
                right,
                left_name,
                right_name,
            } => {
                write!(
                    f,
                    "ops {left} (`{left_name}`) and {right} (`{right_name}`) share no tileable axis; cannot fuse"
                )
            }
        }
    }
}

impl std::error::Error for FusionError {}

impl FusionPlan {
    /// Every op in its own region (the eager / unfused baseline).
    pub fn unfused(n_ops: usize) -> Self {
        FusionPlan {
            regions: (0..n_ops).map(|i| (i, i + 1)).collect(),
        }
    }

    /// The DeepSpeed small-batch plan of Fig. 1(c): five fused regions
    /// around the GEMMs — (1) input layer-norm + QKV GEMM (+bias),
    /// (2) transposition + attention, (3) attention-output GEMM + bias +
    /// residual, (4) post-attention layer-norm + FF1 GEMM + GeLU, and
    /// (5) FF2 GEMM + bias + residual. Indices refer to
    /// [`crate::graph::transformer_layer_ops`]. These are the regions
    /// `dsi_model::fast::step` runs per layer at every batch size, with the
    /// K/V write inside (2); `dsi-verify` holds a live pass's record to
    /// this plan.
    pub fn deepspeed_small_batch() -> Self {
        FusionPlan {
            regions: vec![(0, 3), (3, 5), (5, 7), (7, 10), (10, 12)],
        }
    }

    /// The DeepSpeed large-batch plan (Sec. III-D): "we follow the same
    /// fusion strategy ... with the difference that we use CUBLAS for GeMM
    /// operations, and keep them unfused". GEMMs stand alone; the non-GEMM
    /// chains between them stay fused.
    pub fn deepspeed_large_batch() -> Self {
        FusionPlan {
            regions: vec![
                (0, 1),   // ln_1
                (1, 2),   // qkv_gemm (cuBLAS, unfused)
                (2, 5),   // qkv_bias + transpose + attention
                (5, 6),   // attn_out_gemm
                (6, 8),   // bias+residual + ln_2
                (8, 9),   // ff1_gemm
                (9, 10),  // gelu_bias
                (10, 11), // ff2_gemm
                (11, 12), // bias+residual
            ],
        }
    }

    /// FasterTransformer-style fusion: attention block fused, biases fused
    /// with activations, but no layer-norm/GEMM cross-fusion and no custom
    /// GEMM (the baseline of Fig. 6).
    pub fn faster_transformer() -> Self {
        FusionPlan {
            regions: vec![
                (0, 1),
                (1, 2),
                (2, 5), // qkv_bias + transpose + attention
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (11, 12),
            ],
        }
    }
}

/// A fused kernel: one launch covering a region of ops.
#[derive(Debug, Clone, Serialize)]
pub struct FusedKernel {
    pub name: String,
    pub cost: KernelCost,
    /// Launches this kernel costs on an optimized runtime.
    pub launches: usize,
    /// Launches on an eager framework (sum of micro-launches).
    pub eager_launches: usize,
    /// Activation rows `m` of the largest GEMM in the region (drives the
    /// GEMM efficiency curves); `None` if the region has no GEMM.
    pub gemm_rows: Option<usize>,
    /// Region contains an attention op (uses attention efficiency).
    pub has_attention: bool,
}

fn shares_axis(a: &OpDesc, b: &OpDesc) -> bool {
    a.tile_axes.iter().any(|ax| b.tile_axes.contains(ax))
}

/// Check a plan against an op list and return **all** legality violations
/// (an empty vector means the plan is legal). `fuse` keeps its fail-fast
/// `Result` API on top of this; static tooling (`dsi-verify`) wants the
/// complete list.
pub fn validate(ops: &[OpDesc], plan: &FusionPlan) -> Vec<FusionError> {
    let mut errs = Vec::new();
    // Partition check: regions must tile `0..ops.len()` contiguously. A
    // broken partition makes per-region axis checks meaningless, so report
    // it alone.
    let mut expect = 0usize;
    let mut partition_ok = true;
    for &(lo, hi) in &plan.regions {
        if lo != expect || hi <= lo || hi > ops.len() {
            partition_ok = false;
            break;
        }
        expect = hi;
    }
    if !partition_ok || expect != ops.len() {
        errs.push(FusionError::BadPartition);
        return errs;
    }
    for &(lo, hi) in &plan.regions {
        let region = &ops[lo..hi];
        // Legality: each adjacent producer→consumer pair must share a tile
        // axis ("each tile of the second operator depends on exactly one
        // output tile of the first"). The tiling axis may change across a
        // pair boundary — the fused kernel re-tiles through shared memory,
        // as the paper's transposition+attention region does.
        for i in 0..region.len() - 1 {
            if !shares_axis(&region[i], &region[i + 1]) {
                errs.push(FusionError::NoSharedAxis {
                    left: lo + i,
                    right: lo + i + 1,
                    left_name: region[i].name,
                    right_name: region[i + 1].name,
                });
            }
        }
    }
    errs
}

/// Apply a fusion plan to an op list, checking legality and producing fused
/// kernels with boundary-only activation traffic.
pub fn fuse(
    ops: &[OpDesc],
    plan: &FusionPlan,
    act_dtype: DType,
) -> Result<Vec<FusedKernel>, FusionError> {
    if let Some(err) = validate(ops, plan).into_iter().next() {
        return Err(err);
    }

    let mut out = Vec::with_capacity(plan.regions.len());
    for &(lo, hi) in &plan.regions {
        let region = &ops[lo..hi];
        let mut cost = KernelCost::default();
        let mut eager = 0usize;
        let mut gemm_rows = None;
        let mut has_attention = false;
        for (i, op) in region.iter().enumerate() {
            let c = op.cost(act_dtype);
            cost.flops += c.flops;
            cost.weight_bytes += c.weight_bytes;
            eager += op.micro_launches;
            match op.kind {
                OpKind::Gemm { m, .. } => {
                    gemm_rows = Some(gemm_rows.map_or(m, |g: usize| g.max(m)));
                }
                OpKind::Attention { .. } => has_attention = true,
                _ => {}
            }
            // Boundary traffic: the first op's reads enter from HBM and the
            // last op's writes leave to HBM. Interior tensors stay on-chip,
            // *except* extra external operands (residual inputs), which are
            // reads from outside the region regardless of position.
            if i == 0 {
                cost.act_read += c.act_read;
            } else if let OpKind::Elementwise {
                elems,
                extra_input: true,
            } = op.kind
            {
                cost.act_read += elems as f64 * act_dtype.bytes() as f64;
            }
            if i == region.len() - 1 {
                cost.act_write += c.act_write;
            }
        }
        let name = region
            .iter()
            .map(|o| o.name)
            .collect::<Vec<_>>()
            .join("+");
        out.push(FusedKernel {
            name,
            cost,
            launches: 1,
            eager_launches: eager,
            gemm_rows,
            has_attention,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::transformer_layer_ops;
    use proptest::prelude::*;

    fn ops() -> Vec<OpDesc> {
        transformer_layer_ops(1, 1, 128, 512, 8, DType::Fp16)
    }

    #[test]
    fn unfused_plan_is_identity() {
        let ops = ops();
        let fused = fuse(&ops, &FusionPlan::unfused(ops.len()), DType::Fp16).unwrap();
        assert_eq!(fused.len(), ops.len());
        for (f, o) in fused.iter().zip(&ops) {
            let c = o.cost(DType::Fp16);
            assert_eq!(f.cost.act_read, c.act_read);
            assert_eq!(f.cost.act_write, c.act_write);
        }
    }

    #[test]
    fn deepspeed_plans_are_legal() {
        let ops = ops();
        assert!(fuse(&ops, &FusionPlan::deepspeed_small_batch(), DType::Fp16).is_ok());
        assert!(fuse(&ops, &FusionPlan::deepspeed_large_batch(), DType::Fp16).is_ok());
        assert!(fuse(&ops, &FusionPlan::faster_transformer(), DType::Fp16).is_ok());
    }

    #[test]
    fn fusion_preserves_flops_and_weights() {
        let ops = ops();
        let unfused = fuse(&ops, &FusionPlan::unfused(ops.len()), DType::Fp16).unwrap();
        let fused = fuse(&ops, &FusionPlan::deepspeed_small_batch(), DType::Fp16).unwrap();
        let sum = |ks: &[FusedKernel], f: fn(&KernelCost) -> f64| -> f64 {
            ks.iter().map(|k| f(&k.cost)).sum()
        };
        assert_eq!(sum(&unfused, |c| c.flops), sum(&fused, |c| c.flops));
        assert_eq!(
            sum(&unfused, |c| c.weight_bytes),
            sum(&fused, |c| c.weight_bytes)
        );
    }

    #[test]
    fn fusion_reduces_activation_traffic_and_launches() {
        let ops = ops();
        let unfused = fuse(&ops, &FusionPlan::unfused(ops.len()), DType::Fp16).unwrap();
        let fused = fuse(&ops, &FusionPlan::deepspeed_small_batch(), DType::Fp16).unwrap();
        let traffic = |ks: &[FusedKernel]| -> f64 {
            ks.iter().map(|k| k.cost.act_read + k.cost.act_write).sum()
        };
        assert!(traffic(&fused) < traffic(&unfused));
        let launches = |ks: &[FusedKernel]| -> usize { ks.iter().map(|k| k.launches).sum() };
        assert_eq!(launches(&fused), 5);
        assert_eq!(launches(&unfused), 12);
    }

    #[test]
    fn residual_read_survives_fusion() {
        // Region (5,7) = attn_out_gemm + bias_residual: the residual stream
        // must still be read from HBM even though the gemm output is fused.
        let ops = ops();
        let fused = fuse(&ops, &FusionPlan::deepspeed_small_batch(), DType::Fp16).unwrap();
        let region = &fused[2];
        assert!(region.name.contains("attn_bias_residual"));
        let m_h_bytes = (512 * 2) as f64;
        // reads: gemm input (m×h) + residual (m×h).
        assert!(region.cost.act_read >= 2.0 * m_h_bytes);
    }

    #[test]
    fn illegal_partition_rejected() {
        let ops = ops();
        let bad = FusionPlan {
            regions: vec![(0, 5), (6, 12)], // gap at 5
        };
        assert_eq!(
            fuse(&ops, &bad, DType::Fp16).unwrap_err(),
            FusionError::BadPartition
        );
    }

    #[test]
    fn no_shared_axis_rejected() {
        // attention tiles only along Head; attn_out_gemm tiles along
        // Token/OutputCol — fusing them directly must be rejected.
        let ops = ops();
        let bad = FusionPlan {
            regions: vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 6), (6, 12)],
        };
        let err = fuse(&ops, &bad, DType::Fp16).unwrap_err();
        assert!(matches!(
            err,
            FusionError::NoSharedAxis {
                left: 4,
                right: 5,
                left_name: "attention",
                right_name: "attn_out_gemm",
            }
        ));
        assert!(err.to_string().contains("attention"), "{err}");
    }

    #[test]
    fn validate_returns_all_violations() {
        use crate::graph::Axis;
        let op = |name: &'static str, axes: &'static [Axis]| OpDesc {
            name,
            kind: OpKind::Elementwise { elems: 8, extra_input: false },
            tile_axes: axes,
            micro_launches: 1,
        };
        // Token|Head|Token fused into one region: both adjacencies break.
        let chain = [
            op("a", &[Axis::Token]),
            op("b", &[Axis::Head]),
            op("c", &[Axis::Token]),
        ];
        let errs = validate(&chain, &FusionPlan { regions: vec![(0, 3)] });
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(matches!(errs[0], FusionError::NoSharedAxis { left: 0, right: 1, .. }));
        assert!(matches!(errs[1], FusionError::NoSharedAxis { left: 1, right: 2, .. }));
        // A partition defect is reported alone.
        let gap = FusionPlan { regions: vec![(0, 5), (6, 12)] };
        assert_eq!(validate(&ops(), &gap), vec![FusionError::BadPartition]);
    }

    #[test]
    fn eager_launch_counts_exceed_fused() {
        let ops = ops();
        let fused = fuse(&ops, &FusionPlan::unfused(ops.len()), DType::Fp16).unwrap();
        let eager: usize = fused.iter().map(|k| k.eager_launches).sum();
        let opt: usize = fused.iter().map(|k| k.launches).sum();
        assert!(eager > 2 * opt, "eager {eager} opt {opt}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `validate`'s verdict agrees with `fuse`'s `Result` on random
        /// partitions of the canonical layer, some tampered into
        /// non-partitions, and `fuse` fails with the first violation.
        #[test]
        fn fusion_verdict_agrees_with_fuse(
            cuts in prop::collection::vec(0usize..2, 11..12),
            tamper in 0usize..8,
            shift in 1usize..3,
        ) {
            // Random contiguous partition of the 12-op canonical layer...
            let ops = transformer_layer_ops(1, 2, 2, 64, 4, DType::Fp16);
            let mut regions = Vec::new();
            let mut lo = 0;
            for (i, &cut) in cuts.iter().enumerate() {
                if cut == 1 {
                    regions.push((lo, i + 1));
                    lo = i + 1;
                }
            }
            regions.push((lo, 12));
            // ...sometimes tampered into a non-partition.
            if tamper == 0 {
                let last = regions.len() - 1;
                regions[last].1 += shift;
            }
            let plan = FusionPlan { regions };
            let errs = validate(&ops, &plan);
            let fused = fuse(&ops, &plan, DType::Fp16);
            prop_assert_eq!(errs.is_empty(), fused.is_ok(), "validate {:?} vs fuse {:?}", &errs, fused.err());
            if let Err(e) = fused {
                prop_assert_eq!(e, errs[0].clone(), "fuse must fail with the first violation");
            }
        }
    }
}
