//! Property tests tying the static verifier to ground truth:
//!
//! * random op chains — the IR verifier accepts a chain **iff** dynamically
//!   executing it with the real functional kernels succeeds (the dynamic
//!   side checks shapes through `Tensor` constructor asserts and kernel
//!   input asserts, a fully independent implementation);
//! * random fusion partitions — the verifier's fusion verdict agrees with
//!   `fusion::fuse`'s `Result` on the same plan;
//! * random digraphs — `find_cycle` agrees with an independent Kahn
//!   topological sort about whether a cycle exists;
//! * random pipeline specs — the structural check passes every graph
//!   `PipelineSpec::build` can construct.

use proptest::prelude::*;
use dsi_kernels::fusion::{fuse, validate, FusionPlan};
use dsi_kernels::graph::{Axis, OpDesc, OpKind};
use dsi_kernels::{ops, Tensor};
use dsi_sim::hw::DType;
use dsi_verify::collective::{find_cycle, DiGraph};
use dsi_verify::ir::{verify_ops, Shape};
use dsi_parallel::pipeline::{PipelineSchedule, PipelineSpec};

/// Build a random op chain. Dims are declared consistently with the running
/// shape, except where `corrupt` injects a deliberate off-by-`delta` into
/// the op's declared input width — so some chains are legal and some are
/// not, and the test knows nothing about which beyond what the two
/// implementations report.
fn build_chain(rows: usize, c0: usize, codes: &[usize], corrupt: &[usize]) -> Vec<OpDesc> {
    let mut ops_list = Vec::new();
    let mut cols = c0;
    for (i, (&code, &cr)) in codes.iter().zip(corrupt).enumerate() {
        // `cr == 0` corrupts this op's declared input width.
        let delta = usize::from(cr == 0);
        let declared = cols + delta;
        let kind = match code % 3 {
            0 => {
                let n = 1 + (i * 3 + 2) % 5;
                let k = OpKind::Gemm { m: rows, k: declared, n, weight_dtype: DType::Fp32 };
                cols = n;
                k
            }
            1 => OpKind::Elementwise { elems: rows * declared, extra_input: false },
            _ => OpKind::Reduction { rows, cols: declared },
        };
        ops_list.push(OpDesc { name: "op", kind, tile_axes: &[Axis::Token], micro_launches: 1 });
    }
    ops_list
}

/// Execute a chain with the real functional kernels. Every shape check here
/// is a `Tensor`/kernel assert, not a verifier comparison; a mismatched
/// chain panics, which the caller catches.
fn execute_chain(rows: usize, c0: usize, chain: &[OpDesc]) -> Tensor {
    let mut cur = Tensor::randn(&[rows, c0], 1.0, 7);
    for op in chain {
        cur = match op.kind {
            OpKind::Gemm { m, k, n, .. } => {
                // from_vec asserts the running buffer holds exactly m*k.
                let a = Tensor::from_vec(&[m, k], cur.data().to_vec());
                ops::matmul(&a, &Tensor::randn(&[k, n], 0.5, 11))
            }
            OpKind::Elementwise { elems, .. } => {
                let mut x = Tensor::from_vec(&[1, elems], cur.data().to_vec());
                ops::gelu(&mut x);
                x
            }
            OpKind::Reduction { rows, cols } => {
                let x = Tensor::from_vec(&[rows, cols], cur.data().to_vec());
                let ones = Tensor::from_vec(&[cols], vec![1.0; cols]);
                let zeros = Tensor::zeros(&[cols]);
                ops::layernorm(&x, &ones, &zeros, 1e-5)
            }
            _ => unreachable!("chain builder emits Gemm/Elementwise/Reduction only"),
        };
    }
    cur
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn verifier_accepts_iff_dynamic_execution_succeeds(
        rows in 1usize..4,
        c0 in 1usize..7,
        codes in prop::collection::vec(0usize..3, 1..6),
        corrupt in prop::collection::vec(0usize..6, 1..6),
    ) {
        let n = codes.len().min(corrupt.len());
        let chain = build_chain(rows, c0, &codes[..n], &corrupt[..n]);
        let diags = verify_ops(&chain, Some(Shape::new(rows, c0)));
        // Corrupted chains are *supposed* to panic in the kernels; keep the
        // expected panics out of the test output.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let ran = std::panic::catch_unwind(|| execute_chain(rows, c0, &chain));
        std::panic::set_hook(hook);
        prop_assert_eq!(
            diags.is_empty(),
            ran.is_ok(),
            "verifier said {:?} but dynamic execution {}",
            &diags,
            if ran.is_ok() { "succeeded" } else { "panicked" }
        );
    }

    #[test]
    fn fusion_verdict_agrees_with_fuse(
        cuts in prop::collection::vec(0usize..2, 11..12),
        tamper in 0usize..8,
        shift in 1usize..3,
    ) {
        // Random contiguous partition of the 12-op canonical layer...
        let ops = dsi_kernels::graph::transformer_layer_ops(1, 2, 2, 64, 4, DType::Fp16);
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

    #[test]
    fn find_cycle_agrees_with_kahn(
        n in 1usize..8,
        raw_edges in prop::collection::vec(0usize..64, 0..14),
    ) {
        let edges: Vec<(usize, usize)> =
            raw_edges.iter().map(|&e| ((e / 8) % n, e % n)).collect();
        let g = DiGraph { n, edges: edges.clone() };
        // Independent ground truth: Kahn's algorithm completes iff acyclic.
        let mut indeg = vec![0usize; n];
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a].push(b);
            indeg[b] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &w in &adj[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        let kahn_acyclic = seen == n;
        prop_assert_eq!(
            find_cycle(&g).is_none(),
            kahn_acyclic,
            "find_cycle and Kahn disagree on n={} edges={:?}",
            n,
            &edges
        );
    }

    #[test]
    fn built_pipelines_always_pass_race_detection(
        stages in 1usize..5,
        prompt_mb in 1usize..6,
        gen_mb in 1usize..4,
        gen_tokens in 0usize..5,
        sched in 0usize..2,
    ) {
        let spec = PipelineSpec {
            stages,
            prompt_microbatches: prompt_mb,
            gen_microbatches: gen_mb,
            gen_tokens,
            stage_prompt_time_full: 40e-3,
            stage_gen_time: 2e-3,
            microbatch_overhead: 0.1e-3,
            p2p_time: 0.05e-3,
        };
        let schedule = if sched == 0 {
            PipelineSchedule::TrainingStyle
        } else {
            PipelineSchedule::InferenceQueue
        };
        let d = dsi_verify::collective::check_pipeline(&spec, schedule);
        prop_assert!(d.is_empty(), "spec {:?} flagged: {:?}", &spec, &d);
    }
}
