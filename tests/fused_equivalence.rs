//! Property-based equivalence of the executed Deep-Fusion fast path
//! against the naive reference operators: blocked/panel-packed GEMM vs
//! `ops::matmul`, each fused region kernel vs its unfused composition, the
//! amortized in-place KV cache vs `cat_rows` rebuilds, and full greedy
//! decode token-for-token.

use deepspeed_inference::kernels::blocked::{self, PackedB};
use deepspeed_inference::kernels::fused;
use deepspeed_inference::kernels::ops;
use deepspeed_inference::kernels::tensor::Tensor;
use deepspeed_inference::model::fast::PackedModel;
use deepspeed_inference::model::reference::GptModel;
use deepspeed_inference::zoo;
use proptest::prelude::*;

fn max_abs(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Panel-packed blocked GEMM agrees with the naive reference for any
    /// shape, including ragged tails past the 32-column panel width.
    #[test]
    fn blocked_gemm_matches_naive(
        m in 1usize..5,
        k in 1usize..70,
        n in 1usize..70,
        seed in 0u64..1000,
    ) {
        let a = Tensor::randn(&[m, k], 1.0, seed);
        let b = Tensor::randn(&[k, n], 1.0, seed + 1);
        let want = ops::matmul(&a, &b);
        let got = blocked::matmul_packed(&a, &PackedB::pack(&b));
        prop_assert!(
            got.allclose(&want, 1e-4),
            "({m},{k},{n}) diff {}", got.max_abs_diff(&want)
        );
    }

    /// Fused layernorm→GEMM→bias (Fig. 1(c) region 1) equals the unfused
    /// composition.
    #[test]
    fn fused_ln_gemm_matches_unfused(
        m in 1usize..4,
        h8 in 1usize..9,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let h = h8 * 8;
        let x = Tensor::randn(&[m, h], 1.0, seed);
        let g = Tensor::randn(&[h], 0.3, seed + 1);
        let b = Tensor::randn(&[h], 0.1, seed + 2);
        let w = Tensor::randn(&[h, n], 0.5, seed + 3);
        let bias = Tensor::randn(&[n], 0.1, seed + 4);
        let mut want = ops::matmul(&ops::layernorm(&x, &g, &b, 1e-5), &w);
        ops::add_bias(&mut want, &bias);
        let pw = PackedB::pack(&w);
        let mut normed = vec![0.0f32; m * h];
        let mut got = Tensor::zeros(&[m, n]);
        fused::ln_matmul_bias_into(
            x.data(), m, g.data(), b.data(), 1e-5, &pw, bias.data(),
            &mut normed, got.data_mut(),
        );
        prop_assert!(got.allclose(&want, 1e-5), "diff {}", got.max_abs_diff(&want));
    }

    /// Fused layernorm→GEMM→bias→GeLU (Fig. 1(c) region 4, whose GEMM
    /// carries the bias+GeLU epilogue) and bias+residual (regions 3/5
    /// tails) equal their unfused compositions.
    #[test]
    fn fused_epilogues_match_unfused(
        m in 1usize..4,
        n in 1usize..50,
        seed in 0u64..1000,
    ) {
        let h = 16;
        let x = Tensor::randn(&[m, h], 1.0, seed + 3);
        let g = Tensor::randn(&[h], 0.3, seed + 4);
        let b = Tensor::randn(&[h], 0.1, seed + 5);
        let w = Tensor::randn(&[h, n], 0.5, seed + 6);
        let bias = Tensor::randn(&[n], 0.5, seed + 1);
        let mut want = ops::matmul(&ops::layernorm(&x, &g, &b, 1e-5), &w);
        ops::add_bias(&mut want, &bias);
        ops::gelu(&mut want);
        let mut normed = vec![0.0f32; m * h];
        let mut got = Tensor::zeros(&[m, n]);
        fused::ln_matmul_bias_gelu_into(
            x.data(), m, g.data(), b.data(), 1e-5, &PackedB::pack(&w), bias.data(),
            &mut normed, got.data_mut(),
        );
        prop_assert!(max_abs(got.data(), want.data()) <= 1e-5);

        let base = Tensor::randn(&[m, n], 1.0, seed);
        let res = Tensor::randn(&[m, n], 1.0, seed + 2);

        let mut want = base.clone();
        ops::add_bias(&mut want, &bias);
        ops::add_inplace(&mut want, &res);
        let mut got = base.clone();
        fused::bias_residual_inplace(got.data_mut(), bias.data(), res.data());
        prop_assert!(max_abs(got.data(), want.data()) <= 1e-5);
    }

    /// Streaming (online-softmax) attention with no scores buffer equals
    /// the reference score-matrix attention.
    #[test]
    fn streaming_attention_matches_reference(
        t_new in 1usize..5,
        extra_ctx in 0usize..12,
        heads in 1usize..4,
        seed in 0u64..1000,
    ) {
        let h = 8 * heads;
        let causal_offset = extra_ctx;
        let t_ctx = t_new + extra_ctx;
        let q = Tensor::randn(&[t_new, h], 1.0, seed);
        let k = Tensor::randn(&[t_ctx, h], 1.0, seed + 1);
        let v = Tensor::randn(&[t_ctx, h], 1.0, seed + 2);
        let want = ops::attention(&q, &k, &v, heads, causal_offset);
        let mut got = Tensor::zeros(&[t_new, h]);
        for i in 0..t_new {
            fused::attention_row_into(q.row(i), &k, &v, heads, causal_offset + i, got.row_mut(i));
        }
        prop_assert!(
            got.allclose(&want, 1e-5),
            "diff {}", got.max_abs_diff(&want)
        );
    }

    /// Paged attention through a scattered, non-identity page table is
    /// **bit-identical** to contiguous attention over the same K/V values,
    /// for random shapes: `attention_row_paged_into` runs the same
    /// monomorphized FLOP sequence as the contiguous row kernel, so the
    /// comparison is exact equality, not a tolerance.
    #[test]
    fn paged_attention_bitwise_matches_contiguous(
        heads in 1usize..4,
        hd8 in 1usize..3,
        page_tokens in 1usize..5,
        t_ctx in 1usize..18,
        seed in 0u64..1000,
    ) {
        let h = 8 * hd8 * heads;
        let k = Tensor::randn(&[t_ctx, h], 0.7, seed);
        let v = Tensor::randn(&[t_ctx, h], 0.7, seed + 1);
        let q = Tensor::randn(&[t_ctx, h], 1.0, seed + 2);
        // Contiguous reference: every row i attends to keys 0..=i.
        let mut want = Tensor::zeros(&[t_ctx, h]);
        for i in 0..t_ctx {
            fused::attention_row_into(q.row(i), &k, &v, heads, i, want.row_mut(i));
        }
        // Scatter the same rows through a reversed (maximally non-identity)
        // page table into arenas with spare pages on both sides.
        let pages_needed = t_ctx.div_ceil(page_tokens);
        let pages_total = pages_needed + 3;
        let table: Vec<u32> = (0..pages_needed)
            .map(|i| (pages_total - 1 - i) as u32)
            .collect();
        let mut ka = vec![0.0f32; pages_total * page_tokens * h];
        let mut va = vec![0.0f32; pages_total * page_tokens * h];
        for pos in 0..t_ctx {
            let r = table[pos / page_tokens] as usize * page_tokens + pos % page_tokens;
            ka[r * h..(r + 1) * h].copy_from_slice(&k.data()[pos * h..(pos + 1) * h]);
            va[r * h..(r + 1) * h].copy_from_slice(&v.data()[pos * h..(pos + 1) * h]);
        }
        let mut got = vec![0.0f32; h];
        for i in 0..t_ctx {
            let view = fused::PagedKvView {
                k: &ka,
                v: &va,
                pages: &table,
                page_tokens,
                len: i + 1,
                offset: i,
            };
            fused::attention_row_paged_into(&q.data()[i * h..(i + 1) * h], &view, heads, &mut got);
            prop_assert_eq!(
                &got[..],
                &want.data()[i * h..(i + 1) * h],
                "row {i} of ({t_ctx},{h}) pt={page_tokens} diverged"
            );
        }
    }

    /// The amortized in-place KV append (`push_rows` into reserved
    /// capacity) yields bit-identical tensors to `cat_rows` rebuilds, for
    /// any split of the same row stream.
    #[test]
    fn amortized_kv_matches_cat_rows(
        cols in 1usize..20,
        chunk_rows in prop::collection::vec(1usize..4, 1..10),
        seed in 0u64..1000,
    ) {
        let chunks: Vec<Tensor> = chunk_rows
            .iter()
            .enumerate()
            .map(|(i, &r)| Tensor::randn(&[r, cols], 1.0, seed + i as u64))
            .collect();
        // Seed semantics: rebuild by concatenation at every step.
        let mut rebuilt = Tensor::zeros(&[0, cols]);
        // Amortized: reserve once, append in place.
        let total: usize = chunk_rows.iter().sum();
        let mut amortized = Tensor::with_capacity_rows(total, cols);
        let base_ptr = amortized.data().as_ptr() as usize;
        for c in &chunks {
            rebuilt = Tensor::cat_rows(&[&rebuilt, c]);
            amortized.push_rows(c);
        }
        prop_assert_eq!(rebuilt.shape(), amortized.shape());
        prop_assert!(rebuilt.allclose(&amortized, 0.0));
        // And the reserved buffer never moved.
        prop_assert_eq!(amortized.data().as_ptr() as usize, base_ptr);
    }

    /// Full greedy decode: the packed/fused/amortized fast path emits
    /// exactly the same tokens as the reference model, for random weights
    /// and random prompts.
    #[test]
    fn fast_decode_matches_reference_decode(
        seed in 0u64..200,
        layers in 1usize..4,
        prompt in prop::collection::vec(0usize..101, 1..6),
        n_tokens in 1usize..10,
    ) {
        let model = GptModel::random(zoo::tiny(layers), seed);
        let want = model.generate(&prompt, n_tokens);
        let packed = PackedModel::pack(&model);
        let got = packed.session(prompt.len()).generate(&prompt, n_tokens);
        prop_assert_eq!(got, want);
    }
}
