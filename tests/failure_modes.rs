//! Failure-injection tests: misconfigurations must be rejected loudly, and
//! out-of-resource situations must surface as typed absences (`None`),
//! never as wrong numbers.

use deepspeed_inference::kernels::fusion::{fuse, FusionError, FusionPlan};
use deepspeed_inference::kernels::graph::transformer_layer_ops;
use deepspeed_inference::kernels::tensor::Tensor;
use deepspeed_inference::model::reference::{GptModel, KvCache};
use deepspeed_inference::model::zoo;
use deepspeed_inference::moe::layer::{ep_forward, MoeLayer};
use deepspeed_inference::sim::collectives::CommGroup;
use deepspeed_inference::sim::hw::DType;
use deepspeed_inference::zero::engine::ZeroInference;
use deepspeed_inference::{ClusterSpec, EngineConfig, GptConfig, InferenceEngine, NodeSpec};

#[test]
#[should_panic(expected = "mapping needs")]
fn engine_rejects_oversubscribed_cluster() {
    let model = zoo::dense_by_name("GPT-13B").unwrap();
    InferenceEngine::new(EngineConfig::deepspeed(model, ClusterSpec::dgx_a100(1), 8, 4));
}

#[test]
#[should_panic(expected = "layers must split")]
fn engine_rejects_uneven_pipeline_split() {
    // 105 layers cannot split into 4 stages.
    let model = zoo::dense_by_name("LM-530B").unwrap();
    InferenceEngine::new(EngineConfig::deepspeed(model, ClusterSpec::dgx_a100(8), 8, 4));
}

#[test]
fn engine_reports_zero_batch_when_weights_do_not_fit() {
    // 530B on 8×40GB GPUs: weight shard alone exceeds HBM.
    let model = zoo::dense_by_name("LM-530B").unwrap();
    let e = InferenceEngine::new(EngineConfig::deepspeed(model, ClusterSpec::dgx_a100(1), 8, 1));
    assert_eq!(e.max_batch(512, 50), 0);
    assert!(e.best_throughput(512, 50).is_none());
}

#[test]
fn zero_inference_none_for_impossible_model() {
    let huge = GptConfig::new("too-big", 65536, 200, 512);
    let z = ZeroInference::new(huge, NodeSpec::lambda_a6000(), 1);
    assert!(z.tier().is_none());
    assert!(z.run(1).is_none());
    assert!(z.gpu_only().is_none());
    assert!(z.cpu_only(1).is_none());
}

#[test]
#[should_panic(expected = "evenly")]
fn expert_parallel_rejects_uneven_tokens() {
    let layer = MoeLayer::random(16, 4, 1, 1);
    let x = Tensor::randn(&[7, 16], 1.0, 2); // 7 tokens on 2 ranks
    ep_forward(&layer, &x, 2, 4);
}

#[test]
fn fusion_rejects_gapped_partitions_and_bad_axes() {
    let ops = transformer_layer_ops(1, 1, 64, 256, 4, DType::Fp16);
    let gapped = FusionPlan {
        regions: vec![(0, 4), (5, 12)],
    };
    assert_eq!(
        fuse(&ops, &gapped, DType::Fp16).unwrap_err(),
        FusionError::BadPartition
    );
    let overlong = FusionPlan {
        regions: vec![(0, 13)],
    };
    assert_eq!(
        fuse(&ops, &overlong, DType::Fp16).unwrap_err(),
        FusionError::BadPartition
    );
}

#[test]
#[should_panic(expected = "equal buffer lengths")]
fn allreduce_rejects_ragged_buffers() {
    let mut g = CommGroup::new(vec![vec![1.0, 2.0], vec![3.0]]);
    g.allreduce_sum();
}

#[test]
#[should_panic(expected = "divisible by world size")]
fn alltoall_rejects_unsplittable_buffers() {
    let mut g = CommGroup::new(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
    g.alltoall();
}

#[test]
#[should_panic(expected = "max_seq")]
fn model_rejects_context_overflow() {
    let m = GptModel::random(zoo::tiny(1), 1);
    let mut cache = KvCache::new(1, 64);
    // Fill the context, then push one past max_seq.
    let ids: Vec<usize> = (0..64).map(|i| i % 101).collect();
    m.forward(&ids, &mut cache);
    m.forward(&[1], &mut cache);
}

#[test]
#[should_panic(expected = "out of vocab")]
fn model_rejects_out_of_vocab_token() {
    let m = GptModel::random(zoo::tiny(1), 1);
    m.forward_full(&[1000]);
}

#[test]
fn planner_degrades_gracefully() {
    use deepspeed_inference::planner::{plan, Objective};
    let model = zoo::dense_by_name("LM-530B").unwrap();
    // One node: no plan. Five nodes: a plan exists.
    assert!(plan(&model, &ClusterSpec::dgx_a100(1), 512, 50, Objective::MaxThroughput, None).is_none());
    assert!(plan(&model, &ClusterSpec::dgx_a100(5), 512, 50, Objective::MaxThroughput, None).is_some());
}
