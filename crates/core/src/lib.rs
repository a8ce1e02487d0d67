//! # dsi-core — the DeepSpeed Inference engine facade
//!
//! Ties the substrates together into the system of the paper:
//!
//! * [`engine`] — [`engine::InferenceEngine`]: a model + a parallelism
//!   mapping (TP × PP) + an execution style + scheduling/memory flags →
//!   latency and throughput. This is the object the examples and the
//!   benchmark harness drive; the paper's Figs. 6, 8, 10(b) and 13 are all
//!   sweeps over its configuration space.
//! * [`batch`] — [`batch::BatchEngine`], the slot lifecycle one scheduler
//!   drives every executed engine through, and the one error taxonomy:
//!   every failure an engine can surface has a [`batch::FaultClass`] by type.
//! * [`streamed`] — what is specific to serving from the offload tier (its
//!   errors' classes, a token-budget constructor); the engine is
//!   `dsi_model::paged::Engine` whatever feeds its weights.
//! * [`serving`] — the analytic request-level view: Poisson arrivals,
//!   dynamic batching and latency percentiles over the engine's cost model
//!   (capacity planning). Executed serving — continuous batching, faults,
//!   replay, breakers — is `dsi-serve`'s scheduler over a [`BatchEngine`].
//! * [`report`] — serializable result rows shared by the bench binaries so
//!   every figure emits machine-readable JSON next to its human-readable
//!   table.
//!
//! Re-exports the commonly used types from every substrate crate so that
//! downstream users need a single dependency.

pub mod batch;
pub mod engine;
pub mod planner;
pub mod report;
pub mod serving;
pub mod stats;
pub mod streamed;
pub mod whatif;

pub use dsi_baselines::exec::{ExecStyle, LatencyReport};
pub use dsi_kernels::cost::ExecConfig;
pub use dsi_model::config::{BertConfig, GptConfig, MoeConfig};
pub use dsi_model::reference::GptModel;
pub use dsi_moe::system::{MoeSystem, MoeSystemKind};
pub use dsi_sim::hw::{ClusterSpec, DType, GpuSpec, NodeSpec};
pub use dsi_zero::engine::ZeroInference;
pub use dsi_zero::offload::{OffloadConfig, OffloadError, OffloadStats, OffloadStore};
pub use streamed::StreamedEngine;
pub use engine::{EngineConfig, InferenceEngine, RunReport};
pub use planner::{plan, Objective, Plan};
pub use batch::{BatchEngine, EngineError, FaultClass, FaultyEngine};
pub use serving::{simulate_serving, BatchPolicy, ServingReport, Workload};
pub use stats::percentile;
pub use whatif::{scale_cluster, sensitivities, Knob, Sensitivity};
