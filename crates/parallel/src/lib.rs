//! # dsi-parallel — model parallelism for inference
//!
//! Sec. IV of the paper adapts training-era model parallelism to the
//! constraints of autoregressive inference. This crate implements:
//!
//! * [`tp`] — Megatron-style tensor slicing (Sec. IV-A): column-parallel
//!   QKV/FF1, row-parallel attention-output/FF2, two all-reduces per layer.
//!   Implemented *functionally* over per-rank weight shards and verified to
//!   reproduce the unsharded reference bit-for-bit (up to f32 accumulation
//!   order).
//!   The *executed* counterpart on one shared-memory host is not here: a
//!   TP group is `dsi_model::paged::Engine::group`, the one paged engine
//!   at a degree, every pass split across its `tp` members — each owning
//!   its part of the heads and of every output's columns, meeting at a
//!   barrier, with no all-reduce.
//! * [`pipeline`] — inference-optimized pipeline parallelism (Sec. IV-B/C):
//!   the training-style schedule with its token-boundary bubbles (Fig. 2a),
//!   the dynamic token-queue schedule that hides them (Fig. 2b), and the
//!   hybrid prompt/generation micro-batch schedule (Fig. 3), all realized as
//!   task graphs on the discrete-event engine.
//! * [`offload`] — KV-cache offload to host memory with the odd/even layer
//!   scheduling that avoids PCIe contention between GPUs sharing a link
//!   (Sec. IV-C2/3).

pub mod mapping;
pub mod offload;
pub mod pipeline;
pub mod pp_exec;
pub mod tp;

pub use mapping::Mapping3D;
pub use pipeline::{PipelineSchedule, PipelineSpec};
pub use pp_exec::PipelinedModel;
pub use tp::{tp_layer_forward, tp_layer_forward_into, TpLayer};
