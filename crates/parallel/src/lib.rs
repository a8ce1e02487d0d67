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
//! * [`tp_exec`] — the *executed* counterpart on one shared-memory host:
//!   [`TpEngine`], the paged engine over one packed model (FP32 or INT8)
//!   with every pass split across the group's `tp` members — each owning
//!   its part of the heads and of every output's columns, meeting at a
//!   barrier, with no all-reduce. Bitwise the one-member pass at every
//!   degree, zero allocations per decode pass; a member fault fails the
//!   pass typed, and the group serves on, narrower by each member it
//!   lost.
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
pub mod tp_exec;

pub use mapping::Mapping3D;
pub use pipeline::{PipelineSchedule, PipelineSpec};
pub use pp_exec::PipelinedModel;
pub use tp::{tp_layer_forward, tp_layer_forward_into, TpLayer};
pub use tp_exec::{RankFailure, RankFailureCause, TpEngine, TpReport};
