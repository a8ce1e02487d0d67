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
//! * [`tp_exec`] — the *executed* counterpart: the fast path's weights
//!   packed once ([`SharedModel`], FP32 or INT8), each rank running the
//!   paged engine's pass over its view of them (column and row windows of
//!   the shared operands) and its own `h/tp`-wide page pool on its own
//!   pinned OS thread, meeting the group at the two per-layer all-reduces
//!   through `dsi-sim`'s shared-memory barrier/all-reduce backend.
//!   Token-identical to the single-thread fast path at every TP degree,
//!   zero allocations per decode pass. [`TpEngine`] is the group as a
//!   multi-slot engine that lives across requests and is rebuilt over the
//!   same packed model — narrower when a rank's memory was lost — after a
//!   fault.
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
pub use tp_exec::{Dismantled, RankFailure, RankFailureCause, SharedModel, TpEngine, TpReport, TpSession};
