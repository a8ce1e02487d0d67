//! # dsi-parallel — pipeline parallelism and KV offload for inference
//!
//! Sec. IV of the paper adapts training-era model parallelism to the
//! constraints of autoregressive inference. This crate implements:
//!
//! * [`pipeline`] — inference-optimized pipeline parallelism (Sec. IV-B/C):
//!   the training-style schedule with its token-boundary bubbles (Fig. 2a),
//!   the dynamic token-queue schedule that hides them (Fig. 2b), and the
//!   hybrid prompt/generation micro-batch schedule (Fig. 3), all realized as
//!   task graphs on the discrete-event engine.
//! * [`pp_exec`] — the pipeline schedule executed: the reference model run
//!   in the schedule's interleaved order, token-identical to unpipelined
//!   generation.
//! * [`offload`] — KV-cache offload to host memory with the odd/even layer
//!   scheduling that avoids PCIe contention between GPUs sharing a link
//!   (Sec. IV-C2/3).
//!
//! Tensor slicing (Sec. IV-A) is not here. Its cost is priced by
//! `dsi_kernels::graph::transformer_layer_ops_tp` and `dsi-core`; its
//! executed form on one shared-memory host is
//! `dsi_model::paged::Engine::group`, the one paged engine at a degree:
//! every pass split across its `tp` members, each owning its part of the
//! heads and of every output's columns, meeting at a barrier, with no
//! all-reduce.

pub mod offload;
pub mod pipeline;
pub mod pp_exec;

pub use pipeline::{PipelineSchedule, PipelineSpec};
pub use pp_exec::PipelinedModel;
