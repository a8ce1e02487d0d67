//! # dsi-sim — simulated GPU cluster substrate
//!
//! This crate provides the hardware substrate that the rest of the
//! DeepSpeed-Inference reproduction runs on. The paper's evaluation spans
//! clusters of up to 256 NVIDIA A100 GPUs; since no GPUs are available to a
//! pure-Rust reproduction, every latency/throughput argument in the paper is
//! re-derived on top of three components:
//!
//! * [`hw`] — parameterized device and cluster descriptions (A100 / A6000 /
//!   V100 presets matching the paper's testbeds, Sec. VII-A4),
//! * [`engine`] — a discrete-event task-graph executor with per-device
//!   compute/copy/network streams, used to play out pipeline schedules,
//!   offload overlap, and prefetching,
//! * [`collectives`] — α–β cost models for NCCL-style collectives routed over
//!   an explicit hierarchical topology, plus *functional* collectives that
//!   actually move data between rank-local buffers so that communication
//!   rewrites (e.g. the PCC all-to-all of Sec. V-B) can be verified for
//!   correctness, not just costed,
//! * [`shmem`] — *executed* rendezvous for threads on one host: the
//!   sense-reversing barrier the members of a split pass (and so a
//!   tensor-parallel group, `dsi_model::paged::Engine::group`) join at,
//!   and the doorbell they park on between passes. Every rendezvous is bounded
//!   (spin, then yield with a deadline) and fails typed instead of hanging,
//! * [`fault`] — deterministic, seed-driven fault injection
//!   ([`fault::FaultPlan`]) and the typed [`fault::CollectiveError`] a
//!   member's join reports: stalls, dropped arrivals and scripted panics,
//!   each fired at most once,
//! * [`recorder`] — the bounded [`FlightRecorder`] the executed runtimes
//!   log their protocol steps into, for `dsi-verify` to check.
//!
//! The models here are rooflines: a kernel's execution time is
//! `max(flops / peak, bytes / bandwidth) + launch overhead`, and a message's
//! transfer time is `latency + size / bottleneck-bandwidth`. The paper's own
//! analysis (Sec. I, III, V-B) is phrased entirely in these terms, which is
//! what makes the reproduction faithful in *shape* even though absolute
//! numbers come from calibration constants rather than silicon.

pub mod clock;
pub mod collectives;
pub mod engine;
pub mod fault;
pub mod hw;
pub mod recorder;
pub mod shmem;
pub mod topology;
pub mod trace;

pub use clock::{CancelToken, Clock, ManualClock};
pub use collectives::{CollectiveCost, CommGroup};
pub use fault::{CollectiveError, CollectiveErrorKind, FaultInjector, FaultKind, FaultPlan, FaultSite, FaultSpec};
pub use fault::{EngineFaultInjector, EngineFaultKind, EngineFaultPlan, EngineFaultSite, EngineFaultSpec};
pub use fault::{IoFaultInjector, IoFaultKind, IoFaultPlan, IoFaultSite, IoFaultSpec};
pub use recorder::FlightRecorder;
pub use shmem::{CommConfig, Doorbell, SenseBarrier};
pub use engine::{Resource, Schedule, Task, TaskGraph, TaskId};
pub use hw::{ClusterSpec, GpuSpec, LinkSpec, NodeSpec};
pub use topology::Topology;
