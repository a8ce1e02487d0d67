//! # dsi-serve — overload-safe executed serving runtime
//!
//! The paper's systems contribution (Sec. VI) is an *inference serving*
//! system, not a kernel library: DeepSpeed-Inference sits behind a request
//! boundary, and everything the repo built below this crate — the fast
//! single-GPU decode path, the executed tensor-parallel engine, the
//! fault-tolerant supervisor — only earns its keep once real, concurrent,
//! misbehaving request streams are fronted safely. `dsi-serve` is that
//! front: a multi-threaded serving runtime — one iteration-level scheduler
//! ([`scheduler`]) over any `dsi_core::BatchEngine` — with the four
//! overload-safety mechanisms a production endpoint needs:
//!
//! 1. **Bounded admission** ([`Server::submit`]) — a bounded queue plus a
//!    KV-memory page budget in the engine's own geometry (the same
//!    `kv_bytes_per_token` accounting the planner's
//!    `InferenceEngine::max_batch` uses), with typed rejection
//!    ([`Rejected`]) so overload sheds load in O(1) instead of queueing
//!    unboundedly.
//! 2. **Deadlines & cancellation** — per-request deadlines and cooperative
//!    [`Ticket::cancel`], both observed by the scheduler *between* decode
//!    steps: an expired or cancelled request
//!    yields its exact partial token prefix ([`Outcome::DeadlineExpired`],
//!    [`Outcome::Evicted`]) and never a torn step or a hung engine.
//! 3. **Circuit breaker** ([`breaker`]) — consecutive terminal faults open
//!    the breaker; admissions fast-fail ([`Rejected::BreakerOpen`]) while
//!    the engine is storming, and a half-open probe re-closes it on
//!    recovery. Driven by the deterministic [`Clock`](dsi_sim::Clock), so
//!    every transition is testable without sleeps.
//! 4. **Watchdog & drain** — a progress-heartbeat watchdog cancels wedged
//!    requests, and [`Server::drain`] performs a graceful shutdown whose
//!    final [`ServeReport`] asserts the accounting invariants
//!    `submitted == admitted + rejected` and
//!    `admitted == completed + evicted + deadline_expired` — under every
//!    fault storm the chaos suite can script.
//!
//! The scheduler — iteration-level admission, ragged M-row decode,
//! mid-batch retirement, page-granular KV accounting with typed
//! page-exhaustion shedding, prefix-replay fault recovery — is the only
//! worker loop. The engines it fronts differ in slot count and page
//! geometry only ([`server::EngineMode`]): one slot over the fault-tolerant
//! tensor-parallel [`FtSession`](dsi_parallel::supervisor::FtSession)
//! (single-flight), or the paged multi-slot
//! [`Engine`](dsi_model::paged::Engine) over a resident packed model
//! (continuous) or over the offload tier ([`Server::start_streamed`]).

pub mod breaker;
pub mod scheduler;
pub mod server;

pub use breaker::{
    Breaker, BreakerAdmission, BreakerConfig, BreakerSet, BreakerState, SetAdmission,
};
pub use scheduler::{live_trace_check, PageReport, SchedReport};
pub use server::{
    kv_budget_tokens, ContinuousConfig, EngineMode, EvictReason, Outcome, Rejected, Request,
    ServeConfig, ServeReport, Server, Ticket,
};
