//! The serving runtime: bounded admission, deadlines, watchdog, drain.
//!
//! [`Server`] fronts one decode engine with the overload machinery a
//! production inference endpoint needs and the underlying engine alone
//! cannot provide. There is **one** worker: the iteration-level scheduler
//! of [`crate::scheduler`], generic over `dsi_core::BatchEngine`. It admits
//! from the queue into free slots *every iteration*, seats the newcomers and
//! advances every other resident through one ragged pass, and retires sequences at
//! EOS/deadline/cancel mid-batch. The engine is always the paged multi-slot
//! [`paged::Engine`](dsi_model::paged::Engine), sized by
//! [`ContinuousConfig`]; what feeds it depends on how the server was
//! started:
//!
//! * [`Server::start`] at [`ServeConfig::tp`] = 1 — a resident packed
//!   model;
//! * [`Server::start`] at `tp > 1` — a tensor-parallel group
//!   ([`Engine::group`]): the same engine over the same packed model and
//!   pool at degree `tp`, every pass split across its members; a member
//!   fault fails the pass, and the group serves on, narrower by the members
//!   it lost;
//! * [`Server::start_streamed`] — an offload tier.
//!
//! * **Bounded admission** — [`Server::submit`] either admits a request
//!   into a bounded queue or rejects it *typed* ([`Rejected`]): the queue
//!   is full, the KV-memory budget is exhausted, the circuit breaker is
//!   open, or the server is draining. Rejection is O(1) under one lock —
//!   an overloaded server stays responsive precisely because saying "no"
//!   is cheap.
//! * **KV-memory admission** — a request is admitted on its **prompt
//!   pages** only (`pages_for(prompt + 1)` in the pool's geometry, against
//!   queued + resident pages), and per-step growth is reserved page-by-page
//!   at decode time — failure there surfaces as a typed
//!   [`EvictReason::PagesExhausted`] eviction, never an abort.
//! * **Deadlines with partial output** — each request can carry a deadline;
//!   the scheduler checks it between decode steps, so an expired request
//!   returns [`Outcome::DeadlineExpired`] with the exact prefix of tokens
//!   generated so far, never a torn step.
//! * **Watchdog** — the scheduler stamps its progress after every
//!   admission and every pass that succeeds. After each pass attempt, no
//!   progress within `progress_timeout` means the engine is wedged (or
//!   grinding through fault recovery): the loop cancels every resident,
//!   and the engines' bounded passes (join deadlines, fetch deadlines)
//!   guarantee the loop gets there.
//! * **Graceful drain** — [`Server::drain`] stops admissions (typed
//!   [`Rejected::Draining`]), lets queued work finish within a grace
//!   period, then evicts the remainder and joins the worker. The final
//!   [`ServeReport`] carries always-on accounting invariants:
//!   `submitted == admitted + rejected` and
//!   `admitted == completed + evicted + deadline_expired` — every ticket
//!   resolves exactly once, under every fault storm the chaos suite throws.
//!
//! Lock discipline: ONE mutex (over the private `State`) + two condvars
//! (`work`, `idle`) both tied to it, plus lock-free cancel flags. With
//! one mutex there is no lock order to get wrong, and the types hold the
//! condvar discipline: `Condvar::wait` takes the `State` guard by value,
//! so a thread waits only while it holds the state mutex, and there is no
//! other lock for it to hold across the sleep.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dsi_core::{BatchEngine, FaultClass, FaultyEngine};
use dsi_model::fast::PackedModel;
use dsi_model::paged::{Engine, GroupReport};
use dsi_model::reference::GptModel;
use dsi_model::GptConfig;
use dsi_sim::clock::{CancelToken, Clock};
use dsi_sim::fault::EngineFaultInjector;
use dsi_sim::shmem::CommConfig;
use dsi_zero::offload::{OffloadConfig, OffloadError, OffloadStore};
use serde::Serialize;

use crate::breaker::{BreakerConfig, BreakerSet, SetAdmission};
use crate::scheduler::{run_scheduler, SchedReport};

/// How the engine under the one scheduler loop is sized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineMode {
    /// Continuous batching over a paged multi-slot engine: admit into
    /// slots every step, ragged M-row decode, mid-batch retirement. Every
    /// server builds this engine over this pool geometry, whatever feeds
    /// its weights.
    Continuous(ContinuousConfig),
}

/// Sizing of the scheduler and its engine (see [`EngineMode::Continuous`]).
/// A TP group's members share the one pool of this geometry, each writing
/// its heads' keys and values of every K/V row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContinuousConfig {
    /// Sequence slots: the scheduler admits while fewer are resident.
    pub max_slots: usize,
    /// KV pages in the pool, shared by all slots.
    pub pages_total: usize,
    /// Context tokens per page.
    pub page_tokens: usize,
    /// Recovery attempts a resident may consume across its lifetime. An
    /// engine fault replays every active resident from its committed
    /// prefix (one budget charge each); a resident that exhausts the
    /// budget is evicted with the typed [`EvictReason::EngineFault`].
    pub replay_budget: u32,
    /// Per-step progress deadline, measured on [`ServeConfig::clock`]. An
    /// engine pass that completes later than its budget is treated as a
    /// Timeout-class fault: its output is discarded and the residents are
    /// replayed — bounding the latency any single wedged pass can inflict
    /// on the whole batch. A pass gets this deadline once per context token
    /// it seats, plus once if it advances any resident: a pass that only
    /// advances gets exactly this budget, and seating `n` context tokens
    /// adds `n ×` it, so long healthy prompts are not misread as stalls.
    /// `None` disables the check.
    pub step_deadline: Option<Duration>,
}

impl Default for ContinuousConfig {
    fn default() -> Self {
        ContinuousConfig {
            max_slots: 8,
            pages_total: 512,
            page_tokens: 16,
            replay_budget: 3,
            step_deadline: None,
        }
    }
}

impl ContinuousConfig {
    /// Pages a `tokens`-long context pins.
    pub fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_tokens)
    }
}

/// Serving runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TP degree of the engine [`Server::start`] builds: above 1, the
    /// group ([`Engine::group`]) whose members every pass splits across
    /// (`1..=heads`); 1 serves from the packed model on the split of
    /// [`Engine::new`], and [`Server::start_streamed`] ignores it. The
    /// engine narrows by each member that exits or panics. A split pass is
    /// bitwise the one-member pass, so the outputs are identical at every
    /// degree.
    pub tp: usize,
    /// Engine sizing; see [`EngineMode`].
    pub mode: EngineMode,
    /// Token id that terminates a generation early (the sequence retires
    /// mid-batch the step it appears).
    pub eos: Option<usize>,
    /// Join configuration of a TP group's members (the deadline of every
    /// join, and fault injection at joins and layers); unused at `tp = 1`.
    pub comm: CommConfig,
    /// Longest admissible prompt.
    pub max_prompt: usize,
    /// Bounded admission queue depth (requests waiting, excluding running).
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Circuit-breaker configuration, applied to every fault class
    /// (timeout / panic / corruption / memory — each class trips and
    /// probes independently; see [`crate::breaker::BreakerSet`]).
    pub breaker: BreakerConfig,
    /// Scripted engine-fault injection at the scheduler/engine seam (chaos
    /// testing): whichever engine runs is wrapped in
    /// [`dsi_core::FaultyEngine`] driven by this injector. `None` (the
    /// default) runs the engine bare.
    pub engine_faults: Option<Arc<EngineFaultInjector>>,
    /// Watchdog: cancel every resident request if no progress within this
    /// window, checked after every pass attempt. `None` disables it.
    pub progress_timeout: Option<Duration>,
    /// Time source for deadlines, the breaker window, latency accounting.
    pub clock: Clock,
}

impl ServeConfig {
    pub fn new(tp: usize) -> Self {
        ServeConfig {
            tp,
            mode: EngineMode::Continuous(ContinuousConfig::default()),
            eos: None,
            comm: CommConfig::default(),
            max_prompt: 64,
            queue_capacity: 16,
            default_deadline: None,
            breaker: BreakerConfig::default(),
            engine_faults: None,
            progress_timeout: None,
            clock: Clock::wall(),
        }
    }
}

/// One inference request.
#[derive(Debug, Clone)]
pub struct Request {
    pub prompt: Vec<usize>,
    pub n_tokens: usize,
    /// Per-request deadline, measured from admission; falls back to
    /// [`ServeConfig::default_deadline`] when `None`.
    pub deadline: Option<Duration>,
}

/// Typed admission rejection. Every variant is counted in the final
/// [`ServeReport`]; none of them consume engine time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue is at capacity.
    QueueFull,
    /// Admitting this request would exceed the KV-token budget.
    MemoryPressure,
    /// The circuit breaker is open (engine recently fault-storming).
    BreakerOpen,
    /// The server is draining; no new work is accepted.
    Draining,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull => write!(f, "queue full"),
            Rejected::MemoryPressure => write!(f, "kv memory pressure"),
            Rejected::BreakerOpen => write!(f, "circuit breaker open"),
            Rejected::Draining => write!(f, "server draining"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Why an admitted request was evicted without completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictReason {
    /// Cancelled — by the client, the watchdog, or drain-grace expiry.
    Cancelled,
    /// The KV page pool could not grow this sequence and it was chosen as
    /// the shed victim (newest resident first). `partial` holds the exact
    /// prefix generated before the shed.
    PagesExhausted,
    /// The resident exhausted its prefix-replay budget
    /// ([`ContinuousConfig::replay_budget`]) under engine faults. `partial`
    /// holds the committed prefix — every token in it survived recovery
    /// bit-exact, so it is still a true prefix of the request's solo
    /// generation.
    EngineFault { class: FaultClass, msg: String },
}

/// Terminal outcome of an admitted request. Exactly one `Outcome` is
/// delivered per admitted ticket — the accounting invariant the report
/// asserts.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Full generation; `latency_s` is admission→completion on the serve
    /// clock.
    Completed { tokens: Vec<usize>, latency_s: f64 },
    /// Deadline passed mid-generation; `partial` is the exact token prefix
    /// emitted before the stop (token-identical to an unbounded run).
    DeadlineExpired { partial: Vec<usize> },
    /// Evicted; `partial` as above.
    Evicted { partial: Vec<usize>, reason: EvictReason },
}

/// Handle for one admitted request.
pub struct Ticket {
    pub id: u64,
    cancel: CancelToken,
    rx: mpsc::Receiver<Outcome>,
}

impl Ticket {
    /// Cooperatively cancel this request (observed between decode steps).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Block until the request resolves. Every admitted ticket resolves
    /// exactly once, even across fault storms and drain.
    pub fn wait(self) -> Outcome {
        self.rx.recv().expect("server resolves every admitted ticket")
    }

    /// Non-blocking poll.
    pub fn try_wait(&self) -> Option<Outcome> {
        self.rx.try_recv().ok()
    }
}

/// Final report from [`Server::drain`].
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    pub submitted: u64,
    pub admitted: u64,
    pub completed: u64,
    pub evicted: u64,
    pub deadline_expired: u64,
    pub rejected_queue_full: u64,
    pub rejected_memory: u64,
    pub rejected_breaker: u64,
    pub rejected_draining: u64,
    /// Times any class breaker transitioned Closed/HalfOpen → Open
    /// (sum over classes).
    pub breaker_opens: u32,
    /// Per-fault-class breaker opens (timeout / panic / corruption /
    /// memory trip independently; see `crate::breaker::BreakerSet`).
    pub breaker_opens_by_class: Vec<(FaultClass, u32)>,
    /// Times the watchdog cancelled a request for lack of progress.
    pub watchdog_fires: u64,
    /// Serve-clock seconds from `Server::start` to drain completion.
    pub wall_s: f64,
    /// Completed requests per serve-clock second.
    pub goodput_rps: f64,
    pub mean_latency_s: f64,
    pub p50_latency_s: f64,
    pub p95_latency_s: f64,
    pub p99_latency_s: f64,
    /// The engine's failed split passes: recovered faults, degradations
    /// and recent faults (empty while no member failed).
    pub ft: GroupReport,
    /// Batch-occupancy / tokens-per-step histograms and page-allocator
    /// statistics of the scheduler loop.
    pub scheduler: Option<SchedReport>,
}

impl ServeReport {
    pub fn rejected_total(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_memory
            + self.rejected_breaker
            + self.rejected_draining
    }
}

pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) prompt: Vec<usize>,
    pub(crate) n_tokens: usize,
    /// Absolute serve-clock deadline.
    pub(crate) deadline_ns: Option<u64>,
    /// Admission cost this job pins while queued: its prompt KV pages.
    /// Released when the job becomes resident and the engine's pool takes
    /// over.
    pub(crate) cost: usize,
    pub(crate) cancel: CancelToken,
    /// `Some(class)` when this job is the half-open probe for that fault
    /// class's breaker: completion closes it, a fault-free non-answer
    /// (cancel/deadline/shed) aborts it for an immediate re-probe.
    pub(crate) probe: Option<FaultClass>,
    pub(crate) submit_ns: u64,
    pub(crate) tx: mpsc::Sender<Outcome>,
}

pub(crate) struct Running {
    pub(crate) id: u64,
    pub(crate) cancel: CancelToken,
}

#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) submitted: u64,
    pub(crate) admitted: u64,
    pub(crate) completed: u64,
    pub(crate) evicted: u64,
    pub(crate) deadline_expired: u64,
    pub(crate) rejected_queue_full: u64,
    pub(crate) rejected_memory: u64,
    pub(crate) rejected_breaker: u64,
    pub(crate) rejected_draining: u64,
    pub(crate) watchdog_fires: u64,
}

pub(crate) struct State {
    pub(crate) queue: VecDeque<Job>,
    /// Admission cost pinned by queued jobs, in the unit of [`Job::cost`].
    pub(crate) inflight_tokens: usize,
    /// KV pages held by resident sequences, mirrored from the engine's
    /// pool each scheduler iteration. Admission reads
    /// `inflight_tokens + pool_pages` against the pool size.
    pub(crate) pool_pages: usize,
    /// Every in-flight request (up to `max_slots`), keyed by job id.
    pub(crate) running: Vec<Running>,
    pub(crate) draining: bool,
    pub(crate) worker_done: bool,
    pub(crate) breaker: BreakerSet,
    pub(crate) counters: Counters,
    pub(crate) latencies_s: Vec<f64>,
    pub(crate) ft_report: GroupReport,
    pub(crate) sched_report: Option<SchedReport>,
    pub(crate) next_id: u64,
}

pub(crate) struct Shared {
    pub(crate) state: Mutex<State>,
    /// Worker parks here when the queue is empty.
    pub(crate) work: Condvar,
    /// Drain parks here; notified on every job completion.
    pub(crate) idle: Condvar,
    pub(crate) clock: Clock,
}

/// Fresh shared state for a server.
pub(crate) fn new_shared(cfg: &ServeConfig) -> Arc<Shared> {
    Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            inflight_tokens: 0,
            pool_pages: 0,
            running: Vec::new(),
            draining: false,
            worker_done: false,
            breaker: BreakerSet::new(cfg.breaker.clone()),
            counters: Counters::default(),
            latencies_s: Vec::new(),
            ft_report: GroupReport::default(),
            sched_report: None,
            next_id: 0,
        }),
        work: Condvar::new(),
        idle: Condvar::new(),
        clock: cfg.clock.clone(),
    })
}

/// What the worker thread needs to run the one scheduler loop over
/// whichever engine it built.
struct Worker {
    shared: Arc<Shared>,
    cont: ContinuousConfig,
    eos: Option<usize>,
    max_prompt: usize,
    progress_timeout: Option<Duration>,
    faults: Option<Arc<EngineFaultInjector>>,
}

impl Worker {
    /// Run the scheduler loop over `eng` until drain (wrapped in the
    /// scripted fault injector when armed) and hand the engine back.
    fn run<E: BatchEngine>(&self, eng: E) -> E {
        let shared = Arc::clone(&self.shared);
        let (cont, eos, max_prompt, timeout) = (self.cont, self.eos, self.max_prompt, self.progress_timeout);
        match &self.faults {
            Some(inj) => {
                let eng = FaultyEngine::new(eng, Arc::clone(inj));
                run_scheduler(shared, eng, cont, eos, max_prompt, timeout).into_inner()
            }
            None => run_scheduler(shared, eng, cont, eos, max_prompt, timeout),
        }
    }
}

/// The serving runtime. Owns a worker thread, which owns the engine; see
/// the module docs for the full contract.
pub struct Server {
    shared: Arc<Shared>,
    cfg: ServeConfig,
    /// The engine's slot count and page geometry, as admission sees them.
    cont: ContinuousConfig,
    /// The model's vocabulary and longest sequence, which bound a request.
    vocab: usize,
    max_seq: usize,
    start_ns: u64,
    worker: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn the runtime over `model`, resident in memory: packed once on
    /// the worker thread, served by the paged engine of [`Engine::new`] at
    /// [`ServeConfig::tp`] = 1 and by the group of [`Engine::group`] at
    /// that degree above. The engine lives across requests; its fault
    /// report is read off it once the loop has drained, for the final
    /// [`ServeReport`].
    pub fn start(model: Arc<GptModel>, cfg: ServeConfig) -> Server {
        let EngineMode::Continuous(cont) = cfg.mode;
        let (tp, comm, config) = (cfg.tp, cfg.comm.clone(), model.config.clone());
        Self::spawn(cfg, cont, &config, move |w| {
            let pm = PackedModel::pack(&model);
            let (slots, pages, page_tokens) = (cont.max_slots, cont.pages_total, cont.page_tokens);
            let eng = match tp {
                1 => Engine::new(&pm, slots, pages, page_tokens),
                tp => Engine::group(&pm, tp, comm, slots, pages, page_tokens),
            };
            let eng = w.run(eng);
            w.shared.state.lock().unwrap().ft_report = eng.report().clone();
        })
    }

    /// Spawn the runtime over a **weight file** served through the tiered
    /// offload store. The store is opened on the caller's thread so a
    /// missing/corrupt/unopenable file (or an injected open fault) surfaces
    /// as a typed `Err` here, before any thread exists. The scheduler,
    /// admission, breakers, watchdog, and drain are the ones every engine
    /// gets; `offload` controls the resident budget, prefetch depth, fetch
    /// deadlines, and I/O fault injection. The engine is the paged engine
    /// [`Server::start`] builds, over the pool `cfg.mode` sizes: real pages,
    /// an enforced budget and prefix sharing, whatever feeds the weights.
    pub fn start_streamed(
        path: impl AsRef<Path>,
        offload: OffloadConfig,
        cfg: ServeConfig,
    ) -> Result<Server, OffloadError> {
        let EngineMode::Continuous(cont) = cfg.mode;
        let store = OffloadStore::open(path, offload)?;
        let model = store.config().clone();
        let eng = Engine::new(store, cont.max_slots, cont.pages_total, cont.page_tokens);
        Ok(Self::spawn(cfg, cont, &model, move |w| {
            w.run(eng);
        }))
    }

    /// The one spawn: `body` builds its engine over `model` on the worker
    /// thread and runs it to drain through [`Worker::run`].
    fn spawn(
        cfg: ServeConfig,
        cont: ContinuousConfig,
        model: &GptConfig,
        body: impl FnOnce(Worker) + Send + 'static,
    ) -> Server {
        let shared = new_shared(&cfg);
        let start_ns = cfg.clock.now_ns();
        let w = Worker {
            shared: Arc::clone(&shared),
            cont,
            eos: cfg.eos,
            max_prompt: cfg.max_prompt,
            progress_timeout: cfg.progress_timeout,
            faults: cfg.engine_faults.clone(),
        };
        let worker = std::thread::Builder::new()
            .name("dsi-serve-scheduler".into())
            .spawn(move || body(w))
            .expect("spawn serve scheduler");
        Server { shared, cfg, cont, vocab: model.vocab, max_seq: model.max_seq, start_ns, worker: Some(worker) }
    }

    /// Admit or reject `req`. Admission is O(1) under one lock: breaker
    /// check, queue-depth check, KV-budget check, enqueue.
    ///
    /// Panics on a malformed request — an empty prompt, one longer than
    /// [`ServeConfig::max_prompt`], a token past the model's vocabulary, or
    /// more positions than the model's `max_seq` — so it never reaches the
    /// engine, where every pass it joined would fail. The last token is
    /// sampled, never fed back, so a request holds at most
    /// `prompt + n_tokens - 1` positions (the prompt's, for one token).
    pub fn submit(&self, req: Request) -> Result<Ticket, Rejected> {
        assert!(!req.prompt.is_empty(), "empty prompt");
        assert!(
            req.prompt.len() <= self.cfg.max_prompt,
            "prompt longer than ServeConfig::max_prompt"
        );
        assert!(req.prompt.iter().all(|&t| t < self.vocab), "prompt token out of the model's vocab");
        assert!(
            req.prompt.len() + req.n_tokens.saturating_sub(1) <= self.max_seq,
            "prompt + n_tokens exceeds the model's max_seq"
        );
        let mut st = self.shared.state.lock().unwrap();
        st.counters.submitted += 1;
        if st.draining {
            st.counters.rejected_draining += 1;
            return Err(Rejected::Draining);
        }
        let now = self.shared.clock.now_ns();
        let probe = match st.breaker.admit(now) {
            SetAdmission::Admit => None,
            SetAdmission::AdmitProbe(class) => Some(class),
            SetAdmission::Reject => {
                st.counters.rejected_breaker += 1;
                return Err(Rejected::BreakerOpen);
            }
        };
        if st.queue.len() >= self.cfg.queue_capacity {
            if let Some(pc) = probe {
                st.breaker.abort_probe(pc, now);
            }
            st.counters.rejected_queue_full += 1;
            return Err(Rejected::QueueFull);
        }
        // KV admission charges prompt pages only (prompt + the first
        // generated token, which prefill always materializes), in the
        // engine's geometry; decode growth is reserved per step by the
        // scheduler, with typed page-exhaustion eviction as the backstop.
        // A request whose prompt alone exceeds the pool could never run, so
        // it is rejected here too rather than wedging the queue.
        let cost = self.cont.pages_for(req.prompt.len() + 1);
        let over_budget = st.inflight_tokens + st.pool_pages + cost > self.cont.pages_total;
        if over_budget {
            if let Some(pc) = probe {
                st.breaker.abort_probe(pc, now);
            }
            st.counters.rejected_memory += 1;
            return Err(Rejected::MemoryPressure);
        }

        st.counters.admitted += 1;
        st.inflight_tokens += cost;
        let id = st.next_id;
        st.next_id += 1;
        let cancel = CancelToken::new();
        let (tx, rx) = mpsc::channel();
        let deadline_ns = req
            .deadline
            .or(self.cfg.default_deadline)
            .map(|d| now + d.as_nanos() as u64);
        st.queue.push_back(Job {
            id,
            prompt: req.prompt,
            n_tokens: req.n_tokens,
            deadline_ns,
            cost,
            cancel: cancel.clone(),
            probe,
            submit_ns: now,
            tx,
        });
        drop(st);
        self.shared.work.notify_all();
        Ok(Ticket { id, cancel, rx })
    }

    /// Stop admissions, let in-flight + queued work finish within `grace`
    /// (wall time), evict the rest, join all threads, and return the final
    /// report. Consumes the server.
    pub fn drain(mut self, grace: Duration) -> ServeReport {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.draining = true;
        }
        self.shared.work.notify_all();

        let grace_deadline = std::time::Instant::now() + grace;
        let mut grace_expired = false;
        {
            let mut st = self.shared.state.lock().unwrap();
            while !st.worker_done {
                if !grace_expired && std::time::Instant::now() >= grace_deadline {
                    grace_expired = true;
                    // Evict everything still queued; cancel the running job.
                    while let Some(job) = st.queue.pop_front() {
                        st.inflight_tokens -= job.cost;
                        st.counters.evicted += 1;
                        let _ = job.tx.send(Outcome::Evicted {
                            partial: Vec::new(),
                            reason: EvictReason::Cancelled,
                        });
                    }
                    for run in &st.running {
                        run.cancel.cancel();
                    }
                    self.shared.work.notify_all();
                }
                let wait = if grace_expired {
                    Duration::from_millis(5)
                } else {
                    grace_deadline
                        .saturating_duration_since(std::time::Instant::now())
                        .min(Duration::from_millis(5))
                        .max(Duration::from_micros(100))
                };
                st = self.shared.idle.wait_timeout(st, wait).unwrap().0;
            }
        }
        if let Some(w) = self.worker.take() {
            w.join().expect("serve worker join");
        }

        let st = self.shared.state.lock().unwrap();
        let c = &st.counters;
        let wall_s = (self.shared.clock.now_ns() - self.start_ns) as f64 / 1e9;
        let mut lat = st.latencies_s.clone();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = if lat.is_empty() { 0.0 } else { lat.iter().sum::<f64>() / lat.len() as f64 };
        let report = ServeReport {
            submitted: c.submitted,
            admitted: c.admitted,
            completed: c.completed,
            evicted: c.evicted,
            deadline_expired: c.deadline_expired,
            rejected_queue_full: c.rejected_queue_full,
            rejected_memory: c.rejected_memory,
            rejected_breaker: c.rejected_breaker,
            rejected_draining: c.rejected_draining,
            breaker_opens: st.breaker.opens(),
            breaker_opens_by_class: st.breaker.opens_by_class().to_vec(),
            watchdog_fires: c.watchdog_fires,
            wall_s,
            goodput_rps: if wall_s > 0.0 { c.completed as f64 / wall_s } else { 0.0 },
            mean_latency_s: mean,
            p50_latency_s: dsi_core::percentile(&lat, 0.50),
            p95_latency_s: dsi_core::percentile(&lat, 0.95),
            p99_latency_s: dsi_core::percentile(&lat, 0.99),
            ft: st.ft_report.clone(),
            scheduler: st.sched_report.clone(),
        };
        // Accounting invariants — always on, under every fault storm: no
        // request is lost, double-counted, or left unresolved.
        assert_eq!(
            report.submitted,
            report.admitted + report.rejected_total(),
            "serve invariant: submitted == admitted + rejected"
        );
        assert_eq!(
            report.admitted,
            report.completed + report.evicted + report.deadline_expired,
            "serve invariant: admitted == completed + evicted + deadline_expired"
        );
        assert_eq!(st.inflight_tokens, 0, "serve invariant: all KV admission cost released");
        assert_eq!(st.pool_pages, 0, "serve invariant: all KV pages released");
        if let Some(sched) = &report.scheduler {
            assert_eq!(sched.pages.fragmentation, 0, "paged KV fragmentation must be zero");
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_model::zoo;
    use dsi_sim::fault::{FaultKind, FaultPlan, FaultSite, FaultSpec};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn tiny_model() -> Arc<GptModel> {
        Arc::new(GptModel::random(zoo::tiny(2), 11))
    }

    /// The solo fault-free generation every served stream is held to.
    fn solo(model: &GptModel, prompt: &[usize], n: usize) -> Vec<usize> {
        PackedModel::pack(model).session(prompt.len()).generate(prompt, n)
    }

    /// The engine sizing `cfg` carries.
    fn sizing(cfg: &mut ServeConfig) -> &mut ContinuousConfig {
        let EngineMode::Continuous(c) = &mut cfg.mode;
        c
    }

    fn quiet_cfg(tp: usize) -> ServeConfig {
        let mut cfg = ServeConfig::new(tp);
        cfg.comm.timeout = Duration::from_secs(2);
        cfg
    }

    /// A plan that wedges member 1 for `millis` at its `epoch`-th join —
    /// with a join deadline above `millis` this is "slow", with one below
    /// it is a detected fault.
    fn stall_plan(epoch: u64, millis: u64) -> FaultPlan {
        FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Barrier { epoch },
            kind: FaultKind::Stall { millis },
        }])
    }

    #[test]
    fn completes_requests_and_accounts_them() {
        let srv = Server::start(tiny_model(), quiet_cfg(2));
        let t1 = srv
            .submit(Request { prompt: vec![1, 2, 3], n_tokens: 4, deadline: None })
            .unwrap();
        let t2 = srv
            .submit(Request { prompt: vec![5, 6], n_tokens: 3, deadline: None })
            .unwrap();
        let Outcome::Completed { tokens, .. } = t1.wait() else { panic!("expected completion") };
        assert_eq!(tokens.len(), 4);
        let Outcome::Completed { tokens, .. } = t2.wait() else { panic!("expected completion") };
        assert_eq!(tokens.len(), 3);
        let report = srv.drain(Duration::from_secs(5));
        assert_eq!(report.completed, 2);
        assert_eq!(report.admitted, 2);
        assert_eq!(report.rejected_total(), 0);
        assert!(report.goodput_rps > 0.0);
    }

    #[test]
    fn served_tokens_match_direct_generation() {
        let model = tiny_model();
        let expect = solo(&model, &[1, 2, 3], 5);

        let srv = Server::start(model, quiet_cfg(1));
        let t = srv
            .submit(Request { prompt: vec![1, 2, 3], n_tokens: 5, deadline: None })
            .unwrap();
        let Outcome::Completed { tokens, .. } = t.wait() else { panic!("expected completion") };
        assert_eq!(tokens, expect);
        srv.drain(Duration::from_secs(5));
    }

    /// A request is bounded by the model on the caller: the longest ones
    /// `max_seq` holds complete — a short prompt with the most tokens, a
    /// whole-context prompt with one — while one token more, or a token
    /// past the vocabulary, is refused before the queue sees it.
    #[test]
    fn requests_past_the_model_are_refused_on_the_caller() {
        let model = tiny_model();
        let (max_seq, vocab) = (model.config.max_seq, model.config.vocab);
        let mut cfg = quiet_cfg(1);
        cfg.max_prompt = max_seq;
        let srv = Server::start(Arc::clone(&model), cfg);
        let (short, whole) = (vec![1, 2, 3], vec![7; max_seq]);
        let longest = max_seq + 1 - short.len();
        let request = |prompt: &[usize], n_tokens| Request { prompt: prompt.to_vec(), n_tokens, deadline: None };
        let refused = |req| catch_unwind(AssertUnwindSafe(|| srv.submit(req))).is_err();
        assert!(refused(request(&short, longest + 1)));
        assert!(refused(request(&whole, 2)));
        assert!(refused(request(&[1, vocab, 2], 2)));
        for (prompt, n) in [(&short, longest), (&whole, 1)] {
            let Outcome::Completed { tokens, .. } = srv.submit(request(prompt, n)).unwrap().wait() else {
                panic!("a {}-token prompt with {n} tokens completes", prompt.len())
            };
            assert_eq!(tokens, solo(&model, prompt, n));
        }
        let report = srv.drain(Duration::from_secs(5));
        assert_eq!((report.submitted, report.completed, report.evicted), (2, 2, 0));
        assert_eq!(report.scheduler.map(|s| s.recoveries), Some(0));
    }

    #[test]
    fn queue_full_and_memory_pressure_reject_typed() {
        let mut cfg = quiet_cfg(2);
        cfg.queue_capacity = 2;
        // One slot over a pool of 20 one-token pages.
        *sizing(&mut cfg) = ContinuousConfig { max_slots: 1, pages_total: 20, page_tokens: 1, ..*sizing(&mut cfg) };
        // Wedge the first request (slow, not faulted) so admission state is
        // deterministic while we probe the limits.
        cfg.comm.injector = Some(Arc::new(stall_plan(0, 150).injector()));
        let srv = Server::start(tiny_model(), cfg);

        let t = srv
            .submit(Request { prompt: vec![1; 8], n_tokens: 8, deadline: None })
            .unwrap();
        // Let the scheduler seat it (it is now wedged mid-prompt, queue empty).
        std::thread::sleep(Duration::from_millis(30));
        // Admission charges prompt pages (prompt + 1 tokens at one token per
        // page): 9 queue behind the wedged request, and 12 more would
        // breach the 20-page pool.
        let t2 = srv.submit(Request { prompt: vec![1; 8], n_tokens: 8, deadline: None }).unwrap();
        assert_eq!(
            srv.submit(Request { prompt: vec![1; 11], n_tokens: 8, deadline: None }).err(),
            Some(Rejected::MemoryPressure)
        );
        // Fill the second queue slot, then overflow the queue.
        let t3 = srv.submit(Request { prompt: vec![1], n_tokens: 1, deadline: None }).unwrap();
        assert_eq!(
            srv.submit(Request { prompt: vec![1], n_tokens: 1, deadline: None }).err(),
            Some(Rejected::QueueFull)
        );
        for t in [t, t2, t3] {
            assert!(matches!(t.wait(), Outcome::Completed { .. }));
        }
        let report = srv.drain(Duration::from_secs(5));
        assert_eq!(report.admitted, 3);
        assert_eq!(report.rejected_memory, 1);
        assert_eq!(report.rejected_queue_full, 1);
    }

    #[test]
    fn client_cancel_evicts_and_session_survives() {
        let mut cfg = quiet_cfg(2);
        cfg.comm.injector = Some(Arc::new(stall_plan(0, 150).injector()));
        let srv = Server::start(tiny_model(), cfg);
        let t = srv
            .submit(Request { prompt: vec![1, 2], n_tokens: 8, deadline: None })
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        t.cancel();
        let Outcome::Evicted { reason, .. } = t.wait() else { panic!("expected eviction") };
        assert_eq!(reason, EvictReason::Cancelled);
        // The engine is reusable after a cancellation.
        let t2 = srv.submit(Request { prompt: vec![3], n_tokens: 2, deadline: None }).unwrap();
        assert!(matches!(t2.wait(), Outcome::Completed { .. }));
        let report = srv.drain(Duration::from_secs(5));
        assert_eq!(report.evicted, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.watchdog_fires, 0);
    }

    #[test]
    fn deadline_expiry_returns_token_identical_partial_prefix() {
        let model = tiny_model();
        let full = solo(&model, &[1, 2], 40);

        let mut cfg = quiet_cfg(2);
        cfg.default_deadline = Some(Duration::from_millis(40));
        // Wedge mid-generation (sequence position 12 ≈ 10 tokens in) for
        // longer than the remaining deadline budget.
        let plan = FaultPlan::new(vec![FaultSpec {
            rank: 1,
            site: FaultSite::Layer { token: 12, layer: 0 },
            kind: FaultKind::Stall { millis: 150 },
        }]);
        cfg.comm.injector = Some(Arc::new(plan.injector()));
        let srv = Server::start(model, cfg);
        let t = srv
            .submit(Request { prompt: vec![1, 2], n_tokens: 40, deadline: None })
            .unwrap();
        let Outcome::DeadlineExpired { partial } = t.wait() else {
            panic!("expected deadline expiry")
        };
        assert!(!partial.is_empty() && partial.len() < 40);
        assert_eq!(&partial[..], &full[..partial.len()]);
        let report = srv.drain(Duration::from_secs(5));
        assert_eq!(report.deadline_expired, 1);
    }

    #[test]
    fn fault_storm_opens_breaker_then_probe_recovers() {
        let mut cfg = quiet_cfg(2);
        sizing(&mut cfg).replay_budget = 0; // first fault is terminal
        cfg.breaker.failure_threshold = 2;
        cfg.breaker.open_window = Duration::from_millis(20);
        cfg.comm.timeout = Duration::from_millis(50);
        // Two scripted stalls longer than the join deadline: the first
        // request's pass hits one at the group's first join, the second's
        // at the first join of the member barrier re-created after it.
        let plan = FaultPlan::new(vec![
            FaultSpec {
                rank: 1,
                site: FaultSite::Barrier { epoch: 0 },
                kind: FaultKind::Stall { millis: 200 },
            },
            FaultSpec {
                rank: 1,
                site: FaultSite::Barrier { epoch: 0 },
                kind: FaultKind::Stall { millis: 200 },
            },
        ]);
        cfg.comm.injector = Some(Arc::new(plan.injector()));
        let srv = Server::start(tiny_model(), cfg);

        let mut faulted = 0;
        for _ in 0..2 {
            let t = srv.submit(Request { prompt: vec![1, 2], n_tokens: 3, deadline: None }).unwrap();
            if matches!(t.wait(), Outcome::Evicted { reason: EvictReason::EngineFault { .. }, .. }) {
                faulted += 1;
            }
        }
        assert_eq!(faulted, 2, "both scripted faults should be terminal");
        // Breaker now open: fast-fail without touching the engine.
        assert_eq!(
            srv.submit(Request { prompt: vec![1], n_tokens: 1, deadline: None }).err(),
            Some(Rejected::BreakerOpen)
        );
        // After the window the probe is admitted and (faults consumed)
        // succeeds, closing the breaker for everyone.
        std::thread::sleep(Duration::from_millis(25));
        let probe = srv.submit(Request { prompt: vec![1], n_tokens: 2, deadline: None }).unwrap();
        assert!(matches!(probe.wait(), Outcome::Completed { .. }));
        let t = srv.submit(Request { prompt: vec![4], n_tokens: 2, deadline: None }).unwrap();
        assert!(matches!(t.wait(), Outcome::Completed { .. }));

        let report = srv.drain(Duration::from_secs(5));
        assert_eq!(report.breaker_opens, 1);
        assert_eq!(report.rejected_breaker, 1);
        assert_eq!(report.evicted, 2);
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn cross_class_probe_fault_does_not_wedge_admission() {
        let mut cfg = quiet_cfg(2);
        sizing(&mut cfg).replay_budget = 0; // first fault is terminal
        cfg.breaker.failure_threshold = 1;
        cfg.breaker.open_window = Duration::from_millis(20);
        cfg.comm.timeout = Duration::from_millis(50);
        // Request 1 hits a stall: a Timeout-class terminal fault opens the
        // Timeout breaker. Its half-open probe then hits a scripted panic —
        // a fault of a *different* class. The probed Timeout breaker must
        // re-open (not leak HalfOpen, which rejects every admission in
        // BreakerSet::admit forever).
        let plan = FaultPlan::new(vec![
            FaultSpec {
                rank: 1,
                site: FaultSite::Barrier { epoch: 0 },
                kind: FaultKind::Stall { millis: 200 },
            },
            FaultSpec { rank: 1, site: FaultSite::Barrier { epoch: 0 }, kind: FaultKind::Panic },
        ]);
        cfg.comm.injector = Some(Arc::new(plan.injector()));
        let srv = Server::start(tiny_model(), cfg);

        let t = srv.submit(Request { prompt: vec![1, 2], n_tokens: 3, deadline: None }).unwrap();
        let Outcome::Evicted { reason: EvictReason::EngineFault { class, msg }, .. } = t.wait()
        else {
            panic!("expected terminal fault")
        };
        assert_eq!(class, FaultClass::Timeout, "{msg}");
        assert_eq!(
            srv.submit(Request { prompt: vec![1], n_tokens: 1, deadline: None }).err(),
            Some(Rejected::BreakerOpen)
        );

        std::thread::sleep(Duration::from_millis(25));
        let probe = srv.submit(Request { prompt: vec![1], n_tokens: 2, deadline: None }).unwrap();
        let Outcome::Evicted { reason: EvictReason::EngineFault { class, msg }, .. } = probe.wait()
        else {
            panic!("expected the probe to fault")
        };
        assert_eq!(class, FaultClass::Panic, "{msg}");

        // The aborted Timeout probe re-opens with an elapsed window: the
        // very next submit becomes its probe and (faults consumed)
        // completes. Before the fix this submit fast-failed forever.
        let t = srv.submit(Request { prompt: vec![2], n_tokens: 2, deadline: None }).unwrap();
        assert!(matches!(t.wait(), Outcome::Completed { .. }));
        // The panic class opened its own window off the probe's fault;
        // once it elapses its probe clears it and admission is fully open.
        std::thread::sleep(Duration::from_millis(25));
        let t = srv.submit(Request { prompt: vec![3], n_tokens: 2, deadline: None }).unwrap();
        assert!(matches!(t.wait(), Outcome::Completed { .. }));

        let report = srv.drain(Duration::from_secs(5));
        assert_eq!(report.breaker_opens, 2, "one Timeout open, one Panic open");
        assert_eq!(report.completed, 2);
        assert_eq!(report.evicted, 2);
    }

    #[test]
    fn watchdog_cancels_wedged_request() {
        // A scripted stall below an oversized join deadline wedges the
        // engine mid-request with no fault detection; the watchdog's
        // progress timeout fires and turns the wedge into a typed eviction.
        let mut cfg = quiet_cfg(2);
        cfg.comm.timeout = Duration::from_secs(30); // detection alone won't save us
        cfg.progress_timeout = Some(Duration::from_millis(40));
        cfg.comm.injector = Some(Arc::new(stall_plan(0, 300).injector()));
        let srv = Server::start(tiny_model(), cfg);
        let t = srv.submit(Request { prompt: vec![1, 2], n_tokens: 50, deadline: None }).unwrap();
        let Outcome::Evicted { reason, .. } = t.wait() else { panic!("expected eviction") };
        assert_eq!(reason, EvictReason::Cancelled);
        let report = srv.drain(Duration::from_secs(5));
        assert_eq!(report.watchdog_fires, 1);
        assert_eq!(report.evicted, 1);
    }

    #[test]
    fn drain_grace_expiry_evicts_queue_and_running() {
        let mut cfg = quiet_cfg(2);
        cfg.queue_capacity = 8;
        cfg.comm.injector = Some(Arc::new(stall_plan(0, 200).injector()));
        let srv = Server::start(tiny_model(), cfg);
        // First request wedges mid-prompt; three more pile up behind it.
        let slow = srv.submit(Request { prompt: vec![1], n_tokens: 8, deadline: None }).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let queued: Vec<_> = (0..3)
            .map(|i| {
                srv.submit(Request { prompt: vec![i + 1], n_tokens: 8, deadline: None }).unwrap()
            })
            .collect();
        let report = srv.drain(Duration::from_millis(1));
        assert_eq!(report.admitted, 4);
        assert_eq!(report.completed + report.evicted + report.deadline_expired, 4);
        assert_eq!(report.evicted, 4, "grace expiry must evict running + queued");
        assert!(matches!(slow.wait(), Outcome::Evicted { .. }));
        for t in queued {
            assert!(matches!(t.wait(), Outcome::Evicted { .. }));
        }
    }

    fn continuous_cfg(max_slots: usize, pages_total: usize, page_tokens: usize) -> ServeConfig {
        let mut cfg = ServeConfig::new(1);
        *sizing(&mut cfg) = ContinuousConfig { max_slots, pages_total, page_tokens, ..ContinuousConfig::default() };
        cfg
    }

    #[test]
    fn continuous_serves_batches_token_identical_to_solo() {
        // The tentpole end-to-end property: requests served concurrently
        // through the paged continuous engine get exactly the tokens a solo
        // run of the same prompt produces.
        let model = tiny_model();
        let prompts: Vec<Vec<usize>> = (0..6).map(|i| vec![i + 1, i + 2, (i * 7) % 50]).collect();
        let oracle: Vec<Vec<usize>> = prompts.iter().map(|p| solo(&model, p, 5)).collect();

        let srv = Server::start(Arc::clone(&model), continuous_cfg(4, 64, 4));
        let tickets: Vec<_> = prompts
            .iter()
            .map(|p| {
                srv.submit(Request { prompt: p.clone(), n_tokens: 5, deadline: None }).unwrap()
            })
            .collect();
        for (t, want) in tickets.into_iter().zip(&oracle) {
            let Outcome::Completed { tokens, .. } = t.wait() else { panic!("expected completion") };
            assert_eq!(&tokens, want);
        }
        let report = srv.drain(Duration::from_secs(5));
        assert_eq!(report.completed, 6);
        let sched = report.scheduler.expect("the scheduler attaches its report");
        assert!(sched.steps > 0 && sched.prefills == 6);
        // Six unrelated 3-token prompts: every row computed, none attached.
        assert_eq!((sched.prompt_tokens_prefilled, sched.prompt_tokens_attached), (18, 0));
        assert_eq!(sched.pages.fragmentation, 0);
        assert_eq!(sched.occupancy_hist.iter().sum::<u64>(), sched.steps);
        // No batch-formation assert here: on a single-core host the OS can
        // hand the CPU to the scheduler after every submit, legitimately
        // serializing the run (occupancy 1). Batch formation is gated where
        // it is deterministic — `bench_robustness --smoke` keeps the engine
        // saturated under a sustained 3× burst and asserts occupancy > 1.
        assert!(sched.mean_occupancy >= 1.0, "mean occupancy {}", sched.mean_occupancy);
    }

    /// A TP server's group serves every request — batched, token-identical
    /// to the solo run — and a fault-free run recovers no fault.
    #[test]
    fn tp_group_is_built_once_and_serves_batches_token_identically() {
        let model = tiny_model();
        let prompts: Vec<Vec<usize>> = (0..20).map(|i| vec![i + 1, (3 * i) % 50, 7]).collect();
        for tp in [2, 4] {
            let cfg = ServeConfig { tp, queue_capacity: 32, ..continuous_cfg(4, 64, 4) };
            let srv = Server::start(Arc::clone(&model), cfg);
            let tickets: Vec<_> = prompts
                .iter()
                .map(|p| srv.submit(Request { prompt: p.clone(), n_tokens: 5, deadline: None }).unwrap())
                .collect();
            for (t, p) in tickets.into_iter().zip(&prompts) {
                let Outcome::Completed { tokens, .. } = t.wait() else { panic!("expected completion") };
                assert_eq!(tokens, solo(&model, p, 5), "tp {tp}");
            }
            let report = srv.drain(Duration::from_secs(5));
            assert_eq!((report.completed, report.ft.rebuilds), (20, 0), "tp {tp}: {:?}", report.ft);
        }
    }

    #[test]
    fn continuous_shared_prefix_prefills_only_what_nobody_has() {
        // The benchmark's `serve_shared_prefix` shape at a quarter scale:
        // one prefix of exactly three pages on every prompt, suffixes of
        // 1–3 tokens. Only the first admission computes the prefix; every
        // later one attaches its three pages — off a live holder or off the
        // free list — and prefills its suffix, ≈ 86 % of prompt tokens.
        let model = tiny_model();
        let prompts: Vec<Vec<usize>> = (0..12usize)
            .map(|i| (30..42).chain((0..1 + i % 3).map(|j| (5 * i + j) % 29)).collect())
            .collect();
        let srv = Server::start(Arc::clone(&model), continuous_cfg(3, 64, 4));
        let tickets: Vec<_> = prompts
            .iter()
            .map(|p| {
                srv.submit(Request { prompt: p.clone(), n_tokens: 4, deadline: None }).unwrap()
            })
            .collect();
        for (t, p) in tickets.into_iter().zip(&prompts) {
            let want = solo(&model, p, 4);
            let Outcome::Completed { tokens, .. } = t.wait() else { panic!("expected completion") };
            assert_eq!(tokens, want);
        }
        let report = srv.drain(Duration::from_secs(5));
        let sched = report.scheduler.expect("the scheduler attaches its report");
        let total: u64 = prompts.iter().map(|p| p.len() as u64).sum();
        assert_eq!(sched.prefills, 12);
        assert_eq!(sched.prompt_tokens_attached, 12 * 11);
        assert_eq!(sched.prompt_tokens_prefilled, total - 12 * 11);
        // Three shared pages plus, per resident, a tail page and at most
        // one page of growth — not the 3 × 5 the slots would pin unshared.
        assert!(sched.pages.high_water <= 3 + 3 * 2, "high water {}", sched.pages.high_water);
        assert_eq!(sched.pages.fragmentation, 0);
    }

    #[test]
    fn continuous_eos_retires_mid_batch() {
        let model = tiny_model();
        let prompt = vec![1usize, 2, 3];
        let full = solo(&model, &prompt, 8);
        // Declare the 3rd generated token as EOS: the sequence must stop
        // there (inclusive) while its neighbour runs to its full budget.
        let eos = full[2];
        let truncated: Vec<usize> =
            full.iter().take_while(|&&t| t != eos).chain([&eos]).copied().collect();

        let mut cfg = continuous_cfg(2, 64, 4);
        cfg.eos = Some(eos);
        let srv = Server::start(Arc::clone(&model), cfg);
        let t1 = srv.submit(Request { prompt: prompt.clone(), n_tokens: 8, deadline: None }).unwrap();
        let other = vec![9usize, 9, 8];
        let want_other = {
            let full = solo(&model, &other, 8);
            full.iter().take(full.iter().position(|t| *t == eos).map_or(8, |p| p + 1)).copied().collect::<Vec<_>>()
        };
        let t2 = srv.submit(Request { prompt: other, n_tokens: 8, deadline: None }).unwrap();
        let Outcome::Completed { tokens, .. } = t1.wait() else { panic!("expected completion") };
        assert_eq!(tokens, truncated, "EOS sequence stops at the EOS token inclusive");
        let Outcome::Completed { tokens, .. } = t2.wait() else { panic!("expected completion") };
        assert_eq!(tokens, want_other);
        srv.drain(Duration::from_secs(5));
    }

    #[test]
    fn continuous_page_exhaustion_sheds_typed_and_recycles() {
        let model = tiny_model();
        // Pool of 10 pages × 2 tokens = 20 token capacity. The last
        // generated token needs no KV row of its own, so 3 prompt + 19
        // generated needs 21 rows — it must hit `PagesExhausted` mid-decode
        // *under any thread interleaving*: whether it runs solo or shares
        // steps with a neighbour (on a single-core host the two-request
        // contention timing is not reproducible, but a request that can
        // never fit always sheds).
        let srv = Server::start(Arc::clone(&model), continuous_cfg(2, 10, 2));
        let t1 = srv.submit(Request { prompt: vec![1, 2, 3], n_tokens: 19, deadline: None }).unwrap();
        let o1 = t1.wait();
        let Outcome::Evicted { reason: EvictReason::PagesExhausted, partial } = o1 else {
            panic!("oversized request must shed typed, got {o1:?}");
        };
        // The partial is the exact solo prefix up to the last token whose
        // fed predecessor still had a KV row: 20 rows - 3 prompt = 17 fed
        // generated tokens, i.e. 18 emitted.
        let full = solo(&model, &[1, 2, 3], 19);
        assert_eq!(partial.len(), 18, "shed at the first reservation past the pool");
        assert_eq!(&full[..partial.len()], &partial[..]);
        // The victim's pages went back to the free list: a request that
        // fits must now run to completion on the recycled pages.
        let t2 = srv.submit(Request { prompt: vec![4, 5, 6], n_tokens: 12, deadline: None }).unwrap();
        let Outcome::Completed { tokens, .. } = t2.wait() else { panic!("expected completion") };
        let want = solo(&model, &[4, 5, 6], 12);
        assert_eq!(tokens, want);
        let report = srv.drain(Duration::from_secs(5));
        assert_eq!(report.completed, 1);
        assert_eq!(report.evicted, 1);
        assert_eq!(report.admitted, 2);
        assert_eq!(report.scheduler.unwrap().page_evictions, 1);
    }

    #[test]
    fn continuous_rejects_hopeless_prompt_as_memory_pressure() {
        let srv = Server::start(tiny_model(), continuous_cfg(2, 2, 2));
        // 5 prompt tokens + 1 > 2 pages × 2 tokens: could never be seated.
        assert_eq!(
            srv.submit(Request { prompt: vec![1; 5], n_tokens: 2, deadline: None }).err(),
            Some(Rejected::MemoryPressure)
        );
        let report = srv.drain(Duration::from_secs(5));
        assert_eq!(report.rejected_memory, 1);
        assert_eq!(report.admitted, 0);
    }

    #[test]
    fn continuous_cancel_and_deadline_resolve_typed() {
        let model = tiny_model();
        let srv = Server::start(Arc::clone(&model), continuous_cfg(4, 64, 4));
        // Cancel races the scheduler: it can win before seating (empty
        // prefix), land between steps (partial prefix), or — on a
        // single-core host — lose outright to a request that ran to
        // completion in the gap. Typed either way, never lost, never torn.
        let t = srv.submit(Request { prompt: vec![1, 2], n_tokens: 50, deadline: None }).unwrap();
        t.cancel();
        let full = solo(&model, &[1, 2], 50);
        let mut evicted = 0u64;
        match t.wait() {
            Outcome::Evicted { reason, partial } => {
                assert_eq!(reason, EvictReason::Cancelled);
                assert_eq!(&full[..partial.len()], &partial[..], "partial prefix is exact");
                evicted = 1;
            }
            Outcome::Completed { tokens, .. } => assert_eq!(tokens, full),
            other => panic!("unexpected outcome {other:?}"),
        }
        // Already-expired deadline resolves typed with an empty prefix.
        let t = srv
            .submit(Request {
                prompt: vec![3, 4],
                n_tokens: 50,
                deadline: Some(Duration::ZERO),
            })
            .unwrap();
        assert!(matches!(t.wait(), Outcome::DeadlineExpired { .. }));
        let report = srv.drain(Duration::from_secs(5));
        assert_eq!(report.evicted, evicted);
        assert_eq!(report.deadline_expired, 1);
    }
}
