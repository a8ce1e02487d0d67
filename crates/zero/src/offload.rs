//! The executed tiered weight store: memory-mapped panel file, bounded
//! resident cache, prefetch worker — ZeRO-Inference's "pin the weights in a
//! big slow tier, stream layers into compute memory" (Sec. VI), made real
//! and fault-hardened.
//!
//! [`OffloadStore`] opens a v3 `model::io` weight file (version header +
//! per-panel CRC32C, layer panels stored in the packed execution layout
//! the kernels consume — see `dsi_model::io`), keeps the small
//! always-needed group resident (embeddings + final layer-norm + the
//! packed logits operand), and serves transformer layers as
//! [`PackedLayer`] panels on demand under a **resident-byte budget**: at
//! most `resident_budget_bytes` of packed layer panels live in memory at once,
//! so a model whose weight file dwarfs the budget still decodes — the
//! paged engine (`dsi_model::paged::Engine`) over the store is
//! token-identical to the same engine over a fully-resident model because
//! it *is* the same engine driving the same `dsi_model::fast::step`, the
//! store being its [`WeightSource`].
//!
//! ## Concurrency shape
//!
//! One background worker owns the prefetch queue. The decode thread calls
//! [`OffloadStore::acquire`] for layer `l` and immediately
//! [`OffloadStore::prefetch_ahead`] for `l+1`, so the worker copies
//! upcoming panels out of the mapping and checksums the copies while the
//! GEMMs of the current layer run — the overlap the analytical model in
//! [`crate::engine`] costs out. A fetch is a copy and a verify and nothing
//! else: the tier is read, not rebuilt (`OffloadStats::{fetch_ns,
//! checksum_ns}` say what bounds it). Panels are handed out as `Arc`s; a
//! panel still held by the decode loop is *pinned* (strong count > 1) and
//! never evicted. Eviction picks the unpinned panel with the **furthest
//! next use under the cyclic layer schedule** (decode touches layers `0..L`
//! round-robin, which is LRU's pathological case; distance-to-next-use is
//! Belady-optimal here).
//!
//! ## Fault surface
//!
//! Every tier read is a seam for `dsi_sim::fault::IoFaultInjector`:
//! * **slow reads** stall the worker; the decode thread's `acquire` carries
//!   a fetch deadline measured on the injected [`Clock`] and fails typed
//!   (`FetchTimeout` — `Timeout` breaker class) instead of wedging;
//! * **short reads** and **corrupt panels** are detected (byte count /
//!   CRC32C against the panel directory) and re-read with a fixed linear
//!   backoff (1 ms × attempt) up to `read_retries` times before the typed
//!   `Corruption`-class error;
//! * **failed open / handle loss** kills the prefetch worker; the store
//!   degrades to synchronous demand fetch on the decode thread — decode
//!   slows, it never wedges and never returns wrong bytes.
//!
//! Each [`OffloadError`] variant has a `dsi_core::batch::FaultClass`
//! (`dsi_core::streamed`, an exhaustive `match` on the variant), which is
//! how a dying weight tier trips the serving runtime's per-class circuit
//! breakers; the `Display` strings are for people.

use dsi_kernels::blocked::{PackedB, PanelWeights};
use dsi_kernels::tensor::Tensor;
use dsi_model::config::GptConfig;
use dsi_model::fast::{PackedLayer, WeightSource};
use dsi_model::io::{self, IoError, PanelDirectory};
use dsi_sim::fault::{apply_stall, IoFaultInjector, IoFaultKind};
use dsi_sim::Clock;
use serde::Serialize;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Typed failures of the tiered weight store. Adding a variant fails to
/// compile in `dsi_core::streamed` until it is given a fault class there;
/// nothing reads the `Display` wording.
#[derive(Debug)]
pub enum OffloadError {
    /// The weight file could not be opened / mapped.
    FailedOpen { path: String, detail: String },
    /// The file is structurally bad (bad magic/version/shape/checksum at
    /// open time).
    Io(IoError),
    /// A layer panel failed its CRC32C against the directory on every
    /// attempt.
    ChecksumFailed { layer: usize, attempts: usize },
    /// A layer panel read came back short on every attempt.
    ShortReadFailed { layer: usize, attempts: usize },
    /// The reader lost the weight-file handle mid-read (injected
    /// `FailOpen` at a read site): whoever was reading dies cleanly.
    HandleLost { layer: usize },
    /// The fetch deadline elapsed (on the configured clock) before the
    /// panel became resident.
    FetchTimeout { layer: usize, waited_ms: u64 },
    /// The resident budget cannot hold even one layer panel.
    BudgetExhausted { need: usize, budget: usize },
}

impl std::fmt::Display for OffloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OffloadError::FailedOpen { path, detail } => {
                write!(f, "offload open failed: {path}: {detail}")
            }
            OffloadError::Io(e) => write!(f, "offload weight file: {e}"),
            OffloadError::ChecksumFailed { layer, attempts } => {
                write!(f, "layer {layer} panel corrupt after {attempts} reads (checksum mismatch)")
            }
            OffloadError::ShortReadFailed { layer, attempts } => {
                write!(f, "layer {layer} panel corrupt after {attempts} reads (short reads)")
            }
            OffloadError::HandleLost { layer } => {
                write!(f, "offload handle lost reading layer {layer} panel")
            }
            OffloadError::FetchTimeout { layer, waited_ms } => {
                write!(f, "layer {layer} panel fetch timed out after {waited_ms} ms")
            }
            OffloadError::BudgetExhausted { need, budget } => {
                write!(f, "offload memory budget {budget} B cannot hold a {need} B layer panel")
            }
        }
    }
}

impl std::error::Error for OffloadError {}

impl From<IoError> for OffloadError {
    fn from(e: IoError) -> Self {
        OffloadError::Io(e)
    }
}

/// Wall-clock backoff before re-read `n` of a panel is `n ×` this.
const RETRY_BACKOFF_MS: u64 = 1;

/// Store configuration. `Default` is an unbounded resident budget with a
/// depth-2 prefetch and generous wall-clock deadlines.
#[derive(Debug, Clone)]
pub struct OffloadConfig {
    /// Byte budget for resident **layer panels** (packed execution layout).
    /// The always-resident group (embeddings, final layer-norm, packed
    /// logits operand) is excluded: it is the part ZeRO-Inference never
    /// streams.
    pub resident_budget_bytes: usize,
    /// How many layer panels to fetch ahead of the decode loop. Clamped at
    /// open time to what the budget can hold beyond the in-use panel.
    pub prefetch_depth: usize,
    /// Deadline for one `acquire`, measured on `clock`.
    pub fetch_timeout: Duration,
    /// Bounded re-reads after a short or checksum-failing read, each after
    /// a wall-clock backoff of 1 ms × the attempt number.
    pub read_retries: usize,
    /// Deadline time source (manual in chaos tests, wall in production).
    pub clock: Clock,
    /// Seeded I/O fault injection; `None` in production.
    pub faults: Option<Arc<IoFaultInjector>>,
}

impl Default for OffloadConfig {
    fn default() -> Self {
        OffloadConfig {
            resident_budget_bytes: usize::MAX,
            prefetch_depth: 2,
            fetch_timeout: Duration::from_secs(10),
            read_retries: 2,
            clock: Clock::wall(),
            faults: None,
        }
    }
}

/// Counters for benches and the chaos suite's books (all monotonic).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct OffloadStats {
    /// `acquire` calls answered straight from the resident cache.
    pub hits: u64,
    /// `acquire` calls that had to wait for (or perform) a fetch.
    pub demand_fetches: u64,
    /// Panels fetched by the background worker.
    pub prefetch_fetches: u64,
    /// Panels fetched synchronously on the decode thread because the
    /// prefetcher was dead.
    pub sync_fallbacks: u64,
    /// Panels evicted to fit a newcomer under the budget.
    pub evictions: u64,
    /// Prefetched panels dropped because nothing evictable made room.
    pub prefetch_dropped: u64,
    /// Fetches that ended in a typed error.
    pub fetch_errors: u64,
    /// Re-reads forced by short reads.
    pub short_read_retries: u64,
    /// Re-reads forced by checksum mismatches.
    pub checksum_retries: u64,
    /// Reads that hit an injected stall.
    pub slow_reads: u64,
    /// Wall milliseconds spent in injected stalls.
    pub stall_ms: u64,
    /// Payload bytes read from the backing tier (including re-reads).
    pub bytes_read: u64,
    /// Wall nanoseconds inside panel fetches that ended in a panel: copy
    /// and verify, plus any injected stall and re-read backoff on the way.
    /// `bytes_read / fetch_ns` is the tier's achieved bandwidth.
    pub fetch_ns: u64,
    /// The part of `fetch_ns` spent checksumming the copied panel (and
    /// checking its headers) — what bounds a fetch, as a counter.
    pub checksum_ns: u64,
    /// High-water mark of resident layer-panel bytes.
    pub peak_resident_bytes: usize,
}

// ---------------------------------------------------------------------------
// Backing: the mapped (or heap-loaded) weight file.
// ---------------------------------------------------------------------------

/// The weight file's bytes. On x86-64 Linux this is a read-only private
/// `mmap` — the OS pages panels in and out on demand, which is what lets
/// the *file* exceed physical memory while the store's own budget bounds
/// the packed panels. Elsewhere it degrades to a heap load (correct, but
/// the bigger-than-RAM property is lost).
enum Backing {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped { ptr: *const u8, len: usize },
    Heap(Vec<u8>),
}

// SAFETY: the mapped region is PROT_READ + MAP_PRIVATE over a file this
// process opened; it is never written through `ptr` and stays valid until
// `Drop` unmaps it. Shared `&[u8]` access from several threads is sound.
unsafe impl Send for Backing {}
// SAFETY: as above — the region is immutable for the mapping's lifetime.
unsafe impl Sync for Backing {}

impl Backing {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn map(path: &Path) -> std::io::Result<Backing> {
        use std::os::fd::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Ok(Backing::Heap(Vec::new()));
        }
        let fd = file.as_raw_fd();
        let ret: isize;
        // Raw syscall 9 (mmap) on x86-64 Linux: addr=NULL, PROT_READ (1),
        // MAP_PRIVATE (2), offset 0 — the repo links no libc crate (same
        // idiom as `dsi_parallel::tp_exec::pin_current_thread`).
        //
        // SAFETY: all six arguments follow the mmap ABI; the kernel either
        // returns a fresh page-aligned mapping or a negative errno, and the
        // register clobbers (rcx/r11) plus `nostack` match the syscall
        // calling convention. `r10`/`r8`/`r9` carry args 4–6.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 9isize => ret,
                in("rdi") 0usize,
                in("rsi") len,
                in("rdx") 1usize, // PROT_READ
                in("r10") 2usize, // MAP_PRIVATE
                in("r8") fd as usize,
                in("r9") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if (-4095..0).contains(&ret) {
            return Err(std::io::Error::from_raw_os_error(-ret as i32));
        }
        // The mapping outlives `file`: munmap, not close, tears it down.
        Ok(Backing::Mapped { ptr: ret as *const u8, len })
    }

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn map(path: &Path) -> std::io::Result<Backing> {
        Ok(Backing::Heap(std::fs::read(path)?))
    }

    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes (established in `map`, released only in `Drop`).
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap(v) => v,
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Backing::Mapped { ptr, len } = *self {
            let ret: isize;
            // SAFETY: syscall 11 (munmap) over the exact region `map`
            // created; after this the pointer is never read again (we are
            // in `Drop`). Register usage per the syscall ABI.
            unsafe {
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") 11isize => ret,
                    in("rdi") ptr as usize,
                    in("rsi") len,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            debug_assert_eq!(ret, 0, "munmap failed");
        }
    }
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

/// The always-resident group: what every token touches at both ends of the
/// layer stack, parsed once at open.
pub struct ResidentGroup {
    pub wte: Tensor,
    pub wpe: Tensor,
    pub lnf_g: Vec<f32>,
    pub lnf_b: Vec<f32>,
    /// `wteᵀ` pre-packed as the logits GEMM operand.
    pub wte_packed: PackedB,
}

struct CacheEntry {
    panel: Arc<PackedLayer<PackedB>>,
    bytes: usize,
}

#[derive(Default)]
struct CacheState {
    resident: HashMap<usize, CacheEntry>,
    /// Layers a fetch is in flight for (worker-owned once queued).
    inflight: Vec<usize>,
    /// Typed failures parked for the next `acquire(layer)` to consume.
    failed: HashMap<usize, OffloadError>,
    /// The last evicted panel, kept so the next fetch refills its buffers
    /// instead of faulting in fresh ones. Not resident (nothing can acquire
    /// it) and not new memory: it is the one panel a fetch in flight has
    /// always held beyond the budget, kept between fetches.
    spare: Option<PackedLayer<PackedB>>,
    resident_bytes: usize,
    /// The layer most recently acquired — anchors the cyclic
    /// distance-to-next-use eviction order.
    last_acquired: usize,
    worker_dead: bool,
    stats: OffloadStats,
}

struct Inner {
    backing: Backing,
    dir: PanelDirectory,
    cfg: OffloadConfig,
    /// Prefetch depth after clamping to the budget.
    depth: usize,
    state: Mutex<CacheState>,
    cv: Condvar,
    /// Global read-call counter — the coordinate `IoFaultSite::Read`
    /// addresses. Call 0 is the open-time probe fetch of layer 0.
    read_calls: AtomicU64,
    queue: Sender<usize>,
}

/// Sentinel the drop/kill paths enqueue to stop the worker.
const SHUTDOWN: usize = usize::MAX;

/// A fault-hardened tiered weight store over a v3 panel file. See the
/// module docs for the design; the decode loop on top is
/// `dsi_model::paged::Engine<OffloadStore>`.
pub struct OffloadStore {
    inner: Arc<Inner>,
    resident: ResidentGroup,
    /// Packed bytes of one layer panel (measured on layer 0 at open; all
    /// layers share one geometry).
    panel_bytes: usize,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl OffloadStore {
    /// Open (map) a weight file and start the prefetch worker. Fails typed
    /// on an unopenable path, a structurally bad file, a corrupt resident
    /// panel, or a budget too small for a single layer panel.
    pub fn open(path: impl AsRef<Path>, cfg: OffloadConfig) -> Result<OffloadStore, OffloadError> {
        let path = path.as_ref();
        // The open itself is fault site `Open { call: 0 }`: a scripted
        // failure here models the tier refusing the handle.
        if let Some(f) = cfg.faults.as_ref() {
            match f.at_open(0) {
                Some(IoFaultKind::SlowRead { millis }) => apply_stall(millis),
                Some(_) => {
                    return Err(OffloadError::FailedOpen {
                        path: path.display().to_string(),
                        detail: "injected open failure".into(),
                    })
                }
                None => {}
            }
        }
        let backing = Backing::map(path).map_err(|e| OffloadError::FailedOpen {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        let dir = io::read_directory(backing.bytes())?;
        // The resident group is loaded once and verified here, not per
        // decode step.
        let p0 = dir.panels[0];
        let payload = &backing.bytes()[p0.offset..p0.offset + p0.len];
        if io::checksum(payload) != p0.crc {
            return Err(OffloadError::Io(IoError::ChecksumMismatch { panel: 0 }));
        }
        let (wte, wpe, lnf_g, lnf_b) = io::parse_resident_panel(payload, &dir.config)?;
        let resident = ResidentGroup {
            wte_packed: PackedB::from_pre_transposed(&wte),
            lnf_g: lnf_g.data().to_vec(),
            lnf_b: lnf_b.data().to_vec(),
            wte,
            wpe,
        };

        let (tx, rx) = mpsc::channel::<usize>();
        let inner = Arc::new(Inner {
            backing,
            dir,
            cfg,
            depth: 0, // set below once panel_bytes is known
            state: Mutex::new(CacheState::default()),
            cv: Condvar::new(),
            read_calls: AtomicU64::new(0),
            queue: tx,
        });

        // Probe fetch of layer 0: measures the packed panel size (uniform
        // across layers), validates the budget, and warms the cache.
        let fetched = inner.fetch_panel(0)?;
        let panel_bytes = fetched.bytes;
        let budget = inner.cfg.resident_budget_bytes;
        if budget < panel_bytes {
            return Err(OffloadError::BudgetExhausted { need: panel_bytes, budget });
        }
        // Depth is bounded by what fits beyond the panel the decode loop
        // holds pinned.
        let depth = inner.cfg.prefetch_depth.min((budget / panel_bytes).saturating_sub(1));
        // SAFETY-free interior update: `Arc::get_mut` is sound here — the
        // worker has not been spawned, so this Arc is unique.
        let inner = {
            let mut inner = inner;
            Arc::get_mut(&mut inner).expect("unique before worker spawn").depth = depth;
            inner
        };
        {
            let mut st = inner.state.lock().unwrap();
            let stats = fetched.stats;
            merge_stats(&mut st.stats, stats);
            st.stats.demand_fetches += 1;
            insert_with_evict(&mut st, &inner.dir, 0, fetched.panel, fetched.bytes, budget);
        }

        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("dsi-offload-prefetch".into())
            .spawn(move || worker_loop(worker_inner, rx))
            .expect("spawn prefetch worker");

        Ok(OffloadStore { inner, resident, panel_bytes, worker: Some(worker) })
    }

    pub fn config(&self) -> &GptConfig {
        &self.inner.dir.config
    }

    pub fn layers(&self) -> usize {
        self.inner.dir.layers()
    }

    /// The always-resident embedding / final-norm group.
    pub fn resident(&self) -> &ResidentGroup {
        &self.resident
    }

    /// Packed bytes of one layer panel.
    pub fn panel_bytes(&self) -> usize {
        self.panel_bytes
    }

    /// Bytes of the backing weight file.
    pub fn file_bytes(&self) -> usize {
        self.inner.backing.bytes().len()
    }

    /// The effective prefetch depth after budget clamping.
    pub fn effective_depth(&self) -> usize {
        self.inner.depth
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> OffloadStats {
        self.inner.state.lock().unwrap().stats
    }

    /// Whether the background prefetcher is still serving the queue.
    pub fn prefetcher_alive(&self) -> bool {
        !self.inner.state.lock().unwrap().worker_dead
    }

    /// Test hook: kill the prefetch worker as if its handle died. Every
    /// subsequent `acquire` falls back to synchronous fetch on the calling
    /// thread.
    pub fn kill_prefetcher(&self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.worker_dead = true;
            self.inner.cv.notify_all();
        }
        let _ = self.inner.queue.send(SHUTDOWN);
    }

    /// Enqueue the next `effective_depth` layers (cyclically from `next`)
    /// for background fetch. Cheap and non-blocking; already-resident,
    /// in-flight, and failed layers are skipped.
    pub fn prefetch_ahead(&self, next: usize) {
        let layers = self.layers();
        let depth = self.inner.depth.min(layers.saturating_sub(1));
        if depth == 0 {
            return;
        }
        let mut st = self.inner.state.lock().unwrap();
        if st.worker_dead {
            return;
        }
        for i in 0..depth {
            let l = (next + i) % layers;
            if st.resident.contains_key(&l) || st.inflight.contains(&l) || st.failed.contains_key(&l)
            {
                continue;
            }
            st.inflight.push(l);
            if self.inner.queue.send(l).is_err() {
                st.inflight.retain(|&x| x != l);
                st.worker_dead = true;
                return;
            }
        }
    }

    /// Check out layer `l`'s packed panel, fetching it if needed. Blocks
    /// (bounded by `fetch_timeout` on the configured clock) while a fetch
    /// is in flight; performs the fetch inline when the prefetcher is
    /// dead. The returned `Arc` pins the panel against eviction — drop it
    /// before acquiring the next layer (release-before-refetch), or the
    /// budget loses a panel's worth of headroom.
    pub fn acquire(&self, l: usize) -> Result<Arc<PackedLayer<PackedB>>, OffloadError> {
        assert!(l < self.layers(), "layer {l} out of range");
        let inner = &*self.inner;
        let deadline =
            inner.cfg.clock.now_ns().saturating_add(inner.cfg.fetch_timeout.as_nanos() as u64);
        let mut waited_demand = false;
        let mut st = inner.state.lock().unwrap();
        loop {
            if let Some(panel) = st.resident.get(&l).map(|e| Arc::clone(&e.panel)) {
                st.last_acquired = l;
                if waited_demand {
                    st.stats.demand_fetches += 1;
                } else {
                    st.stats.hits += 1;
                }
                return Ok(panel);
            }
            if let Some(err) = st.failed.remove(&l) {
                st.stats.fetch_errors += 1;
                return Err(err);
            }
            waited_demand = true;
            if st.worker_dead {
                // Degraded mode: fetch on the calling thread, without the
                // lock held.
                drop(st);
                let fetched = inner.fetch_panel(l)?;
                st = inner.state.lock().unwrap();
                merge_stats(&mut st.stats, fetched.stats);
                st.stats.sync_fallbacks += 1;
                insert_with_evict(
                    &mut st,
                    &inner.dir,
                    l,
                    fetched.panel,
                    fetched.bytes,
                    inner.cfg.resident_budget_bytes,
                );
                continue;
            }
            if !st.inflight.contains(&l) {
                st.inflight.push(l);
                if inner.queue.send(l).is_err() {
                    st.inflight.retain(|&x| x != l);
                    st.worker_dead = true;
                    continue;
                }
            }
            // Wait in short wall slices; the deadline is measured on the
            // injected clock so chaos tests control it deterministically.
            let (guard, _) = inner.cv.wait_timeout(st, Duration::from_millis(2)).unwrap();
            st = guard;
            if st.resident.contains_key(&l) || st.failed.contains_key(&l) || st.worker_dead {
                continue;
            }
            let now = inner.cfg.clock.now_ns();
            if now >= deadline {
                st.stats.fetch_errors += 1;
                return Err(OffloadError::FetchTimeout {
                    layer: l,
                    waited_ms: inner.cfg.fetch_timeout.as_millis() as u64,
                });
            }
        }
    }
}

/// The streamed weight source of `dsi_model::fast::step`: each layer's
/// panel is checked out for the duration of that layer (resident hit or
/// demand fetch) while the worker reads the following layers, and dropped
/// before the next is acquired (release-before-refetch, so the budget has
/// the in-use panel's room back before the worker needs it).
impl WeightSource for OffloadStore {
    type B = PackedB;
    type Layer<'a> = Arc<PackedLayer<PackedB>>;
    type Error = OffloadError;

    fn config(&self) -> &GptConfig {
        OffloadStore::config(self)
    }
    fn embeddings(&self) -> (&Tensor, &Tensor) {
        (&self.resident.wte, &self.resident.wpe)
    }
    fn lnf(&self) -> (&[f32], &[f32]) {
        (&self.resident.lnf_g, &self.resident.lnf_b)
    }
    fn logits_w(&self) -> &PackedB {
        &self.resident.wte_packed
    }
    fn layer(&self, l: usize) -> Result<Arc<PackedLayer<PackedB>>, OffloadError> {
        let panel = self.acquire(l)?;
        self.prefetch_ahead(l + 1);
        Ok(panel)
    }
}

impl Drop for OffloadStore {
    fn drop(&mut self) {
        let _ = self.inner.queue.send(SHUTDOWN);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

struct Fetched {
    panel: Arc<PackedLayer<PackedB>>,
    bytes: usize,
    stats: OffloadStats,
}

impl Inner {
    /// Copy one layer panel out of the tier and verify the copy, re-reading
    /// (bounded, with backoff) on short or checksum-failing reads. The file
    /// stores execution layout, so this is all a fetch is: no parse, no
    /// pack. Every read consumes one global `read_calls` coordinate for
    /// fault addressing.
    fn fetch_panel(&self, layer: usize) -> Result<Fetched, OffloadError> {
        let started = Instant::now();
        let mut recycle = self.state.lock().unwrap().spare.take();
        let entry = *self.dir.layer_panel(layer);
        let mapped = &self.backing.bytes()[entry.offset..entry.offset + entry.len];
        let mut stats = OffloadStats::default();
        let mut short = 0usize;
        let mut crc_bad = 0usize;
        let attempts = self.cfg.read_retries + 1;
        for attempt in 0..attempts {
            if attempt > 0 {
                apply_stall(RETRY_BACKOFF_MS * attempt as u64);
            }
            let call = self.read_calls.fetch_add(1, Ordering::SeqCst);
            let fault = self.cfg.faults.as_ref().and_then(|f| f.at_read(call));
            // What this read returns: the mapped panel, or — under an
            // injected fault — an unfaithful rendition of it.
            let corrupted: Vec<u8>;
            let src = match fault {
                Some(IoFaultKind::SlowRead { millis }) => {
                    apply_stall(millis);
                    stats.slow_reads += 1;
                    stats.stall_ms += millis;
                    mapped
                }
                Some(IoFaultKind::ShortRead) => &mapped[..entry.len / 2],
                Some(IoFaultKind::CorruptPanel) => {
                    let mut bytes = mapped.to_vec();
                    bytes[entry.len / 2] ^= 0x40;
                    corrupted = bytes;
                    &corrupted
                }
                Some(IoFaultKind::FailOpen) => {
                    return Err(OffloadError::HandleLost { layer });
                }
                None => mapped,
            };
            stats.bytes_read += src.len() as u64;
            if src.len() < entry.len {
                short += 1;
                stats.short_read_retries += 1;
                continue;
            }
            // Order of trust: copy into buffers the panel owns, checksum
            // the copy, and only then let anything read it.
            let copied = io::CopiedPanel::copy_from(src, &self.dir.config, recycle.take())?;
            let verifying = Instant::now();
            let verified = copied.verify(1 + layer, entry.crc);
            stats.checksum_ns += verifying.elapsed().as_nanos() as u64;
            match verified {
                Ok(panel) => {
                    let bytes = packed_layer_bytes(&panel);
                    stats.fetch_ns += started.elapsed().as_nanos() as u64;
                    return Ok(Fetched { panel: Arc::new(panel), bytes, stats });
                }
                Err(IoError::ChecksumMismatch { .. }) => {
                    crc_bad += 1;
                    stats.checksum_retries += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(if crc_bad >= short {
            OffloadError::ChecksumFailed { layer, attempts }
        } else {
            OffloadError::ShortReadFailed { layer, attempts }
        })
    }
}

/// Packed in-memory footprint of one layer panel.
fn packed_layer_bytes(pl: &PackedLayer<PackedB>) -> usize {
    pl.w_qkv.storage_bytes()
        + pl.w_o.storage_bytes()
        + pl.w_ff1.storage_bytes()
        + pl.w_ff2.storage_bytes()
        + 4 * (pl.ln1_g.len()
            + pl.ln1_b.len()
            + pl.b_qkv.len()
            + pl.b_o.len()
            + pl.ln2_g.len()
            + pl.ln2_b.len()
            + pl.b_ff1.len()
            + pl.b_ff2.len())
}

fn merge_stats(into: &mut OffloadStats, from: OffloadStats) {
    into.short_read_retries += from.short_read_retries;
    into.checksum_retries += from.checksum_retries;
    into.slow_reads += from.slow_reads;
    into.stall_ms += from.stall_ms;
    into.bytes_read += from.bytes_read;
    into.fetch_ns += from.fetch_ns;
    into.checksum_ns += from.checksum_ns;
}

/// Insert a fetched panel, evicting unpinned panels (furthest next use
/// under the cyclic layer schedule first) until it fits. Returns `false`
/// (and drops the panel) if nothing evictable makes room — possible only
/// for a prefetched panel racing a pinned one.
fn insert_with_evict(
    st: &mut CacheState,
    dir: &PanelDirectory,
    layer: usize,
    panel: Arc<PackedLayer<PackedB>>,
    bytes: usize,
    budget: usize,
) -> bool {
    let layers = dir.layers();
    while st.resident_bytes + bytes > budget {
        // Next layer the decode loop will ask for, under the cyclic
        // schedule (forward passes touch 0..L in order, repeatedly).
        let next = (st.last_acquired + 1) % layers;
        let victim = st
            .resident
            .iter()
            .filter(|(_, e)| Arc::strong_count(&e.panel) == 1)
            .max_by_key(|(&l, _)| (l + layers - next) % layers)
            .map(|(&l, _)| l);
        match victim {
            Some(v) => {
                let e = st.resident.remove(&v).expect("victim resident");
                st.resident_bytes -= e.bytes;
                st.stats.evictions += 1;
                // Unpinned means this was the last handle.
                st.spare = Arc::try_unwrap(e.panel).ok();
            }
            None => {
                st.stats.prefetch_dropped += 1;
                return false;
            }
        }
    }
    st.resident_bytes += bytes;
    st.stats.peak_resident_bytes = st.stats.peak_resident_bytes.max(st.resident_bytes);
    st.resident.insert(layer, CacheEntry { panel, bytes });
    true
}

fn worker_loop(inner: Arc<Inner>, rx: Receiver<usize>) {
    while let Ok(layer) = rx.recv() {
        if layer == SHUTDOWN {
            break;
        }
        {
            let st = inner.state.lock().unwrap();
            if st.worker_dead {
                break;
            }
            if st.resident.contains_key(&layer) {
                drop(st);
                let mut st = inner.state.lock().unwrap();
                st.inflight.retain(|&x| x != layer);
                inner.cv.notify_all();
                continue;
            }
        }
        match inner.fetch_panel(layer) {
            Ok(fetched) => {
                let mut st = inner.state.lock().unwrap();
                st.inflight.retain(|&x| x != layer);
                merge_stats(&mut st.stats, fetched.stats);
                if insert_with_evict(
                    &mut st,
                    &inner.dir,
                    layer,
                    fetched.panel,
                    fetched.bytes,
                    inner.cfg.resident_budget_bytes,
                ) {
                    st.stats.prefetch_fetches += 1;
                }
                inner.cv.notify_all();
            }
            Err(e) => {
                let fatal = matches!(e, OffloadError::HandleLost { .. });
                let mut st = inner.state.lock().unwrap();
                st.inflight.retain(|&x| x != layer);
                if fatal {
                    // The handle died under the worker: die cleanly. The
                    // decode thread degrades to synchronous fetch — no
                    // parked error, the layer is still servable.
                    st.worker_dead = true;
                    st.inflight.clear();
                    inner.cv.notify_all();
                    break;
                }
                st.stats.fetch_errors += 1;
                st.failed.insert(layer, e);
                inner.cv.notify_all();
            }
        }
    }
    let mut st = inner.state.lock().unwrap();
    st.worker_dead = true;
    st.inflight.clear();
    inner.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_model::reference::GptModel;
    use dsi_model::zoo;
    use dsi_sim::fault::{IoFaultPlan, IoFaultSite, IoFaultSpec};

    fn save_model(layers: usize, seed: u64, tag: &str) -> (GptModel, std::path::PathBuf) {
        let m = GptModel::random(zoo::tiny(layers), seed);
        let path = std::env::temp_dir().join(format!("dsi_offload_{tag}_{seed}_{layers}.bin"));
        dsi_model::io::save(&m, &path).expect("save");
        (m, path)
    }

    /// Every field of a served panel against the in-memory packing of the
    /// same layer, bit for bit — the equality that makes streamed decode
    /// token-identical by construction.
    fn assert_panel_is_packed_layer(got: &PackedLayer<PackedB>, m: &GptModel, l: usize) {
        fn runs(p: &PackedLayer<PackedB>) -> [&[f32]; 12] {
            [
                &p.ln1_g, &p.ln1_b, p.w_qkv.as_packed(), &p.b_qkv, p.w_o.as_packed(), &p.b_o,
                &p.ln2_g, &p.ln2_b, p.w_ff1.as_packed(), &p.b_ff1, p.w_ff2.as_packed(), &p.b_ff2,
            ]
        }
        fn shapes(p: &PackedLayer<PackedB>) -> [(usize, usize); 4] {
            [&p.w_qkv, &p.w_o, &p.w_ff1, &p.w_ff2].map(|b| (b.k(), b.n()))
        }
        let want = &dsi_model::fast::PackedModel::pack(m).layers[l];
        assert_eq!(shapes(got), shapes(want), "layer {l} operand shapes");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (i, (g, w)) in runs(got).into_iter().zip(runs(want)).enumerate() {
            assert_eq!(bits(g), bits(w), "layer {l} field {i}");
        }
    }

    fn tight_budget(path: &Path) -> usize {
        // Probe: open unbounded once to learn the panel size, then budget
        // for exactly two panels (in-use + one prefetch).
        let store = OffloadStore::open(path, OffloadConfig::default()).expect("probe open");
        store.panel_bytes() * 2
    }

    #[test]
    fn panels_roundtrip_through_the_store() {
        let (m, path) = save_model(3, 11, "rt");
        let store = OffloadStore::open(&path, OffloadConfig::default()).expect("open");
        assert_eq!(store.layers(), 3);
        for l in 0..3 {
            let p = store.acquire(l).expect("acquire");
            assert_panel_is_packed_layer(&p, &m, l);
        }
        // With room for everything, each layer is read from the tier
        // exactly once; a second pass is all hits.
        let once = store.stats();
        let file: u64 = (0..3).map(|l| store.inner.dir.layer_panel(l).len as u64).sum();
        assert_eq!(once.bytes_read, file, "one fetch per layer");
        for l in 0..3 {
            store.acquire(l).expect("resident");
        }
        let twice = store.stats();
        assert_eq!((twice.bytes_read, twice.hits), (once.bytes_read, once.hits + 3));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn budget_below_one_panel_is_typed_at_open() {
        let (_m, path) = save_model(2, 13, "budget");
        let cfg = OffloadConfig { resident_budget_bytes: 1024, ..OffloadConfig::default() };
        match OffloadStore::open(&path, cfg) {
            Err(OffloadError::BudgetExhausted { need, budget }) => {
                assert!(need > budget);
            }
            other => panic!("expected BudgetExhausted, got {:?}", other.map(|_| ())),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn tight_budget_evicts_and_still_serves_every_layer() {
        let (m, path) = save_model(4, 17, "evict");
        let budget = tight_budget(&path);
        let cfg = OffloadConfig {
            resident_budget_bytes: budget,
            prefetch_depth: 4,
            ..OffloadConfig::default()
        };
        let store = OffloadStore::open(&path, cfg).expect("open");
        assert!(store.file_bytes() > budget, "file must exceed the resident budget");
        assert_eq!(store.effective_depth(), 1, "budget clamps depth to one ahead");
        // Three full passes over the layers — forced eviction every pass,
        // so every fetch after the first few refills an evicted panel's
        // buffers with another layer's weights.
        for _ in 0..3 {
            for l in 0..4 {
                let p = store.acquire(l).expect("acquire");
                store.prefetch_ahead(l + 1);
                assert_panel_is_packed_layer(&p, &m, l);
            }
        }
        let st = store.stats();
        assert!(st.evictions > 0, "tight budget must evict");
        assert!(st.peak_resident_bytes <= budget, "budget respected");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupt_read_is_retried_then_clean() {
        let (m, path) = save_model(2, 19, "crc");
        // Read call 0 is the open-time probe of layer 0: corrupt it and
        // the bounded re-read must recover without surfacing an error.
        let plan = IoFaultPlan::new(vec![IoFaultSpec {
            site: IoFaultSite::Read { call: 0 },
            kind: IoFaultKind::CorruptPanel,
        }]);
        let cfg = OffloadConfig {
            faults: Some(Arc::new(plan.injector())),
            ..OffloadConfig::default()
        };
        let store = OffloadStore::open(&path, cfg).expect("open survives one corrupt read");
        let p = store.acquire(0).expect("layer 0");
        assert_eq!(p.ln1_g, m.layers[0].ln1_g.data());
        assert_eq!(store.stats().checksum_retries, 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn persistent_corruption_is_typed_after_bounded_retries() {
        let (_m, path) = save_model(2, 23, "crc2");
        // Corrupt every one of the open probe's attempts (retries = 2 →
        // 3 attempts, calls 0..3).
        let specs = (0..3)
            .map(|c| IoFaultSpec {
                site: IoFaultSite::Read { call: c },
                kind: IoFaultKind::CorruptPanel,
            })
            .collect();
        let cfg = OffloadConfig {
            faults: Some(Arc::new(IoFaultPlan::new(specs).injector())),
            read_retries: 2,
            ..OffloadConfig::default()
        };
        match OffloadStore::open(&path, cfg) {
            Err(OffloadError::ChecksumFailed { layer: 0, attempts: 3 }) => {}
            other => panic!("expected ChecksumFailed, got {:?}", other.map(|_| ())),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bit_rot_on_disk_is_typed_for_every_panel() {
        // Not an injected fault: the file itself is wrong, one flipped bit
        // mid-payload per panel. The resident group fails the open; a layer
        // panel fails its fetch after the bounded re-reads, naming the layer.
        let (_m, path) = save_model(3, 37, "rot");
        let clean = std::fs::read(&path).expect("read");
        let dir = io::read_directory(&clean).expect("directory");
        for (i, p) in dir.panels.iter().enumerate() {
            let mut bytes = clean.clone();
            bytes[p.offset + p.len / 2] ^= 0x04;
            std::fs::write(&path, &bytes).expect("write");
            // Layer 0 is the open-time probe, so its rot also fails the open.
            let opened = OffloadStore::open(&path, OffloadConfig::default());
            match (i, opened) {
                (0, Err(OffloadError::Io(IoError::ChecksumMismatch { panel: 0 }))) => {}
                (1, Err(OffloadError::ChecksumFailed { layer: 0, attempts: 3 })) => {}
                (_, Ok(store)) if i >= 2 => match store.acquire(i - 1) {
                    Err(OffloadError::ChecksumFailed { layer, attempts: 3 }) => {
                        assert_eq!(layer, i - 1)
                    }
                    other => panic!("panel {i}: got {:?}", other.map(|_| ())),
                },
                (_, other) => panic!("panel {i}: got {:?}", other.map(|_| ())),
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn dead_prefetcher_degrades_to_synchronous_fetch() {
        let (m, path) = save_model(3, 29, "sync");
        let store = OffloadStore::open(&path, OffloadConfig::default()).expect("open");
        store.kill_prefetcher();
        assert!(!store.prefetcher_alive());
        for l in 0..3 {
            let p = store.acquire(l).expect("sync acquire");
            store.prefetch_ahead(l + 1); // harmless no-op when dead
            assert_eq!(p.b_qkv, m.layers[l].b_qkv.data());
        }
        assert!(store.stats().sync_fallbacks >= 2, "layers 1/2 fetched inline");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn injected_open_failure_is_typed() {
        let (_m, path) = save_model(2, 31, "open");
        let plan = IoFaultPlan::new(vec![IoFaultSpec {
            site: IoFaultSite::Open { call: 0 },
            kind: IoFaultKind::FailOpen,
        }]);
        let cfg = OffloadConfig {
            faults: Some(Arc::new(plan.injector())),
            ..OffloadConfig::default()
        };
        assert!(matches!(
            OffloadStore::open(&path, cfg).map(|_| ()),
            Err(OffloadError::FailedOpen { .. })
        ));
        let _ = std::fs::remove_file(path);
    }
}
