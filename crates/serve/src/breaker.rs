//! Circuit breaker over the engine's classed faults.
//!
//! Recovery retries and replays *within* one request; what it cannot see is
//! the pattern **across** requests. When the engine is systematically
//! broken — a fault storm exhausting every replay budget — each admitted
//! request still burns its full budget before failing, so a queue of
//! doomed requests turns a component fault into a latency catastrophe for
//! everyone behind it. The breaker is the standard production answer (and
//! the robustness literature's: under saturation a server that admits
//! everything degrades for everyone): every request a classed engine fault
//! ends (any engine's `EngineError::Fault`, a caught panic, a step past its
//! deadline, once the request's replay budget is spent) counts against that
//! class's breaker, as every completion resets it; repeated such
//! failures **open** it, new admissions fast-fail with
//! [`Rejected::BreakerOpen`] instead of queueing behind a broken engine,
//! and after a cool-down window a single **half-open probe** request is
//! admitted to test recovery — success closes the breaker, failure
//! re-opens it for another window.
//!
//! Time comes from [`dsi_sim::clock::Clock`], so the open-window and
//! re-probe transitions are deterministic under a manual clock — every
//! breaker test below is seed-free *and* sleep-free. The same property lets
//! [`explore`] check the real [`Breaker`] exhaustively: every event
//! sequence up to a bounded depth, time advancing in nanosecond ticks.
//!
//! [`Rejected::BreakerOpen`]: crate::server::Rejected::BreakerOpen

use dsi_core::FaultClass;
use std::fmt;
use std::time::Duration;

/// Breaker tuning. `enabled: false` turns the breaker into a pass-through
/// (every admission allowed, no state kept) — the bench's "breaker off"
/// arm.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    pub enabled: bool,
    /// Consecutive terminal-fault completions that open the breaker: requests
    /// evicted by an engine fault of the class, with no completion between.
    pub failure_threshold: u32,
    /// Cool-down window while open; after it, one probe is admitted.
    pub open_window: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            enabled: true,
            failure_threshold: 3,
            open_window: Duration::from_millis(250),
        }
    }
}

/// Breaker state machine. `Closed` counts consecutive failures; `Open`
/// fast-fails until the window elapses; `HalfOpen` has exactly one probe in
/// flight and rejects everyone else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed { consecutive_failures: u32 },
    Open { until_ns: u64 },
    HalfOpen,
}

/// Admission verdict from the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerAdmission {
    /// Normal admission (breaker closed or disabled).
    Admit,
    /// Admission as the half-open probe: the caller must report this
    /// request's outcome via `on_success` / `on_failure`, and must call
    /// `abort_probe` if it ends up rejecting the request for other reasons
    /// (queue full, memory) so the probe slot is not leaked.
    AdmitProbe,
    /// Fast-fail: the breaker is open (or a probe is already in flight).
    Reject,
}

/// The breaker itself. Not internally synchronized — it lives inside the
/// server's single state mutex, so every transition is made holding it.
#[derive(Debug, Clone)]
pub struct Breaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Times the breaker transitioned to open (observability).
    pub opens: u32,
}

impl Breaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        Breaker { cfg, state: BreakerState::Closed { consecutive_failures: 0 }, opens: 0 }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Admission check at `now_ns`. May transition `Open → HalfOpen` when
    /// the window has elapsed (the caller's request becomes the probe).
    pub fn admit(&mut self, now_ns: u64) -> BreakerAdmission {
        if !self.cfg.enabled {
            return BreakerAdmission::Admit;
        }
        match self.state {
            BreakerState::Closed { .. } => BreakerAdmission::Admit,
            BreakerState::Open { until_ns } if now_ns >= until_ns => {
                self.state = BreakerState::HalfOpen;
                BreakerAdmission::AdmitProbe
            }
            BreakerState::Open { .. } | BreakerState::HalfOpen => BreakerAdmission::Reject,
        }
    }

    /// The probe admission was revoked before running (e.g. the queue was
    /// full): return to `Open` with the window already elapsed, so the next
    /// admission re-probes immediately.
    pub fn abort_probe(&mut self, now_ns: u64) {
        if self.cfg.enabled && self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Open { until_ns: now_ns };
        }
    }

    /// A request completed successfully: closes a half-open breaker, resets
    /// the consecutive-failure count.
    pub fn on_success(&mut self) {
        if self.cfg.enabled {
            self.state = BreakerState::Closed { consecutive_failures: 0 };
        }
    }

    /// A request ended in a terminal fault: trips the threshold when
    /// closed, re-opens immediately when half-open (the probe failed).
    pub fn on_failure(&mut self, now_ns: u64) {
        if !self.cfg.enabled {
            return;
        }
        let window = self.cfg.open_window.as_nanos() as u64;
        match self.state {
            BreakerState::Closed { consecutive_failures } => {
                let n = consecutive_failures + 1;
                if n >= self.cfg.failure_threshold {
                    self.state = BreakerState::Open { until_ns: now_ns + window };
                    self.opens += 1;
                } else {
                    self.state = BreakerState::Closed { consecutive_failures: n };
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open { until_ns: now_ns + window };
                self.opens += 1;
            }
            BreakerState::Open { .. } => {}
        }
    }
}

/// Admission verdict from a [`BreakerSet`]: like [`BreakerAdmission`] but a
/// probe names the fault class it is probing, so the completion path can
/// route the outcome to the right breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetAdmission {
    Admit,
    /// Admitted as the half-open probe for this class.
    AdmitProbe(FaultClass),
    /// Some class's breaker is open (or probing): fast-fail.
    Reject,
}

/// One [`Breaker`] per [`FaultClass`], with independent failure counts,
/// open windows and half-open probes — the PR-5 global breaker split per
/// fault class so a stall storm cannot mask a panic storm.
///
/// Admission is the conjunction of the per-class breakers: a request is
/// admitted only if **no** class is open. When exactly the set's first
/// elapsed-open class is ready to probe, the request becomes that class's
/// probe. A success closes the probed class and resets the failure count of
/// every *closed* class — classes that are open (or half-open for another
/// probe) stay open until their own window/probe clears them, because a
/// success under, say, a stall storm says nothing about the panic storm
/// that opened the other breaker.
#[derive(Debug, Clone)]
pub struct BreakerSet {
    breakers: [(FaultClass, Breaker); 4],
}

impl BreakerSet {
    /// One breaker per class, each tuned by `cfg` (the classes share the
    /// tuning, not the failure counts or windows).
    pub fn new(cfg: BreakerConfig) -> Self {
        BreakerSet { breakers: FaultClass::ALL.map(|class| (class, Breaker::new(cfg.clone()))) }
    }

    fn get_mut(&mut self, class: FaultClass) -> &mut Breaker {
        &mut self.breakers.iter_mut().find(|(c, _)| *c == class).expect("all classes present").1
    }

    pub fn get(&self, class: FaultClass) -> &Breaker {
        &self.breakers.iter().find(|(c, _)| *c == class).expect("all classes present").1
    }

    /// Admission at `now_ns`: reject if any class is half-open (its probe
    /// is in flight) or open within its window; otherwise the first class
    /// whose window has elapsed turns this request into its probe; with
    /// every class closed, admit.
    pub fn admit(&mut self, now_ns: u64) -> SetAdmission {
        if self.breakers.iter().any(|(_, b)| b.state() == BreakerState::HalfOpen) {
            return SetAdmission::Reject;
        }
        let probe = self.breakers.iter().find_map(|(c, b)| match b.state() {
            BreakerState::Open { until_ns } if now_ns >= until_ns => Some(*c),
            _ => None,
        });
        if let Some(class) = probe {
            // Only the elapsed class transitions; other open classes keep
            // their windows.
            let got = self.get_mut(class).admit(now_ns);
            debug_assert_eq!(got, BreakerAdmission::AdmitProbe);
            return SetAdmission::AdmitProbe(class);
        }
        if self.breakers.iter().any(|(_, b)| matches!(b.state(), BreakerState::Open { .. })) {
            return SetAdmission::Reject;
        }
        SetAdmission::Admit
    }

    /// Revoke a probe admission that never ran (capacity reject).
    pub fn abort_probe(&mut self, class: FaultClass, now_ns: u64) {
        self.get_mut(class).abort_probe(now_ns);
    }

    /// A request completed cleanly. `probe` is the class it was probing, if
    /// any: that class closes; every already-closed class forgets its
    /// consecutive failures; open classes are untouched.
    pub fn on_success(&mut self, probe: Option<FaultClass>) {
        for (class, b) in &mut self.breakers {
            if Some(*class) == probe || matches!(b.state(), BreakerState::Closed { .. }) {
                b.on_success();
            }
        }
    }

    /// A request ended in a terminal fault of `class`: only that class's
    /// breaker counts it.
    pub fn on_failure(&mut self, class: FaultClass, now_ns: u64) {
        self.get_mut(class).on_failure(now_ns);
    }

    /// Total opens across classes (the report's headline counter).
    pub fn opens(&self) -> u32 {
        self.breakers.iter().map(|(_, b)| b.opens).sum()
    }

    /// Per-class open counts, in [`FaultClass::ALL`] order.
    pub fn opens_by_class(&self) -> [(FaultClass, u32); 4] {
        self.breakers.clone().map(|(c, b)| (c, b.opens))
    }
}

/// One breaker event for [`explore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Admit,
    Success,
    Failure,
    AbortProbe,
    /// The clock advances one nanosecond.
    Tick,
}

/// One safety invariant [`explore`] found broken: a stable code (tests and
/// `cargo xtask verify` gate on it), the event trace that broke it, and
/// what the breaker did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub code: &'static str,
    pub site: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[breaker:{}] {}: {}", self.code, self.site, self.message)
    }
}

/// Exhaustively drive clones of `start` through every event sequence of
/// length `depth` (the clock starting at 0 and advancing one nanosecond per
/// `Tick`) and check the safety invariants after each transition: rejects
/// only while open or probing, probes only after the window, at most one
/// probe in flight, `opens` counts exactly the failure-driven transitions
/// into `Open`, nothing else opens it, and a closed breaker never holds
/// `failure_threshold` failures. Returns one violation per broken
/// invariant (deduplicated by code); empty means the breaker is safe over
/// the whole bounded behaviour space.
pub fn explore(start: &Breaker, depth: usize) -> Vec<Violation> {
    const EVENTS: [Event; 5] =
        [Event::Admit, Event::Success, Event::Failure, Event::AbortProbe, Event::Tick];
    let threshold = start.cfg.failure_threshold;
    let mut diags: Vec<Violation> = Vec::new();
    let mut flag = |code: &'static str, trace: &[Event], message: String| {
        if !diags.iter().any(|d| d.code == code) {
            diags.push(Violation { code, site: format!("event trace {trace:?}"), message });
        }
    };
    // Iterative DFS over event strings; the space is |EVENTS|^depth.
    let mut stack: Vec<(Breaker, u64, Vec<Event>)> = vec![(start.clone(), 0, Vec::new())];
    while let Some((node, now, path)) = stack.pop() {
        if path.len() >= depth {
            continue;
        }
        let (before, before_opens) = (node.state(), node.opens);
        for ev in EVENTS {
            let mut b = node.clone();
            let mut t = now;
            let mut trace = path.clone();
            trace.push(ev);
            match ev {
                Event::Tick => t += 1,
                Event::Admit => {
                    // Admit only when closed, probe only once the window has
                    // elapsed, reject only while open or probing.
                    let verdict = b.admit(t);
                    let (code, legal) = match verdict {
                        BreakerAdmission::Admit => {
                            ("breaker-admit-open", matches!(before, BreakerState::Closed { .. }))
                        }
                        BreakerAdmission::AdmitProbe => (
                            "breaker-probe-early",
                            matches!(before, BreakerState::Open { until_ns } if t >= until_ns)
                                && b.state() == BreakerState::HalfOpen,
                        ),
                        BreakerAdmission::Reject => (
                            "breaker-reject-closed",
                            matches!(before, BreakerState::Open { until_ns } if t < until_ns)
                                || before == BreakerState::HalfOpen,
                        ),
                    };
                    if !legal {
                        flag(code, &trace, format!("{verdict:?} from {before:?} at t={t}"));
                    }
                    // At most one probe in flight: a second admission while
                    // half-open must reject.
                    if b.state() == BreakerState::HalfOpen
                        && b.clone().admit(t) != BreakerAdmission::Reject
                    {
                        flag("breaker-double-probe", &trace,
                            "second admission while a probe is in flight".to_string());
                    }
                }
                Event::Success => b.on_success(),
                Event::Failure => b.on_failure(t),
                Event::AbortProbe => b.abort_probe(t),
            }
            // Global invariants, after every transition.
            if let BreakerState::Closed { consecutive_failures } = b.state() {
                if consecutive_failures >= threshold {
                    let msg = format!("closed, {consecutive_failures} failures ≥ {threshold}");
                    flag("breaker-threshold-missed", &trace, msg);
                }
            }
            let opened = matches!(b.state(), BreakerState::Open { .. })
                && !matches!(before, BreakerState::Open { .. });
            // `opens` counts transitions into Open caused by a failure; an
            // aborted probe re-opens (window already elapsed) without
            // counting — it observed nothing new about the engine.
            let want_opens = before_opens + u32::from(opened && ev == Event::Failure);
            if b.opens != want_opens {
                let msg = format!("opens {before_opens} → {} on {ev:?}", b.opens);
                flag("breaker-opens-miscount", &trace, msg);
            }
            if opened && !matches!(ev, Event::Failure | Event::AbortProbe) {
                flag("breaker-spurious-open", &trace, format!("entered Open on {ev:?}"));
            }
            stack.push((b, t, trace));
        }
    }
    diags
}

/// The `cargo xtask verify` breaker gate: [`explore`] a fresh [`Breaker`]
/// at the (threshold, window-in-ns) tunings (1, 1), (2, 2) and (3, 1), to
/// depth 6. Returns the violations (empty = clean).
pub fn breaker_explorer_check() -> Vec<Violation> {
    let mut diags = Vec::new();
    for (threshold, window_ns) in [(1u32, 1u64), (2, 2), (3, 1)] {
        let b = Breaker::new(BreakerConfig {
            enabled: true,
            failure_threshold: threshold,
            open_window: Duration::from_nanos(window_ns),
        });
        diags.extend(explore(&b, 6).into_iter().map(|mut d| {
            d.site = format!("breaker t={threshold} w={window_ns}ns: {}", d.site);
            d
        }));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_sim::clock::Clock;

    fn breaker(threshold: u32, window_ms: u64) -> Breaker {
        Breaker::new(BreakerConfig {
            enabled: true,
            failure_threshold: threshold,
            open_window: Duration::from_millis(window_ms),
        })
    }

    #[test]
    fn threshold_failures_open_fast_fail_then_probe_closes() {
        let (clock, time) = Clock::manual();
        let mut b = breaker(3, 10);
        // Two failures: still closed.
        b.on_failure(clock.now_ns());
        b.on_failure(clock.now_ns());
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::Admit);
        // Third: opens.
        b.on_failure(clock.now_ns());
        assert_eq!(b.opens, 1);
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::Reject);
        // Window not yet elapsed: still rejecting.
        time.advance(Duration::from_millis(9));
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::Reject);
        // Window elapsed: exactly one probe, everyone else rejected.
        time.advance(Duration::from_millis(1));
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::AdmitProbe);
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::Reject);
        // Probe succeeds: closed, failures forgotten.
        b.on_success();
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::Admit);
        assert_eq!(b.state(), BreakerState::Closed { consecutive_failures: 0 });
    }

    #[test]
    fn failed_probe_reopens_for_another_window() {
        let (clock, time) = Clock::manual();
        let mut b = breaker(1, 10);
        b.on_failure(clock.now_ns());
        time.advance(Duration::from_millis(10));
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::AdmitProbe);
        b.on_failure(clock.now_ns());
        assert_eq!(b.opens, 2);
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::Reject);
        time.advance(Duration::from_millis(10));
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::AdmitProbe);
    }

    #[test]
    fn successes_reset_the_consecutive_count() {
        let (clock, _time) = Clock::manual();
        let mut b = breaker(2, 10);
        b.on_failure(clock.now_ns());
        b.on_success();
        b.on_failure(clock.now_ns());
        // Never two *consecutive* failures: still closed.
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::Admit);
        assert_eq!(b.opens, 0);
    }

    #[test]
    fn aborted_probe_reprobes_immediately() {
        let (clock, time) = Clock::manual();
        let mut b = breaker(1, 10);
        b.on_failure(clock.now_ns());
        time.advance(Duration::from_millis(10));
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::AdmitProbe);
        // The server rejected the probe request for capacity reasons: the
        // probe slot must not leak (HalfOpen with no probe in flight would
        // reject forever).
        b.abort_probe(clock.now_ns());
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::AdmitProbe);
    }

    #[test]
    fn disabled_breaker_is_a_passthrough() {
        let (clock, _time) = Clock::manual();
        let mut b = Breaker::new(BreakerConfig { enabled: false, ..BreakerConfig::default() });
        for _ in 0..10 {
            b.on_failure(clock.now_ns());
        }
        assert_eq!(b.admit(clock.now_ns()), BreakerAdmission::Admit);
        assert_eq!(b.opens, 0);
    }

    fn set(threshold: u32, window_ms: u64) -> BreakerSet {
        BreakerSet::new(BreakerConfig {
            enabled: true,
            failure_threshold: threshold,
            open_window: Duration::from_millis(window_ms),
        })
    }

    #[test]
    fn classes_count_failures_independently() {
        let (clock, _time) = Clock::manual();
        let mut s = set(3, 10);
        // Two timeouts + two panics: four faults total, but no class has
        // reached its own threshold — the global breaker would have opened.
        s.on_failure(FaultClass::Timeout, clock.now_ns());
        s.on_failure(FaultClass::Timeout, clock.now_ns());
        s.on_failure(FaultClass::Panic, clock.now_ns());
        s.on_failure(FaultClass::Panic, clock.now_ns());
        assert_eq!(s.admit(clock.now_ns()), SetAdmission::Admit);
        assert_eq!(s.opens(), 0);
        // A third timeout opens only the timeout class.
        s.on_failure(FaultClass::Timeout, clock.now_ns());
        assert_eq!(s.admit(clock.now_ns()), SetAdmission::Reject);
        assert_eq!(s.get(FaultClass::Timeout).opens, 1);
        assert_eq!(s.get(FaultClass::Panic).opens, 0);
    }

    #[test]
    fn success_does_not_mask_an_open_class() {
        let (clock, time) = Clock::manual();
        let mut s = set(1, 10);
        s.on_failure(FaultClass::Panic, clock.now_ns());
        // A non-probe success (e.g. a request admitted before the storm)
        // must not close the panic breaker early...
        s.on_success(None);
        assert_eq!(s.admit(clock.now_ns()), SetAdmission::Reject);
        // ...but it does reset closed classes' consecutive counts.
        time.advance(Duration::from_millis(10));
        assert_eq!(s.admit(clock.now_ns()), SetAdmission::AdmitProbe(FaultClass::Panic));
        s.on_success(Some(FaultClass::Panic));
        assert_eq!(s.admit(clock.now_ns()), SetAdmission::Admit);
    }

    #[test]
    fn probe_for_one_class_while_another_stays_open() {
        let (clock, time) = Clock::manual();
        let mut s = set(1, 50);
        // One tuning, staggered failures: timeout opens at t = 0 ms, panic
        // at t = 40 ms, so their windows end 40 ms apart.
        s.on_failure(FaultClass::Timeout, clock.now_ns());
        time.advance(Duration::from_millis(40));
        s.on_failure(FaultClass::Panic, clock.now_ns());
        // Timeout's window elapses first: its probe runs while panic is
        // still open, and a probe success must not unlock panic.
        time.advance(Duration::from_millis(10));
        assert_eq!(s.admit(clock.now_ns()), SetAdmission::AdmitProbe(FaultClass::Timeout));
        s.on_success(Some(FaultClass::Timeout));
        assert_eq!(s.admit(clock.now_ns()), SetAdmission::Reject, "panic class still open");
        time.advance(Duration::from_millis(40));
        assert_eq!(s.admit(clock.now_ns()), SetAdmission::AdmitProbe(FaultClass::Panic));
        s.on_failure(FaultClass::Panic, clock.now_ns());
        assert_eq!(s.get(FaultClass::Panic).opens, 2);
        assert_eq!(s.opens(), 3, "set total sums class opens");
    }

    #[test]
    fn aborted_set_probe_reprobes_immediately() {
        let (clock, time) = Clock::manual();
        let mut s = set(1, 10);
        s.on_failure(FaultClass::Corruption, clock.now_ns());
        time.advance(Duration::from_millis(10));
        assert_eq!(s.admit(clock.now_ns()), SetAdmission::AdmitProbe(FaultClass::Corruption));
        s.abort_probe(FaultClass::Corruption, clock.now_ns());
        assert_eq!(s.admit(clock.now_ns()), SetAdmission::AdmitProbe(FaultClass::Corruption));
    }

    #[test]
    fn explorer_is_clean_on_the_real_breaker() {
        let diags = breaker_explorer_check();
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn explorer_catches_a_closed_breaker_at_threshold() {
        // No event sequence reaches this state; put a real breaker in it
        // and the explorer must flag the first transition that keeps it.
        let mut b = Breaker::new(BreakerConfig {
            enabled: true,
            failure_threshold: 2,
            open_window: Duration::from_nanos(2),
        });
        b.state = BreakerState::Closed { consecutive_failures: 2 };
        let diags = explore(&b, 1);
        assert!(diags.iter().any(|d| d.code == "breaker-threshold-missed"), "{diags:#?}");
    }
}
