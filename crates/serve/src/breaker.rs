//! Circuit breaker over the supervisor's fault machinery.
//!
//! The PR-4 supervisor retries and degrades *within* one request; what it
//! cannot see is the pattern **across** requests. When the engine is
//! systematically broken — a fault storm exhausting every retry budget —
//! each admitted request still burns its full retry/backoff budget before
//! failing, so a queue of doomed requests turns a component fault into a
//! latency catastrophe for everyone behind it. The breaker is the standard
//! production answer (and the robustness literature's: under saturation a
//! server that admits everything degrades for everyone): repeated terminal
//! [`FaultError`] outcomes **open** the breaker, new admissions fast-fail
//! with [`Rejected::BreakerOpen`] instead of queueing behind a broken
//! engine, and after a cool-down window a single **half-open probe**
//! request is admitted to test recovery — success closes the breaker,
//! failure re-opens it for another window.
//!
//! Time comes from [`dsi_sim::clock::Clock`], so the open-window and
//! re-probe transitions are deterministic under a manual clock — every
//! breaker test below is seed-free *and* sleep-free.
//!
//! [`FaultError`]: dsi_parallel::supervisor::FaultError
//! [`Rejected::BreakerOpen`]: crate::server::Rejected::BreakerOpen

use dsi_core::FaultClass;
use std::time::Duration;

/// Breaker tuning. `enabled: false` turns the breaker into a pass-through
/// (every admission allowed, no state kept) — the bench's "breaker off"
/// arm.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    pub enabled: bool,
    /// Consecutive terminal-fault completions that open the breaker.
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
/// server's single state mutex (see the lock audit in `dsi-verify`).
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

    /// Lock-step conformance against `dsi_verify::runtime::BreakerModel` —
    /// the pure transcription that `check_breaker_model` explores
    /// exhaustively. The verifier proves the *model* safe; this test pins
    /// the executable breaker to the model under seeded random event
    /// sequences, closing the loop.
    #[test]
    fn breaker_conforms_to_verified_model_in_lockstep() {
        use dsi_verify::runtime::{BreakerModel, ModelAdmission, ModelState};
        for seed in 0..8u64 {
            let (clock, time) = Clock::manual();
            let mut real = breaker(2, 10);
            let mut model = BreakerModel::new(2, Duration::from_millis(10).as_nanos() as u64);
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x1234_5678);
            let mut next = move || dsi_sim::fault::splitmix64(&mut s);
            for step in 0..200 {
                let now = clock.now_ns();
                match next() % 5 {
                    0 => {
                        let got = real.admit(now);
                        let want = model.admit(now);
                        let same = matches!(
                            (got, want),
                            (BreakerAdmission::Admit, ModelAdmission::Admit)
                                | (BreakerAdmission::AdmitProbe, ModelAdmission::AdmitProbe)
                                | (BreakerAdmission::Reject, ModelAdmission::Reject)
                        );
                        assert!(same, "seed {seed} step {step}: {got:?} vs model {want:?}");
                    }
                    1 => {
                        real.on_success();
                        model.on_success();
                    }
                    2 => {
                        real.on_failure(now);
                        model.on_failure(now);
                    }
                    3 => {
                        real.abort_probe(now);
                        model.abort_probe(now);
                    }
                    _ => time.advance(Duration::from_millis(next() % 8)),
                }
                let eq = match (real.state(), model.state) {
                    (
                        BreakerState::Closed { consecutive_failures },
                        ModelState::Closed { failures },
                    ) => consecutive_failures == failures,
                    (BreakerState::Open { until_ns }, ModelState::Open { until }) => {
                        until_ns == until
                    }
                    (BreakerState::HalfOpen, ModelState::HalfOpen) => true,
                    _ => false,
                };
                assert!(
                    eq,
                    "seed {seed} step {step}: real {:?} diverged from model {:?}",
                    real.state(),
                    model.state
                );
                assert_eq!(real.opens, model.opens, "seed {seed} step {step}: opens diverged");
            }
        }
    }
}
