//! Executed tensor parallelism: a group of `tp` members running one paged
//! engine's split pass over one packed model.
//!
//! [`tp`](crate::tp) proves the Megatron sharding math (Sec. IV-A) — each
//! layer's heads and FF columns split across GPUs, an all-reduce after W_o
//! and FF2 because each GPU holds its own memory — but runs every rank
//! sequentially through the slow reference ops. This module is the executed
//! counterpart on one shared-memory host, where the members of a group need
//! no all-reduce: [`TpEngine`] is the paged `Engine` over the one packed
//! model (FP32 or INT8 panels), every pass split across the group's degree
//! (`Engine::pass_split`), one-row passes included. Member `t` owns its
//! `Share::part` of the heads — their QKV columns, their K/V in the one
//! page pool (laid out head by head within each page), and their
//! attention — and of the output columns of W_o, FF1, FF2 and the logits;
//! the members write disjoint columns of one scratch and join wherever a
//! region reads whole rows of what another member wrote. Every output
//! column keeps its one accumulator chain, so a group of any degree
//! `1..=heads` is **bitwise** the one-member pass: the same logits, not
//! merely the same tokens. The members are the calling thread and helper
//! threads the engine keeps (`dsi_model::team`).
//!
//! ## Failure handling
//!
//! The group's joins run under its [`CommConfig`]: a deadline on every join
//! and an optional fault script fired at the members' joins and layers. A
//! member that leaves a join typed — a stall past the deadline, a scripted
//! exit — fails the pass with its [`CollectiveError`]; a member that panics
//! fails it with its panic, which [`TpEngine::pass`] catches. Either way the
//! pass returns the [`RankFailure`] that caused it, and the engine is as
//! after any failed pass: every seat is free, and each advanced slot keeps
//! its pages with its frontier rows unspecified, so the caller releases and
//! replays it, as on every other engine. The page pool lives on the
//! caller's side and survives the fault, so nothing is rebuilt: the next
//! split pass re-creates the member barrier, narrower by every member the
//! failed pass lost — each one that exited or panicked — down to one.
//!
//! A one-member group runs on the calling thread alone, with no join and no
//! fault site.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dsi_kernels::blocked::{PackedB, PanelWeights};
use dsi_model::fast::PackedModel;
use dsi_model::paged::{Engine, PageStats, PagedEngine, StepError};
use dsi_sim::shmem::CommConfig;
use dsi_sim::CollectiveError;
use serde::Serialize;

/// Why a member left the group's pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankFailureCause {
    /// The member left a join typed: its deadline passed (naming the
    /// stalled members), the barrier was poisoned, or its fault script made
    /// it exit.
    Collective(CollectiveError),
    /// The member panicked; the payload is preserved.
    Panicked(String),
}

impl std::fmt::Display for RankFailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankFailureCause::Collective(e) => write!(f, "collective failure: {e}"),
            RankFailureCause::Panicked(p) => write!(f, "panicked: {p}"),
        }
    }
}

/// The failure of a [`TpEngine`] pass: the member it came from and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFailure {
    pub rank: usize,
    pub cause: RankFailureCause,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cause {
            // A collective error names its reporting member itself.
            RankFailureCause::Collective(e) => write!(f, "{e}"),
            cause => write!(f, "rank {} {cause}", self.rank),
        }
    }
}

impl From<CollectiveError> for RankFailure {
    fn from(e: CollectiveError) -> Self {
        RankFailure { rank: e.rank, cause: RankFailureCause::Collective(e) }
    }
}

fn panic_payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Faults the [`TpReport`] log keeps: the most recent ones.
const FAULT_LOG: usize = 32;

/// What a [`TpEngine`] did to keep its group serving.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TpReport {
    /// Faults recovered: failed passes after which the group served on.
    /// Each re-creates the member barrier the next split pass joins at.
    pub rebuilds: u32,
    /// Degradations as `(from_tp, to_tp)` pairs, in order.
    pub degradations: Vec<(usize, usize)>,
    /// The last 32 member failures, oldest first.
    pub faults: Vec<String>,
}

impl TpReport {
    fn log(&mut self, fault: String) {
        if self.faults.len() == FAULT_LOG {
            self.faults.remove(0);
        }
        self.faults.push(fault);
    }
}

/// A tensor-parallel group as a multi-slot engine that lives across
/// requests: the paged engine over one borrowed packed model — FP32 panels,
/// or INT8 ones as `TpEngine<QuantizedPackedB>` — every pass split across
/// the group's degree. See the module docs for the failure contract.
///
/// [`QuantizedPackedB`]: dsi_kernels::quant::QuantizedPackedB
pub struct TpEngine<'p, 'm, B = PackedB> {
    eng: PagedEngine<'p, 'm, B>,
    degree: usize,
    report: TpReport,
}

impl<'p, 'm, B: PanelWeights> TpEngine<'p, 'm, B> {
    /// A group of `tp` members over `model`, its engine with `max_slots`
    /// slots over `pages_total` pages of `page_tokens` tokens, every join
    /// under `comm`. Any degree up to the head count splits the model.
    pub fn new(
        model: &'p PackedModel<'m, B>,
        tp: usize,
        comm: CommConfig,
        max_slots: usize,
        pages_total: usize,
        page_tokens: usize,
    ) -> Self {
        let heads = model.config().heads;
        assert!((1..=heads).contains(&tp), "tp {tp} cannot split {heads} heads");
        let eng = Engine::with_comm(model, max_slots, pages_total, page_tokens, comm);
        TpEngine { eng, degree: tp, report: TpReport::default() }
    }

    /// The degree the next pass runs at.
    pub fn tp(&self) -> usize {
        self.degree
    }

    pub fn report(&self) -> &TpReport {
        &self.report
    }

    pub fn max_slots(&self) -> usize {
        self.eng.max_slots()
    }

    /// Pages a `tokens`-long context pins.
    pub fn pages_for(&self, tokens: usize) -> usize {
        self.eng.pages_for(tokens)
    }

    pub fn pool_stats(&self) -> PageStats {
        self.eng.pool_stats()
    }

    /// See `Engine::attached_tokens`.
    pub fn attached_tokens(&self, slot: usize) -> usize {
        self.eng.attached_tokens(slot)
    }

    /// See `Engine::logits`.
    pub fn logits(&self) -> &[f32] {
        self.eng.logits()
    }

    /// Retire `slot`.
    pub fn release(&mut self, slot: usize) {
        self.eng.release(slot);
    }

    /// One pass of the group (see `Engine::pass`) on its degree's members.
    /// A member's panic is caught here. On `Err(Weights)` the pass failed
    /// with the [`RankFailure`] it returns, and the engine is as after any
    /// failed pass: no slot advanced, every seat is free, and the advanced
    /// slots are the caller's to release and replay.
    pub fn pass(
        &mut self,
        seats: &[(usize, &[usize])],
        advance: &[usize],
        out: &mut Vec<usize>,
    ) -> Result<(), StepError<RankFailure>> {
        let (degree, eng) = (self.degree, &mut self.eng);
        let failure = match catch_unwind(AssertUnwindSafe(|| eng.pass_split(degree, seats, advance, out))) {
            Ok(Ok(())) => return Ok(()),
            Ok(Err(StepError::Pages(p))) => return Err(StepError::Pages(p)),
            Ok(Err(StepError::Weights(never))) => match never {},
            Ok(Err(StepError::Member(e))) => RankFailure::from(e),
            Err(payload) => {
                let rank = if degree > 1 { self.eng.panicked_member().unwrap_or(0) } else { 0 };
                RankFailure { rank, cause: RankFailureCause::Panicked(panic_payload_to_string(payload)) }
            }
        };
        self.report.log(format!("tp={degree}: {failure}"));
        self.report.rebuilds += 1;
        // A member that stalled, or left a join another's failure poisoned,
        // is intact; one that exited or panicked is gone.
        let lost = if degree > 1 { self.eng.lost_members() } else { 0 };
        if lost > 0 {
            let to = degree.saturating_sub(lost).max(1);
            self.report.degradations.push((degree, to));
            self.degree = to;
        }
        Err(StepError::Weights(failure))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_model::fast::QuantizedPackedModel;
    use dsi_model::reference::GptModel;
    use dsi_model::zoo;
    use dsi_sim::fault::{FaultKind, FaultPlan, FaultSite, FaultSpec};
    use dsi_sim::CollectiveErrorKind;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn model(layers: usize, seed: u64) -> GptModel {
        GptModel::random(zoo::tiny(layers), seed)
    }

    fn oracle(m: &GptModel, prompt: &[usize], n: usize) -> Vec<usize> {
        PackedModel::pack(m).session(prompt.len()).generate(prompt, n)
    }

    fn faulty(specs: Vec<FaultSpec>, timeout_ms: u64) -> CommConfig {
        CommConfig { timeout: Duration::from_millis(timeout_ms), injector: Some(Arc::new(FaultPlan::new(specs).injector())) }
    }

    fn spec(rank: usize, site: FaultSite, kind: FaultKind) -> FaultSpec {
        FaultSpec { rank, site, kind }
    }

    /// Ragged multi-slot passes at every degree the tiny model's four heads
    /// allow, three included: two seats in one pass, a shared-prefix seat
    /// that attaches, a retirement, and a mixed pass that reseats the
    /// retired slot while the others advance. Every pass's logits are
    /// bitwise the one-member pass's, FP32 and INT8 alike.
    #[test]
    fn every_degree_is_bitwise_the_one_member_pass() {
        type Eng<'p, B> = TpEngine<'p, 'p, B>;
        fn both<B: PanelWeights>(solo: &mut Eng<'_, B>, group: &mut Eng<'_, B>, seats: &[(usize, &[usize])], advance: &[usize]) {
            let bits = |e: &Eng<'_, B>| e.logits().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            solo.pass(seats, advance, &mut a).unwrap();
            group.pass(seats, advance, &mut b).unwrap();
            let tp = group.tp();
            assert_eq!((&b, bits(group)), (&a, bits(solo)), "tp {tp}: seats {seats:?}, advance {advance:?}");
        }
        fn check<B: PanelWeights>(pm: &PackedModel<'_, B>, tp: usize) {
            let prompts = [vec![5usize, 6, 7, 8, 1], vec![9, 8], vec![5, 6, 7, 8, 2, 3], vec![4]];
            let mut solo = TpEngine::new(pm, 1, CommConfig::default(), 3, 32, 2);
            let mut group = TpEngine::new(pm, tp, CommConfig::default(), 3, 32, 2);
            let (s, g) = (&mut solo, &mut group);
            both(s, g, &[(0, &prompts[0]), (1, &prompts[1])], &[]);
            both(s, g, &[(2, &prompts[2])], &[0, 1]);
            assert_eq!(g.attached_tokens(2), 4, "tp {tp}: the shared prefix attaches");
            s.release(1);
            g.release(1);
            both(s, g, &[(1, &prompts[3])], &[0, 2]);
            for _ in 0..3 {
                both(s, g, &[], &[0, 1, 2]);
            }
            for slot in 0..3 {
                g.release(slot);
            }
            assert_eq!(g.pool_stats().pages_in_use, 0, "tp {tp}");
            assert_eq!(g.report().rebuilds, 0);
        }
        let m = model(2, 7);
        let (pm, qm) = (PackedModel::pack(&m), QuantizedPackedModel::quantize_pack(&m, 32));
        for tp in 1..=4 {
            check(&pm, tp);
            check(&qm, tp);
        }
    }

    #[test]
    fn a_degree_past_the_heads_is_rejected() {
        let m = model(1, 1);
        let pm = PackedModel::pack(&m);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            TpEngine::new(&pm, 5, CommConfig::default(), 1, 4, 4); // tiny() has 4 heads
        }));
        assert!(caught.is_err());
    }

    /// A member stalled past the deadline fails the pass with a timeout
    /// that names it, the pass returns once the stall ends (the stalled
    /// member cannot be detached: it borrows the caller's scratch), and the
    /// group serves on at the same degree.
    #[test]
    fn a_stall_past_the_deadline_fails_typed_naming_the_member() {
        let m = model(2, 23);
        let pm = PackedModel::pack(&m);
        for member in [0usize, 1] {
            let stall = spec(member, FaultSite::Layer { token: 1, layer: 1 }, FaultKind::Stall { millis: 600 });
            let mut eng = TpEngine::new(&pm, 2, faulty(vec![stall], 100), 2, 16, 4);
            let start = Instant::now();
            let err = eng.pass(&[(0, &[1, 2, 3])], &[], &mut Vec::new()).expect_err("the stall fails the pass");
            let took = start.elapsed();
            let StepError::Weights(f) = err else { panic!("{err:?}") };
            let RankFailureCause::Collective(e) = &f.cause else { panic!("{f}") };
            assert_eq!(e.kind, CollectiveErrorKind::Timeout { stalled: vec![member] }, "{f}");
            assert!(took < Duration::from_millis(1600), "returned after {took:?}");
            assert!(!eng.eng.slot_in_use(0), "the seat is free again");
            let mut out = Vec::new();
            eng.pass(&[(0, &[1, 2, 3])], &[], &mut out).expect("the group serves on");
            assert_eq!(out, oracle(&m, &[1, 2, 3], 1));
            assert_eq!((eng.tp(), eng.report().rebuilds), (2, 1));
        }
    }

    /// Generate `n` tokens for each prompt, one slot each, recovering from
    /// every fault the way the serving scheduler does: release what the
    /// failed pass advanced, then seat each committed context again.
    fn serve<B: PanelWeights>(eng: &mut TpEngine<'_, '_, B>, prompts: &[&[usize]], n: usize) -> Vec<Vec<usize>> {
        let mut toks: Vec<Vec<usize>> = vec![Vec::new(); prompts.len()];
        let mut seated = vec![false; prompts.len()];
        let (mut out, mut faults) = (Vec::new(), 0);
        while toks.iter().any(|t| t.len() < n) {
            let ctxs: Vec<(usize, Vec<usize>)> = (0..prompts.len())
                .filter(|&s| !seated[s])
                .map(|s| (s, [prompts[s], &toks[s][..toks[s].len().saturating_sub(1)]].concat()))
                .collect();
            let seats: Vec<(usize, &[usize])> = ctxs.iter().map(|(s, c)| (*s, &c[..])).collect();
            let advance: Vec<usize> = (0..prompts.len()).filter(|&s| seated[s] && toks[s].len() < n).collect();
            out.clear();
            match eng.pass(&seats, &advance, &mut out) {
                Ok(()) => {
                    for (&(s, _), &t) in seats.iter().zip(&out) {
                        if toks[s].is_empty() {
                            toks[s].push(t);
                        } else {
                            assert_eq!(toks[s].last(), Some(&t), "a replay reproduces the last token");
                        }
                        seated[s] = true;
                    }
                    for (&s, &t) in advance.iter().zip(&out[seats.len()..]) {
                        toks[s].push(t);
                    }
                }
                Err(StepError::Weights(_)) => {
                    for &s in &advance {
                        eng.release(s);
                        seated[s] = false;
                    }
                    faults += 1;
                    assert!(faults < 16, "fault storm: {:?}", eng.report());
                }
                Err(e) => panic!("{e:?}"),
            }
        }
        for s in (0..prompts.len()).filter(|&s| seated[s]) {
            eng.release(s);
        }
        assert_eq!(eng.pool_stats().pages_in_use, 0, "every slot came back");
        toks
    }

    /// Serve two prompts at tp = 2 under `specs`; returns the report and
    /// the final degree.
    fn serve_two(seed: u64, specs: Vec<FaultSpec>, n: usize) -> (TpReport, usize) {
        let m = model(2, seed);
        let pm = PackedModel::pack(&m);
        let prompts: [&[usize]; 2] = [&[1, 2, 3], &[4, 2]];
        let mut eng = TpEngine::new(&pm, 2, faulty(specs, 300), 2, 16, 4);
        let got = serve(&mut eng, &prompts, n);
        for (p, got) in prompts.iter().zip(&got) {
            assert_eq!(got, &oracle(&m, p, n), "prompt {p:?}");
        }
        (eng.report().clone(), eng.tp())
    }

    #[test]
    fn a_fault_free_group_recovers_nothing() {
        let (report, tp) = serve_two(31, Vec::new(), 6);
        assert_eq!((report.rebuilds, tp), (0, 2));
    }

    /// Member 1 drops its arrival at a join: member 0 times out naming it,
    /// the pass fails with the exit, the group degrades to one member, and
    /// the replay reproduces every stream.
    #[test]
    fn a_member_exit_degrades_and_replays_token_identically() {
        let (report, tp) = serve_two(37, vec![spec(1, FaultSite::Barrier { epoch: 12 }, FaultKind::Exit)], 6);
        assert_eq!((tp, report.rebuilds), (1, 1));
        assert_eq!(report.degradations, [(2, 1)]);
        assert!(report.faults[0].contains("dropped its barrier arrival"), "{:?}", report.faults);
    }

    #[test]
    fn a_transient_stall_recovers_at_the_same_degree() {
        let stall = spec(1, FaultSite::Barrier { epoch: 20 }, FaultKind::Stall { millis: 1000 });
        let (report, tp) = serve_two(41, vec![stall], 5);
        assert_eq!((tp, report.rebuilds), (2, 1), "{report:?}");
    }

    #[test]
    fn a_member_panic_is_caught_and_degrades() {
        for member in [0usize, 1] {
            let panic = spec(member, FaultSite::Layer { token: 3, layer: 1 }, FaultKind::Panic);
            let (report, tp) = serve_two(47, vec![panic], 5);
            assert_eq!(tp, 1);
            assert!(report.faults[0].contains(&format!("rank {member} panicked")), "{:?}", report.faults);
        }
    }

    /// A member panic fails the pass with its seats already free: the pool
    /// counts no page for them before any other pass runs.
    #[test]
    fn a_member_panic_frees_the_seats_at_once() {
        let m = model(1, 61);
        let pm = PackedModel::pack(&m);
        for member in [0usize, 1] {
            let panic = spec(member, FaultSite::Layer { token: 2, layer: 0 }, FaultKind::Panic);
            let mut eng = TpEngine::new(&pm, 2, faulty(vec![panic], 200), 2, 8, 2);
            let err = eng.pass(&[(0, &[1, 2, 3]), (1, &[4, 5])], &[], &mut Vec::new()).expect_err("the member panics");
            let StepError::Weights(f) = &err else { panic!("{err:?}") };
            assert!(f.rank == member && matches!(f.cause, RankFailureCause::Panicked(_)), "{f}");
            assert_eq!(eng.pool_stats().pages_in_use, 0, "member {member}: the seats are free");
        }
    }

    /// Two members exit in one pass: the group narrows by both, and serves
    /// on at the narrower degree.
    #[test]
    fn two_members_lost_in_one_pass_narrow_the_group_by_two() {
        let m = model(2, 67);
        let pm = PackedModel::pack(&m);
        let exit = |member| spec(member, FaultSite::Barrier { epoch: 3 }, FaultKind::Exit);
        let mut eng = TpEngine::new(&pm, 4, faulty(vec![exit(1), exit(3)], 300), 1, 8, 4);
        eng.pass(&[(0, &[1, 2, 3])], &[], &mut Vec::new()).expect_err("two members exit");
        assert_eq!((eng.tp(), &eng.report().degradations[..]), (2, &[(4, 2)][..]));
        let mut out = Vec::new();
        eng.pass(&[(0, &[1, 2, 3])], &[], &mut out).unwrap();
        assert_eq!(out, oracle(&m, &[1, 2, 3], 1));
    }

    #[test]
    fn multiple_faults_are_all_survived() {
        // A transient stall *and* a later permanent exit in one run.
        let specs = vec![
            spec(0, FaultSite::Barrier { epoch: 3 }, FaultKind::Stall { millis: 1000 }),
            spec(1, FaultSite::Layer { token: 6, layer: 0 }, FaultKind::Exit),
        ];
        let (report, tp) = serve_two(53, specs, 8);
        assert_eq!((tp, report.rebuilds), (1, 2), "{report:?}");
    }

    /// After a failed pass the seats are free and the advanced slots still
    /// hold their pages until the caller releases them: the pool, on the
    /// caller's side, survives the fault with nothing orphaned.
    #[test]
    fn a_failed_pass_leaves_the_pool_to_the_caller() {
        let m = model(1, 59);
        let pm = PackedModel::pack(&m);
        let exit = spec(1, FaultSite::Layer { token: 3, layer: 0 }, FaultKind::Exit);
        let mut eng = TpEngine::new(&pm, 2, faulty(vec![exit], 200), 3, 8, 2);
        let mut out = Vec::new();
        eng.pass(&[(0, &[1, 2, 3]), (1, &[4, 5])], &[], &mut out).unwrap();
        let held = eng.pool_stats();
        let err = eng.pass(&[(2, &[6, 7, 8])], &[0, 1], &mut out).expect_err("member 1 exits");
        assert!(matches!(err, StepError::Weights(ref f) if f.rank == 1), "{err:?}");
        assert_eq!(out.len(), 2, "the failed pass emits nothing");
        // Slot 1 reserved its next page; slot 2's seat was freed again.
        assert_eq!(eng.pool_stats().pages_in_use, held.pages_in_use + 1);
        eng.release(0);
        eng.release(1);
        assert_eq!(eng.pool_stats().pages_in_use, 0);
        out.clear();
        eng.pass(&[(0, &[1, 2, 3])], &[], &mut out).unwrap();
        assert_eq!(out, oracle(&m, &[1, 2, 3], 1));
        assert_eq!((eng.tp(), eng.report().rebuilds), (1, 1));
    }
}
