//! Pass 3 — collective-order race detector.
//!
//! Tensor slicing (Sec. IV-A) only works if every rank of a communication
//! group issues the *same* collective sequence with the *same* byte counts:
//! NCCL-style collectives match by call order, so one rank skipping an
//! all-reduce (or sharding it differently) hangs or corrupts the whole
//! group. Pipeline parallelism (Sec. IV-B) adds point-to-point send/recv
//! pairs that must rendezvous, and schedules that must be acyclic.
//!
//! Programs are modelled per rank as ordered lists of [`Op`]s; the join
//! programs of a split pass's members — which is what an executed
//! tensor-parallel group runs — are read off the split trace the scratch
//! pass checks, and held to the joins a live engine makes
//! ([`member_programs`]). Two detectors:
//! * [`check_lockstep`] — the cheap static check: project each rank's
//!   program onto one group's collectives and require identical sequences
//!   (kind + bytes), with per-step rank/op provenance on mismatch;
//! * [`simulate_rendezvous`] — the general detector: advance all ranks under
//!   rendezvous semantics (a collective completes when every member is at
//!   it; a send completes when its peer is at the matching recv). Programs
//!   that stop progressing are deadlocks; the diagnostic lists every stuck
//!   rank and the op it is blocked on.
//!
//! Pipeline task graphs get a structural check ([`check_pipeline`]): the
//! graph must be acyclic ([`find_cycle`] over an explicit edge list, so the
//! property suite can feed genuinely cyclic graphs) and every inter-stage
//! transfer must be a matched compute→network→compute hop.

use crate::{Diagnostic, Pass};
use dsi_model::fast::{PackedModel, Row};
use dsi_model::paged::Engine;
use dsi_model::reference::GptModel;
use dsi_model::zoo;
use dsi_parallel::mapping::Mapping3D;
use dsi_parallel::pipeline::{PipelineSchedule, PipelineSpec};
use dsi_sim::engine::{Resource, TaskGraph};
use dsi_sim::shmem::CommConfig;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Group collectives (matched across all members of `group`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CollKind {
    AllReduce,
    AllGather,
    ReduceScatter,
    AllToAll,
    Broadcast,
    /// Pure synchronization, no payload (a split pass's join at the
    /// sense-reversing barrier). `bytes` is 0 by convention.
    Barrier,
}

/// One communication call issued by a rank.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Op {
    /// A collective over `group` (must include the issuing rank).
    Coll {
        kind: CollKind,
        group: Vec<usize>,
        bytes: u64,
        tag: String,
    },
    /// Blocking send to `to`.
    Send { to: usize, bytes: u64, tag: String },
    /// Blocking receive from `from`.
    Recv { from: usize, bytes: u64, tag: String },
}

impl Op {
    pub fn coll(kind: CollKind, group: Vec<usize>, bytes: u64, tag: impl Into<String>) -> Self {
        Op::Coll { kind, group, bytes, tag: tag.into() }
    }

    fn describe(&self) -> String {
        match self {
            Op::Coll { kind, bytes, tag, .. } => format!("{kind:?}({bytes}B, `{tag}`)"),
            Op::Send { to, bytes, tag } => format!("Send(to {to}, {bytes}B, `{tag}`)"),
            Op::Recv { from, bytes, tag } => format!("Recv(from {from}, {bytes}B, `{tag}`)"),
        }
    }
}

/// Per-rank communication programs.
pub type Programs = BTreeMap<usize, Vec<Op>>;

/// Static lock-step check of one group: every member must issue the same
/// sequence of collectives over that group, with matching kinds and byte
/// counts. Returns all mismatches with rank/step/op provenance.
pub fn check_lockstep(group: &[usize], programs: &Programs) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let project = |rank: usize| -> Vec<&Op> {
        programs
            .get(&rank)
            .map(|ops| {
                ops.iter()
                    .filter(|op| matches!(op, Op::Coll { group: g, .. } if g == group))
                    .collect()
            })
            .unwrap_or_default()
    };
    let Some((&lead, rest)) = group.split_first() else {
        return diags;
    };
    let want = project(lead);
    for &rank in rest {
        let got = project(rank);
        if got.len() != want.len() {
            diags.push(Diagnostic::new(
                Pass::Collective,
                "collective-mismatch",
                format!("group {group:?} rank {rank}"),
                format!(
                    "issues {} collectives over this group but rank {lead} issues {}",
                    got.len(),
                    want.len()
                ),
            ));
        }
        for (step, (a, b)) in want.iter().zip(&got).enumerate() {
            if let (
                Op::Coll { kind: ka, bytes: ba, tag: ta, .. },
                Op::Coll { kind: kb, bytes: bb, tag: tb, .. },
            ) = (a, b)
            {
                if ka != kb {
                    diags.push(Diagnostic::new(
                        Pass::Collective,
                        "collective-mismatch",
                        format!("group {group:?} step {step}"),
                        format!(
                            "rank {lead} issues {ka:?} (`{ta}`) but rank {rank} issues {kb:?} (`{tb}`)"
                        ),
                    ));
                } else if ba != bb {
                    diags.push(Diagnostic::new(
                        Pass::Collective,
                        "collective-mismatch",
                        format!("group {group:?} step {step}"),
                        format!(
                            "rank {lead} moves {ba} bytes in `{ta}` but rank {rank} moves {bb} bytes in `{tb}`"
                        ),
                    ));
                }
            }
        }
    }
    diags
}

/// Advance all ranks under rendezvous semantics until every program drains
/// or no rank can make progress. A collective fires when every group member
/// is blocked at it (kind and bytes must then agree — disagreement is
/// reported and the group resynchronized so analysis continues). A send
/// fires when its peer is blocked at the matching recv. Anything left
/// blocked at quiescence is a deadlock, reported with every stuck rank and
/// the op it waits on.
pub fn simulate_rendezvous(programs: &Programs) -> Vec<Diagnostic> {
    simulate_rendezvous_with_exits(programs, &ExitPlan::new())
}

/// Rank exit script for [`simulate_rendezvous_with_exits`]: rank → op index
/// at which the rank dies. The rank executes ops `0..idx` normally and
/// never issues another (modelling "rank exits at epoch *e*" — a worker
/// panic, scripted `FaultKind::Exit`, or a crashed process).
pub type ExitPlan = BTreeMap<usize, usize>;

fn rank_dead(
    dead: &BTreeSet<usize>,
    exits: &ExitPlan,
    pc: &BTreeMap<usize, usize>,
    r: usize,
) -> bool {
    dead.contains(&r)
        || exits
            .get(&r)
            .is_some_and(|&at| pc.get(&r).is_some_and(|&i| i >= at))
}

/// [`simulate_rendezvous`] extended with the hardened runtime's abort
/// semantics: ranks listed in `exits` die at the scripted op index, and any
/// survivor blocked on a collective / send / recv involving a dead rank does
/// **not** hang — its bounded-timeout wait converts the loss into a typed
/// `collective-abort` diagnostic (mirroring `CollectiveError` in
/// `dsi_sim::fault`) and the survivor stops issuing ops, exactly like a
/// worker returning an error. Only ranks left *silently* blocked at
/// quiescence — stuck on live peers — are reported as deadlocks.
pub fn simulate_rendezvous_with_exits(programs: &Programs, exits: &ExitPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut pc: BTreeMap<usize, usize> = programs.keys().map(|&r| (r, 0)).collect();
    // Ranks that stopped issuing ops: scripted exits (checked via
    // `rank_dead`) plus survivors whose wait aborted with a typed error.
    let mut dead: BTreeSet<usize> = BTreeSet::new();
    let head = |pc: &BTreeMap<usize, usize>, r: usize| -> Option<&Op> {
        programs.get(&r).and_then(|ops| ops.get(*pc.get(&r)?))
    };

    loop {
        let mut progressed = false;
        let ranks: Vec<usize> = pc.keys().copied().collect();
        for &r in &ranks {
            if rank_dead(&dead, exits, &pc, r) {
                continue;
            }
            let Some(op) = head(&pc, r) else { continue };
            match op {
                Op::Coll { kind, group, bytes, tag } => {
                    if !group.contains(&r) {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "collective-mismatch",
                            format!("rank {r} (`{tag}`)"),
                            format!("issues a collective over group {group:?} it is not a member of"),
                        ));
                        *pc.get_mut(&r).unwrap() += 1;
                        progressed = true;
                        continue;
                    }
                    // A dead member never arrives: the survivor's bounded
                    // spin times out and surfaces a typed error.
                    let lost: Vec<usize> = group
                        .iter()
                        .copied()
                        .filter(|&g| rank_dead(&dead, exits, &pc, g))
                        .collect();
                    if !lost.is_empty() {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "collective-abort",
                            format!("rank {r} (`{tag}`)"),
                            format!(
                                "peer(s) {lost:?} exited before this collective; the timeout \
                                 converts the wait into a typed CollectiveError instead of a hang"
                            ),
                        ));
                        dead.insert(r);
                        progressed = true;
                        continue;
                    }
                    // Fire only when every member sits at a collective over
                    // the same group.
                    let mut members = Vec::with_capacity(group.len());
                    let mut all_here = true;
                    for &g in group {
                        match head(&pc, g) {
                            Some(Op::Coll { kind: k2, group: g2, bytes: b2, tag: t2 })
                                if g2 == group =>
                            {
                                members.push((g, *k2, *b2, t2.clone()));
                            }
                            _ => {
                                all_here = false;
                                break;
                            }
                        }
                    }
                    if !all_here {
                        continue;
                    }
                    for &(g, k2, b2, ref t2) in &members[1..] {
                        let (g0, k0, b0, ref t0) = members[0];
                        if k2 != k0 {
                            diags.push(Diagnostic::new(
                                Pass::Collective,
                                "collective-mismatch",
                                format!("group {group:?}"),
                                format!("rank {g0} issues {k0:?} (`{t0}`) but rank {g} issues {k2:?} (`{t2}`)"),
                            ));
                        } else if b2 != b0 {
                            diags.push(Diagnostic::new(
                                Pass::Collective,
                                "collective-mismatch",
                                format!("group {group:?}"),
                                format!("rank {g0} moves {b0} bytes (`{t0}`) but rank {g} moves {b2} (`{t2}`)"),
                            ));
                        }
                    }
                    let _ = (kind, bytes);
                    for &(g, ..) in &members {
                        *pc.get_mut(&g).unwrap() += 1;
                    }
                    progressed = true;
                }
                Op::Send { to, bytes, tag } => {
                    let (to, bytes, tag) = (*to, *bytes, tag.clone());
                    if rank_dead(&dead, exits, &pc, to) {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "collective-abort",
                            format!("rank {r} (`{tag}`)"),
                            format!("peer {to} exited before the matching recv; send times out with a typed error"),
                        ));
                        dead.insert(r);
                        progressed = true;
                        continue;
                    }
                    if let Some(Op::Recv { from, bytes: rb, tag: rt }) = head(&pc, to) {
                        if *from == r {
                            if *rb != bytes {
                                diags.push(Diagnostic::new(
                                    Pass::Collective,
                                    "collective-mismatch",
                                    format!("ranks {r}->{to}"),
                                    format!(
                                        "send `{tag}` carries {bytes} bytes but recv `{rt}` expects {rb}"
                                    ),
                                ));
                            }
                            *pc.get_mut(&r).unwrap() += 1;
                            *pc.get_mut(&to).unwrap() += 1;
                            progressed = true;
                        }
                    }
                }
                Op::Recv { from, tag, .. } => {
                    // Normally fired from the sending side; a dead sender
                    // never arrives, so the recv times out typed.
                    if rank_dead(&dead, exits, &pc, *from) {
                        diags.push(Diagnostic::new(
                            Pass::Collective,
                            "collective-abort",
                            format!("rank {r} (`{tag}`)"),
                            format!("sender {from} exited before the matching send; recv times out with a typed error"),
                        ));
                        dead.insert(r);
                        progressed = true;
                    }
                }
            }
        }
        if !progressed {
            break;
        }
    }

    let stuck: Vec<String> = pc
        .iter()
        .filter_map(|(&r, &i)| {
            if rank_dead(&dead, exits, &pc, r) {
                return None; // exited or typed-aborted, not silently stuck
            }
            programs.get(&r).and_then(|ops| ops.get(i)).map(|op| format!("rank {r} blocked at op {i}: {}", op.describe()))
        })
        .collect();
    if !stuck.is_empty() {
        diags.push(Diagnostic::new(
            Pass::Collective,
            "deadlock",
            format!("{} rank(s)", stuck.len()),
            stuck.join("; "),
        ));
    }
    diags
}

/// Full check of a set of programs over the given groups: lock-step per
/// group plus rendezvous simulation.
pub fn check_programs(groups: &[Vec<usize>], programs: &Programs) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for g in groups {
        diags.extend(check_lockstep(g, programs));
    }
    diags.extend(simulate_rendezvous(programs));
    diags
}

/// Exit-safety proof obligation: under the scripted `exits`, every surviving
/// rank must either drain its program or surface a **typed**
/// `collective-abort` — those aborts are the *expected* outcome of the
/// hardened runtime and are filtered out; everything else (above all
/// `deadlock`: a survivor silently blocked on live peers) is returned as a
/// defect.
pub fn check_exit_safety(programs: &Programs, exits: &ExitPlan) -> Vec<Diagnostic> {
    simulate_rendezvous_with_exits(programs, exits)
        .into_iter()
        .filter(|d| d.code != "collective-abort")
        .collect()
}

// ---------------------------------------------------------------------------
// Program builders for the workspace's parallelism mappings.
// ---------------------------------------------------------------------------

/// The tensor-parallel collective program of a dense model under `mapping`:
/// every rank issues two all-reduces per layer (after the attention-output
/// and FF2 row-parallel GEMMs, Sec. IV-A) over its TP group, each moving the
/// full activation (`bytes`).
pub fn tp_allreduce_programs(mapping: &Mapping3D, layers: usize, bytes: u64) -> (Vec<Vec<usize>>, Programs) {
    let mut groups = Vec::new();
    let mut programs = Programs::new();
    for rank in 0..mapping.world_size() {
        let group = mapping.tp_group(rank);
        if group[0] == rank {
            groups.push(group.clone());
        }
        let ops = (0..layers)
            .flat_map(|l| {
                [
                    Op::coll(CollKind::AllReduce, group.clone(), bytes, format!("layer{l}.attn_out")),
                    Op::coll(CollKind::AllReduce, group.clone(), bytes, format!("layer{l}.ff2")),
                ]
            })
            .collect();
        programs.insert(rank, ops);
    }
    (groups, programs)
}

/// One pass as `(name, seats, advanced slots)`.
type NamedPass = (&'static str, &'static [(usize, &'static [usize])], &'static [usize]);

/// The passes [`member_programs`] traces and runs: a seat pass, a mixed
/// pass that seats a second sequence while the first advances, and a decode
/// pass over both.
const MEMBER_PASSES: [NamedPass; 3] = [
    ("seat", &[(0, &[1, 2, 3])], &[]),
    ("mixed", &[(1, &[4, 5])], &[0]),
    ("decode", &[], &[0, 1]),
];

/// The join program of each member of a `members`-member split pass over a
/// tiny 2-layer model, through the seat, mixed and decode passes of
/// `MEMBER_PASSES`: one barrier per join of `scratch::split_step_trace`
/// (every phase of a pass but the last ends at one), which is what a
/// tensor-parallel group's members execute. A live group of `members`
/// members runs the same passes, and each member's barrier crossings (the
/// barrier's arrival heartbeat, so the hot path records nothing) must equal
/// its program's joins: a `join-count` diagnostic otherwise.
pub fn member_programs(members: usize) -> Result<Programs, Diagnostic> {
    let model = GptModel::random(zoo::tiny(2), 7);
    let pm = PackedModel::pack(&model);
    let mut eng = Engine::group(&pm, members, CommConfig::default(), 2, 8, 4);
    let (mut lens, mut ops) = ([0usize; 2], Vec::new());
    for (name, seats, advance) in MEMBER_PASSES {
        let mut rows: Vec<Row> = Vec::new();
        for &(slot, ctx) in seats {
            rows.extend((0..ctx.len()).map(|pos| Row { seq: slot, token: 0, pos }));
            lens[slot] = ctx.len();
        }
        for &slot in advance {
            rows.push(Row { seq: slot, token: 0, pos: lens[slot] });
            lens[slot] += 1;
        }
        let (_, phases, _) = crate::scratch::split_step_trace(&model.config, members, &rows);
        ops.extend(phases[..phases.len() - 1].iter().map(|p| format!("{name}.{}", p.name)));
        eng.pass(seats, advance, &mut Vec::new()).expect("a fault-free pass");
    }
    let group: Vec<usize> = (0..members).collect();
    let joins = eng.member_joins();
    if joins.len() != members || joins.iter().any(|&j| j != ops.len() as u64) {
        return Err(Diagnostic::new(
            Pass::Collective,
            "join-count",
            format!("split pass members={members}"),
            format!("the trace joins {} times a member; the live members crossed {joins:?}", ops.len()),
        ));
    }
    let program: Vec<Op> = ops.into_iter().map(|tag| Op::coll(CollKind::Barrier, group.clone(), 0, tag)).collect();
    Ok(group.iter().map(|&t| (t, program.clone())).collect())
}

/// The pipeline point-to-point program: within each (dp, tp) pipeline
/// group, stage `s` receives each micro-batch's activation from stage `s-1`,
/// then sends its own output to stage `s+1`.
pub fn pp_p2p_programs(mapping: &Mapping3D, microbatches: usize, bytes: u64) -> Programs {
    let mut programs = Programs::new();
    for rank in 0..mapping.world_size() {
        let c = mapping.coord(rank);
        let pp_group = mapping.pp_group(rank);
        let mut ops = Vec::new();
        for mb in 0..microbatches {
            if c.pp > 0 {
                ops.push(Op::Recv {
                    from: pp_group[c.pp - 1],
                    bytes,
                    tag: format!("mb{mb}.act_in"),
                });
            }
            if c.pp + 1 < mapping.pp {
                ops.push(Op::Send {
                    to: pp_group[c.pp + 1],
                    bytes,
                    tag: format!("mb{mb}.act_out"),
                });
            }
        }
        programs.insert(rank, ops);
    }
    programs
}

/// The expert-parallel program of an MoE model: `gpus` ranks in groups of
/// `ep`, each issuing two all-to-alls (dispatch + combine) per MoE layer.
pub fn ep_alltoall_programs(gpus: usize, ep: usize, moe_layers: usize, bytes: u64) -> (Vec<Vec<usize>>, Programs) {
    assert!(ep >= 1 && gpus >= ep && gpus.is_multiple_of(ep), "ep must divide gpus");
    let mut groups = Vec::new();
    let mut programs = Programs::new();
    for base in (0..gpus).step_by(ep) {
        let group: Vec<usize> = (base..base + ep).collect();
        groups.push(group.clone());
        for &rank in &group {
            let ops = (0..moe_layers)
                .flat_map(|l| {
                    [
                        Op::coll(CollKind::AllToAll, group.clone(), bytes, format!("moe{l}.dispatch")),
                        Op::coll(CollKind::AllToAll, group.clone(), bytes, format!("moe{l}.combine")),
                    ]
                })
                .collect();
            programs.insert(rank, ops);
        }
    }
    (groups, programs)
}

// ---------------------------------------------------------------------------
// Pipeline task-graph structure.
// ---------------------------------------------------------------------------

/// An explicit directed graph (edge list), so callers — and the property
/// suite — can express cyclic graphs that [`TaskGraph`] cannot represent.
#[derive(Debug, Clone, Serialize)]
pub struct DiGraph {
    pub n: usize,
    /// `(from, to)`: `from` must complete before `to`.
    pub edges: Vec<(usize, usize)>,
}

impl DiGraph {
    /// Extract the dependency graph of a [`TaskGraph`].
    pub fn from_task_graph(g: &TaskGraph) -> Self {
        let mut edges = Vec::new();
        for (id, t) in g.tasks().iter().enumerate() {
            for &d in &t.deps {
                edges.push((d, id));
            }
        }
        DiGraph { n: g.len(), edges }
    }
}

/// Find a dependency cycle, if any, returned as the node sequence of the
/// cycle. Iterative three-color DFS.
pub fn find_cycle(g: &DiGraph) -> Option<Vec<usize>> {
    let mut adj = vec![Vec::new(); g.n];
    for &(a, b) in &g.edges {
        if a < g.n && b < g.n {
            adj[a].push(b);
        }
    }
    // 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; g.n];
    let mut parent = vec![usize::MAX; g.n];
    for start in 0..g.n {
        if color[start] != 0 {
            continue;
        }
        // (node, next child index)
        let mut stack = vec![(start, 0usize)];
        color[start] = 1;
        while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
            if *ci < adj[u].len() {
                let v = adj[u][*ci];
                *ci += 1;
                match color[v] {
                    0 => {
                        color[v] = 1;
                        parent[v] = u;
                        stack.push((v, 0));
                    }
                    1 => {
                        // Found a back edge u -> v: reconstruct the cycle.
                        let mut cycle = vec![v];
                        let mut w = u;
                        while w != v && w != usize::MAX {
                            cycle.push(w);
                            w = parent[w];
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                color[u] = 2;
                stack.pop();
            }
        }
    }
    None
}

/// Structural verification of a pipeline schedule: build the task graph for
/// `schedule`, check it is acyclic, and check every inter-stage transfer is
/// a matched hop — each `Network(s)` task must consume exactly one
/// `Compute(s)` producer and feed at least one `Compute(s+1)` consumer.
pub fn check_pipeline(spec: &PipelineSpec, schedule: PipelineSchedule) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let (graph, _) = spec.build(schedule);
    if let Some(cycle) = find_cycle(&DiGraph::from_task_graph(&graph)) {
        diags.push(Diagnostic::new(
            Pass::Collective,
            "pipeline-cycle",
            format!("{schedule:?}"),
            format!("task graph contains a dependency cycle through tasks {cycle:?}"),
        ));
        return diags;
    }
    let mut dependents = vec![Vec::new(); graph.len()];
    for (id, t) in graph.tasks().iter().enumerate() {
        for &d in &t.deps {
            dependents[d].push(id);
        }
    }
    for (id, t) in graph.tasks().iter().enumerate() {
        let Resource::Network(s) = t.resource else { continue };
        let producers: Vec<usize> = t
            .deps
            .iter()
            .copied()
            .filter(|&d| graph.task(d).resource == Resource::Compute(s))
            .collect();
        if producers.len() != 1 {
            diags.push(Diagnostic::new(
                Pass::Collective,
                "unmatched-p2p",
                format!("task {id} (`{}`)", t.label),
                format!(
                    "inter-stage transfer on Network({s}) must have exactly one Compute({s}) producer, found {}",
                    producers.len()
                ),
            ));
        }
        let consumed = dependents[id]
            .iter()
            .any(|&d| graph.task(d).resource == Resource::Compute(s + 1));
        if !consumed {
            diags.push(Diagnostic::new(
                Pass::Collective,
                "unmatched-p2p",
                format!("task {id} (`{}`)", t.label),
                format!("send on Network({s}) has no matching receive on Compute({})", s + 1),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PipelineSpec {
        PipelineSpec {
            stages: 4,
            prompt_microbatches: 4,
            gen_microbatches: 4,
            gen_tokens: 4,
            stage_prompt_time_full: 40e-3,
            stage_gen_time: 2e-3,
            microbatch_overhead: 0.1e-3,
            p2p_time: 0.05e-3,
        }
    }

    #[test]
    fn tp_programs_are_clean() {
        for (dp, pp, tp) in [(1, 1, 4), (2, 2, 4), (1, 5, 8)] {
            let m = Mapping3D::new(dp, pp, tp);
            let (groups, progs) = tp_allreduce_programs(&m, 3, 1024);
            let d = check_programs(&groups, &progs);
            assert!(d.is_empty(), "({dp},{pp},{tp}): {d:?}");
        }
    }

    fn members(n: usize) -> Programs {
        member_programs(n).expect("the live members join as the trace does")
    }

    /// Three passes of a 2-layer model: 1 + 4·2 joins each, for every
    /// member, lock-step and deadlock-free.
    #[test]
    fn member_programs_are_clean_and_match_the_live_joins() {
        for n in [2usize, 4] {
            let progs = members(n);
            let d = check_programs(&[(0..n).collect()], &progs);
            assert!(d.is_empty(), "{n} members: {d:?}");
            assert!(progs.len() == n && progs.values().all(|p| p.len() == 3 * (1 + 4 * 2)), "{n} members: {progs:?}");
        }
    }

    #[test]
    fn a_member_skipping_a_join_is_detected() {
        // Member 1 skips the join after its first attention region: the
        // lock-step check flags the shorter program and the rendezvous
        // simulation reports the resulting stall.
        let mut progs = members(4);
        progs.get_mut(&1).unwrap().remove(1);
        let d = check_programs(&[(0..4).collect()], &progs);
        assert!(d.iter().any(|x| x.code == "collective-mismatch"), "{d:?}");
        assert!(d.iter().any(|x| x.code == "deadlock"), "{d:?}");
    }

    #[test]
    fn pp_programs_rendezvous() {
        let m = Mapping3D::new(2, 3, 2);
        let progs = pp_p2p_programs(&m, 4, 4096);
        let d = simulate_rendezvous(&progs);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn ep_programs_are_clean() {
        let (groups, progs) = ep_alltoall_programs(16, 8, 2, 1 << 20);
        let d = check_programs(&groups, &progs);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn skipped_allreduce_detected() {
        let m = Mapping3D::new(1, 1, 4);
        let (groups, mut progs) = tp_allreduce_programs(&m, 2, 512);
        progs.get_mut(&2).unwrap().remove(1); // rank 2 skips layer0.ff2
        let d = check_programs(&groups, &progs);
        assert!(d.iter().any(|x| x.code == "collective-mismatch"), "{d:?}");
        assert!(d.iter().any(|x| x.code == "deadlock"), "{d:?}");
    }

    #[test]
    fn byte_count_mismatch_detected_with_provenance() {
        let m = Mapping3D::new(1, 1, 2);
        let (groups, mut progs) = tp_allreduce_programs(&m, 1, 512);
        if let Op::Coll { bytes, .. } = &mut progs.get_mut(&1).unwrap()[0] {
            *bytes = 256; // rank 1 shards the all-reduce differently
        }
        let d = check_programs(&groups, &progs);
        let hit = d.iter().find(|x| x.code == "collective-mismatch").expect("must flag");
        assert!(hit.message.contains("512") && hit.message.contains("256"), "{hit:?}");
        assert!(hit.message.contains("layer0.attn_out"), "{hit:?}");
    }

    #[test]
    fn send_send_deadlock_detected() {
        let mut progs = Programs::new();
        progs.insert(0, vec![Op::Send { to: 1, bytes: 8, tag: "a".into() }]);
        progs.insert(1, vec![Op::Send { to: 0, bytes: 8, tag: "b".into() }]);
        let d = simulate_rendezvous(&progs);
        assert!(d.iter().any(|x| x.code == "deadlock" && x.message.contains("rank 0")), "{d:?}");
    }

    #[test]
    fn crossed_collective_orders_deadlock() {
        // Rank 0: group A then group B; rank shared by both orders them the
        // other way round — the classic collective-order race.
        let ga = vec![0, 1];
        let gb = vec![1, 2];
        let mut progs = Programs::new();
        progs.insert(0, vec![Op::coll(CollKind::AllReduce, ga.clone(), 8, "a")]);
        progs.insert(
            1,
            vec![
                Op::coll(CollKind::AllReduce, gb.clone(), 8, "b"),
                Op::coll(CollKind::AllReduce, ga.clone(), 8, "a"),
            ],
        );
        progs.insert(2, vec![]);
        // Rank 2 never joins group B's all-reduce: rank 1 blocks forever,
        // and so transitively does rank 0.
        let d = simulate_rendezvous(&progs);
        assert!(d.iter().any(|x| x.code == "deadlock"), "{d:?}");
    }

    #[test]
    fn exit_before_collective_aborts_survivors_typed() {
        // Rank 1 dies mid-schedule: every survivor must reach a typed abort
        // (the timeout path), and *nobody* may be reported silently stuck.
        let progs = members(4);
        let len = progs[&0].len();
        for at in [0usize, 1, 7, len - 1] {
            let exits = ExitPlan::from([(1usize, at)]);
            let d = simulate_rendezvous_with_exits(&progs, &exits);
            assert!(
                d.iter().any(|x| x.code == "collective-abort"),
                "exit at {at}: {d:?}"
            );
            assert!(
                d.iter().all(|x| x.code != "deadlock"),
                "exit at {at} must abort typed, not deadlock: {d:?}"
            );
            assert!(check_exit_safety(&progs, &exits).is_empty());
        }
    }

    #[test]
    fn exit_after_program_end_is_harmless() {
        let progs = members(2);
        let exits = ExitPlan::from([(1usize, progs[&1].len())]);
        let d = simulate_rendezvous_with_exits(&progs, &exits);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn no_exits_matches_plain_rendezvous() {
        let progs = members(4);
        assert!(simulate_rendezvous_with_exits(&progs, &ExitPlan::new()).is_empty());
        assert!(simulate_rendezvous(&progs).is_empty());
    }

    #[test]
    fn dead_sender_times_out_the_recv() {
        let mut progs = Programs::new();
        progs.insert(0, vec![Op::Recv { from: 1, bytes: 8, tag: "act".into() }]);
        progs.insert(1, vec![Op::Send { to: 0, bytes: 8, tag: "act".into() }]);
        let exits = ExitPlan::from([(1usize, 0)]);
        let d = simulate_rendezvous_with_exits(&progs, &exits);
        assert!(d.iter().any(|x| x.code == "collective-abort" && x.message.contains("sender 1")), "{d:?}");
        assert!(d.iter().all(|x| x.code != "deadlock"), "{d:?}");
    }

    #[test]
    fn exits_do_not_mask_real_deadlocks() {
        // Ranks 0 and 1 deadlock among themselves (send/send); rank 2's
        // scripted exit elsewhere must not excuse it.
        let mut progs = Programs::new();
        progs.insert(0, vec![Op::Send { to: 1, bytes: 8, tag: "a".into() }]);
        progs.insert(1, vec![Op::Send { to: 0, bytes: 8, tag: "b".into() }]);
        progs.insert(2, vec![Op::Send { to: 3, bytes: 8, tag: "c".into() }]);
        progs.insert(3, vec![Op::Recv { from: 2, bytes: 8, tag: "c".into() }]);
        let exits = ExitPlan::from([(2usize, 0)]);
        let d = check_exit_safety(&progs, &exits);
        assert!(d.iter().any(|x| x.code == "deadlock" && x.message.contains("rank 0")), "{d:?}");
    }

    #[test]
    fn pipeline_graphs_are_structurally_sound() {
        for sched in [PipelineSchedule::TrainingStyle, PipelineSchedule::InferenceQueue] {
            let d = check_pipeline(&spec(), sched);
            assert!(d.is_empty(), "{sched:?}: {d:?}");
        }
    }

    #[test]
    fn cycle_detection_on_explicit_graph() {
        let g = DiGraph { n: 3, edges: vec![(0, 1), (1, 2), (2, 0)] };
        let c = find_cycle(&g).expect("cycle");
        assert_eq!(c.len(), 3);
        let g = DiGraph { n: 3, edges: vec![(0, 1), (1, 2), (0, 2)] };
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = DiGraph { n: 1, edges: vec![(0, 0)] };
        assert!(find_cycle(&g).is_some());
    }
}
