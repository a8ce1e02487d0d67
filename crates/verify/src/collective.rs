//! Pass 3 — the joins of a split pass, and pipeline task-graph structure.
//!
//! Tensor slicing (Sec. IV-A) only works if every member of a group meets
//! the others at the same points of the layer. On one host a
//! tensor-parallel group is `dsi_model::paged::Engine::group`: each pass
//! split across members that write disjoint columns of one scratch and
//! join at a barrier wherever a region reads whole rows another member
//! wrote. The scratch pass checks what each member writes between joins
//! (`scratch::check_split`); this pass checks that the live members join
//! where the pass's record says they do. `sweep::record_group` records
//! passes on a live group, and [`check_member_joins`] holds each member's
//! barrier crossings to the joins the records lay out: a member that skips
//! or adds a join is a `join-count` diagnostic.
//!
//! Pipeline task graphs (Sec. IV-B) get a structural check
//! ([`check_pipeline`]): the graph must be acyclic ([`find_cycle`] over an
//! explicit edge list, so the property suite can feed genuinely cyclic
//! graphs) and every inter-stage transfer must be a matched
//! compute→network→compute hop.

use crate::{Diagnostic, Pass};
use dsi_parallel::pipeline::{PipelineSchedule, PipelineSpec};
use dsi_sim::engine::{Resource, TaskGraph};
use serde::Serialize;

/// The joins of a live group's passes at one member count, as the passes'
/// records lay them out and as the barrier counted them.
#[derive(Debug, Clone)]
pub struct MemberJoins {
    pub members: usize,
    /// The joins the records lay out for each member through the passes:
    /// one fewer than each pass's phases (`PassRecord::phases`).
    pub trace: u64,
    /// Each live member's barrier crossings through the same passes
    /// (`Engine::member_joins`).
    pub live: Vec<u64>,
}

/// Hold each live member's crossings to the recorded joins: a `join-count`
/// diagnostic for a member count other than the pass's, and one for each
/// member that crossed more or fewer joins than the trace lays out.
pub fn check_member_joins(j: &MemberJoins) -> Vec<Diagnostic> {
    let site = format!("split pass members={}", j.members);
    let mut diags = Vec::new();
    if j.live.len() != j.members {
        diags.push(Diagnostic::new(
            Pass::Collective,
            "join-count",
            site.clone(),
            format!("{} live members crossed joins; the pass ran on {}", j.live.len(), j.members),
        ));
    }
    for (t, &n) in j.live.iter().enumerate().filter(|&(_, &n)| n != j.trace) {
        diags.push(Diagnostic::new(
            Pass::Collective,
            "join-count",
            format!("{site}, member {t}"),
            format!("crossed {n} joins; the recorded passes join {} times a member", j.trace),
        ));
    }
    diags
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

    /// Three passes of a 2-layer model: 1 + 4·2 joins each, for every
    /// member, the live crossings as many.
    #[test]
    fn live_joins_match_the_record() {
        for n in [2usize, 4] {
            let j = crate::sweep::record_group(n, false, 2).joins;
            assert_eq!((j.trace, j.live.len()), (3 * (1 + 4 * 2), n), "{j:?}");
            let d = check_member_joins(&j);
            assert!(d.is_empty(), "{n} members: {d:?}");
        }
    }

    #[test]
    fn a_member_off_the_trace_is_detected() {
        // Member 1 crosses one join fewer, member 3 one more, and a member
        // is missing: each is its own diagnostic.
        let mut j = crate::sweep::record_group(4, false, 2).joins;
        j.live[1] -= 1;
        j.live[3] += 1;
        let d = check_member_joins(&j);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|x| x.code == "join-count"), "{d:?}");
        assert!(d[0].site.ends_with("member 1") && d[1].site.ends_with("member 3"), "{d:?}");
        j.live.pop();
        assert!(check_member_joins(&j).iter().any(|x| x.message.contains("3 live members")), "{j:?}");
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
