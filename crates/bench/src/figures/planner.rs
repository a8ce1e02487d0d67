//! Deployment planner CLI: for every Table I model, recommend the best
//! (TP × PP) mapping on a given cluster for latency and for throughput —
//! the "optimal parallelism strategy" question of Sec. I, answered
//! mechanically, including a what-if on post-paper hardware.

use crate::{emit, print_table};
use dsi_core::planner::{plan, Objective};
use dsi_core::report::Row;
use dsi_model::zoo::table1;
use dsi_sim::hw::ClusterSpec;

pub fn run(dir: &std::path::Path, args: &[String]) {
    let nodes: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let hw = args.get(1).map(|s| s.as_str()).unwrap_or("a100");
    let cluster = match hw {
        "h100" => ClusterSpec::dgx_h100(nodes),
        _ => ClusterSpec::dgx_a100(nodes),
    };
    println!(
        "Deployment planner — {} node(s) of 8x {} ({} GPUs)\n",
        nodes,
        cluster.node.gpu.name,
        cluster.total_gpus()
    );
    println!("usage: figures planner [nodes] [a100|h100]\n");

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for e in table1() {
        let model = e.config;
        let lat = plan(&model, &cluster, 128, 8, Objective::MinLatency { batch: 1 }, None);
        let thr = plan(&model, &cluster, 512, 50, Objective::MaxThroughput, None);
        let lat_s = lat
            .as_ref()
            .map(|p| {
                format!(
                    "TP{}xPP{} {:.0} ms",
                    p.best.tp,
                    p.best.pp,
                    p.best.report.total_latency * 1e3
                )
            })
            .unwrap_or_else(|| "infeasible".into());
        let thr_s = thr
            .as_ref()
            .map(|p| {
                format!(
                    "TP{}xPP{} {:.0} tok/s (b={})",
                    p.best.tp, p.best.pp, p.best.report.tokens_per_s, p.best.report.batch
                )
            })
            .unwrap_or_else(|| "infeasible".into());
        rows.push(vec![model.name.clone(), lat_s, thr_s]);
        if let Some(p) = &thr {
            json.push(Row::new(
                "planner",
                &format!("tp{}xpp{}", p.best.tp, p.best.pp),
                &model.name,
                "gpus",
                p.best.gpus as f64,
                p.best.report.tokens_per_s,
                "tokens/s",
            ));
        }
    }
    print_table(
        &["model", "best latency plan (b=1)", "best throughput plan"],
        &rows,
    );
    emit(dir, "planner", &json);
}
