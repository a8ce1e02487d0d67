//! Table II: model configurations used for the sparse (MoE) evaluation.

use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_model::zoo::table2;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Table II — sparse model configurations (paper Sec. VII-A3)\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for m in table2() {
        rows.push(vec![
            m.name.clone(),
            format!("{:.1}", m.total_params() / 1e9),
            m.base.layers.to_string(),
            m.base.hidden.to_string(),
            m.mp_degree.to_string(),
            m.ep_degree.to_string(),
            m.expert_slicing.to_string(),
            m.gpus.to_string(),
            m.moe_layers.to_string(),
        ]);
        json.push(Row::new(
            "table2",
            "config",
            &m.name,
            "gpus",
            m.gpus as f64,
            m.total_params() / 1e9,
            "params_B",
        ));
    }
    print_table(
        &[
            "model",
            "size(B)",
            "layers",
            "hidden",
            "MP",
            "EP",
            "expert-slicing",
            "GPUs",
            "MoE layers",
        ],
        &rows,
    );
    emit(dir, "table2", &json);
}
