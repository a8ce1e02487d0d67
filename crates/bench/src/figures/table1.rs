//! Table I: model configurations used for the dense inference evaluation.

use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_model::zoo::table1;
use dsi_sim::hw::DType;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Table I — dense model configurations (paper Sec. VII-A3)\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for e in table1() {
        let c = &e.config;
        rows.push(vec![
            c.name.clone(),
            format!("{:.1}", c.total_params() / 1e9),
            c.hidden.to_string(),
            c.layers.to_string(),
            c.heads.to_string(),
            format!("{:.1}", c.weight_bytes(DType::Fp16) / 1e9),
            if e.fig6_tp > 0 {
                format!("TP={}", e.fig6_tp)
            } else {
                "N/A".into()
            },
            e.fig8
                .map(|(tp, pp)| format!("TP={tp},PP={pp}"))
                .unwrap_or_else(|| "N/A".into()),
            if e.fig9 { "TP=1".into() } else { "N/A".into() },
        ]);
        json.push(Row::new(
            "table1",
            "config",
            &c.name,
            "params_B",
            c.total_params() / 1e9,
            c.weight_bytes(DType::Fp16) / 1e9,
            "GB_fp16",
        ));
    }
    print_table(
        &[
            "model", "params(B)", "hidden", "layers", "heads", "fp16 GB", "Fig6", "Fig8", "Fig9",
        ],
        &rows,
    );
    emit(dir, "table1", &json);
}
