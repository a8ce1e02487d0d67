//! Performance breakdown and analysis (Sec. VII-E flavor): per-layer time
//! split by kernel class for every Fig. 6 model, DeepSpeed vs
//! FasterTransformer, at small and large batch.

use dsi_baselines::exec::ExecStyle;
use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_kernels::cost::ExecConfig;
use dsi_model::zoo::table1;
use dsi_sim::hw::GpuSpec;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Per-layer kernel-time breakdown (token generation, ctx 128)\n");
    let gpu = GpuSpec::a100_40gb();
    let cfg = ExecConfig::fp16(true);
    let styles = [ExecStyle::faster_transformer(), ExecStyle::deepspeed()];
    let mut json = Vec::new();
    for batch in [1usize, 32] {
        println!("batch {batch}:");
        let mut rows = Vec::new();
        for e in table1().into_iter().filter(|e| e.fig6_tp > 0) {
            let m = &e.config;
            let mut row = vec![m.name.clone()];
            for style in &styles {
                let b = style.layer_breakdown(
                    &gpu, batch, 1, 128, m.hidden, m.heads, e.fig6_tp, &cfg,
                );
                row.push(format!(
                    "{:.0}/{:.0}/{:.0}/{:.0}",
                    b.gemm * 1e6,
                    b.attention * 1e6,
                    b.elementwise * 1e6,
                    b.launch * 1e6
                ));
                for (class, v) in [
                    ("gemm", b.gemm),
                    ("attention", b.attention),
                    ("elementwise", b.elementwise),
                    ("launch", b.launch),
                ] {
                    json.push(Row::new(
                        "breakdown",
                        &format!("{}/{}", style.name, class),
                        &m.name,
                        "batch",
                        batch as f64,
                        v * 1e6,
                        "us",
                    ));
                }
            }
            rows.push(row);
        }
        print_table(
            &["model", "FT gemm/attn/ew/launch us", "DS gemm/attn/ew/launch us"],
            &rows,
        );
        println!();
    }
    emit(dir, "breakdown", &json);
}
