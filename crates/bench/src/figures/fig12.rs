//! Fig. 12: comparison with E.T. kernels on DistilBERT and BERT encoders
//! (batch 1, sequence 128, A100).

use dsi_baselines::exec::ExecStyle;
use crate::{emit, ms, print_table};
use dsi_core::report::Row;
use dsi_kernels::cost::ExecConfig;
use dsi_model::zoo::encoders;
use dsi_sim::hw::GpuSpec;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Fig. 12 — encoder latency vs E.T. (batch 1, seq 128, A100)\n");
    let gpu = GpuSpec::a100_40gb();
    let cfg = ExecConfig::fp16(true);
    let ds = ExecStyle::deepspeed();
    let et = ExecStyle::et();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for m in encoders() {
        let t_et = et.encoder_forward_time(&gpu, &m, 1, 128, &cfg);
        let t_ds = ds.encoder_forward_time(&gpu, &m, 1, 128, &cfg);
        rows.push(vec![
            m.name.clone(),
            ms(t_et),
            ms(t_ds),
            format!("{:.2}x", t_et / t_ds),
        ]);
        json.push(Row::new("fig12", "E.T.", &m.name, "seq", 128.0, t_et * 1e3, "ms"));
        json.push(Row::new("fig12", "DeepSpeed", &m.name, "seq", 128.0, t_ds * 1e3, "ms"));
    }
    print_table(&["model", "E.T. ms", "DeepSpeed ms", "speedup"], &rows);
    println!("\npaper: 1.7x (DistilBERT) and 1.4x (BERT).");
    emit(dir, "fig12", &json);
}
