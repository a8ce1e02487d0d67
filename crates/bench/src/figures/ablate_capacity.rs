//! Ablation: expert capacity factor vs token drop rate and buffer waste,
//! measured on the *functional* gating implementation with realistic
//! (skewed) routing distributions — the quality/latency trade-off behind
//! the `c_e` term of Sec. V-C.

use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_kernels::tensor::Tensor;
use dsi_moe::gating::top_k_gating;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Ablation — expert capacity factor (128 experts, 1024 tokens, top-1)\n");
    let tokens = 1024usize;
    let experts = 128usize;
    // Skewed logits: a popularity bias makes some experts hot, as trained
    // gates do.
    let mut logits = Tensor::randn(&[tokens, experts], 2.0, 42);
    for r in 0..tokens {
        for (e, v) in logits.row_mut(r).iter_mut().enumerate() {
            *v += 1.2 * (-(e as f32) / 32.0).exp(); // mildly popular head experts
        }
    }

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for cf in [0.5f64, 0.75, 1.0, 1.25, 1.5, 2.0] {
        let capacity = ((cf * tokens as f64) / experts as f64).ceil() as usize;
        let d = top_k_gating(&logits, 1, capacity);
        let dropped = d.dropped.len();
        let used: usize = (0..experts).map(|e| d.expert_load(e)).sum();
        let slots = experts * capacity;
        rows.push(vec![
            format!("{cf:.2}"),
            capacity.to_string(),
            format!("{:.1}%", 100.0 * dropped as f64 / tokens as f64),
            format!("{:.1}%", 100.0 * (slots - used) as f64 / slots as f64),
        ]);
        json.push(Row::new(
            "ablate_capacity",
            "drop_rate",
            "gating",
            "capacity_factor",
            cf,
            100.0 * dropped as f64 / tokens as f64,
            "%",
        ));
    }
    print_table(
        &["capacity factor", "slots/expert", "tokens dropped", "slots wasted"],
        &rows,
    );
    println!(
        "\nlow capacity drops tokens (quality loss); high capacity wastes buffer\n\
         memory and all-to-all payload — the c_e knob of Sec. V-C."
    );
    emit(dir, "ablate_capacity", &json);
}
