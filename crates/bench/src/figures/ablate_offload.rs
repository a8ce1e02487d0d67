//! Ablation: the odd/even offload scheduling of Sec. IV-C3 as a function of
//! KV pressure — naive shared-link, staggered shared-link, and dedicated
//! links, on the paired-GPU PCIe timeline simulator.

use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_parallel::offload::OffloadSpec;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Ablation — KV offload PCIe scheduling (24 layers, 1 ms/layer compute)\n");
    let base = OffloadSpec {
        layers: 24,
        layer_compute: 1.0e-3,
        kv_bytes_per_layer: 0.0,
        pcie_bw: 25e9,
        shared_link: true,
        odd_even_schedule: false,
    };
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for mb in [5.0f64, 10.0, 20.0, 40.0, 80.0] {
        let kv = mb * 1e6;
        let naive = OffloadSpec { kv_bytes_per_layer: kv, ..base.clone() }.run();
        let staggered = OffloadSpec {
            kv_bytes_per_layer: kv,
            odd_even_schedule: true,
            ..base.clone()
        }
        .run();
        let dedicated = OffloadSpec {
            kv_bytes_per_layer: kv,
            shared_link: false,
            ..base.clone()
        }
        .run();
        rows.push(vec![
            format!("{mb:.0}"),
            format!("{:.1} ({:.0}%)", naive.step_time * 1e3, 100.0 * naive.stall_fraction),
            format!(
                "{:.1} ({:.0}%)",
                staggered.step_time * 1e3,
                100.0 * staggered.stall_fraction
            ),
            format!(
                "{:.1} ({:.0}%)",
                dedicated.step_time * 1e3,
                100.0 * dedicated.stall_fraction
            ),
        ]);
        for (sys, r) in [
            ("naive-shared", &naive),
            ("odd-even", &staggered),
            ("dedicated", &dedicated),
        ] {
            json.push(Row::new(
                "ablate_offload",
                sys,
                "kv-offload",
                "MB/layer",
                mb,
                r.step_time * 1e3,
                "ms",
            ));
        }
    }
    print_table(
        &[
            "KV MB/layer",
            "naive shared ms (stall)",
            "odd/even ms (stall)",
            "dedicated ms (stall)",
        ],
        &rows,
    );
    println!(
        "\nodd/even staggering recovers the dedicated-link step time on shared links\n\
         until the link itself saturates (Sec. IV-C3)."
    );
    emit(dir, "ablate_offload", &json);
}
