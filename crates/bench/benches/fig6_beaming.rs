//! Figure 6 — data beaming for CH-benCHmark Q3: (a) query execution
//! time, (b) build time, (c) probe time, as a function of query compile
//! time (0–40 ms; the paper marks the commercial optimizer "DB-C" at
//! 30 ms).
//!
//! Runs on the real engine: live producer/consumer ACs, real scans and
//! hash joins, with modeled link transfer times (aggregated = NUMA-class
//! host links where filtering costs host CPU; disaggregated = DPI-class
//! links with NIC-offloaded filter flows). Bandwidths are scaled so the
//! baseline probe transfer sits near the paper's ~30 ms; see DESIGN.md §2
//! for the constants.

use std::sync::Arc;
use std::time::Duration;

use anydb_bench::{figure_header, ms, row};
use anydb_core::beaming::{run_q3, ArchMode, BeamVariant, BeamingConfig};
use anydb_workload::chbench::Q3Spec;
use anydb_workload::tpcc::{TpccConfig, TpccDb};

fn main() {
    figure_header(
        "Figure 6: data beaming (CH-benCHmark Q3, 3 scans + 2 joins)",
        "x-axis: query compile time in ms (DB-C marker at 30 ms). Aggregated =\n\
         solid (host links), Disaggregated = dashed (DPI offload).",
    );

    let cfg = TpccConfig {
        warehouses: 4,
        districts_per_warehouse: 10,
        customers_per_district: 300,
        items: 100,
        orders_per_district: 600,
        open_order_fraction: 0.3,
        lines_per_order: 1,
        ..TpccConfig::default()
    };
    let db = Arc::new(TpccDb::load(cfg, 0xF166).unwrap());
    let spec = Q3Spec::default();

    let compile_points: Vec<u64> = (0..=40).step_by(5).collect();
    let variants = [
        BeamVariant::Baseline,
        BeamVariant::BeamBuild,
        BeamVariant::BeamBuildProbe,
    ];
    let archs = [ArchMode::Aggregated, ArchMode::Disaggregated];

    // Untimed warmup: fault in the tables and warm the allocator so the
    // first measured cell is not polluted by cold-start costs.
    let warm =
        BeamingConfig::paper_default(BeamVariant::Baseline, ArchMode::Aggregated, Duration::ZERO);
    let _ = run_q3(&db, spec, &warm);

    // Collect all runs first: runs[(variant, arch)][compile] -> result.
    let mut results = Vec::new();
    for &variant in &variants {
        for &arch in &archs {
            let mut series = Vec::new();
            for &cms in &compile_points {
                let cfg = BeamingConfig::paper_default(variant, arch, Duration::from_millis(cms));
                let r = run_q3(&db, spec, &cfg);
                series.push(r);
            }
            results.push((variant, arch, series));
        }
    }

    let mut widths = vec![34usize];
    widths.extend(std::iter::repeat_n(7usize, compile_points.len()));
    for (panel, pick) in [
        ("(a) query execution time [ms]", 0usize),
        ("(b) build time [ms]", 1),
        ("(c) probe time [ms]", 2),
    ] {
        println!("--- {panel} ---");
        let mut header = vec!["series \\ compile ms".to_string()];
        header.extend(compile_points.iter().map(|c| c.to_string()));
        row(&header, &widths);
        for (variant, arch, series) in &results {
            let mut cells = vec![format!("{} / {}", variant.label(), arch.label())];
            for r in series {
                let v = match pick {
                    0 => r.total,
                    1 => r.build,
                    _ => r.probe,
                };
                cells.push(ms(v));
            }
            row(&cells, &widths);
        }
        println!();
    }
    let rows = results[0].2[0].rows;
    println!(
        "qualifying open orders per query: {rows} (identical across all runs: {})",
        results
            .iter()
            .all(|(_, _, s)| s.iter().all(|r| r.rows == rows))
    );
}
