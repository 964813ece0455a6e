//! Industrial-scale experiment: one (scaled) row of the paper's Table 1.
//!
//! Reproduces the paper's experimental flow on a scaled version of one of the
//! seven industrial grids: order-2 OPERA analysis vs a Monte Carlo baseline,
//! reporting the accuracy of the mean and standard deviation, the ±3σ spread
//! relative to the nominal drop, and the speed-up.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example industrial_grid [row 0..6] [scale] [mc_samples]
//! cargo run --release --example industrial_grid 0 0.1 200
//! ```
//!
//! Row 0 at scale 1.0 with 1000 samples reproduces the first Table 1 row at
//! full size (19,181 nodes) — expect a long Monte Carlo run.

use opera::engine::{OperaEngine, Scenario};
use opera_grid::GridSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let row: usize = args.get(1).map(|s| s.parse()).transpose()?.unwrap_or(0);
    let scale: f64 = args.get(2).map(|s| s.parse()).transpose()?.unwrap_or(0.1);
    let samples: usize = args.get(3).map(|s| s.parse()).transpose()?.unwrap_or(200);

    let spec = GridSpec::paper_grid(row)?.scaled_nodes(scale);
    println!(
        "Table 1 row {} (scaled x{:.2}): target {} nodes, {} MC samples, order-2 expansion",
        row + 1,
        scale,
        spec.target_nodes,
        samples
    );

    // The builder's defaults are the paper's Table 1 settings (order 2,
    // paper variation magnitudes, h = 0.05 ns up to the waveform end).
    let engine = OperaEngine::for_grid(spec)?
        .mc_samples(samples)
        .mc_seed(42 + row as u64)
        .build()?;
    let report = engine.run_scenario(&Scenario::default())?.report;
    // A one-shot analysis pays for the engine setup too.
    let opera_seconds = report.opera_seconds + engine.setup_seconds();

    println!("\n--- results ------------------------------------------------");
    println!("nodes                         : {}", report.node_count);
    println!(
        "avg / max error in mean  (%VDD): {:.4} / {:.4}",
        report.errors.avg_mean_error_percent, report.errors.max_mean_error_percent
    );
    println!(
        "avg / max error in sigma (%)   : {:.2} / {:.2}",
        report.errors.avg_std_error_percent, report.errors.max_std_error_percent
    );
    println!(
        "±3σ variation (% of nominal µ0): avg {:.1} / max {:.1}",
        report.opera.avg_three_sigma_percent_of_nominal,
        report.opera.max_three_sigma_percent_of_nominal
    );
    println!(
        "mean shift vs nominal  (%VDD)  : {:.4}",
        report.opera.avg_mean_shift_percent_of_vdd
    );
    println!(
        "CPU time Monte Carlo / OPERA   : {:.2} s / {:.2} s  (speed-up {:.0}x)",
        report.monte_carlo_seconds,
        opera_seconds,
        report.monte_carlo_seconds / opera_seconds
    );

    println!(
        "\n--- drop distribution at node {} (Figure 1/2) ---------------",
        report.distribution.node
    );
    println!("{:>12} | {:>10} | {:>10}", "drop %VDD", "OPERA %", "MC %");
    let centers = report.distribution.opera.centers();
    let opera_pct = report.distribution.opera.percentages();
    let mc_pct = report.distribution.monte_carlo.percentages();
    for ((c, o), m) in centers.iter().zip(&opera_pct).zip(&mc_pct) {
        println!("{c:>12.3} | {o:>10.1} | {m:>10.1}");
    }
    Ok(())
}
