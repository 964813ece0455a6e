//! Regenerates Figures 1 and 2 of the paper: the distribution of the voltage
//! drop (as % of VDD) at a selected node of the first grid, from OPERA and
//! from Monte Carlo.
//!
//! ```text
//! cargo run --release -p opera-bench --bin figure12_report
//! OPERA_BENCH_SCALE=0.2 OPERA_BENCH_MC_SAMPLES=1000 \
//!     cargo run --release -p opera-bench --bin figure12_report
//! ```

use opera_bench::{
    ascii_histogram, mc_samples_from_env, parallelism_from_env, run_table1_row, scale_from_env,
    table1_engine,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale_from_env();
    let samples = mc_samples_from_env();
    // Figures 1–2 use the 19,181-node grid (Table 1 row 1).
    let builder = table1_engine(0, scale, samples, parallelism_from_env()?)?;
    println!(
        "Figure 1/2 reproduction — grid row 1 at scale {scale}, {samples} Monte Carlo samples"
    );
    let report = run_table1_row(&builder.build()?)?;
    let dist = &report.distribution;
    println!(
        "probe: node {} at time index {} (worst mean drop)\n",
        dist.node, dist.time_index
    );
    println!(
        "{}",
        ascii_histogram(
            "Monte Carlo distribution (voltage drop as % of VDD)",
            &dist.monte_carlo.centers(),
            &dist.monte_carlo.percentages()
        )
    );
    println!(
        "{}",
        ascii_histogram(
            "OPERA distribution (sampled from the order-2 expansion)",
            &dist.opera.centers(),
            &dist.opera.percentages()
        )
    );
    println!(
        "paper reference: the two histograms essentially coincide, centred near 3–4 % of VDD."
    );
    Ok(())
}
