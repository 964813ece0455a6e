//! Regenerates Table 1 of the paper: accuracy and speed-up of OPERA vs Monte
//! Carlo for the seven grids.
//!
//! By default the grids are scaled to 5 % of the paper's node counts and the
//! Monte Carlo uses 200 samples so the whole table finishes in minutes.
//! Set `OPERA_BENCH_SCALE=1.0 OPERA_BENCH_MC_SAMPLES=1000` (or pass
//! `--full`) to run the paper-scale configuration.
//!
//! ```text
//! cargo run --release -p opera-bench --bin table1_report
//! OPERA_BENCH_SCALE=0.2 cargo run --release -p opera-bench --bin table1_report
//! cargo run --release -p opera-bench --bin table1_report -- --rows 0,1,2
//! ```

use opera_bench::{
    mc_samples_from_env, parallelism_from_env, run_table1_row, scale_from_env, table1_engine,
    table1_header, table1_row_line,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { 1.0 } else { scale_from_env() };
    let samples = if full { 1000 } else { mc_samples_from_env() };
    let rows: Vec<usize> = args
        .iter()
        .position(|a| a == "--rows")
        .and_then(|i| args.get(i + 1))
        .map(|list| {
            list.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect()
        })
        .unwrap_or_else(|| (0..7).collect());

    println!(
        "Table 1 reproduction — scale {scale}, {samples} Monte Carlo samples, order-2 expansion"
    );
    let parallelism = parallelism_from_env()?;
    println!("{}", table1_header());
    for row in rows {
        let engine = table1_engine(row, scale, samples, parallelism)?.build()?;
        let report = run_table1_row(&engine)?;
        println!("{}", table1_row_line(&report));
    }
    println!("\npaper reference (full scale, 1000 samples):");
    println!(
        "  avg %err µ: 0.014–0.199, avg %err σ: 1.5–6.7, ±3σ: 30–46 % of µ0, speed-ups 20×–124×"
    );
    Ok(())
}
