//! Shared configuration for the OPERA benchmark harness.
//!
//! The report binaries (`table1_report`, `figure12_report`,
//! `experiments_report`) regenerate the paper's tables and figures; the
//! Criterion benches in `benches/` measure the kernels and the end-to-end
//! OPERA/Monte-Carlo runtimes on scaled grids.
//!
//! All harness entry points accept the environment variables
//!
//! * `OPERA_BENCH_SCALE` — fraction of the paper's node counts to use
//!   (default `0.05`; `1.0` reproduces the full-size grids),
//! * `OPERA_BENCH_MC_SAMPLES` — Monte Carlo sample count (default `200`;
//!   the paper uses `1000`),
//! * `OPERA_BENCH_THREADS` — worker threads for the Monte Carlo baseline
//!   (`1` = serial, `0`/`max` = all cores — the default, any other integer
//!   = fixed count); statistics are bit-identical for every setting. An
//!   unparseable value makes the report binaries exit with an error rather
//!   than silently falling back,
//! * `OPERA_BENCH_COLLOCATION_MAX_ORDER` — highest expansion order of the
//!   Galerkin-vs-collocation-vs-Monte-Carlo cross-validation experiment
//!   (default `2`),
//!
//! so the same binaries can run as quick smoke tests or as the full
//! (hours-long) paper-scale reproduction.

use opera::engine::{EngineBuilder, OperaEngine, Scenario};
use opera::response::ExperimentReport;
use opera::{OperaError, Parallelism};
use opera_grid::GridSpec;

pub mod json;
pub mod perf;
pub mod trace_export;

/// Default fraction of the paper's grid sizes used by the reports.
pub const DEFAULT_SCALE: f64 = 0.05;
/// Default Monte Carlo sample count used by the reports.
pub const DEFAULT_MC_SAMPLES: usize = 200;

/// Reads the node-count scale from `OPERA_BENCH_SCALE`.
pub fn scale_from_env() -> f64 {
    std::env::var("OPERA_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SCALE)
}

/// Reads the Monte Carlo sample count from `OPERA_BENCH_MC_SAMPLES`.
pub fn mc_samples_from_env() -> usize {
    std::env::var("OPERA_BENCH_MC_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_MC_SAMPLES)
}

/// Reads the Monte Carlo worker-thread budget from `OPERA_BENCH_THREADS`
/// (`1` = serial, `0`/`max` = all cores, otherwise a fixed count; defaults
/// to all cores when unset).
///
/// # Errors
///
/// Returns a descriptive message for an unparseable setting. The report
/// binaries propagate this out of `main`, so a typo like
/// `OPERA_BENCH_THREADS=banana` aborts the run instead of silently falling
/// back to all cores.
pub fn parallelism_from_env() -> Result<Parallelism, String> {
    parallelism_from_setting(std::env::var("OPERA_BENCH_THREADS").ok().as_deref())
}

/// The environment-free core of [`parallelism_from_env`]: `None` (variable
/// unset) means all cores; otherwise the string must parse.
///
/// # Errors
///
/// Returns a descriptive message for an unparseable setting.
pub fn parallelism_from_setting(raw: Option<&str>) -> Result<Parallelism, String> {
    match raw {
        None => Ok(Parallelism::Max),
        Some(raw) => Parallelism::from_str_setting(raw).ok_or_else(|| {
            format!(
                "unparseable OPERA_BENCH_THREADS={raw:?}: \
                 expected an integer or \"max\""
            )
        }),
    }
}

/// Default highest expansion order of the Galerkin-vs-collocation-vs-Monte
/// Carlo cross-validation experiment.
pub const DEFAULT_COLLOCATION_MAX_ORDER: u32 = 2;

/// Reads the highest order of the cross-validation experiment from
/// `OPERA_BENCH_COLLOCATION_MAX_ORDER` (default
/// [`DEFAULT_COLLOCATION_MAX_ORDER`]; unparseable values fall back to the
/// default like the other tuning knobs).
pub fn collocation_max_order_from_env() -> u32 {
    std::env::var("OPERA_BENCH_COLLOCATION_MAX_ORDER")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&order| order >= 1)
        .unwrap_or(DEFAULT_COLLOCATION_MAX_ORDER)
}

/// The engine builder for one Table 1 row: paper grid `row` (0-based) with
/// its node count scaled by `scale` (`1.0` keeps the paper's size). The
/// builder's defaults already are the paper's Table 1 settings (paper
/// variation magnitudes, order 2, h = 0.05 ns up to the waveform end, 30
/// histogram bins); this sets the grid, the Monte Carlo sample count, the
/// row's seed `42 + row` and the worker-thread budget.
///
/// Pass [`parallelism_from_env`] to honour the `OPERA_BENCH_THREADS`
/// setting; the environment is deliberately not read here so the function's
/// inputs stay explicit.
///
/// # Errors
///
/// Returns [`OperaError::Grid`] for rows outside the paper's seven grids and
/// propagates grid-generation errors.
pub fn table1_engine(
    row: usize,
    scale: f64,
    mc_samples: usize,
    parallelism: Parallelism,
) -> Result<EngineBuilder, OperaError> {
    let spec = GridSpec::paper_grid(row)?.scaled_nodes(scale);
    Ok(OperaEngine::for_grid(spec)?
        .mc_samples(mc_samples)
        .mc_seed(42 + row as u64)
        .parallelism(parallelism))
}

/// Runs the engine's baseline scenario: one row of Table 1. The report's
/// `opera_seconds` includes the engine setup (assembly and factorisation),
/// the paper's cost accounting for a one-shot analysis.
///
/// # Errors
///
/// Propagates solver and sampling errors.
pub fn run_table1_row(engine: &OperaEngine) -> Result<ExperimentReport, OperaError> {
    let mut report = engine.run_scenario(&Scenario::default())?.report;
    report.opera_seconds += engine.setup_seconds();
    report.speedup = report.monte_carlo_seconds / report.opera_seconds;
    Ok(report)
}

/// Formats the header of the Table 1 reproduction.
pub fn table1_header() -> String {
    format!(
        "{:>9} | {:>11} {:>11} | {:>11} {:>11} | {:>9} | {:>10} {:>10} | {:>8}",
        "nodes",
        "avg %err µ",
        "max %err µ",
        "avg %err σ",
        "max %err σ",
        "±3σ (%µ0)",
        "MC (s)",
        "OPERA (s)",
        "speedup"
    )
}

/// Formats one row of the Table 1 reproduction from an experiment report.
pub fn table1_row_line(report: &ExperimentReport) -> String {
    format!(
        "{:>9} | {:>11.4} {:>11.4} | {:>11.2} {:>11.2} | {:>9.1} | {:>10.2} {:>10.2} | {:>8.0}",
        report.node_count,
        report.errors.avg_mean_error_percent,
        report.errors.max_mean_error_percent,
        report.errors.avg_std_error_percent,
        report.errors.max_std_error_percent,
        report.opera.avg_three_sigma_percent_of_nominal,
        report.monte_carlo_seconds,
        report.opera_seconds,
        report.speedup
    )
}

/// Renders a histogram as an ASCII bar chart (one line per bin).
pub fn ascii_histogram(label: &str, centers: &[f64], percentages: &[f64]) -> String {
    let mut out = format!("{label}\n");
    for (c, p) in centers.iter().zip(percentages) {
        let bars = "#".repeat((p * 0.8).round() as usize);
        out.push_str(&format!("{c:>8.3} | {p:>5.1}% {bars}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_settings_round_trip() {
        // One test covers both unset → defaults and set → parsed, so the
        // environment mutations cannot race a sibling test thread.
        std::env::remove_var("OPERA_BENCH_SCALE");
        std::env::remove_var("OPERA_BENCH_MC_SAMPLES");
        std::env::remove_var("OPERA_BENCH_THREADS");
        std::env::remove_var("OPERA_BENCH_COLLOCATION_MAX_ORDER");
        assert_eq!(scale_from_env(), DEFAULT_SCALE);
        assert_eq!(mc_samples_from_env(), DEFAULT_MC_SAMPLES);
        assert_eq!(parallelism_from_env(), Ok(Parallelism::Max));
        assert_eq!(
            collocation_max_order_from_env(),
            DEFAULT_COLLOCATION_MAX_ORDER
        );

        std::env::set_var("OPERA_BENCH_THREADS", "1");
        assert_eq!(parallelism_from_env(), Ok(Parallelism::Serial));
        std::env::set_var("OPERA_BENCH_THREADS", "4");
        assert_eq!(parallelism_from_env(), Ok(Parallelism::Threads(4)));
        // An unparseable setting is an error, not a silent fallback.
        std::env::set_var("OPERA_BENCH_THREADS", "banana");
        let err = parallelism_from_env().unwrap_err();
        assert!(err.contains("banana"), "{err}");
        std::env::remove_var("OPERA_BENCH_THREADS");

        std::env::set_var("OPERA_BENCH_COLLOCATION_MAX_ORDER", "3");
        assert_eq!(collocation_max_order_from_env(), 3);
        std::env::set_var("OPERA_BENCH_COLLOCATION_MAX_ORDER", "0");
        assert_eq!(
            collocation_max_order_from_env(),
            DEFAULT_COLLOCATION_MAX_ORDER
        );
        std::env::remove_var("OPERA_BENCH_COLLOCATION_MAX_ORDER");
    }

    #[test]
    fn parallelism_setting_parses_or_errors() {
        // Parse-ok paths.
        assert_eq!(parallelism_from_setting(None), Ok(Parallelism::Max));
        assert_eq!(parallelism_from_setting(Some("1")), Ok(Parallelism::Serial));
        assert_eq!(parallelism_from_setting(Some("max")), Ok(Parallelism::Max));
        assert_eq!(
            parallelism_from_setting(Some("8")),
            Ok(Parallelism::Threads(8))
        );
        // Parse-fail paths carry the offending value in the message.
        for bad in ["banana", "-2", "1.5", ""] {
            let err = parallelism_from_setting(Some(bad)).unwrap_err();
            assert!(err.contains(bad), "{err}");
            assert!(err.contains("OPERA_BENCH_THREADS"), "{err}");
        }
    }

    #[test]
    fn table1_rows_bill_the_engine_setup_into_opera_seconds() {
        assert!(table1_engine(9, 0.1, 50, Parallelism::Max).is_err());
        let engine = table1_engine(0, 0.01, 10, Parallelism::Serial)
            .unwrap()
            .time_step(0.25e-9)
            .end_time(1.0e-9)
            .build()
            .unwrap();
        let report = run_table1_row(&engine).unwrap();
        assert_eq!(report.mc_samples, 10);
        assert!(report.node_count < 400);
        assert!(report.opera_seconds > engine.setup_seconds());
        assert_eq!(
            report.speedup,
            report.monte_carlo_seconds / report.opera_seconds
        );
    }

    #[test]
    fn header_and_histogram_formatting() {
        assert!(table1_header().contains("speedup"));
        let s = ascii_histogram("demo", &[1.0, 2.0], &[10.0, 90.0]);
        assert!(s.contains("demo"));
        assert!(s.lines().count() >= 3);
    }
}
