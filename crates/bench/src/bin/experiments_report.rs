//! Runs the complete (scaled) experiment suite in one go and prints every
//! result recorded in EXPERIMENTS.md: the Table 1 reproduction, the
//! Figure 1/2 distributions, the order/variable ablation, the special case
//! of Section 5.1, a batched scenario sweep served by one long-lived
//! [`OperaEngine`] (setup-once/solve-many), the
//! Galerkin-vs-collocation-vs-Monte-Carlo cross-validation (orders
//! `1..=OPERA_BENCH_COLLOCATION_MAX_ORDER`), and the netlist round trip
//! (export the scaled paper grid as a SPICE-style deck, re-parse it with
//! bit-identical stamping, re-analyze through the engine).
//!
//! ```text
//! cargo run --release -p opera-bench --bin experiments_report
//! ```

use opera::compare::compare;
use opera::engine::{CollocationConfig, McConfig, OperaEngine, Scenario};
use opera::monte_carlo::{run as run_monte_carlo, run_leakage, MonteCarloOptions};
use opera::special_case::{solve_leakage, SpecialCaseOptions};
use opera::transient::TransientOptions;
use opera_bench::{
    ascii_histogram, collocation_max_order_from_env, mc_samples_from_env, parallelism_from_env,
    run_table1_row, scale_from_env, table1_engine, table1_header, table1_row_line,
};
use opera_grid::GridSpec;
use opera_netlist::{export_grid, parse};
use opera_variation::{LeakageModel, StochasticGridModel, VariationSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale_from_env();
    let samples = mc_samples_from_env();
    let parallelism = parallelism_from_env()?;

    // ------------------------------------------------------------------ Table 1
    println!("==== Experiment 1: Table 1 (scale {scale}, {samples} MC samples) ====");
    println!("{}", table1_header());
    let mut first_report = None;
    for row in 0..7 {
        let engine = table1_engine(row, scale, samples, parallelism)?.build()?;
        let report = run_table1_row(&engine)?;
        println!("{}", table1_row_line(&report));
        if row == 0 {
            first_report = Some(report);
        }
    }

    // --------------------------------------------------------------- Figures 1–2
    println!("\n==== Experiment 2: Figures 1 & 2 (drop distribution at the worst node) ====");
    let report = first_report.expect("row 0 ran above");
    let dist = &report.distribution;
    println!("probe node {} at time index {}", dist.node, dist.time_index);
    println!(
        "{}",
        ascii_histogram(
            "Monte Carlo (% of occurrences per drop bin, drop in % of VDD)",
            &dist.monte_carlo.centers(),
            &dist.monte_carlo.percentages()
        )
    );
    println!(
        "{}",
        ascii_histogram(
            "OPERA (sampled from the order-2 expansion)",
            &dist.opera.centers(),
            &dist.opera.percentages()
        )
    );

    // -------------------------------------------------- Order / variable ablation
    println!("==== Experiment 3: expansion order and variable-count ablation ====");
    let grid = GridSpec::industrial((19_181.0 * scale) as usize)
        .with_seed(71)
        .build()?;
    let transient = TransientOptions::new(0.05e-9, grid.waveform_end_time());
    let spec = VariationSpec::paper_defaults();
    println!(
        "{:<26} {:>5} {:>6} {:>12} {:>12} {:>10}",
        "model", "order", "N+1", "µ err %VDD", "σ err %", "OPERA (s)"
    );
    for (name, model) in [
        (
            "2 vars (ξ_G, ξ_L)",
            StochasticGridModel::inter_die(&grid, &spec)?,
        ),
        (
            "3 vars (ξ_W, ξ_T, ξ_L)",
            StochasticGridModel::inter_die_three_variable(&grid, &spec)?,
        ),
    ] {
        let mc = parallelism.install(|| {
            run_monte_carlo(&model, &MonteCarloOptions::new(samples, 17, transient))
        })??;
        for order in 1..=3u32 {
            let builder = OperaEngine::for_model(model.clone())
                .order(order)
                .time_step(transient.time_step)
                .end_time(transient.end_time);
            let started = std::time::Instant::now();
            let sol = builder.build()?.solve()?;
            let secs = started.elapsed().as_secs_f64();
            let err = compare(&sol, &mc, grid.vdd());
            println!(
                "{:<26} {:>5} {:>6} {:>12.5} {:>12.2} {:>10.3}",
                name,
                order,
                sol.basis_size(),
                err.avg_mean_error_percent,
                err.avg_std_error_percent,
                secs
            );
        }
    }

    // ------------------------------------------------------------ Special case 5.1
    println!("\n==== Experiment 4: special case (RHS-only leakage variation, Section 5.1) ====");
    let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 3.0e-5, 0.04, 23.0)?;
    let started = std::time::Instant::now();
    let sol = parallelism
        .install(|| solve_leakage(&grid, &leakage, &SpecialCaseOptions::order2(transient)))??;
    let opera_secs = started.elapsed().as_secs_f64();
    let started = std::time::Instant::now();
    let mc = parallelism.install(|| {
        run_leakage(
            &grid,
            &leakage,
            &MonteCarloOptions::new(samples, 23, transient),
        )
    })??;
    let mc_secs = started.elapsed().as_secs_f64();
    let (node, k, drop) = sol.worst_mean_drop(grid.vdd());
    println!(
        "worst drop {:.2} mV at node {node}: OPERA σ {:.3} mV vs MC σ {:.3} mV",
        1e3 * drop,
        1e3 * sol.std_dev_at(k, node),
        1e3 * mc.std_dev_at(k, node)
    );
    println!(
        "runtime: OPERA {:.2} s vs Monte Carlo {:.2} s (speed-up {:.0}x, single factorisation shared)",
        opera_secs,
        mc_secs,
        mc_secs / opera_secs
    );

    // ------------------------------------------------ Batched scenario sweep
    println!("\n==== Experiment 5: batched scenario sweep on one OperaEngine ====");
    let engine = table1_engine(0, scale, samples, parallelism)?.build()?;
    println!(
        "engine: {} nodes, {} basis functions, solver {}, setup {:.2} s",
        engine.node_count(),
        engine.basis_size(),
        engine.solver().name(),
        engine.setup_seconds()
    );
    let scenarios = [
        Scenario::named("light (0.75x currents)").with_current_scale(0.75),
        Scenario::named("nominal"),
        Scenario::named("heavy (1.25x currents)").with_current_scale(1.25),
        Scenario::named("surge (1.5x currents)").with_current_scale(1.5),
    ];
    let reports = engine.run_batch(&scenarios)?;
    println!(
        "{:<26} {:>11} {:>9} {:>11} {:>10} {:>10}",
        "scenario", "drop (mV)", "σ (mV)", "µ err %VDD", "OPERA (s)", "MC (s)"
    );
    for r in &reports {
        println!(
            "{:<26} {:>11.2} {:>9.3} {:>11.4} {:>10.3} {:>10.2}",
            r.label,
            1e3 * r.report.opera.worst_mean_drop,
            1e3 * r.report.opera.sigma_at_worst,
            r.report.errors.avg_mean_error_percent,
            r.report.opera_seconds,
            r.report.monte_carlo_seconds
        );
    }
    println!(
        "{} scenarios served by {} assembly and {} factorisation(s); \
         per-scenario OPERA cost excludes the shared {:.2} s setup",
        reports.len(),
        engine.assembly_count(),
        engine.factorization_count(),
        engine.setup_seconds()
    );

    // ------------------- Cross-validation: Galerkin vs collocation vs MC
    let max_order = collocation_max_order_from_env();
    println!(
        "\n==== Experiment 6: cross-validation — Galerkin vs collocation vs Monte Carlo \
         (orders 1..={max_order}) ===="
    );
    println!(
        "{:>5} {:>6} {:>6} | {:>12} {:>12} | {:>10} {:>10} | {:>9} {:>9} {:>9}",
        "order",
        "N+1",
        "nodes",
        "gal µerr %V",
        "col µerr %V",
        "gal σerr %",
        "col σerr %",
        "gal (s)",
        "col (s)",
        "MC (s)"
    );
    // The Monte Carlo baseline depends only on the model and transient
    // settings, not on the expansion order — run it once for the whole sweep.
    let mut mc_baseline = None;
    for order in 1..=max_order {
        let engine = table1_engine(0, scale, samples, parallelism)?
            .order(order)
            .build()?;
        if mc_baseline.is_none() {
            let started = std::time::Instant::now();
            let mc = engine.monte_carlo(&McConfig::new(samples, 29))?;
            mc_baseline = Some((mc, started.elapsed().as_secs_f64()));
        }
        let (mc, mc_secs) = mc_baseline.as_ref().expect("just populated");
        let started = std::time::Instant::now();
        let galerkin = engine.solve()?;
        let gal_secs = engine.setup_seconds() + started.elapsed().as_secs_f64();
        let colloc = engine.collocation(&CollocationConfig::smolyak(order))?;
        let gal_err = compare(&galerkin, mc, engine.grid().vdd());
        let col_err = compare(&colloc.solution, mc, engine.grid().vdd());
        println!(
            "{:>5} {:>6} {:>6} | {:>12.5} {:>12.5} | {:>10.2} {:>10.2} | {:>9.3} {:>9.3} {:>9.2}",
            order,
            engine.basis_size(),
            colloc.nodes,
            gal_err.avg_mean_error_percent,
            col_err.avg_mean_error_percent,
            gal_err.avg_std_error_percent,
            col_err.avg_std_error_percent,
            gal_secs,
            colloc.seconds,
            mc_secs
        );
        assert_eq!(
            engine.collocation_symbolic_count(),
            1,
            "collocation must share one symbolic analysis"
        );
    }
    println!(
        "collocation shares one symbolic analysis across all nodes of each sweep; \
         both methods project into the same order-p chaos basis"
    );

    // --------------------------- Netlist round trip: GridSpec -> deck -> engine
    println!("\n==== Experiment 7: netlist front end — export, re-parse, re-analyze ====");
    let grid = GridSpec::paper_grid(0)?.scaled_nodes(scale).build()?;
    let started = std::time::Instant::now();
    let deck = export_grid(&grid, None)?;
    let export_secs = started.elapsed().as_secs_f64();
    let started = std::time::Instant::now();
    let netlist = parse(&deck)?;
    let card_count = netlist.cards.len();
    let lowered = netlist.lower()?;
    let parse_secs = started.elapsed().as_secs_f64();
    let identical = grid.conductance_matrix() == lowered.grid.conductance_matrix()
        && grid.capacitance_matrix() == lowered.grid.capacitance_matrix()
        && grid.sources() == lowered.grid.sources();
    println!(
        "{} nodes -> {:.1} KiB deck, {card_count} cards; export {export_secs:.3} s, \
         parse+lower {parse_secs:.3} s; bit-identical stamping: {identical}",
        grid.node_count(),
        deck.len() as f64 / 1024.0,
    );
    assert!(identical, "netlist round trip lost bits");
    let engine = OperaEngine::for_lowered_netlist(lowered)
        .mc_samples(samples.min(50))
        .build()?;
    let report = engine.run_scenario(&Scenario::named("netlist"))?;
    println!(
        "re-analyzed from the deck: worst mean drop {:.2} mV at node `{}`, \
         µ err vs MC {:.4} %VDD",
        1e3 * report.report.opera.worst_mean_drop,
        engine.node_label(report.report.opera.worst_node),
        report.report.errors.avg_mean_error_percent
    );
    Ok(())
}
