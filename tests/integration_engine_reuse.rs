//! Integration test for the setup-once/solve-many contract of `OperaEngine`:
//! a batch of K scenarios must be served by exactly one Galerkin assembly and
//! one factorisation (counted via the engine's test hooks), while returning
//! statistics bit-identical to K independent one-shot engines that each
//! rebuild everything from scratch.

use std::sync::Arc;

use opera::engine::{EngineBuilder, OperaEngine, Scenario};
use opera::response::ExperimentReport;
use opera::solver::{default_backend, DirectCholesky};
use opera_grid::GridSpec;

/// A small direct-Cholesky engine: 40 Monte Carlo samples (seed 7), 12
/// histogram bins, h = 0.2 ns up to 1 ns.
fn demo_engine(nodes: usize) -> EngineBuilder {
    OperaEngine::for_grid(GridSpec::small_test(nodes))
        .unwrap()
        .solver(Arc::new(DirectCholesky))
        .time_step(0.2e-9)
        .end_time(1.0e-9)
        .mc_samples(40)
        .mc_seed(7)
        .histogram_bins(12)
}

/// The baseline scenario's report of a freshly built engine.
fn one_shot(builder: EngineBuilder) -> ExperimentReport {
    builder
        .build()
        .unwrap()
        .run_scenario(&Scenario::default())
        .unwrap()
        .report
}

#[test]
fn run_batch_shares_one_assembly_and_matches_one_shot_runs_bit_for_bit() {
    let engine = demo_engine(140).build().unwrap();
    assert_eq!(engine.assembly_count(), 1);
    assert_eq!(engine.factorization_count(), 1);

    // K scenarios differing only in their Monte Carlo seed: pure reuse.
    let seeds = [7u64, 1001, 2002];
    let scenarios: Vec<Scenario> = seeds
        .iter()
        .map(|&seed| Scenario::named(format!("seed-{seed}")).with_mc_seed(seed))
        .collect();
    let batch = engine.run_batch(&scenarios).unwrap();
    assert_eq!(batch.len(), seeds.len());

    // The whole batch was served by the one assembly + one factorisation
    // performed at engine build time.
    assert_eq!(engine.assembly_count(), 1, "run_batch re-assembled");
    assert_eq!(engine.factorization_count(), 1, "run_batch re-factored");

    // Each batched report must be bit-identical (timings aside) to the
    // corresponding one-shot experiment, which rebuilds grid, model, system
    // and factorisation from scratch.
    for (&seed, batched) in seeds.iter().zip(&batch) {
        let one_shot = one_shot(demo_engine(140).mc_seed(seed));

        assert_eq!(batched.report.node_count, one_shot.node_count);
        assert_eq!(batched.report.mc_samples, one_shot.mc_samples);
        // DropSummary and AccuracySummary are PartialEq over raw f64 fields:
        // equality here means bit-identical statistics.
        assert_eq!(batched.report.opera, one_shot.opera, "seed {seed}");
        assert_eq!(batched.report.errors, one_shot.errors, "seed {seed}");
        // Distribution histograms: same probe, same bins, same counts.
        assert_eq!(batched.report.distribution.node, one_shot.distribution.node);
        assert_eq!(
            batched.report.distribution.time_index,
            one_shot.distribution.time_index
        );
        assert_eq!(
            batched.report.distribution.opera.edges(),
            one_shot.distribution.opera.edges()
        );
        assert_eq!(
            batched.report.distribution.opera.counts(),
            one_shot.distribution.opera.counts()
        );
        assert_eq!(
            batched.report.distribution.monte_carlo.counts(),
            one_shot.distribution.monte_carlo.counts()
        );
    }
}

#[test]
fn time_step_overrides_refactor_but_never_reassemble() {
    let engine = demo_engine(120).build().unwrap();
    let scenarios = [
        Scenario::named("baseline"),
        Scenario::named("fine").with_time_step(0.1e-9),
        Scenario::named("short").with_end_time(0.6e-9),
    ];
    let reports = engine.run_batch(&scenarios).unwrap();
    assert_eq!(reports.len(), 3);
    // Exactly one extra preparation (for the fine time step); the end-time
    // override shares the baseline factorisation, and nothing re-assembles.
    assert_eq!(engine.assembly_count(), 1);
    assert_eq!(engine.factorization_count(), 2);
    // A finer step means more time points, same physics: worst drops differ
    // by discretisation only.
    let base = reports[0].report.opera.worst_mean_drop;
    let fine = reports[1].report.opera.worst_mean_drop;
    assert!((base - fine).abs() / base < 0.2, "base {base}, fine {fine}");
}

#[test]
fn solver_backends_are_interchangeable_through_the_builder() {
    let direct = one_shot(demo_engine(110));
    let cg = one_shot(demo_engine(110).solver(default_backend()));
    // Same grid and seeds; only the augmented-system solver differs, so the
    // statistics agree to solver tolerance.
    let rel = (cg.opera.worst_mean_drop - direct.opera.worst_mean_drop).abs()
        / direct.opera.worst_mean_drop;
    assert!(rel < 1e-6, "default CG: worst drop differs by {rel}");
    assert_eq!(cg.distribution.node, direct.distribution.node);
}
