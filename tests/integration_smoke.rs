//! Workspace smoke test: one engine scenario runs end to end on a tiny
//! grid, the parallel Monte Carlo path is statistics-identical
//! to the serial path for a fixed seed (with a wall-clock sanity check on
//! multi-core machines), and every Monte Carlo sample — factored against
//! the run's shared symbolic analyses — is bit-identical to a one-shot
//! transient of its own matrices.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use opera::engine::{OperaEngine, Scenario};
use opera::monte_carlo::{run as run_monte_carlo, run_leakage, MonteCarloOptions};
use opera::parallel::sample_seed;
use opera::solver::DirectCholesky;
use opera::special_case::{solve_leakage, SpecialCaseOptions};
use opera::transient::{solve_transient, IntegrationMethod, TransientOptions};
use opera::Parallelism;
use opera_grid::GridSpec;
use opera_variation::{LeakageModel, StochasticGridModel, VariationSpec};

#[test]
fn tiny_engine_scenario_runs_end_to_end() {
    let report = OperaEngine::for_grid(GridSpec::small_test(150))
        .unwrap()
        .solver(Arc::new(DirectCholesky))
        .time_step(0.2e-9)
        .end_time(1.0e-9)
        .mc_samples(40)
        .mc_seed(7)
        .histogram_bins(12)
        .build()
        .unwrap()
        .run_scenario(&Scenario::default())
        .unwrap()
        .report;
    assert!(report.node_count >= 100);
    assert!(report.opera.max_three_sigma_percent_of_nominal > 0.0);
    assert!(report.errors.avg_mean_error_percent < 1.0);
    assert!(report.monte_carlo_seconds > 0.0);
    assert_eq!(report.mc_samples, 40);
    assert_eq!(
        report.distribution.opera.edges(),
        report.distribution.monte_carlo.edges()
    );
}

#[test]
fn parallel_monte_carlo_is_bit_identical_to_serial() {
    let grid = GridSpec::small_test(120).with_seed(33).build().unwrap();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    // 23 samples: five lock-step groups of four and a last group of three,
    // so every thread count splits the groups into uneven batches.
    let mut options = MonteCarloOptions::new(23, 9, TransientOptions::new(0.25e-9, 1.0e-9));
    options.probe_nodes = vec![0, 5];

    let serial = Parallelism::Serial
        .install(|| run_monte_carlo(&model, &options))
        .unwrap()
        .unwrap();
    for threads in [2, 3, 8] {
        let parallel = Parallelism::Threads(threads)
            .install(|| run_monte_carlo(&model, &options))
            .unwrap()
            .unwrap();
        assert_eq!(serial.mean, parallel.mean, "{threads} threads");
        assert_eq!(serial.variance, parallel.variance, "{threads} threads");
        assert_eq!(
            serial.probe_traces, parallel.probe_traces,
            "{threads} threads"
        );
        assert_eq!(serial.samples, parallel.samples);
    }
}

#[test]
fn monte_carlo_samples_are_bit_identical_to_one_shot_transients() {
    let grid = GridSpec::small_test(120).with_seed(41).build().unwrap();
    let spec = VariationSpec::paper_defaults();
    let models = [
        StochasticGridModel::inter_die(&grid, &spec).unwrap(),
        StochasticGridModel::inter_die_three_variable(&grid, &spec).unwrap(),
        StochasticGridModel::intra_die_slices(&grid, &spec, 3).unwrap(),
    ];
    let seed = 13;
    // One sample, one full lock-step group, a full group plus one sample
    // stepped alone in the next group, and two full groups plus one.
    for (model, samples) in models.iter().flat_map(|m| [1, 4, 5, 9].map(|s| (m, s))) {
        for method in [
            IntegrationMethod::BackwardEuler,
            IntegrationMethod::Trapezoidal,
            IntegrationMethod::TrBdf2,
        ] {
            let mut topts = TransientOptions::new(0.25e-9, 1.0e-9);
            topts.method = method;
            let mut options = MonteCarloOptions::new(samples, seed, topts);
            options.probe_nodes = (0..model.node_count()).collect();
            let mc = run_monte_carlo(model, &options).unwrap();
            for s in 0..samples {
                // The reference redraws sample `s` from its own stream and
                // runs the per-call analysis path of `solve_transient`.
                let mut rng = StdRng::seed_from_u64(sample_seed(seed, s as u64));
                let xi: Vec<f64> = model
                    .families()
                    .iter()
                    .map(|f| f.sample(&mut rng))
                    .collect();
                let reference = solve_transient(
                    &model.sample_conductance(&xi).unwrap(),
                    &model.sample_capacitance(&xi).unwrap(),
                    |t| model.sample_excitation(t, &xi).unwrap(),
                    &topts,
                )
                .unwrap();
                for (p, &node) in options.probe_nodes.iter().enumerate() {
                    assert_eq!(
                        mc.probe_traces[p][s],
                        reference.node_waveform(node),
                        "{method:?}: sample {s}, node {node} moved"
                    );
                }
            }
        }
    }
}

#[test]
fn monte_carlo_samples_on_the_lu_fallback_step_alone_bit_identically() {
    // With the widest admissible spread, a Gaussian tail draw of ξ_G below
    // −1/σ_G makes `G = (1 + σ_G·ξ_G)·G_a` negative definite: that sample's
    // Cholesky attempts fail and it steps alone on LU factors, while the
    // rest of its group steps in lock step.
    let grid = GridSpec::small_test(60).with_seed(7).build().unwrap();
    let mut spec = VariationSpec::paper_defaults();
    spec.width_3sigma = 0.59;
    spec.thickness_3sigma = 0.59;
    let model = StochasticGridModel::inter_die(&grid, &spec).unwrap();
    let limit = -1.0 / spec.sigma_conductance();
    let samples = 6;
    let draw = |seed: u64, s: usize| -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(sample_seed(seed, s as u64));
        model
            .families()
            .iter()
            .map(|f| f.sample(&mut rng))
            .collect()
    };
    // The first seed whose first lock-step group holds exactly one such
    // sample, not in its last lane.
    let seed = (0u64..)
        .find(|&seed| {
            let tails: Vec<usize> = (0..samples)
                .filter(|&s| draw(seed, s)[0] < limit - 0.05)
                .collect();
            tails.len() == 1 && tails[0] < 3
        })
        .unwrap();
    let topts = TransientOptions::new(0.25e-9, 0.75e-9);
    let mut options = MonteCarloOptions::new(samples, seed, topts);
    options.probe_nodes = (0..model.node_count()).collect();
    let serial = run_monte_carlo(&model, &options).unwrap();
    let parallel = Parallelism::Threads(2)
        .install(|| run_monte_carlo(&model, &options))
        .unwrap()
        .unwrap();
    assert_eq!(serial.mean, parallel.mean);
    assert_eq!(serial.variance, parallel.variance);
    let mut fallbacks = 0;
    for s in 0..samples {
        let xi = draw(seed, s);
        let g = model.sample_conductance(&xi).unwrap();
        let c = model.sample_capacitance(&xi).unwrap();
        let companion = g.add_scaled(&c, 1.0 / topts.time_step).unwrap();
        if opera_sparse::CholeskyFactor::factor(&companion).is_err() {
            assert!(opera_sparse::CholeskyFactor::factor(&g).is_err());
            fallbacks += 1;
        }
        let reference =
            solve_transient(&g, &c, |t| model.sample_excitation(t, &xi).unwrap(), &topts).unwrap();
        for (p, &node) in options.probe_nodes.iter().enumerate() {
            assert_eq!(
                serial.probe_traces[p][s],
                reference.node_waveform(node),
                "sample {s}, node {node} moved"
            );
        }
    }
    assert_eq!(fallbacks, 1);
}

#[test]
fn parallel_leakage_monte_carlo_and_special_case_are_deterministic() {
    let grid = GridSpec::small_test(90).with_seed(17).build().unwrap();
    let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 3.0e-5, 0.04, 23.0).unwrap();
    let topts = TransientOptions::new(0.25e-9, 1.0e-9);

    let options = MonteCarloOptions::new(16, 5, topts);
    let serial = Parallelism::Serial
        .install(|| run_leakage(&grid, &leakage, &options))
        .unwrap()
        .unwrap();
    let parallel = Parallelism::Threads(3)
        .install(|| run_leakage(&grid, &leakage, &options))
        .unwrap()
        .unwrap();
    assert_eq!(serial.mean, parallel.mean);
    assert_eq!(serial.variance, parallel.variance);

    // The special case's N + 1 solves are deterministic, so serial and
    // parallel coefficient sets must coincide exactly too.
    let sc_options = SpecialCaseOptions::order2(topts);
    let sc_serial = Parallelism::Serial
        .install(|| solve_leakage(&grid, &leakage, &sc_options))
        .unwrap()
        .unwrap();
    let sc_parallel = Parallelism::Threads(3)
        .install(|| solve_leakage(&grid, &leakage, &sc_options))
        .unwrap()
        .unwrap();
    let (node, k, _) = sc_serial.worst_mean_drop(grid.vdd());
    assert_eq!(sc_serial.mean_at(k, node), sc_parallel.mean_at(k, node));
    assert_eq!(
        sc_serial.std_dev_at(k, node),
        sc_parallel.std_dev_at(k, node)
    );
}

#[test]
fn parallel_monte_carlo_speeds_up_on_multicore_machines() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let grid = GridSpec::small_test(220).with_seed(3).build().unwrap();
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
    let options = MonteCarloOptions::new(32, 7, TransientOptions::new(0.1e-9, 2.0e-9));

    let t0 = Instant::now();
    let serial = Parallelism::Serial
        .install(|| run_monte_carlo(&model, &options))
        .unwrap()
        .unwrap();
    let serial_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let parallel = Parallelism::Max
        .install(|| run_monte_carlo(&model, &options))
        .unwrap()
        .unwrap();
    let parallel_secs = t1.elapsed().as_secs_f64();

    assert_eq!(serial.mean, parallel.mean);
    let ratio = serial_secs / parallel_secs.max(1e-9);
    println!(
        "monte carlo wall-clock: serial {serial_secs:.3}s, \
         parallel({cores} cores) {parallel_secs:.3}s, speedup {ratio:.2}x"
    );
    // Only assert a real speedup where one is physically possible; wall-clock
    // thresholds on loaded single-core CI boxes would be noise.
    if cores >= 4 {
        assert!(
            ratio > 1.3,
            "expected parallel Monte Carlo to be faster on {cores} cores \
             (serial {serial_secs:.3}s vs parallel {parallel_secs:.3}s)"
        );
    }
}
