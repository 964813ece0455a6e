//! `perf_report` — the hot-path performance trajectory of the OPERA engine.
//!
//! Times the assemble/factor/step phases of the Galerkin transient across
//! chaos orders, measures the blocked multi-RHS panel engine against the
//! per-column reference path, benchmarks the fill-reducing orderings on the
//! paper grid and the netlist fixtures, compares fixed-step TR-BDF2 against
//! the LTE-driven adaptive controller on the same grid (step counts, wall
//! time, and the one-symbolic-analysis refactorisation contract), compares
//! the scalar reference kernels against the best runtime-detected SIMD
//! backend (panel transient solve, triangular panel solves, the Welford
//! moment fold — each pair verified bit-identical before its speedup is
//! reported), sweeps worker-thread counts (proving the statistics stay
//! bit-identical), and emits the results as a schema-validated
//! `BENCH_<pr>.json` at the repo root — one point of the perf trajectory
//! future PRs append to.
//!
//! The binary runs with [`opera_trace`] enabled: the per-phase timings of
//! the `phases[]` section are the drained span totals of the engine's own
//! instrumentation (`galerkin.assemble`, `solver.prepare`,
//! `transient.stepping`), not separate stopwatches, so the trajectory file
//! and an exported trace can never disagree about what was measured. The
//! full span/counter record of the run can be exported as a Chrome
//! trace-event JSON (`chrome://tracing`, Perfetto) with `--trace` or the
//! `OPERA_TRACE` environment variable; see `docs/OBSERVABILITY.md`.
//!
//! ```text
//! perf_report                        # run the benchmarks, write BENCH_10.json
//! perf_report --trace FILE           # also export the Chrome trace of the run
//! perf_report --validate FILE        # re-validate an emitted trajectory file
//! perf_report --validate-trace FILE  # schema-check an exported Chrome trace
//! ```
//!
//! Tuning environment variables (see `docs/PERFORMANCE.md`):
//!
//! * `OPERA_BENCH_SCALE` — fraction of the paper's node counts (default
//!   `0.05`; the committed `BENCH_6.json` was generated at `1.0`),
//! * `OPERA_BENCH_MC_SAMPLES` — Monte Carlo samples of the thread sweep,
//! * `OPERA_BENCH_THREADS` — ignored for the sweep itself (it always runs
//!   1/2/8, marking counts beyond the machine's cores `degraded`), but
//!   validated like the other report binaries,
//! * `OPERA_BENCH_PERF_MAX_ORDER` — highest chaos order of the phase sweep
//!   (default `2`),
//! * `OPERA_BENCH_PERF_OUTPUT` — output path (default `BENCH_10.json`),
//! * `OPERA_SIMD` — the process-wide kernel backend; the `simd[]` sweep
//!   overrides it per timed side and restores the scalar default after,
//! * `OPERA_TRACE` — when set, export the run's Chrome trace to this path
//!   (same as `--trace`).

use std::time::Instant;

use opera::engine::{McConfig, OperaEngine, Scenario};
use opera::solver::{DirectCholesky, SolverBackend};
use opera::transient::{integrate_fixed_step, TransientOptions};
use opera::{OperaError, Parallelism};
use opera_bench::json::Json;
use opera_bench::perf::{validate_text, PERF_SCHEMA};
use opera_bench::trace_export::{chrome_trace, validate_chrome_trace, CHROME_TRACE_SCHEMA};
use opera_grid::GridSpec;
use opera_pce::OrthogonalBasis;
use opera_sparse::{CholeskyFactor, CsrMatrix, OrderingChoice, SolveWorkspace, SymbolicCholesky};
use opera_trace::TraceSnapshot;
use opera_variation::{LeakageModel, StochasticGridModel, VariationSpec};

/// PR number of the trajectory point this binary emits.
const PR_NUMBER: usize = 10;
/// Thread counts of the invariance sweep.
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

fn main() {
    if let Err(err) = run() {
        eprintln!("perf_report: {err}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--validate" {
        let text = std::fs::read_to_string(&args[2])
            .map_err(|e| format!("cannot read {}: {e}", args[2]))?;
        validate_text(&text)?;
        println!("{}: valid {PERF_SCHEMA} trajectory point", args[2]);
        return Ok(());
    }
    if args.len() == 3 && args[1] == "--validate-trace" {
        let text = std::fs::read_to_string(&args[2])
            .map_err(|e| format!("cannot read {}: {e}", args[2]))?;
        let summary = validate_chrome_trace(&opera_bench::json::parse(&text)?)?;
        println!(
            "{}: valid {CHROME_TRACE_SCHEMA} trace ({} spans, {} instants, {} counters)",
            args[2], summary.complete_events, summary.instant_events, summary.counter_events
        );
        return Ok(());
    }
    let trace_output = match args.as_slice() {
        [_] => None,
        [_, flag, path] if flag == "--trace" => Some(path.clone()),
        _ => {
            return Err(
                "usage: perf_report [--trace FILE | --validate FILE | --validate-trace FILE]"
                    .to_string(),
            )
        }
    };
    let trace_output = trace_output.or_else(|| std::env::var("OPERA_TRACE").ok());

    // Honour (and validate) the shared environment knobs.
    opera_bench::parallelism_from_env()?;
    let scale = opera_bench::scale_from_env();
    let mc_samples = opera_bench::mc_samples_from_env();
    let max_order = max_order_from_env();
    let output = std::env::var("OPERA_BENCH_PERF_OUTPUT")
        .unwrap_or_else(|_| format!("BENCH_{PR_NUMBER}.json"));

    // The whole run is traced: the phase timings below are read back out of
    // the drained spans, and the merged snapshot can be exported at the end.
    opera_trace::reset();
    opera_trace::enable();
    let mut trace = TraceSnapshot::default();

    // The pool records its own width gauges from inside `install`; priming an
    // empty install here means `threads_available` in the report is what the
    // pool actually saw, not a separately computed number.
    Parallelism::Max.install(|| ()).map_err(err)?;
    trace.merge(opera_trace::drain());
    let threads_available = trace
        .gauge("threads.available")
        .ok_or("thread pool did not record the threads.available gauge")?
        as usize;
    println!("== OPERA perf trajectory (PR {PR_NUMBER}) ==");
    println!(
        "scale = {scale}, mc_samples = {mc_samples}, max_order = {max_order}, \
         threads available on this machine = {threads_available}\n"
    );

    let grid = GridSpec::paper_grid(0)
        .map_err(|e| e.to_string())?
        .scaled_nodes(scale)
        .build()
        .map_err(|e| e.to_string())?;
    let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults())
        .map_err(|e| e.to_string())?;
    println!("paper grid 0 at scale {scale}: {} nodes", grid.node_count());

    let phases = phase_sweep(&model, max_order, &mut trace)?;
    let multi_rhs = multi_rhs_sweep(&grid)?;
    let orderings = ordering_sweep(&grid)?;
    let adaptive = adaptive_sweep(&grid, max_order)?;
    let (simd, simd_backend) = simd_sweep(&grid)?;
    trace.merge(opera_trace::drain());
    let (threads, allocations) = thread_sweep(&grid, mc_samples, threads_available)?;
    trace.merge(opera_trace::drain());

    let report = Json::Obj(vec![
        ("schema".to_string(), Json::str(PERF_SCHEMA)),
        ("pr".to_string(), Json::Num(PR_NUMBER as f64)),
        ("scale".to_string(), Json::Num(scale)),
        ("mc_samples".to_string(), Json::Num(mc_samples as f64)),
        (
            "threads_available".to_string(),
            Json::Num(threads_available as f64),
        ),
        (
            "default_ordering".to_string(),
            Json::str(ordering_name(OrderingChoice::default())),
        ),
        (
            "steady_state_step_allocations".to_string(),
            Json::Num(allocations as f64),
        ),
        ("phases".to_string(), Json::Arr(phases)),
        ("galerkin_multi_rhs".to_string(), Json::Arr(multi_rhs)),
        ("orderings".to_string(), Json::Arr(orderings)),
        ("adaptive".to_string(), Json::Arr(adaptive)),
        ("simd".to_string(), Json::Arr(simd)),
        ("simd_backend_detected".to_string(), Json::str(simd_backend)),
        ("threads".to_string(), Json::Arr(threads)),
    ]);
    let text = report.to_pretty();
    validate_text(&text)?;
    std::fs::write(&output, &text).map_err(|e| format!("cannot write {output}: {e}"))?;
    println!("\nwrote {output} (validated against {PERF_SCHEMA})");

    if let Some(path) = trace_output {
        let doc = chrome_trace(&trace);
        let trace_text = doc.to_pretty();
        // Round-trip through the parser and the schema check before writing,
        // so an exported file is valid by construction.
        let summary = validate_chrome_trace(&opera_bench::json::parse(&trace_text)?)?;
        std::fs::write(&path, &trace_text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "wrote {path} ({} spans, {} instants, {} counters; validated against \
             {CHROME_TRACE_SCHEMA})",
            summary.complete_events, summary.instant_events, summary.counter_events
        );
        println!("\n{}", trace.text_report());
    }
    Ok(())
}

fn err(e: OperaError) -> String {
    e.to_string()
}

fn max_order_from_env() -> u32 {
    std::env::var("OPERA_BENCH_PERF_MAX_ORDER")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&o| o >= 1)
        .unwrap_or(2)
}

/// Phase timings of the augmented Galerkin transient: assemble, prepare
/// (symbolic + numeric factorisation) and the per-step solve cost, per chaos
/// order.
///
/// The timings are not separate stopwatches: each order's numbers are the
/// drained totals of the `galerkin.assemble`, `solver.prepare` and
/// `transient.stepping` spans the engine code records about itself, and the
/// step count is the `transient.steps` counter. The same spans are merged
/// into `master` for the exported trace, so the trajectory file is a derived
/// view of the trace by construction.
fn phase_sweep(
    model: &StochasticGridModel,
    max_order: u32,
    master: &mut TraceSnapshot,
) -> Result<Vec<Json>, String> {
    println!("-- phases: assemble / factor / step, orders 1..={max_order}");
    let grid = model.grid();
    let transient = TransientOptions::new(0.05e-9, grid.waveform_end_time().max(0.05e-9));
    let mut entries = Vec::new();
    for order in 1..=max_order {
        let basis = OrthogonalBasis::total_order_mixed(model.families(), model.n_vars(), order)
            .map_err(|e| e.to_string())?;
        // Flush whatever earlier work left in the sink so this order's drain
        // holds exactly its own spans.
        master.merge(opera_trace::drain());
        let system = opera::galerkin::GalerkinSystem::assemble(model, &basis).map_err(err)?;
        let prepared = DirectCholesky
            .prepare(model, &system, &transient)
            .map_err(err)?;

        // The transient hot loop (DC start + fixed steps, double-buffered
        // state, one warm workspace) without any output: the shared
        // fixed-step loop with a one-column panel and a no-op sink.
        let dim = system.dim();
        let times = transient.time_points();
        integrate_fixed_step(
            prepared.as_ref(),
            transient.method,
            &times,
            (dim, 1),
            &mut SolveWorkspace::with_capacity(dim),
            |t, u| {
                u.data_mut().copy_from_slice(&system.excitation(model, t));
                Ok(())
            },
            |_, _| {},
        )
        .map_err(err)?;

        let snapshot = opera_trace::drain();
        let assemble_seconds = snapshot.total_seconds("galerkin.assemble");
        let prepare_seconds = snapshot.total_seconds("solver.prepare");
        let step_seconds_total = snapshot.total_seconds("transient.stepping");
        let steps = snapshot.counter("transient.steps") as usize;
        master.merge(snapshot);
        if steps != times.len() - 1 {
            return Err(format!(
                "transient.steps counted {steps} steps, the time grid has {}",
                times.len() - 1
            ));
        }
        let seconds_per_step = step_seconds_total / steps as f64;
        println!(
            "order {order}: dim = {dim}, assemble = {assemble_seconds:.3}s, \
             prepare = {prepare_seconds:.3}s, {steps} steps in {step_seconds_total:.3}s \
             ({:.2}ms/step)",
            seconds_per_step * 1e3
        );
        entries.push(Json::Obj(vec![
            ("nodes".to_string(), Json::Num(grid.node_count() as f64)),
            ("order".to_string(), Json::Num(order as f64)),
            ("basis_size".to_string(), Json::Num(basis.len() as f64)),
            ("dim".to_string(), Json::Num(dim as f64)),
            ("assemble_seconds".to_string(), Json::Num(assemble_seconds)),
            ("prepare_seconds".to_string(), Json::Num(prepare_seconds)),
            ("steps".to_string(), Json::Num(steps as f64)),
            (
                "step_seconds_total".to_string(),
                Json::Num(step_seconds_total),
            ),
            ("seconds_per_step".to_string(), Json::Num(seconds_per_step)),
        ]));
    }
    Ok(entries)
}

/// The acceptance measurement: the P-column Galerkin transient *solve phase*
/// (all chaos-coefficient excitation columns share one already-computed
/// factorisation), panel engine vs the pre-PR per-column path. Both paths
/// run single-threaded on the same factors, so the numbers isolate the
/// blocked-kernel effect — the identical shared factorisation is excluded
/// from both sides, exactly as `docs/PERFORMANCE.md` documents. The two
/// paths are verified bit-identical before their timings are reported.
fn multi_rhs_sweep(grid: &opera_grid::PowerGrid) -> Result<Vec<Json>, String> {
    use opera::transient::{CompanionSystem, IntegrationMethod};
    use opera_pce::GalerkinCoupling;
    use opera_sparse::{MatrixFactor, Panel};

    println!("-- galerkin_multi_rhs: panel vs per-column solve phase (serial, bit-identical)");
    let leakage = LeakageModel::uniform_slices(grid.node_count(), 2, 3.0e-5, 0.04, 23.0)
        .map_err(|e| e.to_string())?;
    let n = grid.node_count();
    let transient = TransientOptions::new(0.05e-9, grid.waveform_end_time().max(0.05e-9));
    let times = transient.time_points();
    let steps = times.len() - 1;

    // One shared factorisation pair (identical for both paths, not timed).
    let g = grid.conductance_matrix();
    let c = grid.capacitance_matrix();
    let dc = MatrixFactor::cholesky_or_lu(&g).map_err(|e| e.to_string())?;
    let companion = CompanionSystem::new(
        &g,
        &c,
        transient.time_step,
        IntegrationMethod::BackwardEuler,
    )
    .map_err(err)?;

    let mut entries = Vec::new();
    for order in [2u32, 3] {
        let basis =
            OrthogonalBasis::total_order_mixed(leakage.families(), leakage.region_count(), order)
                .map_err(|e| e.to_string())?;
        let coupling = GalerkinCoupling::new(&basis).map_err(|e| e.to_string())?;
        let injections = leakage
            .projected_injections(&basis, &coupling)
            .map_err(|e| e.to_string())?;
        let size = basis.len();
        // Right-hand side for coefficient j at time t (the special case's
        // Eq. 27 columns).
        let rhs_at = |j: usize, t: f64| -> Vec<f64> {
            if j == 0 {
                let mut u = grid.excitation(t);
                for (u_n, inj) in u.iter_mut().zip(&injections[0]) {
                    *u_n -= inj;
                }
                u
            } else {
                injections[j].iter().map(|&inj| -inj).collect()
            }
        };

        // --- Pre-PR per-column path: one scalar solve per column per step,
        // allocating a fresh state and workspace per step.
        let per_column = || -> opera::Result<Vec<Vec<f64>>> {
            let mut finals = Vec::with_capacity(size);
            for j in 0..size {
                let u0 = rhs_at(j, 0.0);
                let mut state = dc.solve(&u0);
                let mut u_prev = u0;
                for &t in &times[1..] {
                    let u_next = rhs_at(j, t);
                    let mut next = vec![0.0; n];
                    companion.step_into(
                        &state,
                        &u_prev,
                        &u_next,
                        &mut next,
                        &mut SolveWorkspace::new(),
                    );
                    state = next;
                    u_prev = u_next;
                }
                finals.push(state);
            }
            Ok(finals)
        };

        // --- Panel path: all P columns advance through one blocked
        // multi-RHS solve per step, double-buffered, workspace-reused.
        let panel = || -> opera::Result<Vec<Vec<f64>>> {
            let mut ws = SolveWorkspace::with_capacity(n * size);
            let mut u_prev = Panel::zeros(n, size);
            for j in 0..size {
                u_prev.col_mut(j).copy_from_slice(&rhs_at(j, 0.0));
            }
            let mut state = Panel::zeros(n, size);
            state.data_mut().copy_from_slice(u_prev.data());
            dc.solve_panel(&mut state, &mut ws);
            let mut u_next = u_prev.clone();
            let mut next = Panel::zeros(n, size);
            for &t in &times[1..] {
                u_next.col_mut(0).copy_from_slice(&rhs_at(0, t));
                companion.step_panel_into(&state, &u_prev, &u_next, &mut next, &mut ws);
                std::mem::swap(&mut state, &mut next);
                std::mem::swap(&mut u_prev, &mut u_next);
            }
            Ok(state.into_columns())
        };

        let (panel_finals, panel_seconds) = Parallelism::Serial
            .install(|| best_of(3, panel))
            .map_err(err)??;
        let (column_finals, per_column_seconds) = Parallelism::Serial
            .install(|| best_of(3, per_column))
            .map_err(err)??;
        // Honesty check: the timed paths must produce bit-identical states,
        // otherwise the speedup compares different work.
        if panel_finals != column_finals {
            return Err(format!(
                "panel and per-column paths diverge at order {order}"
            ));
        }
        let speedup = per_column_seconds / panel_seconds;
        println!(
            "P = {size} columns: per-column = {per_column_seconds:.3}s, \
             panel = {panel_seconds:.3}s, speedup = {speedup:.2}x"
        );
        entries.push(Json::Obj(vec![
            ("nodes".to_string(), Json::Num(n as f64)),
            ("columns".to_string(), Json::Num(size as f64)),
            ("steps".to_string(), Json::Num(steps as f64)),
            (
                "per_column_seconds".to_string(),
                Json::Num(per_column_seconds),
            ),
            ("panel_seconds".to_string(), Json::Num(panel_seconds)),
            ("speedup".to_string(), Json::Num(speedup)),
        ]));
    }
    Ok(entries)
}

/// Times `f` a few times and returns its result with the fastest wall clock.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> opera::Result<T>) -> Result<(T, f64), String> {
    let mut best: Option<(T, f64)> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let value = f().map_err(err)?;
        let seconds = t0.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, b)| seconds < *b) {
            best = Some((value, seconds));
        }
    }
    Ok(best.expect("reps >= 1"))
}

/// Stable trajectory-file name of an ordering choice.
fn ordering_name(choice: OrderingChoice) -> &'static str {
    match choice {
        OrderingChoice::Natural => "natural",
        OrderingChoice::ReverseCuthillMckee => "rcm",
        OrderingChoice::MinimumDegree => "minimum-degree",
        OrderingChoice::ApproximateMinimumDegree => "amd",
    }
}

/// RCM vs exact minimum degree vs AMD on the paper-grid companion matrix and
/// the netlist fixtures — the numbers behind the `OrderingChoice` default.
fn ordering_sweep(grid: &opera_grid::PowerGrid) -> Result<Vec<Json>, String> {
    println!("-- orderings: RCM vs minimum degree vs AMD");
    let companion = |g: &CsrMatrix, c: &CsrMatrix| -> Result<CsrMatrix, String> {
        g.add_scaled(&c.scaled(1.0 / 0.05e-9), 1.0)
            .map_err(|e| e.to_string())
    };
    let mut matrices: Vec<(String, CsrMatrix)> = vec![(
        "paper_grid_companion".to_string(),
        companion(&grid.conductance_matrix(), &grid.capacitance_matrix())?,
    )];
    let fixtures_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
    for fixture in ["ibmpg_style.sp", "docs_chain.sp"] {
        let lowered =
            opera_netlist::load(format!("{fixtures_dir}/{fixture}")).map_err(|e| e.to_string())?;
        matrices.push((
            format!("netlist_{fixture}"),
            companion(
                &lowered.grid.conductance_matrix(),
                &lowered.grid.capacitance_matrix(),
            )?,
        ));
    }

    let mut entries = Vec::new();
    for (label, matrix) in &matrices {
        for choice in [
            OrderingChoice::ReverseCuthillMckee,
            OrderingChoice::MinimumDegree,
            OrderingChoice::ApproximateMinimumDegree,
        ] {
            let name = ordering_name(choice);
            let t0 = Instant::now();
            let symbolic =
                SymbolicCholesky::analyze_with(matrix, choice).map_err(|e| e.to_string())?;
            let analyze_seconds = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let factor: CholeskyFactor =
                symbolic.factor_numeric(matrix).map_err(|e| e.to_string())?;
            let numeric_seconds = t1.elapsed().as_secs_f64();
            let n = matrix.nrows();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut ws = SolveWorkspace::with_capacity(n);
            let mut x = b.clone();
            factor.solve_in_place(&mut x, &mut ws); // warm the workspace
            let reps = 20;
            let t2 = Instant::now();
            for _ in 0..reps {
                x.copy_from_slice(&b);
                factor.solve_in_place(&mut x, &mut ws);
            }
            let solve_milliseconds = t2.elapsed().as_secs_f64() * 1e3 / reps as f64;
            println!(
                "{label} / {name}: n = {n}, nnz_l = {}, analyze = {analyze_seconds:.3}s, \
                 numeric = {numeric_seconds:.3}s, solve = {solve_milliseconds:.3}ms",
                factor.nnz_l()
            );
            entries.push(Json::Obj(vec![
                ("matrix".to_string(), Json::str(label.clone())),
                ("ordering".to_string(), Json::str(name)),
                ("n".to_string(), Json::Num(n as f64)),
                ("nnz_l".to_string(), Json::Num(factor.nnz_l() as f64)),
                ("analyze_seconds".to_string(), Json::Num(analyze_seconds)),
                ("numeric_seconds".to_string(), Json::Num(numeric_seconds)),
                (
                    "solve_milliseconds".to_string(),
                    Json::Num(solve_milliseconds),
                ),
            ]));
        }
    }
    Ok(entries)
}

/// Fixed-step TR-BDF2 vs the LTE-driven adaptive controller on the paper
/// grid's augmented Galerkin transient, per chaos order: the
/// adaptive-vs-fixed phase of the trajectory (`docs/TRANSIENT.md`). The
/// fixed baseline runs the same scheme on the deck grid through its own
/// engine (exactly the pre-adaptive behaviour); the adaptive run reports
/// the controller's `AdaptiveStats`, and the schema validator re-asserts
/// the `symbolic_analyses == 1` contract — step-size changes refactor
/// numerically through the `CompanionFamily`, they never re-analyze.
fn adaptive_sweep(grid: &opera_grid::PowerGrid, max_order: u32) -> Result<Vec<Json>, String> {
    use opera::adaptive::AdaptiveOptions;
    use opera::transient::IntegrationMethod;

    println!("-- adaptive: fixed TR-BDF2 vs the LTE controller, orders 1..={max_order}");
    let mut entries = Vec::new();
    for order in 1..=max_order {
        let fixed_engine = OperaEngine::for_grid(paper_spec_of(grid)?)
            .map_err(err)?
            .variation(VariationSpec::paper_defaults())
            .order(order)
            .integration_method(IntegrationMethod::TrBdf2)
            .build()
            .map_err(err)?;
        let fixed_steps = fixed_engine.transient().time_points().len() - 1;
        let (_, fixed_seconds) = best_of(1, || fixed_engine.solve())?;

        // docs/TRANSIENT.md §5: `abs_tol` is the noise floor — a millionth
        // of the supply is where we stop caring about a chaos coefficient.
        let mut options = AdaptiveOptions::with_rel_tol(1e-4);
        options.abs_tol = 1e-6 * grid.vdd();
        let adaptive_engine = OperaEngine::for_grid(paper_spec_of(grid)?)
            .map_err(err)?
            .variation(VariationSpec::paper_defaults())
            .order(order)
            .adaptive(options)
            .build()
            .map_err(err)?;
        let adaptive_options = adaptive_engine
            .adaptive_options()
            .ok_or("adaptive engine lost its options")?;
        let t0 = Instant::now();
        let (_, stats) = adaptive_engine
            .solve_scenario_adaptive(&Scenario::default(), adaptive_options)
            .map_err(err)?;
        let adaptive_seconds = t0.elapsed().as_secs_f64();
        let step_ratio = fixed_steps as f64 / stats.steps_accepted.max(1) as f64;
        println!(
            "order {order}: fixed = {fixed_steps} steps in {fixed_seconds:.3}s, adaptive = {} \
             accepted (+{} rejected) in {adaptive_seconds:.3}s, {} numeric refactorisations on \
             {} symbolic analysis, step ratio = {step_ratio:.2}x",
            stats.steps_accepted,
            stats.steps_rejected,
            stats.refactorizations,
            stats.symbolic_analyses
        );
        entries.push(Json::Obj(vec![
            ("nodes".to_string(), Json::Num(grid.node_count() as f64)),
            ("order".to_string(), Json::Num(order as f64)),
            ("fixed_steps".to_string(), Json::Num(fixed_steps as f64)),
            ("fixed_seconds".to_string(), Json::Num(fixed_seconds)),
            (
                "adaptive_steps_accepted".to_string(),
                Json::Num(stats.steps_accepted as f64),
            ),
            (
                "adaptive_steps_rejected".to_string(),
                Json::Num(stats.steps_rejected as f64),
            ),
            ("adaptive_seconds".to_string(), Json::Num(adaptive_seconds)),
            (
                "refactorizations".to_string(),
                Json::Num(stats.refactorizations as f64),
            ),
            (
                "symbolic_analyses".to_string(),
                Json::Num(stats.symbolic_analyses as f64),
            ),
            ("step_ratio".to_string(), Json::Num(step_ratio)),
        ]));
    }
    Ok(entries)
}

/// Scalar vs best-detected-SIMD-backend comparison of the vectorized hot
/// kernels, all serial so the numbers isolate the vector-width effect:
///
/// * `panel_transient_solve` — the headline: a full 8-RHS panel transient
///   on the paper grid (DC start plus every fixed step through the blocked
///   panel kernels), timed once with the scalar reference active and once
///   with the best backend `detect_best` finds;
/// * `triangular_panel_solve` — repeated 8-wide forward/backward panel
///   substitutions on one Cholesky factor, the interleaved kernels in
///   isolation;
/// * `welford_fold` — the Monte Carlo running-moment update over
///   node-count-long rows.
///
/// Every pair is verified **bit-identical** before its speedup is reported
/// (the zero-ULP equivalence policy of `docs/SIMD.md`), and the scalar
/// default is restored afterwards so the rest of the run measures the
/// documented baseline.
fn simd_sweep(grid: &opera_grid::PowerGrid) -> Result<(Vec<Json>, &'static str), String> {
    use opera::transient::{CompanionSystem, IntegrationMethod};
    use opera_simd::{Backend, LANES};
    use opera_sparse::{MatrixFactor, Panel};

    let best = opera_simd::detect_best();
    println!("-- simd: scalar vs {best} kernels (serial, bit-identical)");

    let n = grid.node_count();
    let g = grid.conductance_matrix();
    let c = grid.capacitance_matrix();
    let transient = TransientOptions::new(0.05e-9, grid.waveform_end_time().max(0.05e-9));
    let times = transient.time_points();
    let dc = MatrixFactor::cholesky_or_lu(&g).map_err(|e| e.to_string())?;
    let companion = CompanionSystem::new(
        &g,
        &c,
        transient.time_step,
        IntegrationMethod::BackwardEuler,
    )
    .map_err(err)?;

    let k = LANES;
    // Per-column excitation: the waveform rescaled per RHS, so all 8 lanes
    // carry distinct data.
    let rhs_at = |j: usize, t: f64| -> Vec<f64> {
        let mut u = grid.excitation(t);
        for (i, v) in u.iter_mut().enumerate() {
            *v *= 0.6 + 0.1 * ((i + j) % 5) as f64;
        }
        u
    };

    // Headline: the full k-wide panel transient solve.
    let panel_transient = || -> opera::Result<Panel> {
        let mut ws = SolveWorkspace::with_capacity(n * k);
        let mut u_prev = Panel::zeros(n, k);
        for j in 0..k {
            u_prev.col_mut(j).copy_from_slice(&rhs_at(j, 0.0));
        }
        let mut state = Panel::zeros(n, k);
        state.data_mut().copy_from_slice(u_prev.data());
        dc.solve_panel(&mut state, &mut ws);
        let mut u_next = u_prev.clone();
        let mut next = Panel::zeros(n, k);
        for &t in &times[1..] {
            for j in 0..k {
                u_next.col_mut(j).copy_from_slice(&rhs_at(j, t));
            }
            companion.step_panel_into(&state, &u_prev, &u_next, &mut next, &mut ws);
            std::mem::swap(&mut state, &mut next);
            std::mem::swap(&mut u_prev, &mut u_next);
        }
        Ok(state)
    };

    // The interleaved triangular kernels in isolation.
    let solve_reps = 20;
    let triangular = || -> opera::Result<Panel> {
        let mut ws = SolveWorkspace::with_capacity(n * k);
        let mut panel = Panel::zeros(n, k);
        for _ in 0..solve_reps {
            for j in 0..k {
                panel.col_mut(j).copy_from_slice(&rhs_at(j, 0.0));
            }
            dc.solve_panel(&mut panel, &mut ws);
        }
        Ok(panel)
    };

    // The Welford moment fold over node-count-long sample rows.
    let samples: Vec<Vec<f64>> = (0..8)
        .map(|s| {
            (0..n)
                .map(|i| (((i * 13 + s * 7) % 101) as f64).mul_add(0.02, -1.0))
                .collect()
        })
        .collect();
    let welford_reps = 400;
    let welford = |backend: Backend| -> (Vec<f64>, Vec<f64>) {
        let mut mean = vec![0.0; n];
        let mut m2 = vec![0.0; n];
        for r in 0..welford_reps {
            let sample = &samples[r % samples.len()];
            opera_simd::welford_update(&mut mean, &mut m2, sample, (r + 1) as f64, backend);
        }
        (mean, m2)
    };

    let timed_under = |backend: Backend,
                       f: &mut dyn FnMut() -> opera::Result<Panel>|
     -> Result<(Panel, f64), String> {
        opera_simd::set_active(backend)?;
        let out = Parallelism::Serial
            .install(|| best_of(3, f))
            .map_err(err)??;
        opera_simd::set_active(Backend::Scalar)?;
        Ok(out)
    };
    let bits_equal = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };

    let mut entries = Vec::new();
    let mut push = |kernel: &str, scalar_seconds: f64, simd_seconds: f64| {
        let speedup = scalar_seconds / simd_seconds;
        println!(
            "{kernel}: scalar = {scalar_seconds:.3}s, {best} = {simd_seconds:.3}s, \
             speedup = {speedup:.2}x"
        );
        entries.push(Json::Obj(vec![
            ("kernel".to_string(), Json::str(kernel)),
            ("backend".to_string(), Json::str(best.name())),
            ("scalar_seconds".to_string(), Json::Num(scalar_seconds)),
            ("simd_seconds".to_string(), Json::Num(simd_seconds)),
            ("speedup".to_string(), Json::Num(speedup)),
        ]));
    };

    let mut kernel = panel_transient;
    let (scalar_panel, scalar_seconds) = timed_under(Backend::Scalar, &mut kernel)?;
    let (simd_panel, simd_seconds) = timed_under(best, &mut kernel)?;
    if !bits_equal(scalar_panel.data(), simd_panel.data()) {
        return Err("panel_transient_solve: scalar and SIMD states diverge".to_string());
    }
    push("panel_transient_solve", scalar_seconds, simd_seconds);

    let mut kernel = triangular;
    let (scalar_tri, scalar_seconds) = timed_under(Backend::Scalar, &mut kernel)?;
    let (simd_tri, simd_seconds) = timed_under(best, &mut kernel)?;
    if !bits_equal(scalar_tri.data(), simd_tri.data()) {
        return Err("triangular_panel_solve: scalar and SIMD solutions diverge".to_string());
    }
    push("triangular_panel_solve", scalar_seconds, simd_seconds);

    let ((scalar_mean, scalar_m2), scalar_seconds) = best_of(3, || Ok(welford(Backend::Scalar)))?;
    let ((simd_mean, simd_m2), simd_seconds) = best_of(3, || Ok(welford(best)))?;
    if !bits_equal(&scalar_mean, &simd_mean) || !bits_equal(&scalar_m2, &simd_m2) {
        return Err("welford_fold: scalar and SIMD moments diverge".to_string());
    }
    push("welford_fold", scalar_seconds, simd_seconds);

    Ok((entries, best.name()))
}

/// Worker-thread sweep over one prepared engine: Monte Carlo validation and
/// a panel-batched scenario sweep at 1/2/8 threads, with a statistics
/// checksum that must be bit-identical across all settings (enforced again
/// by the schema validator). Counts beyond the machine's physical worker
/// pool cannot measure real scaling, so those entries are marked
/// `degraded: true` — they still feed the determinism proof, but their
/// timings must never be read as parallel speedups. Also reports the
/// engine's allocation-counter hook for the steady-state transient step.
fn thread_sweep(
    grid: &opera_grid::PowerGrid,
    mc_samples: usize,
    threads_available: usize,
) -> Result<(Vec<Json>, usize), String> {
    println!(
        "-- threads: 1/2/8 sweep over one prepared engine \
         ({threads_available} available; oversubscribed entries marked degraded)"
    );
    let mut engine = OperaEngine::for_grid(paper_spec_of(grid)?)
        .map_err(err)?
        .variation(VariationSpec::paper_defaults())
        .order(2)
        .mc_samples(mc_samples.clamp(4, 50))
        .mc_seed(7)
        .build()
        .map_err(err)?;
    let allocations = engine.steady_state_step_allocations().map_err(err)?;
    println!("steady-state allocations per transient step: {allocations}");

    let scenarios: Vec<Scenario> = [0.8, 1.0, 1.25, 1.5]
        .iter()
        .map(|&s| {
            Scenario::named(format!("sweep-{s}"))
                .with_current_scale(s)
                .with_mc_samples(mc_samples.clamp(4, 20))
        })
        .collect();

    let mut entries = Vec::new();
    for threads in THREAD_SWEEP {
        engine.set_parallelism(Parallelism::Threads(threads));
        let t0 = Instant::now();
        let mc = engine
            .monte_carlo(&McConfig::new(mc_samples, 11))
            .map_err(err)?;
        let mc_seconds = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let reports = engine.run_batch(&scenarios).map_err(err)?;
        let batch_seconds = t1.elapsed().as_secs_f64();
        // Fold a deterministic checksum over the statistics: MC means and
        // variances plus each scenario's accuracy numbers, all accumulated
        // in fixed order.
        let mut checksum = 0.0f64;
        for row in mc.mean.iter().chain(mc.variance.iter()) {
            for &v in row {
                checksum += v;
            }
        }
        for report in &reports {
            checksum += report.report.errors.avg_mean_error_percent;
            checksum += report.report.opera.worst_mean_drop;
        }
        let degraded = threads > threads_available;
        if degraded {
            // The exported trace names the reason alongside the JSON flag, so
            // a trace viewed on its own still explains the useless timing.
            opera_trace::event(
                "threads.degraded",
                &format!(
                    "{threads} workers requested, {threads_available} available: \
                     oversubscribed timings are not speedups"
                ),
            );
        }
        println!(
            "{threads} threads: mc = {mc_seconds:.3}s, batch = {batch_seconds:.3}s, \
             checksum = {checksum:.6e}{}",
            if degraded {
                " [degraded: oversubscribed]"
            } else {
                ""
            }
        );
        let mut entry = vec![
            ("threads".to_string(), Json::Num(threads as f64)),
            ("mc_seconds".to_string(), Json::Num(mc_seconds)),
            ("batch_seconds".to_string(), Json::Num(batch_seconds)),
            ("stat_checksum".to_string(), Json::Num(checksum)),
        ];
        if degraded {
            entry.push(("degraded".to_string(), Json::Bool(true)));
        }
        entries.push(Json::Obj(entry));
    }
    Ok((entries, allocations))
}

/// Rebuilds a `GridSpec` matching the already-built benchmark grid (the
/// engine builder wants a spec, and grid generation is deterministic).
fn paper_spec_of(grid: &opera_grid::PowerGrid) -> Result<GridSpec, String> {
    let scale = opera_bench::scale_from_env();
    let spec = GridSpec::paper_grid(0)
        .map_err(|e| e.to_string())?
        .scaled_nodes(scale);
    let rebuilt = spec.build().map_err(|e| e.to_string())?;
    if rebuilt.node_count() != grid.node_count() {
        return Err("grid spec reconstruction diverged".to_string());
    }
    Ok(spec)
}
