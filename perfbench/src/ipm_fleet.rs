//! `ipm_fleet`: the condensed-KKT interior-point fleet on the engine with
//! the solution store.
//!
//! One round runs two seeded perturbed-load sweeps of the 300-bus
//! 1354pegase stand-in on one sequential device with one lane per
//! scenario. The cold sweep runs against an empty store; the warm sweep,
//! drawn with a different seed, runs out of the store the cold sweep
//! filled. Every round starts from an empty store and repeats the same two
//! sweeps.

use crate::checker::{certify, exceeds, Point};
use crate::trace::Tracer;
use crate::{run_rounds, stats, timed_setups, Ctx, Outcome};
use gridsim_batch::{Device, DevicePool, StatsSnapshot};
use gridsim_engine::{Engine, FleetRequest};
use gridsim_grid::{Case, Network, ScenarioFingerprint, ScenarioSet, TableICase};
use gridsim_ipm::kkt::KktDims;
use gridsim_ipm::{
    AcopfNlp, FleetReport, IpmFleetSolver, IpmOptions, IpmSolver, IpmWarmStart, KktCache,
    KktStrategy, Nlp, SolveReport,
};
use gridsim_store::SolutionStore;
use std::time::Instant;

const NBUS: usize = 300;
/// Scenarios per sweep.
const K: usize = 6;
/// Half-width of the per-bus load perturbation.
const SIGMA: f64 = 0.03;
const CASE_ID: &str = "1354pegase@300";
/// Stated accuracy: independent ‖c‖∞ of every solve, p.u.
const MAX_VIOLATION: f64 = 1e-5;
/// Stated accuracy: a warm start must reach the cold optimum to this
/// relative objective difference.
const WARM_COLD_RTOL: f64 = 1e-6;
/// Repetitions of each replayed layer call; the median is reported.
const REPLAYS: usize = 9;

fn options() -> IpmOptions {
    IpmOptions {
        kkt_strategy: KktStrategy::Condensed,
        ..Default::default()
    }
}

struct Sweep {
    cases: Vec<Case>,
    nets: Vec<Network>,
}

struct Setup {
    cold: Sweep,
    warm: Sweep,
    solver: IpmFleetSolver,
    build_s: f64,
}

fn sweep(base: &Case, seed: u64) -> Sweep {
    let set = ScenarioSet::perturbed_loads(base.clone(), K, SIGMA, seed);
    Sweep {
        cases: set.cases(),
        nets: set
            .networks()
            .expect("perturbed 1354pegase stand-in compiles"),
    }
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let base = TableICase::Pegase1354.scaled(NBUS);
    let cold = sweep(&base, 2 * seed + 1);
    let warm = sweep(&base, 2 * seed + 2);
    let build_s = t.elapsed().as_secs_f64();
    let engine = Engine::with_pool(DevicePool::sequential(1)).with_lanes(K);
    Setup {
        cold,
        warm,
        solver: IpmFleetSolver::with_engine(options(), engine),
        build_s,
    }
}

/// Per-phase work counters summed over traced rounds.
#[derive(Default)]
struct Work {
    solves: f64,
    iterations: f64,
    factorizations: f64,
    trials: f64,
    symbolic: f64,
    solver_s: f64,
    fleet_s: f64,
}

impl Work {
    fn add(&mut self, r: &FleetReport) {
        self.solves += r.results.len() as f64;
        self.iterations += r.total_iterations() as f64;
        self.factorizations += r.factorizations() as f64;
        self.trials += (r.total_iterations() + r.filter_rejections()) as f64;
        self.symbolic += r.symbolic_analyses() as f64;
        self.solver_s += r
            .results
            .iter()
            .map(|x| x.report.solve_time.as_secs_f64())
            .sum::<f64>();
        self.fleet_s += r.solve_time.as_secs_f64();
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let s = timed_setups(&mut out, || setup(ctx.seed));
    let reference = IpmSolver::new(options()).with_device(Device::sequential());
    let mut work = [Work::default(), Work::default()];
    let mut hits = Vec::new();
    let mut hit_rate = Vec::new();
    let mut last_traced: Option<(FleetReport, SolutionStore<IpmWarmStart>)> = None;
    let device = s.solver.engine.pool().device(0);
    let mut device_work = StatsSnapshot::default();

    let setups = run_rounds(
        ctx,
        tracer,
        || setup(ctx.seed),
        |round, tracer| {
            let traced = tracer.enabled();
            let before = device.stats().snapshot();
            let mut store: SolutionStore<IpmWarmStart> = SolutionStore::new();
            let mut reports = Vec::new();
            for (warm, sw) in [(false, &s.cold), (true, &s.warm)] {
                let phase = tracer.open(if warm {
                    "ipm_fleet.warm"
                } else {
                    "ipm_fleet.cold"
                });
                let t = Instant::now();
                let id = tracer.open("ipm.fleet");
                let report = s
                    .solver
                    .run(FleetRequest::over(&sw.nets).case(CASE_ID).store(&mut store));
                tracer.close(id);
                let wall = t.elapsed();
                tracer.close(phase);

                let mut failed = 0;
                for (i, r) in report.results.iter().enumerate() {
                    if let Some(why) = check_solve(&sw.cases[i], &r.report, &r.solution) {
                        failed += 1;
                        out.fail(format!("{} sweep scenario {i}: {why}", phase_name(warm)));
                    }
                }
                out.phase(warm, traced, wall, K as u64, failed);
                if traced {
                    work[usize::from(warm)].add(&report);
                }
                reports.push(report);
            }

            // A warm start must not move the optimum: re-solve one seeded warm
            // scenario cold, outside the timed phases.
            let i = (ctx.seed as usize + round) % K;
            let warm_report = &reports[1].results[i].report;
            let cold = reference.solve(&AcopfNlp::new(&s.warm.nets[i]));
            let diff = (cold.objective - warm_report.objective).abs() / cold.objective.abs();
            if !cold.is_optimal() || exceeds(diff, WARM_COLD_RTOL) {
                // The warm solve itself is the operation that failed.
                out.warm.failed += u64::from(!traced);
                out.traced_warm.failed += u64::from(traced);
                out.fail(format!(
                    "warm scenario {i}: objective {:.9} vs cold re-solve {:.9} ({:?})",
                    warm_report.objective, cold.objective, cold.status
                ));
            }
            if traced {
                device_work.merge(&device.stats().snapshot().since(&before));
                hits.push(reports[1].store.hits as f64);
                hit_rate.push(reports[1].store.hit_rate());
                last_traced = Some((reports.pop().expect("warm report"), store));
            }
        },
    );
    out.setup_s.extend(setups);

    if ctx.trace {
        let (warm_report, store) = last_traced.expect("trace mode runs a traced round");
        let [c, w] = &work;
        let ops = c.solves + w.solves;
        tracer.set_enabled(true);
        crate::layers::device_layers(&mut out, &device_work, ops, c.solver_s + w.solver_s);
        out.layer("ipm.iterations_cold", c.iterations / c.solves);
        out.layer("ipm.iterations_warm", w.iterations / w.solves);
        out.layer(
            "ipm.factorizations_per_op",
            (c.factorizations + w.factorizations) / ops,
        );
        out.layer("ipm.line_search_trials_per_op", (c.trials + w.trials) / ops);
        let rounds = (c.solves / K as f64).max(1.0);
        out.layer("ipm.symbolic_analyses", (c.symbolic + w.symbolic) / rounds);
        out.layer(
            "ipm.ms_per_iteration",
            1e3 * (c.solver_s + w.solver_s) / (c.iterations + w.iterations),
        );
        let r = replay(tracer, &s.warm.nets[0], &warm_report.results[0].report);
        out.layer("ipm.nlp_eval_ms", 1e3 * r.nlp_eval_s);
        out.layer("ipm.kkt_factor_ms", 1e3 * r.kkt_factor_s);
        out.layer("ipm.kkt_solve_ms", 1e3 * r.kkt_solve_s);
        out.layer("sparse.symbolic_ms", 1e3 * r.symbolic_s);
        out.layer(
            "engine.overhead_ms_per_op",
            1e3 * (c.fleet_s + w.fleet_s - c.solver_s - w.solver_s) / ops,
        );
        out.layer("store.hits", stats::median(&hits));
        out.layer("store.hit_rate", stats::median(&hit_rate));
        let lookup_s = time_lookups(tracer, &store, &s.warm.nets);
        out.layer("store.lookup_us", 1e6 * lookup_s);
        out.layer("grid.build_ms", 1e3 * s.build_s);
        let coverage = (c.solver_s / tracer.total("ipm_fleet.cold"))
            .min(w.solver_s / tracer.total("ipm_fleet.warm"));
        out.layer("bench.blocking_coverage_pct", 100.0 * coverage);
        crate::layers::trace_overhead(&mut out);
        tracer.set_enabled(false);
    }
    out
}

fn phase_name(warm: bool) -> &'static str {
    if warm {
        "warm"
    } else {
        "cold"
    }
}

fn check_solve(
    case: &Case,
    report: &SolveReport,
    sol: &gridsim_acopf::solution::OpfSolution,
) -> Option<String> {
    if !report.is_optimal() {
        return Some(format!("status {:?}", report.status));
    }
    match certify(
        case,
        Point {
            vm: &sol.vm,
            va: &sol.va,
            pg: &sol.pg,
            qg: &sol.qg,
        },
    ) {
        Err(e) => Some(e),
        Ok(c) if exceeds(c.max_violation(), MAX_VIOLATION) => {
            Some(format!("independent ‖c‖∞ {:.3e}", c.max_violation()))
        }
        Ok(_) => None,
    }
}

/// Seconds per call of each layer the fleet's Newton iteration runs,
/// replayed through the public `Nlp` and `KktCache` calls at a converged
/// fleet iterate.
struct Replay {
    nlp_eval_s: f64,
    kkt_factor_s: f64,
    kkt_solve_s: f64,
    symbolic_s: f64,
}

/// Median seconds of `REPLAYS` calls of `f`, each in a span named `name`
/// (tracing must be on; no other span may carry the name).
fn median_of(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    for _ in 0..REPLAYS {
        let id = tracer.open(name);
        f();
        tracer.close(id);
    }
    stats::median(&tracer.durations(name))
}

fn replay(tracer: &mut Tracer, net: &Network, report: &SolveReport) -> Replay {
    let nlp = AcopfNlp::new(net);
    let (nx, m_eq, m_ineq) = (nlp.num_vars(), nlp.num_eq(), nlp.num_ineq());
    let x = &report.x[..nx];
    let mut grad = vec![0.0; nx];
    let mut ce = vec![0.0; m_eq];
    let mut ci = vec![0.0; m_ineq];
    let nlp_eval_s = median_of(tracer, "ipm.nlp_eval", || {
        std::hint::black_box(nlp.objective(x));
        nlp.objective_grad(x, &mut grad);
        nlp.eq_constraints(x, &mut ce);
        nlp.ineq_constraints(x, &mut ci);
        std::hint::black_box(nlp.eq_jacobian(x));
        std::hint::black_box(nlp.ineq_jacobian(x));
        std::hint::black_box(nlp.lagrangian_hessian(
            x,
            1.0,
            &report.lambda_eq,
            &report.lambda_ineq,
        ));
    });

    let dims = KktDims {
        nx,
        ns: m_ineq,
        m_eq,
        m_ineq,
    };
    let hess = nlp.lagrangian_hessian(x, 1.0, &report.lambda_eq, &report.lambda_ineq);
    let jac_eq = nlp.eq_jacobian(x);
    let jac_ineq = nlp.ineq_jacobian(x);
    let symbolic_s = median_of(tracer, "sparse.symbolic", || {
        KktCache::new().ensure_structure(&dims, &hess, &jac_eq, &jac_ineq);
    });

    // Barrier diagonal at the iterate: v = [x; s] with s = −c_I(x).
    let (lower, upper) = nlp.bounds();
    nlp.ineq_constraints(x, &mut ci);
    let v: Vec<f64> = x
        .iter()
        .copied()
        .chain(ci.iter().map(|c| (-c).max(1e-8)))
        .collect();
    let sigma: Vec<f64> = (0..dims.nv())
        .map(|i| {
            let (l, u) = if i < nx {
                (lower[i], upper[i])
            } else {
                (0.0, f64::INFINITY)
            };
            let zl = report.zl.get(i).copied().unwrap_or(1.0);
            let zu = report.zu.get(i).copied().unwrap_or(1.0);
            let mut s = 0.0;
            if l.is_finite() {
                s += zl / (v[i] - l).max(1e-12);
            }
            if u.is_finite() {
                s += zu / (u - v[i]).max(1e-12);
            }
            s
        })
        .collect();
    let device = Device::sequential();
    let mut cache = KktCache::new();
    cache.ensure_structure(&dims, &hess, &jac_eq, &jac_ineq);
    let mut factor = || {
        cache
            .factorize_condensed(
                &device, &dims, &hess, &sigma, &jac_eq, &jac_ineq, 0.0, 1e-8, 1e-13, 1e-9,
            )
            .expect("condensed system factorizes at a converged iterate")
    };
    let kkt_factor_s = median_of(tracer, "ipm.kkt_factor", || {
        std::hint::black_box(factor());
    });
    let f = factor();
    let rhs = vec![1.0; dims.dim()];
    let kkt_solve_s = median_of(tracer, "ipm.kkt_solve", || {
        std::hint::black_box(f.solve(&jac_ineq, &rhs));
    });
    Replay {
        nlp_eval_s,
        kkt_factor_s,
        kkt_solve_s,
        symbolic_s,
    }
}

/// Seconds per `SolutionStore::nearest` call on the filled store, over the
/// warm sweep's fingerprints.
fn time_lookups(tracer: &mut Tracer, store: &SolutionStore<IpmWarmStart>, nets: &[Network]) -> f64 {
    let fps: Vec<ScenarioFingerprint> = nets.iter().map(ScenarioFingerprint::of_network).collect();
    const CALLS: usize = 200;
    median_of(tracer, "store.nearest", || {
        for i in 0..CALLS {
            std::hint::black_box(store.nearest(CASE_ID, &fps[i % fps.len()]));
        }
    }) / CALLS as f64
}
