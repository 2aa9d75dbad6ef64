//! `track`: the paper's Sec. IV-C horizon on case14.
//!
//! One round solves `HORIZONS` seeded `LoadProfile::paper_window` horizons
//! (30 one-minute periods, 5 % drift, 2 % ramp limits). The cold phase is
//! the horizons' first periods solved from scratch by `AdmmSolver::solve`,
//! back to back; the warm phase is every later period, each warm-started
//! from the previous period's state with ramp-limited generator bounds.
//! Every round repeats the same horizons.

use crate::checker::{certify, exceeds, Point};
use crate::trace::Tracer;
use crate::{run_rounds, stats, timed_setups, Ctx, Outcome};
use gridsim_acopf::start::ramp_limited_bounds;
use gridsim_admm::{AdmmParams, AdmmResult, AdmmSolver, AdmmStatus};
use gridsim_batch::{Device, StatsSnapshot};
use gridsim_grid::{Case, LoadProfile, Network};
use gridsim_ipm::{AcopfNlp, IpmOptions, IpmSolver, KktStrategy};
use std::time::Instant;

const HORIZONS: usize = 2;
const PERIODS: usize = 30;
const DRIFT: f64 = 0.05;
const RAMP: f64 = 0.02;
/// Stated accuracy: independent ‖c‖∞ of every period, p.u.
const MAX_VIOLATION: f64 = 1e-3;
/// Stated accuracy: relative objective gap to the interior-point solve of
/// the same period (same ramp-limited bounds).
const MAX_GAP: f64 = 0.01;
/// Slack on the ramp-limit check, p.u.
const RAMP_TOL: f64 = 1e-6;

struct Setup {
    /// Per horizon, per period: the scaled case and its compiled network.
    horizons: Vec<Vec<(Case, Network)>>,
    solver: AdmmSolver,
    build_s: f64,
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let base = gridsim_grid::case14();
    let horizons = (0..HORIZONS)
        .map(|h| {
            let profile = LoadProfile::paper_window(seed * 101 + h as u64, PERIODS, DRIFT);
            profile
                .multipliers
                .iter()
                .map(|&m| {
                    let case = base.scale_load(m);
                    let net = case.compile().expect("scaled case14 compiles");
                    (case, net)
                })
                .collect()
        })
        .collect();
    let build_s = t.elapsed().as_secs_f64();
    Setup {
        horizons,
        solver: AdmmSolver::with_device(AdmmParams::default(), Device::sequential()),
        build_s,
    }
}

/// What the checks need of one solved period.
struct Solved {
    result: AdmmResult,
    /// Ramp-limited bounds the period was solved under (warm periods).
    bounds: Option<(Vec<f64>, Vec<f64>)>,
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let s = timed_setups(&mut out, || setup(ctx.seed));
    let device = &s.solver.device;
    // Interior-point references, one per period, solved once outside any
    // timed region (the inputs are the same every round).
    let mut reference: Vec<Vec<Option<f64>>> = vec![vec![None; PERIODS]; HORIZONS];
    let ipm = IpmSolver::new(IpmOptions {
        kkt_strategy: KktStrategy::Condensed,
        ..Default::default()
    })
    .with_device(Device::sequential());

    let mut inner = [Vec::new(), Vec::new()];
    let mut solver_s = [0.0f64; 2];
    let mut stats_delta = StatsSnapshot::default();

    let setups = run_rounds(
        ctx,
        tracer,
        || setup(ctx.seed),
        |_, tracer| {
            let traced = tracer.enabled();
            let before = device.stats().snapshot();
            let mut solved: Vec<Vec<Solved>> = (0..HORIZONS).map(|_| Vec::new()).collect();

            let phase = tracer.open("track.cold");
            let t = Instant::now();
            for (h, periods) in s.horizons.iter().enumerate() {
                let id = tracer.open("admm.solve");
                let result = s.solver.solve(&periods[0].1);
                tracer.close(id);
                solved[h].push(Solved {
                    result,
                    bounds: None,
                });
            }
            let cold_wall = t.elapsed();
            tracer.close(phase);

            let phase = tracer.open("track.warm");
            let t = Instant::now();
            for (h, periods) in s.horizons.iter().enumerate() {
                for (_, net) in &periods[1..] {
                    let prev = &solved[h].last().expect("cold period solved").result;
                    let id = tracer.open("acopf.ramp_bounds");
                    let bounds = ramp_limited_bounds(net, prev.warm_state.previous_pg(), RAMP);
                    tracer.close(id);
                    let id = tracer.open("admm.solve_warm");
                    let result = s
                        .solver
                        .solve_warm(net, &prev.warm_state, Some(bounds.clone()));
                    tracer.close(id);
                    solved[h].push(Solved {
                        result,
                        bounds: Some(bounds),
                    });
                }
            }
            let warm_wall = t.elapsed();
            tracer.close(phase);

            // Checks, outside the timed phases.
            let mut failed = [0u64; 2];
            for (h, periods) in s.horizons.iter().enumerate() {
                for (p, ((case, net), sv)) in periods.iter().zip(&solved[h]).enumerate() {
                    let r = &sv.result;
                    let warm = usize::from(p > 0);
                    let reference = reference[h][p].get_or_insert_with(|| {
                        let nlp = match &sv.bounds {
                            Some((lo, hi)) => {
                                AcopfNlp::new(net).with_pg_bounds(lo.clone(), hi.clone())
                            }
                            None => AcopfNlp::new(net),
                        };
                        let rep = ipm.solve(&nlp);
                        if rep.is_optimal() {
                            rep.objective
                        } else {
                            f64::NAN
                        }
                    });
                    let why = check_period(
                        case,
                        r,
                        *reference,
                        p.checked_sub(1).map(|q| &solved[h][q].result),
                    );
                    if let Some(why) = why {
                        failed[warm] += 1;
                        out.fail(format!("horizon {h} period {p}: {why}"));
                    }
                    if traced {
                        inner[warm].push(r.inner_iterations as f64);
                        solver_s[warm] += r.solve_time.as_secs_f64();
                    }
                }
            }
            out.phase(false, traced, cold_wall, HORIZONS as u64, failed[0]);
            out.phase(
                true,
                traced,
                warm_wall,
                (HORIZONS * (PERIODS - 1)) as u64,
                failed[1],
            );
            if traced {
                stats_delta.merge(&device.stats().snapshot().since(&before));
            }
        },
    );
    out.setup_s.extend(setups);

    if ctx.trace {
        let ops = (out.traced_cold.attempted + out.traced_warm.attempted) as f64;
        let solve_s = tracer.total("admm.solve") + tracer.total("admm.solve_warm");
        crate::layers::device_layers(&mut out, &stats_delta, ops, solve_s);
        out.layer("admm.inner_iterations_cold", stats::median(&inner[0]));
        out.layer("admm.inner_iterations_warm", stats::median(&inner[1]));
        let warm_ms: Vec<f64> = tracer
            .durations("admm.solve_warm")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        out.layer("admm.period_p90_ms", stats::percentile(&warm_ms, 90.0));
        out.layer("grid.build_ms", 1e3 * s.build_s);
        // The solver's own clock against the phase wall: the share of each
        // phase the ADMM layer accounts for (the rest is benchmark glue).
        let phase_s = [tracer.total("track.cold"), tracer.total("track.warm")];
        let coverage = (0..2)
            .map(|i| 100.0 * solver_s[i] / phase_s[i].max(f64::MIN_POSITIVE))
            .fold(f64::INFINITY, f64::min);
        out.layer("bench.blocking_coverage_pct", coverage);
        crate::layers::trace_overhead(&mut out);
    }
    out
}

/// `None` when the period passes every check, else the reason it fails.
fn check_period(
    case: &Case,
    r: &AdmmResult,
    reference: f64,
    previous: Option<&AdmmResult>,
) -> Option<String> {
    if r.status != AdmmStatus::Converged {
        return Some(format!("status {:?}", r.status));
    }
    let sol = &r.solution;
    let cert = match certify(
        case,
        Point {
            vm: &sol.vm,
            va: &sol.va,
            pg: &sol.pg,
            qg: &sol.qg,
        },
    ) {
        Ok(c) => c,
        Err(e) => return Some(e),
    };
    if exceeds(cert.max_violation(), MAX_VIOLATION) {
        return Some(format!("independent ‖c‖∞ {:.3e}", cert.max_violation()));
    }
    let gap = (cert.cost - reference).abs() / reference.abs();
    if exceeds(gap, MAX_GAP) {
        return Some(format!(
            "objective {:.6} vs interior point {reference:.6}",
            cert.cost
        ));
    }
    if let Some(prev) = previous {
        let gens = case.generators.iter().filter(|g| g.status);
        for (g, gen) in gens.enumerate() {
            let step = (sol.pg[g] - prev.solution.pg[g]).abs();
            if step > RAMP * gen.pmax / case.base_mva + RAMP_TOL {
                return Some(format!("generator {g} ramps {step:.5} p.u."));
            }
        }
    }
    None
}
