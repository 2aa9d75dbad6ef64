//! One benchmark command for the workspace: the paper's tracking horizon
//! (`track`), the condensed-KKT interior-point fleet with its solution
//! store (`ipm_fleet`) and a screened contingency sweep through the job
//! daemon (`serve_screen`).
//!
//! ```text
//! perfbench --workload <track|ipm_fleet|serve_screen> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --steadiness <runs> [--seconds <s>]
//! ```
//!
//! The last line of a run is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). See README.md.

mod checker;
mod ipm_fleet;
mod layers;
mod machine;
mod serve_screen;
mod stats;
mod steadiness;
mod trace;
mod track;

use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["track", "ipm_fleet", "serve_screen"];

/// Timed set-ups before the first round, after one untimed warm-up, and
/// again after every round, so the samples span the whole run; `setup_s`
/// is the median of all of them. A set-up takes about a millisecond, so a
/// single one would read the state of the host at one instant more than
/// the work, and a run of `serve_screen` has only two or three rounds.
const SETUP_REPEATS: usize = 11;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    /// Scratch space for files the workloads write (daemon state, traces).
    pub out_dir: PathBuf,
}

/// Wall-clock and operation counts of one phase, summed over rounds, and
/// the phase's milliseconds per operation in each round.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub wall: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub round_ms_per_op: Vec<f64>,
}

impl Phase {
    pub fn add(&mut self, wall: Duration, attempted: u64, failed: u64) {
        self.wall += wall;
        self.attempted += attempted;
        self.failed += failed;
        self.round_ms_per_op
            .push(1e3 * wall.as_secs_f64() / attempted.max(1) as f64);
    }

    /// Median over rounds of the phase's wall-clock per operation: a
    /// round slowed by a burst of host steal moves it less than the mean.
    pub fn ms_per_op(&self) -> f64 {
        stats::median(&self.round_ms_per_op)
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Seconds taken by each timed set-up.
    pub setup_s: Vec<f64>,
    /// Cold and warm phases of untraced rounds.
    pub cold: Phase,
    pub warm: Phase,
    /// Cold and warm phases of traced rounds (trace mode only).
    pub traced_cold: Phase,
    pub traced_warm: Phase,
    /// Operations that failed a check, with the reason; each is counted
    /// in its phase's `failed`.
    pub failures: Vec<String>,
    /// Run-level checks that failed (no single operation to blame); any
    /// makes the run incorrect.
    pub broken: Vec<String>,
    /// Per-layer metrics: name and value.
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record a phase of the current round under the traced or untraced
    /// tally.
    pub fn phase(&mut self, warm: bool, traced: bool, wall: Duration, attempted: u64, failed: u64) {
        let p = match (warm, traced) {
            (false, false) => &mut self.cold,
            (true, false) => &mut self.warm,
            (false, true) => &mut self.traced_cold,
            (true, true) => &mut self.traced_warm,
        };
        p.add(wall, attempted, failed);
    }

    pub fn fail(&mut self, why: String) {
        if self.failures.len() < 20 {
            eprintln!("check failed: {why}");
        }
        self.failures.push(why);
    }

    pub fn broken(&mut self, why: String) {
        eprintln!("run check failed: {why}");
        self.broken.push(why);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        layers::unit(name);
        self.layers.push((name, value));
    }
}

/// Time `SETUP_REPEATS` set-ups after a warm-up, keep the last one's state.
pub fn timed_setups<S>(out: &mut Outcome, mut setup: impl FnMut() -> S) -> S {
    let mut state = Some(setup());
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    state.expect("at least one set-up")
}

/// Run whole rounds until the budget is spent, timing `SETUP_REPEATS`
/// throw-away set-ups after each. In trace mode rounds alternate untraced and traced
/// (at least one of each), so the tracing overhead is measured under the
/// same conditions as the spans. Returns the set-up times.
pub fn run_rounds<S>(
    ctx: &Ctx,
    tracer: &mut Tracer,
    mut setup: impl FnMut() -> S,
    mut round: impl FnMut(usize, &mut Tracer),
) -> Vec<f64> {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut r = 0;
    loop {
        tracer.set_enabled(ctx.trace && r % 2 == 1);
        round(r, tracer);
        tracer.set_enabled(false);
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            drop(setup());
            setups.push(t.elapsed().as_secs_f64());
        }
        r += 1;
        let min_rounds = if ctx.trace { 2 } else { 1 };
        if r >= min_rounds && start.elapsed() >= ctx.budget {
            break;
        }
    }
    setups
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    steadiness: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        steadiness: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--steadiness" => {
                let n: usize = value()?.parse().map_err(|e| format!("--steadiness: {e}"))?;
                if n < 2 {
                    return Err("--steadiness needs at least 2 runs".into());
                }
                a.steadiness = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; expected one of {WORKLOADS:?}"
            ));
        }
    }
    if a.workload.is_none() && a.steadiness.is_none() {
        return Err("give --workload <name> or --steadiness <runs>".into());
    }
    Ok(a)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    // Kernels run single-threaded on the sequential backend: on a small
    // shared host the parallel backend's timings spread as widely as the
    // host's load. Set before any device resolves its mode.
    std::env::set_var(gridsim_batch::backend::BACKEND_ENV, "sequential");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if let Some(runs) = args.steadiness {
        std::process::exit(steadiness::run(runs, args.seconds));
    }
    let workload = args.workload.expect("checked by parse_args");
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        out_dir: bench_dir.join("out"),
    };

    let steal0 = machine::steal_ticks();
    let mut tracer = Tracer::new();
    let out = match workload.as_str() {
        "track" => track::run(&ctx, &mut tracer),
        "ipm_fleet" => ipm_fleet::run(&ctx, &mut tracer),
        "serve_screen" => serve_screen::run(&ctx, &mut tracer),
        _ => unreachable!("workload names are validated"),
    };
    let peak_rss_mb = machine::peak_rss_mb();
    let steal = machine::steal_ticks().saturating_sub(steal0);

    println!(
        "machine: nproc={} mode={} pool_threads={} rev={} steal_ticks={}",
        machine::nproc(),
        gridsim_batch::ExecutionMode::Auto.resolve().label(),
        rayon::current_num_threads(),
        machine::git_revision(bench_dir.parent().unwrap_or(&bench_dir)),
        steal
    );
    let (cold, warm) = if ctx.trace {
        (&out.traced_cold, &out.traced_warm)
    } else {
        (&out.cold, &out.warm)
    };
    for (name, p) in [("cold", cold), ("warm", warm)] {
        println!(
            "ops: workload={workload} phase={name} attempted={} failed={} wall_s={:.3}",
            p.attempted,
            p.failed,
            p.wall.as_secs_f64()
        );
    }
    let attempted = cold.attempted + warm.attempted;
    let failed = cold.failed + warm.failed;

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if ctx.trace {
        let spans = ctx
            .out_dir
            .join(format!("trace-{workload}-seed{}.jsonl", ctx.seed));
        if let Err(e) = tracer.write(&spans) {
            eprintln!("perfbench: could not write {}: {e}", spans.display());
        }
        for &(name, unit) in layers::PER_LAYER {
            let value = out.layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1);
            metrics.push((name, value, unit));
        }
    } else {
        metrics.push(("setup_s", stats::median(&out.setup_s), "s"));
        metrics.push(("cold_ms_per_op", cold.ms_per_op(), "ms"));
        metrics.push(("warm_ms_per_op", warm.ms_per_op(), "ms"));
        metrics.push(("peak_rss_mb", peak_rss_mb, "MB"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let correct = out.broken.is_empty() && metrics.iter().all(|m| m.1.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
