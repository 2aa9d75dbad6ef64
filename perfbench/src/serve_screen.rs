//! `serve_screen`: screened N−k contingency sweeps as the job daemon runs
//! them.
//!
//! One round opens a `ServeDaemon` with one slot per CPU on an empty state
//! directory, submits two case9 `ScenarioSpec::contingency` jobs through
//! `JobSpec::screened` and drains them (cold phase):
//!
//! * `sweep`: seven load levels over 1.0–1.3, each uniform and with two
//!   seeded per-bus perturbations, times every N−1 branch and generator
//!   outage column (210 scenarios). The screen certifies it benign.
//! * `stress`: the same columns at a fixed 1.45 load level, no
//!   perturbation (so it does not depend on the seed). Its generator-outage
//!   corner graduates to the full ADMM tier.
//!
//! The warm phase reopens the daemon on the same directory, which now holds
//! the finished jobs' manifests and the persisted store, resubmits both jobs
//! under new names and drains them again. Every round repeats the same
//! jobs on a fresh directory.

use crate::checker::{certify, exceeds, Certificate, Point};
use crate::trace::Tracer;
use crate::{machine, run_rounds, stats, timed_setups, Ctx, Outcome};
use gridsim_acopf::violations::SolutionQuality;
use gridsim_admm::scenario::ScenarioResult;
use gridsim_admm::{AdmmParams, AdmmStatus, WarmState};
use gridsim_batch::{Device, DevicePool, StatsSnapshot};
use gridsim_grid::{Case, Network, ScenarioFingerprint};
use gridsim_screen::{
    Band, ContingencyFunnel, FullTier, FunnelConfig, DEFAULT_BENIGN_THRESHOLD,
    DEFAULT_VIOLATING_THRESHOLD,
};
use gridsim_serve::{
    run_chunk, CaseName, FrozenStores, JobManifest, JobSpec, ScenarioSpec, ScenarioState,
    ServeDaemon, SolverFamily,
};
use gridsim_store::SolutionStore;
use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const CASE: CaseName = CaseName::Case9;
/// Outage columns of both jobs: single branches and generators (case9
/// admits no branch pair that keeps it connected).
const N1: usize = 6;
const GENS: usize = 3;
/// Scenarios per durability chunk (one fleet run and one manifest flush).
const CHUNK: usize = 4;
/// Stated accuracy of a graduated (full-tier) result: independent ‖c‖∞.
const FULL_MAX_VIOLATION: f64 = 1e-2;
/// Margins this close to a band threshold may fall on either side of it
/// (the recomputed margin and the funnel's differ only by rounding).
const BAND_TOL: f64 = 1e-9;

/// The two jobs of a round: name stem and recipe.
fn recipes(seed: u64) -> [(&'static str, ScenarioSpec); 2] {
    // `stress` goes first: its graduated chunk is the longest, and started
    // early it overlaps the short `sweep` chunks instead of leaving one
    // slot idle at the end of the drain.
    [
        (
            "stress",
            ScenarioSpec::contingency(1, 1.45, 1.45, 0, 0.0, 0, N1, 0, GENS),
        ),
        (
            "sweep",
            ScenarioSpec::contingency(7, 1.0, 1.3, 2, 0.02, seed, N1, 0, GENS),
        ),
    ]
}

fn job_spec(name: String, recipe: ScenarioSpec) -> JobSpec {
    JobSpec::new(name, CASE, recipe, SolverFamily::Admm)
        .screened(DEFAULT_BENIGN_THRESHOLD, DEFAULT_VIOLATING_THRESHOLD)
        .chunk_size(CHUNK)
}

fn funnel_config() -> FunnelConfig {
    // The daemon's screened chunks run exactly this funnel.
    FunnelConfig {
        full: AdmmParams::test_profile(),
        tier: FullTier::Admm,
        benign_threshold: DEFAULT_BENIGN_THRESHOLD,
        violating_threshold: DEFAULT_VIOLATING_THRESHOLD,
        ..Default::default()
    }
}

/// One job's inputs and the funnel's verdicts on them.
struct Job {
    stem: &'static str,
    recipe: ScenarioSpec,
    cases: Vec<Case>,
    nets: Vec<Network>,
    chunks: Vec<Vec<usize>>,
    band: Vec<Band>,
}

impl Job {
    fn spec(&self, warm: bool) -> JobSpec {
        let phase = if warm { "warm" } else { "cold" };
        job_spec(format!("{}-{phase}", self.stem), self.recipe.clone())
    }
}

struct Setup {
    jobs: Vec<Job>,
    daemon: Option<ServeDaemon>,
    dir: PathBuf,
    build_s: f64,
}

fn state_dir(ctx: &Ctx, tag: impl std::fmt::Display) -> PathBuf {
    ctx.out_dir
        .join(format!("serve-{}-{tag}", std::process::id()))
}

fn fresh_daemon(dir: &Path) -> ServeDaemon {
    let _ = std::fs::remove_dir_all(dir);
    ServeDaemon::open(dir, machine::nproc()).expect("daemon opens an empty state directory")
}

fn setup(ctx: &Ctx, dir: PathBuf) -> Setup {
    let t = Instant::now();
    let jobs = recipes(ctx.seed)
        .into_iter()
        .map(|(stem, recipe)| {
            let set = recipe.build(CASE.base());
            let chunks = JobManifest::new(job_spec(stem.into(), recipe.clone()), 0).chunks();
            Job {
                stem,
                cases: set.cases(),
                nets: set.networks().expect("contingency scenarios compile"),
                band: Vec::new(),
                recipe,
                chunks,
            }
        })
        .collect();
    let build_s = t.elapsed().as_secs_f64();
    Setup {
        daemon: Some(fresh_daemon(&dir)),
        jobs,
        dir,
        build_s,
    }
}

/// Time and work of the funnel re-run.
#[derive(Default)]
struct FunnelWork {
    screen_s: f64,
    full_s: f64,
    stats: StatsSnapshot,
}

/// Recompute the funnel's verdicts chunk by chunk outside the daemon, on
/// one sequential device, and check every band against the thresholds
/// using margins recomputed independently from the screening solutions.
fn rerun_funnel(out: &mut Outcome, tracer: &mut Tracer, jobs: &mut [Job]) -> FunnelWork {
    let device = Device::sequential();
    let funnel = ContingencyFunnel::with_pool(funnel_config(), DevicePool::single(device.clone()));
    let mut w = FunnelWork::default();
    for job in jobs.iter_mut() {
        job.band = vec![Band::Benign; job.nets.len()];
        for chunk in &job.chunks {
            let nets: Vec<Network> = chunk.iter().map(|&i| job.nets[i].clone()).collect();
            let id = tracer.open("screen.funnel");
            let report = funnel.run(CASE.id(), &nets);
            tracer.close(id);
            w.screen_s += report.screen_time().as_secs_f64();
            w.full_s += report.full_time().as_secs_f64();
            for (k, &i) in chunk.iter().enumerate() {
                job.band[i] = report.screened[k].band;
                let sol = &report.screening.results[k].solution;
                let margin = certify(&job.cases[i], point(sol)).map(|c| c.stress_margin());
                match margin {
                    Ok(m) if band_of(m).is_none_or(|b| b == job.band[i]) => {}
                    other => out.broken(format!(
                        "{} scenario {i}: band {:?} but recomputed margin {other:?}",
                        job.stem, job.band[i]
                    )),
                }
            }
        }
    }
    w.stats = device.stats().snapshot();
    w
}

fn point(sol: &gridsim_acopf::solution::OpfSolution) -> Point<'_> {
    Point {
        vm: &sol.vm,
        va: &sol.va,
        pg: &sol.pg,
        qg: &sol.qg,
    }
}

/// The band a margin falls in, or `None` when it sits on a threshold.
fn band_of(margin: f64) -> Option<Band> {
    let near = |t: f64| (margin - t).abs() <= BAND_TOL;
    if near(DEFAULT_BENIGN_THRESHOLD) || near(DEFAULT_VIOLATING_THRESHOLD) {
        None
    } else {
        Some(funnel_config().band_of(margin))
    }
}

/// Check one scenario's recorded result against its band.
fn check_scenario(job: &Job, manifest: &JobManifest, i: usize) -> Result<ScenarioResult, String> {
    let record = manifest.records.get(i).ok_or("missing record")?;
    if record.state != ScenarioState::Done {
        return Err(format!("state {:?}", record.state));
    }
    let value = manifest.results[i].as_ref().ok_or("no recorded result")?;
    let r = ScenarioResult::from_value(value).map_err(|e| format!("{e:?}"))?;
    let cert: Certificate = certify(&job.cases[i], point(&r.solution))?;
    if job.band[i] == Band::Benign {
        // The screen is the final word: the recorded screening point must
        // itself sit in the benign band.
        let m = cert.stress_margin();
        if band_of(m).is_some_and(|b| b != Band::Benign) {
            return Err(format!("benign result has margin {m:.3e}"));
        }
    } else if r.status != AdmmStatus::Converged {
        return Err(format!("graduated result status {:?}", r.status));
    } else if exceeds(cert.max_violation(), FULL_MAX_VIOLATION) {
        return Err(format!(
            "graduated result reported Converged with independent ‖c‖∞ {:.3e} \
             (P {:.3e}, Q {:.3e})",
            cert.max_violation(),
            cert.p_balance,
            cert.q_balance
        ));
    }
    Ok(r)
}

/// Check every scenario of a drained job; returns the failures and the
/// recorded results that passed.
fn check_job(
    out: &mut Outcome,
    job: &Job,
    dir: &Path,
    warm: bool,
) -> (u64, Vec<(usize, ScenarioResult)>) {
    let name = job.spec(warm).name;
    let manifest = match JobManifest::load(&dir.join("jobs").join(format!("{name}.json"))) {
        Ok(m) => m,
        Err(e) => {
            out.broken(format!("{name}: manifest unreadable: {e}"));
            return (job.nets.len() as u64, Vec::new());
        }
    };
    let mut failed = 0;
    let mut passed = Vec::new();
    for i in 0..job.nets.len() {
        match check_scenario(job, &manifest, i) {
            Ok(r) => passed.push((i, r)),
            Err(why) => {
                failed += 1;
                out.fail(format!("{name} scenario {i}: {why}"));
            }
        }
    }
    (failed, passed)
}

/// Per-layer figures gathered in traced rounds.
#[derive(Default)]
struct Traced {
    written_kb: Vec<f64>,
    manifest_kb: Vec<f64>,
    persisted_hits: Vec<f64>,
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut s = timed_setups(&mut out, || setup(ctx, state_dir(ctx, 0)));
    let n: usize = s.jobs.iter().map(|j| j.nets.len()).sum();
    let funnel = rerun_funnel(&mut out, tracer, &mut s.jobs);

    let mut tr = Traced::default();
    let mut last_results = Vec::new();
    let probe = state_dir(ctx, "setup");
    let setups = run_rounds(
        ctx,
        tracer,
        || setup(ctx, probe.clone()),
        |round, tracer| {
            let traced = tracer.enabled();
            if round > 0 {
                let _ = std::fs::remove_dir_all(&s.dir);
                s.dir = state_dir(ctx, round);
                s.daemon = Some(fresh_daemon(&s.dir));
            }
            let daemon = s.daemon.take().expect("a daemon is open at round start");

            let written = machine::bytes_written();
            let phase = tracer.open("serve_screen.cold");
            let t = Instant::now();
            let mut handles = Vec::new();
            let drained = s
                .jobs
                .iter()
                .try_for_each(|j| daemon.submit(j.spec(false)).map(|h| handles.push(h)))
                .and_then(|_| daemon.run_until_idle());
            let cold_wall = t.elapsed();
            tracer.close(phase);
            let written_kb = (machine::bytes_written() - written) as f64 / 1024.0;
            if let Err(e) = drained {
                out.broken(format!("cold drain: {e}"));
            }
            // The funnel seeds each graduate from its own screening solution,
            // which the job status counts as a store hit; only hits beyond the
            // cold jobs' come from the persisted store.
            let cold_hits: usize = handles.iter().map(|h| h.status().store.hits).sum();
            drop(daemon);

            let phase = tracer.open("serve_screen.warm");
            let t = Instant::now();
            let id = tracer.open("serve.reopen");
            let reopened = ServeDaemon::open(&s.dir, machine::nproc());
            tracer.close(id);
            let mut handles = Vec::new();
            let drained = reopened.as_ref().map(|daemon| {
                s.jobs
                    .iter()
                    .try_for_each(|j| daemon.submit(j.spec(true)).map(|h| handles.push(h)))
                    .and_then(|_| daemon.run_until_idle())
            });
            let warm_wall = t.elapsed();
            tracer.close(phase);
            match drained {
                Err(e) => out.broken(format!("reopen: {e}")),
                Ok(Err(e)) => out.broken(format!("warm drain: {e}")),
                Ok(Ok(())) => {}
            }
            let warm_hits: usize = handles.iter().map(|h| h.status().store.hits).sum();
            let persisted_hits = warm_hits.saturating_sub(cold_hits) as f64;
            if let Ok(daemon) = reopened {
                // The reopened daemon reads each cold job back from disk as
                // complete with nothing failed.
                for j in &s.jobs {
                    let name = j.spec(false).name;
                    match daemon.handle(&name).map(|h| h.status()) {
                        Some(st) if st.complete && st.counts.failed == 0 => {}
                        other => out.broken(format!("{name} read back as {other:?}")),
                    }
                }
                s.daemon = Some(daemon);
            }

            let mut failed = [0u64; 2];
            for (w, f) in failed.iter_mut().enumerate() {
                for job in &s.jobs {
                    let (job_failed, passed) = check_job(&mut out, job, &s.dir, w == 1);
                    *f += job_failed;
                    if traced && w == 0 {
                        last_results
                            .extend(passed.into_iter().map(|(i, r)| (job.nets[i].clone(), r)));
                    }
                }
            }
            out.phase(false, traced, cold_wall, n as u64, failed[0]);
            out.phase(true, traced, warm_wall, n as u64, failed[1]);
            if traced {
                tr.written_kb.push(written_kb);
                let kb: f64 = s
                    .jobs
                    .iter()
                    .map(|j| {
                        let path = s
                            .dir
                            .join("jobs")
                            .join(format!("{}.json", j.spec(false).name));
                        std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1024.0)
                    })
                    .sum();
                tr.manifest_kb.push(kb);
                tr.persisted_hits.push(persisted_hits);
            }
        },
    );
    out.setup_s.extend(setups);
    let _ = std::fs::remove_dir_all(&probe);

    if ctx.trace {
        tracer.set_enabled(true);
        let nf = n as f64;
        crate::layers::device_layers(&mut out, &funnel.stats, nf, funnel.screen_s + funnel.full_s);
        let graduated = s
            .jobs
            .iter()
            .flat_map(|j| &j.band)
            .filter(|b| **b != Band::Benign)
            .count() as f64;
        out.layer("screen.graduated", graduated);
        out.layer("screen.graduation_rate", graduated / nf);
        out.layer("screen.screen_ms_per_op", 1e3 * funnel.screen_s / nf);
        out.layer(
            "screen.full_ms_per_graduate",
            1e3 * funnel.full_s / graduated.max(1.0),
        );
        let hits = stats::median(&tr.persisted_hits);
        out.layer("store.hits", hits);
        out.layer("store.hit_rate", hits / nf);
        store_layers(&mut out, tracer, &s, &ctx.out_dir);

        let (pass_s, busy_s) = chunk_pass(tracer, &s);
        let drain_s = stats::median(&tracer.durations("serve_screen.cold"));
        out.layer("serve.bytes_written_kb", stats::median(&tr.written_kb));
        out.layer("serve.manifest_kb", stats::median(&tr.manifest_kb));
        out.layer("serve.overhead_ms_per_op", 1e3 * (drain_s - pass_s) / nf);
        out.layer(
            "serve.slot_idle_ms",
            1e3 * (machine::nproc() as f64 * drain_s - busy_s),
        );
        out.layer(
            "serve.reopen_ms",
            1e3 * stats::median(&tracer.durations("serve.reopen")),
        );
        // Share of the daemon's slot time the same chunks keep busy.
        let slot_s = machine::nproc() as f64 * drain_s;
        out.layer("bench.blocking_coverage_pct", 100.0 * busy_s / slot_s);

        let id = tracer.open("acopf.evaluate");
        for (net, r) in &last_results {
            std::hint::black_box(SolutionQuality::evaluate(net, &r.solution));
        }
        tracer.close(id);
        out.layer(
            "acopf.evaluate_us",
            1e6 * tracer.total("acopf.evaluate") / last_results.len().max(1) as f64,
        );
        out.layer("grid.build_ms", 1e3 * s.build_s);
        crate::layers::trace_overhead(&mut out);
        tracer.set_enabled(false);
    }
    let _ = std::fs::remove_dir_all(&s.dir);
    out
}

/// Both jobs' chunk partitions through `runner::run_chunk` on as many
/// threads as the daemon has slots, without the daemon: returns the pass's
/// wall-clock and the summed per-chunk busy time, in seconds. Each chunk is
/// timed on its thread and recorded as a span under the pass's span.
fn chunk_pass(tracer: &mut Tracer, s: &Setup) -> (f64, f64) {
    let stores = FrozenStores::freeze(&SolutionStore::new(), &SolutionStore::new());
    let work: Vec<(&Job, JobSpec, &Vec<usize>)> = s
        .jobs
        .iter()
        .flat_map(|j| j.chunks.iter().map(move |c| (j, j.spec(false), c)))
        .collect();
    let next = AtomicUsize::new(0);
    let chunks = Mutex::new(Vec::new());
    let id = tracer.open("serve.run_chunk_pass");
    std::thread::scope(|scope| {
        for _ in 0..machine::nproc() {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                let Some((job, spec, chunk)) = work.get(c) else {
                    break;
                };
                let start = Instant::now();
                std::hint::black_box(run_chunk(spec, &job.nets, chunk, &stores));
                let end = Instant::now();
                chunks
                    .lock()
                    .expect("no chunk thread panics holding the lock")
                    .push((start, end));
            });
        }
    });
    for (start, end) in chunks.into_inner().expect("chunk threads joined") {
        tracer.record("serve.run_chunk", start, end);
    }
    tracer.close(id);
    (
        tracer.total("serve.run_chunk_pass"),
        tracer.total("serve.run_chunk"),
    )
}

/// Persisted-store figures: the ADMM store file the drained daemon left,
/// timed through `SolutionStore::load`, `save` and `nearest`.
fn store_layers(out: &mut Outcome, tracer: &mut Tracer, s: &Setup, out_dir: &Path) {
    const REPEATS: usize = 3;
    let path = s.dir.join("store-admm.json");
    let file_kb = std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64 / 1024.0);
    let mut store = SolutionStore::<WarmState>::new();
    for _ in 0..REPEATS {
        let id = tracer.open("store.load");
        let loaded = SolutionStore::<WarmState>::load(&path);
        tracer.close(id);
        match loaded {
            Ok(st) => store = st,
            Err(e) => out.broken(format!("store reload: {e}")),
        }
    }
    let copy = out_dir.join(format!("store-copy-{}.json", std::process::id()));
    for _ in 0..REPEATS {
        let id = tracer.open("store.save");
        let saved = store.save(&copy);
        tracer.close(id);
        if let Err(e) = saved {
            out.broken(format!("store save: {e}"));
        }
    }
    let _ = std::fs::remove_file(&copy);
    let fps: Vec<ScenarioFingerprint> = s
        .jobs
        .iter()
        .flat_map(|j| j.nets.iter().map(ScenarioFingerprint::of_network))
        .collect();
    let id = tracer.open("store.nearest");
    for fp in &fps {
        std::hint::black_box(store.nearest(CASE.id(), fp));
    }
    tracer.close(id);
    let lookup_s = tracer.total("store.nearest") / fps.len().max(1) as f64;
    out.layer("store.lookup_us", 1e6 * lookup_s);
    out.layer(
        "store.save_ms",
        1e3 * stats::median(&tracer.durations("store.save")),
    );
    out.layer(
        "store.load_ms",
        1e3 * stats::median(&tracer.durations("store.load")),
    );
    out.layer("store.file_kb", file_kb);
}
