//! Per-layer metrics: the names, units and directions the traced run
//! reports, and the derivations more than one workload shares.

use crate::Outcome;
use gridsim_batch::StatsSnapshot;

/// Every per-layer metric and its unit, in `BENCHMARK.json` order. A
/// traced run reports all of them; one that does not apply to a workload
/// (no layer call of that kind on its path) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tron.blocks_per_op", "count"),
    ("tron.us_per_block", "us"),
    ("tron.busy_ms_per_op", "ms"),
    ("batch.launches_per_op", "count"),
    ("batch.host_us_per_launch", "us"),
    ("batch.other_kernels_ms_per_op", "ms"),
    ("batch.transfer_kb_per_op", "KB"),
    ("admm.inner_iterations_cold", "count"),
    ("admm.inner_iterations_warm", "count"),
    ("admm.period_p90_ms", "ms"),
    ("ipm.iterations_cold", "count"),
    ("ipm.iterations_warm", "count"),
    ("ipm.factorizations_per_op", "count"),
    ("ipm.line_search_trials_per_op", "count"),
    ("ipm.symbolic_analyses", "count"),
    ("ipm.ms_per_iteration", "ms"),
    ("ipm.nlp_eval_ms", "ms"),
    ("ipm.kkt_factor_ms", "ms"),
    ("ipm.kkt_solve_ms", "ms"),
    ("sparse.symbolic_ms", "ms"),
    ("engine.overhead_ms_per_op", "ms"),
    ("store.hits", "count"),
    ("store.hit_rate", "ratio"),
    ("store.lookup_us", "us"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.file_kb", "KB"),
    ("screen.graduated", "count"),
    ("screen.graduation_rate", "ratio"),
    ("screen.screen_ms_per_op", "ms"),
    ("screen.full_ms_per_graduate", "ms"),
    ("serve.bytes_written_kb", "KB"),
    ("serve.manifest_kb", "KB"),
    ("serve.overhead_ms_per_op", "ms"),
    ("serve.slot_idle_ms", "ms"),
    ("serve.reopen_ms", "ms"),
    ("grid.build_ms", "ms"),
    ("acopf.evaluate_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.blocking_coverage_pct", "%"),
];

/// Unit of a per-layer metric; panics on a name missing from the table.
pub fn unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not in PER_LAYER"))
        .1
}

/// TRON and launch-path metrics from a device-stats delta covering `ops`
/// solves that took `solve_s` seconds of solver wall-clock in total.
pub fn device_layers(out: &mut Outcome, d: &StatsSnapshot, ops: f64, solve_s: f64) {
    let ops = ops.max(1.0);
    let (tron_blocks, tron_s) = d
        .kernels
        .get("branch_tron")
        .map_or((0, 0.0), |k| (k.blocks, k.elapsed.as_secs_f64()));
    let busy_s = d.kernel_elapsed().as_secs_f64();
    let launches = d.total_launches().max(1) as f64;
    out.layer("tron.blocks_per_op", tron_blocks as f64 / ops);
    out.layer(
        "tron.us_per_block",
        1e6 * tron_s / tron_blocks.max(1) as f64,
    );
    out.layer("tron.busy_ms_per_op", 1e3 * tron_s / ops);
    out.layer("batch.launches_per_op", launches / ops);
    out.layer(
        "batch.host_us_per_launch",
        1e6 * (solve_s - busy_s) / launches,
    );
    out.layer(
        "batch.other_kernels_ms_per_op",
        1e3 * (busy_s - tron_s) / ops,
    );
    let bytes = d.host_to_device_bytes + d.device_to_host_bytes;
    out.layer("batch.transfer_kb_per_op", bytes as f64 / 1024.0 / ops);
}

/// Traced rounds against untraced rounds of the same run, per operation.
pub fn trace_overhead(out: &mut Outcome) {
    let per_op = |a: &crate::Phase, b: &crate::Phase| {
        (a.wall + b.wall).as_secs_f64() / (a.attempted + b.attempted).max(1) as f64
    };
    let plain = per_op(&out.cold, &out.warm);
    let traced = per_op(&out.traced_cold, &out.traced_warm);
    out.layer(
        "bench.trace_overhead_pct",
        100.0 * (traced - plain) / plain.max(f64::MIN_POSITIVE),
    );
}
