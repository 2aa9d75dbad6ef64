//! Steadiness mode: run every workload several times, alternating the
//! workload order between passes, and print each end-to-end metric's
//! median, quartiles, range and quartile spread as a share of the median.
//! These are the figures the bounds in `BENCHMARK.json` are set from.

use crate::stats;
use std::collections::BTreeMap;
use std::process::Command;

/// Runs `runs` passes; returns the process exit code.
pub fn run(runs: usize, seconds: u64) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return 1;
        }
    };
    // (workload, metric) -> values; plus failed shares per workload.
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut failed_share: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for pass in 0..runs {
        let mut order = crate::WORKLOADS;
        if pass % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = 1000 + pass as u64;
            let output = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output();
            let output = match output {
                Ok(o) if o.status.success() => o,
                Ok(o) => {
                    eprintln!("{w} seed {seed}: exit {:?}", o.status.code());
                    return 1;
                }
                Err(e) => {
                    eprintln!("{w} seed {seed}: {e}");
                    return 1;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let Some(last) = stdout.lines().last() else {
                eprintln!("{w} seed {seed}: no output");
                return 1;
            };
            let v: serde::Value = match serde_json::from_str(last) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("{w} seed {seed}: bad result line: {e:?}");
                    return 1;
                }
            };
            let num = |k: &str| v.get(k).and_then(serde::Value::as_num).unwrap_or(f64::NAN);
            failed_share
                .entry(w.to_string())
                .or_default()
                .push(num("failed") / num("attempted"));
            if let Some(serde::Value::Map(metrics)) = v.get("metrics") {
                for (name, m) in metrics {
                    let value = m
                        .get("value")
                        .and_then(serde::Value::as_num)
                        .unwrap_or(f64::NAN);
                    values
                        .entry((w.to_string(), name.clone()))
                        .or_default()
                        .push(value);
                }
            }
            eprintln!("pass {pass} {w} seed {seed}: {last}");
        }
    }
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "workload", "metric", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for ((w, m), v) in &values {
        let (q1, q3) = stats::quartiles(v);
        let med = stats::median(v);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{w:<14} {m:<16} {med:>12.4} {q1:>12.4} {q3:>12.4} {min:>12.4} {max:>12.4} {:>7.1}%",
            100.0 * (q3 - q1) / med
        );
    }
    for (w, shares) in &failed_share {
        println!("{w:<14} failed share per run: {shares:?}");
    }
    0
}
