//! The stack's benchmark: three closed-loop workloads over client → socket →
//! `lss-server` → `KvStore`/B+-tree → `LogStore` write path and cleaner → device.
//!
//! ```text
//! perfbench --workload <durable-write|read-mostly|gc-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced; `--trace 1` gives
//! the per-layer metrics. Each run checks its outputs, prints its context and every
//! metric by name and unit, and ends with one JSON line:
//! `{"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value", "unit"}}}`.
//! A run whose outputs are wrong prints why and exits non-zero without a result.
//! See README.md beside this file.

mod common;
mod device;
mod durable_write;
mod gc_churn;
mod gen;
mod kvcommon;
mod measure;
mod read_mostly;
mod trace;

use common::{filesystem_of, Outcome, Run};
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, measured with tracing off, reported by every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("write_amp", "ratio"),
    ("device_bytes_per_user_byte", "B/B"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run. A workload reports every one of them except
/// those it declares it does not exercise (its `NOT_EXERCISED`), which read 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("client.send_us_p50", "us"),
    ("client.recv_us_p50", "us"),
    ("client.put_us_p99", "us"),
    ("client.get_us_p99", "us"),
    ("client.scan_us_p50", "us"),
    ("client.scan_us_p99", "us"),
    ("server.get_overhead_us", "us"),
    ("server.put_overhead_us", "us"),
    ("server.reply_batching", "ratio"),
    ("server.errors", "count"),
    ("kv.get_us_p50", "us"),
    ("kv.get_us_p99", "us"),
    ("kv.put_us_p50", "us"),
    ("kv.range_us_p50", "us"),
    ("kv.flush_us_p50", "us"),
    ("kv.flush_us_p99", "us"),
    ("kv.flush_self_us_p50", "us"),
    ("kv.ops_per_flip", "ratio"),
    ("kv.rider_frac", "ratio"),
    ("kv.index_bytes_per_value_byte", "B/B"),
    ("kv.lss_pages_per_durable_put", "ratio"),
    ("tree.pool_hit_ratio", "ratio"),
    ("tree.pool_evictions_per_op", "ratio"),
    ("tree.read_restarts_per_op", "ratio"),
    ("tree.write_restarts_per_op", "ratio"),
    ("tree.fallbacks", "count"),
    ("tree.crab_depth", "ratio"),
    ("store.segments_sealed_per_op", "ratio"),
    ("store.absorbed_frac", "ratio"),
    ("store.device_read_frac", "ratio"),
    ("gc.cycles", "count"),
    ("gc.mean_emptiness", "ratio"),
    ("gc.pages_moved_per_cycle", "ratio"),
    ("gc.writer_stalls", "count"),
    ("gc.straggler_reclaims", "count"),
    ("gc.cycle_us_p50", "us"),
    ("gc.cycle_us_p99", "us"),
    ("gc.read_us_p50", "us"),
    ("gc.relocate_us_p50", "us"),
    ("gc.seal_us_p50", "us"),
    ("gc.sync_us_p50", "us"),
    ("gc.busy_frac", "ratio"),
    ("device.write_segment_count", "count"),
    ("device.write_bytes", "B"),
    ("device.write_segment_us_p50", "us"),
    ("device.write_segment_us_p99", "us"),
    ("device.sync_count", "count"),
    ("device.sync_us_p50", "us"),
    ("device.sync_us_p99", "us"),
    ("device.read_range_count", "count"),
    ("device.read_range_us_p50", "us"),
    ("device.read_segment_count", "count"),
    ("device.read_segment_us_p50", "us"),
    ("device.busy_frac", "ratio"),
    ("recovery.lss_s", "s"),
    ("recovery.kv_open_s", "s"),
    ("recovery.live_pages", "count"),
    ("trace.overhead_frac", "ratio"),
];

const WORKLOADS: &[&str] = &["durable-write", "read-mostly", "gc-churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // Free one large block first: glibc then serves the store's 256 KiB segment buffers
    // from its heap from the start, instead of switching over at a moment that differs
    // from run to run.
    drop(std::hint::black_box(vec![1u8; 4 << 20]));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The traced KV workloads keep their device files in the checkout, on the disk that
    // holds it, one directory per process; it is removed when the run ends, pass or fail.
    let dir = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        context: Vec::new(),
        dir: dir.clone(),
    };
    run.note("workload", &args.workload);
    run.note("seed", args.seed);
    run.note("seconds", args.seconds);
    run.note("trace", args.trace);
    run.note(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if args.trace {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        run.note("device_dir_filesystem", filesystem_of(&dir));
    }
    let (result, not_exercised) = match args.workload.as_str() {
        "durable-write" => (durable_write::run(&mut run), durable_write::NOT_EXERCISED),
        "read-mostly" => (read_mostly::run(&mut run), read_mostly::NOT_EXERCISED),
        _ => (gc_churn::run(&mut run), gc_churn::NOT_EXERCISED),
    };
    if args.trace {
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(".perfbench-work");
    }
    for line in &run.context {
        println!("{line}");
    }
    match result.and_then(|out| report(out, args.trace, not_exercised)) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Whether `name` is one of `not_exercised`: a metric name, or a layer prefix such as
/// `"kv."`.
fn declared(name: &str, not_exercised: &[&str]) -> bool {
    not_exercised
        .iter()
        .any(|d| name == *d || (d.ends_with('.') && name.starts_with(d)))
}

/// Print every metric of the mode by name and unit, and build the result line. A
/// traced run's metric the workload declared not exercised reads 0; any other missing
/// metric, or one measured although declared not exercised, fails the run.
fn report(mut out: Outcome, trace: bool, not_exercised: &[&str]) -> Result<String, String> {
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let skipped = trace && declared(name, not_exercised);
        let value = match out.metrics.remove(name) {
            Some(_) if skipped => return Err(format!("metric {name} is declared not exercised")),
            Some(v) => v,
            None if skipped => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(stray) = out.metrics.keys().next() {
        return Err(format!("metric {stray} is not declared for this mode"));
    }
    for line in &out.also {
        println!("{line}");
    }
    for note in &out.notes {
        println!("note {note}");
    }
    println!(
        "failed_ops_frac = {} ({} of {} ops)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if out.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(metrics: &[(&'static str, f64)]) -> Outcome {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for &(name, v) in metrics {
            out.set(name, v);
        }
        out
    }

    #[test]
    fn declared_matches_names_and_layer_prefixes() {
        let d = &["kv.", "recovery.kv_open_s"];
        assert!(declared("kv.get_us_p50", d));
        assert!(declared("recovery.kv_open_s", d));
        assert!(!declared("recovery.lss_s", d));
        assert!(!declared("kvx", d));
    }

    #[test]
    fn a_missing_per_layer_metric_fails_unless_declared() {
        let all: Vec<_> = PER_LAYER.iter().map(|&(n, _)| (n, 1.0)).collect();
        assert!(report(traced(&all), true, &[]).is_ok());
        let missing: Vec<_> = all
            .iter()
            .copied()
            .filter(|&(n, _)| n != "kv.get_us_p50")
            .collect();
        let e = report(traced(&missing), true, &[]).unwrap_err();
        assert!(e.contains("kv.get_us_p50 was not measured"), "{e}");
        let json = report(traced(&missing), true, &["kv.get_us_p50"]).unwrap();
        assert!(json.contains("\"kv.get_us_p50\": {\"value\": 0,"), "{json}");
        // A metric both declared and measured is an error in the declaration.
        assert!(report(traced(&all), true, &["kv."]).is_err());
    }
}
