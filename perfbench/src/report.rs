//! Metric definitions and the result record.
//!
//! The metric names and units here are the ones `BENCHMARK.json` declares;
//! a test keeps the two in step.

use crate::spans::{self, Span};
use crate::stats::{median, sorted, tail, Tail};
use crate::workloads::Pass;
use std::collections::HashMap;
use std::fmt::Write as _;
use vdm_obs::util::{json_number, json_string};

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics (untraced runs), name and unit.
///
/// The write tail is not among them: on an idle store it times how often
/// a shared VM interrupts a 15 µs insert, and on a 2-vCPU VM its spread
/// over 10 runs of the same code reached 0.49 of its median. The record
/// keeps it, and `storage.insert_p99_us` reports the insert's tail per
/// layer.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("read_qps", "1/s"),
    ("write_p50_us", "us"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), name and unit.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("sql.parse_us", "us"),
    ("sql.shape_us", "us"),
    ("sql.bind_us", "us"),
    ("optimizer.optimize_us", "us"),
    ("optimizer.rewrites", "count"),
    ("plan.estimate_us", "us"),
    ("plan.digest_us", "us"),
    ("plan.joins_after", "count"),
    ("plan.bind_params_us", "us"),
    ("core.plan_cache_lookup_us", "us"),
    ("core.plan_cache_hit_rate", "frac"),
    ("core.reoptimizations", "count"),
    ("exec.execute_us", "us"),
    ("exec.rows_scanned_per_row", "rows"),
    ("exec.join_build_rows", "rows"),
    ("exec.operators", "count"),
    ("obs.overhead_us", "us"),
    ("storage.insert_us", "us"),
    ("storage.insert_p99_us", "us"),
    ("storage.merge_ms", "ms"),
    ("storage.delta_rows_max", "rows"),
    ("cache.maintain_us", "us"),
    ("cache.incremental_frac", "frac"),
    ("cache.delta_rows_per_maintain", "rows"),
    ("data.generate_s", "s"),
    ("storage.setup_merge_s", "s"),
    ("bench.gen_late_p99_ms", "ms"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// True when `name` uses only `[A-Za-z0-9_.-]`, starts with a letter or
/// digit and has at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metrics(defs: &[(&'static str, &'static str)], values: &HashMap<&str, f64>) -> Vec<Metric> {
    defs.iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: *values.get(name).unwrap_or_else(|| panic!("metric {name} was not computed")),
        })
        .collect()
}

/// Median and highest supported tail up to p99 of a latency sample.
pub fn tails(latency: &[f64]) -> (Tail, Tail) {
    let lat = sorted(latency.to_vec());
    let empty = Tail { value: 0.0, percentile: 0.0, samples: 0 };
    (tail(&lat, 0.5).unwrap_or(empty), tail(&lat, 0.99).unwrap_or(empty))
}

/// The end-to-end metrics of an untraced pass; `setups` are the set-up
/// times of the run's builds.
pub fn end_to_end(pass: &Pass, setups: &[f64]) -> Vec<Metric> {
    let (r50, r99) = tails(&pass.reads.latency);
    let (w50, _) = tails(&pass.writes.latency);
    let attempted = pass.attempted().max(1);
    let values = HashMap::from([
        ("setup_s", median(setups)),
        ("read_p50_ms", r50.value),
        ("read_p99_ms", r99.value),
        ("read_qps", pass.reads.ok as f64 / pass.read_wall_s.max(f64::EPSILON)),
        ("write_p50_us", w50.value),
        ("ok_frac", 1.0 - pass.failed() as f64 / attempted as f64),
        ("peak_rss_mb", pass.peak_rss_mb),
    ]);
    metrics(&END_TO_END, &values)
}

/// The per-layer metrics: self times from the traced pass's spans, counts
/// from both passes, and the tracing overhead between them.
pub fn per_layer(untraced: &Pass, traced: &Pass) -> Vec<Metric> {
    let spans = &traced.spans;
    let selfs = spans::self_times(spans);
    let med = |name: &str| median(&spans::self_us(spans, &selfs, name));
    let facts = &traced.facts;
    let exec = |f: &dyn Fn(&vdm_exec::Metrics, usize) -> f64| {
        median(&facts.exec.iter().map(|(m, rows)| f(m, *rows)).collect::<Vec<_>>())
    };
    let maintains = facts.incremental.len() + facts.full_refreshes;
    let incremental_rows: usize = facts.incremental.iter().sum();
    let late = sorted(untraced.gen_late_ms.clone());
    let values = HashMap::from([
        ("sql.parse_us", med("sql.parse")),
        ("sql.shape_us", med("sql.shape")),
        ("sql.bind_us", med("sql.bind")),
        ("optimizer.optimize_us", med("optimizer.optimize")),
        ("optimizer.rewrites", median(&facts.rewrites)),
        ("plan.estimate_us", med("plan.estimate")),
        ("plan.digest_us", med("plan.digest")),
        ("plan.joins_after", median(&facts.joins_after)),
        ("plan.bind_params_us", med("plan.bind_params")),
        ("core.plan_cache_lookup_us", med("core.plan_cache_lookup")),
        ("core.plan_cache_hit_rate", untraced.plan_cache_hit_rate),
        ("core.reoptimizations", untraced.reoptimizations as f64),
        ("exec.execute_us", med("exec.execute")),
        ("exec.rows_scanned_per_row", exec(&|m, rows| m.rows_scanned as f64 / rows.max(1) as f64)),
        ("exec.join_build_rows", exec(&|m, _| m.join_build_rows as f64)),
        ("exec.operators", exec(&|m, _| m.operators as f64)),
        ("obs.overhead_us", median(&obs_overhead_us(spans, &selfs))),
        ("storage.insert_us", med("storage.insert")),
        ("storage.insert_p99_us", tails(&spans::self_us(spans, &selfs, "storage.insert")).1.value),
        ("storage.merge_ms", med("storage.merge") / 1e3),
        ("storage.delta_rows_max", traced.delta_rows_max as f64),
        ("cache.maintain_us", med("cache.maintain")),
        (
            "cache.incremental_frac",
            if maintains == 0 { 0.0 } else { facts.incremental.len() as f64 / maintains as f64 },
        ),
        (
            "cache.delta_rows_per_maintain",
            if facts.incremental.is_empty() {
                0.0
            } else {
                incremental_rows as f64 / facts.incremental.len() as f64
            },
        ),
        ("data.generate_s", median(&[untraced.generate_s, traced.generate_s])),
        ("storage.setup_merge_s", median(&[untraced.merge_s, traced.merge_s])),
        ("bench.gen_late_p99_ms", tail(&late, 0.99).map_or(0.0, |t| t.value)),
        ("trace.unattributed_frac", spans::unattributed_frac(spans, &selfs)),
        (
            "trace.overhead_frac",
            tails(&traced.reads.latency).0.value / tails(&untraced.reads.latency).0.value - 1.0,
        ),
    ]);
    metrics(&PER_LAYER, &values)
}

/// Per operation: `execute_select`'s time minus `execute_parallel_at`'s on
/// the same bound plan, in µs. `execute_select` binds the parameters
/// again, so the replay's own `bind_params` time is subtracted too.
fn obs_overhead_us(spans: &[Span], selfs: &HashMap<u64, u64>) -> Vec<f64> {
    let by_op = |name: &str| -> HashMap<u64, u64> {
        spans.iter().filter(|s| s.name == name).map(|s| (s.op, selfs[&s.id])).collect()
    };
    let select = by_op("core.execute_select");
    let exec = by_op("exec.execute");
    let bind = by_op("plan.bind_params");
    select
        .iter()
        .filter_map(|(op, sel)| {
            let rest = exec.get(op)? + bind.get(op)?;
            Some((*sel as f64 - rest as f64) / 1e3)
        })
        .collect()
}

/// The last line of a run's output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// Returns the heap the throwaway set-ups freed to the kernel, then resets
/// the process's peak resident memory to its current size, so a later
/// [`peak_rss_mb`] covers only what ran in between. Without the trim, how
/// much freed heap the allocator kept moved the peak by 40%. False when
/// the kernel refused the reset.
pub fn reset_peak_rss() -> bool {
    trim_heap();
    // "5" resets VmHWM (Documentation/filesystems/proc.rst).
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only releases free heap pages.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Peak resident memory of this process in MB since the last
/// [`reset_peak_rss`] (Linux `VmHWM`); 0 where it cannot be read.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The git revision of the checkout, when it is a git work tree.
pub fn git_revision() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
