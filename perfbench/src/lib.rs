//! End-to-end and per-layer benchmark of the VDM stack.
//!
//! One run builds the ERP database, drives one named workload against the
//! shipped serving path for a fixed time, checks the results, and reports
//! every metric `BENCHMARK.json` declares. `--trace 1` runs the workload
//! a second time, replaying the select path call by call under the
//! benchmark's own spans, and reports per-layer metrics. See README.md.

pub mod check;
pub mod client;
pub mod report;
pub mod setup;
pub mod spans;
pub mod stats;
pub mod workloads;

use report::Metric;
use std::fmt::Write as _;
use std::path::PathBuf;
use vdm_obs::util::{json_number, json_string};
use vdm_types::Result;
use workloads::{Config, Pass, Workload};

/// What one run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Provenance and diagnostics, one JSON object.
    pub record: String,
    /// Checks that failed.
    pub problems: Vec<String>,
}

/// Runs `cfg`: the untraced pass, and with `cfg.trace` the traced one.
pub fn run(cfg: &Config) -> Result<Outcome> {
    // A traced run splits its time between the untraced and the traced
    // pass, and reports no set-up time.
    let pass_cfg = match cfg.trace {
        true => Config { seconds: cfg.seconds / 2.0, setup_reps: 1, ..cfg.clone() },
        false => cfg.clone(),
    };
    let (untraced, setups) = workloads::run_pass(&pass_cfg, false)?;
    let traced = if cfg.trace { Some(workloads::run_pass(&pass_cfg, true)?.0) } else { None };
    let metrics = match &traced {
        None => report::end_to_end(&untraced, &setups),
        Some(traced) => report::per_layer(&untraced, traced),
    };
    let passes: Vec<&Pass> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let problems: Vec<String> = passes.iter().flat_map(|p| p.problems.clone()).collect();
    let attempted = passes.iter().map(|p| p.attempted()).sum();
    let failed = passes.iter().map(|p| p.failed()).sum();
    let record = record(cfg, &untraced, &setups, &metrics, &problems);
    if let Some(traced) = &traced {
        write_out(cfg, "spans.jsonl", &spans::to_jsonl(&traced.spans));
    }
    write_out(cfg, "record.json", &record);
    Ok(Outcome { correct: problems.is_empty(), attempted, failed, metrics, record, problems })
}

/// Writes a run's record or spans under `perfbench/out/`.
fn write_out(cfg: &Config, what: &str, text: &str) {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!(
        "{}-seed{}-trace{}-{what}",
        cfg.workload.name(),
        cfg.seed,
        cfg.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// The provenance record: host, configuration, sample counts behind each
/// percentile, failures, and every metric.
fn record(
    cfg: &Config,
    untraced: &Pass,
    setups: &[f64],
    metrics: &[Metric],
    problems: &[String],
) -> String {
    let (r50, r99) = report::tails(&untraced.reads.latency);
    let (w50, w99) = report::tails(&untraced.writes.latency);
    let mut out = String::from("{");
    let mut field = |k: &str, v: String| {
        let sep = if out.len() > 1 { ", " } else { "" };
        let _ = write!(out, "{sep}{}: {v}", json_string(k));
    };
    field("workload", json_string(cfg.workload.name()));
    field("seed", cfg.seed.to_string());
    field("seconds", json_number(cfg.seconds));
    field("trace", cfg.trace.to_string());
    field("host_nproc", workloads::cores().to_string());
    field("pool_workers", untraced.pool_workers.to_string());
    field("git_revision", json_string(&report::git_revision()));
    field("journal_rows", cfg.journal_rows.to_string());
    field("sessions", cfg.workload.clients().to_string());
    field("write_rows_per_s", workloads::WRITE_ROWS_PER_S.to_string());
    let write_share = if cfg.workload == Workload::Htap { 1.0 } else { workloads::WRITE_SHARE };
    field("write_share_of_run", json_number(write_share));
    field("setup_samples", setups.len().to_string());
    field("rss_reset", untraced.rss_reset.to_string());
    field("read_samples", r50.samples.to_string());
    field("read_tail_percentile", json_number(r99.percentile));
    field("write_samples", w50.samples.to_string());
    field("write_p99_us", json_number(w99.value));
    field("write_tail_percentile", json_number(w99.percentile));
    field("reads_failed", untraced.reads.failed.to_string());
    field("writes_failed", untraced.writes.failed.to_string());
    field("final_merges", untraced.merges.attempted().to_string());
    field("merges_failed", untraced.merges.failed.to_string());
    field(
        "failed_frac",
        json_number(untraced.failed() as f64 / untraced.attempted().max(1) as f64),
    );
    let errors: Vec<String> = [&untraced.reads, &untraced.writes, &untraced.merges]
        .iter()
        .flat_map(|log| log.errors.iter().map(|e| json_string(e)))
        .collect();
    field("errors", format!("[{}]", errors.join(", ")));
    let problems: Vec<String> = problems.iter().map(|p| json_string(p)).collect();
    field("check_failures", format!("[{}]", problems.join(", ")));
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}: {}", json_string(m.name), json_number(m.value)))
        .collect();
    field("metrics", format!("{{{}}}", metrics.join(", ")));
    out.push('}');
    out
}
