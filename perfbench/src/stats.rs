//! Small helpers: order statistics, process memory, the run context and
//! the result line.

use std::fmt::Write as _;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (VmHWM), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status.lines().find_map(|l| l.strip_prefix("VmHWM:")).and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok()).map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `nproc`, worker count, commit and compiler, for comparing like with like.
pub fn run_context(jobs: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Only ask git inside a repository root, so a checkout nested in some
    // other repository does not report that repository's commit.
    let commit = if std::path::Path::new(".git").exists() { command_line("git", &["rev-parse", "HEAD"]) } else { None };
    let rustc = command_line("rustc", &["-V"]);
    format!("nproc={nproc} jobs={jobs} commit={} rustc=\"{}\"", commit.as_deref().unwrap_or("unknown"), rustc.as_deref().unwrap_or("unknown"))
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    out.push_str("}}");
    out
}
