//! # efactory-bench — benchmark harness
//!
//! Two families of binaries (`src/bin/`):
//!
//! * **Per-figure binaries** (`fig*`, `summary`, `ablations`) regenerate
//!   every table and figure of the paper's evaluation section. Run e.g.
//!   `cargo run --release -p efactory-bench --bin fig9`.
//! * **Probes** (`put_get`, `txn_bench`, `sim_throughput`, ...) each write
//!   one committed `BENCH_*.json` report, which `bench_gate` compares
//!   exactly against a fresh run ([`gate`]).
//!
//! Results are deterministic (virtual-time measurement on a seeded
//! simulator). The `EF_OPS_SCALE` environment variable scales the
//! per-client operation counts (default 1.0; smaller = faster, noisier).

use efactory_harness::{Bound, ExperimentSpec, LatencyStats, Report, RunResult, SystemKind};
use efactory_obs::json::Obj;
use efactory_ycsb::Mix;

pub mod gate;

/// The value sizes the paper sweeps in Figures 1, 2, and 9.
pub const VALUE_SIZES: [usize; 4] = [64, 256, 1024, 4096];

/// Scale an op count by `EF_OPS_SCALE`.
pub fn scaled_ops(base: usize) -> usize {
    let scale: f64 = std::env::var("EF_OPS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    ((base as f64 * scale) as usize).max(50)
}

/// Paper-flavored spec with the scaled default op count.
pub fn spec(system: SystemKind, mix: Mix, value_len: usize) -> ExperimentSpec {
    let mut s = ExperimentSpec::paper(system, mix, value_len);
    s.ops_per_client = scaled_ops(s.ops_per_client);
    s
}

/// The value of `--<flag> <path>` (or `--<flag>=<path>`) on the command
/// line, if the flag is given. A flag without a value exits with status 2
/// before the benchmark runs, not at write time minutes later.
pub fn path_flag(flag: &str) -> Option<String> {
    let path = parse_path_flag(std::env::args(), flag);
    if path.as_deref() == Some("") {
        eprintln!("error: --{flag} requires a path (use --{flag} <path> or --{flag}=<path>)");
        std::process::exit(2);
    }
    path
}

/// [`path_flag`] over explicit arguments; a valueless flag parses as `""`.
fn parse_path_flag(mut args: impl Iterator<Item = String>, flag: &str) -> Option<String> {
    let bare = format!("--{flag}");
    let joined = format!("--{flag}=");
    while let Some(a) = args.next() {
        if a == bare {
            return Some(args.next().unwrap_or_default());
        }
        if let Some(p) = a.strip_prefix(&joined) {
            return Some(p.to_string());
        }
    }
    None
}

/// A `--json <path>` report sink shared by every bench binary: records
/// entries only when a path was requested, and writes the rendered
/// [`Report`] on [`ReportSink::write`]. Pass `--json <path>` (or
/// `--json=<path>`) to any binary to emit its runs as JSON next to the
/// rendered table (schema: `EXPERIMENTS.md`).
pub struct ReportSink {
    report: Report,
    path: Option<String>,
}

impl ReportSink {
    /// Sink for `figure`, enabled iff `--json <path>` is on the command
    /// line.
    pub fn from_args(figure: &str) -> ReportSink {
        ReportSink::with_default_path(figure, None)
    }

    /// Like [`ReportSink::from_args`], but falls back to `default_path`
    /// when no `--json` flag is given (probes that always emit).
    pub fn with_default_path(figure: &str, default_path: Option<&str>) -> ReportSink {
        ReportSink {
            report: Report::new(figure),
            path: path_flag("json").or_else(|| default_path.map(str::to_string)),
        }
    }

    /// Whether entries are being recorded.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Record one cluster run (no-op when disabled).
    pub fn add(&mut self, label: &str, spec: &ExperimentSpec, result: &RunResult) {
        if self.enabled() {
            self.report.add(label, spec, result);
        }
    }

    /// Record one cluster run plus its wall-clock measurements (no-op when
    /// disabled).
    pub fn add_with_wall(
        &mut self,
        label: &str,
        spec: &ExperimentSpec,
        result: &RunResult,
        wall: Obj,
    ) {
        if self.enabled() {
            self.report.add_with_wall(label, spec, result, wall);
        }
    }

    /// Record a latency-only measurement (no-op when disabled).
    pub fn add_latency(&mut self, label: &str, stats: &LatencyStats) {
        if self.enabled() {
            self.report.add_latency(label, stats);
        }
    }

    /// Print an acceptance bound and record it in the report, where
    /// `bench_gate` checks it.
    pub fn bound(&mut self, name: &str, value: f64, limit: Bound) {
        let verdict = if limit.holds(value) { "ok" } else { "VIOLATED" };
        println!("bound {name} = {value:.2} ({limit}): {verdict}");
        if self.enabled() {
            self.report.bound(name, value, limit);
        }
    }

    /// Write the report if a path was requested.
    pub fn write(&self) {
        if let Some(p) = &self.path {
            self.report
                .write_to(p)
                .unwrap_or_else(|e| panic!("failed to write {p}: {e}"));
            println!("json report written to {p}");
        }
    }
}

/// Pretty size label (64B / 1KB / ...).
pub fn size_label(bytes: usize) -> String {
    if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

/// Mix label used in figure tables.
pub fn mix_tag(mix: Mix) -> &'static str {
    match mix {
        Mix::C => "YCSB-C 100%GET",
        Mix::B => "YCSB-B 95%GET",
        Mix::A => "YCSB-A 50%GET",
        Mix::UpdateOnly => "Update-only",
        Mix::T => "YCSB-T 50%TXN",
        Mix::TxnOnly => "Txn-only",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_labels() {
        assert_eq!(size_label(64), "64B");
        assert_eq!(size_label(1024), "1KB");
        assert_eq!(size_label(4096), "4KB");
        assert_eq!(size_label(100), "100B");
    }

    #[test]
    fn path_flag_parsing() {
        let parse = |v: &[&str], flag| parse_path_flag(v.iter().map(|s| s.to_string()), flag);
        assert_eq!(
            parse(&["bin", "--json", "out.json"], "json"),
            Some("out.json".into())
        );
        assert_eq!(
            parse(&["bin", "--trace=t.json"], "trace"),
            Some("t.json".into())
        );
        assert_eq!(parse(&["bin", "--json", "x"], "trace"), None);
        // A valueless flag parses as an empty path, which `path_flag`
        // rejects up front.
        assert_eq!(parse(&["bin", "--json"], "json"), Some(String::new()));
        assert_eq!(parse(&["bin", "--json="], "json"), Some(String::new()));
    }

    #[test]
    fn scaled_ops_has_floor() {
        // Without the env var the base passes through.
        std::env::remove_var("EF_OPS_SCALE");
        assert_eq!(scaled_ops(2000), 2000);
    }
}
