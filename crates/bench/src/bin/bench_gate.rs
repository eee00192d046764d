//! CI perf-regression gate.
//!
//! Compares every committed `BENCH_*.json` in the baseline directory with
//! the fresh full-scale report of the same name and fails (exit 1) on any
//! differing leaf or violated acceptance bound — see `efactory_bench::gate`
//! for the rules. Always writes a machine-readable diff
//! (`bench-gate-diff.json` by default) for upload as a CI artifact.
//!
//! ```text
//! bench_gate [--baseline-dir .] [--fresh-dir fresh] [--diff bench-gate-diff.json]
//! ```
//!
//! Each probe writes its default `BENCH_*.json` into the current
//! directory, so the fresh reports come from running every probe at full
//! scale inside the fresh directory (the refresh loop in EXPERIMENTS.md).
//! When a change moves a number on purpose, refresh the committed report
//! in the same change.

use std::path::PathBuf;
use std::process::ExitCode;

use efactory_bench::gate::{compare_dirs, diff_json};

fn main() -> ExitCode {
    let mut baseline_dir = PathBuf::from(".");
    let mut fresh_dir = PathBuf::from("fresh");
    let mut diff_path = PathBuf::from("bench-gate-diff.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--baseline-dir" => baseline_dir = val("--baseline-dir").into(),
            "--fresh-dir" => fresh_dir = val("--fresh-dir").into(),
            "--diff" => diff_path = val("--diff").into(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                eprintln!("usage: bench_gate [--baseline-dir DIR] [--fresh-dir DIR] [--diff PATH]");
                return ExitCode::from(2);
            }
        }
    }

    let (files, diffs) = match compare_dirs(&baseline_dir, &fresh_dir) {
        Ok((files, _)) if files.is_empty() => {
            eprintln!("error: no BENCH_*.json in {}", baseline_dir.display());
            return ExitCode::from(2);
        }
        Ok(found) => found,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &diffs {
        println!(
            "{:<8} {}  baseline {}  fresh {}",
            d.verdict.as_str(),
            d.path,
            d.baseline,
            d.fresh
        );
    }
    std::fs::write(&diff_path, diff_json(&files, &diffs) + "\n")
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", diff_path.display()));
    println!("diff written to {}", diff_path.display());

    if diffs.is_empty() {
        println!(
            "bench gate passed: {} report(s) identical, every bound held",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench gate FAILED: {} differing leaf/leaves across {} report(s)",
            diffs.len(),
            files.len()
        );
        eprintln!(
            "(a deliberate change refreshes BENCH_*.json in the same commit — see EXPERIMENTS.md)"
        );
        ExitCode::FAILURE
    }
}
