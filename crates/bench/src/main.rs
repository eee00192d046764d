//! `bench` — the paper's figures, the gated `BENCH_*.json` probes, and
//! the perf-regression gate in one binary; the command line is in
//! [`efactory_bench::cli`]. A report is written only where a path is given.

use std::path::Path;
use std::process::ExitCode;

use efactory_bench::cli::{self, Command, USAGE};
use efactory_bench::gate::{compare_dirs, diff_json};
use efactory_bench::{probes, Scale};
use efactory_harness::Report;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = std::env::var_os("EF_OPS_SCALE").map(|v| v.to_string_lossy().into_owned());
    let parsed = Scale::parse(scale.as_deref()).and_then(|s| Ok((s, cli::parse(&args)?)));
    let (scale, command) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let written = match command {
        Command::Probe { probe, json, trace } => probe
            .run(scale, trace.as_deref())
            .and_then(|report| write(&report, json.as_deref())),
        Command::Figure { figure, json } => write(&figure.run(scale), json.as_deref()),
        Command::All { out } => all(scale, &out),
        Command::Gate {
            baseline_dir,
            fresh_dir,
            diff,
        } => return gate(&baseline_dir, &fresh_dir, &diff),
    };
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Write `report` to `path`, if one was given.
fn write(report: &Report, path: Option<&Path>) -> Result<(), String> {
    let Some(path) = path else {
        return Ok(());
    };
    report
        .write_to(path)
        .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    println!("json report written to {}", path.display());
    Ok(())
}

/// Run every gated probe and write its report into `out`.
fn all(scale: Scale, out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    for probe in probes::gated() {
        let report = probe.run(scale, None)?;
        write(&report, Some(&out.join(probe.file_name())))?;
        println!();
    }
    Ok(())
}

fn gate(baseline_dir: &Path, fresh_dir: &Path, diff_path: &Path) -> ExitCode {
    let (files, diffs) = match compare_dirs(baseline_dir, fresh_dir) {
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
    if let Err(e) = std::fs::write(diff_path, diff_json(&files, &diffs) + "\n") {
        eprintln!("error: failed to write {}: {e}", diff_path.display());
        return ExitCode::from(2);
    }
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
            "(a deliberate change reruns `bench all --out .` and commits BENCH_*.json with it)"
        );
        ExitCode::FAILURE
    }
}
