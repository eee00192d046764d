//! The `bench` command line, checked in full before anything runs: an
//! unknown command or flag, a flag without a value, an unknown Figure 9
//! panel, or `--trace` on a probe that does not trace is an error here, not
//! minutes into a run.

use std::path::PathBuf;

use crate::figures::{fig9, Figure};
use crate::probe::Probe;
use crate::probes;

pub const USAGE: &str = "\
usage: bench <probe> [--json PATH] [--trace PATH]
       bench <figure> [--json PATH] [--workload a|b|c|u]
       bench all --out DIR
       bench gate [--baseline-dir DIR] [--fresh-dir DIR] [--diff PATH]
probes:  put_get repl pipeline breakdown txn cluster cleaning shard_scaling sim
         baselines (--trace: breakdown only)
figures: fig1 fig2 fig9 fig10 fig11 ablations (--workload: fig9 only)
EF_OPS_SCALE (a positive number, default 1) scales every run's op count.";

/// What `bench` was asked to do.
pub enum Command {
    /// Run one gated probe; write its report to `json` and, for a traced
    /// probe, its last run's Chrome trace to `trace`.
    Probe {
        probe: Probe,
        json: Option<PathBuf>,
        trace: Option<PathBuf>,
    },
    /// Regenerate one figure; write its report to `json`.
    Figure {
        figure: Figure,
        json: Option<PathBuf>,
    },
    /// Run every gated probe and write its `BENCH_<name>.json` into `out`.
    All { out: PathBuf },
    /// Compare every `BENCH_*.json` in `baseline_dir` with its namesake in
    /// `fresh_dir` (see [`crate::gate`]) and write the diff to `diff`.
    Gate {
        baseline_dir: PathBuf,
        fresh_dir: PathBuf,
        diff: PathBuf,
    },
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((name, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let name = name.as_str();
    if name == "all" {
        let flags = Flags::parse(rest, &["out"])?;
        let out = flags.get("out").ok_or("bench all requires --out DIR")?;
        return Ok(Command::All { out: out.into() });
    }
    if name == "gate" {
        let flags = Flags::parse(rest, &["baseline-dir", "fresh-dir", "diff"])?;
        return Ok(Command::Gate {
            baseline_dir: flags.get("baseline-dir").unwrap_or(".").into(),
            fresh_dir: flags.get("fresh-dir").unwrap_or("fresh").into(),
            diff: flags.get("diff").unwrap_or("bench-gate-diff.json").into(),
        });
    }
    if let Some(figure) = Figure::named(name) {
        let allowed: &[&str] = match figure {
            Figure::Fig9(_) => &["json", "workload"],
            _ => &["json"],
        };
        let flags = Flags::parse(rest, allowed)?;
        let figure = match flags.get("workload") {
            Some(letter) => Figure::Fig9(vec![fig9::panel(letter)?]),
            None => figure,
        };
        let json = flags.get("json").map(PathBuf::from);
        return Ok(Command::Figure { figure, json });
    }
    let Some(probe) = probes::gated().into_iter().find(|p| p.name == name) else {
        return Err(format!("unknown probe or figure {name:?}"));
    };
    let flags = Flags::parse(rest, &["json", "trace"])?;
    if flags.get("trace").is_some() && !probe.traced {
        return Err(format!("--trace: probe {name} does not trace"));
    }
    Ok(Command::Probe {
        probe,
        json: flags.get("json").map(PathBuf::from),
        trace: flags.get("trace").map(PathBuf::from),
    })
}

/// `--name value` / `--name=value` pairs, each name one of a command's
/// flags and each value non-empty.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            let (name, value) = match flag.split_once('=') {
                Some((name, value)) => (name, value),
                None => (flag, args.next().map_or("", String::as_str)),
            };
            if !allowed.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            if value.is_empty() || value.starts_with("--") {
                return Err(format!("--{name} requires a value"));
            }
            flags.push((name.to_string(), value.to_string()));
        }
        Ok(Flags(flags))
    }

    /// The last value given for `name`.
    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The command `line` parses to, or its error.
    fn parsed(line: &str) -> String {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        match parse(&args) {
            Ok(Command::Probe { probe, json, trace }) => {
                format!("probe {} {json:?} {trace:?}", probe.name)
            }
            Ok(Command::Figure { figure, json }) => format!("{figure:?} {json:?}"),
            Ok(Command::All { out }) => format!("all {out:?}"),
            Ok(Command::Gate {
                baseline_dir,
                fresh_dir,
                diff,
            }) => format!("gate {baseline_dir:?} {fresh_dir:?} {diff:?}"),
            Err(e) => format!("error: {e}"),
        }
    }

    fn check(cases: &[(&str, &str)]) {
        for (line, want) in cases {
            assert_eq!(parsed(line), *want, "{line:?}");
        }
    }

    #[test]
    fn valid_command_lines_parse() {
        check(&[
            ("txn", "probe txn None None"),
            ("txn --json out.json", "probe txn Some(\"out.json\") None"),
            (
                "breakdown --json=b.json --trace t.json",
                "probe breakdown Some(\"b.json\") Some(\"t.json\")",
            ),
            ("fig9", "Fig9([C, B, A, UpdateOnly]) None"),
            (
                "fig9 --workload u --json f.json",
                "Fig9([UpdateOnly]) Some(\"f.json\")",
            ),
            ("ablations", "Ablations None"),
            ("all --out fresh", "all \"fresh\""),
            (
                "gate --fresh-dir f",
                "gate \".\" \"f\" \"bench-gate-diff.json\"",
            ),
        ]);
    }

    #[test]
    fn unknown_probe_is_rejected() {
        check(&[
            ("", "error: missing command"),
            ("summary", "error: unknown probe or figure \"summary\""),
            (
                "repl_overhead",
                "error: unknown probe or figure \"repl_overhead\"",
            ),
        ]);
    }

    #[test]
    fn unknown_flag_is_rejected() {
        check(&[
            ("txn --jsn x", "error: unknown flag --jsn"),
            ("fig1 --workload a", "error: unknown flag --workload"),
            ("gate --out x", "error: unknown flag --out"),
            ("fig10 extra", "error: unexpected argument \"extra\""),
            ("all", "error: bench all requires --out DIR"),
        ]);
    }

    #[test]
    fn flag_without_value_is_rejected() {
        check(&[
            ("txn --json", "error: --json requires a value"),
            ("txn --json=", "error: --json requires a value"),
            (
                "breakdown --json --trace t",
                "error: --json requires a value",
            ),
            ("fig9 --workload", "error: --workload requires a value"),
        ]);
    }

    #[test]
    fn unknown_workload_is_rejected() {
        check(&[(
            "fig9 --workload x",
            "error: unknown --workload \"x\" (expected a, b, c or u)",
        )]);
    }

    #[test]
    fn trace_on_an_untraced_probe_is_rejected() {
        check(&[
            (
                "put_get --trace t.json",
                "error: --trace: probe put_get does not trace",
            ),
            ("fig2 --trace t.json", "error: unknown flag --trace"),
        ]);
    }
}
