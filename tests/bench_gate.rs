//! The perf-regression gate (`efactory_bench::gate`) over the committed
//! `BENCH_*.json` reports: every report parses, carries the current
//! schema, compares clean against itself and holds its acceptance bounds;
//! the committed reports are exactly the declared gated probes' reports;
//! and the comparator fails exactly what it should — an edited counter, a
//! removed entry, a missing report, a violated bound — while ignoring
//! wall-clock fields.

use std::path::Path;

use efactory_bench::gate::{
    bench_files, check_bounds, compare, compare_dirs, diff_json, load, Diff, Json, Verdict,
};
use efactory_bench::probes;
use efactory_harness::report::{params_json, SCHEMA};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(file: &str) -> String {
    std::fs::read_to_string(root().join(file)).unwrap()
}

fn entries(report: &Json) -> &[Json] {
    match report.get("entries") {
        Some(Json::Arr(entries)) => entries,
        _ => panic!("report has no entries array"),
    }
}

#[test]
fn json_reader_round_trips_report_shapes() {
    let doc = r#"{"schema":"x","entries":[
        {"label":"Update-only/256B","mops":1.225547,"key_fp":8129262329725576572,
         "all":{"p99_ns":7649},"neg":-2.5e1,"flag":true,"none":null,
         "esc":"a\"b\\c\nA"}]}"#;
    let v = Json::parse(doc).unwrap();
    let e = &entries(&v)[0];
    assert_eq!(e.get("mops").unwrap().as_f64(), Some(1.225547));
    assert_eq!(
        e.get("all").unwrap().get("p99_ns").unwrap().as_f64(),
        Some(7649.0)
    );
    assert_eq!(e.get("neg").unwrap().as_f64(), Some(-25.0));
    assert_eq!(e.get("flag"), Some(&Json::Bool(true)));
    assert_eq!(e.get("none"), Some(&Json::Null));
    assert_eq!(e.get("esc").unwrap().as_str(), Some("a\"b\\c\nA"));
    // Numbers keep their text: fingerprints past 2^53 still compare exactly.
    assert_eq!(e.get("key_fp").unwrap().to_string(), "8129262329725576572");
    assert!(Json::parse("{\"a\":1} junk").is_err());
    assert!(Json::parse("[1,2").is_err());
    assert!(Json::parse("{\"a\":nope}").is_err());
}

#[test]
fn committed_reports_share_the_schema_and_hold_their_bounds() {
    let (files, diffs) = compare_dirs(root(), root()).unwrap();
    assert_eq!(files, bench_files(root()).unwrap());
    assert!(!files.is_empty(), "no committed BENCH_*.json");
    assert!(diffs.is_empty(), "a report differs from itself: {diffs:?}");
    for file in &files {
        let report = load(&root().join(file)).unwrap();
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some(SCHEMA),
            "{file}"
        );
        assert_eq!(check_bounds(&report), vec![], "{file}");
        // A committed breakdown folds every measured op, never a
        // partial trace.
        for e in entries(&report) {
            if let Some(b) = e.get("breakdown") {
                assert_eq!(
                    b.get("ops"),
                    e.get("total_ops"),
                    "{file}: partial breakdown"
                );
            }
        }
    }
}

/// Without running anything: the committed reports are the gated probes'
/// files, and each carries its probe's name, run labels in order, the
/// params of each declared full-scale spec, and the declared bounds. An
/// edited spec, label or limit fails here, naming file and path, until
/// `bench all --out .` refreshes the reports.
#[test]
fn committed_reports_match_the_declared_probes() {
    let gated = probes::gated();
    let mut declared: Vec<String> = gated.iter().map(|p| p.file_name()).collect();
    declared.sort();
    assert_eq!(bench_files(root()).unwrap(), declared, "committed vs gated");

    let mut mismatches = Vec::new();
    for probe in &gated {
        let file = probe.file_name();
        let report = load(&root().join(&file)).unwrap();
        let figure = report.get("figure").and_then(Json::as_str);
        if figure != Some(probe.name) {
            mismatches.push(format!(
                "{file}:figure = {figure:?}, declared {:?}",
                probe.name
            ));
        }
        let labels: Vec<&str> = entries(&report)
            .iter()
            .map(|e| e.get("label").and_then(Json::as_str).unwrap_or("?"))
            .collect();
        let declared: Vec<&str> = probe.runs.iter().map(|r| r.label.as_str()).collect();
        if labels != declared {
            mismatches.push(format!(
                "{file}:entries labels {labels:?}, declared {declared:?}"
            ));
            continue;
        }
        for (entry, run) in entries(&report).iter().zip(&probe.runs) {
            let want = Json::parse(&params_json(&run.spec)).unwrap();
            let got = entry.get("params").unwrap_or(&Json::Null);
            for d in compare(&want, got) {
                mismatches.push(format!(
                    "{file}:entries[{}].params.{} = {}, declared {}",
                    run.label, d.path, d.fresh, d.baseline
                ));
            }
        }
        let bounds: Vec<String> = match report.get("bounds") {
            Some(Json::Arr(bounds)) => bounds
                .iter()
                .map(|b| {
                    let name = b.get("name").and_then(Json::as_str).unwrap_or("?");
                    let limit: Vec<String> = ["min", "max"]
                        .iter()
                        .filter_map(|k| Some(format!("{k} {}", b.get(k)?)))
                        .collect();
                    format!("{name} {}", limit.join(" "))
                })
                .collect(),
            _ => vec![],
        };
        let declared: Vec<String> = probe
            .bounds
            .iter()
            .map(|b| format!("{} {}", b.name, b.limit))
            .collect();
        if bounds != declared {
            mismatches.push(format!("{file}:bounds {bounds:?}, declared {declared:?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "committed reports disagree with the declared probes \
         (refresh with `bench all --out .`):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn a_one_counter_edit_fails_and_names_its_path() {
    for file in bench_files(root()).unwrap() {
        // Bump the first counter of the first entry by one.
        let text = read(&file);
        let name_at = text.find("\"counters\":{\"").expect("entry counters") + 13;
        let name_end = name_at + text[name_at..].find('"').unwrap();
        let num_at = name_end + 2;
        let num_end = num_at + text[num_at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let n: u64 = text[num_at..num_end].parse().unwrap();
        let edited = format!("{}{}{}", &text[..num_at], n + 1, &text[num_end..]);

        let baseline = Json::parse(&text).unwrap();
        let diffs = compare(&baseline, &Json::parse(&edited).unwrap());
        let label = entries(&baseline)[0].get("label").and_then(Json::as_str);
        let path = format!(
            "entries[{}].counters.{}",
            label.unwrap(),
            &text[name_at..name_end]
        );
        let expected = Diff {
            path,
            baseline: n.to_string(),
            fresh: (n + 1).to_string(),
            verdict: Verdict::Changed,
        };
        assert_eq!(diffs, vec![expected], "{file}");
        let artifact = diff_json(std::slice::from_ref(&file), &diffs);
        assert!(artifact.contains("\"pass\":false"), "{artifact}");
        assert!(artifact.contains("\"verdict\":\"changed\""), "{artifact}");
    }
}

#[test]
fn a_removed_entry_or_report_fails_as_missing() {
    let baseline = load(&root().join("BENCH_cluster.json")).unwrap();
    let mut fresh = baseline.clone();
    let Json::Obj(members) = &mut fresh else {
        panic!("report is not an object")
    };
    let Some((_, Json::Arr(list))) = members.iter_mut().find(|(k, _)| k == "entries") else {
        panic!("report has no entries array")
    };
    let removed = list.pop().unwrap();
    let label = removed.get("label").and_then(Json::as_str).unwrap();
    let diffs = compare(&baseline, &fresh);
    let expected = Diff {
        path: format!("entries[{label}]"),
        baseline: "{…}".into(),
        fresh: "-".into(),
        verdict: Verdict::Missing,
    };
    assert_eq!(diffs, vec![expected]);

    // A fresh directory without the reports fails every one of them.
    let (files, diffs) = compare_dirs(root(), &root().join("no-such-dir")).unwrap();
    assert_eq!(diffs.len(), files.len());
    assert!(diffs.iter().all(|d| d.verdict == Verdict::Missing));
}

#[test]
fn an_edit_inside_wall_passes() {
    let text = read("BENCH_sim.json");
    let edited = text.replace("\"wall\":{\"wall_ns\":", "\"wall\":{\"wall_ns\":1");
    assert_ne!(text, edited);
    let diffs = compare(&Json::parse(&text).unwrap(), &Json::parse(&edited).unwrap());
    assert_eq!(diffs, vec![]);
}

#[test]
fn a_violated_bound_fails_even_when_reports_match() {
    let report = |speedup: &str, overhead: &str| {
        Json::parse(&format!(
            r#"{{"bounds":[{{"name":"speedup","value":{speedup},"min":2}},
                          {{"name":"overhead_pct","value":{overhead},"max":25}}],
                "entries":[]}}"#
        ))
        .unwrap()
    };
    let bad = report("1.900000", "3.000000");
    let expected = Diff {
        path: "bounds[speedup]".into(),
        baseline: "min 2".into(),
        fresh: "1.900000".into(),
        verdict: Verdict::Violated,
    };
    assert_eq!(compare(&bad, &bad), vec![expected]);
    // Bound values are checked, not diffed: a moved value within its
    // limit passes, and a fresh run past the limit fails.
    assert_eq!(compare(&report("2.5", "3"), &report("4.1", "24.9")), vec![]);
    let diffs = compare(&report("2.5", "3"), &report("2.5", "25.1"));
    assert_eq!(diffs.len(), 1);
    assert_eq!(diffs[0].path, "bounds[overhead_pct]");
    // A bound the fresh report no longer carries is missing.
    let dropped =
        Json::parse(r#"{"bounds":[{"name":"speedup","value":2.5,"min":2}],"entries":[]}"#).unwrap();
    let diffs = compare(&report("2.5", "3"), &dropped);
    assert_eq!(diffs.len(), 1);
    assert_eq!(
        (diffs[0].path.as_str(), diffs[0].verdict),
        ("bounds[overhead_pct]", Verdict::Missing)
    );
}
