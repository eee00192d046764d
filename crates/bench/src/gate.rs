//! Perf-regression gate: exact comparison of whole `BENCH_*.json` reports.
//!
//! The simulator is deterministic, so a fresh full-scale run of a probe
//! reproduces its committed report exactly, and any difference is a code
//! change. The gate walks every `BENCH_*.json` in the baseline directory
//! against its namesake in the fresh directory and reports every leaf that
//! differs. Three rules:
//!
//! * array elements that carry a `label` (or `name`) are matched by it —
//!   run entries by label, acceptance bounds by name — and by position
//!   otherwise;
//! * objects named `wall` hold wall-clock numbers and are skipped;
//! * the top-level `bounds` list is not diffed: each fresh bound's `value`
//!   is checked against its own `min` or `max` instead.
//!
//! Refreshing a baseline (rerun the probe, commit its report) is the only
//! way to move a number. The reports are parsed with the small reader
//! below; the repo's JSON writer lives in `efactory-obs`.

use std::fmt;
use std::path::Path;

/// Parsed JSON value. Numbers keep their source text, so comparison is
/// exact (op fingerprints exceed `f64` precision).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document; trailing whitespace is allowed,
    /// trailing garbage is not.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Leaves render as JSON text; containers as `{…}` / `[…]`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => f.write_str(n),
            Json::Str(s) => write!(f, "\"{}\"", efactory_obs::json::escape(s)),
            Json::Arr(_) => f.write_str("[…]"),
            Json::Obj(_) => f.write_str("{…}"),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    let close = match b.get(*pos) {
        None => return Err("unexpected end of input".into()),
        Some(b'{') => b'}',
        Some(b'[') => b']',
        Some(b'"') => return Ok(Json::Str(parse_string(b, pos)?)),
        Some(_) => return parse_scalar(b, pos),
    };
    let is_obj = close == b'}';
    *pos += 1;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
    } else {
        loop {
            skip_ws(b, pos);
            let mut key = String::new();
            if is_obj {
                key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
            }
            members.push((key, parse_value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(&c) if c == close => {
                    *pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '{}' at byte {pos}", close as char)),
            }
        }
    }
    Ok(if is_obj {
        Json::Obj(members)
    } else {
        Json::Arr(members.into_iter().map(|(_, v)| v).collect())
    })
}

fn parse_scalar(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    for (word, v) in [
        ("true", Json::Bool(true)),
        ("false", Json::Bool(false)),
        ("null", Json::Null),
    ] {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            return Ok(v);
        }
    }
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).unwrap_or_default();
    match text.parse::<f64>() {
        Ok(_) => Ok(Json::Num(text.to_string())),
        Err(_) => Err(format!("bad value at byte {start}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    // The input is a `&str`, so the raw bytes between escapes are UTF-8.
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return String::from_utf8(out).map_err(|_| "invalid utf-8".into()),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                let ch = match esc {
                    b'"' | b'\\' | b'/' => esc as char,
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'u' => {
                        let code = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        *pos += 4;
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    _ => return Err(format!("bad escape '\\{}'", esc as char)),
                };
                out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
            }
            _ => out.push(c),
        }
    }
    Err("unterminated string".into())
}

/// Why a leaf fails the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Present on both sides with different values.
    Changed,
    /// Present on one side only.
    Missing,
    /// A fresh acceptance bound outside its limit.
    Violated,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Changed => "changed",
            Verdict::Missing => "missing",
            Verdict::Violated => "violated",
        }
    }
}

/// One failing leaf: its path, and the baseline and fresh values as JSON
/// text (`-` when absent; a violated bound shows its limit as baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    pub path: String,
    pub baseline: String,
    pub fresh: String,
    pub verdict: Verdict,
}

fn diff(path: String, baseline: Option<&Json>, fresh: Option<&Json>, verdict: Verdict) -> Diff {
    let text = |v: Option<&Json>| v.map_or("-".to_string(), Json::to_string);
    Diff {
        path,
        baseline: text(baseline),
        fresh: text(fresh),
        verdict,
    }
}

/// A container's children, each with the path step that names it: `key`
/// for object members, `[id]` for array elements that all carry a unique
/// `label` or `name`, and `[index]` otherwise.
fn children(v: &Json) -> Option<Vec<(String, &Json)>> {
    fn id(e: &Json) -> Option<&str> {
        e.get("label").or_else(|| e.get("name"))?.as_str()
    }
    match v {
        Json::Obj(m) => Some(m.iter().map(|(k, v)| (k.clone(), v)).collect()),
        Json::Arr(items) => {
            let ids: Option<Vec<&str>> = items.iter().map(id).collect();
            let unique = |ids: &Vec<&str>| (1..ids.len()).all(|i| !ids[..i].contains(&ids[i]));
            let steps: Vec<String> = match ids.filter(unique) {
                Some(ids) => ids.iter().map(|id| format!("[{id}]")).collect(),
                None => (0..items.len()).map(|i| format!("[{i}]")).collect(),
            };
            Some(steps.into_iter().zip(items).collect())
        }
        _ => None,
    }
}

fn find<'a>(kids: &[(String, &'a Json)], step: &str) -> Option<&'a Json> {
    kids.iter().find(|(s, _)| s == step).map(|&(_, v)| v)
}

fn join(path: &str, step: &str) -> String {
    if path.is_empty() || step.starts_with('[') {
        format!("{path}{step}")
    } else {
        format!("{path}.{step}")
    }
}

/// Append every leaf under `path` that differs between baseline `b` and
/// fresh `f`, or exists on one side only.
fn walk(path: &str, b: &Json, f: &Json, out: &mut Vec<Diff>) {
    let (Some(bc), Some(fc)) = (children(b), children(f)) else {
        if b != f {
            out.push(diff(path.to_string(), Some(b), Some(f), Verdict::Changed));
        }
        return;
    };
    for (step, bv) in &bc {
        match find(&fc, step) {
            None => out.push(diff(join(path, step), Some(bv), None, Verdict::Missing)),
            // Wall clocks differ run to run; bound values are checked
            // against their limits by `check_bounds`.
            Some(_) if step == "wall" || path == "bounds" => {}
            Some(fv) => walk(&join(path, step), bv, fv, out),
        }
    }
    for (step, fv) in &fc {
        if find(&bc, step).is_none() {
            out.push(diff(join(path, step), None, Some(fv), Verdict::Missing));
        }
    }
}

/// Every failing leaf of `fresh` against `baseline`: exact differences
/// outside `wall` and `bounds`, plus the fresh report's violated bounds.
pub fn compare(baseline: &Json, fresh: &Json) -> Vec<Diff> {
    let mut out = Vec::new();
    walk("", baseline, fresh, &mut out);
    out.extend(check_bounds(fresh));
    out
}

/// The bounds in `report` whose `value` lies outside its `min` or `max`
/// (a bound with neither, or with no numeric value, is violated too).
pub fn check_bounds(report: &Json) -> Vec<Diff> {
    let Some(Json::Arr(bounds)) = report.get("bounds") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for b in bounds {
        let num = |k: &str| b.get(k).and_then(Json::as_f64);
        let (limit, held) = match (num("value"), num("min"), num("max")) {
            (Some(v), Some(min), None) => (format!("min {min}"), v >= min),
            (Some(v), None, Some(max)) => (format!("max {max}"), v <= max),
            _ => ("malformed".to_string(), false),
        };
        if !held {
            let name = b.get("name").and_then(Json::as_str).unwrap_or("?");
            let path = format!("bounds[{name}]");
            let mut d = diff(path, None, b.get("value"), Verdict::Violated);
            d.baseline = limit;
            out.push(d);
        }
    }
    out
}

/// Read and parse one report.
pub fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `BENCH_*.json` file names in `dir`, sorted.
pub fn bench_files(dir: &Path) -> Result<Vec<String>, String> {
    let read = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<String> = read
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    files.sort();
    Ok(files)
}

/// Gate every `BENCH_*.json` in `baseline_dir` against its namesake in
/// `fresh_dir`. Returns the files compared and every failing leaf, paths
/// prefixed with the file name; a fresh file that is absent or does not
/// parse is one `missing` diff.
pub fn compare_dirs(
    baseline_dir: &Path,
    fresh_dir: &Path,
) -> Result<(Vec<String>, Vec<Diff>), String> {
    let files = bench_files(baseline_dir)?;
    let mut diffs = Vec::new();
    for file in &files {
        let baseline = load(&baseline_dir.join(file))?;
        match load(&fresh_dir.join(file)) {
            Ok(fresh) => diffs.extend(compare(&baseline, &fresh).into_iter().map(|d| Diff {
                path: format!("{file}:{}", d.path),
                ..d
            })),
            Err(e) => diffs.push(Diff {
                fresh: e,
                ..diff(file.clone(), Some(&baseline), None, Verdict::Missing)
            }),
        }
    }
    Ok((files, diffs))
}

/// Render the gate's artifact JSON.
pub fn diff_json(files: &[String], diffs: &[Diff]) -> String {
    use efactory_obs::json::{escape, Arr, Obj};
    let names = files
        .iter()
        .fold(Arr::new(), |a, f| a.raw(&format!("\"{}\"", escape(f))));
    let rows = diffs.iter().fold(Arr::new(), |a, d| {
        let row = Obj::new()
            .str("path", &d.path)
            .str("baseline", &d.baseline)
            .str("fresh", &d.fresh)
            .str("verdict", d.verdict.as_str());
        a.raw(&row.finish())
    });
    Obj::new()
        .str("schema", "efactory-bench-gate/v2")
        .bool("pass", diffs.is_empty())
        .raw("files", &names.finish())
        .raw("diffs", &rows.finish())
        .finish()
}
