//! `bench_schema` — committed bench trajectories stay machine-readable.

use crate::diag::Diagnostic;
use crate::rules::Rule;
use crate::workspace::Workspace;
use wmp_obs::json::{self, Kind, Value};

/// Validates every committed root-level `BENCH_*.json` against the
/// `wmp_bench::report` schema (version 1):
///
/// - top-level keys are exactly `schema_version`, `bench`, `git`,
///   `test_mode`, `config`, `results` with the right types;
/// - `schema_version` is `1`;
/// - `bench` matches the file name (`BENCH_<bench>.json`);
/// - `config` values are numbers or strings;
/// - `results` is non-empty;
/// - every `results` entry has a string `name`, a finite positive `qps`,
///   a numeric `ns_per_query`, and nothing but numbers otherwise.
///
/// The trajectory files are a contract: later PRs diff them across
/// commits, so a silently drifted key means a broken baseline comparison.
pub struct BenchSchema;

const TOP_KEYS: &[(&str, &str)] = &[
    ("schema_version", "number"),
    ("bench", "string"),
    ("git", "string"),
    ("test_mode", "bool"),
    ("config", "object"),
    ("results", "array"),
];

impl Rule for BenchSchema {
    fn id(&self) -> &'static str {
        "bench_schema"
    }

    fn summary(&self) -> &'static str {
        "committed BENCH_*.json files match the wmp_bench::report schema"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for (file, contents) in &ws.bench_reports {
            let doc = match json::parse(contents) {
                Ok(doc) => doc,
                Err(e) => {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: file.clone(),
                        line: e.line,
                        col: e.col,
                        message: format!("invalid JSON: {}", e.message),
                    });
                    continue;
                }
            };
            self.check_doc(file, &doc, out);
        }
    }
}

impl BenchSchema {
    fn diag(&self, file: &str, value: &Value, message: String) -> Diagnostic {
        Diagnostic {
            rule: self.id(),
            file: file.to_string(),
            line: value.line,
            col: value.col,
            message,
        }
    }

    fn check_doc(&self, file: &str, doc: &Value, out: &mut Vec<Diagnostic>) {
        let Some(members) = doc.as_object() else {
            out.push(self.diag(file, doc, "top level must be an object".to_string()));
            return;
        };
        for (key, expected) in TOP_KEYS {
            match members.get(*key) {
                None => out.push(self.diag(
                    file,
                    doc,
                    format!("missing required key `{key}` ({expected})"),
                )),
                Some(v) if v.kind_name() != *expected => out.push(self.diag(
                    file,
                    v,
                    format!("`{key}` must be a {expected}, found {}", v.kind_name()),
                )),
                Some(_) => {}
            }
        }
        for (key, value) in members {
            if !TOP_KEYS.iter().any(|(k, _)| k == key) {
                out.push(self.diag(
                    file,
                    value,
                    format!("unknown top-level key `{key}` (not in schema version 1)"),
                ));
            }
        }
        if let Some(v) = members.get("schema_version") {
            if let Some(n) = v.as_f64().filter(|&n| n != 1.0) {
                out.push(self.diag(
                    file,
                    v,
                    format!("unsupported schema_version {n} (expected 1)"),
                ));
            }
        }
        if let Some(bench) = members.get("bench").and_then(|v| v.as_str()) {
            let expected = format!("BENCH_{bench}.json");
            if file != expected {
                out.push(self.diag(
                    file,
                    members.get("bench").unwrap_or(doc),
                    format!("`bench` is \"{bench}\" but the file is named {file}"),
                ));
            }
        }
        if let Some(config) = members.get("config").and_then(Value::as_object) {
            for (key, value) in config {
                if !matches!(value.kind, Kind::Number(_) | Kind::String(_)) {
                    out.push(self.diag(
                        file,
                        value,
                        format!(
                            "config entry `{key}` must be a number or string, found {}",
                            value.kind_name()
                        ),
                    ));
                }
            }
        }
        if let Some(results) = members.get("results") {
            match results.as_array() {
                Some([]) => out.push(self.diag(file, results, "`results` is empty".to_string())),
                Some(entries) => {
                    for entry in entries {
                        self.check_result(file, entry, out);
                    }
                }
                None => {}
            }
        }
    }

    fn check_result(&self, file: &str, entry: &Value, out: &mut Vec<Diagnostic>) {
        let Some(members) = entry.as_object() else {
            out.push(self.diag(file, entry, "results entries must be objects".to_string()));
            return;
        };
        match members.get("name") {
            Some(v) if v.as_str().is_some() => {}
            Some(v) => out.push(self.diag(
                file,
                v,
                format!("result `name` must be a string, found {}", v.kind_name()),
            )),
            None => out.push(self.diag(file, entry, "result entry missing `name`".to_string())),
        }
        if let Some(v) = members.get("qps") {
            if let Some(qps) = v.as_f64().filter(|q| !q.is_finite() || *q <= 0.0) {
                out.push(self.diag(
                    file,
                    v,
                    format!("result `qps` must be finite and positive, got {qps}"),
                ));
            }
        }
        for required in ["qps", "ns_per_query"] {
            match members.get(required) {
                Some(v) if v.as_f64().is_some() => {}
                Some(v) => out.push(self.diag(
                    file,
                    v,
                    format!("result `{required}` must be a number, found {}", v.kind_name()),
                )),
                None => {
                    out.push(self.diag(file, entry, format!("result entry missing `{required}`")))
                }
            }
        }
        for (key, value) in members {
            // `name`/`qps`/`ns_per_query` have their own checks above.
            if matches!(key.as_str(), "name" | "qps" | "ns_per_query") {
                continue;
            }
            if value.as_f64().is_none() {
                out.push(self.diag(
                    file,
                    value,
                    format!("result metric `{key}` must be numeric, found {}", value.kind_name()),
                ));
            }
        }
    }
}
