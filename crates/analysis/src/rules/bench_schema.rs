//! `bench_schema` — committed benchmark baselines match `BENCHMARK.json`.

use crate::diag::Diagnostic;
use crate::rules::Rule;
use crate::workspace::Workspace;
use wmp_obs::json::{self, Kind, Value};

/// Validates every committed `perfbench/baseline/*.json` result against
/// the benchmark declaration in `BENCHMARK.json`:
///
/// - the file is named `<identity>.traced.json` or
///   `<identity>.untraced.json`, and `trace` matches the suffix;
/// - `identity` starts with `{workload}_sd{seed}_`, and `workload` is a
///   declared workload;
/// - `correct` is `true` and `failed` is `0`;
/// - `end_to_end` holds every declared end-to-end metric as
///   `{"value": <number>, "unit": <declared unit>}` (workload-specific
///   extras may follow);
/// - `per_layer` is `null` in an untraced result; in a traced one it holds
///   exactly the declared per-layer metrics, each with its declared unit.
///
/// A baseline is what later runs are compared against: one recorded from a
/// failing run, or with a renamed metric or a changed unit, silently breaks
/// that comparison.
pub struct BenchSchema;

const BENCHMARK: &str = "BENCHMARK.json";

/// The parts of `BENCHMARK.json` a baseline is checked against.
struct Declared {
    workloads: Vec<String>,
    /// `(name, unit)` pairs.
    end_to_end: Vec<(String, String)>,
    /// `(name, unit)` pairs.
    per_layer: Vec<(String, String)>,
}

impl Rule for BenchSchema {
    fn id(&self) -> &'static str {
        "bench_schema"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        if ws.baselines.is_empty() {
            return;
        }
        let Some(declared) = self.declared(ws.benchmark.as_deref(), out) else {
            return;
        };
        for (file, contents) in &ws.baselines {
            match json::parse(contents) {
                Ok(doc) => self.check_baseline(file, &doc, &declared, out),
                Err(e) => {
                    out.push(self.at(file, e.line, e.col, format!("invalid JSON: {}", e.message)))
                }
            }
        }
    }
}

impl BenchSchema {
    fn at(&self, file: &str, line: usize, col: usize, message: String) -> Diagnostic {
        Diagnostic { rule: self.id(), file: file.to_string(), line, col, message }
    }

    fn diag(&self, file: &str, value: &Value, message: String) -> Diagnostic {
        self.at(file, value.line, value.col, message)
    }

    fn declared(&self, text: Option<&str>, out: &mut Vec<Diagnostic>) -> Option<Declared> {
        let Some(text) = text else {
            out.push(self.at(
                BENCHMARK,
                1,
                1,
                "missing, so the baselines cannot be checked".into(),
            ));
            return None;
        };
        let doc = match json::parse(text) {
            Ok(doc) => doc,
            Err(e) => {
                out.push(self.at(BENCHMARK, e.line, e.col, format!("invalid JSON: {}", e.message)));
                return None;
            }
        };
        let mut list = |key: &str| -> Vec<(String, String)> {
            let entries: Vec<_> = doc
                .get(key)
                .and_then(Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|entry| {
                    let field = |k| entry.get(k).and_then(Value::as_str).map(str::to_string);
                    Some((field("name")?, field("unit").unwrap_or_default()))
                })
                .collect();
            if entries.is_empty() {
                out.push(self.diag(BENCHMARK, &doc, format!("declares no `{key}` entries")));
            }
            entries
        };
        Some(Declared {
            workloads: list("workloads").into_iter().map(|(name, _)| name).collect(),
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        })
    }

    /// The member `key` of `doc` when it has kind `kind`; a missing or
    /// mistyped member is reported.
    fn field<'v>(
        &self,
        file: &str,
        doc: &'v Value,
        key: &str,
        kind: &str,
        out: &mut Vec<Diagnostic>,
    ) -> Option<&'v Value> {
        match doc.get(key) {
            None => {
                out.push(self.diag(file, doc, format!("missing required key `{key}` ({kind})")))
            }
            Some(v) if v.kind_name() != kind => out.push(self.diag(
                file,
                v,
                format!("`{key}` must be a {kind}, found {}", v.kind_name()),
            )),
            Some(v) => return Some(v),
        }
        None
    }

    fn check_baseline(
        &self,
        file: &str,
        doc: &Value,
        declared: &Declared,
        out: &mut Vec<Diagnostic>,
    ) {
        if doc.as_object().is_none() {
            out.push(self.diag(file, doc, "top level must be an object".into()));
            return;
        }
        let name = file.rsplit('/').next().unwrap_or(file);
        // `.untraced.json` first: `.traced.json` is a suffix of it.
        let Some((stem, traced)) = [(".untraced.json", false), (".traced.json", true)]
            .into_iter()
            .find_map(|(suffix, traced)| Some((name.strip_suffix(suffix)?, traced)))
        else {
            out.push(self.diag(
                file,
                doc,
                format!("{name} must be named <identity>.traced.json or <identity>.untraced.json"),
            ));
            return;
        };

        let identity = self.field(file, doc, "identity", "string", out);
        if let Some(v) = identity.filter(|v| v.as_str() != Some(stem)) {
            out.push(self.diag(
                file,
                v,
                format!(
                    "`identity` is {:?} but the file is named {name}",
                    v.as_str().unwrap_or("")
                ),
            ));
        }
        if let Some(v) = self.field(file, doc, "trace", "bool", out) {
            if v.kind != Kind::Bool(traced) {
                out.push(self.diag(
                    file,
                    v,
                    format!("`trace` is {} but the file is {name}", !traced),
                ));
            }
        }
        let workload = self.field(file, doc, "workload", "string", out).and_then(Value::as_str);
        if let Some(w) = workload.filter(|w| !declared.workloads.iter().any(|d| d == w)) {
            out.push(self.diag(
                file,
                doc.get("workload").unwrap_or(doc),
                format!(
                    "unknown workload `{w}` (BENCHMARK.json declares {:?})",
                    declared.workloads
                ),
            ));
        }
        let seed = self.field(file, doc, "seed", "number", out).and_then(Value::as_f64);
        if let (Some(v), Some(w), Some(seed)) = (identity, workload, seed) {
            let prefix = format!("{w}_sd{seed}_");
            if !v.as_str().unwrap_or("").starts_with(&prefix) {
                out.push(self.diag(file, v, format!("`identity` must start with `{prefix}`")));
            }
        }
        if let Some(v) = self.field(file, doc, "correct", "bool", out) {
            if v.kind != Kind::Bool(true) {
                out.push(self.diag(
                    file,
                    v,
                    "`correct` is false: the run failed its checks".into(),
                ));
            }
        }
        if let Some(v) = self.field(file, doc, "failed", "number", out) {
            if v.as_f64() != Some(0.0) {
                out.push(self.diag(file, v, "`failed` must be 0 in a baseline".into()));
            }
        }
        if let Some(e2e) = self.field(file, doc, "end_to_end", "object", out) {
            for (metric, unit) in &declared.end_to_end {
                match e2e.get(metric) {
                    Some(m) => self.check_metric(file, metric, unit, m, out),
                    None => out.push(self.diag(
                        file,
                        e2e,
                        format!("end_to_end misses `{metric}` ({unit})"),
                    )),
                }
            }
        }
        self.check_per_layer(file, doc, traced, declared, out);
    }

    fn check_per_layer(
        &self,
        file: &str,
        doc: &Value,
        traced: bool,
        declared: &Declared,
        out: &mut Vec<Diagnostic>,
    ) {
        let Some(layers) = doc.get("per_layer") else {
            out.push(self.diag(file, doc, "missing required key `per_layer`".into()));
            return;
        };
        if !traced && layers.kind != Kind::Null {
            out.push(self.diag(
                file,
                layers,
                "`per_layer` must be null in an untraced result".into(),
            ));
        }
        let Some(members) = layers.as_object() else {
            if traced {
                out.push(self.diag(
                    file,
                    layers,
                    format!("`per_layer` must be an object, found {}", layers.kind_name()),
                ));
            }
            return;
        };
        for (metric, m) in members {
            match declared.per_layer.iter().find(|(name, _)| name == metric) {
                Some((_, unit)) => self.check_metric(file, metric, unit, m, out),
                None => {
                    out.push(self.diag(file, m, format!("undeclared per-layer metric `{metric}`")))
                }
            }
        }
        if traced {
            for (metric, unit) in &declared.per_layer {
                if !members.contains_key(metric) {
                    out.push(self.diag(
                        file,
                        layers,
                        format!("per_layer misses `{metric}` ({unit})"),
                    ));
                }
            }
        }
    }

    fn check_metric(
        &self,
        file: &str,
        metric: &str,
        unit: &str,
        m: &Value,
        out: &mut Vec<Diagnostic>,
    ) {
        if m.get("value").and_then(Value::as_f64).is_none() {
            out.push(self.diag(file, m, format!("`{metric}` needs a numeric `value`")));
        }
        match m.get("unit") {
            Some(u) if u.as_str() == Some(unit) => {}
            Some(u) => {
                let found =
                    u.as_str().map_or_else(|| u.kind_name().to_string(), |s| format!("{s:?}"));
                out.push(self.diag(
                    file,
                    u,
                    format!("`{metric}` has unit {found} but BENCHMARK.json declares {unit:?}"),
                ));
            }
            None => out.push(self.diag(file, m, format!("`{metric}` needs a `unit` ({unit:?})"))),
        }
    }
}
