//! Persisted benchmark trajectory: every perf-sensitive bench writes a
//! `BENCH_<name>.json` file at the repository root so regressions are
//! visible across commits (compare the file in git history against the
//! current run).
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "bench": "serving_throughput",
//!   "git": "<git describe --always --dirty, or \"unknown\">",
//!   "test_mode": false,
//!   "config": { "<key>": <number|string>, ... },
//!   "results": [
//!     {
//!       "name": "handle_1_reader",
//!       "qps": 123456.0,
//!       "ns_per_query": 8100.0,
//!       "p50_us": 81.5,
//!       "p99_us": 130.0
//!     }
//!   ]
//! }
//! ```
//!
//! `config` keys are bench-specific (corpus size, window size, reader
//! counts). Every entry in `results` carries at least `name` and `qps`;
//! `ns_per_query` is `1e9 / qps`, and the latency quantiles (`p50_us`,
//! `p99_us`, interpolated from a [`wmp_obs::Histogram`]) are present when
//! the bench records per-operation latencies. `test_mode` marks reduced
//! CI runs (`cargo bench ... -- --test`), whose numbers are smoke-test
//! artifacts, not trajectory points: they are printed, never written.

use std::path::PathBuf;

use wmp_obs::JsonValue;

/// Current schema version written by [`BenchReport::write`].
pub const SCHEMA_VERSION: f64 = 1.0;

/// One bench's persisted result file, accumulated then written at the end
/// of the bench run.
pub struct BenchReport {
    bench: String,
    test_mode: bool,
    config: Vec<(String, JsonValue)>,
    results: Vec<JsonValue>,
}

impl BenchReport {
    /// Starts a report for `bench` (the `BENCH_<bench>.json` stem).
    /// `test_mode` marks reduced CI runs.
    pub fn new(bench: &str, test_mode: bool) -> Self {
        BenchReport { bench: bench.to_string(), test_mode, config: Vec::new(), results: Vec::new() }
    }

    /// Records one numeric configuration entry.
    pub fn config_num(&mut self, key: &str, value: f64) -> &mut Self {
        self.config.push((key.to_string(), JsonValue::Number(value)));
        self
    }

    /// Records one string configuration entry.
    pub fn config_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.config.push((key.to_string(), JsonValue::String(value.to_string())));
        self
    }

    /// Records one named throughput result. `latency` adds interpolated
    /// p50/p99 (µs) when the bench tracked per-operation latencies.
    pub fn result(
        &mut self,
        name: &str,
        qps: f64,
        latency: Option<&wmp_obs::Histogram>,
    ) -> &mut Self {
        let mut fields = vec![
            ("name".to_string(), JsonValue::String(name.to_string())),
            ("qps".to_string(), JsonValue::Number(qps)),
            (
                "ns_per_query".to_string(),
                JsonValue::Number(if qps > 0.0 { 1e9 / qps } else { 0.0 }),
            ),
        ];
        if let Some(h) = latency {
            fields.push(("p50_us".to_string(), JsonValue::Number(h.quantile(0.50))));
            fields.push(("p99_us".to_string(), JsonValue::Number(h.quantile(0.99))));
        }
        self.results.push(JsonValue::Object(fields));
        self
    }

    /// Records one named result with extra numeric metric fields (e.g.
    /// per-resource MAE) alongside the mandatory `qps`/`ns_per_query` pair.
    pub fn result_metrics(&mut self, name: &str, qps: f64, extras: &[(&str, f64)]) -> &mut Self {
        let mut fields = vec![
            ("name".to_string(), JsonValue::String(name.to_string())),
            ("qps".to_string(), JsonValue::Number(qps)),
            (
                "ns_per_query".to_string(),
                JsonValue::Number(if qps > 0.0 { 1e9 / qps } else { 0.0 }),
            ),
        ];
        for (key, value) in extras {
            fields.push(((*key).to_string(), JsonValue::Number(*value)));
        }
        self.results.push(JsonValue::Object(fields));
        self
    }

    /// The report as a JSON value (what [`BenchReport::write`] persists).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("schema_version".to_string(), JsonValue::Number(SCHEMA_VERSION)),
            ("bench".to_string(), JsonValue::String(self.bench.clone())),
            ("git".to_string(), JsonValue::String(git_describe())),
            ("test_mode".to_string(), JsonValue::Bool(self.test_mode)),
            ("config".to_string(), JsonValue::Object(self.config.clone())),
            ("results".to_string(), JsonValue::Array(self.results.clone())),
        ])
    }

    /// Writes `BENCH_<bench>.json` at the repository root and returns the
    /// path. Failures are printed, not fatal — a read-only checkout must
    /// not fail the bench itself. A test-mode report is printed instead and
    /// never overwrites the committed file (returns `None`).
    pub fn write(&self) -> Option<PathBuf> {
        let path = repo_root().join(format!("BENCH_{}.json", self.bench));
        let mut body = self.to_json().render();
        body.push('\n');
        if self.test_mode {
            print!("test mode, not writing {}:\n{body}", path.display());
            return None;
        }
        match std::fs::write(&path, body) {
            Ok(()) => {
                println!("wrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                None
            }
        }
    }
}

/// The repository root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git is unavailable (e.g. a source tarball).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmp_obs::json::Value;

    #[test]
    fn report_round_trips_through_the_validator() {
        let latency = wmp_obs::Histogram::default();
        for us in [50, 80, 120, 90, 75] {
            latency.record(us);
        }
        let mut report = BenchReport::new("unit_test", true);
        report
            .config_num("n_queries", 200.0)
            .config_str("dataset", "tpcc")
            .result("fast_path", 125_000.0, Some(&latency))
            .result("slow_path", 2_500.0, None);
        let text = report.to_json().render();
        // The `bench_schema` lint is the schema's one validator.
        let ws = wmp_analysis::Workspace {
            root: PathBuf::new(),
            files: Vec::new(),
            readme: None,
            bench_reports: vec![("BENCH_unit_test.json".to_string(), text.clone())],
        };
        let mut diags = Vec::new();
        wmp_analysis::Rule::check(&wmp_analysis::rules::BenchSchema, &ws, &mut diags);
        assert!(diags.is_empty(), "fresh report validates: {diags:?}");
        let value = wmp_obs::json::parse(&text).unwrap();
        assert_eq!(value.get("bench").and_then(Value::as_str), Some("unit_test"));
        let results = value.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 2);
        let fast = &results[0];
        assert!(fast.get("p50_us").and_then(Value::as_f64).unwrap() > 0.0);
        let ns = fast.get("ns_per_query").and_then(Value::as_f64).unwrap();
        assert!((ns - 8_000.0).abs() < 1.0, "1e9/125k = 8000, got {ns}");
        assert!(results[1].get("p50_us").is_none(), "no latency histogram, no quantiles");
    }

    #[test]
    fn test_mode_write_leaves_the_committed_file_alone() {
        let report = BenchReport::new("unit_test_mode_write", true);
        assert_eq!(report.write(), None);
        assert!(!repo_root().join("BENCH_unit_test_mode_write.json").exists());
    }

    #[test]
    fn git_describe_reports_this_checkout() {
        // In the repo this returns a short hash; in a tarball "unknown".
        assert!(!git_describe().is_empty());
    }
}
