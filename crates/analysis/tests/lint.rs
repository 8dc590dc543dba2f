//! Integration tests for the lint engine: every rule is exercised against
//! a committed known-bad fixture (exact spans asserted), and the workspace
//! itself must be clean under the full rule set.

use std::path::{Path, PathBuf};

use wmp_analysis::rules::{
    AtomicOrdering, BenchSchema, CodecTags, ErrorEnum, MetricCatalog, NoHotPanic,
};
use wmp_analysis::source::SourceFile;
use wmp_analysis::workspace::{FileClass, Workspace, WsFile};
use wmp_analysis::{all_rules, Diagnostic, Rule};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

/// A one-file workspace: the fixture masquerades as hot-path library code.
fn ws_with(rel: &str, text: String) -> Workspace {
    ws_full(rel, text, None)
}

fn ws_full(rel: &str, text: String, readme: Option<String>) -> Workspace {
    let source = SourceFile::parse(PathBuf::from(rel), rel.to_string(), text);
    Workspace {
        root: PathBuf::new(),
        files: vec![WsFile { source, krate: "serve".to_string(), class: FileClass::Lib }],
        readme,
        benchmark: None,
        baselines: Vec::new(),
    }
}

/// A small `BENCHMARK.json` declaration the baseline fixtures are checked
/// against.
const BENCHMARK: &str = r#"{
  "workloads": [{"name": "sql_ingest"}, {"name": "record_serve"}],
  "end_to_end": [
    {"name": "qps", "unit": "queries/s"},
    {"name": "setup_s", "unit": "s"},
    {"name": "peak_rss_mb", "unit": "MB"}
  ],
  "per_layer": [{"name": "core.assign_ns", "unit": "ns"}, {"name": "core.fit_ms", "unit": "ms"}]
}"#;

/// A workspace holding one committed baseline, `perfbench/baseline/<name>`.
fn ws_baseline(name: &str, text: String) -> Workspace {
    Workspace {
        root: PathBuf::new(),
        files: Vec::new(),
        readme: None,
        benchmark: Some(BENCHMARK.to_string()),
        baselines: vec![(format!("perfbench/baseline/{name}"), text)],
    }
}

/// The bad baseline fixture, filed under a name its identity contradicts.
const BAD_BASELINE: &str = "sql_ingest_sd7_c2-host.untraced.json";

fn run_rule(rule: &dyn Rule, ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rule.check(ws, &mut out);
    // Apply suppression the way the engine does.
    out.retain(|d| {
        !ws.files.iter().any(|f| f.source.rel == d.file && f.source.is_suppressed(d.rule, d.line))
    });
    out.sort_by_key(|d| (d.line, d.col));
    out
}

/// 1-based (line, col) of `needle`'s `occurrence`-th appearance (1-based)
/// in `text` — the fixture-side way to state an exact expected span.
fn span_of(text: &str, needle: &str, occurrence: usize) -> (usize, usize) {
    let mut from = 0;
    let mut found = 0;
    loop {
        let at = text[from..].find(needle).expect("needle present in fixture") + from;
        found += 1;
        if found == occurrence {
            let line = text[..at].matches('\n').count() + 1;
            let col = at - text[..at].rfind('\n').map_or(0, |p| p + 1) + 1;
            return (line, col);
        }
        from = at + 1;
    }
}

#[test]
fn no_hot_panic_fixture_spans() {
    let text = fixture("bad_hot_panic.rs");
    let ws = ws_with("crates/serve/src/bad_hot_panic.rs", text.clone());
    let diags = run_rule(&NoHotPanic, &ws);

    // Three violations: the suppressed unwrap and the #[cfg(test)] unwrap
    // must NOT fire.
    assert_eq!(diags.len(), 3, "diagnostics: {diags:#?}");
    let expected = [
        (span_of(&text, "unwrap", 1), "`.unwrap()`"),
        (span_of(&text, "expect", 1), "`.expect()`"),
        (span_of(&text, "panic!", 1), "`panic!`"),
    ];
    for (d, ((line, col), what)) in diags.iter().zip(expected) {
        assert_eq!((d.line, d.col), (line, col), "span for {what}: {d}");
        assert!(d.message.contains(what), "message for {what}: {d}");
        assert_eq!(d.rule, "no_hot_panic");
    }
}

#[test]
fn no_hot_panic_ignores_test_targets() {
    let text = fixture("bad_hot_panic.rs");
    let source =
        SourceFile::parse(PathBuf::from("t.rs"), "crates/serve/tests/bad.rs".to_string(), text);
    let ws = Workspace {
        root: PathBuf::new(),
        files: vec![WsFile { source, krate: "serve".to_string(), class: FileClass::Test }],
        readme: None,
        benchmark: None,
        baselines: Vec::new(),
    };
    assert!(run_rule(&NoHotPanic, &ws).is_empty(), "test targets are exempt");
}

#[test]
fn atomic_ordering_fixture_spans() {
    let text = fixture("bad_atomic_ordering.rs");
    let ws = ws_with("crates/serve/src/bad_atomic_ordering.rs", text.clone());
    let diags = run_rule(&AtomicOrdering, &ws);

    // The justified Relaxed read must not fire; the unjustified Relaxed and
    // the bare SeqCst must.
    assert_eq!(diags.len(), 2, "diagnostics: {diags:#?}");
    let relaxed = span_of(&text, "Ordering::Relaxed", 1);
    assert_eq!((diags[0].line, diags[0].col), relaxed);
    assert!(diags[0].message.contains("Relaxed"), "{}", diags[0]);
    let seqcst = span_of(&text, "Ordering::SeqCst", 1);
    assert_eq!((diags[1].line, diags[1].col), seqcst);
    assert!(diags[1].message.contains("SeqCst"), "{}", diags[1]);
}

#[test]
fn error_enum_fixture_spans() {
    let text = fixture("bad_error_enum.rs");
    let ws = ws_with("crates/serve/src/bad_error_enum.rs", text.clone());
    let diags = run_rule(&ErrorEnum, &ws);

    assert_eq!(diags.len(), 2, "diagnostics: {diags:#?}");
    // `pub enum FixtureError` — anchored at the type name.
    let name = span_of(&text, "FixtureError {", 1);
    assert_eq!((diags[0].line, diags[0].col), name);
    assert!(diags[0].message.contains("non_exhaustive"), "{}", diags[0]);
    // `_ => write!(f, "other")` — anchored at the wildcard.
    let wildcard = span_of(&text, "_ =>", 1);
    assert_eq!((diags[1].line, diags[1].col), wildcard);
    assert!(diags[1].message.contains("wildcard"), "{}", diags[1]);
}

#[test]
fn codec_tags_fixture_spans() {
    let text = fixture("bad_codec.rs");
    let ws = ws_with("crates/serve/src/codec.rs", text.clone());
    let diags = run_rule(&CodecTags, &ws);

    assert_eq!(diags.len(), 4, "diagnostics: {diags:#?}");
    // MIN_FORMAT_VERSION (2) > FORMAT_VERSION (1).
    assert_eq!((diags[0].line, diags[0].col), span_of(&text, "MIN_FORMAT_VERSION", 1));
    assert!(diags[0].message.contains("exceeds FORMAT_VERSION"), "{}", diags[0]);
    // (2, "gamma") follows (3, "beta"): non-monotonic.
    assert_eq!((diags[1].line, diags[1].col), span_of(&text, "2, \"gamma\"", 1));
    assert!(diags[1].message.contains("not monotonically assigned"), "{}", diags[1]);
    // (3, "delta") reuses beta's tag.
    assert_eq!((diags[2].line, diags[2].col), span_of(&text, "3, \"delta\"", 1));
    assert!(diags[2].message.contains("assigns tag 3 twice"), "{}", diags[2]);
    // WRAPPER_FANCY reuses WRAPPER_PLAIN's value.
    assert_eq!((diags[3].line, diags[3].col), span_of(&text, "WRAPPER_FANCY", 1));
    assert!(diags[3].message.contains("reuses value 0"), "{}", diags[3]);
}

#[test]
fn metric_catalog_fixture_spans() {
    let text = fixture("bad_metrics.rs");
    let readme = "\
| metric | kind | meaning |
|---|---|---|
| `wmp_fixture_requests` | gauge | kind mismatch: registered as counter |
| `wmp_Fixture_depth` | gauge | cataloged, though the name is invalid |
| `wmp_fixture_good_total` | counter | cataloged correctly |
| `wmp_fixture_ghost_total` | counter | never registered |
";
    let ws = ws_full("crates/serve/src/bad_metrics.rs", text.clone(), Some(readme.to_string()));
    let diags = run_rule(&MetricCatalog, &ws);
    let by_message = |needle: &str| {
        diags
            .iter()
            .find(|d| d.message.contains(needle))
            .unwrap_or_else(|| panic!("no diagnostic matching {needle:?} in {diags:#?}"))
    };

    assert_eq!(diags.len(), 4, "diagnostics: {diags:#?}");
    let missing_total = by_message("must end in `_total`");
    assert_eq!(
        (missing_total.line, missing_total.col),
        span_of(&text, "\"wmp_fixture_requests\"", 1),
    );
    let bad_name = by_message("violates the naming convention");
    assert_eq!((bad_name.line, bad_name.col), span_of(&text, "\"wmp_Fixture_depth\"", 1));
    let mismatch = by_message("as a gauge but code registers a counter");
    assert_eq!((mismatch.file.as_str(), mismatch.line), ("README.md", 3));
    let ghost = by_message("`wmp_fixture_ghost_total` is not registered");
    assert_eq!((ghost.file.as_str(), ghost.line), ("README.md", 6));
}

#[test]
fn bench_schema_fixture_spans() {
    let text = fixture("bad_baseline.json");
    let ws = ws_baseline(BAD_BASELINE, text.clone());
    let diags = run_rule(&BenchSchema, &ws);
    let by_message = |needle: &str| {
        diags
            .iter()
            .find(|d| d.message.contains(needle))
            .unwrap_or_else(|| panic!("no diagnostic matching {needle:?} in {diags:#?}"))
    };

    assert_eq!(diags.len(), 7, "diagnostics: {diags:#?}");
    assert!(diags.iter().all(|d| d.file == format!("perfbench/baseline/{BAD_BASELINE}")));
    let identity = by_message("but the file is named");
    assert_eq!((identity.line, identity.col), span_of(&text, "\"ingest_sql_sd7", 1));
    let workload = by_message("unknown workload `ingest_sql`");
    assert_eq!((workload.line, workload.col), span_of(&text, "\"ingest_sql\"", 1));
    let correct = by_message("`correct` is false");
    // The first `false` is `trace`, which matches the file's suffix.
    assert_eq!((correct.line, correct.col), span_of(&text, "false", 2));
    let missing = by_message("end_to_end misses `setup_s` (s)");
    assert_eq!((missing.line, missing.col), span_of(&text, "{\n    \"qps\"", 1));
    let unit = by_message("`qps` has unit \"qps\" but BENCHMARK.json declares \"queries/s\"");
    assert_eq!((unit.line, unit.col), span_of(&text, "\"qps\"", 2));
    let untraced = by_message("`per_layer` must be null in an untraced result");
    assert_eq!((untraced.line, untraced.col), span_of(&text, "{\n    \"core.assign_ns\"", 1));
    let undeclared = by_message("undeclared per-layer metric `core.guess_ns`");
    assert_eq!((undeclared.line, undeclared.col), span_of(&text, "{\"value\": 12.0", 1));
}

#[test]
fn bench_schema_diags_exactly() {
    // Companion to the above: pin the exact multiset of messages so a new
    // spurious diagnostic cannot hide behind `by_message`.
    let ws = ws_baseline(BAD_BASELINE, fixture("bad_baseline.json"));
    let mut kinds: Vec<&str> = run_rule(&BenchSchema, &ws)
        .iter()
        .map(|d| {
            [
                ("but the file is named", "identity_mismatch"),
                ("unknown workload", "unknown_workload"),
                ("`correct` is false", "not_correct"),
                ("end_to_end misses", "missing_metric"),
                ("has unit", "wrong_unit"),
                ("must be null in an untraced result", "per_layer_untraced"),
                ("undeclared per-layer metric", "undeclared_layer"),
            ]
            .iter()
            .find(|(needle, _)| d.message.contains(needle))
            .map(|(_, tag)| *tag)
            .unwrap_or("UNEXPECTED")
        })
        .collect::<Vec<_>>();
    kinds.sort_unstable();
    // The extra `error_rate` end-to-end metric and the declared
    // `core.assign_ns` layer are fine. An untraced file is not asked for
    // the declared layers it lacks, and the unknown workload does not also
    // break the identity prefix.
    assert_eq!(
        kinds,
        [
            "identity_mismatch",
            "missing_metric",
            "not_correct",
            "per_layer_untraced",
            "undeclared_layer",
            "unknown_workload",
            "wrong_unit",
        ],
    );
}

#[test]
fn bench_schema_rejects_empty_results() {
    let text = r#"{"identity": "record_serve_sd3_c2-host", "workload": "record_serve",
 "seed": 3, "trace": true, "correct": true, "failed": 0,
 "end_to_end": {}, "per_layer": {}}"#;
    let ws = ws_baseline("record_serve_sd3_c2-host.traced.json", text.to_string());
    let diags = run_rule(&BenchSchema, &ws);
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(
        messages,
        [
            "end_to_end misses `qps` (queries/s)",
            "end_to_end misses `setup_s` (s)",
            "end_to_end misses `peak_rss_mb` (MB)",
            "per_layer misses `core.assign_ns` (ns)",
            "per_layer misses `core.fit_ms` (ms)",
        ],
    );
    let (e2e, layers) = (span_of(text, "{}", 1), span_of(text, "{}", 2));
    let spans: Vec<(usize, usize)> = diags.iter().map(|d| (d.line, d.col)).collect();
    assert_eq!(spans, [e2e, e2e, e2e, layers, layers]);
}

#[test]
fn suppression_reaches_next_code_line_only() {
    let text = "\
// lint: allow(no_hot_panic, covers the next code line)
// a second pure-comment line keeps the directive walking down
pub fn f(v: &[u8]) -> u8 {
    *v.first().unwrap()
}

pub fn g(v: &[u8]) -> u8 {
    *v.first().unwrap()
}
";
    let ws = ws_with("crates/serve/src/s.rs", text.to_string());
    let diags = run_rule(&NoHotPanic, &ws);
    // Directive lands on line 3 (`pub fn f`), not line 4 — so BOTH unwraps
    // fire: suppression is line-precise, not block-scoped.
    assert_eq!(diags.len(), 2, "diagnostics: {diags:#?}");
}

#[test]
fn suppression_on_same_line_works() {
    let text = "\
pub fn f(v: &[u8]) -> u8 {
    *v.first().unwrap() // lint: allow(no_hot_panic, length checked by caller)
}
";
    let ws = ws_with("crates/serve/src/s.rs", text.to_string());
    assert!(run_rule(&NoHotPanic, &ws).is_empty());
}

#[test]
fn malformed_directive_is_reported() {
    let text = "\
pub fn f(v: &[u8]) -> u8 {
    *v.first().unwrap() // lint: allow(no_hot_panic)
}
";
    let source =
        SourceFile::parse(PathBuf::from("s.rs"), "crates/serve/src/s.rs".to_string(), text.into());
    let ws = Workspace {
        root: PathBuf::new(),
        files: vec![WsFile { source, krate: "serve".to_string(), class: FileClass::Lib }],
        readme: None,
        benchmark: None,
        baselines: Vec::new(),
    };
    let report = wmp_analysis::run_on(&ws, &all_rules());
    // The reason-less directive does NOT suppress, and is itself reported.
    assert!(report.diagnostics.iter().any(|d| d.rule == "no_hot_panic"), "{report:#?}");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "lint_directive" && d.message.contains("needs a reason")),
        "{report:#?}",
    );
}

#[test]
fn json_report_shape() {
    let text = fixture("bad_atomic_ordering.rs");
    let ws = ws_with("crates/serve/src/bad.rs", text);
    let report = wmp_analysis::run_on(&ws, &all_rules());
    let json = report.to_json();
    let doc = wmp_obs::json::parse(&json).expect("report JSON parses");
    let members = doc.as_object().expect("object");
    assert_eq!(members.get("schema_version").and_then(|v| v.as_f64()), Some(1.0));
    assert_eq!(
        members.get("violations").and_then(|v| v.as_array()).map(<[_]>::len),
        Some(report.diagnostics.len()),
    );
    assert_eq!(members.get("rules").and_then(|v| v.as_array()).map(<[_]>::len), Some(6));
}

/// The tentpole guarantee: the workspace itself is lint-clean. Every rule
/// runs over the real tree exactly as `wmp-lint` does in CI.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analysis sits two levels under the root")
        .to_path_buf();
    let ws = Workspace::discover(&root).expect("workspace discovery");
    assert!(ws.benchmark.is_some(), "BENCHMARK.json is read");
    assert!(!ws.baselines.is_empty(), "perfbench/baseline/*.json are read");
    let report = wmp_analysis::run_on(&ws, &all_rules());
    assert!(report.files_scanned > 100, "suspiciously few files: {}", report.files_scanned);
    assert!(
        report.is_clean(),
        "the workspace must stay lint-clean; violations:\n{}",
        report.diagnostics.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n"),
    );
}
