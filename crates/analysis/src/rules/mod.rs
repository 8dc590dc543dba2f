//! The rule registry.
//!
//! Every lint implements [`Rule`] and is listed by [`all_rules`] — that
//! list *is* the registry: `wmp-lint --list` prints it, the CLI's
//! `--rules` filter validates against it, and the README's "Static
//! analysis" section documents it. Current rules:
//!
//! | id | checks |
//! |----|--------|
//! | [`no_hot_panic`](NoHotPanic) | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in hot-path library code |
//! | [`atomic_ordering`](AtomicOrdering) | every atomic ordering is justified; bare `SeqCst` is flagged |
//! | [`metric_catalog`](MetricCatalog) | registered `wmp_*` metrics ↔ README catalog, naming conventions |
//! | [`error_enum`](ErrorEnum) | public error enums are `#[non_exhaustive]` with exhaustive `Display` |
//! | [`codec_tags`](CodecTags) | codec tag tables are unique and append-only; version constants coherent |
//! | [`bench_schema`](BenchSchema) | committed `perfbench/baseline/*.json` results match the metrics and units `BENCHMARK.json` declares |
//!
//! Any diagnostic can be suppressed at its site with
//! `// lint: allow(<rule>, <reason>)` — the reason is mandatory.

mod atomic_ordering;
mod bench_schema;
mod codec_tags;
mod error_enum;
mod metric_catalog;
mod no_hot_panic;

pub use atomic_ordering::AtomicOrdering;
pub use bench_schema::BenchSchema;
pub use codec_tags::CodecTags;
pub use error_enum::ErrorEnum;
pub use metric_catalog::MetricCatalog;
pub use no_hot_panic::NoHotPanic;

use crate::diag::Diagnostic;
use crate::workspace::Workspace;

/// One project lint.
pub trait Rule {
    /// Stable identifier used in diagnostics and `lint: allow(...)`.
    fn id(&self) -> &'static str;
    /// One-line description for `wmp-lint --list`.
    fn summary(&self) -> &'static str;
    /// Runs the rule, appending violations to `out`. Suppression filtering
    /// happens in the engine; rules report every site they find.
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// All registered rules, in execution order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoHotPanic),
        Box::new(AtomicOrdering),
        Box::new(MetricCatalog),
        Box::new(ErrorEnum),
        Box::new(CodecTags),
        Box::new(BenchSchema),
    ]
}
