//! `metric_catalog` — registered metrics and the README catalog agree.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::rules::Rule;
use crate::workspace::Workspace;

/// Cross-checks every `wmp_*` metric registered in library code
/// (`registry.counter("wmp_…", …)` / `.gauge` / `.histogram`) against the
/// README's metric-catalog tables, in both directions, and enforces the
/// naming convention.
///
/// - A registered metric missing from the catalog is *undocumented* — the
///   catalog is the operator's contract surface.
/// - A cataloged metric that no code registers is *drift* — a dashboard
///   built on it will silently show nothing.
/// - Names must match `wmp(_[a-z0-9]+)+`; counters must end in `_total`
///   (the Prometheus convention the renderers assume).
/// - The instrument kind in the catalog must match the registered kind.
///
/// Catalog rows are markdown table lines whose first cell is a backticked
/// `wmp_*` name and whose second cell is the kind
/// (`| \`wmp_foo_total\` | counter | … |`). Test code is exempt from the
/// registration scan.
pub struct MetricCatalog;

#[derive(Debug, Clone)]
struct Registration {
    kind: &'static str,
    file: String,
    line: usize,
    col: usize,
}

#[derive(Debug, Clone)]
struct CatalogRow {
    kind: String,
    line: usize,
}

fn name_ok(name: &str) -> bool {
    let mut parts = name.split('_');
    parts.next() == Some("wmp")
        && name.len() > 4
        && parts.all(|p| {
            !p.is_empty() && p.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        })
}

impl Rule for MetricCatalog {
    fn id(&self) -> &'static str {
        "metric_catalog"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let mut registered: BTreeMap<String, Registration> = BTreeMap::new();
        for file in ws.libs() {
            let src = &file.source;
            for (offset, ident) in src.idents() {
                let kind = match ident {
                    "counter" => "counter",
                    "gauge" => "gauge",
                    "histogram" => "histogram",
                    _ => continue,
                };
                // Method-call shape: `.counter ( "wmp_…"` — the receiver dot
                // rules out the `fn counter(...)` definitions themselves.
                if src.prev_code_byte(offset).map(|(_, b)| b) != Some(b'.') {
                    continue;
                }
                let Some((paren, b'(')) = src.next_code_byte(offset + ident.len()) else {
                    continue;
                };
                let Some(lit) = src.string_after(paren + 1) else { continue };
                if !lit.value.starts_with("wmp_") {
                    continue;
                }
                let (line, col) = src.line_col(lit.offset);
                if src.is_test_line(line) {
                    continue;
                }
                let reg = Registration { kind, file: src.rel.clone(), line, col };
                if !name_ok(&lit.value) {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: reg.file.clone(),
                        line,
                        col,
                        message: format!(
                            "metric `{}` violates the naming convention `wmp(_[a-z0-9]+)+`",
                            lit.value
                        ),
                    });
                }
                if kind == "counter" && !lit.value.ends_with("_total") {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: reg.file.clone(),
                        line,
                        col,
                        message: format!(
                            "counter `{}` must end in `_total` (Prometheus convention)",
                            lit.value
                        ),
                    });
                }
                registered.entry(lit.value.clone()).or_insert(reg);
            }
        }

        let mut catalog: BTreeMap<String, CatalogRow> = BTreeMap::new();
        if let Some(readme) = &ws.readme {
            for (idx, line) in readme.lines().enumerate() {
                let trimmed = line.trim_start();
                if !trimmed.starts_with('|') {
                    continue;
                }
                let cells: Vec<&str> = trimmed.trim_matches('|').split('|').collect();
                if cells.len() < 2 {
                    continue;
                }
                let first = cells[0].trim();
                let Some(name) = first.strip_prefix('`').and_then(|c| c.strip_suffix('`')) else {
                    continue;
                };
                if !name.starts_with("wmp_") {
                    continue;
                }
                // Only rows shaped like catalog entries count: the second
                // cell names the instrument kind. Other tables mentioning
                // `wmp_*` identifiers (the crate list) are not the catalog.
                let kind = cells[1].trim();
                if !matches!(kind, "counter" | "gauge" | "histogram") {
                    continue;
                }
                catalog
                    .insert(name.to_string(), CatalogRow { kind: kind.to_string(), line: idx + 1 });
            }
        }

        for (name, reg) in &registered {
            match catalog.get(name) {
                None => out.push(Diagnostic {
                    rule: self.id(),
                    file: reg.file.clone(),
                    line: reg.line,
                    col: reg.col,
                    message: format!(
                        "metric `{name}` is registered here but missing from the README \
                         metric catalog"
                    ),
                }),
                Some(row) if row.kind != reg.kind => out.push(Diagnostic {
                    rule: self.id(),
                    file: "README.md".to_string(),
                    line: row.line,
                    col: 1,
                    message: format!(
                        "catalog lists `{name}` as a {} but code registers a {}",
                        row.kind, reg.kind
                    ),
                }),
                Some(_) => {}
            }
        }
        for (name, row) in &catalog {
            if !registered.contains_key(name) {
                out.push(Diagnostic {
                    rule: self.id(),
                    file: "README.md".to_string(),
                    line: row.line,
                    col: 1,
                    message: format!(
                        "catalog entry `{name}` is not registered by any library code \
                         (drifted or renamed metric)"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::name_ok;

    #[test]
    fn naming_convention() {
        assert!(name_ok("wmp_queries_served_total"));
        assert!(name_ok("wmp_latency_us"));
        assert!(!name_ok("wmp_"));
        assert!(!name_ok("wmp_Camel_total"));
        assert!(!name_ok("wmp__double"));
        assert!(!name_ok("queries_total"));
    }
}
