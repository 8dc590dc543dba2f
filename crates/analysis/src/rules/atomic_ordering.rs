//! `atomic_ordering` — every atomic memory ordering is a justified choice.

use crate::diag::Diagnostic;
use crate::rules::Rule;
use crate::workspace::Workspace;

/// Audits `std::sync::atomic::Ordering` uses in hot-path library code.
///
/// Hand-rolled lock-free structures (`PredictorHandle`'s snapshot swap,
/// the serving engine's stats fences, the `wmp_obs` registry) are exactly
/// where a silently wrong ordering produces a torn metric or a stale model
/// version — so every `Ordering::Relaxed` / `Acquire` / `Release` /
/// `AcqRel` site must carry an `// ordering:` comment (same line, or in the
/// comment block immediately above) explaining why that ordering is
/// sufficient.
///
/// `Ordering::SeqCst` is flagged unconditionally: in this codebase it is
/// always a default nobody reasoned about. Replace it with the weakest
/// sufficient ordering, or keep it with a
/// `// lint: allow(atomic_ordering, <why SeqCst>)` justification.
pub struct AtomicOrdering;

const JUSTIFIED: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

impl Rule for AtomicOrdering {
    fn id(&self) -> &'static str {
        "atomic_ordering"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in ws.hot_path_libs() {
            let src = &file.source;
            let masked = src.masked.as_bytes();
            for (offset, ident) in src.idents() {
                if ident != "Ordering" {
                    continue;
                }
                let after = offset + ident.len();
                if masked.get(after) != Some(&b':') || masked.get(after + 1) != Some(&b':') {
                    continue;
                }
                let variant_start = after + 2;
                let variant: String = src.masked[variant_start..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                let (line, col) = src.line_col(offset);
                if src.is_test_line(line) {
                    continue;
                }
                if variant == "SeqCst" {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: src.rel.clone(),
                        line,
                        col,
                        message: "bare `Ordering::SeqCst` — pick the weakest sufficient \
                                  ordering, or justify SeqCst with \
                                  `lint: allow(atomic_ordering, <reason>)`"
                            .to_string(),
                    });
                } else if JUSTIFIED.contains(&variant.as_str())
                    && !src.has_ordering_justification(line)
                {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: src.rel.clone(),
                        line,
                        col,
                        message: format!(
                            "`Ordering::{variant}` without an `// ordering:` justification \
                             (same line or the comment block above)"
                        ),
                    });
                }
            }
        }
    }
}
