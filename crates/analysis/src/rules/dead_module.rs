//! `dead_module` — no public module and no dependency that nothing uses.

use crate::diag::Diagnostic;
use crate::rules::Rule;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// Flags code the workspace carries but never reaches:
///
/// 1. A `pub mod m;` in a library crate's `src/lib.rs` that no other file
///    names as a path — no `m::` (which covers `lib.rs` re-exports such as
///    `pub use m::X`) and no `::m` (`crate::m`, `<crate>::m`,
///    `learnedwmp::<crate>::m`) anywhere in the workspace outside the
///    module's own `m.rs` / `m/`. A public module nothing calls is API
///    surface that only its own unit tests keep alive.
/// 2. A `[dependencies]` entry in a crate's `Cargo.toml` that no `.rs`
///    file under that crate's `src/` names (`-` read as `_`). An unused
///    dependency still compiles, links and shapes every dependent's
///    symbol hashes.
///
/// A diagnostic in `Cargo.toml` cannot be suppressed inline: delete the
/// entry.
pub struct DeadModule;

impl Rule for DeadModule {
    fn id(&self) -> &'static str {
        "dead_module"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for lib in ws.libs().filter(|f| f.source.rel.ends_with("src/lib.rs")) {
            let src = &lib.source;
            let dir = src.rel.trim_end_matches("lib.rs");
            let idents: Vec<(usize, &str)> = src.idents().collect();
            for w in idents.windows(3) {
                let [(_, "pub"), (_, "mod"), (offset, name)] = *w else { continue };
                let (line, col) = src.line_col(offset);
                if src.next_code_byte(offset + name.len()).map(|(_, b)| b) != Some(b';')
                    || src.is_test_line(line)
                {
                    continue;
                }
                let (own_file, own_dir) = (format!("{dir}{name}.rs"), format!("{dir}{name}/"));
                let named = ws
                    .files
                    .iter()
                    .filter(|f| f.source.rel != own_file && !f.source.rel.starts_with(&own_dir))
                    .any(|f| names_path(&f.source, name));
                if !named {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: src.rel.clone(),
                        line,
                        col,
                        message: format!(
                            "`pub mod {name}` is dead: `lib.rs` re-exports nothing from it and \
                             no other file names `{name}::` or `::{name}`"
                        ),
                    });
                }
            }
        }

        for (rel, manifest) in &ws.manifests {
            let src_dir = format!("{}src/", rel.trim_end_matches("Cargo.toml"));
            for (line, dep) in dependencies(manifest) {
                let ident = dep.replace('-', "_");
                let used = ws
                    .files
                    .iter()
                    .filter(|f| f.source.rel.starts_with(&src_dir))
                    .any(|f| f.source.idents().any(|(_, i)| i == ident));
                if !used {
                    out.push(Diagnostic {
                        rule: self.id(),
                        file: rel.clone(),
                        line,
                        col: 1,
                        message: format!(
                            "dependency `{dep}` is unused: no file under `{src_dir}` names \
                             `{ident}`"
                        ),
                    });
                }
            }
        }
    }
}

/// True when `src` names `name` as a path segment: `name::` or `::name`.
fn names_path(src: &SourceFile, name: &str) -> bool {
    src.idents().any(|(offset, ident)| {
        ident == name
            && (src.masked[offset + name.len()..].trim_start().starts_with("::")
                || src.masked[..offset].trim_end().ends_with("::"))
    })
}

/// `(1-based line, name)` of each entry in the manifest's `[dependencies]`
/// table (`name = …` or `name.workspace = true`).
fn dependencies(manifest: &str) -> Vec<(usize, &str)> {
    let mut in_table = false;
    let mut deps = Vec::new();
    for (i, line) in manifest.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            in_table = line == "[dependencies]";
        } else if in_table && !line.is_empty() && !line.starts_with('#') {
            if let Some(key) = line.split(['=', '.']).next() {
                deps.push((i + 1, key.trim()));
            }
        }
    }
    deps
}
