//! Workspace discovery: which files exist, which crate owns them, and
//! which of them are production (library) code vs. tests/examples.

use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// Crates whose library code is considered *hot path*: panics or unjustified
/// atomic orderings there can take down (or silently corrupt) the serving
/// and scheduling loops. Directory names under `crates/`.
pub const HOT_PATH_CRATES: &[&str] = &["core", "serve", "obs", "sched", "sim"];

/// What kind of target a source file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code under `src/` — production.
    Lib,
    /// Integration tests under `tests/`.
    Test,
    /// Examples under `examples/`.
    Example,
    /// Binary targets under `src/bin/`.
    Bin,
}

/// One discovered workspace source file.
#[derive(Debug)]
pub struct WsFile {
    /// The analyzed source.
    pub source: SourceFile,
    /// Owning crate's directory name (`core`, `serve`, …; the facade crate
    /// at the repository root is `learnedwmp`).
    pub krate: String,
    /// Target class.
    pub class: FileClass,
}

impl WsFile {
    /// True when this file is hot-path production code.
    pub fn is_hot_path_lib(&self) -> bool {
        self.class == FileClass::Lib && HOT_PATH_CRATES.contains(&self.krate.as_str())
    }
}

/// The discovered workspace: Rust sources plus the non-Rust surfaces some
/// rules check (README catalog, the benchmark declaration and its
/// committed baselines).
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root.
    pub root: PathBuf,
    /// All analyzed `.rs` files (vendored shims and `target/` excluded).
    pub files: Vec<WsFile>,
    /// `README.md` contents, if present.
    pub readme: Option<String>,
    /// `BENCHMARK.json` contents, if present.
    pub benchmark: Option<String>,
    /// `(path, contents)` of the committed `perfbench/baseline/*.json`
    /// results, paths relative to the root.
    pub baselines: Vec<(String, String)>,
}

impl Workspace {
    /// Discovers and analyzes the workspace rooted at `root`.
    ///
    /// # Errors
    /// Returns an error when `root` does not look like the workspace root
    /// (no `crates/` directory) or a discovered file cannot be read.
    pub fn discover(root: &Path) -> std::io::Result<Workspace> {
        let crates_dir = root.join("crates");
        if !crates_dir.is_dir() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{} has no crates/ directory — not a workspace root", root.display()),
            ));
        }
        let mut files = Vec::new();
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let krate =
                crate_dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            collect_crate(root, &crate_dir, &krate, &mut files)?;
        }
        // The facade crate lives at the repository root.
        collect_crate(root, root, "learnedwmp", &mut files)?;

        let readme = std::fs::read_to_string(root.join("README.md")).ok();
        let benchmark = std::fs::read_to_string(root.join("BENCHMARK.json")).ok();
        let mut baselines = Vec::new();
        if let Ok(dir) = std::fs::read_dir(root.join("perfbench/baseline")) {
            let mut entries: Vec<PathBuf> = dir.filter_map(|e| e.ok().map(|e| e.path())).collect();
            entries.sort();
            for path in entries {
                if path.extension().is_some_and(|e| e == "json") && path.is_file() {
                    let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
                    baselines.push((rel.replace('\\', "/"), std::fs::read_to_string(&path)?));
                }
            }
        }
        files.sort_by(|a, b| a.source.rel.cmp(&b.source.rel));
        Ok(Workspace { root: root.to_path_buf(), files, readme, benchmark, baselines })
    }

    /// Iterates library files of hot-path crates.
    pub fn hot_path_libs(&self) -> impl Iterator<Item = &WsFile> {
        self.files.iter().filter(|f| f.is_hot_path_lib())
    }

    /// Iterates library files of every crate.
    pub fn libs(&self) -> impl Iterator<Item = &WsFile> {
        self.files.iter().filter(|f| f.class == FileClass::Lib)
    }
}

fn collect_crate(
    root: &Path,
    crate_dir: &Path,
    krate: &str,
    out: &mut Vec<WsFile>,
) -> std::io::Result<()> {
    let targets: [(&str, FileClass); 3] =
        [("src", FileClass::Lib), ("tests", FileClass::Test), ("examples", FileClass::Example)];
    for (dir, class) in targets {
        let base = crate_dir.join(dir);
        if !base.is_dir() {
            continue;
        }
        let mut stack = vec![base.clone()];
        while let Some(current) = stack.pop() {
            let mut entries: Vec<PathBuf> =
                std::fs::read_dir(&current)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
            entries.sort();
            for path in entries {
                if path.is_dir() {
                    // `tests/fixtures/**` holds deliberately-bad snippets
                    // for the linter's own test suite — never lint those.
                    if class == FileClass::Test && path.file_name().is_some_and(|n| n == "fixtures")
                    {
                        continue;
                    }
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let rel = path
                        .strip_prefix(root)
                        .unwrap_or(&path)
                        .to_string_lossy()
                        .replace('\\', "/");
                    let class = if class == FileClass::Lib && rel.contains("/src/bin/") {
                        FileClass::Bin
                    } else {
                        class
                    };
                    out.push(WsFile {
                        source: SourceFile::load(&path, rel)?,
                        krate: krate.to_string(),
                        class,
                    });
                }
            }
        }
    }
    Ok(())
}
