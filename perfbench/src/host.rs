//! Host and run identity recorded with every result.

use std::path::Path;
use std::process::Command;

/// Where a result was measured and from which build.
#[derive(Debug, Clone)]
pub struct Host {
    pub logical_cores: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub commit: String,
    pub dirty: Option<bool>,
}

impl Host {
    pub fn detect(root: &Path) -> Host {
        let logical_cores = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let git = |args: &[&str]| -> Option<String> {
            let out = Command::new("git").args(args).current_dir(root).output().ok()?;
            out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        let commit = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "none".into());
        let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
        Host {
            logical_cores,
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            commit,
            dirty,
        }
    }

    /// Short host key: core count plus a slug of the CPU model.
    pub fn key(&self) -> String {
        let mut slug = String::new();
        for c in self.cpu_model.chars() {
            if c.is_ascii_alphanumeric() {
                slug.push(c.to_ascii_lowercase());
            } else if !slug.ends_with('-') && !slug.is_empty() {
                slug.push('-');
            }
        }
        let slug: String = slug.trim_end_matches('-').chars().take(40).collect();
        format!("c{}-{}", self.logical_cores, slug.trim_end_matches('-'))
    }

    /// The run identity results are compared within, shaped
    /// `{workload}_sd{seed}_{host}`.
    pub fn identity(&self, workload: &str, seed: u64) -> String {
        format!("{workload}_sd{seed}_{}", self.key())
    }
}

/// Peak resident set size of this process in MB (0 when unknown).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
