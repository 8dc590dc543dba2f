//! # wmp-bench — the experiment harness
//!
//! One binary per figure of the paper's evaluation (§IV): `fig4_rmse`
//! through `fig11_mape_vs_batch`, plus `ablations` and `run_all`. Every
//! binary accepts `--scale <f>` (default 1.0 = the paper's corpus sizes)
//! and `--seed <n>`. Serving, scheduling and retraining timings live in
//! the repository benchmark, `perfbench/` (declared by `BENCHMARK.json`).

#![warn(missing_docs)]

use learnedwmp_core::{EvalConfig, ExperimentConfig};
use wmp_workloads::QueryLog;

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Corpus scale in `(0, 1]`; 1.0 reproduces the paper's sizes.
    pub scale: f64,
    /// Split/batching seed.
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options { scale: 1.0, seed: 42 }
    }
}

impl Options {
    /// Parses `--scale <f>` and `--seed <n>` from `std::env::args`.
    /// A bad argument aborts with a usage message and exit code 2.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|msg| usage(&msg))
    }

    /// Parses an argument list (without the program name). `Err` carries
    /// the usage error; an empty message is a `--help` request.
    pub fn parse<I: IntoIterator<Item = S>, S: AsRef<str>>(args: I) -> Result<Self, String> {
        let mut opts = Options::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let value = args.next();
            let value = value.as_ref().map(AsRef::<str>::as_ref);
            match arg.as_ref() {
                "--scale" => {
                    opts.scale = value
                        .and_then(|v| v.parse().ok())
                        .filter(|s: &f64| *s > 0.0 && *s <= 1.0)
                        .ok_or("missing/invalid value for --scale (expected a number in (0, 1])")?;
                }
                "--seed" => {
                    opts.seed = value
                        .and_then(|v| v.parse().ok())
                        .ok_or("missing/invalid value for --seed")?;
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }

    /// The experiment configuration at this scale.
    pub fn experiment_config(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::scaled(self.scale);
        cfg.split_seed = self.seed;
        cfg
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <figure-binary> [--scale <0..1>] [--seed <n>]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// The three generated benchmark logs.
pub struct Benchmarks {
    /// TPC-DS-style log.
    pub tpcds: QueryLog,
    /// JOB-style log.
    pub job: QueryLog,
    /// TPC-C-style log.
    pub tpcc: QueryLog,
    /// The configuration they were generated with.
    pub cfg: ExperimentConfig,
}

impl Benchmarks {
    /// Generates all three benchmarks at the configured scale.
    ///
    /// # Panics
    /// Panics on generator bugs (planning failures) — these are programming
    /// errors, not runtime conditions.
    pub fn generate(cfg: ExperimentConfig) -> Self {
        let tpcds = wmp_workloads::tpcds::generate(cfg.tpcds.n_queries, cfg.tpcds.gen_seed)
            .expect("tpcds generation");
        let job = wmp_workloads::job::generate(cfg.job.n_queries, cfg.job.gen_seed)
            .expect("job generation");
        let tpcc = wmp_workloads::tpcc::generate(cfg.tpcc.n_queries, cfg.tpcc.gen_seed)
            .expect("tpcc generation");
        Benchmarks { tpcds, job, tpcc, cfg }
    }

    /// `(name, log, eval-config)` triples in the paper's dataset order.
    pub fn datasets(&self) -> Vec<(&'static str, &QueryLog, EvalConfig)> {
        let mk = |k: usize| EvalConfig {
            k_templates: k,
            seed: self.cfg.split_seed,
            ..EvalConfig::default()
        };
        vec![
            ("TPC-DS", &self.tpcds, mk(self.cfg.tpcds.k_templates)),
            ("JOB", &self.job, mk(self.cfg.job.k_templates)),
            ("TPC-C", &self.tpcc, mk(self.cfg.tpcc.k_templates)),
        ]
    }
}

/// Prints an aligned table: a header row then value rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        println!("  {}", parts.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_paper_scale() {
        let o = Options::default();
        assert_eq!(o.scale, 1.0);
        let cfg = o.experiment_config();
        assert_eq!(cfg.tpcds.n_queries, 93_000);
    }

    #[test]
    fn parse_rejects_scales_outside_the_unit_interval() {
        let bad: [&[&str]; 7] = [
            &["--scale", "nan"],
            &["--scale", "inf"],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale", "1.5"],
            &["--scale", "abc"],
            &["--scale"],
        ];
        for args in bad {
            assert!(Options::parse(args).is_err(), "{args:?} accepted");
        }
        assert_eq!(Options::parse(["--help"]).unwrap_err(), "", "help is an empty usage error");
    }

    #[test]
    fn parse_accepts_scales_in_the_unit_interval_and_seeds() {
        assert_eq!(Options::parse(["--scale", "0.02"]).unwrap().scale, 0.02);
        assert_eq!(Options::parse(["--scale", "1"]).unwrap().scale, 1.0);
        let o = Options::parse(["--seed", "3"]).unwrap();
        assert_eq!((o.scale, o.seed), (1.0, 3));
        let none: [&str; 0] = [];
        assert_eq!(Options::parse(none).unwrap().seed, Options::default().seed);
    }

    #[test]
    fn benchmarks_generate_at_tiny_scale() {
        let b = Benchmarks::generate(ExperimentConfig::quick());
        assert!(!b.tpcds.is_empty());
        assert!(!b.job.is_empty());
        assert!(!b.tpcc.is_empty());
        let ds = b.datasets();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds[0].0, "TPC-DS");
        assert_eq!(ds[2].2.k_templates, b.cfg.tpcc.k_templates);
    }
}
