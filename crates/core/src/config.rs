//! Experiment-scale configuration: the paper's corpus sizes and per-benchmark
//! template counts, with a scaling knob for quick runs.

/// Per-benchmark generation/evaluation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DatasetConfig {
    /// Number of queries to generate.
    pub n_queries: usize,
    /// Number of templates `k` for LearnedWMP (paper Fig. 10's optima).
    pub k_templates: usize,
    /// Generator seed.
    pub gen_seed: u64,
}

/// Full experiment configuration across the three benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// TPC-DS (paper: 93,000 queries, k ≈ 100 optimal).
    pub tpcds: DatasetConfig,
    /// JOB (paper: 2,300 queries, k ∈ [20, 40] optimal).
    pub job: DatasetConfig,
    /// TPC-C (paper: 3,958 queries, k ∈ [20, 40] optimal).
    pub tpcc: DatasetConfig,
    /// Split/batching seed.
    pub split_seed: u64,
}

impl ExperimentConfig {
    /// The paper's full scale.
    pub fn paper() -> Self {
        ExperimentConfig {
            tpcds: DatasetConfig { n_queries: 93_000, k_templates: 100, gen_seed: 1 },
            job: DatasetConfig { n_queries: 2_300, k_templates: 30, gen_seed: 2 },
            tpcc: DatasetConfig { n_queries: 3_958, k_templates: 20, gen_seed: 3 },
            split_seed: 42,
        }
    }

    /// A linearly scaled-down configuration (`scale` in `(0, 1]`) for quick
    /// runs; template counts shrink with the square root so histograms stay
    /// populated.
    pub fn scaled(scale: f64) -> Self {
        let s = scale.clamp(0.001, 1.0);
        let full = Self::paper();
        let shrink = |d: DatasetConfig| DatasetConfig {
            n_queries: ((d.n_queries as f64 * s) as usize).max(300),
            k_templates: ((d.k_templates as f64 * s.sqrt()) as usize).max(8),
            gen_seed: d.gen_seed,
        };
        ExperimentConfig {
            tpcds: shrink(full.tpcds),
            job: shrink(full.job),
            tpcc: shrink(full.tpcc),
            ..full
        }
    }

    /// A small smoke-test configuration used by integration tests.
    pub fn quick() -> Self {
        Self::scaled(0.02)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_published_numbers() {
        let c = ExperimentConfig::paper();
        assert_eq!(c.tpcds.n_queries, 93_000);
        assert_eq!(c.job.n_queries, 2_300);
        assert_eq!(c.tpcc.n_queries, 3_958);
        // The paper's 80/20 split and `s = 10` live in the evaluation
        // protocol, which every dataset shares.
        assert_eq!(crate::eval::TRAIN_FRAC, 0.8);
        assert_eq!(crate::EvalConfig::default().batch_size, 10);
    }

    #[test]
    fn scaling_shrinks_monotonically_with_floors() {
        let half = ExperimentConfig::scaled(0.5);
        assert_eq!(half.tpcds.n_queries, 46_500);
        assert!(half.tpcds.k_templates < 100);
        let tiny = ExperimentConfig::scaled(0.0001);
        assert!(tiny.tpcds.n_queries >= 300);
        assert!(tiny.job.k_templates >= 8);
        let full = ExperimentConfig::scaled(1.0);
        assert_eq!(full.tpcds.n_queries, 93_000);
        assert_eq!(full.tpcds.k_templates, 100);
    }

    #[test]
    fn quick_config_is_small() {
        let q = ExperimentConfig::quick();
        assert!(q.tpcds.n_queries <= 2000);
        assert!(q.job.n_queries >= 300);
    }
}
