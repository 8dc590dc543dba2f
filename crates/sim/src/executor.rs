//! Executor working-memory simulator — the source of the ground-truth label
//! `m` (per-query peak working memory) of the paper's query triple
//! `q = (e, p, m)`.
//!
//! The model walks the physical plan bottom-up computing, for every operator,
//! how much working memory it needs based on **true** cardinalities and row
//! widths (hash-join build tables, sort heaps with spill caps, aggregation
//! hash tables), then performs a pipeline-phase analysis to find the peak
//! *concurrent* footprint: a blocking operator's memory coexists with its
//! streaming child's resident memory, a hash join's table lives through both
//! the build and probe phases, and so on.

use wmp_plan::plan::{Operator, PlanNode};
use wmp_plan::{CostModel, ResourceVector};

use crate::noise::lognormal_factor;

/// Bytes per mebibyte.
pub const MB: f64 = 1024.0 * 1024.0;

/// Executor memory-model constants.
#[derive(Debug, Clone)]
pub struct MemoryConfig {
    /// Table-scan I/O buffer (bytes).
    pub scan_buffer: f64,
    /// Index-scan buffer (bytes).
    pub index_buffer: f64,
    /// Sort heap cap per sort (bytes); larger inputs spill and hold the cap
    /// plus merge buffers.
    pub sort_heap_cap: f64,
    /// Extra merge buffers held by a spilling sort (bytes).
    pub spill_merge_buffers: f64,
    /// Per-entry overhead of a hash-join table (pointers, hashes, alignment).
    pub hash_entry_overhead: f64,
    /// Per-group overhead of a hash-aggregate state entry.
    pub agg_entry_overhead: f64,
    /// Per-entry overhead of hash DISTINCT.
    pub distinct_entry_overhead: f64,
    /// Bucket-array bytes per entry (hash tables size their directory
    /// proportionally to the entry count).
    pub bucket_bytes_per_entry: f64,
    /// Streaming-operator scratch (merge join, stream agg, NL join) in bytes.
    pub stream_scratch: f64,
    /// Log-normal noise sigma applied to the final peak (0 disables noise).
    pub noise_sigma: f64,
    /// Seed for the noise.
    pub noise_seed: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            scan_buffer: 0.25 * MB,
            index_buffer: 0.0625 * MB,
            sort_heap_cap: 192.0 * MB,
            spill_merge_buffers: 4.0 * MB,
            hash_entry_overhead: 48.0,
            agg_entry_overhead: 64.0,
            distinct_entry_overhead: 48.0,
            bucket_bytes_per_entry: 8.0,
            stream_scratch: 0.0625 * MB,
            noise_sigma: 0.05,
            noise_seed: 0xC0FFEE,
        }
    }
}

/// Memory demand of one plan fragment during pipeline analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemProfile {
    /// Highest concurrent footprint observed while the fragment executes.
    pub peak: f64,
    /// Memory still held while the fragment streams rows to its parent.
    pub resident: f64,
}

/// The executor simulator.
#[derive(Debug, Clone, Default)]
pub struct ExecutorSimulator {
    config: MemoryConfig,
    cost: CostModel,
}

impl ExecutorSimulator {
    /// Simulator with default constants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulator with explicit constants.
    pub fn with_config(config: MemoryConfig) -> Self {
        ExecutorSimulator { config, cost: CostModel::default() }
    }

    /// The configured constants.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Peak working memory of a query in megabytes, including per-query noise
    /// (`query_id` seeds the noise deterministically).
    pub fn peak_memory_mb(&self, plan: &PlanNode, query_id: u64) -> f64 {
        let profile = self.profile(plan);
        let noise = if self.config.noise_sigma > 0.0 {
            lognormal_factor(self.config.noise_seed, query_id, self.config.noise_sigma)
        } else {
            1.0
        };
        profile.peak * noise / MB
    }

    /// Ground-truth resource label of a query: peak working memory from the
    /// pipeline analysis plus CPU time and I/O volume from the cost model,
    /// all under **true** cardinalities. Each component draws its own
    /// deterministic log-normal run noise from the same `(seed, query_id)`
    /// stream, so the three labels stay correlated through the shared plan
    /// while still varying independently run-to-run like real measurements.
    pub fn true_resources(&self, plan: &PlanNode, query_id: u64) -> ResourceVector {
        let cost = self.cost.true_cost(plan);
        let noise = |salt: u64| {
            if self.config.noise_sigma > 0.0 {
                lognormal_factor(self.config.noise_seed ^ salt, query_id, self.config.noise_sigma)
            } else {
                1.0
            }
        };
        ResourceVector {
            memory_mb: self.peak_memory_mb(plan, query_id),
            cpu_ms: cost.cpu_ms * noise(0x5EED_0001),
            io_pages: (cost.io_pages * noise(0x5EED_0002)).round(),
        }
    }

    /// Noise-free pipeline analysis of a plan fragment (uses true rows).
    pub fn profile(&self, node: &PlanNode) -> MemProfile {
        let c = &self.config;
        match &node.op {
            Operator::TableScan { .. } => {
                MemProfile { peak: c.scan_buffer, resident: c.scan_buffer }
            }
            Operator::IndexScan { .. } => {
                MemProfile { peak: c.index_buffer, resident: c.index_buffer }
            }
            Operator::HashJoin => {
                let probe = self.profile(&node.children[0]);
                let build = self.profile(&node.children[1]);
                let b = &node.children[1];
                let table = b.true_rows
                    * (b.row_width as f64 + c.hash_entry_overhead + c.bucket_bytes_per_entry);
                // Build phase: table grows while the build child streams;
                // probe phase: full table coexists with the probe subtree.
                let peak = (build.peak).max(table + build.resident).max(table + probe.peak);
                MemProfile { peak, resident: table + probe.resident }
            }
            Operator::NestedLoopJoin => {
                let outer = self.profile(&node.children[0]);
                let inner = self.profile(&node.children[1]);
                // The inner side is re-evaluated per outer row; both sides'
                // working sets coexist.
                let peak = outer.peak.max(outer.resident + inner.peak) + c.stream_scratch;
                MemProfile { peak, resident: outer.resident + inner.resident + c.stream_scratch }
            }
            Operator::MergeJoin => {
                let l = self.profile(&node.children[0]);
                let r = self.profile(&node.children[1]);
                let peak = (l.peak + r.resident).max(r.peak + l.resident) + c.stream_scratch;
                MemProfile { peak, resident: l.resident + r.resident + c.stream_scratch }
            }
            Operator::Sort { .. } => {
                let child = self.profile(&node.children[0]);
                let input = &node.children[0];
                let data = input.true_rows * input.row_width as f64;
                let heap = if data <= c.sort_heap_cap {
                    data
                } else {
                    c.sort_heap_cap + c.spill_merge_buffers
                };
                let peak = child.peak.max(heap + child.resident);
                MemProfile { peak, resident: heap }
            }
            Operator::HashAggregate { .. } => {
                let child = self.profile(&node.children[0]);
                let table = node.true_rows
                    * (node.row_width as f64 + c.agg_entry_overhead + c.bucket_bytes_per_entry);
                let peak = child.peak.max(table + child.resident);
                MemProfile { peak, resident: table }
            }
            Operator::StreamAggregate { .. } => {
                let child = self.profile(&node.children[0]);
                let peak = child.peak.max(child.resident + c.stream_scratch);
                MemProfile { peak, resident: c.stream_scratch }
            }
            Operator::HashDistinct => {
                let child = self.profile(&node.children[0]);
                let table = node.true_rows
                    * (node.row_width as f64
                        + c.distinct_entry_overhead
                        + c.bucket_bytes_per_entry);
                let peak = child.peak.max(table + child.resident);
                MemProfile { peak, resident: table }
            }
            Operator::Limit { .. } => self.profile(&node.children[0]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmp_plan::plan::{Operator, PlanNode};

    fn scan(rows: f64, width: u32) -> PlanNode {
        PlanNode::leaf(
            Operator::TableScan { table: "t".into(), alias: "t".into() },
            rows,
            rows,
            width,
        )
    }

    fn sim() -> ExecutorSimulator {
        ExecutorSimulator::with_config(MemoryConfig { noise_sigma: 0.0, ..MemoryConfig::default() })
    }

    #[test]
    fn scan_memory_is_just_the_buffer() {
        let s = sim();
        let p = s.profile(&scan(1e6, 100));
        assert_eq!(p.peak, s.config().scan_buffer);
        assert_eq!(p.resident, s.config().scan_buffer);
    }

    #[test]
    fn hash_join_memory_tracks_build_side() {
        let s = sim();
        let probe = scan(1_000_000.0, 100);
        let build = scan(10_000.0, 80);
        let join = PlanNode {
            op: Operator::HashJoin,
            children: vec![probe, build],
            est_rows: 1e6,
            true_rows: 1e6,
            row_width: 180,
        };
        let p = s.profile(&join);
        let table = 10_000.0 * (80.0 + 48.0 + 8.0);
        assert!(p.peak >= table, "peak covers the build table");
        assert!(p.peak <= table + 3.0 * s.config().scan_buffer, "but not much more");
        assert!(p.resident >= table, "table persists through probing");
    }

    #[test]
    fn bigger_build_side_means_more_memory() {
        let s = sim();
        let mk = |build_rows: f64| {
            let join = PlanNode {
                op: Operator::HashJoin,
                children: vec![scan(1e6, 100), scan(build_rows, 80)],
                est_rows: 1e6,
                true_rows: 1e6,
                row_width: 180,
            };
            s.profile(&join).peak
        };
        assert!(mk(100_000.0) > mk(1_000.0));
    }

    #[test]
    fn sort_holds_data_until_the_cap_then_spills() {
        let s = sim();
        let small_input = scan(1000.0, 100); // 100 KB sorts in memory
        let small_sort = PlanNode::unary(
            Operator::Sort { keys: vec!["t.a".into()] },
            small_input,
            1000.0,
            1000.0,
            100,
        );
        let p = s.profile(&small_sort);
        assert!((p.resident - 1000.0 * 100.0).abs() < 1.0);

        let huge_input = scan(1e8, 100); // 10 GB spills
        let huge_sort =
            PlanNode::unary(Operator::Sort { keys: vec!["t.a".into()] }, huge_input, 1e8, 1e8, 100);
        let p = s.profile(&huge_sort);
        let expected = s.config().sort_heap_cap + s.config().spill_merge_buffers;
        assert!((p.resident - expected).abs() < 1.0, "spilling sort holds the cap");
    }

    #[test]
    fn hash_aggregate_scales_with_group_count() {
        let s = sim();
        let mk = |groups: f64| {
            let agg = PlanNode::unary(
                Operator::HashAggregate { n_group_cols: 1, n_aggs: 2 },
                scan(1e6, 100),
                groups,
                groups,
                64,
            );
            s.profile(&agg).peak
        };
        assert!(mk(1e6) > mk(100.0) * 100.0);
    }

    #[test]
    fn pipeline_analysis_stacks_blocking_operators() {
        // sort(hash_join(scan, scan)): the sort heap coexists with the join's
        // hash table (the join streams into the sort).
        let s = sim();
        let join = PlanNode {
            op: Operator::HashJoin,
            children: vec![scan(1e6, 100), scan(100_000.0, 80)],
            est_rows: 1e6,
            true_rows: 1e6,
            row_width: 180,
        };
        let table = 100_000.0 * (80.0 + 48.0 + 8.0);
        let sort =
            PlanNode::unary(Operator::Sort { keys: vec!["t.a".into()] }, join, 1e6, 1e6, 180);
        let sort_heap = 1e6 * 180.0; // 180 MB of data, below the 192 MB cap
        let p = s.profile(&sort);
        assert!(
            p.peak >= table + sort_heap,
            "join table ({table}) and sort heap ({sort_heap}) coexist; peak = {}",
            p.peak
        );
    }

    #[test]
    fn stream_aggregate_is_cheap() {
        let s = sim();
        let agg =
            PlanNode::unary(Operator::StreamAggregate { n_aggs: 1 }, scan(1e6, 100), 1.0, 1.0, 32);
        let p = s.profile(&agg);
        assert!(p.peak < 1.0 * MB);
    }

    #[test]
    fn limit_is_transparent() {
        let s = sim();
        let inner = scan(1e6, 100);
        let expected = s.profile(&inner);
        let limited = PlanNode::unary(Operator::Limit { n: 10 }, inner, 10.0, 10.0, 100);
        assert_eq!(s.profile(&limited), expected);
    }

    #[test]
    fn memory_uses_true_rows_not_estimates() {
        let s = sim();
        // Same estimates, different truths: the truth must win.
        let mk = |true_rows: f64| {
            let mut build = scan(10_000.0, 80);
            build.true_rows = true_rows;
            let join = PlanNode {
                op: Operator::HashJoin,
                children: vec![scan(1e6, 100), build],
                est_rows: 1e6,
                true_rows: 1e6,
                row_width: 180,
            };
            s.profile(&join).peak
        };
        assert!(mk(100_000.0) > mk(10_000.0));
    }

    #[test]
    fn noise_is_small_and_deterministic() {
        let noisy = ExecutorSimulator::new();
        let plan = PlanNode::unary(
            Operator::Sort { keys: vec!["t.a".into()] },
            scan(100_000.0, 100),
            100_000.0,
            100_000.0,
            100,
        );
        let a = noisy.peak_memory_mb(&plan, 7);
        let b = noisy.peak_memory_mb(&plan, 7);
        assert_eq!(a, b);
        let base = sim().peak_memory_mb(&plan, 7);
        assert!((a / base - 1.0).abs() < 0.3, "noise stays within ~30%");
        // Different query ids draw different noise.
        assert_ne!(noisy.peak_memory_mb(&plan, 7), noisy.peak_memory_mb(&plan, 8));
    }

    #[test]
    fn true_resources_are_deterministic_and_correlated_with_plan_size() {
        let s = ExecutorSimulator::new();
        let small = PlanNode::unary(
            Operator::Sort { keys: vec!["t.a".into()] },
            scan(10_000.0, 100),
            10_000.0,
            10_000.0,
            100,
        );
        let large = PlanNode::unary(
            Operator::Sort { keys: vec!["t.a".into()] },
            scan(5_000_000.0, 100),
            5_000_000.0,
            5_000_000.0,
            100,
        );
        let a = s.true_resources(&small, 3);
        assert_eq!(a, s.true_resources(&small, 3), "deterministic per (plan, id)");
        let b = s.true_resources(&large, 3);
        assert!(b.memory_mb > a.memory_mb);
        assert!(b.cpu_ms > a.cpu_ms);
        assert!(b.io_pages > a.io_pages);
        assert!(a.is_finite() && b.is_finite());
        // Memory matches the scalar path exactly.
        assert_eq!(a.memory_mb, s.peak_memory_mb(&small, 3));
    }

    #[test]
    fn nested_loop_join_is_cheap() {
        let s = sim();
        let nl = PlanNode {
            op: Operator::NestedLoopJoin,
            children: vec![scan(100.0, 100), scan(1e6, 100)],
            est_rows: 1000.0,
            true_rows: 1000.0,
            row_width: 200,
        };
        let p = s.profile(&nl);
        assert!(p.peak < 2.0 * MB, "index NL join needs no big structures");
    }
}
