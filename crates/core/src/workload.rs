//! Workload batching (paper step TR4): partition queries into fixed-size
//! workloads of `s` queries and compute each workload's resource label `y` —
//! a [`ResourceVector`] aggregating memory, CPU time, and IO pages.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use wmp_plan::ResourceVector;
use wmp_workloads::QueryRecord;

/// How a workload's label aggregates its queries' per-resource demands.
///
/// The paper's prose and worked example (Fig. 3) *sum* per-query peaks; its
/// eq. (1) typesets a `max`. We implement the prose semantics as the default
/// and keep `Max` as an ablation (`ablation_label_mode`). Aggregation is
/// componentwise: every resource axis (memory / CPU / IO) is summed or
/// maxed independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelMode {
    /// `y = Σ mᵢ` per resource — collective demand if the batch runs
    /// concurrently.
    Sum,
    /// `y = max mᵢ` per resource — the single heaviest query on each axis.
    Max,
}

/// A workload: indices into a record slice plus the resource label.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Indices of the member queries (into the record slice used to batch).
    pub query_indices: Vec<usize>,
    /// Aggregated actual resource demand (memory MB / CPU ms / IO pages).
    pub y: ResourceVector,
}

impl Workload {
    /// The memory component of the label — the paper's original scalar `y`.
    pub fn y_mb(&self) -> f64 {
        self.y.memory_mb
    }
}

/// Computes a workload label from member records, componentwise per resource.
pub fn label_of(records: &[&QueryRecord], mode: LabelMode) -> ResourceVector {
    match mode {
        LabelMode::Sum => records.iter().map(|r| r.resources).sum(),
        LabelMode::Max => records
            .iter()
            .map(|r| r.resources)
            .fold(ResourceVector::ZERO, |acc, r| acc.component_max(r)),
    }
}

/// Randomly partitions `records` into workloads of exactly `batch_size`
/// queries (paper TR4: "randomly divides training queries into m training
/// workloads"). A trailing remainder smaller than `batch_size` is dropped so
/// every workload has identical size, as in the paper's fixed-length design.
pub fn batch_workloads(
    records: &[&QueryRecord],
    batch_size: usize,
    seed: u64,
    mode: LabelMode,
) -> Vec<Workload> {
    assert!(batch_size > 0, "batch_size must be positive");
    let mut idx: Vec<usize> = (0..records.len()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    idx.chunks_exact(batch_size)
        .map(|chunk| {
            let members: Vec<&QueryRecord> = chunk.iter().map(|&i| records[i]).collect();
            Workload { query_indices: chunk.to_vec(), y: label_of(&members, mode) }
        })
        .collect()
}

/// Variable-length batching — the extension the paper names in §I ("the
/// design can easily be extended to work with variable-length workloads"):
/// workload sizes are drawn uniformly from `min_size..=max_size`. Histogram
/// *counts* still encode the workload size, so a LearnedWMP model trained on
/// variable batches predicts sum labels across sizes.
pub fn batch_workloads_variable(
    records: &[&QueryRecord],
    min_size: usize,
    max_size: usize,
    seed: u64,
    mode: LabelMode,
) -> Vec<Workload> {
    assert!(min_size > 0, "min_size must be positive");
    assert!(min_size <= max_size, "min_size must not exceed max_size");
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..records.len()).collect();
    idx.shuffle(&mut rng);
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < idx.len() {
        let want = rng.gen_range(min_size..=max_size);
        if idx.len() - pos < want {
            break; // drop the undersized remainder, as in fixed-length mode
        }
        let chunk = &idx[pos..pos + want];
        let members: Vec<&QueryRecord> = chunk.iter().map(|&i| records[i]).collect();
        out.push(Workload { query_indices: chunk.to_vec(), y: label_of(&members, mode) });
        pos += want;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmp_plan::features::N_PLAN_FEATURES;
    use wmp_plan::query::{QueryShape, QuerySpec, TableRef};

    fn record(id: u64, mem: f64) -> QueryRecord {
        // Each resource axis scales differently so componentwise aggregation
        // bugs (e.g. summing memory into cpu) are caught.
        let resources = ResourceVector::new(mem, mem * 3.0, mem * 10.0);
        QueryRecord {
            id,
            spec: QuerySpec::new(
                id,
                QueryShape { tables: vec![TableRef::plain("t")], ..QueryShape::default() },
            ),
            features: vec![0.0; N_PLAN_FEATURES],
            resources,
            dbms_estimate: resources.scale(1.1),
            template_hint: 0,
        }
    }

    fn records(n: usize) -> Vec<QueryRecord> {
        (0..n).map(|i| record(i as u64, (i + 1) as f64)).collect()
    }

    #[test]
    fn batches_have_exact_size_and_drop_remainder() {
        let owned = records(23);
        let refs: Vec<&QueryRecord> = owned.iter().collect();
        let ws = batch_workloads(&refs, 10, 0, LabelMode::Sum);
        assert_eq!(ws.len(), 2);
        assert!(ws.iter().all(|w| w.query_indices.len() == 10));
        // No index repeats across workloads.
        let mut all: Vec<usize> = ws.iter().flat_map(|w| w.query_indices.clone()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 20);
    }

    #[test]
    fn sum_label_adds_member_resources_componentwise() {
        let owned = records(4);
        let refs: Vec<&QueryRecord> = owned.iter().collect();
        let ws = batch_workloads(&refs, 4, 1, LabelMode::Sum);
        assert_eq!(ws.len(), 1);
        let total = 1.0 + 2.0 + 3.0 + 4.0;
        assert!((ws[0].y.memory_mb - total).abs() < 1e-12);
        assert!((ws[0].y.cpu_ms - total * 3.0).abs() < 1e-12);
        assert!((ws[0].y.io_pages - total * 10.0).abs() < 1e-12);
        assert!((ws[0].y_mb() - total).abs() < 1e-12);
    }

    #[test]
    fn max_label_takes_heaviest_member_per_resource() {
        let owned = records(4);
        let refs: Vec<&QueryRecord> = owned.iter().collect();
        let ws = batch_workloads(&refs, 4, 1, LabelMode::Max);
        assert!((ws[0].y.memory_mb - 4.0).abs() < 1e-12);
        assert!((ws[0].y.cpu_ms - 12.0).abs() < 1e-12);
        assert!((ws[0].y.io_pages - 40.0).abs() < 1e-12);
    }

    #[test]
    fn batching_is_deterministic_and_seed_sensitive() {
        let owned = records(30);
        let refs: Vec<&QueryRecord> = owned.iter().collect();
        assert_eq!(
            batch_workloads(&refs, 10, 5, LabelMode::Sum),
            batch_workloads(&refs, 10, 5, LabelMode::Sum)
        );
        assert_ne!(
            batch_workloads(&refs, 10, 5, LabelMode::Sum),
            batch_workloads(&refs, 10, 6, LabelMode::Sum)
        );
    }

    #[test]
    fn batch_size_one_matches_per_query_labels() {
        let owned = records(5);
        let refs: Vec<&QueryRecord> = owned.iter().collect();
        let ws = batch_workloads(&refs, 1, 0, LabelMode::Sum);
        assert_eq!(ws.len(), 5);
        for w in &ws {
            assert_eq!(w.y, refs[w.query_indices[0]].resources);
        }
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn zero_batch_size_panics() {
        let owned = records(3);
        let refs: Vec<&QueryRecord> = owned.iter().collect();
        batch_workloads(&refs, 0, 0, LabelMode::Sum);
    }

    #[test]
    fn variable_batches_stay_within_bounds_and_partition() {
        let owned = records(100);
        let refs: Vec<&QueryRecord> = owned.iter().collect();
        let ws = batch_workloads_variable(&refs, 5, 15, 3, LabelMode::Sum);
        assert!(ws.len() >= 100 / 15);
        let mut seen = std::collections::HashSet::new();
        for w in &ws {
            assert!(w.query_indices.len() >= 5 && w.query_indices.len() <= 15);
            for &i in &w.query_indices {
                assert!(seen.insert(i), "no index may repeat");
            }
            let expect: ResourceVector = w.query_indices.iter().map(|&i| refs[i].resources).sum();
            assert!(w.y.abs_diff(expect).as_array().iter().all(|d| *d < 1e-12));
        }
        // Sizes actually vary.
        let sizes: std::collections::HashSet<usize> =
            ws.iter().map(|w| w.query_indices.len()).collect();
        assert!(sizes.len() > 1, "variable batching must produce varied sizes");
    }

    #[test]
    fn variable_batching_with_equal_bounds_matches_fixed() {
        let owned = records(40);
        let refs: Vec<&QueryRecord> = owned.iter().collect();
        let var = batch_workloads_variable(&refs, 10, 10, 3, LabelMode::Sum);
        assert_eq!(var.len(), 4);
        assert!(var.iter().all(|w| w.query_indices.len() == 10));
    }

    #[test]
    #[should_panic(expected = "min_size must not exceed max_size")]
    fn variable_batching_validates_bounds() {
        let owned = records(10);
        let refs: Vec<&QueryRecord> = owned.iter().collect();
        batch_workloads_variable(&refs, 8, 4, 0, LabelMode::Sum);
    }
}
