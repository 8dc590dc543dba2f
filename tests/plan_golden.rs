//! Planner golden: the explained plan, every node's estimated and true row
//! counts, and the plan's feature vector, pinned as FNV-1a digests. Any
//! change to cardinality estimation, the correlation model's lookups or join
//! ordering must reproduce these exactly. Specs come from the TPC-H, TPC-DS
//! and JOB generators; JOB's catalog declares join skew on most of its
//! edges, and TPC-DS declares both join skew and predicate correlations.

use learnedwmp::plan::catalog::Catalog;
use learnedwmp::plan::features::featurize_plan;
use learnedwmp::plan::{Planner, QuerySpec};
use learnedwmp::workloads::{job, tpcds, tpch};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Specs drawn from each generator.
const N_SPECS: usize = 300;

/// FNV-1a over bytes; a NUL after each string keeps `"ab" + "c"` and
/// `"a" + "bc"` apart.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn feed(&mut self, s: &str) {
        self.feed_bytes(s.as_bytes());
        self.feed_bytes(&[0]);
    }

    fn feed_f64(&mut self, v: f64) {
        self.feed_bytes(&v.to_bits().to_le_bytes());
    }
}

/// Plans each spec, digesting the explained plan text, the row-count bits of
/// every node in pre-order, and the feature-vector bits separately.
fn digest_plans(name: &str, specs: &[QuerySpec], catalog: &Catalog) -> String {
    let planner = Planner::new(catalog);
    let (mut text, mut rows, mut features) = (Fnv::new(), Fnv::new(), Fnv::new());
    for spec in specs {
        match planner.plan(spec) {
            Ok(plan) => {
                text.feed(&format!("{plan}"));
                for node in plan.iter() {
                    rows.feed_f64(node.est_rows);
                    rows.feed_f64(node.true_rows);
                }
                for v in featurize_plan(&plan) {
                    features.feed_f64(v);
                }
            }
            Err(e) => text.feed(&format!("error: {e}")),
        }
    }
    format!("{name} plan={:016x} rows={:016x} features={:016x}", text.0, rows.0, features.0)
}

fn rng(seed: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[test]
fn generated_specs_plan_to_their_golden_digests() {
    let tpch_cat = tpch::catalog();
    let tpch_specs: Vec<QuerySpec> = (0..N_SPECS)
        .map(|i| tpch::instantiate(&tpch_cat, i % tpch::N_TEMPLATES, i as u64, &mut rng(21, i)))
        .collect();
    let tpcds_cat = tpcds::catalog();
    let templates = tpcds::templates();
    let tpcds_specs: Vec<QuerySpec> = (0..N_SPECS)
        .map(|i| {
            tpcds::instantiate(
                &tpcds_cat,
                &templates[i % templates.len()],
                i as u64,
                &mut rng(22, i),
            )
        })
        .collect();
    let job_cat = job::catalog();
    let variants = job::variants();
    let job_specs: Vec<QuerySpec> = (0..N_SPECS)
        .map(|i| {
            job::instantiate(&job_cat, &variants[i % variants.len()], i as u64, &mut rng(23, i))
        })
        .collect();
    let lines = [
        digest_plans("tpch", &tpch_specs, &tpch_cat),
        digest_plans("tpcds", &tpcds_specs, &tpcds_cat),
        digest_plans("job", &job_specs, &job_cat),
    ];
    assert_eq!(lines, GOLDEN_PLANS);
}

const GOLDEN_PLANS: [&str; 3] = [
    "tpch plan=621ba3d4d9a55dbd rows=22eebe2268c7a30e features=b40bdcdfae9f2aa9",
    "tpcds plan=2187ec9944752682 rows=89ee753ae3af7b84 features=5f718068345d84c8",
    "job plan=36ad9481ed26e59f rows=846fe43bf1f3fcd7 features=9b34991a12aa220d",
];
