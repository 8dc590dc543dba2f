//! Retraining goldens: the template learner's k-means result and the
//! predictions of every `OnlineWmp` retrain, pinned bit for bit. Any change
//! to how k-means iterates or how the sliding window stores its records must
//! reproduce these exactly; every `f64` is compared by its bit pattern.

use learnedwmp::core::{
    LearnedWmp, LearnedWmpConfig, ModelKind, OnlinePolicy, OnlineWmp, PlanKMeansTemplates,
    TemplateLearner, TemplateSpec,
};
use learnedwmp::plan::ResourceVector;
use learnedwmp::workloads::tpch::{instantiate, roundtrip_through_sql};
use learnedwmp::workloads::{QueryLog, QueryRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the IEEE-754 bits of `values`.
fn digest(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn resources(r: ResourceVector) -> String {
    format!("{},{},{}", bits(r.memory_mb), bits(r.cpu_ms), bits(r.io_pages))
}

/// The paper's setting (one template per TPC-H query, k = 22) and a coarser
/// k = 9 that merges templates and so runs more Lloyd iterations.
#[test]
fn plan_kmeans_templates_match_their_golden_fits() {
    let log = learnedwmp::workloads::tpch::generate(3_000, 19).unwrap();
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    for (k, golden) in [(22, GOLDEN_PLAN_KMEANS_22), (9, GOLDEN_PLAN_KMEANS_9)] {
        let mut templates = PlanKMeansTemplates::new(k, 42);
        templates.fit(&refs, &log.catalog).unwrap();
        let km = templates.kmeans().expect("fitted");
        let centroids = km.centroids().expect("fitted");
        assert_eq!(centroids.rows(), k);
        let rows: Vec<String> =
            centroids.row_iter().map(|c| format!("{:016x}", digest(c))).collect();
        let fingerprint = format!(
            "inertia={} iterations={} centroids={}",
            bits(km.inertia()),
            km.iterations_run(),
            rows.join(",")
        );
        assert_eq!(fingerprint, golden, "k = {k}");
    }
}

/// Templates of the mix before and after the shift (out of TPC-H's 22), as
/// in the `serve_retrain` benchmark.
const BEFORE: std::ops::Range<usize> = 0..14;
const AFTER: std::ops::Range<usize> = 8..22;

/// A TPC-H log whose template mix shifts from `BEFORE` to `AFTER` at
/// `shift_at`.
fn shifting_log(n: usize, shift_at: usize, seed: u64) -> QueryLog {
    let cat = learnedwmp::workloads::tpch::catalog();
    let specs = (0..n)
        .map(|i| {
            let mix = if i < shift_at { BEFORE } else { AFTER };
            let template = mix.start + i % mix.len();
            let mut rng =
                StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let spec = instantiate(&cat, template, i as u64, &mut rng);
            (roundtrip_through_sql(&cat, &spec), template)
        })
        .collect();
    learnedwmp::workloads::build_log("tpch-shift", cat, specs).unwrap()
}

/// Warm-starts an `OnlineWmp` from a model fitted on the first 1,000
/// queries, streams the remaining 3,500 through a 1,000-query window
/// (retraining every 500, so the window turns over three and a half times
/// and the mix shift lands mid-stream), and pins each retrained model's
/// predictions for one workload from each side of the shift.
#[test]
fn online_retrains_match_their_golden_predictions() {
    const N_TRAIN: usize = 1_000;
    const N_STREAM: usize = 3_500;
    let log = shifting_log(N_TRAIN + N_STREAM, N_TRAIN + N_STREAM / 2, 7);
    let (train, stream) = log.records.split_at(N_TRAIN);
    let train_refs: Vec<&QueryRecord> = train.iter().collect();
    let initial = LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(TemplateSpec::PlanKMeans { k: 22, seed: 42 })
        .batch_size(10)
        .fit_refs(&train_refs, &log.catalog)
        .unwrap();
    let policy = OnlinePolicy { retrain_every: 500, window: 1_000, k_templates: 22 };
    let config = LearnedWmpConfig { model: ModelKind::Xgb, ..Default::default() };
    let mut online = OnlineWmp::new(config, policy);
    online.warm_start(initial);

    let before: Vec<&QueryRecord> = stream[..10].iter().collect();
    let after: Vec<&QueryRecord> = stream[N_STREAM - 10..].iter().collect();
    let mut lines = Vec::new();
    for record in stream {
        if online.observe(record.clone(), &log.catalog).unwrap().retrained() {
            lines.push(format!(
                "pass={} window={} before={} after={}",
                online.retrain_count(),
                online.window_len(),
                resources(online.predict_resources(&before).unwrap()),
                resources(online.predict_resources(&after).unwrap()),
            ));
        }
    }
    assert_eq!(online.window_len(), 1_000);
    assert_eq!(lines, GOLDEN_ONLINE_RETRAINS);
}

const GOLDEN_PLAN_KMEANS_22: &str = "inertia=4048d6d222271fc3 iterations=2 centroids=8d2651479ff0bccc,0a81ac84a6284d02,f279f703afbb7cc4,a9c11c55854b58d4,c3ee99e67eae4844,8e9a871a6a57ddb8,8a6c3e8e7aa1bb9c,7143074c0e0920d2,c5ec2d718886ab74,d16df3f05bd9a888,0fa2a4330e7921f9,e73cf941bb5d3f1a,97db5f73170bb87f,291bed3d8e06c7d0,d95ad45b62f41123,79811b61b3e40494,730ce5ad04f2d2b8,a2e879d1857cde7a,9356cf0d38240f31,a3820dca0b69b626,dd2ada4275ff43af,4f47472c2e956e46";
const GOLDEN_PLAN_KMEANS_9: &str = "inertia=40c1e816cf01039a iterations=4 centroids=f279f703afbb7cc4,f0dd6ffe8646e815,6e3ae4bf1bf0c088,e73cf941bb5d3f1a,70df2fd028981eca,596810ea14aa4570,c0e43b17bc88e413,2cb91d3ff1932763,986401588b8f9a02";

const GOLDEN_ONLINE_RETRAINS: [&str; 7] = [
    "pass=1 window=500 before=40530355d98d6f8c,40a060523d4aaeb6,40e6011cb78c37e1 after=4047d63383fb6d28,409b04b6fbebee8f,40e38a898a4adb0c",
    "pass=2 window=1000 before=4053fb204d318701,40a1c8fa87d208a1,40e96940005a6e71 after=404292a0303bbac5,40963ba511084d49,40e0d4b5692b4a59",
    "pass=3 window=1000 before=4055a8543f3325ee,409ef57fc0ce70ea,40e7f8073bd9fd8f after=404889dc194c416d,409a252c66253b0d,40e35cec501e9ad3",
    "pass=4 window=1000 before=404d31dfa8eeafec,409a1b799194c075,40e702f48e1fcf59 after=404dbe15caadd3f2,409230706aa6b796,40e07b13ce41924f",
    "pass=5 window=1000 before=404a262087efb938,409d2076a31a6a0c,40e7832f9feb3450 after=40486564e5dbb577,4091cb1cdaabfb12,40e0e2ab278eaf79",
    "pass=6 window=1000 before=40596c49b03e8b57,40956b51017e7681,40e487d3423b56ec after=4052ee420208238f,4090a635fb0aa28a,40e07a677cb8452c",
    "pass=7 window=1000 before=4059df8ecb7af17d,40982e0c8e28d84c,40e3c0a644a1bc84 after=405091d895ecb0a4,40935f0bbe90c7e6,40e0bf60e13b506e",
];
