//! Tree-model goldens: the prediction bits of every tree learner (DT, RF,
//! XGB) under LearnedWMP, and of SingleWMP-XGB, pinned as FNV-1a digests on
//! TPC-H, TPC-DS and JOB slices, together with the bytes each regressor
//! saves and the predictions after a codec round trip. Any change to how
//! trees are grown, laid out, walked or serialized must reproduce these
//! exactly. A committed XGB artifact pins that older node orders still load
//! and predict the bits they predicted when saved.

use learnedwmp::core::{
    Approach, LearnedWmp, ModelKind, SingleWmp, TemplateSpec, WorkloadPredictor, N_RESOURCES,
};
use learnedwmp::mlkit::gbdt::GradientBoosting;
use learnedwmp::mlkit::{Matrix, MultiHead, Regressor};
use learnedwmp::plan::ResourceVector;
use learnedwmp::workloads::{job, tpcc, tpcds, tpch, QueryLog, QueryRecord};

/// Queries per dataset slice; workloads are consecutive batches of 10.
const N_QUERIES: usize = 600;
const BATCH: usize = 10;

/// FNV-1a over the IEEE-754 bits of a stream of `f64`s (or raw bytes).
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

    fn feed_f64(&mut self, v: f64) {
        self.feed_bytes(&v.to_bits().to_le_bytes());
    }

    fn feed_resources(&mut self, r: ResourceVector) {
        for v in r.as_array() {
            self.feed_f64(v);
        }
    }
}

fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.feed_bytes(bytes);
    h.0
}

fn params_of(regressor: &dyn Regressor) -> Vec<u8> {
    let mut buf = Vec::new();
    regressor.save_params(&mut buf).expect("save_params");
    buf
}

/// Digest of `predictor`'s resource vector for every batch of the log.
fn digest_workloads(predictor: &dyn WorkloadPredictor, refs: &[&QueryRecord]) -> u64 {
    let mut h = Fnv::new();
    for chunk in refs.chunks(BATCH) {
        h.feed_resources(predictor.predict_resources(chunk).expect("predict"));
    }
    h.0
}

/// LearnedWMP with a tree learner: predictions, saved regressor bytes, and
/// predictions of the codec clone.
fn learned_line(name: &str, kind: ModelKind, log: &QueryLog) -> String {
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    let model = LearnedWmp::builder()
        .model(kind)
        .templates(TemplateSpec::PlanKMeans { k: 12, seed: 42 })
        .batch_size(BATCH)
        .fit(log)
        .unwrap_or_else(|e| panic!("{name} {kind}: {e}"));
    let clone = model.codec_clone().expect("codec clone");
    format!(
        "{name} LearnedWMP-{kind} pred={:016x} params={:016x} trip={:016x}",
        digest_workloads(&model, &refs),
        digest_bytes(&params_of(model.regressor())),
        digest_workloads(&clone, &refs),
    )
}

/// SingleWMP-XGB: workload sums through the predictor, and the per-query
/// heads of the same regressor before and after a codec round trip.
fn single_line(name: &str, log: &QueryLog) -> String {
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    let single = SingleWmp::train(ModelKind::Xgb, &refs).expect("SingleWMP");

    // The regressor SingleWmp::train builds, rebuilt here to reach its codec.
    let rows: Vec<Vec<f64>> = refs.iter().map(|r| r.features.clone()).collect();
    let x = Matrix::from_rows(&rows).expect("features");
    let targets: Vec<Vec<f64>> = (0..N_RESOURCES)
        .map(|t| refs.iter().map(|r| r.resources.as_array()[t]).collect())
        .collect();
    let mut regressor = ModelKind::Xgb.build_multi(Approach::Single, refs.len(), N_RESOURCES);
    regressor.fit_multi(&x, &targets).expect("fit");
    let params = params_of(regressor.as_ref());
    let decode = |r: &mut dyn std::io::Read| -> learnedwmp::mlkit::MlResult<Box<dyn Regressor>> {
        Ok(Box::new(GradientBoosting::read_params(r)?))
    };
    let reloaded = MultiHead::read_params(&mut params.as_slice(), &decode).expect("reload");
    let (mut per_query, mut trip) = (Fnv::new(), Fnv::new());
    for row in &rows {
        for v in regressor.predict_row_multi(row).expect("predict") {
            per_query.feed_f64(v);
        }
        for v in reloaded.predict_row_multi(row).expect("predict reloaded") {
            trip.feed_f64(v);
        }
    }
    format!(
        "{name} SingleWMP-XGB pred={:016x} params={:016x} query={:016x} trip={:016x}",
        digest_workloads(&single, &refs),
        digest_bytes(&params),
        per_query.0,
        trip.0,
    )
}

#[test]
fn tree_models_predict_their_golden_bits() {
    let logs = [
        ("tpch", tpch::generate(N_QUERIES, 31).expect("tpch")),
        ("tpcds", tpcds::generate(N_QUERIES, 32).expect("tpcds")),
        ("job", job::generate(N_QUERIES, 33).expect("job")),
    ];
    let mut lines = Vec::new();
    for (name, log) in &logs {
        for kind in [ModelKind::Xgb, ModelKind::Dt, ModelKind::Rf] {
            lines.push(learned_line(name, kind, log));
        }
        lines.push(single_line(name, log));
    }
    assert_eq!(lines, GOLDEN_TREE_MODELS);
}

/// A LearnedWMP-XGB artifact (k = 8, batch 10) saved from
/// `tpcc::generate(300, 29)` before trees moved to the children-adjacent
/// layout: its arenas list nodes in pre-order. It must load, predict the
/// bits it predicted at save time, and save back to the same bytes.
#[test]
fn xgb_fixture_loads_and_predicts_its_recorded_bits() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/learnedwmp_v2_xgb.lwmp");
    let bytes = std::fs::read(&path).expect("fixture");
    let model = LearnedWmp::load_from_reader(&mut bytes.as_slice()).expect("fixture loads");
    assert_eq!(model.config().model, ModelKind::Xgb);

    let log = tpcc::generate(300, 29).expect("log");
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    assert_eq!(format!("{:016x}", digest_workloads(&model, &refs)), GOLDEN_FIXTURE_PRED);

    let mut resaved = Vec::new();
    model.save_to_writer(&mut resaved).expect("save");
    assert!(resaved == bytes, "re-saving the fixture must reproduce its bytes");
    // Model size is the persisted bytes, template learner included.
    assert_eq!(model.footprint_bytes(), 37_379);
    assert_eq!(model.footprint_bytes(), bytes.len());
}

const GOLDEN_TREE_MODELS: [&str; 12] = [
    "tpch LearnedWMP-XGB pred=13daa28c026ffa53 params=978952d22df3dc3e trip=13daa28c026ffa53",
    "tpch LearnedWMP-DT pred=ab8ada8a7b1c38cf params=8e354d26d33a9f4c trip=ab8ada8a7b1c38cf",
    "tpch LearnedWMP-RF pred=fe03966169cda303 params=006d572bedd7465a trip=fe03966169cda303",
    "tpch SingleWMP-XGB pred=fd8719281a9b73b5 params=72c8c5c5c19be685 query=32a1abfc46659380 trip=32a1abfc46659380",
    "tpcds LearnedWMP-XGB pred=aa59b88b9a971d4d params=89d9618aa88430fa trip=aa59b88b9a971d4d",
    "tpcds LearnedWMP-DT pred=476cbbc4272a6605 params=401691d390a43a7c trip=476cbbc4272a6605",
    "tpcds LearnedWMP-RF pred=58c13965102111b2 params=e9261d9bf7db9133 trip=58c13965102111b2",
    "tpcds SingleWMP-XGB pred=5ac391b8197d86eb params=5e74f89c6090c555 query=cc0db5adc36467d2 trip=cc0db5adc36467d2",
    "job LearnedWMP-XGB pred=5e5cad5064a9b0fb params=8bc31d9ed5aba6b9 trip=5e5cad5064a9b0fb",
    "job LearnedWMP-DT pred=c838fd2dcad1dbf0 params=8eb6e9fa9e94ae07 trip=c838fd2dcad1dbf0",
    "job LearnedWMP-RF pred=91277b22f42d8b38 params=89e57b2b08e92abb trip=91277b22f42d8b38",
    "job SingleWMP-XGB pred=f708e5fd9ff57e46 params=4503edcda0638a97 query=5af8e93d8efc1781 trip=5af8e93d8efc1781",
];

const GOLDEN_FIXTURE_PRED: &str = "73300c0520b751cc";
