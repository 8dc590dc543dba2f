//! Model persistence, end to end through the facade. This suite owns "every
//! `ModelKind` trains, predicts and round-trips": save → load → predict must
//! be bit-for-bit deterministic for every family, and corrupted, truncated,
//! or version-mismatched artifacts must fail loudly — never load as a
//! silently wrong model.

use learnedwmp::core::{
    batch_workloads, LabelMode, LearnedWmp, ModelKind, TemplateSpec, WorkloadPredictor,
};
use learnedwmp::workloads::QueryRecord;

fn trained(kind: ModelKind, log: &learnedwmp::workloads::QueryLog) -> LearnedWmp {
    LearnedWmp::builder()
        .model(kind)
        .templates(TemplateSpec::PlanKMeans { k: 8, seed: 42 })
        .fit(log)
        .unwrap_or_else(|e| panic!("{kind:?}: training failed: {e}"))
}

fn artifact_of(model: &LearnedWmp) -> Vec<u8> {
    let mut buf = Vec::new();
    model.save_to_writer(&mut buf).expect("save");
    buf
}

#[test]
fn save_load_predict_is_bit_identical_for_every_model_kind() {
    let log = learnedwmp::workloads::tpcc::generate(400, 11).expect("log");
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    let workloads = batch_workloads(&refs, 10, 7, LabelMode::Sum);
    for kind in ModelKind::ALL {
        let model = trained(kind, &log);
        assert_eq!(model.config().model, kind);
        let bytes = artifact_of(&model);
        let reloaded = LearnedWmp::load_from_reader(&mut bytes.as_slice())
            .unwrap_or_else(|e| panic!("{kind:?}: load failed: {e}"));

        // Single-workload path.
        for chunk in refs.chunks(10).take(5) {
            let p = model.predict_resources(chunk).expect("orig");
            assert!(p.is_finite() && p.memory_mb > 0.0, "{kind:?} predicted {p}");
            assert_eq!(
                p.as_array().map(f64::to_bits),
                reloaded.predict_resources(chunk).expect("reloaded").as_array().map(f64::to_bits),
                "{kind:?}: single-workload prediction must be bit-identical"
            );
        }
        // Batched trait path.
        let a = model.predict_resources_many(&refs, &workloads).expect("orig");
        let b = reloaded.predict_resources_many(&refs, &workloads).expect("reloaded");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.as_array().map(f64::to_bits),
                y.as_array().map(f64::to_bits),
                "{kind:?}: batched prediction drifted"
            );
        }
        // Metadata and size accounting survive too.
        assert_eq!(model.footprint_bytes(), reloaded.footprint_bytes(), "{kind:?}");
        assert_eq!(model.config().model, reloaded.config().model, "{kind:?}");
        assert_eq!(model.config().batch_size, reloaded.config().batch_size, "{kind:?}");
        assert_eq!(model.n_train_workloads, reloaded.n_train_workloads, "{kind:?}");
        assert_eq!(model.timings.fit_ms.to_bits(), reloaded.timings.fit_ms.to_bits(), "{kind:?}");
    }
}

#[test]
fn save_is_deterministic_per_model() {
    let log = learnedwmp::workloads::tpcc::generate(300, 5).expect("log");
    let model = trained(ModelKind::Xgb, &log);
    assert_eq!(artifact_of(&model), artifact_of(&model), "same model, same bytes");
}

#[test]
fn file_round_trip_via_paths() {
    let log = learnedwmp::workloads::tpcc::generate(300, 6).expect("log");
    let model = trained(ModelKind::Rf, &log);
    let path = std::env::temp_dir().join(format!("lwmp-test-{}.lwmp", std::process::id()));
    model.save_to(&path).expect("save_to");
    let reloaded = LearnedWmp::load_from(&path).expect("load_from");
    std::fs::remove_file(&path).ok();
    let refs: Vec<&QueryRecord> = log.records.iter().collect();
    assert_eq!(
        model.predict_resources(&refs[..10]).unwrap().as_array().map(f64::to_bits),
        reloaded.predict_resources(&refs[..10]).unwrap().as_array().map(f64::to_bits)
    );
}

#[test]
fn version_mismatch_is_a_clear_error() {
    let log = learnedwmp::workloads::tpcc::generate(250, 2).expect("log");
    let mut bytes = artifact_of(&trained(ModelKind::Ridge, &log));
    // The format version lives at offset 4 (u16 LE). Version 3 does not
    // exist yet; versions 1 and 2 both load.
    bytes[4] = 3;
    bytes[5] = 0;
    let err = LearnedWmp::load_from_reader(&mut bytes.as_slice()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("version 3"), "error must name the found version: {msg}");
    assert!(msg.contains("1..=2"), "error must name the supported versions: {msg}");
}

/// Cross-version compatibility: a committed format-version-1 artifact
/// (trained before multi-resource targets existed, when plan features were
/// 20-wide and labels were scalar memory) must still load and predict the
/// exact bits it predicted at save time. The fixture was built from
/// `tpcc::generate(250, 3)` with Ridge and `PlanKMeans { k: 6, seed: 1 }`;
/// today's generator emits the same first 20 features (the 6 structural
/// features are appended after), so truncating regenerated records
/// reconstructs the fixture's inputs.
#[test]
fn version_1_fixture_still_loads_and_predicts_the_recorded_bits() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/learnedwmp_v1_ridge.lwmp");
    let model = LearnedWmp::load_from(&path).expect("v1 artifact must load");
    assert_eq!(model.config().model, ModelKind::Ridge);

    let log = learnedwmp::workloads::tpcc::generate(250, 3).expect("log");
    let mut records = log.records.clone();
    for r in &mut records {
        r.features.truncate(20);
    }
    let refs: Vec<&QueryRecord> = records.iter().collect();
    let pred = model.predict_resources(&refs[..10]).expect("predict").memory_mb;
    assert_eq!(
        pred.to_bits(),
        0x3fe4_b7a2_4e70_2334,
        "v1 artifact drifted: predicted {pred}, expected 0.6474162609093583"
    );

    // A v1 model is scalar: its resource vector is the memory projection.
    let r = model.predict_resources(&refs[..10]).expect("resources");
    assert_eq!(r.memory_mb.to_bits(), pred.to_bits());
    assert_eq!(r.cpu_ms, 0.0);
    assert_eq!(r.io_pages, 0.0);
}

#[test]
fn corrupted_bytes_are_rejected_everywhere() {
    let log = learnedwmp::workloads::tpcc::generate(250, 3).expect("log");
    let bytes = artifact_of(&trained(ModelKind::Dt, &log));
    // Flip one byte at a spread of offsets (header, config, payloads,
    // checksum): every corruption must error, never load silently.
    let step = (bytes.len() / 13).max(1);
    for offset in (0..bytes.len()).step_by(step) {
        let mut bad = bytes.clone();
        bad[offset] ^= 0x55;
        assert!(
            LearnedWmp::load_from_reader(&mut bad.as_slice()).is_err(),
            "flipping byte {offset} of {} must not load",
            bytes.len()
        );
    }
}

#[test]
fn truncated_files_are_rejected_at_every_length() {
    let log = learnedwmp::workloads::tpcc::generate(250, 4).expect("log");
    let bytes = artifact_of(&trained(ModelKind::Dnn, &log));
    let step = (bytes.len() / 17).max(1);
    for cut in (0..bytes.len()).step_by(step) {
        assert!(
            LearnedWmp::load_from_reader(&mut &bytes[..cut]).is_err(),
            "a {cut}-byte prefix of {} must not load",
            bytes.len()
        );
    }
}
