//! Template-learner artifact goldens: the bytes `save_to_writer` writes for
//! a small LearnedWMP-Ridge model under each of the six template specs,
//! pinned as a length and an FNV-1a digest. The v2 fixture in
//! `tests/tree_golden.rs` pins only the plan-k-means payload; these pin the
//! rule-based, text and DBSCAN payloads too. Any change to how templates
//! are fitted, laid out or serialized must reproduce these exactly.

use learnedwmp::core::{LearnedWmp, ModelKind, TemplateSpec, TextMode, TrainTimings};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const SPECS: [(&str, TemplateSpec); 6] = [
    ("query_plan", TemplateSpec::PlanKMeans { k: 6, seed: 1 }),
    ("rule_based", TemplateSpec::RuleBased),
    ("bag_of_words", TemplateSpec::Text { mode: TextMode::BagOfWords, k: 5, seed: 1 }),
    ("text_mining", TemplateSpec::Text { mode: TextMode::TextMining, k: 5, seed: 1 }),
    ("word_embeddings", TemplateSpec::Text { mode: TextMode::Embedding, k: 5, seed: 1 }),
    ("dbscan", TemplateSpec::Dbscan { eps: 1.0, min_pts: 4 }),
];

/// One line per spec: its name, artifact length and digest. The training
/// timings are wall-clock, so they are zeroed before the model is saved;
/// every other byte is a deterministic function of the log and the spec.
/// Each artifact must also load and save back to the same bytes.
#[test]
fn every_template_spec_saves_its_golden_bytes() {
    let log = learnedwmp::workloads::tpcc::generate(250, 3).expect("log");
    let mut lines = Vec::new();
    for (name, spec) in SPECS {
        let mut model = LearnedWmp::builder()
            .model(ModelKind::Ridge)
            .templates(spec)
            .fit(&log)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        model.timings = TrainTimings::default();
        let mut bytes = Vec::new();
        model.save_to_writer(&mut bytes).expect("save");
        let reloaded = LearnedWmp::load_from_reader(&mut bytes.as_slice()).expect("load");
        let mut resaved = Vec::new();
        reloaded.save_to_writer(&mut resaved).expect("re-save");
        assert!(resaved == bytes, "{name}: re-saving must reproduce the artifact");
        lines.push(format!("{name} len={} fnv={:016x}", bytes.len(), fnv1a64(&bytes)));
    }
    assert_eq!(lines, GOLDEN_ARTIFACTS);
}

const GOLDEN_ARTIFACTS: [&str; 6] = [
    "query_plan len=2064 fnv=1935973ab08fd0e2",
    "rule_based len=807 fnv=9b84899f372aad4a",
    "bag_of_words len=16030 fnv=caa76b63c184bffe",
    "text_mining len=3993 fnv=e2824aff734cda81",
    "word_embeddings len=49034 fnv=7e0132c17107692c",
    "dbscan len=54775 fnv=ab539da5aaa34f2f",
];
