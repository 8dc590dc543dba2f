//! Allocation budget of the serving hot path, counted by a global
//! allocator. In steady state:
//!
//! - a submission that does not close its window allocates nothing;
//! - a window close allocates at most [`CLOSE_BUDGET`] times, whatever the
//!   window size (the next window's record buffer and ticket state, the
//!   reference slice, and the prediction's own buffers), and frees one
//!   buffer per record (its features: the spec's shape is shared) plus at
//!   most [`CLOSE_BUDGET`] more;
//! - `LearnedWmp::predict_resources` allocates at most [`PREDICT_BUDGET`]
//!   times, none of them per query;
//! - cloning a TPC-H record allocates exactly one buffer, its features: the
//!   clone shares the spec.
//!
//! This binary holds a single test, so no sibling test thread allocates
//! while the counter is on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use learnedwmp::core::{LearnedWmp, ModelKind, PredictorHandle, TemplateSpec};
use learnedwmp::serve::{Engine, WindowPolicy};
use learnedwmp::workloads::QueryRecord;

/// Allocations one window close may make, and frees beyond one per record.
const CLOSE_BUDGET: u64 = 8;
/// Allocations one `predict_resources` call may make.
const PREDICT_BUDGET: u64 = 5;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn count(&self, counter: &AtomicU64) {
        // ordering: Relaxed — a statistic read back on the same thread; it
        // publishes no other data.
        if COUNTING.load(Ordering::Relaxed) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees; the
// extra work is an atomic counter update that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(&ALLOCATIONS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(&ALLOCATIONS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(&ALLOCATIONS);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.count(&DEALLOCATIONS);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Buffers allocated and freed while a closure ran.
struct Counts {
    allocs: u64,
    frees: u64,
}

/// Runs `f` and returns its result with the allocations and frees it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    // ordering: Relaxed — the test thread is the only one allocating.
    let allocs = ALLOCATIONS.load(Ordering::Relaxed);
    let frees = DEALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let counts = Counts {
        allocs: ALLOCATIONS.load(Ordering::Relaxed) - allocs,
        frees: DEALLOCATIONS.load(Ordering::Relaxed) - frees,
    };
    (out, counts)
}

/// Serves `windows` full windows of `size` records through a fresh engine
/// and checks every submission against the budget. The first windows warm
/// the engine up (first-use allocations in telemetry, and the record buffer
/// growing to the window size) and are not checked.
fn check_engine(model: &LearnedWmp, records: &[QueryRecord], size: usize) {
    const WARMUP: usize = 2;
    const CHECKED: usize = 6;
    let engine = Engine::new(
        PredictorHandle::new(model.codec_clone().expect("codec clone")),
        WindowPolicy::Count(size),
    );
    let mut stream = records.iter().cycle();
    let mut tickets = Vec::with_capacity(size);
    for w in 0..WARMUP + CHECKED {
        let owned: Vec<QueryRecord> = stream.by_ref().take(size).cloned().collect();
        for (i, record) in owned.into_iter().enumerate() {
            let (ticket, Counts { allocs, frees }) = counted(|| engine.submit(record));
            tickets.push(ticket);
            if w < WARMUP {
                continue;
            }
            if i + 1 < size {
                assert_eq!(allocs, 0, "Count({size}) window {w}: submit {i} allocated {allocs}x");
            } else {
                assert!(
                    allocs <= CLOSE_BUDGET,
                    "Count({size}) window {w}: the close allocated {allocs}x \
                     (budget {CLOSE_BUDGET})"
                );
                let free_budget = size as u64 + CLOSE_BUDGET;
                assert!(
                    frees <= free_budget,
                    "Count({size}) window {w}: the close freed {frees}x (budget {free_budget})"
                );
            }
        }
        let first = tickets[0].wait().expect("the window scores");
        assert_eq!(first.window_len, size);
        tickets.clear();
    }
}

#[test]
fn serving_hot_path_stays_within_its_allocation_budget() {
    let log = learnedwmp::workloads::tpch::generate(600, 17).expect("TPC-H log");
    let model = LearnedWmp::builder()
        .model(ModelKind::Xgb)
        .templates(TemplateSpec::PlanKMeans { k: 22, seed: 42 })
        .batch_size(10)
        .fit(&log)
        .expect("training");
    let records = &log.records;

    // Cloning shares the spec: the features are the one buffer copied.
    for r in records.iter().take(200) {
        let (copy, Counts { allocs, .. }) = counted(|| r.clone());
        assert_eq!(allocs, 1, "record {}: clone allocated {allocs}x", r.id);
        assert_eq!(copy.spec, r.spec);
    }

    // One prediction: no allocation per query.
    for window in records.chunks_exact(10).take(20) {
        let refs: Vec<&QueryRecord> = window.iter().collect();
        let (predicted, Counts { allocs, .. }) = counted(|| model.predict_resources(&refs));
        predicted.expect("the model predicts every window");
        assert!(allocs <= PREDICT_BUDGET, "predict_resources allocated {allocs}x");
    }

    check_engine(&model, records, 10);
    check_engine(&model, records, 50);
}
