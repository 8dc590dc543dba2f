//! Bounded fan-out of independent, indexed units of work: k-means restarts,
//! [`crate::MultiHead`] heads and random-forest trees all fit through
//! [`map_indexed`].
//!
//! A call runs on [`workers`] threads, counting the caller, and never more
//! than the host's `available_parallelism()`. Workers claim unit indices
//! from one atomic counter, so a slow unit never idles the others, and the
//! results come back in index order. Each worker owns one scratch value that
//! the caller allocates up front, which keeps the number of live scratch
//! buffers at the worker count rather than the unit count.
//!
//! Every unit must depend only on its index and its own inputs (its own RNG
//! seed, its own output slot); then the result is bit-identical to running
//! the units in order on one thread, whatever the worker count. With one
//! worker the caller runs every unit itself and no thread is spawned.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set on every thread that runs units of a multi-worker
    /// [`map_indexed`] call, the caller included, so a call nested inside a
    /// unit gets one worker and nesting never adds runnable threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a worker until dropped (also on unwind).
struct WorkerGuard(bool);

impl WorkerGuard {
    fn enter() -> Self {
        WorkerGuard(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// Worker count for `n` units, counting the caller:
/// `min(n, cap, available_parallelism())`, and at least 1. Inside a unit of
/// a multi-worker [`map_indexed`] call it is 1.
pub fn workers(n: usize, cap: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    n.min(cap).min(cores).max(1)
}

/// Runs `unit(i, scratch)` for every `i` in `0..n` and returns the results in
/// index order. There is one worker per element of `scratch` (at most `n`):
/// the caller is one of them, and each worker passes its own scratch value to
/// every unit it claims. Size `scratch` with [`workers`].
///
/// A panicking unit propagates its panic to the caller once every worker
/// has stopped.
///
/// # Panics
/// Panics when `scratch` is empty and `n > 0`.
pub fn map_indexed<S, T, F>(n: usize, scratch: &mut [S], unit: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let n_workers = scratch.len().min(n);
    let Some((own, others)) = scratch[..n_workers].split_first_mut() else {
        panic!("map_indexed: {n} units need at least one worker's scratch");
    };
    if others.is_empty() {
        return (0..n).map(|i| unit(i, own)).collect();
    }
    let next = AtomicUsize::new(0);
    let run = |scratch: &mut S| {
        let _guard = WorkerGuard::enter();
        let mut done = Vec::new();
        loop {
            // ordering: Relaxed — the counter only hands out distinct
            // indices; results travel back through the thread joins.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, unit(i, scratch)));
        }
    };
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = others.iter_mut().map(|s| scope.spawn(move || run(s))).collect();
        let mut parts = vec![run(own)];
        for handle in handles {
            parts.push(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        parts
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, result) in parts.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots.into_iter().map(|slot| slot.expect("every unit index was claimed once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_index_order_for_every_worker_count() {
        for n_workers in 1..=4 {
            let mut scratch = vec![0usize; n_workers];
            // With two or more workers, each unit waits (boundedly) for the
            // next one to start on another worker, so workers interleave.
            let started: Vec<AtomicBool> = (0..37).map(|_| AtomicBool::new(false)).collect();
            let out = map_indexed(37, &mut scratch, |i, seen| {
                started[i].store(true, Ordering::SeqCst);
                if n_workers > 1 && i + 1 < started.len() {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while !started[i + 1].load(Ordering::SeqCst) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                }
                *seen += 1;
                i * i
            });
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(scratch.iter().sum::<usize>(), 37, "each unit ran exactly once");
        }
        assert!(map_indexed(0, &mut [(); 0], |i, ()| i).is_empty());
    }

    #[test]
    fn workers_are_bounded_by_units_cap_and_cores() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(workers(0, 8), 1);
        assert_eq!(workers(1, 8), 1);
        assert_eq!(workers(8, 1), 1);
        assert_eq!(workers(8, 0), 1);
        assert_eq!(workers(usize::MAX, usize::MAX), cores);
        assert_eq!(workers(3, 2), 2.min(cores));
    }

    #[test]
    fn nested_calls_run_on_their_worker_alone() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let mut outer = vec![(); 2];
        let inner_workers = map_indexed(4, &mut outer, |_, ()| {
            let inner = workers(8, usize::MAX);
            map_indexed(8, &mut vec![(); inner], |i, ()| i);
            inner
        });
        assert_eq!(inner_workers, vec![1; 4], "a nested call adds no thread");
        // The caller's worker flag is restored once the call returns.
        assert_eq!(workers(2, 2), 2.min(cores));
    }

    #[test]
    fn a_panicking_unit_reaches_the_caller() {
        let result = std::panic::catch_unwind(|| {
            let mut scratch = vec![(); 2];
            map_indexed(6, &mut scratch, |i, ()| assert!(i != 4, "unit 4 failed"));
        });
        let panic = result.expect_err("the unit's panic propagates");
        let message = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default();
        assert!(message.contains("unit 4 failed"), "got {message:?}");
        assert!(!IN_WORKER.with(Cell::get), "the flag is cleared on unwind");
    }
}
