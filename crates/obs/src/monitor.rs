//! Workload-drift monitoring.
//!
//! The LinkedIn evaluation study's core operational lesson is that a
//! learned predictor's error drifts silently as the workload evolves.
//! [`DriftMonitor`] keeps a rolling histogram of live template assignments
//! and compares it (total-variation distance) against the training-time
//! template distribution. LearnedWMP predicts from the workload's template
//! histogram, so a shift in this distribution is *the* leading indicator
//! that retraining is needed (the Sibyl direction's trigger signal). The
//! error itself is scored by the serving engine with `wmp_mlkit::metrics`.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Total-variation distance between two distributions over the same
/// support: `0.5 * Σ |p_i - q_i|`, in `[0, 1]`. Inputs are normalized
/// internally, so raw counts are fine; mismatched lengths compare over the
/// longer support with missing entries as zero.
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    let sum_p: f64 = p.iter().sum();
    let sum_q: f64 = q.iter().sum();
    if sum_p <= 0.0 || sum_q <= 0.0 {
        return if sum_p == sum_q { 0.0 } else { 1.0 };
    }
    let len = p.len().max(q.len());
    let mut distance = 0.0;
    for i in 0..len {
        let pi = p.get(i).copied().unwrap_or(0.0) / sum_p;
        let qi = q.get(i).copied().unwrap_or(0.0) / sum_q;
        distance += (pi - qi).abs();
    }
    (distance / 2.0).clamp(0.0, 1.0)
}

struct DriftWindow {
    ring: VecDeque<usize>,
    counts: Vec<f64>,
}

/// Rolling template-distribution drift score.
///
/// Holds the training-time template distribution (the reference) and a
/// sliding window of live template assignments; [`DriftMonitor::score`] is
/// the total-variation distance between the two — `0.0` when serving
/// traffic matches training, approaching `1.0` when the workload has moved
/// to templates the model never trained on.
pub struct DriftMonitor {
    reference: Vec<f64>,
    capacity: usize,
    min_samples: usize,
    window: Mutex<DriftWindow>,
}

impl DriftMonitor {
    /// A monitor comparing against `reference` (raw counts or normalized
    /// frequencies over the template ids; normalized internally), keeping
    /// the last `capacity` live assignments. The score stays `None` until
    /// `min(capacity, 20)` assignments have been observed, so a handful of
    /// early queries cannot raise a spurious alarm.
    pub fn new(reference: Vec<f64>, capacity: usize) -> Self {
        let k = reference.len();
        let capacity = capacity.max(1);
        DriftMonitor {
            reference,
            capacity,
            min_samples: capacity.min(20),
            window: Mutex::new(DriftWindow { ring: VecDeque::new(), counts: vec![0.0; k] }),
        }
    }

    /// Number of templates in the reference distribution.
    pub fn n_templates(&self) -> usize {
        self.reference.len()
    }

    /// Records one live template assignment. Assignments at or beyond the
    /// reference support (a template id the training distribution never
    /// saw) still enter the window and count as pure drift mass.
    pub fn observe(&self, template: usize) {
        let mut window = self.window.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if window.ring.len() == self.capacity {
            if let Some(old) = window.ring.pop_front() {
                if old < window.counts.len() {
                    window.counts[old] -= 1.0;
                }
            }
        }
        window.ring.push_back(template);
        if template >= window.counts.len() {
            window.counts.resize(template + 1, 0.0);
        }
        window.counts[template] += 1.0;
    }

    /// Live assignments currently in the window.
    pub fn len(&self) -> usize {
        self.window.lock().unwrap_or_else(std::sync::PoisonError::into_inner).ring.len()
    }

    /// True when no assignment has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The drift score (total-variation distance in `[0, 1]`), or `None`
    /// until enough live assignments have accumulated.
    pub fn score(&self) -> Option<f64> {
        let window = self.window.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if window.ring.len() < self.min_samples {
            return None;
        }
        Some(total_variation(&self.reference, &window.counts))
    }
}

impl std::fmt::Debug for DriftMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftMonitor")
            .field("n_templates", &self.reference.len())
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_score_zero() {
        assert_eq!(total_variation(&[1.0, 1.0, 2.0], &[2.0, 2.0, 4.0]), 0.0);
    }

    #[test]
    fn disjoint_distributions_score_one() {
        assert!((total_variation(&[1.0, 0.0], &[0.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_shift_scores_in_between() {
        // Reference uniform over 4 templates; live mass half-shifted onto
        // template 0: TV = 0.5 * (|0.25-0.625|*1 + |0.25-0.125|*3) = 0.375.
        let tv = total_variation(&[1.0, 1.0, 1.0, 1.0], &[5.0, 1.0, 1.0, 1.0]);
        assert!((tv - 0.375).abs() < 1e-12);
    }

    #[test]
    fn mismatched_supports_count_missing_mass_as_drift() {
        // All live mass on a template the reference never saw.
        assert!((total_variation(&[1.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(total_variation(&[], &[]), 0.0);
    }

    #[test]
    fn drift_monitor_warms_up_then_tracks_a_shift() {
        // Training distribution: uniform over templates 0..4.
        let monitor = DriftMonitor::new(vec![1.0; 4], 40);
        assert!(monitor.score().is_none(), "no samples yet");
        // Phase 1: live traffic matches training.
        for i in 0..40 {
            monitor.observe(i % 4);
        }
        let matched = monitor.score().unwrap();
        assert!(matched < 0.05, "matched traffic scores ~0, got {matched}");
        // Phase 2: traffic collapses onto template 3 and a brand-new
        // template 5; the rolling window replaces the old mass.
        for i in 0..40 {
            monitor.observe(if i % 2 == 0 { 3 } else { 5 });
        }
        let shifted = monitor.score().unwrap();
        assert!(shifted > 0.6, "shifted traffic must score high, got {shifted}");
        assert_eq!(monitor.len(), 40);
    }

    #[test]
    fn drift_score_waits_for_min_samples() {
        let monitor = DriftMonitor::new(vec![1.0; 4], 100);
        for i in 0..19 {
            monitor.observe(i % 4);
        }
        assert!(monitor.score().is_none(), "below the 20-sample warmup");
        monitor.observe(3);
        assert!(monitor.score().is_some());
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let d = std::sync::Arc::new(DriftMonitor::new(vec![1.0; 8], 1000));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let d = std::sync::Arc::clone(&d);
                scope.spawn(move || {
                    for i in 0..500 {
                        d.observe((i + t) % 8);
                        let _ = d.score();
                    }
                });
            }
        });
        assert_eq!(d.len(), 1000);
    }
}
