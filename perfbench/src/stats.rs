//! Order statistics, per-window accuracy, the host probe, and the slice
//! meter that turns a timed phase into throughput and decision latency.

use std::time::{Duration, Instant};

use wmp_plan::ResourceVector;

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Window-level accuracy against summed true resources (the paper's
/// Fig. 10/11 MAPE, per axis) plus the memory q-error tail.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accuracy {
    pub mem_mape_pct: f64,
    pub cpu_mape_pct: f64,
    pub io_mape_pct: f64,
    pub mem_qerr_p99: f64,
}

impl Accuracy {
    /// Accuracy of `predicted[i]` against `actual[i]`, one pair per window.
    pub fn of(predicted: &[ResourceVector], actual: &[ResourceVector]) -> Accuracy {
        let axis = |f: fn(&ResourceVector) -> f64| -> f64 {
            let errors: Vec<f64> = predicted
                .iter()
                .zip(actual)
                .filter(|(_, a)| f(a) != 0.0)
                .map(|(p, a)| ((f(p) - f(a)) / f(a)).abs())
                .collect();
            if errors.is_empty() {
                0.0
            } else {
                100.0 * errors.iter().sum::<f64>() / errors.len() as f64
            }
        };
        let qerr: Vec<f64> = predicted
            .iter()
            .zip(actual)
            .map(|(p, a)| {
                let (p, a) = (p.memory_mb.max(1e-9), a.memory_mb.max(1e-9));
                (p / a).max(a / p)
            })
            .collect();
        Accuracy {
            mem_mape_pct: axis(|r| r.memory_mb),
            cpu_mape_pct: axis(|r| r.cpu_ms),
            io_mape_pct: axis(|r| r.io_pages),
            mem_qerr_p99: quantile(&qerr, 0.99),
        }
    }
}

const PROBE_BYTES: usize = 8_192;
const PROBE_PASSES: usize = 40;
/// The probe time measurements are scaled to (µs): about the probe's time
/// on a quiet host of the baseline's kind. A duration is multiplied by
/// `PROBE_REF_US / probe time`, so one taken while a neighbour slowed the
/// probe by a third counts at three quarters of its length, and one taken
/// on a quiet host counts about as measured.
pub const PROBE_REF_US: f64 = 320.0;

/// The host probe: `PROBE_PASSES` passes of a branchy byte-classifying
/// loop over a `PROBE_BYTES` table, behind one untimed warm-up pass. The
/// table stays in the L1 cache and the warm-up refills it and retrains the
/// branch predictor, so the probe's time does not depend on what the
/// workload left in the caches; it does slow, as the workloads do, when a
/// neighbour shares the core. It runs right after each measured stretch.
pub struct HostProbe {
    table: Vec<u8>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        let table =
            (0..PROBE_BYTES as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        HostProbe { table }
    }

    /// One pass of the probe loop; the branches follow the table's bytes.
    fn pass(&self, mut h: u64) -> u64 {
        for &c in &self.table {
            h = if c < 64 {
                h.wrapping_mul(31).wrapping_add(u64::from(c))
            } else if c < 160 {
                h ^ (u64::from(c) << 3)
            } else {
                h.rotate_left(5)
            };
        }
        std::hint::black_box(h)
    }

    /// Times `PROBE_PASSES` passes of the probe loop, after a warm-up pass.
    pub fn time_us(&self) -> f64 {
        let mut h = self.pass(0);
        let t0 = Instant::now();
        for _ in 0..PROBE_PASSES {
            h = self.pass(h);
        }
        std::hint::black_box(h);
        t0.elapsed().as_secs_f64() * 1e6
    }
}

/// Latency histogram with buckets 0.2% wide from 1 ns to about 30 s, so a
/// phase of any length keeps the same memory.
struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const BUCKET_LN: f64 = 0.002;
const FLOOR_US: f64 = 1e-3;

impl Histogram {
    fn new() -> Histogram {
        Histogram { counts: vec![0; 12_000], total: 0 }
    }

    fn add(&mut self, us: f64) {
        let i = ((us.max(FLOOR_US) / FLOOR_US).ln() / BUCKET_LN) as usize;
        let last = self.counts.len() - 1;
        self.counts[i.min(last)] += 1;
        self.total += 1;
    }

    /// Nearest-rank quantile, read at the bucket's middle; 0 when empty.
    fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                return FLOOR_US * ((i as f64 + 0.5) * BUCKET_LN).exp();
            }
        }
        0.0
    }
}

/// Splits a timed phase into short slices of at least `slice_windows`
/// decisions, times the host probe after each, and reports throughput and
/// decision latency with every slice scaled to the probe's reference time.
/// A shared host swings between quiet and contended stretches lasting
/// seconds, and slows this workload about as much as it slows the probe;
/// the scaled figures move far less with the share of a run that was
/// contended. The raw figures are kept beside them.
pub struct Meter {
    deadline: Instant,
    slice_windows: usize,
    slice_start: Instant,
    slice_queries: u64,
    /// Decision latencies of the open slice (µs).
    slice_latency_us: Vec<f64>,
    scaled: Histogram,
    raw: Histogram,
    queries: u64,
    scaled_secs: f64,
    raw_secs: f64,
    probes_us: Vec<f64>,
    probe: HostProbe,
}

/// What a timed phase measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rates {
    /// Probe-scaled figures.
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// The same figures as measured.
    pub raw_qps: f64,
    pub raw_p50_us: f64,
    pub raw_p99_us: f64,
    /// Median probe time over the phase's slices (µs).
    pub probe_us: f64,
    /// Decisions the latency quantiles are taken over.
    pub samples: u64,
    pub slices: usize,
    /// Time the slices took, without the probes (s).
    pub wall_s: f64,
}

impl Meter {
    pub fn new(seconds: f64, slice_windows: usize) -> Meter {
        let probe = HostProbe::new();
        let now = Instant::now();
        Meter {
            deadline: now + Duration::from_secs_f64(seconds),
            slice_windows: slice_windows.max(1),
            slice_start: now,
            slice_queries: 0,
            slice_latency_us: Vec::with_capacity(slice_windows),
            scaled: Histogram::new(),
            raw: Histogram::new(),
            queries: 0,
            scaled_secs: 0.0,
            raw_secs: 0.0,
            probes_us: Vec::new(),
            probe,
        }
    }

    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Records one decision's latency.
    pub fn decision(&mut self, latency: Duration) {
        self.slice_latency_us.push(latency.as_secs_f64() * 1e6);
    }

    /// Counts queries carried to completion.
    pub fn queries(&mut self, n: usize) {
        self.slice_queries += n as u64;
    }

    /// Closes the current slice once it holds enough decisions. Call it at
    /// points where the work done so far is whole (between windows).
    pub fn maybe_close_slice(&mut self) {
        if self.slice_latency_us.len() >= self.slice_windows {
            self.close_slice();
        }
    }

    fn close_slice(&mut self) {
        let secs = self.slice_start.elapsed().as_secs_f64();
        if self.slice_queries > 0 && secs > 0.0 {
            let probe = self.probe.time_us();
            let scale = PROBE_REF_US / probe.max(1e-3);
            self.probes_us.push(probe);
            self.queries += self.slice_queries;
            self.raw_secs += secs;
            self.scaled_secs += secs * scale;
            for &l in &self.slice_latency_us {
                self.raw.add(l);
                self.scaled.add(l * scale);
            }
        }
        self.slice_latency_us.clear();
        self.slice_start = Instant::now();
        self.slice_queries = 0;
    }

    /// Ends the phase; a trailing partial slice is measured too.
    pub fn finish(mut self) -> Rates {
        self.close_slice();
        let rate = |secs: f64| if secs > 0.0 { self.queries as f64 / secs } else { 0.0 };
        Rates {
            qps: rate(self.scaled_secs),
            p50_us: self.scaled.quantile(0.5),
            p99_us: self.scaled.quantile(0.99),
            raw_qps: rate(self.raw_secs),
            raw_p50_us: self.raw.quantile(0.5),
            raw_p99_us: self.raw.quantile(0.99),
            probe_us: median(&self.probes_us),
            samples: self.raw.total,
            slices: self.probes_us.len(),
            wall_s: self.raw_secs,
        }
    }
}

/// Set-up times of one run. A run sets up once for its own inputs and once
/// per accuracy draw; each set-up's time is kept as measured and scaled by
/// a host probe timed right after it.
#[derive(Default)]
pub struct SetupTimes {
    scaled: Vec<f64>,
    raw: Vec<f64>,
}

impl SetupTimes {
    /// Runs `setup` and records its time.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = setup();
        let secs = t0.elapsed().as_secs_f64();
        let probe = HostProbe::new().time_us();
        self.raw.push(secs);
        self.scaled.push(secs * PROBE_REF_US / probe.max(1e-3));
        out
    }

    /// The median scaled and the median raw set-up time (s).
    pub fn medians(&self) -> (f64, f64) {
        (median(&self.scaled), median(&self.raw))
    }
}
