//! In-memory span recording for the traced run.
//!
//! Every span wraps one public call the benchmark makes into a layer. Spans
//! are leaves (none nests inside another), so a span's self time is its
//! duration, a layer's busy time is the sum over its spans, and the share of
//! the timed phase they cover is their sum over its wall time. Derived
//! per-window figures (engine self time) subtract spans of one window from
//! each other. Aggregates are kept for every span; the first `LOG_CAP`
//! spans are also kept verbatim and written out when the run ends.
//!
//! Re-timing spans (the stages of a prediction, called again on a window
//! the workload already scored) repeat work the workload did inside another
//! call. They give the per-stage means, but are left out of the layer busy
//! times, and the time spent re-timing is left out of the phase's time.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// The calls the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    SqlParse,
    PlanPlan,
    PlanFeaturize,
    SimResources,
    CoreSnapshot,
    CoreAssign,
    CoreHistogram,
    CoreHead0,
    CoreHeads,
    CorePredict,
    CoreCodecClone,
    ServeClone,
    ServeSubmit,
    ServeClose,
    ServeInstall,
    SchedPrepare,
    SchedDecide,
    SchedSubmit(Regime),
    SchedDrain(Regime),
    MlkitObserve,
    MlkitRetrain,
    ObsObserve,
}

/// The three demand regimes of the scheduler workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    Nominal,
    Predicted,
    Oracle,
}

impl Regime {
    pub const ALL: [Regime; 3] = [Regime::Nominal, Regime::Predicted, Regime::Oracle];

    pub fn name(self) -> &'static str {
        match self {
            Regime::Nominal => "nominal",
            Regime::Predicted => "predicted",
            Regime::Oracle => "oracle",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const N_SPANS: usize = 26;

impl Span {
    fn index(self) -> usize {
        match self {
            Span::SqlParse => 0,
            Span::PlanPlan => 1,
            Span::PlanFeaturize => 2,
            Span::SimResources => 3,
            Span::CoreSnapshot => 4,
            Span::CoreAssign => 5,
            Span::CoreHistogram => 6,
            Span::CoreHead0 => 7,
            Span::CoreHeads => 8,
            Span::CorePredict => 9,
            Span::CoreCodecClone => 10,
            Span::ServeClone => 11,
            Span::ServeSubmit => 12,
            Span::ServeClose => 13,
            Span::ServeInstall => 14,
            Span::SchedPrepare => 15,
            Span::SchedDecide => 16,
            Span::SchedSubmit(r) => 17 + r.index(),
            Span::SchedDrain(r) => 20 + r.index(),
            Span::MlkitObserve => 23,
            Span::MlkitRetrain => 24,
            Span::ObsObserve => 25,
        }
    }

    /// Span name as written to the span log.
    pub fn name(self) -> String {
        match self {
            Span::SqlParse => "sql.parse".into(),
            Span::PlanPlan => "plan.plan".into(),
            Span::PlanFeaturize => "plan.featurize".into(),
            Span::SimResources => "sim.resources".into(),
            Span::CoreSnapshot => "core.snapshot".into(),
            Span::CoreAssign => "core.assign".into(),
            Span::CoreHistogram => "core.histogram".into(),
            Span::CoreHead0 => "core.head0".into(),
            Span::CoreHeads => "core.heads".into(),
            Span::CorePredict => "core.predict".into(),
            Span::CoreCodecClone => "core.codec_clone".into(),
            Span::ServeClone => "serve.clone".into(),
            Span::ServeSubmit => "serve.submit".into(),
            Span::ServeClose => "serve.close".into(),
            Span::ServeInstall => "serve.install".into(),
            Span::SchedPrepare => "sched.prepare".into(),
            Span::SchedDecide => "sched.decide".into(),
            Span::SchedSubmit(r) => format!("sched.submit.{}", r.name()),
            Span::SchedDrain(r) => format!("sched.drain.{}", r.name()),
            Span::MlkitObserve => "mlkit.observe".into(),
            Span::MlkitRetrain => "mlkit.retrain".into(),
            Span::ObsObserve => "obs.observe".into(),
        }
    }

    /// Whether the span re-times a prediction stage the workload already
    /// ran inside another call.
    pub fn is_retime(self) -> bool {
        matches!(
            self,
            Span::CoreSnapshot
                | Span::CoreAssign
                | Span::CoreHistogram
                | Span::CoreHead0
                | Span::CoreHeads
                | Span::CorePredict
        )
    }

    /// The layer (crate) the timed call belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Span::SqlParse => Layer::Sql,
            Span::PlanPlan | Span::PlanFeaturize => Layer::Plan,
            Span::SimResources => Layer::Sim,
            Span::CoreSnapshot
            | Span::CoreAssign
            | Span::CoreHistogram
            | Span::CoreHead0
            | Span::CoreHeads
            | Span::CorePredict
            | Span::CoreCodecClone => Layer::Core,
            Span::ServeClone | Span::ServeSubmit | Span::ServeClose | Span::ServeInstall => {
                Layer::Serve
            }
            Span::SchedPrepare | Span::SchedDecide | Span::SchedSubmit(_) | Span::SchedDrain(_) => {
                Layer::Sched
            }
            Span::MlkitObserve | Span::MlkitRetrain => Layer::Mlkit,
            Span::ObsObserve => Layer::Obs,
        }
    }
}

/// The repository's layers, named after their crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Sql,
    Plan,
    Sim,
    Core,
    Mlkit,
    Serve,
    Sched,
    Obs,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Sql,
        Layer::Plan,
        Layer::Sim,
        Layer::Core,
        Layer::Mlkit,
        Layer::Serve,
        Layer::Sched,
        Layer::Obs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Sql => "sql",
            Layer::Plan => "plan",
            Layer::Sim => "sim",
            Layer::Core => "core",
            Layer::Mlkit => "mlkit",
            Layer::Serve => "serve",
            Layer::Sched => "sched",
            Layer::Obs => "obs",
        }
    }
}

/// Running totals for one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub busy_ns: u64,
    pub allocs: u64,
}

impl Agg {
    /// Mean duration per call in ns (0 when the call was never made).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.count as f64
        }
    }

    /// Mean allocations per call (0 when the call was never made).
    pub fn mean_allocs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.allocs as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Record {
    span: Span,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The start of a span: its clock reading and allocation count.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    at: Instant,
    allocs: u64,
}

const LOG_CAP: usize = 200_000;

/// Collects spans in memory.
pub struct Tracer {
    origin: Instant,
    /// Cost of an empty span, subtracted from every span.
    overhead_ns: u64,
    aggs: [Agg; N_SPANS],
    /// Time spent re-timing prediction stages (ns).
    retimed_ns: u64,
    log: Vec<Record>,
}

impl Tracer {
    /// A tracer with allocation counting switched on and its own timer
    /// overhead calibrated.
    pub fn new() -> Tracer {
        alloc::set_counting(true);
        let mut tracer = Tracer {
            origin: Instant::now(),
            overhead_ns: 0,
            aggs: [Agg::default(); N_SPANS],
            retimed_ns: 0,
            log: Vec::with_capacity(LOG_CAP),
        };
        let mut empty: Vec<u64> = (0..2_001)
            .map(|_| {
                let m = tracer.mark();
                m.at.elapsed().as_nanos() as u64
            })
            .collect();
        empty.sort_unstable();
        tracer.overhead_ns = empty[empty.len() / 2];
        tracer
    }

    /// Starts a span.
    #[inline]
    pub fn mark(&self) -> Mark {
        Mark { allocs: alloc::allocations(), at: Instant::now() }
    }

    /// Ends a span begun at `mark`; returns its duration in ns.
    #[inline]
    pub fn end(&mut self, span: Span, parent: u64, mark: Mark) -> u64 {
        let end = Instant::now();
        let allocs = alloc::allocations() - mark.allocs;
        let raw = end.duration_since(mark.at).as_nanos() as u64;
        let dur = raw.saturating_sub(self.overhead_ns);
        let agg = &mut self.aggs[span.index()];
        agg.count += 1;
        agg.busy_ns += dur;
        agg.allocs += allocs;
        if self.log.len() < LOG_CAP {
            let start_ns = mark.at.duration_since(self.origin).as_nanos() as u64;
            self.log.push(Record { span, parent, start_ns, end_ns: start_ns + raw });
        }
        dur
    }

    pub fn agg(&self, span: Span) -> Agg {
        self.aggs[span.index()]
    }

    /// Busy time of one layer: the sum of its spans' self times, without
    /// re-timing spans.
    pub fn layer_busy_ns(&self, layer: Layer) -> u64 {
        all_spans()
            .filter(|s| s.layer() == layer && !s.is_retime())
            .map(|s| self.agg(s).busy_ns)
            .sum()
    }

    /// Adds time spent re-timing prediction stages.
    pub fn add_retimed(&mut self, ns: u64) {
        self.retimed_ns += ns;
    }

    pub fn retimed_ns(&self) -> u64 {
        self.retimed_ns
    }

    pub fn overhead_ns(&self) -> u64 {
        self.overhead_ns
    }

    /// Writes the kept spans as tab-separated `name parent start_ns end_ns`.
    pub fn write_log(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "name\tparent\tstart_ns\tend_ns")?;
        for r in &self.log {
            writeln!(out, "{}\t{}\t{}\t{}", r.span.name(), r.parent, r.start_ns, r.end_ns)?;
        }
        out.flush()
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        alloc::set_counting(false);
    }
}

fn all_spans() -> impl Iterator<Item = Span> {
    const FIXED: [Span; 20] = [
        Span::SqlParse,
        Span::PlanPlan,
        Span::PlanFeaturize,
        Span::SimResources,
        Span::CoreSnapshot,
        Span::CoreAssign,
        Span::CoreHistogram,
        Span::CoreHead0,
        Span::CoreHeads,
        Span::CorePredict,
        Span::CoreCodecClone,
        Span::ServeClone,
        Span::ServeSubmit,
        Span::ServeClose,
        Span::ServeInstall,
        Span::SchedPrepare,
        Span::SchedDecide,
        Span::MlkitObserve,
        Span::MlkitRetrain,
        Span::ObsObserve,
    ];
    FIXED
        .into_iter()
        .chain(Regime::ALL.into_iter().flat_map(|r| [Span::SchedSubmit(r), Span::SchedDrain(r)]))
}
