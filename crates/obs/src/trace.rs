//! A structured tracing facade: cheap [`crate::event!`]/[`crate::span!`]
//! macros dispatching to a process-global, pluggable [`Subscriber`].
//!
//! Design constraints, in order:
//!
//! 1. **Free when off.** With no subscriber installed (the default), every
//!    `event!`/`span!` call site costs one relaxed atomic load and a
//!    branch — no allocation, no formatting, no lock.
//! 2. **Structured.** Events carry typed key/value fields
//!    ([`FieldValue`]), not pre-formatted strings, so subscribers decide
//!    the rendering (ring buffer keeps the values; the stderr writer emits
//!    JSON lines).
//! 3. **Spans are just timed events.** A [`SpanGuard`] records its start
//!    instant and, on drop, dispatches the same [`Event`] shape with
//!    `duration_us` filled in — subscribers need exactly one callback.

use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::json::JsonValue;

/// Event severity, ordered from most to least verbose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Per-query noise (e.g. every submission).
    Trace,
    /// Per-window diagnostics (e.g. every scored window).
    Debug,
    /// Lifecycle milestones (model swaps, retrains, reloads).
    Info,
    /// Degraded-but-serving conditions (retrain failures, overflow).
    Warn,
    /// Serving failures.
    Error,
}

impl Level {
    /// Lower-case name, as rendered in JSON lines.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl FieldValue {
    fn to_json(&self) -> JsonValue {
        match self {
            FieldValue::U64(v) => JsonValue::Number(*v as f64),
            FieldValue::I64(v) => JsonValue::Number(*v as f64),
            FieldValue::F64(v) => JsonValue::Number(*v),
            FieldValue::Bool(v) => JsonValue::Bool(*v),
            FieldValue::Str(v) => JsonValue::String(v.clone()),
        }
    }

    /// The field as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The field as an `f64` (integers widen), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::I64(v) => Some(*v as f64),
            FieldValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The field as a string slice, if it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(v) => Some(v),
            _ => None,
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured telemetry record: a point event, or a closed span (same
/// shape, with [`Event::duration_us`] set).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Severity.
    pub level: Level,
    /// Emitting subsystem, e.g. `"wmp_serve::engine"`.
    pub target: &'static str,
    /// Event name, e.g. `"window_scored"`.
    pub name: &'static str,
    /// Typed fields, in call-site order.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// `Some(elapsed µs)` when this record is a closing span.
    pub duration_us: Option<u64>,
}

impl Event {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Renders the event as one JSON object (the JSON-lines shape).
    pub fn to_json_line(&self) -> String {
        let mut fields = vec![
            ("level".to_string(), JsonValue::String(self.level.as_str().to_string())),
            ("target".to_string(), JsonValue::String(self.target.to_string())),
            ("event".to_string(), JsonValue::String(self.name.to_string())),
        ];
        if let Some(us) = self.duration_us {
            fields.push(("duration_us".to_string(), JsonValue::Number(us as f64)));
        }
        for (k, v) in &self.fields {
            fields.push((k.to_string(), v.to_json()));
        }
        JsonValue::Object(fields).render()
    }
}

/// Receives every dispatched [`Event`]. Implementations must be cheap and
/// must never panic: they run inline on serving threads.
pub trait Subscriber: Send + Sync {
    /// Level filter; called before fields are materialized, so returning
    /// `false` keeps disabled call sites allocation-free.
    fn enabled(&self, _level: Level) -> bool {
        true
    }

    /// Handles one event (or closed span).
    fn record(&self, event: &Event);
}

/// The default subscriber: drops everything (and reports all levels
/// disabled, so call sites skip field construction entirely).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    fn enabled(&self, _level: Level) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

/// Keeps the most recent `capacity` events in memory — the test and
/// post-mortem subscriber.
#[derive(Debug)]
pub struct RingBufferRecorder {
    capacity: usize,
    min_level: Level,
    events: Mutex<VecDeque<Event>>,
}

impl RingBufferRecorder {
    /// A recorder retaining at most `capacity` events, all levels.
    pub fn with_capacity(capacity: usize) -> Self {
        RingBufferRecorder {
            capacity: capacity.max(1),
            min_level: Level::Trace,
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Restricts recording to `min_level` and above.
    pub fn min_level(mut self, min_level: Level) -> Self {
        self.min_level = min_level;
        self
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Drains and returns the retained events, oldest first.
    pub fn take(&self) -> Vec<Event> {
        self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner).drain(..).collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Subscriber for RingBufferRecorder {
    fn enabled(&self, level: Level) -> bool {
        level >= self.min_level
    }

    fn record(&self, event: &Event) {
        let mut events = self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event.clone());
    }
}

/// Writes each event as one JSON line on stderr — the "just give me logs"
/// subscriber for examples and operational debugging.
#[derive(Debug, Clone, Copy)]
pub struct StderrJsonWriter {
    min_level: Level,
}

impl StderrJsonWriter {
    /// A writer emitting `min_level` and above.
    pub fn new(min_level: Level) -> Self {
        StderrJsonWriter { min_level }
    }
}

impl Default for StderrJsonWriter {
    fn default() -> Self {
        StderrJsonWriter::new(Level::Info)
    }
}

impl Subscriber for StderrJsonWriter {
    fn enabled(&self, level: Level) -> bool {
        level >= self.min_level
    }

    fn record(&self, event: &Event) {
        let mut line = event.to_json_line();
        line.push('\n');
        // A full/broken stderr must never take the serving path down.
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
}

/// Fast "anything installed?" flag checked before the subscriber lock.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);

/// Installs `subscriber` as the process-global event sink (replacing any
/// previous one). Events dispatched concurrently with the swap go to either
/// the old or the new subscriber.
pub fn set_subscriber(subscriber: Arc<dyn Subscriber>) {
    *SUBSCRIBER.write().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(subscriber);
    // ordering: Release pairs with no Acquire on purpose — the flag is a
    // hint; readers that see it set re-check under the SUBSCRIBER lock,
    // whose own synchronization publishes the subscriber itself.
    ACTIVE.store(true, Ordering::Release);
}

/// Removes the global subscriber, restoring the free-when-off fast path.
pub fn clear_subscriber() {
    // ordering: Release — clear the hint before tearing down the
    // subscriber; stragglers that still see `true` take the lock and find
    // `None`, which dispatch handles.
    ACTIVE.store(false, Ordering::Release);
    *SUBSCRIBER.write().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// True when a subscriber is installed and accepts `level` — the macro
/// fast-path check. One relaxed load when tracing is off.
pub fn tracing_enabled(level: Level) -> bool {
    // ordering: Relaxed — missing a just-installed subscriber for a few
    // events is acceptable; a true reading is confirmed under the lock.
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    SUBSCRIBER
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .as_ref()
        .is_some_and(|s| s.enabled(level))
}

/// Sends `event` to the installed subscriber, if any. Prefer the
/// [`crate::event!`] macro, which guards with [`tracing_enabled`] first.
pub fn dispatch(event: &Event) {
    // ordering: Relaxed — same hint-then-lock protocol as tracing_enabled.
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if let Some(subscriber) =
        SUBSCRIBER.read().unwrap_or_else(std::sync::PoisonError::into_inner).as_ref()
    {
        if subscriber.enabled(event.level) {
            subscriber.record(event);
        }
    }
}

/// An in-flight span created by [`crate::span!`]. Dropping the guard
/// dispatches the span-close event with its measured `duration_us`.
#[must_use = "a span measures the scope it is bound to; dropping it immediately closes the span"]
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    started: Instant,
}

impl SpanGuard {
    /// An armed span; emitted on drop. Used by the `span!` macro.
    pub fn new(
        level: Level,
        target: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> Self {
        SpanGuard {
            inner: Some(SpanInner { level, target, name, fields, started: Instant::now() }),
        }
    }

    /// A disarmed span (tracing was off at entry); drop is free.
    pub fn disabled() -> Self {
        SpanGuard { inner: None }
    }

    /// True when this span will emit on drop.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let elapsed = inner.started.elapsed();
            dispatch(&Event {
                level: inner.level,
                target: inner.target,
                name: inner.name,
                fields: inner.fields,
                duration_us: Some(elapsed.as_micros().min(u128::from(u64::MAX)) as u64),
            });
        }
    }
}

/// Emits a structured event to the global subscriber.
///
/// ```
/// use wmp_obs::Level;
/// wmp_obs::event!(Level::Info, target: "doc", "model_swap", version = 3u64, ok = true);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, target: $target:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        let level = $level;
        if $crate::trace::tracing_enabled(level) {
            $crate::trace::dispatch(&$crate::trace::Event {
                level,
                target: $target,
                name: $name,
                fields: vec![$((stringify!($key), $crate::trace::FieldValue::from($value))),*],
                duration_us: None,
            });
        }
    }};
}

/// Opens a timed span; the returned [`SpanGuard`] emits a span-close event
/// (with `duration_us`) when dropped.
///
/// ```
/// use wmp_obs::Level;
/// let _span = wmp_obs::span!(Level::Debug, target: "doc", "score_window", window_id = 7u64);
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($level:expr, target: $target:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        let level = $level;
        if $crate::trace::tracing_enabled(level) {
            $crate::trace::SpanGuard::new(
                level,
                $target,
                $name,
                vec![$((stringify!($key), $crate::trace::FieldValue::from($value))),*],
            )
        } else {
            $crate::trace::SpanGuard::disabled()
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global subscriber is process-wide; tests that install one hold
    // this lock so they never observe each other's events.
    static GLOBAL_GUARD: Mutex<()> = Mutex::new(());

    fn with_recorder(min_level: Level, f: impl FnOnce(&Arc<RingBufferRecorder>)) {
        let _guard = GLOBAL_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let recorder = Arc::new(RingBufferRecorder::with_capacity(64).min_level(min_level));
        set_subscriber(Arc::clone(&recorder) as Arc<dyn Subscriber>);
        f(&recorder);
        clear_subscriber();
    }

    #[test]
    fn events_carry_typed_fields() {
        with_recorder(Level::Trace, |recorder| {
            crate::event!(
                Level::Info,
                target: "test",
                "window_scored",
                window_id = 4u64,
                predicted_mb = 12.5,
                model = "ridge",
                ok = true,
            );
            let events = recorder.events();
            assert_eq!(events.len(), 1);
            let e = &events[0];
            assert_eq!(e.name, "window_scored");
            assert_eq!(e.field("window_id").unwrap().as_u64(), Some(4));
            assert_eq!(e.field("predicted_mb").unwrap().as_f64(), Some(12.5));
            assert_eq!(e.field("model").unwrap().as_str(), Some("ridge"));
            assert_eq!(e.field("ok"), Some(&FieldValue::Bool(true)));
            assert_eq!(e.duration_us, None);
        });
    }

    #[test]
    fn spans_emit_on_drop_with_duration() {
        with_recorder(Level::Trace, |recorder| {
            {
                let span = crate::span!(Level::Debug, target: "test", "score", window = 1u64);
                assert!(span.is_armed());
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let events = recorder.events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].name, "score");
            assert!(events[0].duration_us.unwrap() >= 1_000, "slept ≥ 2 ms");
        });
    }

    #[test]
    fn level_filter_suppresses_below_min() {
        with_recorder(Level::Warn, |recorder| {
            crate::event!(Level::Debug, target: "test", "quiet");
            crate::event!(Level::Error, target: "test", "loud");
            let events = recorder.events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].name, "loud");
        });
    }

    #[test]
    fn no_subscriber_means_disabled_and_free() {
        let _guard = GLOBAL_GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        clear_subscriber();
        assert!(!tracing_enabled(Level::Error));
        // Macros are safe to call with nothing installed.
        crate::event!(Level::Error, target: "test", "dropped");
        let span = crate::span!(Level::Error, target: "test", "dropped");
        assert!(!span.is_armed());
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let recorder = RingBufferRecorder::with_capacity(2);
        for i in 0..4u64 {
            recorder.record(&Event {
                level: Level::Info,
                target: "test",
                name: "tick",
                fields: vec![("i", FieldValue::U64(i))],
                duration_us: None,
            });
        }
        let events = recorder.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].field("i").unwrap().as_u64(), Some(2));
        assert_eq!(events[1].field("i").unwrap().as_u64(), Some(3));
        assert!(recorder.is_empty());
    }

    #[test]
    fn json_lines_are_valid_json() {
        let event = Event {
            level: Level::Warn,
            target: "wmp_serve::engine",
            name: "retrain_failed",
            fields: vec![
                ("pass", FieldValue::U64(3)),
                ("error", FieldValue::Str("bad \"quote\"".to_string())),
            ],
            duration_us: Some(1500),
        };
        let line = event.to_json_line();
        let doc = crate::json::parse(&line).expect("JSON line parses");
        assert_eq!(doc.get("level").unwrap().as_str(), Some("warn"));
        assert_eq!(doc.get("event").unwrap().as_str(), Some("retrain_failed"));
        assert_eq!(doc.get("duration_us").unwrap().as_f64(), Some(1500.0));
        assert_eq!(doc.get("error").unwrap().as_str(), Some("bad \"quote\""));
    }

    #[test]
    fn noop_subscriber_reports_disabled() {
        assert!(!NoopSubscriber.enabled(Level::Error));
    }
}
