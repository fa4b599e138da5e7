//! Host-time spans recorded from the benchmark's own code, around the
//! calls it makes into each layer's public API.
//!
//! Spans are kept in memory and written out once the run ends. Each
//! duration has the measured cost of one `Instant` pair (the timer
//! floor) subtracted, so short calls are not dominated by the timer.

use std::time::Instant;

use aetr_telemetry::json::Json;

/// Something that runs a layer call, optionally timing it.
pub trait Spans {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// Runs calls untimed: the configuration the end-to-end metrics use.
pub struct Untraced;

impl Spans for Untraced {
    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span. Times are ns since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Records spans with parent links into an in-memory log.
pub struct Recorder {
    epoch: Instant,
    floor_ns: f64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(floor_ns: f64) -> Recorder {
        Recorder { epoch: Instant::now(), floor_ns, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration with the timer floor removed (never negative).
    pub fn busy_ns(&self, span: &Span) -> f64 {
        ((span.end_ns - span.start_ns) as f64 - self.floor_ns).max(0.0)
    }

    /// The log as JSON: one object per span.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::object([
                        ("name", Json::from(s.name)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::from(u64::from(p)))),
                    ])
                })
                .collect(),
        )
    }
}

impl Recorder {
    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(index), "spans close in LIFO order");
        self.spans[index as usize].end_ns = end_ns;
    }
}

impl Spans for Recorder {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = self.enter(name);
        let result = f();
        self.exit(index);
        result
    }
}

/// Median cost of one back-to-back `Instant` pair, in ns.
pub fn timer_floor_ns() -> f64 {
    let mut samples: Vec<f64> = (0..20_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut samples)
}

/// Runs `f` over a whole batch under one `Instant` pair and returns
/// the batch's host time with the timer floor removed, in ns.
pub fn time_batch(floor_ns: f64, f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    (started.elapsed().as_nanos() as f64 - floor_ns).max(0.0)
}
