//! Typed spans over simulated time.
//!
//! A span is an interval `[start, end]` in [`SimTime`] attributed to a
//! component track and a state name — one 4-phase handshake, one
//! oscillator wake, one watchdog recovery, one I2S frame, or one
//! residency interval of the clock generator (sleep / divided /
//! full-rate). The log keeps spans in completion order, can export them
//! as Chrome `trace_event` JSON (load in `chrome://tracing` or
//! Perfetto), and can fold them into a per-track time-in-state
//! breakdown, which is how the energy-proportionality acceptance test
//! checks that sleep + divided + full-rate residency covers the whole
//! simulation horizon.

use std::collections::BTreeMap;

use aetr_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What kind of activity a span describes.
///
/// The kind doubles as the Chrome trace category and groups spans into
/// per-component "tracks" in the summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanKind {
    /// One 4-phase REQ/ACK handshake, from REQ rise to ACK release.
    Handshake,
    /// One oscillator wake, from wake request to first usable edge.
    Wake,
    /// One watchdog recovery episode (ACK retry or forced wake).
    WatchdogRecovery,
    /// One I2S output frame on the wire.
    I2sFrame,
    /// One residency interval of the clock generator state machine.
    ClockState,
}

impl SpanKind {
    /// Stable lowercase label (trace category / JSON field).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Handshake => "handshake",
            SpanKind::Wake => "wake",
            SpanKind::WatchdogRecovery => "watchdog",
            SpanKind::I2sFrame => "i2s_frame",
            SpanKind::ClockState => "clock_state",
        }
    }

    fn all() -> [SpanKind; 5] {
        [
            SpanKind::Handshake,
            SpanKind::Wake,
            SpanKind::WatchdogRecovery,
            SpanKind::I2sFrame,
            SpanKind::ClockState,
        ]
    }
}

/// A completed span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Activity class (also the trace track).
    pub kind: SpanKind,
    /// State or instance name within the track (e.g. `"sleep"`,
    /// `"divided"`, `"full-rate"` for [`SpanKind::ClockState`]).
    pub name: &'static str,
    /// Simulated start time.
    pub start: SimTime,
    /// Simulated end time (`end >= start`).
    pub end: SimTime,
    /// Optional numeric argument (divider multiplier, retry index, …).
    pub arg: Option<u64>,
}

impl Span {
    /// Span length in simulated time.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Handle to a span that has been opened but not yet closed: the
/// span's sequence number among all spans the log has opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSpan(usize);

/// Append-only span log.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SpanLog {
    spans: Vec<Span>,
    /// Spans still open, with their handle numbers. A closed span
    /// leaves this list, so it holds only the few spans in flight
    /// however long the run.
    open: Vec<(usize, Span)>,
    /// Spans opened so far: the next handle's number.
    opened: usize,
}

impl SpanLog {
    /// Creates an empty log.
    pub fn new() -> SpanLog {
        SpanLog::default()
    }

    /// Opens a span at `start`; close it with [`SpanLog::close`].
    pub fn open(&mut self, kind: SpanKind, name: &'static str, start: SimTime) -> OpenSpan {
        let handle = OpenSpan(self.opened);
        self.opened += 1;
        self.open.push((handle.0, Span { kind, name, start, end: start, arg: None }));
        handle
    }

    /// Closes an open span at `end`, moving it into the log.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the span's start or the handle was
    /// already closed (handles are single-use; closing out of order is
    /// fine as long as each handle is closed once).
    pub fn close(&mut self, handle: OpenSpan, end: SimTime) {
        self.close_with(handle, end, None);
    }

    /// Closes an open span, attaching a numeric argument.
    pub fn close_with(&mut self, handle: OpenSpan, end: SimTime, arg: Option<u64>) {
        let slot = self.open.iter().position(|&(n, _)| n == handle.0);
        let (_, mut done) = self.open.remove(slot.expect("span handle closed twice"));
        assert!(done.start <= end, "span cannot end before it starts");
        done.end = end;
        done.arg = arg.or(done.arg);
        self.spans.push(done);
    }

    /// Records an already-complete span.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn record(
        &mut self,
        kind: SpanKind,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        arg: Option<u64>,
    ) {
        assert!(start <= end, "span cannot end before it starts");
        self.spans.push(Span { kind, name, start, end, arg });
    }

    /// Completed spans in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of completed spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no span has completed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Completed spans of one kind.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// Per-kind, per-name total simulated time, sorted for stable
    /// output.
    ///
    /// For [`SpanKind::ClockState`] this is exactly the sleep /
    /// divided / full-rate residency breakdown: the clock generator is
    /// always in exactly one state, so the three totals partition the
    /// simulation horizon.
    pub fn residency(&self, kind: SpanKind) -> Vec<(&'static str, SimDuration)> {
        let mut acc: BTreeMap<&'static str, SimDuration> = BTreeMap::new();
        for s in self.of_kind(kind) {
            let slot = acc.entry(s.name).or_insert(SimDuration::ZERO);
            *slot += s.duration();
        }
        acc.into_iter().collect()
    }

    /// Total simulated time across all spans of one kind.
    pub fn total_of_kind(&self, kind: SpanKind) -> SimDuration {
        self.of_kind(kind).map(|s| s.duration()).sum()
    }

    /// Serialises the log as a Chrome `trace_event` JSON document
    /// (the `{"traceEvents": [...]}` object form) with the default
    /// `"aetr"` process name.
    pub fn to_chrome_trace(&self) -> String {
        self.to_chrome_trace_with("aetr", &[])
    }

    /// Serialises the log as a Chrome `trace_event` JSON document.
    ///
    /// Each span becomes a complete (`"ph":"X"`) event; timestamps are
    /// microseconds as Chrome expects, carried as fractional values so
    /// picosecond starts survive. Tracks map to `tid`s in kind order.
    /// A `process_name` metadata record carries `process` (so traces
    /// from multiple runs stay distinguishable when merged in
    /// Perfetto), and `extra` holds pre-rendered JSON event objects —
    /// e.g. lineage flow events — appended verbatim to the array.
    pub fn to_chrome_trace_with(&self, process: &str, extra: &[String]) -> String {
        use std::fmt::Write as _;
        let tid = |kind: SpanKind| {
            SpanKind::all().iter().position(|k| *k == kind).expect("kind in table")
        };
        let escaped: String = process
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if c.is_control() => vec![' '],
                c => vec![c],
            })
            .collect();
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{escaped}\"}}}}"
        );
        for kind in SpanKind::all() {
            let _ = write!(
                out,
                ",{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                tid(kind),
                kind.label()
            );
        }
        for s in &self.spans {
            let ts_us = s.start.as_ps() as f64 / 1e6;
            let dur_us = s.duration().as_ps() as f64 / 1e6;
            let _ = write!(
                out,
                ",{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"cat\":\"{}\",\"name\":\"{}\",\
                 \"ts\":{},\"dur\":{}",
                tid(s.kind),
                s.kind.label(),
                s.name,
                ts_us,
                dur_us
            );
            if let Some(arg) = s.arg {
                let _ = write!(out, ",\"args\":{{\"value\":{arg}}}");
            }
            out.push('}');
        }
        for e in extra {
            out.push(',');
            out.push_str(e);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn open_close_records_duration() {
        let mut log = SpanLog::new();
        let h = log.open(SpanKind::Handshake, "req0", t(10));
        log.close(h, t(35));
        assert_eq!(log.len(), 1);
        assert_eq!(log.spans()[0].duration(), SimDuration::from_ns(25));
    }

    #[test]
    fn out_of_order_close_is_allowed() {
        let mut log = SpanLog::new();
        let a = log.open(SpanKind::Wake, "wake", t(0));
        let b = log.open(SpanKind::Handshake, "req", t(5));
        log.close(b, t(6));
        log.close(a, t(20));
        assert_eq!(log.len(), 2);
        assert_eq!(log.spans()[0].kind, SpanKind::Handshake);
    }

    #[test]
    fn closed_spans_leave_the_open_list() {
        let mut log = SpanLog::new();
        let wake = log.open(SpanKind::Wake, "wake", t(0));
        for i in 0..1_000 {
            let h = log.open(SpanKind::Handshake, "4-phase", t(i));
            log.close(h, t(i + 1));
        }
        assert_eq!(log.open.len(), 1);
        log.close(wake, t(2_000));
        assert!(log.open.is_empty());
        assert_eq!(log.len(), 1_001);
    }

    #[test]
    #[should_panic(expected = "closed twice")]
    fn stale_handle_panics_after_later_spans_open() {
        let mut log = SpanLog::new();
        let h = log.open(SpanKind::Wake, "wake", t(0));
        log.close(h, t(1));
        log.open(SpanKind::Wake, "wake", t(2));
        log.close(h, t(3));
    }

    #[test]
    #[should_panic(expected = "closed twice")]
    fn double_close_panics() {
        let mut log = SpanLog::new();
        let h = log.open(SpanKind::Wake, "wake", t(0));
        log.close(h, t(1));
        log.close(h, t(2));
    }

    #[test]
    #[should_panic(expected = "end before it starts")]
    fn backwards_span_panics() {
        let mut log = SpanLog::new();
        let h = log.open(SpanKind::Wake, "wake", t(10));
        log.close(h, t(5));
    }

    #[test]
    fn residency_partitions_time() {
        let mut log = SpanLog::new();
        log.record(SpanKind::ClockState, "full-rate", t(0), t(40), None);
        log.record(SpanKind::ClockState, "divided", t(40), t(90), Some(4));
        log.record(SpanKind::ClockState, "sleep", t(90), t(100), None);
        let res = log.residency(SpanKind::ClockState);
        let total: u64 = res.iter().map(|(_, d)| d.as_ps()).sum();
        assert_eq!(total, SimDuration::from_ns(100).as_ps());
        assert_eq!(res[0].0, "divided");
        assert_eq!(log.total_of_kind(SpanKind::ClockState), SimDuration::from_ns(100));
    }

    #[test]
    fn chrome_trace_is_wellformed_json_with_all_spans() {
        let mut log = SpanLog::new();
        log.record(SpanKind::I2sFrame, "frame", t(0), t(10), Some(2));
        log.record(SpanKind::Wake, "wake", t(3), t(5), None);
        let json = log.to_chrome_trace();
        let value = crate::json::parse(&json).expect("valid json");
        let events = value.get("traceEvents").and_then(|v| v.as_array()).expect("events array");
        // 1 process-name + 5 thread-name metadata records + 2 spans.
        assert_eq!(events.len(), 8);
        let complete: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
        assert_eq!(complete.len(), 2);
        assert_eq!(complete[0].get("args").unwrap().get("value").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn labeled_trace_names_the_process_and_appends_extra_events() {
        let mut log = SpanLog::new();
        log.record(SpanKind::Handshake, "req", t(0), t(4), None);
        let extra =
            vec!["{\"ph\":\"s\",\"pid\":0,\"tid\":0,\"name\":\"event\",\"id\":0,\"ts\":0}"
                .to_string()];
        let json = log.to_chrome_trace_with("run \"7\"", &extra);
        let value = crate::json::parse(&json).expect("valid json despite quoted label");
        let events = value.get("traceEvents").and_then(|v| v.as_array()).expect("events array");
        let process = &events[0];
        assert_eq!(process.get("name").and_then(|n| n.as_str()), Some("process_name"));
        assert_eq!(
            process.get("args").unwrap().get("name").and_then(|n| n.as_str()),
            Some("run \"7\"")
        );
        assert_eq!(events.last().unwrap().get("ph").and_then(|p| p.as_str()), Some("s"));
    }
}
