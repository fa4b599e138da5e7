//! The traced run: per-layer counts and host busy times.
//!
//! Layers are measured from outside, through their public APIs:
//!
//! * spans around each public call an operation makes (the interface
//!   run, the MCU, the error budget, the cochlea, the quantizer, the
//!   power model);
//! * for the layers inside the discrete-event run, whose only public
//!   entry point is `run`, a replay that re-drives each layer's public
//!   API with the operation stream the run's report implies, timed as
//!   one batch per operation;
//! * for telemetry and lineage, differences of whole runs with the
//!   collector on and off, timed in the same rounds as the replays so
//!   the interface's self time compares measurements made together.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use aetr::aetr_format::AetrEvent;
use aetr::fifo::AetrFifo;
use aetr::i2s::I2sTransmitter;
use aetr::interface::{InterfaceReport, TimestampedEvent};
use aetr_aer::handshake::{HandshakeLog, HandshakeSender, CAVIAR_EVENT_BUDGET};
use aetr_aer::spike::Spike;
use aetr_clockgen::fsm::SamplerFsm;
use aetr_power::meter::PowerMeter;
use aetr_power::model::PowerModel;
use aetr_sim::queue::EventQueue;
use aetr_sim::time::{SimDuration, SimTime};
use aetr_telemetry::json::Json;
use aetr_telemetry::lineage::{ErrorBudget, EventLineage};
use aetr_telemetry::span::SpanKind;
use aetr_telemetry::TelemetryConfig;

use crate::calibrate;
use crate::stats::{median, percentile};
use crate::trace::{time_batch, timer_floor_ns, Recorder};
use crate::workloads::{DesEntry, DesWorkload, FiguresOutput, Workload, SAMPLE_CADENCE};

/// Share of `--seconds` a DES traced run spends on operations; the
/// rest goes to paired measurement rounds.
const OPS_SHARE: f64 = 0.4;

/// Per-layer metrics measured in host time.
const HOST_TIMES: [&str; 17] = [
    "sim.queue.busy_ns",
    "clockgen.fsm.busy_ns",
    "aer.handshake.busy_ns",
    "core.fifo.busy_ns",
    "core.i2s.busy_ns",
    "power.meter.busy_ns",
    "power.model.busy_ns",
    "telemetry.busy_ns",
    "telemetry.lineage.busy_ns",
    "telemetry.lineage.budget_ns",
    "core.interface.run_ns",
    "core.interface.self_ns",
    "core.mcu.busy_ns",
    "cochlea.process_ns",
    "clockgen.quantizer.busy_ns",
    "clockgen.quantizer.ns_per_event",
    "trace.overhead_ms",
];

/// Per-layer metrics in `BENCHMARK.json` order: (name, unit).
const METRICS: [(&str, &str); 40] = [
    ("sim.queue.ops_per_event", "ops/event"),
    ("sim.queue.busy_ns", "ns"),
    ("clockgen.fsm.ticks_per_event", "ticks/event"),
    ("clockgen.fsm.divisions", "count"),
    ("clockgen.fsm.wakes", "count"),
    ("clockgen.fsm.busy_ns", "ns"),
    ("aer.handshake.transactions", "count"),
    ("aer.handshake.max_queue_delay_ns", "ns"),
    ("aer.handshake.caviar_over_budget", "count"),
    ("aer.handshake.busy_ns", "ns"),
    ("core.fifo.pushed", "count"),
    ("core.fifo.dropped", "count"),
    ("core.fifo.high_watermark", "count"),
    ("core.fifo.stored_frac", "frac"),
    ("core.fifo.busy_ns", "ns"),
    ("core.i2s.frames", "count"),
    ("core.i2s.busy_ns", "ns"),
    ("power.off_frac", "frac"),
    ("power.meter.busy_ns", "ns"),
    ("power.model.busy_ns", "ns"),
    ("faults.injected", "count"),
    ("faults.ack_retries", "count"),
    ("faults.recovered", "count"),
    ("faults.recovered_frac", "frac"),
    ("telemetry.busy_ns", "ns"),
    ("telemetry.lineage.records", "count"),
    ("telemetry.lineage.bytes", "bytes"),
    ("telemetry.lineage.busy_ns", "ns"),
    ("telemetry.lineage.budget_ns", "ns"),
    ("core.interface.run_ns", "ns"),
    ("core.interface.self_ns", "ns"),
    ("core.interface.coverage", "frac"),
    ("core.mcu.busy_ns", "ns"),
    ("cochlea.spikes", "count"),
    ("cochlea.process_ns", "ns"),
    ("clockgen.quantizer.busy_ns", "ns"),
    ("clockgen.quantizer.ns_per_event", "ns/event"),
    ("clockgen.quantizer.saturated_frac", "frac"),
    ("trace.overhead_ms", "ms"),
    ("trace.timer_floor_ns", "ns"),
];

/// The traced run: every per-layer metric. A layer that does not run
/// on this workload reports 0.
pub fn run_traced(args: &crate::Args) -> Result<(Json, Json), String> {
    let workload = Workload::setup(&args.workload, args.seeds)?;
    let floor_ns = timer_floor_ns();
    let mut values: BTreeMap<&'static str, f64> = METRICS.iter().map(|&(n, _)| (n, 0.0)).collect();
    values.insert("trace.timer_floor_ns", floor_ns);
    let budget = Duration::from_secs_f64(args.seconds);
    let ops_budget = match workload {
        Workload::Des { .. } => budget.mul_f64(OPS_SHARE),
        Workload::Figures { .. } => budget,
    };

    let mut kernel = Vec::new();
    let mut recorder = Recorder::new(floor_ns);
    let ops = traced_ops(&workload, &mut recorder, ops_budget, &mut kernel);
    values.insert("trace.overhead_ms", ops.traced_p50_ms - ops.untraced_p50_ms);
    for (layer, metric) in [
        ("core.interface.run", "core.interface.run_ns"),
        ("core.mcu", "core.mcu.busy_ns"),
        ("telemetry.lineage.budget", "telemetry.lineage.budget_ns"),
        ("cochlea.process", "cochlea.process_ns"),
        ("clockgen.quantizer", "clockgen.quantizer.busy_ns"),
        ("power.model", "power.model.busy_ns"),
    ] {
        if let Some(ns) = per_op_median(&recorder, layer) {
            values.insert(metric, ns);
        }
    }

    match &workload {
        Workload::Des { w, .. } => {
            let streams = LayerStreams::new(w);
            streams.counts(w, &mut values);
            let rounds_budget = budget.mul_f64(1.0 - OPS_SHARE);
            for (metric, ns) in des_rounds(w, &streams, floor_ns, rounds_budget, &mut kernel) {
                values.insert(metric, ns);
            }
        }
        Workload::Figures { reference, .. } => figures_counts(reference, &mut values),
    }

    // Host times are scaled to the calibration kernel's reference
    // speed, like the end-to-end metrics; simulated times are not.
    let factor = calibrate::factor(&kernel);
    for name in HOST_TIMES {
        *values.get_mut(name).expect("host times are metrics") *= factor;
    }
    let metrics = Json::Object(
        METRICS
            .iter()
            .map(|&(name, unit)| (name.to_owned(), crate::metric(values[name], unit)))
            .collect(),
    );
    let attempted = (ops.traced + ops.untraced) as u64;
    let result = crate::result_json(ops.failed, attempted, metrics);
    let detail = Json::object([
        ("traced_ops", Json::from(ops.traced as u64)),
        ("untraced_ops", Json::from(ops.untraced as u64)),
        ("unscaled_traced_p50_ms", Json::from(ops.traced_p50_ms)),
        ("unscaled_untraced_p50_ms", Json::from(ops.untraced_p50_ms)),
        ("first_failure", ops.first_failure.map_or(Json::Null, Json::from)),
        ("calibration_factor", Json::from(factor)),
        ("spans", recorder.to_json()),
    ]);
    Ok((result, detail))
}

/// Outcome of the traced operation loop.
struct TracedOps {
    traced: usize,
    untraced: usize,
    traced_p50_ms: f64,
    untraced_p50_ms: f64,
    failed: u64,
    first_failure: Option<String>,
}

/// Alternates traced and untraced operations for `budget`; the gap
/// between their p50s is the tracing overhead.
fn traced_ops(
    w: &Workload,
    recorder: &mut Recorder,
    budget: Duration,
    kernel: &mut Vec<f64>,
) -> TracedOps {
    let deadline = Instant::now() + budget;
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let (mut failed, mut first_failure) = (0, None);
    let mut i = 0usize;
    while traced.len() < crate::MIN_OPS / 2 || Instant::now() < deadline {
        let trace_this = i.is_multiple_of(2);
        i += 1;
        kernel.push(calibrate::kernel_ms());
        let started = Instant::now();
        let outcome = if trace_this {
            let root = recorder.enter("op");
            let outcome = w.op_traced(recorder);
            recorder.exit(root);
            outcome
        } else {
            w.op()
        };
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        if trace_this {
            traced.push(wall_ms)
        } else {
            untraced.push(wall_ms)
        }
        if let Err(e) = w.check(&outcome) {
            failed += 1;
            first_failure.get_or_insert(e);
        }
    }
    TracedOps {
        traced: traced.len(),
        untraced: untraced.len(),
        traced_p50_ms: percentile(&mut traced, 0.5),
        untraced_p50_ms: percentile(&mut untraced, 0.5),
        failed,
        first_failure,
    }
}

/// Median over traced operations of the summed busy time of every
/// `layer` span inside each operation; `None` if the layer never ran.
fn per_op_median(recorder: &Recorder, layer: &str) -> Option<f64> {
    let mut per_op: Vec<f64> = Vec::new();
    let mut seen = false;
    for span in recorder.spans() {
        if span.parent.is_none() {
            per_op.push(0.0);
        } else if span.name == layer {
            seen = true;
            *per_op.last_mut().expect("layer spans nest inside an op") += recorder.busy_ns(span);
        }
    }
    seen.then(|| median(&mut per_op))
}

/// Rounds of paired measurements, repeated until `budget` is spent.
/// Each round times the whole run with the collector off, with
/// telemetry, and with telemetry and lineage (rotating which goes
/// first), then every layer replay; the telemetry costs are the
/// within-round differences, and the interface's self time and
/// coverage compare the replays with the run of the same round, so
/// host-speed drift between rounds cancels. Returns each metric's
/// median over rounds.
fn des_rounds(
    w: &DesWorkload,
    streams: &LayerStreams,
    floor_ns: f64,
    budget: Duration,
    kernel: &mut Vec<f64>,
) -> Vec<(&'static str, f64)> {
    let off = TelemetryConfig::disabled();
    let on = TelemetryConfig::with_cadence(SAMPLE_CADENCE);
    let configs = [off, on, on.with_lineage()];
    let run = |tel: &TelemetryConfig| {
        time_batch(floor_ns, || {
            std::hint::black_box(w.interface.run_with_telemetry(&w.train, w.horizon, &w.plan, tel));
        })
    };
    let layers: [(&'static str, &dyn Fn()); 7] = [
        ("sim.queue.busy_ns", &|| streams.replay_queue(w)),
        ("clockgen.fsm.busy_ns", &|| streams.replay_fsm(w)),
        ("aer.handshake.busy_ns", &|| streams.replay_handshake(w)),
        ("core.fifo.busy_ns", &|| streams.replay_fifo(w)),
        ("core.i2s.busy_ns", &|| streams.replay_i2s(w)),
        ("power.meter.busy_ns", &|| streams.replay_meter(w)),
        ("power.model.busy_ns", &|| {
            std::hint::black_box(streams.power_model.evaluate(&streams.report.activity));
        }),
    ];
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let deadline = Instant::now() + budget;
    let mut round = 0;
    while round < 10 || Instant::now() < deadline {
        kernel.push(calibrate::kernel_ms());
        let mut t = [0.0; 3];
        for k in 0..3 {
            let c = (k + round) % 3;
            t[c] = run(&configs[c]);
        }
        let mut attributed = 0.0;
        for (name, replay) in &layers {
            let ns = time_batch(floor_ns, replay);
            attributed += ns;
            samples.entry(name).or_default().push(ns);
        }
        let run_ns = match w.entry {
            DesEntry::Plain => {
                // The plain operation has no lineage; the budget layer
                // is timed on the lineage of the same stream.
                let records = streams.report.telemetry.lineage.records();
                let ns = time_batch(floor_ns, || {
                    std::hint::black_box(ErrorBudget::from_records(records, w.t_min()));
                });
                samples.entry("telemetry.lineage.budget_ns").or_default().push(ns);
                t[0]
            }
            DesEntry::Instrumented => {
                attributed += t[2] - t[0];
                t[2]
            }
        };
        for (name, v) in [
            ("telemetry.busy_ns", t[1] - t[0]),
            ("telemetry.lineage.busy_ns", t[2] - t[1]),
            ("core.interface.self_ns", run_ns - attributed),
            ("core.interface.coverage", attributed / run_ns),
        ] {
            samples.entry(name).or_default().push(v);
        }
        round += 1;
    }
    samples.into_iter().map(|(name, mut v)| (name, median(&mut v))).collect()
}

fn figures_counts(r: &FiguresOutput, values: &mut BTreeMap<&'static str, f64>) {
    values.insert("cochlea.spikes", r.cochlea_spikes as f64);
    values.insert("clockgen.quantizer.saturated_frac", r.saturated as f64 / r.quantized_out as f64);
    values.insert(
        "clockgen.quantizer.ns_per_event",
        values["clockgen.quantizer.busy_ns"] / r.quantized_in as f64,
    );
}

/// A queue event of the same size as the runner's own.
#[derive(Clone, Copy)]
enum ReplayEv {
    Tick,
    Request,
    Frame(#[allow(dead_code)] usize),
}

/// One power-meter notification, in simulated-time order.
#[derive(Clone, Copy)]
enum MeterOp {
    Multiplier(SimTime, u64),
    Off(SimTime),
    Wake,
    Event,
}

/// One FIFO access: a captured event pushed, or a frame's pops.
#[derive(Clone, Copy)]
enum FifoOp {
    Push(AetrEvent),
    Pop(usize),
}

/// The per-layer operation streams one DES operation implies, derived
/// once from a telemetry- and lineage-enabled run of the same inputs.
struct LayerStreams {
    /// The operation's report with telemetry and lineage on.
    report: InterfaceReport,
    queue_ops: u64,
    meter: Vec<MeterOp>,
    fifo: Vec<FifoOp>,
    /// Frames as (start, first event, second event).
    frames: Vec<(SimTime, AetrEvent, Option<AetrEvent>)>,
    /// Spikes of completed handshakes, in order.
    handshake_spikes: Vec<Spike>,
    /// The interface's power model (the IGLOO-nano default).
    power_model: PowerModel,
}

impl LayerStreams {
    fn new(w: &DesWorkload) -> LayerStreams {
        let tel = TelemetryConfig::with_cadence(SAMPLE_CADENCE).with_lineage();
        let report = w.interface.run_with_telemetry(&w.train, w.horizon, &w.plan, &tel);
        let queue_ops = report.telemetry.profile.map_or(0, |p| p.queue_ops);

        // Power meter: clock-state transitions and wakes from the span
        // log, plus the reset to full rate and the event count at each
        // capture.
        let mut timed: Vec<(SimTime, u8, MeterOp)> = Vec::new();
        for span in report.telemetry.spans.of_kind(SpanKind::ClockState).skip(1) {
            let op = match (span.name, span.arg) {
                ("sleep", _) => MeterOp::Off(span.start),
                (_, m) => MeterOp::Multiplier(span.start, m.unwrap_or(1)),
            };
            timed.push((span.start, 0, op));
        }
        for span in report.telemetry.spans.of_kind(SpanKind::Wake) {
            timed.push((span.start, 1, MeterOp::Wake));
        }
        for e in &report.events {
            timed.push((e.detection, 0, MeterOp::Multiplier(e.detection, 1)));
            timed.push((e.detection, 2, MeterOp::Event));
        }
        timed.sort_by_key(|&(t, order, _)| (t, order));
        let meter = timed.into_iter().map(|(_, _, op)| op).collect();

        // FIFO: pushes at capture, pops when each frame starts.
        let frames: Vec<_> = report
            .i2s
            .frames()
            .iter()
            .map(|f| {
                let mut events = f.events();
                let first = events.next().expect("a frame carries at least one event");
                (f.start, first, events.next())
            })
            .collect();
        let mut fifo: Vec<(SimTime, u8, FifoOp)> = report
            .events
            .iter()
            .map(|e: &TimestampedEvent| (e.detection, 0, FifoOp::Push(e.event)))
            .collect();
        fifo.extend(
            frames
                .iter()
                .map(|&(t, _, second)| (t, 1, FifoOp::Pop(1 + usize::from(second.is_some())))),
        );
        fifo.sort_by_key(|&(t, order, _)| (t, order));
        let fifo = fifo.into_iter().map(|(_, _, op)| op).collect();

        let handshake_spikes = report
            .handshake
            .transactions()
            .iter()
            .map(|t| Spike::new(t.event_time, t.addr))
            .collect();
        LayerStreams {
            report,
            queue_ops,
            meter,
            fifo,
            frames,
            handshake_spikes,
            power_model: PowerModel::igloo_nano(),
        }
    }

    /// Exact counts from the reports.
    fn counts(&self, w: &DesWorkload, values: &mut BTreeMap<&'static str, f64>) {
        let r = &self.report;
        let offered = w.train.len() as f64;
        let base_ps = w.t_min().as_ps() as f64;
        let ticks: f64 =
            r.activity.active.iter().map(|&(m, d)| d.as_ps() as f64 / (m as f64 * base_ps)).sum();
        let mut metrics = r.telemetry.metrics.clone();
        let divisions = metrics.counter("interface.clockgen.divisions");
        let fifo = r.fifo_stats;
        let captured = r.events.len() as f64;
        let health = r.health;
        let records = r.telemetry.lineage.len() as f64;
        for (name, value) in [
            ("sim.queue.ops_per_event", self.queue_ops as f64 / offered),
            ("clockgen.fsm.ticks_per_event", ticks / offered),
            ("clockgen.fsm.divisions", metrics.counter_value(divisions) as f64),
            ("clockgen.fsm.wakes", r.wake_count as f64),
            ("aer.handshake.transactions", r.handshake.len() as f64),
            (
                "aer.handshake.max_queue_delay_ns",
                r.handshake.max_queue_delay().map_or(0.0, |d| d.as_ps() as f64 / 1e3),
            ),
            (
                "aer.handshake.caviar_over_budget",
                r.handshake
                    .transactions()
                    .iter()
                    .filter(|t| t.duration() > CAVIAR_EVENT_BUDGET)
                    .count() as f64,
            ),
            ("core.fifo.pushed", fifo.pushed as f64),
            ("core.fifo.dropped", fifo.dropped as f64),
            ("core.fifo.high_watermark", fifo.high_watermark as f64),
            ("core.fifo.stored_frac", fifo.pushed as f64 / captured),
            ("core.i2s.frames", r.i2s.len() as f64),
            ("power.off_frac", r.activity.off.as_ps() as f64 / r.activity.span().as_ps() as f64),
            ("faults.injected", health.faults_injected() as f64),
            ("faults.ack_retries", health.ack_retries as f64),
            ("faults.recovered", health.acks_recovered as f64),
            (
                "faults.recovered_frac",
                match health.faults_injected() {
                    0 => 0.0,
                    n => health.acks_recovered as f64 / n as f64,
                },
            ),
            ("telemetry.lineage.records", records),
            ("telemetry.lineage.bytes", records * std::mem::size_of::<EventLineage>() as f64),
        ] {
            values.insert(name, value);
        }
        if w.entry == DesEntry::Instrumented {
            values.insert("cochlea.spikes", offered);
        }
    }

    /// `schedule_at` + `pop` pairs totalling the run's queue-op count,
    /// with the runner's typical depth of three pending events (tick,
    /// request, frame).
    fn replay_queue(&self, w: &DesWorkload) {
        let mut queue: EventQueue<ReplayEv> = EventQueue::with_capacity(16);
        let step = SimDuration::from_ps((w.horizon.as_ps() / self.queue_ops.max(1)).max(1));
        let mut t = SimTime::ZERO;
        for ev in [ReplayEv::Tick, ReplayEv::Request, ReplayEv::Frame(0)] {
            t += step;
            queue.schedule_at(t, ev).expect("replay times increase");
        }
        while queue.ops() < self.queue_ops {
            let (now, ev) = queue.pop().expect("replay keeps events pending");
            queue.schedule_at(now + step * 3, ev).expect("replay times increase");
        }
        std::hint::black_box(&queue);
    }

    /// The sampler FSM driven through the run's captures: quiet ticks
    /// advanced in closed form up to each request, per-tick steps to
    /// its detection, and a wake when the clock had shut down.
    fn replay_fsm(&self, w: &DesWorkload) {
        let clock = w.interface.config().clock;
        let mut fsm = SamplerFsm::new(&clock);
        let mut segments = Vec::new();
        let mut next_tick = Some(SimTime::ZERO + w.t_min());
        for e in &self.report.events {
            if let Some(t) = next_tick.filter(|&t| t < e.request) {
                next_tick = fsm.advance_idle_into(t, e.request, &mut segments);
            }
            if let Some(mut t) = next_tick {
                // Bounded: detection is a few sampling periods away.
                for _ in 0..64 {
                    if t >= e.detection || fsm.is_asleep() {
                        break;
                    }
                    std::hint::black_box(fsm.on_tick(false));
                    t += fsm.current_period();
                }
            }
            if fsm.is_asleep() {
                std::hint::black_box(fsm.wake());
            }
            std::hint::black_box(fsm.on_tick(true));
            next_tick = Some(e.detection + fsm.current_period());
        }
        if let Some(t) = next_tick.filter(|&t| t < w.horizon) {
            fsm.advance_idle_into(t, w.horizon, &mut segments);
        }
        std::hint::black_box(&segments);
    }

    /// The sensor-side cursor through every logged handshake, then the
    /// protocol check over the rebuilt log.
    fn replay_handshake(&self, w: &DesWorkload) {
        let timing = w.interface.config().handshake;
        let mut sender = HandshakeSender::over(&self.handshake_spikes, timing);
        let mut log = HandshakeLog::with_capacity(self.handshake_spikes.len());
        for t in self.report.handshake.transactions() {
            // Malformed-edge faults swap ACK rise and REQ fall in the
            // log; the sender saw them in order.
            let ack_rise = t.ack_rise.min(t.req_fall);
            let start = sender.next_req_rise().expect("one spike per transaction");
            sender.begin(t.req_rise.max(start));
            let req_fall = sender.ack_rise(ack_rise);
            log.push(sender.ack_fall(ack_rise, req_fall, t.ack_fall.max(req_fall)));
        }
        std::hint::black_box(log.verify_protocol().is_ok());
    }

    fn replay_fifo(&self, w: &DesWorkload) {
        let mut fifo = AetrFifo::new(w.interface.config().fifo);
        for op in &self.fifo {
            match *op {
                FifoOp::Push(e) => {
                    std::hint::black_box(fifo.push(e));
                }
                FifoOp::Pop(n) => {
                    for _ in 0..n {
                        std::hint::black_box(fifo.pop());
                    }
                }
            }
        }
        std::hint::black_box(fifo.stats());
    }

    fn replay_i2s(&self, w: &DesWorkload) {
        let mut i2s = I2sTransmitter::new(w.interface.config().i2s);
        for &(start, first, second) in &self.frames {
            let start = start.max(i2s.busy_until());
            std::hint::black_box(i2s.send_pair(start, first, second).is_ok());
        }
        std::hint::black_box(i2s.into_stream());
    }

    fn replay_meter(&self, w: &DesWorkload) {
        let mut meter = PowerMeter::new(SimTime::ZERO);
        meter.clock_multiplier(SimTime::ZERO, 1);
        let mut last = SimTime::ZERO;
        for op in &self.meter {
            match *op {
                MeterOp::Multiplier(t, m) => {
                    last = last.max(t);
                    meter.clock_multiplier(last, m);
                }
                MeterOp::Off(t) => {
                    last = last.max(t);
                    meter.clock_off(last);
                }
                MeterOp::Wake => meter.wake(),
                MeterOp::Event => meter.event(1),
            }
        }
        std::hint::black_box(meter.finish(last.max(w.horizon)));
    }
}
