//! The full AER-to-I2S interface, simulated at the discrete-event
//! level.
//!
//! This assembles every block of Fig. 3 around the deterministic event
//! queue of [`aetr_sim`]: the sensor-side 4-phase
//! [handshake](aetr_aer::handshake), the 2-FF [front end](crate::front_end),
//! the cycle-accurate sampling [FSM](aetr_clockgen::fsm) clocked by the
//! pausable ring oscillator, the AETR [FIFO](crate::fifo) with
//! watermark batching, the [I2S transmitter](crate::i2s) and the
//! [configuration registers](crate::config_bus). Clock activity is
//! narrated to a [`PowerMeter`] so the DES power agrees with the
//! behavioral engine by construction.
//!
//! Use the behavioral [`quantizer`](crate::quantizer) for long sweeps;
//! use this for architectural effects (handshake backpressure, FIFO
//! overflow, I2S saturation, wake latency) and validation.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use aetr_aer::handshake::{HandshakeLog, HandshakeSender, HandshakeTiming};
use aetr_aer::spike::{Spike, SpikeTrain};
use aetr_clockgen::config::{ClockGenConfig, ClockGenConfigError};
use aetr_clockgen::fsm::{CaptureContext, FsmAction, IdleBoundary, SamplerFsm};
use aetr_faults::{
    FaultInjector, FaultKind, FaultPlan, HealthMonitor, InterfaceHealthReport, WatchdogConfig,
};
use aetr_power::meter::PowerMeter;
use aetr_power::model::{ActivityInput, PowerModel, PowerReport};
use aetr_sim::queue::EventQueue;
use aetr_sim::time::{SimDuration, SimTime};
use aetr_telemetry::lineage::{Capture, DropCause, EventLineage};
use aetr_telemetry::registry::{CounterId, GaugeId, HistogramId};
use aetr_telemetry::span::{OpenSpan, SpanKind};
pub use aetr_telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};

use crate::aetr_format::{AetrEvent, Timestamp};
use crate::config_bus::RegisterFile;
use crate::crossbar::{Crossbar, SinkPort, SourcePort};
use crate::fifo::{AetrFifo, FifoConfig, FifoStats, PushOutcome};
use crate::front_end::{FrontEndConfig, InputMonitor};
use crate::i2s::{I2sConfig, I2sStream, I2sTransmitter};

/// Full interface configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterfaceConfig {
    /// Clock generator (ring oscillator, `θ_div`, `N_div`, policy).
    pub clock: ClockGenConfig,
    /// Sensor-side handshake timing.
    pub handshake: HandshakeTiming,
    /// Input-monitor synchroniser.
    pub front_end: FrontEndConfig,
    /// AETR buffer.
    pub fifo: FifoConfig,
    /// Output carrier.
    pub i2s: I2sConfig,
}

impl InterfaceConfig {
    /// The measured prototype: θ=64, N=3 recursive clocking, 2-FF
    /// synchroniser, 9.2 kB FIFO, 15 MHz I2S.
    pub fn prototype() -> InterfaceConfig {
        InterfaceConfig {
            clock: ClockGenConfig::prototype(),
            handshake: HandshakeTiming::default(),
            front_end: FrontEndConfig::prototype(),
            fifo: FifoConfig::prototype(),
            i2s: I2sConfig::prototype(),
        }
    }

    /// Validates the composite configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InterfaceConfigError`] for an invalid clock tree or a
    /// FIFO watermark that cannot fit.
    pub fn validate(&self) -> Result<(), InterfaceConfigError> {
        self.clock.validate().map_err(InterfaceConfigError::Clock)?;
        if self.fifo.capacity_events() == 0 || self.fifo.watermark > self.fifo.capacity_events() {
            return Err(InterfaceConfigError::Fifo {
                watermark: self.fifo.watermark,
                capacity: self.fifo.capacity_events(),
            });
        }
        Ok(())
    }
}

impl Default for InterfaceConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

/// Composite configuration errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterfaceConfigError {
    /// Clock generator misconfiguration.
    Clock(ClockGenConfigError),
    /// FIFO watermark/capacity mismatch.
    Fifo {
        /// Configured watermark (events).
        watermark: usize,
        /// Capacity (events).
        capacity: usize,
    },
}

impl fmt::Display for InterfaceConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterfaceConfigError::Clock(e) => write!(f, "clock generator: {e}"),
            InterfaceConfigError::Fifo { watermark, capacity } => {
                write!(f, "FIFO watermark {watermark} does not fit capacity {capacity} events")
            }
        }
    }
}

impl Error for InterfaceConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InterfaceConfigError::Clock(e) => Some(e),
            InterfaceConfigError::Fifo { .. } => None,
        }
    }
}

/// One event as it left the interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimestampedEvent {
    /// When the sensor asserted `REQ`.
    pub request: SimTime,
    /// When the sampling clock captured it.
    pub detection: SimTime,
    /// The AETR event.
    pub event: AetrEvent,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterfaceReport {
    /// Events in capture order.
    pub events: Vec<TimestampedEvent>,
    /// Completed handshakes (verify with
    /// [`verify_protocol`](HandshakeLog::verify_protocol) /
    /// [`verify_caviar`](HandshakeLog::verify_caviar)).
    pub handshake: HandshakeLog,
    /// FIFO occupancy/loss statistics.
    pub fifo_stats: FifoStats,
    /// The transmitted I2S stream.
    pub i2s: I2sStream,
    /// Integrated clock activity.
    pub activity: ActivityInput,
    /// Power evaluated from the activity.
    pub power: PowerReport,
    /// Ring-oscillator wake count.
    pub wake_count: u64,
    /// Fault and recovery counters (all-zero in a fault-free run).
    pub health: InterfaceHealthReport,
    /// Telemetry captured during the run
    /// ([empty](TelemetrySnapshot::is_empty) unless the run was started
    /// through [`run_with_telemetry`](AerToI2sInterface::run_with_telemetry)
    /// with an enabled config).
    pub telemetry: TelemetrySnapshot,
}

/// How the runner advances the sampling-clock tick chain.
///
/// Both engines produce **bit-identical** [`InterfaceReport`]s (pinned
/// by a differential property test); they differ only in wall-clock
/// cost. The non-default engine exists as the reference model the
/// fast-forward is continuously tested against — select it with
/// [`AerToI2sInterface::with_engine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimEngine {
    /// Analytic idle fast-forward (the default): when no request, ACK
    /// recovery, wake, or scheduled fault is in flight, the quiet tick
    /// chain up to the next queue event is advanced in O(`N_div`)
    /// closed-form segments instead of one DES event per clock edge,
    /// making simulation cost proportional to *events*, not horizon.
    #[default]
    EventProportional,
    /// One DES event per sampling-clock edge — the cycle-by-cycle
    /// reference model.
    PerTickReference,
}

/// Scheduled DES events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Sensor raises `REQ`.
    ReqRise,
    /// Sampling clock edge.
    Tick,
    /// Ring oscillator finished waking; first tick follows.
    WakeDone,
    /// I2S frame transmission completed.
    FrameDone,
    /// A host SPI register write (index into the reconfig list).
    SpiWrite(usize),
    /// Watchdog re-drives `ACK` after a lost edge (attempt number).
    AckRetry(u32),
    /// Watchdog re-checks a wake the oscillator may have missed
    /// (attempt number).
    WakeCheck(u32),
}

/// The assembled interface.
///
/// # Examples
///
/// ```
/// use aetr::interface::{AerToI2sInterface, InterfaceConfig};
/// use aetr_aer::generator::{PoissonGenerator, SpikeSource};
/// use aetr_sim::time::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let interface = AerToI2sInterface::new(InterfaceConfig::prototype())?;
/// let train = PoissonGenerator::new(50_000.0, 64, 7).generate(SimTime::from_ms(5));
/// let report = interface.run(&train, SimTime::from_ms(5));
/// report.handshake.verify_protocol()?;
/// assert!(!report.events.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AerToI2sInterface {
    config: InterfaceConfig,
    power_model: PowerModel,
    engine: SimEngine,
}

impl AerToI2sInterface {
    /// Creates an interface with the default IGLOO-nano power model.
    ///
    /// # Errors
    ///
    /// Returns [`InterfaceConfigError`] if the configuration does not
    /// validate.
    pub fn new(config: InterfaceConfig) -> Result<AerToI2sInterface, InterfaceConfigError> {
        config.validate()?;
        Ok(AerToI2sInterface {
            config,
            power_model: PowerModel::igloo_nano(),
            engine: SimEngine::default(),
        })
    }

    /// Replaces the power model (e.g. a re-calibrated one).
    pub fn with_power_model(mut self, model: PowerModel) -> AerToI2sInterface {
        self.power_model = model;
        self
    }

    /// Selects the simulation engine (see [`SimEngine`]); reports are
    /// bit-identical either way.
    pub fn with_engine(mut self, engine: SimEngine) -> AerToI2sInterface {
        self.engine = engine;
        self
    }

    /// The selected simulation engine.
    pub fn engine(&self) -> SimEngine {
        self.engine
    }

    /// The configuration.
    pub fn config(&self) -> &InterfaceConfig {
        &self.config
    }

    /// Runs the interface over `train` until all events complete and
    /// `horizon` is reached (power is integrated over `[0, horizon]`
    /// or to the last activity, whichever is later).
    ///
    /// The train is borrowed, not consumed: replay is zero-copy, so the
    /// same stimulus can drive many runs (benches, campaigns, sweeps)
    /// without cloning event storage.
    pub fn run(&self, train: &SpikeTrain, horizon: SimTime) -> InterfaceReport {
        self.run_with_telemetry(
            train,
            horizon,
            &FaultPlan::nominal(0),
            &TelemetryConfig::disabled(),
        )
    }

    /// Like [`run`](Self::run), with faults injected per `plan` and
    /// the watchdog/degraded-mode recovery machinery armed.
    ///
    /// A plan whose rates are all zero and whose schedule is empty
    /// produces a report bit-identical to [`run`](Self::run) — the
    /// injector never consumes a random draw, so fault support is
    /// provably free when disabled.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not validate
    /// ([`FaultPlan::validate`]).
    pub fn run_with_faults(
        &self,
        train: &SpikeTrain,
        horizon: SimTime,
        plan: &FaultPlan,
    ) -> InterfaceReport {
        self.run_with_telemetry(train, horizon, plan, &TelemetryConfig::disabled())
    }

    /// Like [`run_with_faults`](Self::run_with_faults), with telemetry
    /// collection per `telemetry`.
    ///
    /// Telemetry is purely observational: with any config — including a
    /// fully enabled one — every functional field of the returned
    /// report (events, handshakes, FIFO statistics, I2S stream,
    /// activity, power, wakes, health) is bit-identical to what
    /// [`run`](Self::run) produces, because the collector schedules no
    /// queue events and mutates no simulation state. A disabled config
    /// is a no-op sink and yields [`TelemetrySnapshot::empty`].
    pub fn run_with_telemetry(
        &self,
        train: &SpikeTrain,
        horizon: SimTime,
        plan: &FaultPlan,
        telemetry: &TelemetryConfig,
    ) -> InterfaceReport {
        self.run_with(train, horizon, plan, telemetry, &[])
    }

    /// Like [`run`](Self::run), with SPI register writes applied at
    /// scheduled times mid-flight — the paper's runtime
    /// reconfiguration path. Invalid writes are rejected exactly as
    /// the register file rejects them (and silently skipped here, as a
    /// real host would observe on its SPI status).
    ///
    /// Writes must be given in non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if `writes` is not time-sorted.
    pub fn run_with_reconfig(
        &self,
        train: &SpikeTrain,
        horizon: SimTime,
        writes: &[(SimTime, crate::config_bus::Register, u32)],
    ) -> InterfaceReport {
        self.run_with(train, horizon, &FaultPlan::nominal(0), &TelemetryConfig::disabled(), writes)
    }

    /// The general entry point every other `run*` method delegates to:
    /// faults per `plan`, telemetry per `telemetry` and the SPI
    /// `writes` of [`run_with_reconfig`](Self::run_with_reconfig), all
    /// in one run.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not validate or `writes` is not
    /// time-sorted.
    pub fn run_with(
        &self,
        train: &SpikeTrain,
        horizon: SimTime,
        plan: &FaultPlan,
        telemetry: &TelemetryConfig,
        writes: &[(SimTime, crate::config_bus::Register, u32)],
    ) -> InterfaceReport {
        assert!(
            writes.windows(2).all(|w| w[1].0 >= w[0].0),
            "reconfiguration writes must be time-sorted"
        );
        Runner::new(self, train.as_slice(), horizon, plan, telemetry, writes).run()
    }
}

/// Per-event lineage bookkeeping (DESIGN.md §14), active only when
/// [`TelemetryConfig::lineage_enabled`]. Pure observation: nothing here
/// feeds back into the simulation, so enabling it cannot perturb the
/// report — and the fast-forward engine needs no hooks at all, because
/// every field below is written on a per-event code path shared by both
/// engines (quiet stretches have no captures, wakes, handshakes, FIFO
/// or I2S activity by the `idle_at` precondition).
struct LineageState {
    log: aetr_telemetry::lineage::LineageLog,
    /// Capture indices of the events currently buffered, in FIFO
    /// order — a shadow of `AetrFifo`'s queue, so pops can be matched
    /// back to their records.
    fifo_mirror: VecDeque<u32>,
    /// An oscillator wake is in flight, started at this instant.
    wake_started: Option<SimTime>,
    /// The last completed wake `(started, done)`, pending attribution
    /// to the woken event's capture.
    wake_done: Option<(SimTime, SimTime)>,
    /// Capture index of the event whose handshake has not seen its
    /// `ACK` rise yet.
    awaiting_ack: Option<u32>,
    /// Previous event's arrival (`t = 0` before the first), the origin
    /// of the measured inter-event interval.
    prev_arrival: SimTime,
    /// Arrival → end-of-I2S-frame latency distribution.
    e2e_latency: HistogramId,
}

/// Telemetry state of a run: the collector plus pre-registered metric
/// handles and open-span bookkeeping.
///
/// Boxed behind an `Option` in the [`Runner`]: a disabled run carries
/// `None`, so every instrumentation site is a single pointer test and
/// the hot path does no metric-name lookup ever — handles are resolved
/// once here (DESIGN.md §11's "lock-free on the hot path" contract).
struct TelState {
    tel: Telemetry,
    // Counters (names mirror the tracer scopes).
    events_captured: CounterId,
    divisions: CounterId,
    wakes: CounterId,
    shutdowns: CounterId,
    fifo_pushed: CounterId,
    fifo_dropped: CounterId,
    handshakes: CounterId,
    i2s_frames: CounterId,
    // Gauges / histograms.
    fifo_occupancy: GaugeId,
    fifo_depth: HistogramId,
    capture_latency: HistogramId,
    // Clock-generator residency: the currently open interval.
    clock_since: SimTime,
    clock_state: &'static str,
    clock_arg: Option<u64>,
    // Open spans (at most one of each kind is in flight by protocol).
    handshake_open: Option<OpenSpan>,
    wake_open: Option<OpenSpan>,
    ack_recovery_open: Option<OpenSpan>,
    wake_recovery_open: Option<OpenSpan>,
    // Next due time of the live sampler (`None` = sampling off).
    next_sample: Option<SimTime>,
    // Per-event lineage bookkeeping (`None` unless requested).
    lineage: Option<LineageState>,
}

impl TelState {
    /// Builds a collector for an enabled config; `None` for a disabled
    /// one (the whole telemetry path then disappears behind one branch).
    fn new(config: &TelemetryConfig) -> Option<Box<TelState>> {
        if !config.enabled {
            return None;
        }
        let mut tel = Telemetry::new(*config);
        let m = &mut tel.metrics;
        let events_captured = m.counter("interface.events.captured");
        let divisions = m.counter("interface.clockgen.divisions");
        let wakes = m.counter("interface.clockgen.wakes");
        let shutdowns = m.counter("interface.clockgen.shutdowns");
        let fifo_pushed = m.counter("interface.fifo.pushed");
        let fifo_dropped = m.counter("interface.fifo.dropped");
        let handshakes = m.counter("interface.handshake.completed");
        let i2s_frames = m.counter("interface.i2s.frames");
        let fifo_occupancy = m.gauge("interface.fifo.occupancy");
        // Depth buckets up to the prototype's 2304-event capacity.
        let fifo_depth =
            m.histogram("interface.fifo.depth", vec![1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0]);
        // REQ-to-capture latency; base tick is 66.7 ns, saturation
        // pushes sparse events to milliseconds.
        let capture_latency = m.histogram(
            "interface.handshake.capture_latency_ns",
            vec![100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0],
        );
        let lineage = config.lineage_enabled().then(|| LineageState {
            log: aetr_telemetry::lineage::LineageLog::new(),
            fifo_mirror: VecDeque::new(),
            wake_started: None,
            wake_done: None,
            awaiting_ack: None,
            prev_arrival: SimTime::ZERO,
            // Arrival → wire latency: a drained frame takes ~4.3 µs on
            // the 15 MHz link, watermark batching stretches to ms.
            e2e_latency: m.histogram(
                "interface.lineage.e2e_latency_ns",
                vec![1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9],
            ),
        });
        let next_sample = tel.sample_cadence().map(|c| SimTime::ZERO + c);
        Some(Box::new(TelState {
            tel,
            events_captured,
            divisions,
            wakes,
            shutdowns,
            fifo_pushed,
            fifo_dropped,
            handshakes,
            i2s_frames,
            fifo_occupancy,
            fifo_depth,
            capture_latency,
            clock_since: SimTime::ZERO,
            clock_state: "full-rate",
            clock_arg: Some(1),
            handshake_open: None,
            wake_open: None,
            ack_recovery_open: None,
            wake_recovery_open: None,
            next_sample,
            lineage,
        }))
    }

    /// Closes the current clock-residency interval at `t` and opens a
    /// new one, unless the state is unchanged.
    fn clock_transition(&mut self, t: SimTime, state: &'static str, arg: Option<u64>) {
        if self.clock_state == state && self.clock_arg == arg {
            return;
        }
        self.tel.spans.record(
            SpanKind::ClockState,
            self.clock_state,
            self.clock_since,
            t,
            self.clock_arg,
        );
        self.clock_since = t;
        self.clock_state = state;
        self.clock_arg = arg;
    }

    /// Lineage: attributes one transmitted frame's `pair` events to
    /// their records — FIFO dequeue and I2S window, the frame-slip loss
    /// cause when the receiver dropped the frame, and the end-to-end
    /// latency observation for delivered events. No-op without lineage.
    fn record_transmission(&mut self, pair: u64, start: SimTime, done: SimTime, slipped: bool) {
        let Some(ls) = self.lineage.as_mut() else { return };
        for _ in 0..pair {
            let Some(idx) = ls.fifo_mirror.pop_front() else { break };
            let Some(r) = ls.log.get_mut(idx) else { continue };
            r.set_transmitted(start, done);
            if slipped {
                r.drop_cause = DropCause::FrameSlip;
            } else {
                let e2e_ns = done.saturating_duration_since(r.arrival).as_ns() as f64;
                self.tel.metrics.observe(ls.e2e_latency, e2e_ns);
            }
        }
    }

    /// Records live samples at every due instant strictly before `t`,
    /// against a state that holds until `t`: the divider `multiplier`
    /// (`None` while asleep), `events_total` captures and `fifo_depth`.
    /// No-op unless a sample is due.
    fn emit_samples(
        &mut self,
        t: SimTime,
        power_model: &PowerModel,
        multiplier: Option<u64>,
        events_total: u64,
        fifo_depth: u64,
    ) {
        let mut due = match self.next_sample {
            Some(d) if d < t => d,
            _ => return,
        };
        let power_uw = power_model.instantaneous_power(multiplier).as_microwatts();
        let cadence = self.tel.sample_cadence().expect("sampler is active");
        while due < t {
            self.tel.series.record(
                due,
                events_total,
                power_uw,
                multiplier.unwrap_or(0),
                fifo_depth,
            );
            due += cadence;
        }
        self.next_sample = Some(due);
    }

    /// Finalises the collector: closes the last residency interval at
    /// `end`, folds the health counters into the registry under their
    /// shared `interface.health.*` names, and snapshots.
    fn finish(
        mut self,
        end: SimTime,
        health: &InterfaceHealthReport,
        queue: &EventQueue<Ev>,
    ) -> TelemetrySnapshot {
        self.tel.spans.record(
            SpanKind::ClockState,
            self.clock_state,
            self.clock_since,
            end,
            self.clock_arg,
        );
        for (name, value) in health.metrics() {
            let id = self.tel.metrics.counter(name);
            self.tel.metrics.inc(id, value);
        }
        if let Some(ls) = self.lineage.take() {
            self.tel.lineage = ls.log;
        }
        let sim_events = self.tel.metrics.counter_value(self.events_captured);
        self.tel.into_snapshot(sim_events, queue.ops(), queue.register_pops())
    }
}

/// Internal mutable simulation state.
struct Runner<'a> {
    cfg: &'a InterfaceConfig,
    power_model: &'a PowerModel,
    horizon: SimTime,
    base: SimDuration,

    queue: EventQueue<Ev>,
    sender: HandshakeSender<'a>,
    monitor: InputMonitor,
    fsm: SamplerFsm,
    fifo: AetrFifo,
    crossbar: Crossbar,
    i2s: I2sTransmitter,
    meter: PowerMeter,
    regs: RegisterFile,
    log: HandshakeLog,
    events: Vec<TimestampedEvent>,

    /// Timestamp frozen at shutdown, pending delivery on the wake tick.
    wake_frozen: Option<u64>,
    /// `REQ` rise time of the in-flight request.
    current_request: Option<SimTime>,
    /// Scheduled SPI register writes (indexed by `Ev::SpiWrite`);
    /// borrowed from the caller — the hot path never copies them.
    reconfigs: &'a [(SimTime, crate::config_bus::Register, u32)],
    /// A drain is in progress (frames chained by `FrameDone`).
    draining: bool,
    wake_count: u64,

    /// Tick-chain engine (per-tick reference vs analytic fast-forward).
    engine: SimEngine,

    /// Fault source (inert for an all-zero plan).
    injector: FaultInjector,
    /// Recovery policy.
    watchdog: WatchdogConfig,
    /// Fault/recovery counters.
    health: HealthMonitor,
    /// Sampling time of an event whose `ACK` the sensor missed; the
    /// handshake hangs (`REQ` high, sender in `ReqHigh`) until an
    /// `AckRetry` resolves it.
    pending_ack: Option<SimTime>,
    /// The watchdog gave up on pausable clocking (`N_div` clamped,
    /// clock never sleeps again).
    degraded: bool,
    /// Telemetry collector (`None` when disabled — the no-op sink).
    tel: Option<Box<TelState>>,
}

impl<'a> Runner<'a> {
    fn new(
        iface: &'a AerToI2sInterface,
        spikes: &'a [Spike],
        horizon: SimTime,
        plan: &FaultPlan,
        telemetry: &TelemetryConfig,
        reconfigs: &'a [(SimTime, crate::config_bus::Register, u32)],
    ) -> Runner<'a> {
        let cfg = &iface.config;
        let mut meter = PowerMeter::new(SimTime::ZERO);
        meter.clock_multiplier(SimTime::ZERO, 1);
        Runner {
            cfg,
            power_model: &iface.power_model,
            horizon,
            base: cfg.clock.base_sampling_period(),
            // A handful of events are ever concurrently pending (REQ,
            // frame drains, watchdog retries; the tick sits in the
            // register); pre-size past that so the hot loop never
            // reallocates.
            queue: EventQueue::with_capacity(16),
            sender: HandshakeSender::over(spikes, cfg.handshake),
            monitor: InputMonitor::new(cfg.front_end),
            fsm: SamplerFsm::new(&cfg.clock),
            fifo: AetrFifo::new(cfg.fifo),
            crossbar: Crossbar::prototype().expect("fixed routes cannot conflict"),
            i2s: I2sTransmitter::new(cfg.i2s),
            meter,
            regs: RegisterFile::from_config(&cfg.clock, cfg.fifo.watermark as u32),
            // Every spike yields exactly one captured event and (in a
            // fault-free run) one logged handshake; pre-size both so
            // the hot loop never grows them.
            log: HandshakeLog::with_capacity(spikes.len()),
            events: Vec::with_capacity(spikes.len()),
            wake_frozen: None,
            current_request: None,
            reconfigs,
            draining: false,
            wake_count: 0,
            engine: iface.engine,
            injector: FaultInjector::new(plan),
            watchdog: plan.watchdog,
            health: HealthMonitor::new(),
            pending_ack: None,
            degraded: false,
            tel: {
                let mut tel = TelState::new(telemetry);
                if let Some(ls) = tel.as_deref_mut().and_then(|ts| ts.lineage.as_mut()) {
                    // One record per captured spike, and the mirror never
                    // outgrows the FIFO; reserving both up front avoids
                    // regrowing them on the hot path.
                    ls.log.reserve(spikes.len());
                    ls.fifo_mirror.reserve(cfg.fifo.capacity_events());
                }
                tel
            },
        }
    }

    fn run(mut self) -> InterfaceReport {
        // Prime the pump: the SPI writes, the first clock tick and the
        // first request.
        for (i, &(t, _, _)) in self.reconfigs.iter().enumerate() {
            self.queue.schedule_at(t, Ev::SpiWrite(i)).expect("fresh queue, sorted writes");
        }
        self.schedule_tick(SimTime::ZERO + self.base);
        self.schedule_next_request();

        while let Some((t, ev)) = self.queue.pop() {
            // Emit any live samples due strictly before this event:
            // between events the DES state is constant, so sampling the
            // pre-event state at those instants is exact — and the
            // sampler never touches the queue, keeping enabled runs
            // functionally identical to disabled ones.
            self.sample_until(t);
            match ev {
                Ev::ReqRise => self.on_req_rise(t),
                Ev::Tick => self.on_tick(t),
                Ev::WakeDone => self.on_wake_done(t),
                Ev::FrameDone => self.drain_step(t),
                Ev::SpiWrite(index) => self.on_spi_write(index),
                Ev::AckRetry(attempt) => self.on_ack_retry(t, attempt),
                Ev::WakeCheck(attempt) => self.on_wake_check(t, attempt),
            }
            // Stop ticking past the horizon once all input is
            // consumed. Never-stopping clock policies tick forever, so
            // this is the loop's only exit for them; any events still
            // buffered are drained synchronously below.
            if self.sender.is_done() && t >= self.horizon {
                break;
            }
        }

        // The event loop is over; emit the remaining samples up to and
        // including the horizon against the final state.
        self.sample_until(self.horizon.saturating_add(SimDuration::from_ps(1)));

        // Drain whatever is left in the FIFO so the report reflects the
        // complete stream (the hardware would keep draining too).
        let mut t = self.queue.now().max(self.i2s.busy_until());
        while !self.fifo.is_empty() {
            let start = t;
            let first = self.fifo.pop().expect("checked non-empty");
            let second = self.fifo.pop();
            let pair = 1 + u64::from(second.is_some());
            t = self.i2s.send_pair(t, first, second).expect("sequential drain cannot overlap");
            self.finish_frame(pair, start, t);
        }

        let end = self.horizon.max(self.queue.now()).max(t);
        let activity = self.meter.finish(end);
        let power = self.power_model.evaluate(&activity);
        let health = self.health.report();
        let telemetry = match self.tel.take() {
            Some(ts) => ts.finish(end, &health, &self.queue),
            None => TelemetrySnapshot::empty(),
        };
        InterfaceReport {
            events: self.events,
            handshake: self.log,
            fifo_stats: *self.fifo.stats(),
            i2s: self.i2s.into_stream(),
            activity,
            power,
            wake_count: self.wake_count,
            health,
            telemetry,
        }
    }

    /// Records live samples at every due instant strictly before `t`,
    /// against the *current* FSM state.
    ///
    /// No-op unless telemetry with a sampling cadence is enabled. The
    /// sampled state (event count, instantaneous power, divider level,
    /// FIFO depth) is constant over `(previous event, t)`, so each due
    /// point gets exact values without scheduling anything.
    fn sample_until(&mut self, t: SimTime) {
        let Some(ts) = self.tel.as_deref_mut() else { return };
        let multiplier = if self.fsm.is_asleep() { None } else { Some(self.fsm.multiplier()) };
        let (events_total, fifo_depth) = (self.events.len() as u64, self.fifo.len() as u64);
        ts.emit_samples(t, self.power_model, multiplier, events_total, fifo_depth);
    }

    fn on_spi_write(&mut self, index: usize) {
        let (_, register, value) = self.reconfigs[index];
        if self.regs.write(register, value).is_ok() {
            let new_clock = self.regs.apply_to(&self.cfg.clock);
            // In degraded mode the watchdog's clamp outranks the host:
            // an SPI write cannot resurrect recursive clocking.
            let new_clock = if self.degraded {
                new_clock.degraded_fallback(self.watchdog.degraded_n_div_clamp)
            } else {
                new_clock
            };
            if new_clock.validate().is_ok() {
                // If the FSM is awake, the current tick chain continues
                // with the new parameters from its next edge; if it is
                // asleep, the next wake re-enters at T_min as before.
                self.fsm.reconfigure(&new_clock);
            }
        }
    }

    fn schedule_next_request(&mut self) {
        if let Some(t) = self.sender.next_req_rise() {
            self.queue.schedule_at(t, Ev::ReqRise).expect("handshake times are monotone");
        }
    }

    /// Restarts the ring oscillator, optionally injecting a wake
    /// failure (the `WakeDone` is dropped and a watchdog `WakeCheck`
    /// is armed instead).
    fn schedule_wake(&mut self, t: SimTime) {
        self.meter.wake();
        self.wake_count += 1;
        self.wake_frozen = Some(self.fsm.counter());
        if let Some(ts) = self.tel.as_deref_mut() {
            ts.tel.metrics.inc(ts.wakes, 1);
            ts.wake_open = Some(ts.tel.spans.open(SpanKind::Wake, "wake", t));
            if let Some(ls) = ts.lineage.as_mut() {
                ls.wake_started = Some(t);
                ls.wake_done = None;
            }
        }
        let due = t + self.cfg.clock.ring.wake_latency;
        if self.injector.fail_wake() {
            self.health.wake_failure();
            if let Some(ts) = self.tel.as_deref_mut() {
                ts.wake_recovery_open =
                    Some(ts.tel.spans.open(SpanKind::WatchdogRecovery, "wake-recovery", t));
            }
            self.queue
                .schedule_at(due + self.watchdog.wake_timeout, Ev::WakeCheck(0))
                .expect("wake check is in the future");
        } else {
            self.queue.schedule_at(due, Ev::WakeDone).expect("wake completes in the future");
        }
    }

    fn on_req_rise(&mut self, t: SimTime) {
        // A stuck REQ from the previous handshake (fault) still holds
        // the synchroniser's latch; clear it so the new request can
        // land. Never fires in a fault-free run.
        if self.current_request.is_none() && self.monitor.sampled_address().is_some() {
            self.monitor.req_fall();
        }
        let spike = self.sender.begin(t);
        self.monitor.req_rise(t, spike.addr);
        self.current_request = Some(t);
        if let Some(ts) = self.tel.as_deref_mut() {
            ts.handshake_open = Some(ts.tel.spans.open(SpanKind::Handshake, "4-phase", t));
        }
        if self.fsm.is_asleep() {
            // REQ asynchronously restarts the ring oscillator.
            self.schedule_wake(t);
        }
    }

    fn on_wake_done(&mut self, t: SimTime) {
        self.meter.clock_multiplier(t, 1);
        if let Some(ts) = self.tel.as_deref_mut() {
            ts.clock_transition(t, "full-rate", Some(1));
            if let Some(h) = ts.wake_open.take() {
                ts.tel.spans.close(h, t);
            }
            if let Some(h) = ts.wake_recovery_open.take() {
                ts.tel.spans.close(h, t);
            }
            if let Some(ls) = ts.lineage.as_mut() {
                if let Some(started) = ls.wake_started.take() {
                    // Retries included: the penalty spans the whole
                    // episode, from the wake request to the edge that
                    // finally came up.
                    ls.wake_done = Some((started, t));
                }
            }
        }
        let frozen = self.fsm.wake();
        debug_assert_eq!(Some(frozen), self.wake_frozen);
        // First tick one base period after the oscillator stabilises.
        self.schedule_tick(t + self.base);
    }

    /// `true` when the tick popped at `t` begins a provably quiet
    /// stretch: nothing is in flight on the sensor side (no request
    /// crossing the synchroniser, no latched address, no ACK recovery,
    /// no wake in progress) and no scheduled fault is due — so every
    /// tick until the next queue event is a pure `on_tick(false)` whose
    /// trajectory [`SamplerFsm::advance_idle_each`] computes in closed form.
    fn idle_at(&self, t: SimTime) -> bool {
        self.current_request.is_none()
            && self.monitor.sampled_address().is_none()
            && self.pending_ack.is_none()
            && self.wake_frozen.is_none()
            && self.injector.next_scheduled_at().is_none_or(|due| due > t)
    }

    /// Jumps the quiet tick chain from the popped tick at `t` to the
    /// next interesting instant, replaying the side effects of the
    /// skipped ticks segment-wise as the cursor hands them over.
    ///
    /// The barrier is the earliest of: the next queue event (while
    /// input remains, the pending `ReqRise` bounds it), the next
    /// scheduled fault, and — once the input is exhausted — the
    /// horizon, so the final at-or-past-horizon tick still pops and is
    /// processed by the normal path exactly as per-tick stepping would.
    /// During `(t, barrier)` the per-tick engine could pop nothing but
    /// this chain's own ticks, and quiet ticks schedule nothing but
    /// their successor (a shutdown with no latched request schedules no
    /// wake), so batching them cannot reorder anything: the resumed
    /// tick goes to the register now, which stamps it with a later
    /// sequence number than everything already queued — the same
    /// tie-break per-tick stepping produces at a shared instant.
    fn fast_forward(&mut self, t: SimTime) {
        let mut barrier = self.queue.peek_time().unwrap_or(SimTime::MAX);
        if let Some(due) = self.injector.next_scheduled_at() {
            barrier = barrier.min(due);
        }
        if self.sender.is_done() {
            barrier = barrier.min(self.horizon);
        }
        // Captures and FIFO depth are constant over a quiet stretch.
        let (events_total, fifo_depth) = (self.events.len() as u64, self.fifo.len() as u64);
        let (meter, queue, power_model) = (&mut self.meter, &mut self.queue, self.power_model);
        let mut tel = self.tel.as_deref_mut();
        let next_tick = self.fsm.advance_idle_each(t, barrier, |seg| {
            // Only boundary ticks act; samples due past the last tick
            // of a plain run are emitted by the next event's
            // `sample_until`, against the multiplier the FSM still has.
            let divided = match seg.boundary {
                IdleBoundary::None => return,
                IdleBoundary::Divided { multiplier } => {
                    meter.clock_multiplier(seg.last_tick, multiplier);
                    Some(multiplier)
                }
                IdleBoundary::ShutDown => {
                    meter.clock_off(seg.last_tick);
                    // Per-tick stepping would have popped this shutdown
                    // tick, leaving the clock there; the end-of-run
                    // bookkeeping (FIFO drain start, power horizon)
                    // reads it.
                    queue.advance_to(seg.last_tick);
                    None
                }
            };
            if let Some(ts) = &mut tel {
                let at = seg.last_tick;
                ts.emit_samples(at, power_model, Some(seg.multiplier), events_total, fifo_depth);
                match divided {
                    Some(m) => {
                        ts.tel.metrics.inc(ts.divisions, 1);
                        ts.clock_transition(at, "divided", Some(m));
                    }
                    None => {
                        ts.tel.metrics.inc(ts.shutdowns, 1);
                        ts.clock_transition(at, "sleep", None);
                    }
                }
            }
        });
        if let Some(next) = next_tick {
            self.schedule_tick(next);
        }
    }

    fn on_tick(&mut self, t: SimTime) {
        if self.fsm.is_asleep() {
            // Stale tick scheduled before a shutdown raced in; ignore.
            return;
        }
        if self.engine == SimEngine::EventProportional && self.idle_at(t) {
            self.fast_forward(t);
            return;
        }
        if let Some(kind) = self.injector.due_scheduled(t) {
            match kind {
                FaultKind::StuckOscillator => {
                    self.health.oscillator_stall();
                    self.fsm.force_shutdown();
                    self.clock_stopped(t);
                    return;
                }
            }
        }
        let pending = if self.pending_ack.is_some() {
            // REQ is held high awaiting a re-driven ACK; the latched
            // address belongs to the already-sampled event, not a new
            // request.
            false
        } else if self.wake_frozen.is_some() {
            true // the wake tick samples unconditionally (REQ woke us)
        } else {
            self.monitor.on_tick(t)
        };
        // Divider state *before* the tick: the `Sampled` arm resets
        // level and period, but the captured event ran under — and its
        // lineage is attributed to — the pre-capture values.
        let ctx = self.fsm.capture_context();
        match self.fsm.on_tick(pending) {
            FsmAction::Sampled { timestamp_ticks } => {
                let frozen = self.wake_frozen.take();
                let woke = frozen.is_some();
                let ticks = frozen.unwrap_or(timestamp_ticks);
                self.meter.clock_multiplier(t, 1); // reset to T_min
                if let Some(ts) = self.tel.as_deref_mut() {
                    ts.clock_transition(t, "full-rate", Some(1));
                }
                self.capture_event(t, ticks, woke, ctx);
            }
            FsmAction::Divided { multiplier } => {
                self.meter.clock_multiplier(t, multiplier);
                if let Some(ts) = self.tel.as_deref_mut() {
                    ts.tel.metrics.inc(ts.divisions, 1);
                    ts.clock_transition(t, "divided", Some(multiplier));
                }
            }
            FsmAction::ShutDown => {
                self.clock_stopped(t);
                return; // no further ticks until the wake
            }
            FsmAction::Ticked => {}
        }
        self.schedule_tick(t + self.fsm.current_period());
    }

    /// Schedules the next sampling-clock edge. It goes to the queue's
    /// register: the tick chain keeps at most one edge pending.
    fn schedule_tick(&mut self, at: SimTime) {
        self.queue.schedule_register_at(at, Ev::Tick).expect("the tick chain runs forwards");
    }

    /// The clock stopped at `t` (shutdown or stall). If REQ is already
    /// high (a request still crossing the synchroniser), it holds the
    /// ring oscillator's wake input: the clock restarts immediately and
    /// the event gets the frozen (saturated) timestamp — unless an
    /// unresolved ACK keeps REQ high, in which case the next fresh
    /// request restarts the clock.
    fn clock_stopped(&mut self, t: SimTime) {
        self.meter.clock_off(t);
        if let Some(ts) = self.tel.as_deref_mut() {
            ts.tel.metrics.inc(ts.shutdowns, 1);
            ts.clock_transition(t, "sleep", None);
        }
        if self.monitor.sampled_address().is_some() && self.pending_ack.is_none() {
            self.schedule_wake(t);
        }
    }

    fn capture_event(&mut self, t: SimTime, ticks: u64, woke: bool, ctx: CaptureContext) {
        let Some(addr) = self.monitor.sampled_address() else {
            // A glitch made the synchroniser fire with nothing latched
            // (possible only under injected faults); nothing to capture.
            self.health.spurious_sample();
            return;
        };
        let event = AetrEvent::new(addr, Timestamp::from_ticks(ticks));
        let request = match self.current_request.take() {
            Some(r) => r,
            None => {
                // Latched address without an in-flight request: a stuck
                // REQ re-sampled after its handshake completed. Discard
                // the duplicate and clear the latch.
                self.health.spurious_sample();
                self.monitor.req_fall();
                return;
            }
        };
        self.events.push(TimestampedEvent { request, detection: t, event });
        self.meter.event(1);
        let t_min_ps = self.base.as_ps();
        let counter_max = self.cfg.clock.counter_max();
        // Capture index of this event's lineage record, if one exists.
        let mut lineage_idx = None;
        if let Some(ts) = self.tel.as_deref_mut() {
            ts.tel.metrics.inc(ts.events_captured, 1);
            let latency_ns = t.saturating_duration_since(request).as_ns() as f64;
            ts.tel.metrics.observe(ts.capture_latency, latency_ns);
            if let Some(ls) = ts.lineage.as_mut() {
                let index = ls.log.len() as u32;
                let wake_penalty = match (woke, ls.wake_done.take()) {
                    (true, Some((started, done))) => done.saturating_duration_since(started),
                    _ => SimDuration::ZERO,
                };
                // Signed quantization error of the measured interval,
                // in fractional T_min ticks. The picosecond terms are
                // exact in i128; their difference fits i64 comfortably
                // (simulated horizons are far below 2^63 ps), and the
                // i64 → f64 cast is a single instruction where the
                // i128 → f64 one is a libcall — this is the hot path.
                let measured_ps = ticks as i128 * t_min_ps as i128;
                let true_ps = request.as_ps() as i128 - ls.prev_arrival.as_ps() as i128;
                let quantization_error_ticks =
                    (measured_ps - true_ps) as i64 as f64 / t_min_ps as f64;
                ls.prev_arrival = request;
                ls.log.push(EventLineage::captured(Capture {
                    index,
                    address: addr.value(),
                    arrival: request,
                    detection: t,
                    timestamp_ticks: ticks,
                    // Frozen-at-shutdown or clamped counters mark the
                    // interval as "longer than measurable", not a
                    // measurement.
                    saturated: woke || ticks >= counter_max,
                    division_level: ctx.division_level,
                    multiplier: ctx.multiplier,
                    sampling_period: ctx.sampling_period,
                    woke,
                    wake_penalty,
                    quantization_error_ticks,
                }));
                ls.awaiting_ack = Some(index);
                lineage_idx = Some(index);
            }
        }

        // Route through the crossbar into the FIFO. An injected bit
        // flip corrupts the stored word only — the captured event above
        // keeps the true value, so campaigns can measure the damage.
        let mut word = event.to_word();
        if let Some(bit) = self.injector.flip_fifo_bit() {
            self.health.fifo_bit_flip();
            word ^= 1 << bit;
        }
        if self.crossbar.route(SourcePort::FrontEnd, word) == Some(SinkPort::BufferIn) {
            let stored = AetrEvent::from_word(word);
            let outcome = self.fifo.push(stored);
            if outcome.lost_an_event() {
                self.health.fifo_drop(self.degraded);
            }
            let degraded = self.degraded;
            if let Some(ts) = self.tel.as_deref_mut() {
                // Mirror `FifoStats` semantics exactly: `pushed` counts
                // stored events, `dropped` counts losses of either
                // overflow flavour.
                if outcome.incoming_stored() {
                    ts.tel.metrics.inc(ts.fifo_pushed, 1);
                }
                if outcome.lost_an_event() {
                    ts.tel.metrics.inc(ts.fifo_dropped, 1);
                }
                let depth = self.fifo.len() as f64;
                ts.tel.metrics.set_gauge(ts.fifo_occupancy, depth);
                ts.tel.metrics.observe(ts.fifo_depth, depth);
                if let (Some(ls), Some(idx)) = (ts.lineage.as_mut(), lineage_idx) {
                    match outcome {
                        PushOutcome::Stored => {
                            ls.fifo_mirror.push_back(idx);
                            if let Some(r) = ls.log.get_mut(idx) {
                                r.set_fifo_enqueue(t);
                            }
                        }
                        PushOutcome::DroppedNewest => {
                            if let Some(r) = ls.log.get_mut(idx) {
                                r.drop_cause = if degraded {
                                    DropCause::Degraded
                                } else {
                                    DropCause::Overflow
                                };
                            }
                        }
                        PushOutcome::DroppedOldest => {
                            // The incoming event is stored; the oldest
                            // buffered one was displaced to make room.
                            if let Some(victim) = ls.fifo_mirror.pop_front() {
                                if let Some(r) = ls.log.get_mut(victim) {
                                    r.drop_cause = DropCause::Displaced;
                                    r.set_fifo_dequeue(t);
                                }
                            }
                            ls.fifo_mirror.push_back(idx);
                            if let Some(r) = ls.log.get_mut(idx) {
                                r.set_fifo_enqueue(t);
                            }
                        }
                    }
                }
            }
        } else if let Some(ts) = self.tel.as_deref_mut() {
            // The crossbar refused the route: the event never reached
            // the buffer.
            if let (Some(ls), Some(idx)) = (ts.lineage.as_mut(), lineage_idx) {
                if let Some(r) = ls.log.get_mut(idx) {
                    r.drop_cause = DropCause::NotRouted;
                }
            }
        }
        self.regs.set_status(self.fifo.len() as u32);
        self.regs.set_event_count(self.events.len() as u32);

        // Complete the 4-phase handshake: ACK rises with the sampling
        // edge (one reference period of response delay) — unless the
        // sensor misses the ACK edge, in which case the watchdog takes
        // over and re-drives it after a timeout.
        let ref_period = self.cfg.clock.reference_period();
        if self.injector.lose_ack() {
            self.health.lost_ack();
            self.pending_ack = Some(t);
            if let Some(ts) = self.tel.as_deref_mut() {
                ts.ack_recovery_open =
                    Some(ts.tel.spans.open(SpanKind::WatchdogRecovery, "ack-recovery", t));
            }
            self.queue
                .schedule_at(t + self.watchdog.ack_timeout, Ev::AckRetry(0))
                .expect("ack retry is in the future");
        } else {
            self.complete_handshake(t + ref_period);
        }

        // Watermark batching: start a drain once the threshold is hit.
        if self.fifo.at_watermark() && !self.draining {
            self.draining = true;
            let start = t.max(self.i2s.busy_until());
            self.queue.schedule_at(start, Ev::FrameDone).expect("drain start is not in the past");
        }
    }

    /// Finishes the 4-phase transaction with `ACK` rising at
    /// `ack_rise`, applying protocol fault injection (malformed edge
    /// ordering, stuck `REQ`) on the way out.
    fn complete_handshake(&mut self, ack_rise: SimTime) {
        let ref_period = self.cfg.clock.reference_period();
        let req_fall = self.sender.ack_rise(ack_rise);
        let ack_fall = req_fall + ref_period;
        let mut txn = self.sender.ack_fall(ack_rise, req_fall, ack_fall);
        if self.injector.malform() {
            // The sensor drives its edges out of order; the logged
            // transaction violates the 4-phase contract and
            // `verify_protocol` will flag it.
            self.health.malformed();
            std::mem::swap(&mut txn.ack_rise, &mut txn.req_fall);
        }
        self.log.push(txn);
        if let Some(ts) = self.tel.as_deref_mut() {
            ts.tel.metrics.inc(ts.handshakes, 1);
            if let Some(h) = ts.handshake_open.take() {
                ts.tel.spans.close(h, ack_fall);
            }
            if let Some(ls) = ts.lineage.as_mut() {
                // The record keeps the instant ACK actually rose, even
                // when a malform fault scrambles the *logged* edges.
                if let Some(idx) = ls.awaiting_ack.take() {
                    if let Some(r) = ls.log.get_mut(idx) {
                        r.set_ack_rise(ack_rise);
                    }
                }
            }
        }
        if self.injector.stick_req() {
            // REQ fails to fall: the synchroniser latch stays set and
            // the next tick would re-sample a phantom copy.
            self.health.stuck_request();
        } else {
            self.monitor.req_fall();
        }
        self.schedule_next_request();
    }

    /// Watchdog: the `ACK` the sensor should have seen never arrived
    /// (`REQ` still high). Re-drive it, with bounded exponential
    /// backoff; after `max_ack_retries` the channel is aborted.
    fn on_ack_retry(&mut self, t: SimTime, attempt: u32) {
        if self.pending_ack.is_none() {
            return; // stale retry; the handshake already resolved
        }
        self.health.ack_retry();
        if let Some(ts) = self.tel.as_deref_mut() {
            if let Some(ls) = ts.lineage.as_mut() {
                if let Some(idx) = ls.awaiting_ack {
                    if let Some(r) = ls.log.get_mut(idx) {
                        r.ack_retries += 1;
                    }
                }
            }
        }
        if self.injector.lose_ack() {
            self.health.lost_ack();
            if attempt + 1 >= self.watchdog.max_ack_retries {
                // Give up: abort the transaction, drop the latch and
                // move on. The event was already captured; only the
                // handshake record is lost.
                self.health.handshake_aborted();
                self.pending_ack = None;
                if let Some(ts) = self.tel.as_deref_mut() {
                    if let Some(h) = ts.ack_recovery_open.take() {
                        ts.tel.spans.close_with(h, t, Some(u64::from(attempt + 1)));
                    }
                    if let Some(h) = ts.handshake_open.take() {
                        // The handshake never completed; the span ends
                        // at the abort.
                        ts.tel.spans.close(h, t);
                    }
                    if let Some(ls) = ts.lineage.as_mut() {
                        // ACK never rose for this event; its record
                        // keeps `ack_rise()` = None as the abort marker.
                        ls.awaiting_ack = None;
                    }
                }
                self.sender.abort(t);
                self.monitor.req_fall();
                self.schedule_next_request();
            } else {
                self.queue
                    .schedule_at(
                        t + self.watchdog.ack_backoff(attempt + 1),
                        Ev::AckRetry(attempt + 1),
                    )
                    .expect("ack retry is in the future");
            }
        } else {
            self.health.ack_recovered();
            self.pending_ack = None;
            if let Some(ts) = self.tel.as_deref_mut() {
                if let Some(h) = ts.ack_recovery_open.take() {
                    ts.tel.spans.close_with(h, t, Some(u64::from(attempt + 1)));
                }
            }
            self.complete_handshake(t);
        }
    }

    /// Watchdog: a wake that should have completed did not. Retry; if
    /// the oscillator stays dead, force it awake and fall back to
    /// degraded (never-sleeping) clocking.
    fn on_wake_check(&mut self, t: SimTime, attempt: u32) {
        if !self.fsm.is_asleep() {
            return; // stale check; something else woke the clock
        }
        self.health.wake_retry();
        if attempt >= self.watchdog.max_wake_retries {
            self.health.forced_wake();
            self.enter_degraded();
            self.on_wake_done(t);
        } else if self.injector.fail_wake() {
            self.health.wake_failure();
            self.queue
                .schedule_at(t + self.watchdog.wake_timeout, Ev::WakeCheck(attempt + 1))
                .expect("wake check is in the future");
        } else {
            self.on_wake_done(t);
        }
    }

    /// Clamps `N_div` and pins the clock on: latency stays bounded at
    /// the cost of the paper's energy proportionality.
    fn enter_degraded(&mut self) {
        if self.degraded {
            return;
        }
        self.degraded = true;
        self.health.entered_degraded();
        // From here on, losses at a full buffer are the watchdog
        // fallback's fault, not ordinary congestion.
        self.fifo.set_degraded(true);
        self.fsm.reconfigure(&self.cfg.clock.degraded_fallback(self.watchdog.degraded_n_div_clamp));
    }

    /// Records the `pair`-event I2S frame sent over `[start, done]`,
    /// after applying an injected receiver-side frame slip to it (the
    /// lineage layer then marks its events lost instead of delivered).
    fn finish_frame(&mut self, pair: u64, start: SimTime, done: SimTime) {
        let mut slipped = false;
        if self.injector.slip_frame() {
            if let Some(frame) = self.i2s.drop_last_frame() {
                self.health.frame_slip(frame.events().count() as u64);
                slipped = true;
            }
        }
        if let Some(ts) = self.tel.as_deref_mut() {
            ts.tel.metrics.inc(ts.i2s_frames, 1);
            ts.tel.spans.record(SpanKind::I2sFrame, "frame", start, done, Some(pair));
            ts.tel.metrics.set_gauge(ts.fifo_occupancy, self.fifo.len() as f64);
            ts.record_transmission(pair, start, done, slipped);
        }
    }

    fn drain_step(&mut self, t: SimTime) {
        if self.fifo.is_empty() {
            self.draining = false;
            return;
        }
        let start = t.max(self.i2s.busy_until());
        let first = self.fifo.pop().expect("checked non-empty");
        self.crossbar.route(SourcePort::BufferOut, first.to_word());
        let second = self.fifo.pop();
        if let Some(s) = second {
            self.crossbar.route(SourcePort::BufferOut, s.to_word());
        }
        let done = self.i2s.send_pair(start, first, second).expect("drain respects busy_until");
        self.finish_frame(1 + u64::from(second.is_some()), start, done);
        self.regs.set_status(self.fifo.len() as u32);
        self.queue.schedule_at(done, Ev::FrameDone).expect("frame completes in the future");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aetr_aer::generator::{LfsrGenerator, PoissonGenerator, RegularGenerator, SpikeSource};
    use aetr_clockgen::config::DivisionPolicy;
    use aetr_power::units::Power;

    use crate::quantizer::quantize_train;

    fn prototype() -> AerToI2sInterface {
        AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap()
    }

    #[test]
    fn processes_every_spike_exactly_once() {
        let train = PoissonGenerator::new(50_000.0, 64, 1).generate(SimTime::from_ms(10));
        let n = train.len();
        let report = prototype().run(&train, SimTime::from_ms(10));
        assert_eq!(report.events.len(), n);
        assert_eq!(report.handshake.len(), n);
        assert_eq!(report.i2s.event_count(), n, "every event reaches the I2S stream");
        report.handshake.verify_protocol().unwrap();
    }

    #[test]
    fn handshake_meets_caviar_at_moderate_rates() {
        let train = RegularGenerator::from_rate(100_000.0, 16).generate(SimTime::from_ms(5));
        let report = prototype().run(&train, SimTime::from_ms(5));
        report.handshake.verify_caviar().unwrap();
    }

    #[test]
    fn timestamps_match_behavioral_engine_with_ideal_front_end() {
        let cfg =
            InterfaceConfig { front_end: FrontEndConfig::ideal(), ..InterfaceConfig::prototype() };
        let train = PoissonGenerator::new(80_000.0, 32, 9).generate(SimTime::from_ms(20));
        let des = AerToI2sInterface::new(cfg).unwrap().run(&train, SimTime::from_ms(20));
        let behav = quantize_train(&cfg.clock, &train, SimTime::from_ms(20));

        assert_eq!(des.events.len(), behav.records.len());
        let mut mismatches = 0;
        for (d, b) in des.events.iter().zip(&behav.records) {
            assert_eq!(d.event.addr, b.event.addr);
            let dt = d.event.timestamp.ticks() as i64;
            let bt = b.event.timestamp.ticks() as i64;
            // Handshake-induced REQ timing differences shift detection
            // by at most a couple of ticks either way.
            if (dt - bt).abs() > 2 {
                mismatches += 1;
            }
        }
        assert!(
            (mismatches as f64 / des.events.len() as f64) < 0.02,
            "too many timestamp mismatches: {mismatches}/{}",
            des.events.len()
        );
    }

    #[test]
    fn idle_interface_power_approaches_static_floor() {
        let report = prototype().run(&SpikeTrain::new(), SimTime::from_ms(100));
        // The clock runs for ~64 µs then sleeps for the rest.
        let uw = report.power.total.as_microwatts();
        assert!(uw < 60.0, "idle power {uw} µW");
        assert!(report.power.total >= Power::from_microwatts(50.0));
    }

    #[test]
    fn sparse_events_wake_the_clock() {
        let train =
            RegularGenerator::new(SimDuration::from_ms(10), 4).generate(SimTime::from_ms(95));
        let n = train.len();
        let report = prototype().run(&train, SimTime::from_ms(100));
        assert_eq!(report.wake_count, n as u64, "every sparse event wakes the oscillator");
        // All timestamps saturated at the counter's natural maximum.
        for e in &report.events {
            assert_eq!(e.event.timestamp.ticks(), 960);
        }
    }

    #[test]
    fn no_division_policy_never_sleeps_and_burns_power() {
        let cfg = InterfaceConfig {
            clock: ClockGenConfig::prototype().with_policy(DivisionPolicy::Never),
            ..InterfaceConfig::prototype()
        };
        let report =
            AerToI2sInterface::new(cfg).unwrap().run(&SpikeTrain::new(), SimTime::from_ms(2));
        assert_eq!(report.wake_count, 0);
        assert_eq!(report.activity.off, SimDuration::ZERO);
        assert!(report.power.total.as_milliwatts() > 4.0, "naive power {}", report.power.total);
    }

    #[test]
    fn fifo_watermark_triggers_batched_i2s() {
        let cfg = InterfaceConfig {
            fifo: FifoConfig { capacity_bytes: 256, watermark: 16, ..FifoConfig::prototype() },
            ..InterfaceConfig::prototype()
        };
        let train = RegularGenerator::from_rate(200_000.0, 8).generate(SimTime::from_ms(2));
        let report = AerToI2sInterface::new(cfg).unwrap().run(&train, SimTime::from_ms(2));
        assert!(report.fifo_stats.watermark_crossings >= 1);
        assert_eq!(report.fifo_stats.dropped, 0);
        assert_eq!(
            report.i2s.event_count() as u64,
            report.fifo_stats.popped,
            "everything drained went out on I2S"
        );
    }

    #[test]
    fn power_matches_behavioral_model_within_tolerance() {
        let cfg =
            InterfaceConfig { front_end: FrontEndConfig::ideal(), ..InterfaceConfig::prototype() };
        let train = LfsrGenerator::new(50_000.0, 0xFEED).generate(SimTime::from_ms(50));
        let des = AerToI2sInterface::new(cfg).unwrap().run(&train, SimTime::from_ms(50));
        let behav = quantize_train(&cfg.clock, &train, SimTime::from_ms(50));
        let model = PowerModel::igloo_nano();
        let p_des = des.power.total.as_microwatts();
        let p_behav = model.evaluate(&behav.activity).total.as_microwatts();
        let rel = (p_des - p_behav).abs() / p_behav;
        assert!(rel < 0.1, "DES {p_des} µW vs behavioral {p_behav} µW");
    }

    #[test]
    fn runtime_spi_write_changes_division_behaviour() {
        use crate::config_bus::Register;
        // A sparse stream: with θ=64/N=3 every 1 ms gap saturates at
        // 960 ticks; after the host writes N_div=6 mid-run, the range
        // grows to 64·127 = 8128 ticks and 1 ms (15008 ticks) still
        // saturates, so use a 300 µs gap: 4507 ticks, measurable only
        // after the write.
        let gap = SimDuration::from_us(300);
        let train: SpikeTrain = (1..=20u64)
            .map(|i| {
                aetr_aer::spike::Spike::new(
                    SimTime::ZERO + gap * i,
                    aetr_aer::address::Address::new(1).unwrap(),
                )
            })
            .collect();
        let interface = AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap();
        let writes = [(SimTime::from_ms(3), Register::NDiv, 6u32)];
        let report = interface.run_with_reconfig(&train, SimTime::from_ms(7), &writes);
        assert_eq!(report.events.len(), 20);
        let before: Vec<u32> =
            report.events[..8].iter().map(|e| e.event.timestamp.ticks()).collect();
        let after: Vec<u32> =
            report.events[12..].iter().map(|e| e.event.timestamp.ticks()).collect();
        assert!(
            before.iter().all(|&t| t == 960),
            "before the write every gap saturates at 960: {before:?}"
        );
        assert!(
            after.iter().all(|&t| t > 960 && t < 8_128),
            "after the write the 300 us gap is measurable: {after:?}"
        );
    }

    #[test]
    fn rejected_runtime_write_changes_nothing() {
        use crate::config_bus::Register;
        let train = RegularGenerator::from_rate(50_000.0, 4).generate(SimTime::from_ms(2));
        let interface = AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap();
        let plain = interface.run(&train, SimTime::from_ms(2));
        let writes = [(SimTime::from_ms(1), Register::ThetaDiv, 1u32)]; // invalid value
        let reconfigured = interface.run_with_reconfig(&train, SimTime::from_ms(2), &writes);
        assert_eq!(plain.events, reconfigured.events);
    }

    /// Runs `train` through both engines — fault plan and live sampler
    /// armed — and asserts the reports are bit-identical (the
    /// wall-clock profile, excluded from `TelemetrySnapshot` equality,
    /// is the only thing allowed to differ). Returns both profiles'
    /// sampling-clock edge counts `(fast_forward, per_tick)`.
    fn engines_agree(
        cfg: InterfaceConfig,
        train: &SpikeTrain,
        horizon: SimTime,
        plan: &aetr_faults::FaultPlan,
    ) -> (u64, u64) {
        // Lineage on: snapshot equality then also pins per-event
        // records across the engines.
        let tel = TelemetryConfig {
            enabled: true,
            sample_cadence: Some(SimDuration::from_us(50)),
            lineage: true,
        };
        let fast = AerToI2sInterface::new(cfg)
            .unwrap()
            .with_engine(SimEngine::EventProportional)
            .run_with_telemetry(train, horizon, plan, &tel);
        let reference = AerToI2sInterface::new(cfg)
            .unwrap()
            .with_engine(SimEngine::PerTickReference)
            .run_with_telemetry(train, horizon, plan, &tel);
        assert_eq!(fast, reference);
        let edges = |r: &InterfaceReport| r.telemetry.profile.as_ref().map_or(0, |p| p.clock_edges);
        (edges(&fast), edges(&reference))
    }

    #[test]
    fn fast_forward_is_bit_identical_and_event_proportional_on_sparse_input() {
        let train =
            RegularGenerator::new(SimDuration::from_ms(10), 4).generate(SimTime::from_ms(95));
        let (fast_edges, ref_edges) = engines_agree(
            InterfaceConfig::prototype(),
            &train,
            SimTime::from_ms(100),
            &aetr_faults::FaultPlan::nominal(0),
        );
        assert!(
            fast_edges * 10 < ref_edges,
            "idle-heavy run should pop >10x fewer clock edges: {fast_edges} vs {ref_edges}"
        );
    }

    #[test]
    fn fast_forward_is_bit_identical_on_dense_input() {
        let train = PoissonGenerator::new(400_000.0, 64, 5).generate(SimTime::from_ms(5));
        engines_agree(
            InterfaceConfig::prototype(),
            &train,
            SimTime::from_ms(5),
            &aetr_faults::FaultPlan::nominal(0),
        );
    }

    #[test]
    fn fast_forward_is_bit_identical_under_never_stopping_policies() {
        for policy in [DivisionPolicy::Never, DivisionPolicy::DivideOnly, DivisionPolicy::Linear] {
            let cfg = InterfaceConfig {
                clock: ClockGenConfig::prototype().with_policy(policy),
                ..InterfaceConfig::prototype()
            };
            let train = PoissonGenerator::new(5_000.0, 16, 11).generate(SimTime::from_ms(4));
            engines_agree(cfg, &train, SimTime::from_ms(4), &aetr_faults::FaultPlan::nominal(0));
        }
    }

    #[test]
    fn fast_forward_is_bit_identical_with_scheduled_and_stochastic_faults() {
        // A stuck-oscillator fault lands mid-idle (the fast-forward
        // barrier must stop there), and protocol-rate faults perturb
        // the surrounding handshakes identically in both engines.
        let plan = aetr_faults::FaultPlan::nominal(42)
            .with_rates(aetr_faults::FaultRates::protocol(0.05))
            .schedule(SimTime::from_ms(3), FaultKind::StuckOscillator);
        let train = RegularGenerator::new(SimDuration::from_ms(1), 8).generate(SimTime::from_ms(9));
        engines_agree(InterfaceConfig::prototype(), &train, SimTime::from_ms(10), &plan);
    }

    #[test]
    fn fast_forward_is_bit_identical_on_empty_and_reconfigured_runs() {
        engines_agree(
            InterfaceConfig::prototype(),
            &SpikeTrain::new(),
            SimTime::from_ms(50),
            &aetr_faults::FaultPlan::nominal(0),
        );
        // Mid-idle SPI write: the tick chain must resume with the new
        // division parameters at exactly the per-tick instant.
        use crate::config_bus::Register;
        let gap = SimDuration::from_us(300);
        let train: SpikeTrain = (1..=10u64)
            .map(|i| {
                aetr_aer::spike::Spike::new(
                    SimTime::ZERO + gap * i,
                    aetr_aer::address::Address::new(2).unwrap(),
                )
            })
            .collect();
        let writes = [(SimTime::from_ms(1) + SimDuration::from_us(37), Register::NDiv, 6u32)];
        let iface = |engine| {
            AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap().with_engine(engine)
        };
        let fast = iface(SimEngine::EventProportional).run_with_reconfig(
            &train,
            SimTime::from_ms(4),
            &writes,
        );
        let reference = iface(SimEngine::PerTickReference).run_with_reconfig(
            &train,
            SimTime::from_ms(4),
            &writes,
        );
        assert_eq!(fast, reference);
    }

    #[test]
    fn invalid_config_rejected() {
        let bad = InterfaceConfig {
            clock: ClockGenConfig { theta_div: 1, ..ClockGenConfig::prototype() },
            ..InterfaceConfig::prototype()
        };
        assert!(matches!(AerToI2sInterface::new(bad), Err(InterfaceConfigError::Clock(_))));
        let bad_fifo = InterfaceConfig {
            fifo: FifoConfig { capacity_bytes: 8, watermark: 100, ..FifoConfig::prototype() },
            ..InterfaceConfig::prototype()
        };
        let err = AerToI2sInterface::new(bad_fifo).unwrap_err();
        assert!(err.to_string().contains("watermark"));
    }
}
