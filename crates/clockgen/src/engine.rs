//! Fast behavioral sampling engine.
//!
//! Folds a stream of AER request times over the sampler FSM's
//! closed-form cursor ([`SamplerFsm::advance_idle_each`]), producing
//! per-event quantized timestamps and an exact clock-activity breakdown
//! for the power model — the "Matlab-equivalent" model behind Fig. 6
//! and the workload half of Fig. 8, O(events · `N_div`) rather than
//! O(clock ticks).

use serde::{Deserialize, Serialize};

use aetr_sim::time::{SimDuration, SimTime};

use crate::config::ClockGenConfig;
use crate::fsm::{FsmAction, IdleBoundary, SamplerFsm};

/// One event as seen by the sampling engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantizedEvent {
    /// When the AER request was asserted.
    pub request: SimTime,
    /// When the interface's sampling clock detected it (counter reset
    /// instant for the next measurement).
    pub detection: SimTime,
    /// The timestamp recorded for this event, in `T_min` units, after
    /// counter-width clamping.
    pub timestamp_ticks: u64,
    /// `true` if the timestamp saturated (clock shut down before the
    /// event, or counter width exceeded).
    pub saturated: bool,
    /// `true` if this event had to restart the ring oscillator.
    pub woke_clock: bool,
}

impl QuantizedEvent {
    /// The measured inter-event interval this timestamp encodes.
    pub fn measured_interval(&self, base_period: SimDuration) -> SimDuration {
        base_period.saturating_mul(self.timestamp_ticks)
    }
}

/// Per-interval clock activity breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalUsage {
    /// `(period multiplier, time spent)` pairs, ascending multiplier.
    pub active: Vec<(u64, SimDuration)>,
    /// Time with the clock switched off.
    pub off: SimDuration,
}

impl IntervalUsage {
    /// Adds active time at a multiplier, merging with an existing entry.
    pub fn add_active(&mut self, multiplier: u64, span: SimDuration) {
        if span.is_zero() {
            return;
        }
        match self.active.binary_search_by_key(&multiplier, |&(m, _)| m) {
            Ok(i) => self.active[i].1 += span,
            Err(i) => self.active.insert(i, (multiplier, span)),
        }
    }

    /// Merges another usage record into this one.
    pub fn merge(&mut self, other: &IntervalUsage) {
        for &(m, d) in &other.active {
            self.add_active(m, d);
        }
        self.off += other.off;
    }

    /// Total accounted time (active + off).
    pub fn total(&self) -> SimDuration {
        self.active.iter().map(|&(_, d)| d).sum::<SimDuration>() + self.off
    }
}

/// Aggregate clock activity over a whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityReport {
    /// Per-multiplier active time plus off time.
    pub usage: IntervalUsage,
    /// Number of ring-oscillator restarts.
    pub wake_count: u64,
    /// Number of events processed.
    pub event_count: u64,
    /// Number of saturated timestamps.
    pub saturated_count: u64,
}

impl ActivityReport {
    /// Fraction of events with saturated timestamps.
    pub fn saturation_ratio(&self) -> f64 {
        if self.event_count == 0 {
            0.0
        } else {
            self.saturated_count as f64 / self.event_count as f64
        }
    }
}

/// The behavioral sampling engine.
///
/// # Examples
///
/// ```
/// use aetr_clockgen::config::ClockGenConfig;
/// use aetr_clockgen::engine::SamplingEngine;
/// use aetr_sim::time::SimTime;
///
/// let mut engine = SamplingEngine::new(&ClockGenConfig::prototype());
/// let ev = engine.process(SimTime::from_us(10));
/// assert!(!ev.saturated);
/// assert!(ev.detection >= ev.request);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingEngine {
    /// Reset at every detection, so a cursor walk from the tick after
    /// it is the quiet trajectory since the last event.
    fsm: SamplerFsm,
    base_period: SimDuration,
    wake_latency: SimDuration,
    counter_max: u64,
    last_detection: SimTime,
    report: ActivityReport,
}

impl SamplingEngine {
    /// Creates an engine at time zero (clock just reset, counter zero).
    ///
    /// # Panics
    ///
    /// Panics if `config` does not validate.
    pub fn new(config: &ClockGenConfig) -> SamplingEngine {
        SamplingEngine {
            fsm: SamplerFsm::new(config),
            base_period: config.base_sampling_period(),
            wake_latency: config.ring.wake_latency,
            counter_max: config.counter_max(),
            last_detection: SimTime::ZERO,
            report: ActivityReport::default(),
        }
    }

    /// Processes the next AER request. Requests must be fed in
    /// non-decreasing time order; a request that arrives while the
    /// previous handshake is still pending is detected at the next
    /// available tick (AER serialisation).
    ///
    /// The interval's clock activity is added straight into the running
    /// report, so no per-event record is allocated.
    pub fn process(&mut self, request: SimTime) -> QuantizedEvent {
        let (next_tick, mut ticks, run) = self.walk(request);
        let event = match next_tick {
            Some(detection) => {
                // The detecting tick's own period closes the trailing
                // run at the FSM's current multiplier.
                let m = self.fsm.multiplier();
                ticks += m;
                self.report.usage.add_active(m, self.base_period * ((run + 1) * m));
                let FsmAction::Sampled { timestamp_ticks } = self.fsm.on_tick(true) else {
                    unreachable!("a pending request is always sampled")
                };
                QuantizedEvent {
                    request,
                    detection,
                    timestamp_ticks,
                    saturated: ticks > self.counter_max,
                    woke_clock: false,
                }
            }
            None => {
                // The clock shut down `ticks` base periods after the
                // last detection and stayed off until the request;
                // the wake interval then runs at full speed.
                let shutdown = self.last_detection + self.base_period * ticks;
                let usage = &mut self.report.usage;
                usage.off += request - shutdown;
                usage.add_active(1, self.wake_latency + self.base_period);
                self.report.wake_count += 1;
                // Clock off: REQ restarts the oscillator; first usable
                // tick lands one base period after the wake latency.
                QuantizedEvent {
                    request,
                    detection: request + self.wake_latency + self.base_period,
                    timestamp_ticks: self.fsm.wake(),
                    saturated: true,
                    woke_clock: true,
                }
            }
        };
        self.report.event_count += 1;
        self.report.saturated_count += u64::from(event.saturated);
        self.last_detection = event.detection;
        event
    }

    /// Runs the cursor over the quiet ticks after the last detection
    /// that lie strictly before `barrier`, booking every run that ends
    /// in a division or shutdown as active time. Returns the next tick
    /// (`None` after a shutdown), the unclamped counter advance, and the
    /// ticks of a trailing run still at the FSM's multiplier, for the
    /// caller to book together with what follows it.
    // Forced for the same reason as the cursor's: with plain
    // `#[inline]` the per-event cost rose by ~10%.
    #[inline(always)]
    fn walk(&mut self, barrier: SimTime) -> (Option<SimTime>, u64, u64) {
        let first_tick = self.last_detection + self.base_period;
        if barrier <= first_tick {
            return (Some(first_tick), 0, 0);
        }
        let (mut ticks, mut run) = (0, 0);
        let (base, usage) = (self.base_period, &mut self.report.usage);
        let next_tick = self.fsm.advance_idle_each(first_tick, barrier, |seg| {
            ticks += seg.ticks * seg.multiplier;
            if seg.boundary == IdleBoundary::None {
                run = seg.ticks;
            } else {
                usage.add_active(seg.multiplier, base * (seg.ticks * seg.multiplier));
            }
        });
        (next_tick, ticks, run)
    }

    /// Accounts for the trailing quiet interval up to `horizon` (no
    /// event there; the clock divides and eventually stops on its own).
    ///
    /// Call once at the end of a run so that the activity report covers
    /// exactly `[0, horizon]`.
    pub fn finish(&mut self, horizon: SimTime) -> &ActivityReport {
        if horizon > self.last_detection {
            // `horizon` stands in for a detection, so the FSM goes back
            // to its reset state after the walk.
            let reset = self.fsm.clone();
            let (next_tick, ticks, run) = self.walk(horizon);
            // The partial interval after the last tick before the
            // horizon belongs to the next tick's period, or is off time
            // after a shutdown.
            let partial = horizon - (self.last_detection + self.base_period * ticks);
            let usage = &mut self.report.usage;
            match next_tick {
                Some(_) => {
                    let m = self.fsm.multiplier();
                    usage.add_active(m, self.base_period * (run * m) + partial);
                }
                None => usage.off += partial,
            }
            self.fsm = reset;
            self.last_detection = horizon;
        }
        &self.report
    }

    /// The activity report accumulated so far.
    pub fn report(&self) -> &ActivityReport {
        &self.report
    }

    /// The base sampling period `T_min`.
    pub fn base_period(&self) -> SimDuration {
        self.base_period
    }
}

/// Quantizes a whole request-time sequence in one call, returning the
/// events and the activity over `[0, horizon]`.
///
/// # Panics
///
/// Panics if `requests` is not sorted by non-decreasing time or if the
/// configuration is invalid.
pub fn quantize_requests(
    config: &ClockGenConfig,
    requests: &[SimTime],
    horizon: SimTime,
) -> (Vec<QuantizedEvent>, ActivityReport) {
    assert!(requests.windows(2).all(|w| w[1] >= w[0]), "requests must be time-sorted");
    let mut engine = SamplingEngine::new(config);
    let events = requests.iter().map(|&r| engine.process(r)).collect();
    engine.finish(horizon);
    (events, engine.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DivisionPolicy;

    fn proto() -> ClockGenConfig {
        ClockGenConfig::prototype()
    }

    fn base() -> SimDuration {
        proto().base_sampling_period()
    }

    #[test]
    fn single_fast_event_measures_one_interval() {
        let mut engine = SamplingEngine::new(&proto());
        // Request exactly at 10 base periods: detected there, ts = 10.
        let ev = engine.process(SimTime::ZERO + base() * 10);
        assert_eq!(ev.timestamp_ticks, 10);
        assert!(!ev.saturated);
        assert!(!ev.woke_clock);
        assert_eq!(ev.detection, SimTime::ZERO + base() * 10);
    }

    #[test]
    fn consecutive_events_measure_deltas_not_absolutes() {
        let mut engine = SamplingEngine::new(&proto());
        let first = engine.process(SimTime::ZERO + base() * 10);
        let second = engine.process(first.detection + base() * 7);
        assert_eq!(second.timestamp_ticks, 7, "timestamp is the delta from the previous event");
    }

    #[test]
    fn event_beyond_shutdown_saturates_and_wakes() {
        let cfg = proto();
        let beyond = cfg.max_measurable().unwrap() + SimDuration::from_ms(10);
        let mut engine = SamplingEngine::new(&cfg);
        let ev = engine.process(SimTime::ZERO + beyond);
        assert!(ev.saturated);
        assert!(ev.woke_clock);
        assert_eq!(ev.timestamp_ticks, 64 * 15);
        assert_eq!(ev.detection, ev.request + cfg.ring.wake_latency + base());
        assert_eq!(engine.report().wake_count, 1);
    }

    #[test]
    fn serialized_requests_never_share_a_tick() {
        let mut engine = SamplingEngine::new(&proto());
        // Three requests inside one base period.
        let t = SimTime::from_ns(10);
        let a = engine.process(t);
        let b = engine.process(t + SimDuration::from_ns(1));
        let c = engine.process(t + SimDuration::from_ns(2));
        assert!(b.detection > a.detection);
        assert!(c.detection > b.detection);
        // Each measured as one tick minimum.
        assert_eq!(b.timestamp_ticks, 1);
        assert_eq!(c.timestamp_ticks, 1);
    }

    #[test]
    fn activity_covers_whole_horizon() {
        let cfg = proto();
        let horizon = SimTime::from_ms(50);
        let requests: Vec<SimTime> = (1..=100).map(|i| SimTime::from_us(i * 400)).collect();
        let (_, report) = quantize_requests(&cfg, &requests, horizon);
        let total = report.usage.total();
        // The accounted time equals the horizon, minus only the wake
        // overlap corrections (bounded by wakes · (wake+base)).
        let slack = SimDuration::from_us(1).saturating_mul(report.wake_count + 1);
        let lo = horizon.saturating_duration_since(SimTime::ZERO) - slack;
        let hi = horizon.saturating_duration_since(SimTime::ZERO) + slack;
        assert!(total >= lo && total <= hi, "accounted {total} vs horizon 50 ms");
    }

    #[test]
    fn no_division_policy_never_sleeps() {
        let cfg = proto().with_policy(DivisionPolicy::Never);
        let requests = vec![SimTime::from_ms(1), SimTime::from_secs(1)];
        let (events, report) = quantize_requests(&cfg, &requests, SimTime::from_secs(2));
        assert_eq!(report.wake_count, 0);
        assert!(events.iter().all(|e| !e.woke_clock));
        assert_eq!(report.usage.off, SimDuration::ZERO);
        assert_eq!(report.usage.active.len(), 1);
        assert_eq!(report.usage.active[0].0, 1);
    }

    #[test]
    fn counter_width_clamp_marks_saturated() {
        let cfg = ClockGenConfig {
            counter_bits: 6, // max 63 ticks
            ..proto().with_policy(DivisionPolicy::Never)
        };
        let mut engine = SamplingEngine::new(&cfg);
        let ev = engine.process(SimTime::ZERO + base() * 100);
        assert_eq!(ev.timestamp_ticks, 63);
        assert!(ev.saturated);
    }

    /// The first event after `delta`, from a fresh engine.
    fn first_event(cfg: &ClockGenConfig, delta: SimDuration) -> QuantizedEvent {
        SamplingEngine::new(cfg).process(SimTime::ZERO + delta)
    }

    #[test]
    fn quantize_in_first_segment_rounds_up_to_tick() {
        // delta = 1.5 base periods -> detected at tick 2.
        let ev = first_event(&proto(), base() + base() / 2);
        assert_eq!(ev.detection, SimTime::ZERO + base() * 2);
        assert_eq!(ev.timestamp_ticks, 2);
    }

    #[test]
    fn quantize_zero_delta_takes_first_tick() {
        let ev = first_event(&proto(), SimDuration::ZERO);
        assert_eq!(ev.detection, SimTime::ZERO + base());
        assert_eq!(ev.timestamp_ticks, 1);
    }

    #[test]
    fn quantize_exact_tick_is_exact() {
        let delta = base() * 17;
        let ev = first_event(&proto(), delta);
        assert_eq!(ev.detection, SimTime::ZERO + delta);
        assert_eq!(ev.timestamp_ticks, 17);
    }

    #[test]
    fn quantize_in_divided_segment_has_coarser_grid() {
        // Just past the first division boundary (64 ticks): grid is 2·T.
        let ev = first_event(&proto(), base() * 64 + SimDuration::from_ps(1));
        assert_eq!(ev.detection, SimTime::ZERO + base() * 66);
        assert_eq!(ev.timestamp_ticks, 66);
    }

    #[test]
    fn quantize_on_boundary_belongs_to_boundary_tick() {
        // The first division happens on tick 64; a request exactly
        // there is sampled by that tick.
        let ev = first_event(&proto(), base() * 64);
        assert_eq!(ev.detection, SimTime::ZERO + base() * 64);
        assert_eq!(ev.timestamp_ticks, 64);
        assert!(!ev.saturated);
    }

    #[test]
    fn quantize_past_shutdown_saturates() {
        // A request on the shutdown tick is still sampled; one after
        // it finds the clock off and reads the frozen counter.
        let cfg = proto();
        let shutdown = cfg.max_measurable().unwrap();
        let on = first_event(&cfg, shutdown);
        assert_eq!((on.timestamp_ticks, on.woke_clock), (64 * 15, false));
        let past = first_event(&cfg, shutdown + SimDuration::from_ps(1));
        assert_eq!((past.timestamp_ticks, past.woke_clock), (64 * 15, true));
    }

    #[test]
    fn never_policy_never_saturates() {
        let cfg = proto().with_policy(DivisionPolicy::Never);
        let big = SimDuration::from_ms(100);
        let ev = first_event(&cfg, big);
        assert_eq!(ev.timestamp_ticks, big.as_ps().div_ceil(base().as_ps()));
        assert!(!ev.saturated);
    }

    #[test]
    fn usage_splits_across_segments_and_off() {
        let cfg = proto();
        let until = cfg.max_measurable().unwrap() + SimDuration::from_ms(1);
        let mut engine = SamplingEngine::new(&cfg);
        let usage = &engine.finish(SimTime::ZERO + until).usage;
        assert_eq!(usage.off, SimDuration::from_ms(1));
        assert_eq!(usage.total(), until);
        // Active spans are theta·m·base each.
        let expected: Vec<(u64, SimDuration)> =
            (0..4).map(|i| (1 << i, base() * (64 << i))).collect();
        assert_eq!(usage.active, expected);
    }

    #[test]
    fn usage_partial_first_segment() {
        let until = base() * 10 + base() / 3;
        let mut engine = SamplingEngine::new(&proto());
        let usage = &engine.finish(SimTime::ZERO + until).usage;
        assert_eq!(usage.active, vec![(1, until)]);
        assert_eq!(usage.off, SimDuration::ZERO);
    }

    #[test]
    fn finish_leaves_the_clock_reset_at_the_horizon() {
        // The horizon stands in for a detection: a request after it is
        // measured from there with the undivided clock.
        let mut engine = SamplingEngine::new(&proto());
        let horizon = SimTime::from_ms(1);
        engine.finish(horizon);
        let ev = engine.process(horizon + base() * 3);
        assert_eq!((ev.timestamp_ticks, ev.woke_clock), (3, false));
    }

    #[test]
    fn interval_usage_merge() {
        let mut a = IntervalUsage::default();
        a.add_active(1, SimDuration::from_us(5));
        let mut b = IntervalUsage::default();
        b.add_active(1, SimDuration::from_us(3));
        b.add_active(4, SimDuration::from_us(2));
        b.off = SimDuration::from_us(7);
        a.merge(&b);
        assert_eq!(a.active, vec![(1, SimDuration::from_us(8)), (4, SimDuration::from_us(2))]);
        assert_eq!(a.off, SimDuration::from_us(7));
        assert_eq!(a.total(), SimDuration::from_us(17));
    }

    #[test]
    fn measured_interval_helper() {
        let ev = QuantizedEvent {
            request: SimTime::ZERO,
            detection: SimTime::ZERO,
            timestamp_ticks: 10,
            saturated: false,
            woke_clock: false,
        };
        assert_eq!(ev.measured_interval(SimDuration::from_ns(100)), SimDuration::from_us(1));
    }

    #[test]
    fn relative_error_in_active_region_is_bounded() {
        // Analytic check (the full Fig. 6 sweep lives in the bench
        // crate): for deltas inside segment k the relative quantization
        // error is at most 2^k·T/delta <= 1/θ · 2^k·θ·T/delta < ~2/θ
        // once delta is past the segment's start.
        let cfg = proto(); // θ = 64
        let mut worst: f64 = 0.0;
        for i in 1..2_000u64 {
            let delta = base() * 64 + SimDuration::from_ps(i * 1_234_567 % (base() * 800).as_ps());
            let mut engine = SamplingEngine::new(&cfg);
            let ev = engine.process(SimTime::ZERO + delta);
            if ev.saturated {
                continue;
            }
            let measured = ev.measured_interval(base()).as_secs_f64();
            let truth = delta.as_secs_f64();
            worst = worst.max((measured - truth).abs() / truth);
        }
        assert!(worst < 2.0 / 64.0 + 0.01, "worst active-region error {worst}");
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn unsorted_requests_panic() {
        let _ = quantize_requests(
            &proto(),
            &[SimTime::from_us(5), SimTime::from_us(1)],
            SimTime::from_ms(1),
        );
    }
}
