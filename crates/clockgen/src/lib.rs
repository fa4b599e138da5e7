//! # aetr-clockgen — pausable, recursively divided clock generation
//!
//! The paper's key power mechanism: a [ring oscillator](ring) that can
//! be paused by breaking its inverter loop, a [`divider`]
//! cascade producing the 30 MHz reference, and the Fig. 1 sampling
//! [FSM](fsm) that doubles the sampling period every `θ_div` quiet
//! cycles and stops the clock entirely after `N_div` divisions.
//!
//! Two execution models are provided, with property-tested
//! equivalence:
//!
//! * [`fsm::SamplerFsm`] — cycle-accurate, used by the full-interface
//!   DES and the [waveform recorder](schedule) (Fig. 2);
//! * [`engine::SamplingEngine`] over a precomputed
//!   [`segments::SegmentTable`] — O(events), used for the Fig. 6/8
//!   sweeps.
//!
//! # Examples
//!
//! Quantize an inter-event interval with the prototype configuration:
//!
//! ```
//! use aetr_clockgen::config::ClockGenConfig;
//! use aetr_clockgen::engine::SamplingEngine;
//! use aetr_sim::time::SimTime;
//!
//! let config = ClockGenConfig::prototype(); // θ=64, N=3, 30 MHz ref
//! let mut engine = SamplingEngine::new(&config);
//! let event = engine.process(SimTime::from_us(20));
//! let measured = event.measured_interval(engine.base_period());
//! // ~20 µs measured with < 3% error in the active region.
//! let err = (measured.as_secs_f64() - 20e-6).abs() / 20e-6;
//! assert!(err < 0.03);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod divider;
pub mod engine;
pub mod fll;
pub mod fsm;
pub mod jitter;
pub mod pausible;
pub mod ring;
pub mod schedule;
pub mod segments;
pub mod trim;

pub use config::{ClockGenConfig, DivisionPolicy};
pub use engine::{QuantizedEvent, SamplingEngine};
pub use fsm::{IdleAdvance, IdleBoundary, IdleSegment, SamplerFsm};
pub use ring::{RingOscillator, RingOscillatorConfig};
pub use segments::SegmentTable;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use aetr_sim::time::{SimDuration, SimTime};

    use crate::config::{ClockGenConfig, DivisionPolicy};
    use crate::engine::{ActivityReport, QuantizedEvent, SamplingEngine};
    use crate::segments::{QuantizeOutcome, SegmentTable, Tail};

    fn any_policy() -> impl Strategy<Value = DivisionPolicy> {
        prop_oneof![
            Just(DivisionPolicy::Recursive),
            Just(DivisionPolicy::DivideOnly),
            Just(DivisionPolicy::Never),
            Just(DivisionPolicy::Linear),
        ]
    }

    proptest! {
        /// Quantization never under-estimates a running-clock interval:
        /// the detecting tick is at or after the request, and the
        /// counter equals the detection offset exactly.
        #[test]
        fn quantize_is_conservative(
            theta in 2u32..200,
            n_div in 0u32..10,
            policy in any_policy(),
            delta_ps in 1u64..10_000_000_000u64,
        ) {
            let cfg = ClockGenConfig::prototype()
                .with_theta_div(theta)
                .with_n_div(n_div)
                .with_policy(policy);
            let table = SegmentTable::new(&cfg);
            match table.quantize(SimDuration::from_ps(delta_ps)) {
                QuantizeOutcome::Sampled { detection_offset, ticks } => {
                    prop_assert!(detection_offset >= SimDuration::from_ps(delta_ps));
                    prop_assert_eq!(detection_offset / table.base_period(), ticks);
                    prop_assert_eq!(
                        detection_offset.as_ps() % table.base_period().as_ps(), 0,
                        "ticks land on the T_min grid");
                }
                QuantizeOutcome::Asleep { frozen_ticks, off_since } => {
                    prop_assert!(SimDuration::from_ps(delta_ps) > off_since);
                    prop_assert_eq!(Some(frozen_ticks), table.max_counter());
                }
            }
        }

        /// Detection times strictly increase across any request stream
        /// (AER serialisation), and timestamps are never zero.
        #[test]
        fn detections_strictly_increase(
            gaps in proptest::collection::vec(0u64..50_000_000u64, 1..100),
            theta in 2u32..100,
        ) {
            let cfg = ClockGenConfig::prototype().with_theta_div(theta);
            let mut engine = SamplingEngine::new(&cfg);
            let mut t = SimTime::ZERO;
            let mut last_detection = SimTime::ZERO;
            for g in gaps {
                t += SimDuration::from_ps(g);
                let ev = engine.process(t);
                prop_assert!(ev.detection > last_detection);
                prop_assert!(ev.timestamp_ticks >= 1);
                last_detection = ev.detection;
            }
        }

        /// Usage accounting is exact: active + off time equals the
        /// quantized horizon for an idle stretch.
        #[test]
        fn idle_usage_is_exact(
            until_ps in 1u64..100_000_000_000u64,
            theta in 2u32..100,
            n in 0u32..8,
        ) {
            let cfg = ClockGenConfig::prototype().with_theta_div(theta).with_n_div(n);
            let table = SegmentTable::new(&cfg);
            let until = SimDuration::from_ps(until_ps);
            let usage = table.usage_until(until);
            prop_assert_eq!(usage.total(), until);
        }

        /// The detection overshoot is bounded by the slowest segment's
        /// period — the quantization-error envelope behind Fig. 6.
        #[test]
        fn quantization_error_bounded_by_local_period(delta_ps in 100_000u64..500_000_000u64) {
            let cfg = ClockGenConfig::prototype();
            let table = SegmentTable::new(&cfg);
            let delta = SimDuration::from_ps(delta_ps);
            if let QuantizeOutcome::Sampled { detection_offset, .. } = table.quantize(delta) {
                let overshoot = detection_offset - delta;
                let max_step = table.base_period() * (1 << cfg.n_div);
                prop_assert!(overshoot <= max_step);
            }
        }
    }

    /// `ceil(a / b)` the way the reference quantizer computed it.
    fn reference_div_ceil(a: SimDuration, b: SimDuration) -> u64 {
        let q = a / b;
        if b.saturating_mul(q) < a {
            q + 1
        } else {
            q
        }
    }

    /// The quantizer before the one-division form: the detecting tick
    /// computed twice per segment, then divided by `T_min` again.
    fn reference_quantize(table: &SegmentTable, delta: SimDuration) -> QuantizeOutcome {
        let base = table.base_period();
        for seg in table.segments() {
            if delta <= seg.end {
                let detect_in = || {
                    let step = base.saturating_mul(seg.multiplier);
                    let rel =
                        if delta >= seg.start { delta - seg.start } else { SimDuration::ZERO };
                    if rel.is_zero() && !seg.start.is_zero() {
                        return seg.start;
                    }
                    seg.start + step.saturating_mul(reference_div_ceil(rel, step).max(1))
                };
                return QuantizeOutcome::Sampled {
                    detection_offset: detect_in(),
                    ticks: detect_in() / base,
                };
            }
        }
        let start = table.segments().last().map_or(SimDuration::ZERO, |s| s.end);
        match table.tail() {
            Tail::Shutdown => {
                QuantizeOutcome::Asleep { frozen_ticks: start / base, off_since: start }
            }
            Tail::Infinite { multiplier } => {
                let step = base.saturating_mul(multiplier);
                let j = reference_div_ceil(delta - start, step).max(1);
                let offset = start + step.saturating_mul(j);
                QuantizeOutcome::Sampled { detection_offset: offset, ticks: offset / base }
            }
        }
    }

    /// The sampling engine before in-place accumulation: a fresh
    /// `usage_until` record per event, merged into the report.
    struct ReferenceEngine {
        config: ClockGenConfig,
        table: SegmentTable,
        last_detection: SimTime,
        report: ActivityReport,
    }

    impl ReferenceEngine {
        fn new(config: &ClockGenConfig) -> ReferenceEngine {
            ReferenceEngine {
                config: *config,
                table: SegmentTable::new(config),
                last_detection: SimTime::ZERO,
                report: ActivityReport::default(),
            }
        }

        fn process(&mut self, request: SimTime) -> QuantizedEvent {
            let base = self.config.base_sampling_period();
            let wake = self.config.ring.wake_latency + base;
            let counter_max = self.config.counter_max();
            let delta = request.saturating_duration_since(self.last_detection);
            let (event, usage) = match reference_quantize(&self.table, delta) {
                QuantizeOutcome::Sampled { detection_offset, ticks } => {
                    let clamped = ticks.min(counter_max);
                    let event = QuantizedEvent {
                        request,
                        detection: self.last_detection + detection_offset,
                        timestamp_ticks: clamped,
                        saturated: clamped != ticks,
                        woke_clock: false,
                    };
                    (event, self.table.usage_until(detection_offset))
                }
                QuantizeOutcome::Asleep { frozen_ticks, off_since } => {
                    let event = QuantizedEvent {
                        request,
                        detection: request + wake,
                        timestamp_ticks: frozen_ticks.min(counter_max),
                        saturated: true,
                        woke_clock: true,
                    };
                    self.report.wake_count += 1;
                    let mut usage = self.table.usage_until(off_since);
                    usage.off += delta - off_since;
                    usage.add_active(1, wake);
                    (event, usage)
                }
            };
            self.report.usage.merge(&usage);
            self.report.event_count += 1;
            if event.saturated {
                self.report.saturated_count += 1;
            }
            self.last_detection = event.detection;
            event
        }

        fn finish(&mut self, horizon: SimTime) -> &ActivityReport {
            let tail = horizon.saturating_duration_since(self.last_detection);
            if !tail.is_zero() {
                self.report.usage.merge(&self.table.usage_until(tail));
                self.last_detection = horizon;
            }
            &self.report
        }
    }

    /// A delta chosen to hit the quantizer's edge cases: zero, exactly
    /// on (or one picosecond either side of) a segment boundary, an
    /// exact `T_min` multiple, anywhere, or beyond shutdown.
    fn pick_delta(table: &SegmentTable, kind: u8, pick: u64) -> SimDuration {
        let base = table.base_period();
        let last_end = table.segments().last().map_or(base * 100, |s| s.end);
        let span = last_end.as_ps() * 2;
        match kind {
            0 => SimDuration::ZERO,
            1 => {
                let ends: Vec<SimDuration> = table.segments().iter().map(|s| s.end).collect();
                let edge = ends.get(pick as usize % ends.len().max(1)).copied().unwrap_or(last_end);
                SimDuration::from_ps((edge.as_ps() + (pick >> 32) % 3).saturating_sub(1))
            }
            2 => base * (pick % (span / base.as_ps())),
            3 => SimDuration::from_ps(pick % span),
            _ => last_end + SimDuration::from_ps(1 + pick % span),
        }
    }

    fn any_config() -> impl Strategy<Value = ClockGenConfig> {
        (2u32..200, 0u32..21, any_policy(), 4u32..33).prop_map(|(theta, n_div, policy, bits)| {
            ClockGenConfig {
                counter_bits: bits,
                ..ClockGenConfig::prototype()
                    .with_theta_div(theta)
                    .with_n_div(n_div)
                    .with_policy(policy)
            }
        })
    }

    proptest! {
        /// The one-division quantizer returns exactly what the
        /// two-`detect_in` form returned, on every policy and edge case.
        #[test]
        fn quantize_matches_two_division_reference(
            config in any_config(),
            kind in 0u8..5,
            pick in any::<u64>(),
        ) {
            let table = SegmentTable::new(&config);
            let delta = pick_delta(&table, kind, pick);
            prop_assert_eq!(table.quantize(delta), reference_quantize(&table, delta), "delta {}", delta);
        }

        /// The allocation-free engine emits the same events and the
        /// same activity report (usage, wakes, saturations) as a
        /// per-event `usage_until` + `merge` fold, counter-width
        /// clamping included.
        #[test]
        fn engine_matches_per_event_merge_reference(
            config in any_config(),
            steps in proptest::collection::vec((0u8..6, any::<u64>()), 1..60),
            tail_ps in 0u64..10_000_000_000u64,
        ) {
            let mut engine = SamplingEngine::new(&config);
            let mut reference = ReferenceEngine::new(&config);
            let mut request = SimTime::ZERO;
            for (kind, pick) in steps {
                // Kind 5 repeats the previous request time: a request
                // still pending behind the last handshake.
                if kind < 5 {
                    request = reference.last_detection + pick_delta(engine.table(), kind, pick);
                }
                prop_assert_eq!(engine.process(request), reference.process(request));
            }
            let horizon = reference.last_detection + SimDuration::from_ps(tail_ps);
            prop_assert_eq!(engine.finish(horizon), reference.finish(horizon));
        }
    }
}
