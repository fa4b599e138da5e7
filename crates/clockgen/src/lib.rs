//! # aetr-clockgen — pausable, recursively divided clock generation
//!
//! The paper's key power mechanism: a [ring oscillator](ring) that can
//! be paused by breaking its inverter loop, a [`divider`]
//! cascade producing the 30 MHz reference, and the Fig. 1 sampling
//! [FSM](fsm) that doubles the sampling period every `θ_div` quiet
//! cycles and stops the clock entirely after `N_div` divisions.
//!
//! The FSM's clock trajectory has one reference and one fast path:
//!
//! * [`SamplerFsm::on_tick`] — one call per sampling-clock edge, the
//!   cycle-accurate reference, used by the per-tick DES engine and the
//!   [waveform recorder](schedule) (Fig. 2);
//! * [`SamplerFsm::advance_idle_each`] — a closed-form cursor that
//!   walks the quiet ticks between requests as constant-multiplier
//!   runs, at most one division per call. The DES fast-forward replays
//!   its runs into the power meter and telemetry, and
//!   [`engine::SamplingEngine`] folds request times over it for the
//!   O(events) Fig. 6/8 sweeps.
//!
//! Property tests pin the cursor and the engine to per-tick stepping.
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
pub mod fsm;
pub mod jitter;
pub mod ring;
pub mod schedule;
pub mod trim;

pub use config::{ClockGenConfig, DivisionPolicy};
pub use engine::{QuantizedEvent, SamplingEngine};
pub use fsm::{IdleBoundary, IdleSegment, SamplerFsm};
pub use ring::{RingOscillator, RingOscillatorConfig};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use aetr_sim::time::{SimDuration, SimTime};

    use crate::config::{ClockGenConfig, DivisionPolicy};
    use crate::engine::{ActivityReport, QuantizedEvent, SamplingEngine};
    use crate::fsm::{FsmAction, SamplerFsm};

    fn any_policy() -> impl Strategy<Value = DivisionPolicy> {
        prop_oneof![
            Just(DivisionPolicy::Recursive),
            Just(DivisionPolicy::DivideOnly),
            Just(DivisionPolicy::Never),
            Just(DivisionPolicy::Linear),
        ]
    }

    /// Case count of the per-tick differential: the proptest default,
    /// raised on the nightly schedule via `AETR_PROPTEST_CASES` (see
    /// `.github/workflows/ci.yml`).
    fn cases() -> u32 {
        std::env::var("AETR_PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
    }

    /// The first event after `delta` from a fresh engine.
    fn first_event(config: &ClockGenConfig, delta: SimDuration) -> QuantizedEvent {
        SamplingEngine::new(config).process(SimTime::ZERO + delta)
    }

    proptest! {
        /// Quantization never under-estimates a running-clock interval:
        /// the detecting tick is at or after the request, on the `T_min`
        /// grid, and the counter equals the detection offset exactly;
        /// past shutdown the counter reads the saturation value.
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
            let base = cfg.base_sampling_period();
            let delta = SimDuration::from_ps(delta_ps);
            let ev = first_event(&cfg, delta);
            if ev.woke_clock {
                prop_assert!(cfg.max_measurable().is_some_and(|max| delta > max));
                prop_assert_eq!(Some(ev.timestamp_ticks), cfg.saturation_ticks());
            } else {
                let offset = ev.detection - SimTime::ZERO;
                prop_assert!(offset >= delta);
                prop_assert_eq!(offset / base, ev.timestamp_ticks);
                prop_assert_eq!(offset.as_ps() % base.as_ps(), 0, "ticks land on the T_min grid");
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
        /// horizon of an idle stretch.
        #[test]
        fn idle_usage_is_exact(
            until_ps in 1u64..100_000_000_000u64,
            theta in 2u32..100,
            n in 0u32..8,
            policy in any_policy(),
        ) {
            let cfg =
                ClockGenConfig::prototype().with_theta_div(theta).with_n_div(n).with_policy(policy);
            let until = SimDuration::from_ps(until_ps);
            let mut engine = SamplingEngine::new(&cfg);
            prop_assert_eq!(engine.finish(SimTime::ZERO + until).usage.total(), until);
        }

        /// The detection overshoot is bounded by the slowest period —
        /// the quantization-error envelope behind Fig. 6.
        #[test]
        fn quantization_error_bounded_by_local_period(delta_ps in 100_000u64..500_000_000u64) {
            let cfg = ClockGenConfig::prototype();
            let delta = SimDuration::from_ps(delta_ps);
            let ev = first_event(&cfg, delta);
            if !ev.woke_clock {
                let overshoot = ev.detection - (SimTime::ZERO + delta);
                prop_assert!(overshoot <= cfg.base_sampling_period() * (1 << cfg.n_div));
            }
        }
    }

    /// The behavioural engine rebuilt on the reference model: the FSM
    /// stepped one [`SamplerFsm::on_tick`] per sampling edge, each tick
    /// booking the period before it at the multiplier in force before
    /// it. A timestamp is saturated when it no longer encodes the time
    /// since the last detection.
    struct PerTickEngine {
        fsm: SamplerFsm,
        base: SimDuration,
        wake_latency: SimDuration,
        last_detection: SimTime,
        report: ActivityReport,
    }

    impl PerTickEngine {
        fn new(config: &ClockGenConfig) -> PerTickEngine {
            PerTickEngine {
                fsm: SamplerFsm::new(config),
                base: config.base_sampling_period(),
                wake_latency: config.ring.wake_latency,
                last_detection: SimTime::ZERO,
                report: ActivityReport::default(),
            }
        }

        fn process(&mut self, request: SimTime) -> QuantizedEvent {
            let mut t = self.last_detection;
            let event = loop {
                let period = self.fsm.current_period();
                self.report.usage.add_active(self.fsm.multiplier(), period);
                t += period;
                match self.fsm.on_tick(request <= t) {
                    FsmAction::Sampled { timestamp_ticks } => {
                        break QuantizedEvent {
                            request,
                            detection: t,
                            timestamp_ticks,
                            saturated: self.base * timestamp_ticks != t - self.last_detection,
                            woke_clock: false,
                        };
                    }
                    FsmAction::ShutDown => {
                        self.report.usage.off += request - t;
                        self.report.usage.add_active(1, self.wake_latency + self.base);
                        self.report.wake_count += 1;
                        break QuantizedEvent {
                            request,
                            detection: request + self.wake_latency + self.base,
                            timestamp_ticks: self.fsm.wake(),
                            saturated: true,
                            woke_clock: true,
                        };
                    }
                    FsmAction::Ticked | FsmAction::Divided { .. } => {}
                }
            };
            self.report.event_count += 1;
            self.report.saturated_count += u64::from(event.saturated);
            self.last_detection = event.detection;
            event
        }

        fn finish(&mut self, horizon: SimTime) -> &ActivityReport {
            let mut t = self.last_detection;
            while t < horizon {
                let period = self.fsm.current_period();
                let next = t + period;
                if next >= horizon {
                    self.report.usage.add_active(self.fsm.multiplier(), horizon - t);
                    break;
                }
                self.report.usage.add_active(self.fsm.multiplier(), period);
                t = next;
                if self.fsm.on_tick(false) == FsmAction::ShutDown {
                    self.report.usage.off += horizon - t;
                    break;
                }
            }
            &self.report
        }
    }

    /// Offsets from a detection of the ticks that divide or shut down
    /// the clock, each with the period after it, from per-tick stepping
    /// (a plateau is cut off after its last division).
    fn division_boundaries(config: &ClockGenConfig) -> Vec<(SimDuration, SimDuration)> {
        let mut fsm = SamplerFsm::new(config);
        let mut at = SimDuration::ZERO;
        let mut out = Vec::new();
        for _ in 0..=config.theta_div * (config.n_div + 1) {
            at += fsm.current_period();
            match fsm.on_tick(false) {
                FsmAction::Divided { .. } => out.push((at, fsm.current_period())),
                FsmAction::ShutDown => {
                    out.push((at, fsm.current_period()));
                    break;
                }
                FsmAction::Ticked | FsmAction::Sampled { .. } => {}
            }
        }
        out
    }

    /// A delta chosen to hit the quantizer's edge cases: zero, at, 1 ps
    /// either side of or one tick past a division or shutdown boundary,
    /// an exact `T_min` multiple, anywhere, or beyond the last boundary.
    fn pick_delta(
        boundaries: &[(SimDuration, SimDuration)],
        base: SimDuration,
        kind: u8,
        pick: u64,
    ) -> SimDuration {
        let last = boundaries.last().map_or(base * 64, |&(at, _)| at);
        let span = last.as_ps() * 2;
        match kind {
            0 => SimDuration::ZERO,
            1 => {
                let (edge, next) = boundaries
                    .get(pick as usize % boundaries.len().max(1))
                    .copied()
                    .unwrap_or((last, base));
                match (pick >> 32) % 4 {
                    0 => edge - SimDuration::from_ps(1),
                    1 => edge,
                    2 => edge + SimDuration::from_ps(1),
                    _ => edge + next,
                }
            }
            2 => base * (pick % (span / base.as_ps())),
            3 => SimDuration::from_ps(pick % span),
            _ => last + SimDuration::from_ps(1 + pick % span),
        }
    }

    /// Every knob of the trajectory, with `θ_div` and `N_div` kept small
    /// because the reference costs one `on_tick` per tick: a few
    /// thousand ticks per case at most. Counter widths go down to 4 bits
    /// so the clamp is hit.
    fn any_config() -> impl Strategy<Value = ClockGenConfig> {
        (2u32..24, 0u32..6, any_policy(), 4u32..33).prop_map(|(theta, n_div, policy, bits)| {
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
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// One request after a reset, at every edge-case delta: the
        /// engine's event (detection, timestamp, saturation, wake)
        /// matches per-tick stepping.
        #[test]
        fn quantize_matches_per_tick_reference(
            config in any_config(),
            kind in 0u8..5,
            pick in any::<u64>(),
        ) {
            let boundaries = division_boundaries(&config);
            let delta = pick_delta(&boundaries, config.base_sampling_period(), kind, pick);
            let reference = PerTickEngine::new(&config).process(SimTime::ZERO + delta);
            prop_assert_eq!(first_event(&config, delta), reference, "delta {}", delta);
        }

        /// The cursor-folding engine emits the same events and, after
        /// `finish`, the same activity report (usage per multiplier, off
        /// time, wakes, saturations) as the per-tick reference.
        #[test]
        fn engine_matches_per_tick_reference(
            config in any_config(),
            steps in proptest::collection::vec((0u8..6, any::<u64>()), 1..60),
            tail in (0u8..5, any::<u64>()),
        ) {
            let base = config.base_sampling_period();
            let boundaries = division_boundaries(&config);
            let mut engine = SamplingEngine::new(&config);
            let mut reference = PerTickEngine::new(&config);
            let mut request = SimTime::ZERO;
            for (kind, pick) in steps {
                // Kind 5 repeats the previous request time: a request
                // still pending behind the last handshake.
                if kind < 5 {
                    request = reference.last_detection + pick_delta(&boundaries, base, kind, pick);
                }
                prop_assert_eq!(engine.process(request), reference.process(request));
            }
            let horizon = reference.last_detection + pick_delta(&boundaries, base, tail.0, tail.1);
            prop_assert_eq!(engine.finish(horizon), reference.finish(horizon));
        }
    }
}
