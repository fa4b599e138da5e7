//! Cycle-accurate waveform generation (Fig. 2).
//!
//! Walks the [`crate::fsm::SamplerFsm`] tick by tick over a
//! short horizon and records the sampling clock, the `SLEEP` line and
//! the `REQ` input into a [`Tracer`], from which the Fig. 2 waveform
//! (recursively divided clock, `N_div = 3`, `θ_div = 8`) can be dumped
//! to VCD or checked programmatically.
//!
//! This walker is O(ticks) — use it for visualisation horizons (µs to
//! ms); the sweeps use the O(events) engine in [`crate::engine`].

use aetr_sim::time::SimTime;
use aetr_sim::trace::{SignalId, TraceValue, Tracer};

use crate::config::ClockGenConfig;
use crate::fsm::{FsmAction, IdleBoundary, SamplerFsm};

/// A recorded clock waveform with handles to its signals.
#[derive(Debug, Clone)]
pub struct ClockWaveform {
    /// The recorded trace (dump with [`aetr_sim::vcd::write_vcd`]).
    pub tracer: Tracer,
    /// Sampling clock signal.
    pub clk: SignalId,
    /// Sleep (clock-stopped) indicator.
    pub sleep: SignalId,
    /// AER request input.
    pub req: SignalId,
    /// `(time, new period multiplier)` at each division.
    pub divisions: Vec<(SimTime, u64)>,
    /// Times at which the clock shut down.
    pub shutdowns: Vec<SimTime>,
    /// Times at which events were sampled.
    pub samples: Vec<SimTime>,
}

impl ClockWaveform {
    /// Rising edges of the sampling clock.
    pub fn rising_edges(&self) -> Vec<SimTime> {
        self.tracer.edges_to(self.clk, true)
    }
}

/// Simulates the sampling clock over `[0, horizon]` with AER requests
/// at the given (sorted) times, recording the waveform.
///
/// # Panics
///
/// Panics if `config` is invalid or `requests` is not time-sorted.
pub fn record_waveform(
    config: &ClockGenConfig,
    requests: &[SimTime],
    horizon: SimTime,
) -> ClockWaveform {
    assert!(requests.windows(2).all(|w| w[1] >= w[0]), "requests must be time-sorted");
    let base = config.base_sampling_period();
    let wake = config.ring.wake_latency;

    let mut tracer = Tracer::new();
    let clk = tracer.declare_bit("clk_sample", "clockgen");
    let sleep = tracer.declare_bit("sleep", "clockgen");
    let req = tracer.declare_bit("req", "aer");

    let mut fsm = SamplerFsm::new(config);
    let mut divisions = Vec::new();
    let mut shutdowns = Vec::new();
    let mut samples = Vec::new();

    tracer.record(SimTime::ZERO, clk, TraceValue::Bit(false));
    tracer.record(SimTime::ZERO, sleep, TraceValue::Bit(false));
    tracer.record(SimTime::ZERO, req, TraceValue::Bit(false));

    let mut pending: std::collections::VecDeque<SimTime> = requests.iter().copied().collect();
    let mut req_high_since: Option<SimTime> = None;
    let mut next_tick = SimTime::ZERO + base;

    while next_tick <= horizon {
        // Raise REQ for any request whose time has come before this tick.
        if req_high_since.is_none() {
            if let Some(&r) = pending.front() {
                if r <= next_tick {
                    tracer.record(r, req, TraceValue::Bit(true));
                    req_high_since = Some(r);
                    pending.pop_front();
                }
            }
        }

        let period = fsm.current_period();
        let request_pending = req_high_since.is_some();
        // Rising edge, falling edge at the semi-period.
        tracer.record(next_tick, clk, TraceValue::Bit(true));
        let action = fsm.on_tick(request_pending);
        match action {
            FsmAction::Sampled { .. } => {
                samples.push(next_tick);
                // Acknowledge: REQ drops shortly after the sampling edge.
                tracer.record(next_tick + period / 8, req, TraceValue::Bit(false));
                req_high_since = None;
            }
            FsmAction::Divided { multiplier } => divisions.push((next_tick, multiplier)),
            FsmAction::ShutDown => shutdowns.push(next_tick),
            FsmAction::Ticked => {}
        }
        let fall = next_tick + fsm.current_period().min(period) / 2;
        if fall <= horizon {
            tracer.record(fall, clk, TraceValue::Bit(false));
        }

        if fsm.is_asleep() {
            tracer.record(next_tick + period / 2, sleep, TraceValue::Bit(true));
            // Wait for the next request (if any) to restart the clock.
            let Some(&r) = pending.front() else { break };
            if r > horizon {
                break;
            }
            pending.pop_front();
            tracer.record(r, req, TraceValue::Bit(true));
            tracer.record(r + wake, sleep, TraceValue::Bit(false));
            let frozen = fsm.wake();
            let _ = frozen; // timestamp handling is the engine's job
            samples.push(r + wake + base);
            tracer.record(r + wake + base / 8, req, TraceValue::Bit(false));
            next_tick = r + wake + base;
            // The wake tick itself samples the event; model it as a
            // clock pulse.
            if next_tick <= horizon {
                tracer.record(next_tick, clk, TraceValue::Bit(true));
                let fall2 = next_tick + base / 2;
                if fall2 <= horizon {
                    tracer.record(fall2, clk, TraceValue::Bit(false));
                }
            }
            next_tick += base;
        } else {
            next_tick += fsm.current_period();
        }
    }

    ClockWaveform { tracer, clk, sleep, req, divisions, shutdowns, samples }
}

/// Returns, for the Fig. 2 scenario (no requests), the expected
/// sequence of period multipliers over time: `θ_div` ticks each of
/// `1, 2, 4, ..., 2^N_div`, then off. These are the multipliers of the
/// quiet runs that end in a division or a shutdown; the endless run of
/// a policy that never stops is not listed.
pub fn expected_idle_multipliers(config: &ClockGenConfig) -> Vec<u64> {
    let mut fsm = SamplerFsm::new(config);
    let mut multipliers = Vec::new();
    let first_tick = SimTime::ZERO + config.base_sampling_period();
    fsm.advance_idle_each(first_tick, SimTime::MAX, |seg| {
        if seg.boundary != IdleBoundary::None {
            multipliers.push(seg.multiplier);
        }
    });
    multipliers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DivisionPolicy;

    /// The Fig. 2 configuration: θ_div = 8, N_div = 3.
    fn fig2_config() -> ClockGenConfig {
        ClockGenConfig::prototype().with_theta_div(8).with_n_div(3)
    }

    #[test]
    fn idle_waveform_divides_then_stops() {
        let cfg = fig2_config();
        let wave = record_waveform(&cfg, &[], SimTime::from_ms(1));
        // Divisions to multipliers 2, 4, 8, then shutdown.
        let mults: Vec<u64> = wave.divisions.iter().map(|&(_, m)| m).collect();
        assert_eq!(mults, vec![2, 4, 8]);
        assert_eq!(wave.shutdowns.len(), 1);
        // 8 ticks per segment, 4 segments = 32 rising edges.
        assert_eq!(wave.rising_edges().len(), 32);
    }

    #[test]
    fn edge_spacing_doubles_per_segment() {
        let cfg = fig2_config();
        let base = cfg.base_sampling_period();
        let wave = record_waveform(&cfg, &[], SimTime::from_ms(1));
        let edges = wave.rising_edges();
        // First segment: edges 0..8 spaced base.
        for w in edges[..8].windows(2) {
            assert_eq!(w[1] - w[0], base);
        }
        // Second segment: spacing 2·base (edge 8 is the first divided one).
        for w in edges[8..16].windows(2) {
            assert_eq!(w[1] - w[0], base * 2);
        }
        // Fourth segment: spacing 8·base.
        for w in edges[24..32].windows(2) {
            assert_eq!(w[1] - w[0], base * 8);
        }
    }

    #[test]
    fn request_resets_the_division() {
        let cfg = fig2_config();
        let base = cfg.base_sampling_period();
        // Let it divide once (tick 8), then fire a request mid-segment-1
        // (offset 20·base is tick 14, before the second division at
        // tick 16 / offset 24·base).
        let req_time = SimTime::ZERO + base * 20;
        let wave = record_waveform(&cfg, &[req_time], SimTime::from_ms(1));
        assert_eq!(wave.samples.len(), 1);
        // One division before the sample, then the full 3-division idle
        // run-down after the reset.
        let mults: Vec<u64> = wave.divisions.iter().map(|&(_, m)| m).collect();
        assert_eq!(mults, vec![2, 2, 4, 8]);
    }

    #[test]
    fn request_during_sleep_wakes_the_clock() {
        let cfg = fig2_config();
        let wave = record_waveform(
            &cfg,
            &[SimTime::from_us(50)], // far past shutdown (~8·15·66.6ns ≈ 8 µs)
            SimTime::from_us(200),
        );
        // One shutdown before the request, and — after the wake, sample
        // and idle run-down — a second one before the horizon.
        assert_eq!(wave.shutdowns.len(), 2);
        assert!(wave.shutdowns[0] < SimTime::from_us(50));
        assert!(wave.shutdowns[1] > SimTime::from_us(50));
        assert_eq!(wave.samples.len(), 1);
        let sample = wave.samples[0];
        assert_eq!(
            sample,
            SimTime::from_us(50) + cfg.ring.wake_latency + cfg.base_sampling_period()
        );
        // Sleep went high, low at the wake, then high again at the
        // second shutdown.
        let sleep_highs = wave.tracer.edges_to(wave.sleep, true);
        let sleep_lows = wave.tracer.edges_to(wave.sleep, false);
        assert_eq!(sleep_highs.len(), 2);
        assert!(sleep_lows.iter().any(|&t| t > sleep_highs[0] && t < sleep_highs[1]));
    }

    #[test]
    fn expected_idle_multipliers_match_table() {
        assert_eq!(expected_idle_multipliers(&fig2_config()), vec![1, 2, 4, 8]);
    }

    /// Multiplier and boundary of each quiet run from a reset up to a
    /// far barrier.
    fn idle_runs(config: &ClockGenConfig) -> Vec<(u64, IdleBoundary)> {
        let base = config.base_sampling_period();
        let mut runs = Vec::new();
        SamplerFsm::new(config).advance_idle_each(
            SimTime::ZERO + base,
            SimTime::ZERO + base * 10_000,
            |seg| runs.push((seg.multiplier, seg.boundary)),
        );
        runs
    }

    /// Linear growth, one more `T_min` per division, up to shutdown.
    #[test]
    fn linear_policy_idle_multipliers() {
        let config = fig2_config().with_policy(DivisionPolicy::Linear);
        assert_eq!(expected_idle_multipliers(&config), vec![1, 2, 3, 4]);
        assert_eq!(idle_runs(&config).last(), Some(&(4, IdleBoundary::ShutDown)));
        assert_eq!(config.saturation_ticks(), Some(8 * (1 + 2 + 3 + 4)));
    }

    /// A doubling ladder below an endless plateau at `2^N_div`.
    #[test]
    fn divide_only_ladder_ends_in_endless_plateau() {
        let config = fig2_config().with_policy(DivisionPolicy::DivideOnly);
        assert_eq!(expected_idle_multipliers(&config), vec![1, 2, 4]);
        assert_eq!(idle_runs(&config).last(), Some(&(8, IdleBoundary::None)));
        assert_eq!(config.saturation_ticks(), None);
    }

    /// One endless run at `T_min`: no division, no shutdown.
    #[test]
    fn never_policy_has_no_idle_ladder() {
        let config = fig2_config().with_policy(DivisionPolicy::Never);
        assert_eq!(expected_idle_multipliers(&config), Vec::<u64>::new());
        assert_eq!(idle_runs(&config), vec![(1, IdleBoundary::None)]);
        assert_eq!(config.saturation_ticks(), None);
    }

    #[test]
    fn vcd_export_of_fig2_works() {
        let wave = record_waveform(&fig2_config(), &[], SimTime::from_us(30));
        let mut buf = Vec::new();
        aetr_sim::vcd::write_vcd(&wave.tracer, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("clk_sample"));
        assert!(text.contains("$scope module clockgen $end"));
    }
}
