//! Clock-generator configuration.
//!
//! Ties together the ring oscillator, the prescaler that produces the
//! 30 MHz reference, and the recursive-division parameters `θ_div` and
//! `N_div` that the paper exposes through the SPI configuration bus.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use aetr_sim::time::{Frequency, SimDuration};

use crate::divider::DividerChain;
use crate::ring::{RingOscillatorConfig, RingOscillatorError};

/// How the sampling period evolves between events.
///
/// [`Recursive`](DivisionPolicy::Recursive) is the paper's contribution;
/// [`Never`](DivisionPolicy::Never) is its "naïve" constant-frequency
/// baseline (Fig. 8); the other two are ablations of the design choices
/// (shutdown and geometric growth respectively).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DivisionPolicy {
    /// Double the period every `θ_div` cycles; after `N_div` doublings,
    /// stop the clock entirely (paper Fig. 1).
    #[default]
    Recursive,
    /// Double the period every `θ_div` cycles up to `N_div` doublings,
    /// then stay at the slowest clock forever (never shut down).
    DivideOnly,
    /// Constant `T_min` sampling — the naïve baseline.
    Never,
    /// Grow the period linearly (`T_min`, `2·T_min`, `3·T_min`, ...)
    /// every `θ_div` cycles for `N_div` steps, then shut down.
    Linear,
}

impl fmt::Display for DivisionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DivisionPolicy::Recursive => "recursive",
            DivisionPolicy::DivideOnly => "divide-only",
            DivisionPolicy::Never => "no-division",
            DivisionPolicy::Linear => "linear",
        };
        f.write_str(s)
    }
}

/// Full clock-generator configuration.
///
/// # Examples
///
/// ```
/// use aetr_clockgen::config::ClockGenConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ClockGenConfig::prototype();
/// cfg.validate()?;
/// // ~30 MHz reference, ~15 MHz max sampling frequency (paper §5).
/// assert!((cfg.reference_frequency().as_hz_f64() - 30e6).abs() < 1e6);
/// assert_eq!(cfg.base_sampling_period().as_ns(), 66);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClockGenConfig {
    /// The pausable ring oscillator providing the raw clock.
    pub ring: RingOscillatorConfig,
    /// Prescaler stages between the ring and the reference clock
    /// (2 stages: 120 MHz → 30 MHz).
    pub prescaler_stages: u32,
    /// Cycles between successive divisions of the sampling clock.
    pub theta_div: u32,
    /// Number of divisions before the clock is switched off.
    pub n_div: u32,
    /// Division policy (the paper's scheme, its baseline, or ablations).
    pub policy: DivisionPolicy,
    /// Timestamp counter width in bits (the AETR word reserves 22).
    pub counter_bits: u32,
}

impl ClockGenConfig {
    /// The prototype configuration measured in the paper: 120 MHz ring,
    /// /4 prescaler → 30 MHz reference, 15 MHz max sampling frequency,
    /// `θ_div = 64`, `N_div = 3`, recursive division, 22-bit counter.
    pub fn prototype() -> ClockGenConfig {
        ClockGenConfig {
            ring: RingOscillatorConfig::igloo_nano(),
            prescaler_stages: 2,
            theta_div: 64,
            n_div: 3,
            policy: DivisionPolicy::Recursive,
            counter_bits: 22,
        }
    }

    /// Returns a copy with a different `θ_div` (the Fig. 6/7/8 sweeps).
    pub fn with_theta_div(mut self, theta_div: u32) -> ClockGenConfig {
        self.theta_div = theta_div;
        self
    }

    /// Returns a copy with a different `N_div`.
    pub fn with_n_div(mut self, n_div: u32) -> ClockGenConfig {
        self.n_div = n_div;
        self
    }

    /// Returns a copy with a different division policy.
    pub fn with_policy(mut self, policy: DivisionPolicy) -> ClockGenConfig {
        self.policy = policy;
        self
    }

    /// The degraded-mode configuration a watchdog falls back to when
    /// oscillator wakes become untrustworthy: `N_div` clamped to
    /// `n_div_clamp` and the policy forced to
    /// [`DivideOnly`](DivisionPolicy::DivideOnly), so the clock
    /// plateaus at its slowest division instead of ever shutting down.
    /// Power proportionality is sacrificed for timestamp coherence;
    /// the ring and prescaler (synthesis-time properties) are kept, so
    /// the result is always accepted by a runtime reconfiguration.
    pub fn degraded_fallback(&self, n_div_clamp: u32) -> ClockGenConfig {
        ClockGenConfig {
            n_div: self.n_div.min(n_div_clamp),
            policy: DivisionPolicy::DivideOnly,
            ..*self
        }
    }

    /// The reference clock frequency (ring output through the
    /// prescaler).
    pub fn reference_frequency(&self) -> Frequency {
        DividerChain::new(self.prescaler_stages)
            .expect("validated prescaler depth")
            .output(self.ring.config_frequency())
    }

    /// The reference clock period.
    pub fn reference_period(&self) -> SimDuration {
        DividerChain::new(self.prescaler_stages)
            .expect("validated prescaler depth")
            .output_period(self.ring.period())
    }

    /// The fastest sampling period `T_min` (half the reference
    /// frequency: the input is sampled every other reference cycle).
    pub fn base_sampling_period(&self) -> SimDuration {
        self.reference_period() * 2
    }

    /// The shortest inter-spike time the interface can resolve:
    /// two base sampling periods (Nyquist). For the prototype this is
    /// ≈133 ns, matching the paper's "130 ns or more can be sensed".
    pub fn min_resolvable_interval(&self) -> SimDuration {
        self.base_sampling_period() * 2
    }

    /// The counter value, in `T_min` units, at which the sampling clock
    /// shuts down after an event: `θ_div` ticks at each multiplier up to
    /// the last division, `θ_div·(2^(N_div+1) − 1)` for the recursive
    /// policy. `None` for policies that never stop, whose counter grows
    /// until the [width clamp](ClockGenConfig::counter_max).
    ///
    /// # Examples
    ///
    /// ```
    /// use aetr_clockgen::config::ClockGenConfig;
    ///
    /// // θ=64, N=3: saturation after 64·(1+2+4+8) = 960 T_min ticks.
    /// assert_eq!(ClockGenConfig::prototype().saturation_ticks(), Some(960));
    /// ```
    pub fn saturation_ticks(&self) -> Option<u64> {
        let theta = u64::from(self.theta_div);
        let n = u64::from(self.n_div);
        match self.policy {
            DivisionPolicy::Recursive => Some(theta * ((2 << n) - 1)),
            DivisionPolicy::Linear => Some(theta * (n + 1) * (n + 2) / 2),
            DivisionPolicy::DivideOnly | DivisionPolicy::Never => None,
        }
    }

    /// The longest interval measurable without saturation (the paper's
    /// "maximum time interval the interface is able to measure", §5.2):
    /// the time from an event to the shutdown tick. `None` for policies
    /// that never stop.
    pub fn max_measurable(&self) -> Option<SimDuration> {
        self.saturation_ticks().map(|ticks| self.base_sampling_period().saturating_mul(ticks))
    }

    /// Saturation value of the timestamp counter.
    pub fn counter_max(&self) -> u64 {
        if self.counter_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.counter_bits) - 1
        }
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns the first constraint violated; see
    /// [`ClockGenConfigError`].
    pub fn validate(&self) -> Result<(), ClockGenConfigError> {
        self.ring.validate().map_err(ClockGenConfigError::Ring)?;
        if self.prescaler_stages > 8 {
            return Err(ClockGenConfigError::PrescalerTooDeep { stages: self.prescaler_stages });
        }
        if self.theta_div < 2 {
            return Err(ClockGenConfigError::ThetaTooSmall { theta_div: self.theta_div });
        }
        if self.n_div > 20 {
            return Err(ClockGenConfigError::NDivTooLarge { n_div: self.n_div });
        }
        if !(4..=32).contains(&self.counter_bits) {
            return Err(ClockGenConfigError::CounterBits { bits: self.counter_bits });
        }
        Ok(())
    }
}

impl Default for ClockGenConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

impl RingOscillatorConfig {
    /// Frequency implied by the stage configuration (helper so that
    /// [`ClockGenConfig`] does not need a constructed oscillator).
    pub fn config_frequency(&self) -> Frequency {
        self.period().to_frequency()
    }
}

/// Constraint violations in a [`ClockGenConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockGenConfigError {
    /// The ring oscillator itself is misconfigured.
    Ring(RingOscillatorError),
    /// Prescaler deeper than the supported 8 stages.
    PrescalerTooDeep {
        /// Offending depth.
        stages: u32,
    },
    /// `θ_div < 2` leaves no room to measure anything between divisions.
    ThetaTooSmall {
        /// Offending value.
        theta_div: u32,
    },
    /// `N_div > 20` overflows any practical counter.
    NDivTooLarge {
        /// Offending value.
        n_div: u32,
    },
    /// Counter width outside 4..=32 bits.
    CounterBits {
        /// Offending width.
        bits: u32,
    },
}

impl fmt::Display for ClockGenConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClockGenConfigError::Ring(e) => write!(f, "ring oscillator: {e}"),
            ClockGenConfigError::PrescalerTooDeep { stages } => {
                write!(f, "prescaler of {stages} stages exceeds the supported 8")
            }
            ClockGenConfigError::ThetaTooSmall { theta_div } => {
                write!(f, "theta_div must be at least 2, got {theta_div}")
            }
            ClockGenConfigError::NDivTooLarge { n_div } => {
                write!(f, "n_div must be at most 20, got {n_div}")
            }
            ClockGenConfigError::CounterBits { bits } => {
                write!(f, "counter width must be 4..=32 bits, got {bits}")
            }
        }
    }
}

impl Error for ClockGenConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClockGenConfigError::Ring(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_paper_numbers() {
        let cfg = ClockGenConfig::prototype();
        cfg.validate().unwrap();
        let f_ref = cfg.reference_frequency().as_hz_f64();
        assert!((f_ref - 30e6).abs() / 30e6 < 0.01, "reference {f_ref}");
        // Minimum resolvable interval ~133 ns (paper: "130 ns or more").
        let min_ns = cfg.min_resolvable_interval().as_ns();
        assert!((130..=140).contains(&min_ns), "min interval {min_ns} ns");
        assert_eq!(cfg.counter_max(), (1 << 22) - 1);
    }

    /// The closed forms agree with the FSM stepped tick by tick to its
    /// shutdown, and the prototype saturates after 64·(1+2+4+8) ticks.
    #[test]
    fn saturation_matches_per_tick_shutdown() {
        use crate::fsm::{FsmAction, SamplerFsm};
        let proto = ClockGenConfig::prototype();
        assert_eq!(proto.saturation_ticks(), Some(960));
        assert_eq!(proto.max_measurable(), Some(proto.base_sampling_period() * 960));
        for policy in [
            DivisionPolicy::Recursive,
            DivisionPolicy::DivideOnly,
            DivisionPolicy::Never,
            DivisionPolicy::Linear,
        ] {
            for (theta, n_div) in [(2u32, 0u32), (3, 1), (8, 3), (5, 6)] {
                let cfg = proto.with_policy(policy).with_theta_div(theta).with_n_div(n_div);
                let mut fsm = SamplerFsm::new(&cfg);
                let mut elapsed = 0;
                let mut shutdown = None;
                for _ in 0..2_000 {
                    elapsed += fsm.multiplier();
                    if fsm.on_tick(false) == FsmAction::ShutDown {
                        shutdown = Some(elapsed);
                        break;
                    }
                }
                assert_eq!(cfg.saturation_ticks(), shutdown, "{policy:?} θ={theta} N={n_div}");
            }
        }
    }

    #[test]
    fn builder_style_updates() {
        let cfg = ClockGenConfig::prototype()
            .with_theta_div(16)
            .with_n_div(5)
            .with_policy(DivisionPolicy::Never);
        assert_eq!(cfg.theta_div, 16);
        assert_eq!(cfg.n_div, 5);
        assert_eq!(cfg.policy, DivisionPolicy::Never);
    }

    #[test]
    fn validation_catches_bad_values() {
        let base = ClockGenConfig::prototype();
        assert!(matches!(
            ClockGenConfig { theta_div: 1, ..base }.validate(),
            Err(ClockGenConfigError::ThetaTooSmall { .. })
        ));
        assert!(matches!(
            ClockGenConfig { n_div: 21, ..base }.validate(),
            Err(ClockGenConfigError::NDivTooLarge { .. })
        ));
        assert!(matches!(
            ClockGenConfig { counter_bits: 2, ..base }.validate(),
            Err(ClockGenConfigError::CounterBits { .. })
        ));
        assert!(matches!(
            ClockGenConfig { prescaler_stages: 9, ..base }.validate(),
            Err(ClockGenConfigError::PrescalerTooDeep { .. })
        ));
        let bad_ring = ClockGenConfig {
            ring: RingOscillatorConfig { stages: 4, ..RingOscillatorConfig::igloo_nano() },
            ..base
        };
        assert!(matches!(bad_ring.validate(), Err(ClockGenConfigError::Ring(_))));
    }

    #[test]
    fn degraded_fallback_clamps_and_never_sleeps() {
        let cfg = ClockGenConfig::prototype(); // N=3, recursive
        let degraded = cfg.degraded_fallback(1);
        assert_eq!(degraded.n_div, 1);
        assert_eq!(degraded.policy, DivisionPolicy::DivideOnly);
        assert_eq!(degraded.base_sampling_period(), cfg.base_sampling_period());
        degraded.validate().unwrap();
        // A clamp above the configured N_div changes only the policy.
        let loose = cfg.degraded_fallback(10);
        assert_eq!(loose.n_div, 3);
    }

    #[test]
    fn policy_display_names() {
        assert_eq!(DivisionPolicy::Recursive.to_string(), "recursive");
        assert_eq!(DivisionPolicy::Never.to_string(), "no-division");
    }

    #[test]
    fn wide_counter_does_not_overflow() {
        let cfg = ClockGenConfig { counter_bits: 32, ..ClockGenConfig::prototype() };
        assert_eq!(cfg.counter_max(), u32::MAX as u64);
    }
}
