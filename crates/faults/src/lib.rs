//! Deterministic fault injection and recovery for the AETR interface.
//!
//! A physical deployment of the DAC'17 interface faces failure modes
//! the nominal simulation never exercises: a sensor whose `ACK` wire
//! glitches, a `REQ` line stuck high, a pausable ring oscillator that
//! misses its restart edge, single-event upsets in the SRAM FIFO, and
//! I2S receivers that slip a frame. This crate provides the *seeded,
//! reproducible* fault model those scenarios are injected from, plus
//! the recovery policy knobs (handshake watchdog, degraded clocking)
//! and the typed health counters the interface reports back.
//!
//! The design contract is **zero cost when disabled**: a
//! [`FaultPlan`] whose rates are all zero and whose schedule is empty
//! never consumes a random draw and never perturbs the simulation, so
//! the interface produces bit-identical reports with and without the
//! injector (`tests/fault_injection.rs` pins this down).
//!
//! ```
//! use aetr_faults::{FaultPlan, FaultRates};
//!
//! let plan = FaultPlan::nominal(42).with_rates(FaultRates {
//!     lost_ack: 0.05,
//!     ..FaultRates::default()
//! });
//! assert!(!plan.is_zero());
//! assert!(plan.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use aetr_sim::time::{SimDuration, SimTime};

/// Deterministic fault-source RNG (SplitMix64).
///
/// Kept separate from the workload generators so a fault campaign can
/// vary fault seeds without disturbing spike trains, and vice versa.
/// Rolls at probability `0` (or below) short-circuit **without
/// consuming a draw** — this is what makes an all-zero [`FaultPlan`]
/// provably equivalent to running with no injector at all.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates an RNG from a campaign seed.
    pub fn new(seed: u64) -> FaultRng {
        FaultRng { state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15) }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Bernoulli trial: `true` with probability `p`.
    ///
    /// `p <= 0` returns `false` and `p >= 1` returns `true`, both
    /// without advancing the generator state.
    pub fn roll(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 uniformly-distributed mantissa bits, the same construction
        // the vendored `rand` stub uses.
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Uniform integer in `0..n` (widening-multiply method).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: u32) -> u32 {
        assert!(n > 0, "below(0) has no valid output");
        ((u64::from(self.next_u64() as u32) * u64::from(n)) >> 32) as u32
    }
}

/// Per-fault-class injection rates, each a probability in `[0, 1]`
/// applied at that fault's natural opportunity (per handshake, per
/// wake, per FIFO write, per I2S frame).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultRates {
    /// `REQ` stuck high after its handshake should have released it:
    /// the interface keeps seeing a request that is no longer real.
    pub stuck_req: f64,
    /// The sensor misses the interface's `ACK` rising edge, leaving
    /// the handshake hung until the watchdog re-drives it.
    pub lost_ack: f64,
    /// The completed transaction's edges are recorded out of 4-phase
    /// order (a malformed transaction a protocol checker must flag).
    pub malformed: f64,
    /// The pausable ring oscillator fails to restart on a wake edge.
    pub wake_failure: f64,
    /// A single-bit upset in an AETR word as it is written to the SRAM
    /// FIFO.
    pub fifo_bit_flip: f64,
    /// The I2S receiver slips (loses) a transmitted frame.
    pub i2s_frame_slip: f64,
}

impl FaultRates {
    /// `true` when every rate is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.as_array().iter().all(|&r| r == 0.0)
    }

    fn as_array(&self) -> [f64; 6] {
        [
            self.stuck_req,
            self.lost_ack,
            self.malformed,
            self.wake_failure,
            self.fifo_bit_flip,
            self.i2s_frame_slip,
        ]
    }

    /// A uniform rate on the three protocol faults (campaign helper).
    pub fn protocol(rate: f64) -> FaultRates {
        FaultRates { stuck_req: rate, lost_ack: rate, malformed: rate, ..FaultRates::default() }
    }

    /// A uniform rate on the datapath faults (campaign helper).
    pub fn datapath(rate: f64) -> FaultRates {
        FaultRates { fifo_bit_flip: rate, i2s_frame_slip: rate, ..FaultRates::default() }
    }
}

/// A one-shot fault fired at a scheduled simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// When the fault manifests.
    pub at: SimTime,
    /// What breaks.
    pub kind: FaultKind,
}

/// Kinds of one-shot scheduled faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The sampling oscillator sticks: the clock tree stops dead as if
    /// shut down, without the FSM having decided to sleep. Recovery
    /// rides the normal request-driven wake path.
    StuckOscillator,
}

/// Recovery-policy configuration for the handshake watchdog and the
/// degraded clocking fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// How long the interface waits for the sensor to react to `ACK`
    /// before re-driving it.
    pub ack_timeout: SimDuration,
    /// Re-drive attempts before the handshake is aborted and the
    /// channel reset.
    pub max_ack_retries: u32,
    /// Extra wait after the nominal wake latency before the watchdog
    /// declares the wake failed.
    pub wake_timeout: SimDuration,
    /// Wake re-checks before the interface forces the clock on and
    /// enters degraded mode.
    pub max_wake_retries: u32,
    /// `N_div` ceiling applied in degraded mode. The clock then
    /// plateaus at `2^clamp · T_min` instead of ever shutting down —
    /// power is traded for timestamp coherence once wakes are
    /// untrustworthy.
    pub degraded_n_div_clamp: u32,
}

impl Default for WatchdogConfig {
    /// One-microsecond ACK watchdog with 4 retries (doubling backoff),
    /// five-microsecond wake watchdog with 3 retries, degraded clamp
    /// at `N_div = 1`.
    fn default() -> Self {
        WatchdogConfig {
            ack_timeout: SimDuration::from_us(1),
            max_ack_retries: 4,
            wake_timeout: SimDuration::from_us(5),
            max_wake_retries: 3,
            degraded_n_div_clamp: 1,
        }
    }
}

impl WatchdogConfig {
    /// Backoff delay before retry number `attempt` (0-based): the ACK
    /// timeout doubled per attempt, exponent clamped so the product
    /// stays finite.
    pub fn ack_backoff(&self, attempt: u32) -> SimDuration {
        self.ack_timeout.saturating_mul(1u64 << attempt.min(16))
    }
}

/// Invalid [`FaultPlan`] parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// A rate was outside `[0, 1]` (or NaN).
    RateOutOfRange {
        /// The offending value.
        rate: f64,
    },
    /// The watchdog would retry with zero delay forever.
    ZeroTimeout,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::RateOutOfRange { rate } => {
                write!(f, "fault rate {rate} is outside [0, 1]")
            }
            FaultPlanError::ZeroTimeout => {
                write!(f, "watchdog timeouts must be non-zero")
            }
        }
    }
}

impl Error for FaultPlanError {}

/// A complete, seeded fault campaign for one simulation run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault RNG (independent of workload seeds).
    pub seed: u64,
    /// Stochastic per-class rates.
    pub rates: FaultRates,
    /// One-shot faults at fixed times.
    pub scheduled: Vec<ScheduledFault>,
    /// Recovery policy.
    pub watchdog: WatchdogConfig,
}

impl FaultPlan {
    /// A plan that injects nothing (all rates zero, empty schedule)
    /// but still carries a seed and the default watchdog.
    pub fn nominal(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Returns a copy with the given rates.
    pub fn with_rates(mut self, rates: FaultRates) -> FaultPlan {
        self.rates = rates;
        self
    }

    /// Returns a copy with the given watchdog policy.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> FaultPlan {
        self.watchdog = watchdog;
        self
    }

    /// Returns a copy with one more scheduled fault.
    pub fn schedule(mut self, at: SimTime, kind: FaultKind) -> FaultPlan {
        self.scheduled.push(ScheduledFault { at, kind });
        self
    }

    /// `true` when the plan can provably not perturb a run.
    pub fn is_zero(&self) -> bool {
        self.rates.is_zero() && self.scheduled.is_empty()
    }

    /// Validates rates and watchdog parameters.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for rate in self.rates.as_array() {
            if !(0.0..=1.0).contains(&rate) {
                return Err(FaultPlanError::RateOutOfRange { rate });
            }
        }
        if self.watchdog.ack_timeout.is_zero() || self.watchdog.wake_timeout.is_zero() {
            return Err(FaultPlanError::ZeroTimeout);
        }
        Ok(())
    }
}

/// The live fault source a simulation queries at each opportunity.
///
/// Each query corresponds to one fault class at its natural injection
/// point; classes with rate zero never touch the RNG, and every class
/// draws from its own seed-derived stream, so enabling one class does
/// not shift the decisions of another — *per-class* reproducibility.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rates: FaultRates,
    /// One RNG stream per fault class, all derived from the plan seed.
    streams: [FaultRng; 6],
    /// Time-sorted scheduled faults not yet fired.
    scheduled: Vec<ScheduledFault>,
    next_scheduled: usize,
}

impl FaultInjector {
    /// Builds an injector from a validated plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not validate.
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        plan.validate().expect("fault injector requires a valid plan");
        let mut scheduled = plan.scheduled.clone();
        scheduled.sort_by_key(|f| f.at);
        // Decorrelated per-class streams: seed ⊕ class-tagged constant.
        let stream =
            |class: u64| FaultRng::new(plan.seed ^ class.wrapping_mul(0xA24B_AED4_963E_E407));
        FaultInjector {
            rates: plan.rates,
            streams: [stream(1), stream(2), stream(3), stream(4), stream(5), stream(6)],
            scheduled,
            next_scheduled: 0,
        }
    }

    /// Activation time of the next scheduled fault that has not fired
    /// yet, if any — lets the fast-forward path bound an idle jump so
    /// no scheduled fault is skipped over.
    pub fn next_scheduled_at(&self) -> Option<SimTime> {
        self.scheduled.get(self.next_scheduled).map(|f| f.at)
    }

    /// Pops the next scheduled fault due at or before `now`, if any.
    pub fn due_scheduled(&mut self, now: SimTime) -> Option<FaultKind> {
        let fault = self.scheduled.get(self.next_scheduled)?;
        if fault.at <= now {
            self.next_scheduled += 1;
            Some(fault.kind)
        } else {
            None
        }
    }

    /// Does this handshake's `REQ` stick high after completion?
    pub fn stick_req(&mut self) -> bool {
        self.streams[0].roll(self.rates.stuck_req)
    }

    /// Does the sensor miss this `ACK` edge?
    pub fn lose_ack(&mut self) -> bool {
        self.streams[1].roll(self.rates.lost_ack)
    }

    /// Is this transaction recorded malformed?
    pub fn malform(&mut self) -> bool {
        self.streams[2].roll(self.rates.malformed)
    }

    /// Does this oscillator wake attempt fail?
    pub fn fail_wake(&mut self) -> bool {
        self.streams[3].roll(self.rates.wake_failure)
    }

    /// Bit index (0..32) to flip in the FIFO-bound word, if this write
    /// is upset.
    pub fn flip_fifo_bit(&mut self) -> Option<u32> {
        if self.streams[4].roll(self.rates.fifo_bit_flip) {
            Some(self.streams[4].below(32))
        } else {
            None
        }
    }

    /// Does the receiver slip this I2S frame?
    pub fn slip_frame(&mut self) -> bool {
        self.streams[5].roll(self.rates.i2s_frame_slip)
    }
}

/// Typed counters describing everything that went wrong — and was
/// recovered — during a run. All-zero in a nominal run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InterfaceHealthReport {
    /// `ACK` edges the sensor missed (initial losses and re-losses).
    pub lost_acks: u64,
    /// Watchdog `ACK` re-drive attempts.
    pub ack_retries: u64,
    /// Handshakes completed late thanks to a watchdog re-drive.
    pub acks_recovered: u64,
    /// Handshakes abandoned after exhausting retries (channel reset).
    pub handshakes_aborted: u64,
    /// `REQ` lines observed stuck high past handshake completion.
    pub stuck_requests: u64,
    /// Phantom samples taken from a stale (stuck) request and
    /// discarded.
    pub spurious_samples: u64,
    /// Transactions recorded with out-of-order 4-phase edges.
    pub malformed_transactions: u64,
    /// Ring-oscillator wake attempts that failed.
    pub wake_failures: u64,
    /// Watchdog wake re-checks performed.
    pub wake_retries: u64,
    /// Wakes forced by the watchdog after exhausting re-checks.
    pub forced_wakes: u64,
    /// Scheduled oscillator stalls that hit.
    pub oscillator_stalls: u64,
    /// Single-bit upsets injected into FIFO-bound words.
    pub fifo_bit_flips: u64,
    /// Events lost to FIFO overflow (either overflow policy;
    /// `fifo_drops_overflow + fifo_drops_degraded`).
    pub fifo_drops: u64,
    /// FIFO losses in normal operation.
    pub fifo_drops_overflow: u64,
    /// FIFO losses while the watchdog had the interface in degraded
    /// mode.
    pub fifo_drops_degraded: u64,
    /// I2S frames slipped by the receiver.
    pub frame_slips: u64,
    /// Events carried by those slipped frames.
    pub events_lost_to_slips: u64,
    /// `true` once the interface clamped `N_div` and gave up sleeping.
    pub degraded: bool,
}

impl InterfaceHealthReport {
    /// `true` when nothing abnormal was observed.
    pub fn is_nominal(&self) -> bool {
        *self == InterfaceHealthReport::default()
    }

    /// The report as `(metric name, value)` pairs under the
    /// `interface.health.*` hierarchy.
    ///
    /// This is the single source of truth for health metric names: the
    /// telemetry registry in normal runs and the `aetr-cli faults`
    /// campaign output both emit exactly these, so dashboards built on
    /// one work on the other. `degraded` is exported as a 0/1 value.
    pub fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("interface.health.lost_acks", self.lost_acks),
            ("interface.health.ack_retries", self.ack_retries),
            ("interface.health.acks_recovered", self.acks_recovered),
            ("interface.health.handshakes_aborted", self.handshakes_aborted),
            ("interface.health.stuck_requests", self.stuck_requests),
            ("interface.health.spurious_samples", self.spurious_samples),
            ("interface.health.malformed_transactions", self.malformed_transactions),
            ("interface.health.wake_failures", self.wake_failures),
            ("interface.health.wake_retries", self.wake_retries),
            ("interface.health.forced_wakes", self.forced_wakes),
            ("interface.health.oscillator_stalls", self.oscillator_stalls),
            ("interface.health.fifo_bit_flips", self.fifo_bit_flips),
            ("interface.health.fifo_drops", self.fifo_drops),
            ("interface.health.fifo_drops_overflow", self.fifo_drops_overflow),
            ("interface.health.fifo_drops_degraded", self.fifo_drops_degraded),
            ("interface.health.frame_slips", self.frame_slips),
            ("interface.health.events_lost_to_slips", self.events_lost_to_slips),
            ("interface.health.degraded", u64::from(self.degraded)),
        ]
    }

    /// Total faults *injected* (recovery actions not included).
    pub fn faults_injected(&self) -> u64 {
        self.lost_acks
            + self.stuck_requests
            + self.malformed_transactions
            + self.wake_failures
            + self.oscillator_stalls
            + self.fifo_bit_flips
            + self.frame_slips
    }

    /// Events irrecoverably lost (dropped in the FIFO or slipped on
    /// the link). Aborted handshakes do not lose events — the event
    /// was already captured when its `ACK` was lost.
    pub fn events_lost(&self) -> u64 {
        self.fifo_drops + self.events_lost_to_slips
    }
}

impl fmt::Display for InterfaceHealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_nominal() {
            return write!(f, "nominal");
        }
        write!(
            f,
            "protocol: {} lost ACKs ({} recovered, {} aborted, {} retries), \
             {} stuck REQs ({} spurious samples), {} malformed; \
             clock: {} wake failures ({} retries, {} forced), {} stalls{}; \
             datapath: {} FIFO flips, {} FIFO drops, {} frame slips \
             ({} events)",
            self.lost_acks,
            self.acks_recovered,
            self.handshakes_aborted,
            self.ack_retries,
            self.stuck_requests,
            self.spurious_samples,
            self.malformed_transactions,
            self.wake_failures,
            self.wake_retries,
            self.forced_wakes,
            self.oscillator_stalls,
            if self.degraded { ", DEGRADED" } else { "" },
            self.fifo_bit_flips,
            self.fifo_drops,
            self.frame_slips,
            self.events_lost_to_slips,
        )
    }
}

/// Accumulates [`InterfaceHealthReport`] counters as a run progresses.
#[derive(Debug, Clone, Default)]
pub struct HealthMonitor {
    report: InterfaceHealthReport,
}

impl HealthMonitor {
    /// Creates a monitor with all counters at zero.
    pub fn new() -> HealthMonitor {
        HealthMonitor::default()
    }

    /// The report accumulated so far.
    pub fn report(&self) -> InterfaceHealthReport {
        self.report
    }

    /// Records a missed `ACK` edge.
    pub fn lost_ack(&mut self) {
        self.report.lost_acks += 1;
    }

    /// Records a watchdog `ACK` re-drive.
    pub fn ack_retry(&mut self) {
        self.report.ack_retries += 1;
    }

    /// Records a handshake completed by a re-driven `ACK`.
    pub fn ack_recovered(&mut self) {
        self.report.acks_recovered += 1;
    }

    /// Records a handshake abandoned after the retry budget.
    pub fn handshake_aborted(&mut self) {
        self.report.handshakes_aborted += 1;
    }

    /// Records a `REQ` stuck high.
    pub fn stuck_request(&mut self) {
        self.report.stuck_requests += 1;
    }

    /// Records a phantom sample discarded.
    pub fn spurious_sample(&mut self) {
        self.report.spurious_samples += 1;
    }

    /// Records a malformed transaction.
    pub fn malformed(&mut self) {
        self.report.malformed_transactions += 1;
    }

    /// Records a failed oscillator wake.
    pub fn wake_failure(&mut self) {
        self.report.wake_failures += 1;
    }

    /// Records a watchdog wake re-check.
    pub fn wake_retry(&mut self) {
        self.report.wake_retries += 1;
    }

    /// Records a forced (watchdog-driven) wake.
    pub fn forced_wake(&mut self) {
        self.report.forced_wakes += 1;
    }

    /// Records a scheduled oscillator stall firing.
    pub fn oscillator_stall(&mut self) {
        self.report.oscillator_stalls += 1;
    }

    /// Records a FIFO word upset.
    pub fn fifo_bit_flip(&mut self) {
        self.report.fifo_bit_flips += 1;
    }

    /// Records an event lost at a full FIFO, attributed to degraded
    /// mode when the watchdog fallback was active at the time.
    pub fn fifo_drop(&mut self, degraded: bool) {
        self.report.fifo_drops += 1;
        if degraded {
            self.report.fifo_drops_degraded += 1;
        } else {
            self.report.fifo_drops_overflow += 1;
        }
    }

    /// Records a slipped I2S frame carrying `events` events.
    pub fn frame_slip(&mut self, events: u64) {
        self.report.frame_slips += 1;
        self.report.events_lost_to_slips += events;
    }

    /// Records entry into degraded clocking.
    pub fn entered_degraded(&mut self) {
        self.report.degraded = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_roll_consumes_no_state() {
        let mut rng = FaultRng::new(7);
        let before = rng.clone();
        for _ in 0..100 {
            assert!(!rng.roll(0.0));
        }
        assert_eq!(rng, before, "p=0 must not advance the generator");
        assert!(rng.roll(1.0));
        assert_eq!(rng, before, "p=1 must not advance the generator either");
    }

    #[test]
    fn roll_frequency_tracks_probability() {
        let mut rng = FaultRng::new(123);
        let hits = (0..10_000).filter(|_| rng.roll(0.3)).count();
        let frac = hits as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "observed {frac}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = FaultRng::new(99);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            let v = rng.below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::nominal(5).with_rates(FaultRates::protocol(0.2));
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        for _ in 0..500 {
            assert_eq!(a.lose_ack(), b.lose_ack());
            assert_eq!(a.stick_req(), b.stick_req());
            assert_eq!(a.malform(), b.malform());
        }
    }

    #[test]
    fn per_class_streams_are_independent() {
        // Enabling a second class must not shift the first class's
        // decision sequence at the same seed.
        let only_ack = FaultPlan::nominal(11)
            .with_rates(FaultRates { lost_ack: 0.3, ..FaultRates::default() });
        let both = FaultPlan::nominal(11).with_rates(FaultRates {
            lost_ack: 0.3,
            fifo_bit_flip: 0.5,
            ..FaultRates::default()
        });
        let mut a = FaultInjector::new(&only_ack);
        let mut b = FaultInjector::new(&both);
        for _ in 0..200 {
            let _ = b.flip_fifo_bit(); // interleaved queries on the other class
            assert_eq!(a.lose_ack(), b.lose_ack());
        }
    }

    #[test]
    fn scheduled_faults_fire_once_in_order() {
        let plan = FaultPlan::nominal(0)
            .schedule(SimTime::from_us(20), FaultKind::StuckOscillator)
            .schedule(SimTime::from_us(5), FaultKind::StuckOscillator);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.due_scheduled(SimTime::from_us(1)), None);
        assert_eq!(inj.due_scheduled(SimTime::from_us(6)), Some(FaultKind::StuckOscillator));
        assert_eq!(inj.due_scheduled(SimTime::from_us(6)), None, "already fired");
        assert_eq!(inj.due_scheduled(SimTime::from_us(30)), Some(FaultKind::StuckOscillator));
        assert_eq!(inj.due_scheduled(SimTime::from_us(40)), None);
    }

    #[test]
    fn plan_validation() {
        assert!(FaultPlan::nominal(0).validate().is_ok());
        let bad =
            FaultPlan::nominal(0).with_rates(FaultRates { lost_ack: 1.5, ..FaultRates::default() });
        assert!(matches!(bad.validate(), Err(FaultPlanError::RateOutOfRange { .. })));
        let bad = FaultPlan::nominal(0).with_watchdog(WatchdogConfig {
            ack_timeout: SimDuration::ZERO,
            ..WatchdogConfig::default()
        });
        assert_eq!(bad.validate(), Err(FaultPlanError::ZeroTimeout));
        assert!(bad.validate().unwrap_err().to_string().contains("non-zero"));
    }

    #[test]
    fn zero_plan_is_zero() {
        assert!(FaultPlan::nominal(77).is_zero());
        assert!(!FaultPlan::nominal(0)
            .schedule(SimTime::ZERO, FaultKind::StuckOscillator)
            .is_zero());
        assert!(!FaultPlan::nominal(0).with_rates(FaultRates::datapath(0.1)).is_zero());
    }

    #[test]
    fn ack_backoff_doubles_and_saturates() {
        let wd = WatchdogConfig::default();
        assert_eq!(wd.ack_backoff(0), wd.ack_timeout);
        assert_eq!(wd.ack_backoff(1), wd.ack_timeout.saturating_mul(2));
        assert_eq!(wd.ack_backoff(3), wd.ack_timeout.saturating_mul(8));
        // Exponent clamps: enormous attempt counts do not overflow.
        assert_eq!(wd.ack_backoff(40), wd.ack_backoff(16));
    }

    #[test]
    fn health_report_display_and_classifiers() {
        let mut monitor = HealthMonitor::new();
        assert!(monitor.report().is_nominal());
        assert_eq!(monitor.report().to_string(), "nominal");
        monitor.lost_ack();
        monitor.ack_retry();
        monitor.ack_recovered();
        monitor.frame_slip(2);
        monitor.entered_degraded();
        let report = monitor.report();
        assert!(!report.is_nominal());
        assert_eq!(report.faults_injected(), 2, "lost ACK + frame slip");
        assert_eq!(report.events_lost(), 2);
        let text = report.to_string();
        assert!(text.contains("1 lost ACKs"), "{text}");
        assert!(text.contains("DEGRADED"), "{text}");
    }
}
