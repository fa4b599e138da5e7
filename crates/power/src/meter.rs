//! An integrating power meter for discrete-event simulation.
//!
//! The behavioral engine accounts activity analytically; the full DES
//! interface instead *narrates* its activity to a [`PowerMeter`] as it
//! happens — "clock now at multiplier 4", "event processed", "clock
//! off" — and the meter integrates an [`ActivityInput`] that the
//! [`PowerModel`](crate::model::PowerModel) can evaluate. This keeps
//! the two power paths comparable by construction.

use serde::{Deserialize, Serialize};

use aetr_sim::time::{SimDuration, SimTime};

use crate::model::ActivityInput;

/// Current clock state as seen by the meter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum ClockState {
    /// Running at a period multiplier.
    Active(u64),
    /// Switched off.
    Off,
}

/// Integrates clock activity, events and wakes over simulation time.
///
/// # Examples
///
/// ```
/// use aetr_power::meter::PowerMeter;
/// use aetr_power::model::PowerModel;
/// use aetr_sim::time::SimTime;
///
/// let mut meter = PowerMeter::new(SimTime::ZERO);
/// meter.clock_multiplier(SimTime::ZERO, 1);
/// meter.clock_off(SimTime::from_ms(1));
/// meter.event(2);
/// let activity = meter.finish(SimTime::from_ms(2));
/// let report = PowerModel::igloo_nano().evaluate(&activity);
/// assert!(report.total.as_microwatts() > 50.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerMeter {
    activity: ActivityInput,
    state: ClockState,
    last_change: SimTime,
}

impl PowerMeter {
    /// Creates a meter starting at `start` with the clock off.
    pub fn new(start: SimTime) -> PowerMeter {
        PowerMeter {
            activity: ActivityInput::default(),
            state: ClockState::Off,
            last_change: start,
        }
    }

    fn accrue(&mut self, now: SimTime) {
        let span = now.saturating_duration_since(self.last_change);
        if !span.is_zero() {
            match self.state {
                ClockState::Active(m) => add_active(&mut self.activity, m, span),
                ClockState::Off => self.activity.off += span,
            }
        }
        self.last_change = now;
    }

    /// Records a clock (re)configuration to period multiplier
    /// `multiplier` at time `now`.
    ///
    /// Re-announcing the multiplier already in force is a no-op: the
    /// open interval simply continues, and because the residency sums
    /// are integer, [`finish`](Self::finish) returns the same activity
    /// as if the interval had been split here.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is zero or `now` precedes an earlier
    /// notification.
    pub fn clock_multiplier(&mut self, now: SimTime, multiplier: u64) {
        assert!(multiplier > 0, "multiplier must be non-zero");
        assert!(now >= self.last_change, "meter notified out of order");
        if self.state == ClockState::Active(multiplier) {
            return;
        }
        self.accrue(now);
        self.state = ClockState::Active(multiplier);
    }

    /// Records the clock switching off at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes an earlier notification.
    pub fn clock_off(&mut self, now: SimTime) {
        assert!(now >= self.last_change, "meter notified out of order");
        self.accrue(now);
        self.state = ClockState::Off;
    }

    /// Records a ring-oscillator wake.
    pub fn wake(&mut self) {
        self.activity.wake_count += 1;
    }

    /// Records `count` processed events.
    pub fn event(&mut self, count: u64) {
        self.activity.event_count += count;
    }

    /// Closes the record at `horizon` and returns the accumulated
    /// activity.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` precedes an earlier notification.
    pub fn finish(mut self, horizon: SimTime) -> ActivityInput {
        assert!(horizon >= self.last_change, "meter finished before its last notification");
        self.accrue(horizon);
        self.activity
    }
}

fn add_active(activity: &mut ActivityInput, multiplier: u64, span: SimDuration) {
    match activity.active.binary_search_by_key(&multiplier, |&(m, _)| m) {
        Ok(i) => activity.active[i].1 += span,
        Err(i) => activity.active.insert(i, (multiplier, span)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_state_changes() {
        let mut meter = PowerMeter::new(SimTime::ZERO);
        meter.clock_multiplier(SimTime::ZERO, 1);
        meter.clock_multiplier(SimTime::from_us(10), 2);
        meter.clock_off(SimTime::from_us(30));
        let activity = meter.finish(SimTime::from_us(100));
        assert_eq!(
            activity.active,
            vec![(1, SimDuration::from_us(10)), (2, SimDuration::from_us(20))]
        );
        assert_eq!(activity.off, SimDuration::from_us(70));
        assert_eq!(activity.span(), SimDuration::from_us(100));
    }

    #[test]
    fn starts_off_until_first_notification() {
        let mut meter = PowerMeter::new(SimTime::ZERO);
        meter.clock_multiplier(SimTime::from_us(5), 1);
        let activity = meter.finish(SimTime::from_us(10));
        assert_eq!(activity.off, SimDuration::from_us(5));
        assert_eq!(activity.active, vec![(1, SimDuration::from_us(5))]);
    }

    #[test]
    fn repeated_same_multiplier_merges() {
        let mut meter = PowerMeter::new(SimTime::ZERO);
        meter.clock_multiplier(SimTime::ZERO, 1);
        meter.clock_off(SimTime::from_us(1));
        meter.clock_multiplier(SimTime::from_us(2), 1);
        let activity = meter.finish(SimTime::from_us(3));
        assert_eq!(activity.active, vec![(1, SimDuration::from_us(2))]);
        assert_eq!(activity.off, SimDuration::from_us(1));
    }

    #[test]
    fn repeating_the_multiplier_in_force_changes_nothing() {
        let run = |repeat: bool| {
            let mut meter = PowerMeter::new(SimTime::ZERO);
            meter.clock_multiplier(SimTime::ZERO, 1);
            if repeat {
                meter.clock_multiplier(SimTime::from_us(3), 1);
            }
            meter.clock_multiplier(SimTime::from_us(5), 2);
            if repeat {
                meter.clock_multiplier(SimTime::from_us(7), 2);
                meter.clock_multiplier(SimTime::from_us(7), 2);
            }
            meter.clock_off(SimTime::from_us(9));
            meter.finish(SimTime::from_us(10))
        };
        assert_eq!(run(true), run(false));
        assert_eq!(
            run(true).active,
            vec![(1, SimDuration::from_us(5)), (2, SimDuration::from_us(4))]
        );
    }

    #[test]
    fn counts_events_and_wakes() {
        let mut meter = PowerMeter::new(SimTime::ZERO);
        meter.event(3);
        meter.wake();
        meter.event(1);
        let activity = meter.finish(SimTime::from_us(1));
        assert_eq!(activity.event_count, 4);
        assert_eq!(activity.wake_count, 1);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_notification_panics() {
        let mut meter = PowerMeter::new(SimTime::from_us(10));
        meter.clock_multiplier(SimTime::from_us(5), 1);
    }
}
