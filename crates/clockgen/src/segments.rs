//! Segment-table representation of the division schedule.
//!
//! Between two events, the sampling clock steps through a deterministic
//! sequence of *segments*: `θ_div` ticks at `T_min`, `θ_div` ticks at
//! `2·T_min`, ... until shutdown (or forever, depending on the
//! [`DivisionPolicy`]). Because that sequence restarts identically
//! after every event, it can be precomputed once as a table and every
//! inter-event interval quantized in O(segments) instead of O(ticks) —
//! this is what makes second-long sweeps at hundreds of kevt/s cheap.
//!
//! The cycle-accurate FSM in [`crate::fsm`] is the ground truth; the
//! equivalence of the two is property-tested there.

use serde::{Deserialize, Serialize};

use aetr_sim::time::SimDuration;

use crate::config::{ClockGenConfig, DivisionPolicy};

/// One constant-period stretch of the division schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Sampling-period multiplier over `T_min` (1, 2, 4, ... for the
    /// recursive policy).
    pub multiplier: u64,
    /// Number of sampling ticks in this segment.
    pub ticks: u64,
    /// Offset of the segment start from the last event's detection.
    pub start: SimDuration,
    /// The same offset as a counter value, in `T_min` units.
    pub start_ticks: u64,
    /// Offset of the segment's last tick (== start of the next).
    pub end: SimDuration,
}

/// What happens after the last finite segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tail {
    /// The clock is switched off; the counter freezes (saturated
    /// timestamps).
    Shutdown,
    /// The clock keeps ticking at `multiplier · T_min` forever.
    Infinite {
        /// Period multiplier of the everlasting tail.
        multiplier: u64,
    },
}

/// Result of quantizing one inter-event interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantizeOutcome {
    /// The event was sampled by a running clock.
    Sampled {
        /// Offset of the detecting tick from the last reset.
        detection_offset: SimDuration,
        /// Counter value at detection, in `T_min` units (this *is* the
        /// timestamp, before width clamping).
        ticks: u64,
    },
    /// The clock was off when the event arrived: the timestamp is the
    /// frozen (saturated) counter, and detection must wait for the
    /// oscillator to restart.
    Asleep {
        /// The frozen counter value, in `T_min` units.
        frozen_ticks: u64,
        /// Offset at which the clock switched off.
        off_since: SimDuration,
    },
}

/// Precomputed division schedule.
///
/// # Examples
///
/// ```
/// use aetr_clockgen::config::ClockGenConfig;
/// use aetr_clockgen::segments::SegmentTable;
///
/// let table = SegmentTable::new(&ClockGenConfig::prototype());
/// // θ=64, N=3: saturation after 64·(1+2+4+8) = 960 T_min ticks.
/// assert_eq!(table.max_counter(), Some(960));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentTable {
    base: SimDuration,
    segments: Vec<Segment>,
    tail: Tail,
}

impl SegmentTable {
    /// Builds the table for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate (construct via a
    /// validated [`ClockGenConfig`]).
    pub fn new(config: &ClockGenConfig) -> SegmentTable {
        config.validate().expect("segment table requires a valid configuration");
        let base = config.base_sampling_period();
        let theta = config.theta_div as u64;
        let multipliers: Vec<u64> = match config.policy {
            DivisionPolicy::Recursive | DivisionPolicy::DivideOnly => {
                (0..=config.n_div).map(|k| 1u64 << k).collect()
            }
            DivisionPolicy::Never => vec![1],
            DivisionPolicy::Linear => (0..=config.n_div).map(|k| k as u64 + 1).collect(),
        };
        let tail = match config.policy {
            DivisionPolicy::Recursive | DivisionPolicy::Linear => Tail::Shutdown,
            DivisionPolicy::DivideOnly | DivisionPolicy::Never => {
                Tail::Infinite { multiplier: *multipliers.last().expect("non-empty") }
            }
        };
        // For infinite tails, the last multiplier lives in the tail, not
        // a finite segment. For `Never`, there are no finite segments.
        let finite: &[u64] = match tail {
            Tail::Shutdown => &multipliers,
            Tail::Infinite { .. } => &multipliers[..multipliers.len() - 1],
        };
        let mut segments = Vec::with_capacity(finite.len());
        let mut offset = SimDuration::ZERO;
        let mut start_ticks = 0;
        for &m in finite {
            let len = base.saturating_mul(m).saturating_mul(theta);
            let seg = Segment {
                multiplier: m,
                ticks: theta,
                start: offset,
                start_ticks,
                end: offset + len,
            };
            offset = seg.end;
            start_ticks += m * theta;
            segments.push(seg);
        }
        SegmentTable { base, segments, tail }
    }

    /// The base sampling period `T_min`.
    pub fn base_period(&self) -> SimDuration {
        self.base
    }

    /// The finite segments, in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The post-segment behaviour.
    pub fn tail(&self) -> Tail {
        self.tail
    }

    /// Offset at which the clock shuts down, if it ever does.
    pub fn shutdown_offset(&self) -> Option<SimDuration> {
        match self.tail {
            Tail::Shutdown => Some(self.segments.last().map_or(SimDuration::ZERO, |s| s.end)),
            Tail::Infinite { .. } => None,
        }
    }

    /// The saturated counter value in `T_min` units (`None` for
    /// never-stopping policies, whose counter grows until the width
    /// clamp).
    pub fn max_counter(&self) -> Option<u64> {
        self.shutdown_offset().map(|off| off / self.base)
    }

    /// The longest interval measurable without saturation (the paper's
    /// "maximum time interval the interface is able to measure", §5.2).
    pub fn max_measurable(&self) -> Option<SimDuration> {
        self.shutdown_offset()
    }

    /// Quantizes the interval from the last event's detection (counter
    /// reset) to the next request.
    ///
    /// Inside a finite segment this costs one division: the detecting
    /// tick index `j` within the segment, from which both the offset and
    /// the counter value follow by multiply-add.
    pub fn quantize(&self, delta: SimDuration) -> QuantizeOutcome {
        // Segments tile `[0, shutdown]`, so the first one whose end is at
        // or after `delta` also starts at or before it.
        if let Some(seg) = self.segments.iter().find(|seg| delta <= seg.end) {
            let step = self.base.saturating_mul(seg.multiplier);
            // `j = 0` only at the reset instant (a request on a later
            // boundary belongs to the earlier segment's last tick): the
            // first tick is then one period away.
            let j = (delta - seg.start).as_ps().div_ceil(step.as_ps()).max(1);
            return QuantizeOutcome::Sampled {
                detection_offset: seg.start + step.saturating_mul(j),
                ticks: seg.start_ticks + seg.multiplier * j,
            };
        }
        match self.tail {
            Tail::Shutdown => {
                let off = self.shutdown_offset().expect("shutdown tail has an offset");
                QuantizeOutcome::Asleep { frozen_ticks: off / self.base, off_since: off }
            }
            Tail::Infinite { multiplier } => {
                let start = self.segments.last().map_or(SimDuration::ZERO, |s| s.end);
                let step = self.base.saturating_mul(multiplier);
                let j = (delta - start).as_ps().div_ceil(step.as_ps()).max(1);
                let offset = start + step.saturating_mul(j);
                QuantizeOutcome::Sampled { detection_offset: offset, ticks: offset / self.base }
            }
        }
    }

    /// Splits the busy interval `[0, until]` after a reset into
    /// per-multiplier active time plus off time — the input to the
    /// power model.
    pub fn usage_until(&self, until: SimDuration) -> IntervalUsage {
        let mut usage = IntervalUsage::default();
        self.accumulate_usage(until, &mut usage);
        usage
    }

    /// Adds the usage of the busy interval `[0, until]` to `usage` in
    /// place — what [`usage_until`](Self::usage_until) returns, merged
    /// without building a record of its own.
    pub fn accumulate_usage(&self, until: SimDuration, usage: &mut IntervalUsage) {
        for seg in &self.segments {
            if until <= seg.start {
                return;
            }
            usage.add_active(seg.multiplier, until.min(seg.end) - seg.start);
        }
        let tail_start = self.segments.last().map_or(SimDuration::ZERO, |s| s.end);
        if until > tail_start {
            match self.tail {
                Tail::Shutdown => usage.off += until - tail_start,
                Tail::Infinite { multiplier } => usage.add_active(multiplier, until - tail_start),
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn proto() -> ClockGenConfig {
        ClockGenConfig::prototype()
    }

    fn base() -> SimDuration {
        proto().base_sampling_period()
    }

    #[test]
    fn recursive_table_layout() {
        let t = SegmentTable::new(&proto());
        assert_eq!(t.segments().len(), 4); // k = 0..=3
        let mults: Vec<u64> = t.segments().iter().map(|s| s.multiplier).collect();
        assert_eq!(mults, vec![1, 2, 4, 8]);
        assert_eq!(t.tail(), Tail::Shutdown);
        // Boundaries: 64·T, 64·3T, 64·7T, 64·15T.
        assert_eq!(t.segments()[0].end, base() * 64);
        assert_eq!(t.segments()[3].end, base() * (64 * 15));
        assert_eq!(t.max_counter(), Some(64 * 15));
    }

    #[test]
    fn never_policy_is_one_infinite_segment() {
        let t = SegmentTable::new(&proto().with_policy(DivisionPolicy::Never));
        assert!(t.segments().is_empty());
        assert_eq!(t.tail(), Tail::Infinite { multiplier: 1 });
        assert_eq!(t.max_counter(), None);
    }

    #[test]
    fn divide_only_ends_in_infinite_tail() {
        let t = SegmentTable::new(&proto().with_policy(DivisionPolicy::DivideOnly));
        assert_eq!(t.segments().len(), 3); // 1, 2, 4 finite; 8 infinite
        assert_eq!(t.tail(), Tail::Infinite { multiplier: 8 });
    }

    #[test]
    fn linear_policy_multipliers() {
        let t = SegmentTable::new(&proto().with_policy(DivisionPolicy::Linear));
        let mults: Vec<u64> = t.segments().iter().map(|s| s.multiplier).collect();
        assert_eq!(mults, vec![1, 2, 3, 4]);
        assert_eq!(t.tail(), Tail::Shutdown);
    }

    #[test]
    fn quantize_in_first_segment_rounds_up_to_tick() {
        let t = SegmentTable::new(&proto());
        // delta = 1.5 base periods -> detected at tick 2.
        let delta = base() + base() / 2;
        match t.quantize(delta) {
            QuantizeOutcome::Sampled { detection_offset, ticks } => {
                assert_eq!(detection_offset, base() * 2);
                assert_eq!(ticks, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantize_zero_delta_takes_first_tick() {
        let t = SegmentTable::new(&proto());
        match t.quantize(SimDuration::ZERO) {
            QuantizeOutcome::Sampled { detection_offset, ticks } => {
                assert_eq!(detection_offset, base());
                assert_eq!(ticks, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantize_exact_tick_is_exact() {
        let t = SegmentTable::new(&proto());
        let delta = base() * 17;
        match t.quantize(delta) {
            QuantizeOutcome::Sampled { detection_offset, ticks } => {
                assert_eq!(detection_offset, delta);
                assert_eq!(ticks, 17);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantize_in_divided_segment_has_coarser_grid() {
        let t = SegmentTable::new(&proto());
        // Just past the first division boundary (64 ticks): grid is 2·T.
        let delta = base() * 64 + SimDuration::from_ps(1);
        match t.quantize(delta) {
            QuantizeOutcome::Sampled { detection_offset, ticks } => {
                assert_eq!(detection_offset, base() * 66);
                assert_eq!(ticks, 66);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantize_on_boundary_belongs_to_boundary_tick() {
        let t = SegmentTable::new(&proto());
        let boundary = t.segments()[0].end; // 64·T
        match t.quantize(boundary) {
            QuantizeOutcome::Sampled { detection_offset, ticks } => {
                assert_eq!(detection_offset, boundary);
                assert_eq!(ticks, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantize_past_shutdown_saturates() {
        let t = SegmentTable::new(&proto());
        let beyond = t.shutdown_offset().unwrap() + SimDuration::from_ms(5);
        match t.quantize(beyond) {
            QuantizeOutcome::Asleep { frozen_ticks, off_since } => {
                assert_eq!(frozen_ticks, 64 * 15);
                assert_eq!(off_since, t.shutdown_offset().unwrap());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn never_policy_never_saturates() {
        let t = SegmentTable::new(&proto().with_policy(DivisionPolicy::Never));
        let big = SimDuration::from_secs(1);
        match t.quantize(big) {
            QuantizeOutcome::Sampled { ticks, .. } => {
                // 1 s / 66.56 us... base is ~66.66 us? base ~66,656 ps
                let expected = big.as_ps().div_ceil(t.base_period().as_ps());
                assert_eq!(ticks, expected);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn usage_splits_across_segments_and_off() {
        let t = SegmentTable::new(&proto());
        let shutdown = t.shutdown_offset().unwrap();
        let until = shutdown + SimDuration::from_ms(1);
        let usage = t.usage_until(until);
        assert_eq!(usage.off, SimDuration::from_ms(1));
        assert_eq!(usage.active.len(), 4);
        assert_eq!(usage.total(), until);
        // Active spans are theta·m·base each.
        for (i, &(m, d)) in usage.active.iter().enumerate() {
            assert_eq!(m, 1 << i);
            assert_eq!(d, t.base_period() * 64 * m);
        }
    }

    #[test]
    fn usage_partial_first_segment() {
        let t = SegmentTable::new(&proto());
        let until = t.base_period() * 10;
        let usage = t.usage_until(until);
        assert_eq!(usage.active, vec![(1, until)]);
        assert_eq!(usage.off, SimDuration::ZERO);
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
}
