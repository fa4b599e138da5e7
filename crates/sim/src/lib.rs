//! # aetr-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the AETR reproduction: integer-picosecond time
//! ([`time`]), a deterministic event queue with stable tie-breaking,
//! sized for the handful of events a DES keeps pending ([`queue`]: O(1)
//! schedule, O(pending) pop), signal tracing ([`trace`]),
//! VCD waveform export ([`vcd`]), and a deterministic parallel executor
//! for independent sweep points ([`parallel`]).
//!
//! Each simulation is single-threaded and allocation-light by design:
//! the DAC'17 experiments must be exactly reproducible, so the kernel
//! admits no source of nondeterminism. Parallelism exists only *across*
//! independently seeded simulations, and [`parallel::par_map`] returns
//! results in input order so a parallel sweep is bit-identical to the
//! sequential one.
//!
//! # Examples
//!
//! Simulate a free-running clock and dump its waveform:
//!
//! ```
//! use aetr_sim::queue::EventQueue;
//! use aetr_sim::time::{Frequency, SimTime};
//! use aetr_sim::trace::{TraceValue, Tracer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let period = Frequency::from_mhz(30).period();
//! let mut queue = EventQueue::new();
//! let mut tracer = Tracer::new();
//! let clk = tracer.declare_bit("clk", "top");
//!
//! queue.schedule_at(SimTime::ZERO, false)?;
//! while let Some((t, level)) = queue.pop() {
//!     tracer.record(t, clk, TraceValue::Bit(level));
//!     if t < SimTime::from_ns(500) {
//!         queue.schedule_after(period / 2, !level)?;
//!     }
//! }
//!
//! let mut vcd = Vec::new();
//! aetr_sim::vcd::write_vcd(&tracer, &mut vcd)?;
//! assert!(!tracer.edges_to(clk, true).is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parallel;
pub mod queue;
pub mod stats;
pub mod time;
pub mod trace;
pub mod vcd;

pub use parallel::{available_jobs, par_map};
pub use queue::{EventQueue, SchedulePastError};
pub use stats::OnlineStats;
pub use time::{Frequency, SimDuration, SimTime};
pub use trace::{TraceValue, Tracer};

#[cfg(test)]
mod proptests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use crate::queue::{EventQueue, SchedulePastError};
    use crate::time::{SimDuration, SimTime};

    proptest! {
        /// Popping always yields a non-decreasing time sequence,
        /// regardless of the order events were scheduled in.
        #[test]
        fn pops_are_monotonic(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule_at(SimTime::from_ps(t), t).unwrap();
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Every scheduled event pops exactly once.
        #[test]
        fn conservation_of_events(times in proptest::collection::vec(0u64..1_000, 0..100)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule_at(SimTime::from_ps(t), i).unwrap();
            }
            let mut popped: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, i)| i).collect();
            popped.sort_unstable();
            prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
        }

        /// The scan queue matches a `(time, seq)`-ordered reference model
        /// under random interleavings of `schedule_at`, `schedule_after`
        /// (zero delay included), `pop`, `peek_time`, `advance_to` and
        /// past-time schedules: identical pop streams, errors, `now`,
        /// `len` and `ops` at every step. Delays of 0–3 ps make
        /// same-instant ties the common case.
        #[test]
        fn scan_queue_matches_reference_model(
            ops in proptest::collection::vec((0u8..12, 0u64..1_000), 1..400),
        ) {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
            let (mut now, mut seq, mut n_ops) = (SimTime::ZERO, 0u64, 0u64);
            for &(sel, param) in &ops {
                let delay = SimDuration::from_ps(param % 4);
                match sel {
                    // Schedule at or after now, or (absolute) possibly in the past.
                    0..=4 => {
                        let at = match sel {
                            0 | 1 => now + delay,
                            2 => SimTime::from_ps(param % 64),
                            _ => SimTime::from_ps(now.as_ps().saturating_sub(1 + param % 4)),
                        };
                        let got = q.schedule_at(at, seq);
                        if at < now {
                            prop_assert_eq!(got, Err(SchedulePastError { now, requested: at }));
                        } else {
                            prop_assert_eq!(got, Ok(()));
                            model.insert((at, seq), seq);
                            seq += 1;
                            n_ops += 1;
                        }
                    }
                    5 | 6 => {
                        prop_assert_eq!(q.schedule_after(delay, seq), Ok(()));
                        model.insert((now + delay, seq), seq);
                        seq += 1;
                        n_ops += 1;
                    }
                    7..=9 => {
                        let want = model.pop_first().map(|((t, _), ev)| (t, ev));
                        prop_assert_eq!(q.pop(), want);
                        if let Some((t, _)) = want {
                            now = t;
                            n_ops += 1;
                        }
                    }
                    10 => {
                        let due = model.keys().next().map(|&(t, _)| t);
                        prop_assert_eq!(q.peek_time(), due);
                    }
                    // Advance no further than the next pending event.
                    _ => {
                        let due = model.keys().next().map_or(SimTime::MAX, |&(t, _)| t);
                        now = (now + delay).min(due);
                        q.advance_to(now);
                    }
                }
                prop_assert_eq!(q.now(), now);
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.ops(), n_ops);
            }
            // Draining pops the survivors in exact (time, seq) order.
            let drained: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
            let remaining: Vec<(SimTime, u64)> = model.into_iter().map(|((t, _), ev)| (t, ev)).collect();
            prop_assert_eq!(drained, remaining);
        }

        /// A queue plus its register pops exactly what one plain queue
        /// holding every event pops, under random interleavings of
        /// `schedule_at`, `schedule_after`, register schedules, `pop`,
        /// `peek_time` and `advance_to`: identical pop streams, `now`
        /// and `len` at every step, and the plain queue's op count split
        /// into real ops, register schedules and register pops. Delays
        /// of 0–3 ps make same-instant ties the common case.
        #[test]
        fn register_matches_single_queue(
            ops in proptest::collection::vec((0u8..10, 0u64..1_000), 1..400),
        ) {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut plain: EventQueue<u64> = EventQueue::new();
            // The register's event, while pending; `id` numbers events.
            let (mut in_register, mut id, mut register_schedules) = (None, 0u64, 0u64);
            for &(sel, param) in &ops {
                let delay = SimDuration::from_ps(param % 4);
                let now = q.now();
                match sel {
                    0 | 1 => {
                        prop_assert_eq!(q.schedule_at(now + delay, id), Ok(()));
                        plain.schedule_at(now + delay, id).unwrap();
                        id += 1;
                    }
                    2 => {
                        prop_assert_eq!(q.schedule_after(delay, id), Ok(()));
                        plain.schedule_after(delay, id).unwrap();
                        id += 1;
                    }
                    // A register schedule when it is free.
                    3 | 4 if in_register.is_none() => {
                        prop_assert_eq!(q.schedule_register_at(now + delay, id), Ok(()));
                        plain.schedule_at(now + delay, id).unwrap();
                        in_register = Some(id);
                        register_schedules += 1;
                        id += 1;
                    }
                    3..=6 => {
                        let got = q.pop();
                        prop_assert_eq!(got, plain.pop());
                        if got.is_some_and(|(_, ev)| Some(ev) == in_register) {
                            in_register = None;
                        }
                    }
                    7 => prop_assert_eq!(q.peek_time(), plain.peek_time()),
                    // Advance no further than the next pending event.
                    _ => {
                        let to = (now + delay).min(plain.peek_time().unwrap_or(SimTime::MAX));
                        q.advance_to(to);
                        plain.advance_to(to);
                    }
                }
                prop_assert_eq!(q.now(), plain.now());
                prop_assert_eq!(q.len(), plain.len());
                prop_assert_eq!(q.ops() + register_schedules + q.register_pops(), plain.ops());
            }
            let drained: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
            let remaining: Vec<(SimTime, u64)> = std::iter::from_fn(|| plain.pop()).collect();
            prop_assert_eq!(drained, remaining);
        }

        /// Duration arithmetic: (a + b) - b == a for non-overflowing pairs.
        #[test]
        fn duration_add_sub_roundtrip(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let da = SimDuration::from_ps(a);
            let db = SimDuration::from_ps(b);
            prop_assert_eq!((da + db) - db, da);
        }

        /// Frequency→period→frequency round-trip stays within the
        /// truncation error of one picosecond of period.
        #[test]
        fn frequency_period_roundtrip(hz in 1_000u64..500_000_000) {
            let f = crate::time::Frequency::from_hz(hz);
            let p = f.period();
            let back = p.to_frequency();
            // back >= f because period truncates; error bounded by one
            // period quantum.
            prop_assert!(back >= f);
            let p2 = SimDuration::from_ps(p.as_ps() + 1);
            prop_assert!(p2.to_frequency() <= f);
        }
    }
}
