//! A deterministic discrete-event queue.
//!
//! The queue orders events by `(time, sequence number)`: two events
//! scheduled for the same instant pop in the order they were scheduled.
//! This guarantees that a simulation is a pure function of its inputs —
//! an essential property for reproducing the paper's experiments, which
//! must give identical numbers on every run with the same seed.
//!
//! # Sized for a handful of pending events
//!
//! The pending events sit in an unsorted `Vec`. Scheduling pushes an
//! entry; [`pop`](EventQueue::pop) and
//! [`peek_time`](EventQueue::peek_time) scan for the minimum
//! `(time, seq)`, and `pop` removes it with `swap_remove`. Scheduling is
//! O(1) and popping is O(pending). The AETR interface keeps at most
//! two events pending in the `Vec` (the next request and the frame in
//! flight), and at that depth a short linear scan beats any heap. A
//! caller that keeps thousands of events pending should use a heap
//! instead.
//!
//! # The register
//!
//! A self-rescheduling event — a clock edge that schedules its own
//! successor — is pending on every step of the simulation. Instead of
//! cycling it through the `Vec`, the queue holds it in a one-entry
//! register ([`schedule_register_at`](EventQueue::schedule_register_at)).
//! The register takes its sequence number from the same counter, and
//! `pop` merges it with the scan by the same `(time, seq)` key, so the
//! pop order is exactly that of one queue holding every event. Register
//! schedules and pops are not counted in [`ops`](EventQueue::ops);
//! register pops are counted in
//! [`register_pops`](EventQueue::register_pops).

use std::error::Error;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Error returned when scheduling an event in the simulated past.
///
/// A discrete-event simulation must never travel backwards; allowing it
/// silently would reorder causality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePastError {
    /// The current simulation time.
    pub now: SimTime,
    /// The (invalid) requested activation time.
    pub requested: SimTime,
}

impl fmt::Display for SchedulePastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot schedule event at {} in the past of simulation time {}",
            self.requested, self.now
        )
    }
}

impl Error for SchedulePastError {}

/// One pending event with its ordering key.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// A monotonic, deterministic event queue over an arbitrary event type.
///
/// # Examples
///
/// ```
/// use aetr_sim::queue::EventQueue;
/// use aetr_sim::time::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut q = EventQueue::new();
/// q.schedule_after(SimDuration::from_ns(10), "b")?;
/// q.schedule_at(SimTime::from_ns(5), "a")?;
///
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), "a")));
/// assert_eq!(q.now(), SimTime::from_ns(5));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(10), "b")));
/// assert_eq!(q.pop(), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    pending: Vec<Entry<E>>,
    /// The one self-rescheduling event, kept out of `pending`.
    register: Option<Entry<E>>,
    now: SimTime,
    next_seq: u64,
    ops: u64,
    register_pops: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` concurrently
    /// pending events before any allocation.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            pending: Vec::with_capacity(capacity),
            register: None,
            now: SimTime::ZERO,
            next_seq: 0,
            ops: 0,
            register_pops: 0,
        }
    }

    /// Lifetime count of queue operations: successful schedules plus
    /// pops that returned an event, the register's excluded.
    ///
    /// This is the denominator for the telemetry profiling hook "queue
    /// ops per wall-clock second"; it is monotone.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Lifetime count of events popped from the register.
    pub fn register_pops(&self) -> u64 {
        self.register_pops
    }

    /// Current simulation time: the activation time of the most recently
    /// popped event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of scheduled events not yet popped, the register's
    /// included.
    pub fn len(&self) -> usize {
        self.pending.len() + usize::from(self.register.is_some())
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty() && self.register.is_none()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulePastError`] if `at` is earlier than [`now`].
    /// Scheduling exactly *at* the current time is allowed (a delta
    /// event) and pops after all already-queued events at that instant.
    ///
    /// [`now`]: EventQueue::now
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> Result<(), SchedulePastError> {
        if at < self.now {
            return Err(SchedulePastError { now: self.now, requested: at });
        }
        self.pending.push(Entry { time: at, seq: self.next_seq, event });
        self.next_seq += 1;
        self.ops += 1;
        Ok(())
    }

    /// Schedules `event` a relative `delay` after the current time.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulePastError`] only if `now + delay` overflows the
    /// timeline (treated as scheduling at an unreachable instant).
    pub fn schedule_after(
        &mut self,
        delay: SimDuration,
        event: E,
    ) -> Result<(), SchedulePastError> {
        let at = self
            .now
            .checked_add(delay)
            .ok_or(SchedulePastError { now: self.now, requested: SimTime::MAX })?;
        self.schedule_at(at, event)
    }

    /// Schedules `event` at absolute time `at` in the register, the
    /// one slot for a self-rescheduling event.
    ///
    /// It takes the next sequence number exactly as
    /// [`schedule_at`](Self::schedule_at) would, so it pops where the
    /// same call to `schedule_at` would have put it. It is not an op.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulePastError`] if `at` is earlier than
    /// [`now`](Self::now).
    ///
    /// # Panics
    ///
    /// Panics if the register already holds an event.
    pub fn schedule_register_at(&mut self, at: SimTime, event: E) -> Result<(), SchedulePastError> {
        if at < self.now {
            return Err(SchedulePastError { now: self.now, requested: at });
        }
        assert!(self.register.is_none(), "the event-queue register is already occupied");
        self.register = Some(Entry { time: at, seq: self.next_seq, event });
        self.next_seq += 1;
        Ok(())
    }

    /// Pops the earliest event, register included (schedule order
    /// breaks ties), advancing the simulation clock to its activation
    /// time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let next = self
            .pending
            .iter()
            .enumerate()
            .map(|(i, e)| (e.time, e.seq, i))
            .min_by_key(|&(time, seq, _)| (time, seq));
        let from_register = match (&self.register, next) {
            (Some(r), Some((time, seq, _))) => (r.time, r.seq) < (time, seq),
            (register, _) => register.is_some(),
        };
        let Entry { time, event, .. } = if from_register {
            self.register_pops += 1;
            self.register.take().expect("checked occupied")
        } else {
            let (_, _, i) = next?;
            self.ops += 1;
            self.pending.swap_remove(i)
        };
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        Some((time, event))
    }

    /// Activation time of the next event, register included, without
    /// popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.pending.iter().chain(&self.register).map(|e| e.time).min()
    }

    /// Advances the clock to `t` without popping anything.
    ///
    /// This is the fast-forward path's analogue of popping a
    /// self-rescheduling event at `t` and discarding it: batch-advance
    /// consumers (the interface's analytic idle fast-forward) replace a
    /// run of tick events with a closed-form jump, but downstream
    /// bookkeeping still reads [`now`](EventQueue::now) as "the instant
    /// the simulation last acted at".
    ///
    /// Does not count as an op — skipped work is the whole point.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past: the clock is monotone.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot advance the clock backwards from {} to {}", self.now, t);
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(30), 3).unwrap();
        q.schedule_at(SimTime::from_ns(10), 1).unwrap();
        q.schedule_at(SimTime::from_ns(20), 2).unwrap();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(7);
        for i in 0..10 {
            q.schedule_at(t, i).unwrap();
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_scheduling_in_the_past() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), ()).unwrap();
        q.pop();
        let err = q.schedule_at(SimTime::from_ns(5), ()).unwrap_err();
        assert_eq!(err.now, SimTime::from_ns(10));
        assert_eq!(err.requested, SimTime::from_ns(5));
        assert!(err.to_string().contains("in the past"));
    }

    #[test]
    fn delta_events_at_now_are_allowed() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), "first").unwrap();
        q.pop();
        q.schedule_at(SimTime::from_ns(10), "delta").unwrap();
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), "delta")));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(100), ()).unwrap();
        q.pop();
        q.schedule_after(SimDuration::from_ns(50), ()).unwrap();
        assert_eq!(q.pop().unwrap().0, SimTime::from_ns(150));
    }

    #[test]
    fn len_and_is_empty_track_pops() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime::from_ns(1), ()).unwrap();
        q.schedule_at(SimTime::from_ns(2), ()).unwrap();
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ops_counts_schedules_and_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.ops(), 0);
        q.schedule_at(SimTime::from_ns(1), ()).unwrap();
        q.schedule_at(SimTime::from_ns(2), ()).unwrap();
        assert_eq!(q.ops(), 2);
        q.pop();
        assert_eq!(q.ops(), 3);
        assert!(q.schedule_at(SimTime::ZERO, ()).is_err());
        assert_eq!(q.ops(), 3, "a rejected schedule is not an op");
        q.pop();
        assert_eq!(q.pop(), None);
        assert_eq!(q.ops(), 4, "popping nothing is not an op");
    }

    #[test]
    fn overflow_schedule_after_errors() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at(SimTime::MAX - SimDuration::from_ns(1), ()).unwrap();
        q.pop();
        assert!(q.schedule_after(SimDuration::MAX, ()).is_err());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.is_empty());
        q.schedule_at(SimTime::from_ns(3), "x").unwrap();
        assert_eq!(q.pop(), Some((SimTime::from_ns(3), "x")));
    }

    #[test]
    fn peek_returns_what_pop_would() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(9), "late").unwrap();
        q.schedule_at(SimTime::from_ns(2), "early").unwrap();
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(2)));
        assert_eq!(q.now(), SimTime::ZERO, "peek does not advance the clock");
        assert_eq!(q.ops(), 2, "peek is not an op");
        assert_eq!(q.pop(), Some((SimTime::from_ns(2), "early")));
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(9)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_resolves_ties_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(4);
        q.schedule_at(SimTime::from_ns(6), "later").unwrap();
        q.schedule_at(t, "first").unwrap();
        q.schedule_at(t, "second").unwrap();
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop(), Some((t, "first")));
        assert_eq!(q.peek_time(), Some(t), "the tied event is still due");
        assert_eq!(q.pop(), Some((t, "second")));
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(6)));
    }

    #[test]
    fn advance_to_moves_the_clock_without_popping() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(50), "ev").unwrap();
        let ops = q.ops();
        q.advance_to(SimTime::from_ns(30));
        assert_eq!(q.now(), SimTime::from_ns(30));
        assert_eq!(q.len(), 1, "nothing popped");
        assert_eq!(q.ops(), ops, "advance is not an op");
        q.advance_to(SimTime::from_ns(30)); // idempotent at the same instant
        assert_eq!(q.pop(), Some((SimTime::from_ns(50), "ev")));
        // The clock really moved: the past is now rejected.
        assert!(q.schedule_at(SimTime::from_ns(40), "late").is_err());
    }

    #[test]
    fn register_ties_with_the_queue_in_schedule_order() {
        let t = SimTime::from_ns(5);
        // Register scheduled first: it pops first.
        let mut q = EventQueue::new();
        q.schedule_register_at(t, "edge").unwrap();
        q.schedule_at(t, "req").unwrap();
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop(), Some((t, "edge")));
        assert_eq!(q.pop(), Some((t, "req")));
        // Queue scheduled first: it pops first.
        let mut q = EventQueue::new();
        q.schedule_at(t, "req").unwrap();
        q.schedule_register_at(t, "edge").unwrap();
        assert_eq!(q.pop(), Some((t, "req")));
        assert_eq!(q.pop(), Some((t, "edge")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn register_on_an_empty_queue() {
        let mut q = EventQueue::new();
        q.schedule_register_at(SimTime::from_ns(8), "edge").unwrap();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(8)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(8), "edge")));
        assert_eq!(q.now(), SimTime::from_ns(8), "a register pop advances the clock");
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // The register is free again, and rejects the past.
        assert!(q.schedule_register_at(SimTime::from_ns(7), "late").is_err());
        q.schedule_register_at(SimTime::from_ns(8), "delta").unwrap();
        assert_eq!(q.pop(), Some((SimTime::from_ns(8), "delta")));
    }

    #[test]
    #[should_panic(expected = "register is already occupied")]
    fn second_register_schedule_panics() {
        let mut q = EventQueue::new();
        q.schedule_register_at(SimTime::from_ns(1), ()).unwrap();
        let _ = q.schedule_register_at(SimTime::from_ns(2), ());
    }

    #[test]
    fn register_operations_are_not_ops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(3), "req").unwrap();
        q.schedule_register_at(SimTime::from_ns(1), "edge").unwrap();
        assert_eq!(q.ops(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), "edge")));
        assert_eq!((q.ops(), q.register_pops()), (1, 1));
        assert_eq!(q.pop(), Some((SimTime::from_ns(3), "req")));
        assert_eq!((q.ops(), q.register_pops()), (2, 1));
    }

    #[test]
    #[should_panic(expected = "advance the clock backwards")]
    fn advance_to_rejects_the_past() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_ns(10));
        q.advance_to(SimTime::from_ns(9));
    }
}
