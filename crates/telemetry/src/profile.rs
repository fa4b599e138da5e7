//! Wall-clock profiling hooks.
//!
//! The DES kernel's throughput (simulated events per wall-clock second,
//! event-queue operations per second) is the denominator of every bench
//! regression hunt. The profiler wraps `std::time::Instant`, so its
//! output is *not* deterministic — `TelemetrySnapshot` deliberately
//! excludes it from equality comparisons.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::json::Json;

/// Running wall-clock profiler; call [`Profiler::finish`] at end of
/// run.
#[derive(Debug, Clone)]
pub struct Profiler {
    started: Instant,
}

impl Profiler {
    /// Starts timing now.
    pub fn start() -> Profiler {
        Profiler { started: Instant::now() }
    }

    /// Stops timing and folds in the work counters.
    pub fn finish(&self, sim_events: u64, queue_ops: u64, clock_edges: u64) -> WallClockProfile {
        let elapsed_secs = self.started.elapsed().as_secs_f64();
        let per_sec = |n: u64| if elapsed_secs > 0.0 { n as f64 / elapsed_secs } else { 0.0 };
        WallClockProfile {
            elapsed_secs,
            sim_events,
            queue_ops,
            clock_edges,
            events_per_sec: per_sec(sim_events),
            queue_ops_per_sec: per_sec(queue_ops),
        }
    }
}

/// Completed wall-clock profile of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WallClockProfile {
    /// Wall-clock seconds spent inside the run.
    pub elapsed_secs: f64,
    /// Simulated events processed (AER events captured).
    pub sim_events: u64,
    /// Event-queue operations performed (schedules + pops), the
    /// sampling-clock edges excluded.
    pub queue_ops: u64,
    /// Sampling-clock edges processed: pops of the event queue's
    /// register. The per-tick engine pops one per edge; the
    /// fast-forward engine skips quiet stretches.
    pub clock_edges: u64,
    /// Simulated events per wall-clock second.
    pub events_per_sec: f64,
    /// Queue operations per wall-clock second.
    pub queue_ops_per_sec: f64,
}

impl WallClockProfile {
    /// Serialises the profile for the JSON export.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("elapsed_secs", Json::from(self.elapsed_secs)),
            ("sim_events", Json::from(self.sim_events)),
            ("queue_ops", Json::from(self.queue_ops)),
            ("clock_edges", Json::from(self.clock_edges)),
            ("events_per_sec", Json::from(self.events_per_sec)),
            ("queue_ops_per_sec", Json::from(self.queue_ops_per_sec)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_computes_rates() {
        let p = Profiler::start();
        let profile = p.finish(1000, 5000, 700);
        assert_eq!(profile.sim_events, 1000);
        assert_eq!(profile.queue_ops, 5000);
        assert_eq!(profile.clock_edges, 700);
        assert!(profile.elapsed_secs >= 0.0);
        if profile.elapsed_secs > 0.0 {
            assert!(profile.events_per_sec > 0.0);
            assert!(profile.queue_ops_per_sec >= profile.events_per_sec);
        }
    }
}
