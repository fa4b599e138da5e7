//! Latency decomposition of the interface.
//!
//! The AETR architecture deliberately trades *latency* for *energy*:
//! events wait in the FIFO until a batch is worth waking the I2S link
//! (and the MCU behind it). This module decomposes each event's
//! journey — acquisition (REQ to capture), buffering (capture to frame
//! start), transmission (frame) — so that the batching knob's latency
//! cost is measurable, not anecdotal. It is a view over the per-event
//! lineage records (DESIGN.md §14), which already hold every stage.

use serde::{Deserialize, Serialize};

use aetr_sim::time::SimDuration;
use aetr_telemetry::lineage::LineageLog;

/// Latency summary of one stage, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageLatency {
    /// Mean latency.
    pub mean_secs: f64,
    /// Median latency.
    pub p50_secs: f64,
    /// 99th percentile.
    pub p99_secs: f64,
    /// Maximum.
    pub max_secs: f64,
}

impl StageLatency {
    fn of(mut samples: Vec<f64>) -> Option<StageLatency> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        Some(StageLatency {
            mean_secs: mean,
            p50_secs: samples[n / 2],
            p99_secs: samples[(n * 99 / 100).min(n - 1)],
            max_secs: samples[n - 1],
        })
    }
}

/// Full latency decomposition of a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// Events measured.
    pub events: usize,
    /// REQ rise → timestamp capture (synchroniser + sampling grid +
    /// possible wake).
    pub acquisition: StageLatency,
    /// Capture → start of the I2S frame carrying the event (FIFO
    /// batching delay).
    pub buffering: StageLatency,
    /// REQ rise → end of the I2S frame: what the MCU experiences.
    pub end_to_end: StageLatency,
}

impl LatencyReport {
    /// The decomposition over the delivered events of a run's lineage
    /// records (collect them with
    /// [`TelemetryConfig::with_lineage`](aetr_telemetry::TelemetryConfig::with_lineage)).
    /// Returns `None` when no event reached the wire.
    ///
    /// Every stage is read from the event's own record, so losses on
    /// the path do not shift any other event's stages.
    pub fn from_lineage(log: &LineageLog) -> Option<LatencyReport> {
        let mut acq = Vec::with_capacity(log.len());
        let mut buf = Vec::with_capacity(log.len());
        let mut e2e = Vec::with_capacity(log.len());
        for r in log.records() {
            let (Some(buffered), Some(end_to_end)) = (r.fifo_residency(), r.end_to_end_latency())
            else {
                continue;
            };
            acq.push((r.detection - r.arrival).as_secs_f64());
            buf.push(buffered.as_secs_f64());
            e2e.push(end_to_end.as_secs_f64());
        }
        Some(LatencyReport {
            events: e2e.len(),
            acquisition: StageLatency::of(acq)?,
            buffering: StageLatency::of(buf)?,
            end_to_end: StageLatency::of(e2e)?,
        })
    }
}

impl std::fmt::Display for LatencyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let line = |name: &str, s: &StageLatency| {
            format!(
                "{name:<12} mean {:>10} p50 {:>10} p99 {:>10} max {:>10}",
                fmt_s(s.mean_secs),
                fmt_s(s.p50_secs),
                fmt_s(s.p99_secs),
                fmt_s(s.max_secs)
            )
        };
        writeln!(f, "{} events:", self.events)?;
        writeln!(f, "  {}", line("acquisition", &self.acquisition))?;
        writeln!(f, "  {}", line("buffering", &self.buffering))?;
        writeln!(f, "  {}", line("end-to-end", &self.end_to_end))
    }
}

fn fmt_s(secs: f64) -> String {
    SimDuration::from_secs_f64(secs.max(0.0)).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::FifoConfig;
    use crate::interface::{AerToI2sInterface, InterfaceConfig, TelemetryConfig};
    use aetr_aer::generator::{LfsrGenerator, RegularGenerator, SpikeSource};
    use aetr_aer::spike::SpikeTrain;
    use aetr_faults::FaultPlan;
    use aetr_sim::time::SimTime;

    fn lineage_of(config: InterfaceConfig, train: &SpikeTrain, horizon: SimTime) -> LineageLog {
        let tel = TelemetryConfig { enabled: true, sample_cadence: None, lineage: true };
        let interface = AerToI2sInterface::new(config).unwrap();
        interface.run_with_telemetry(train, horizon, &FaultPlan::nominal(0), &tel).telemetry.lineage
    }

    fn run_with_watermark(watermark: usize) -> LineageLog {
        let config = InterfaceConfig {
            fifo: FifoConfig { watermark, ..FifoConfig::prototype() },
            ..InterfaceConfig::prototype()
        };
        let train = RegularGenerator::from_rate(100_000.0, 8).generate(SimTime::from_ms(5));
        lineage_of(config, &train, SimTime::from_ms(5))
    }

    #[test]
    fn acquisition_latency_is_grid_scale() {
        let lat = LatencyReport::from_lineage(&run_with_watermark(1)).unwrap();
        // 10 µs spacing sits in segment 1 (period ≤ 2·T_min) plus the
        // 2-FF synchroniser: a few hundred ns.
        assert!(lat.acquisition.mean_secs < 1e-6, "mean {}", lat.acquisition.mean_secs);
        assert!(lat.acquisition.max_secs < 2e-6);
    }

    #[test]
    fn deeper_watermark_costs_buffering_latency() {
        let l1 = LatencyReport::from_lineage(&run_with_watermark(1)).unwrap();
        let l256 = LatencyReport::from_lineage(&run_with_watermark(256)).unwrap();
        assert!(
            l256.buffering.mean_secs > 10.0 * l1.buffering.mean_secs,
            "watermark 1: {}, watermark 256: {}",
            l1.buffering.mean_secs,
            l256.buffering.mean_secs
        );
        // End-to-end dominated by buffering at deep watermarks.
        assert!(l256.end_to_end.mean_secs > l256.buffering.mean_secs * 0.9);
    }

    /// Above the I2S limit the FIFO overflows and drops events. A
    /// delivered event enters a FIFO holding at most `capacity` events,
    /// itself included, while at most one frame is on the wire: it is
    /// out after that frame plus `⌈capacity/2⌉` frames of two events,
    /// on top of its own acquisition.
    #[test]
    fn overflow_drops_do_not_inflate_end_to_end_latency() {
        let config = InterfaceConfig::prototype();
        let horizon = SimTime::from_ms(40);
        let train = LfsrGenerator::new(550_000.0, 101).generate(horizon);
        let log = lineage_of(config, &train, horizon);
        let lat = LatencyReport::from_lineage(&log).unwrap();
        assert!(lat.events < log.len(), "the FIFO overflows");
        let frames = config.fifo.capacity_events().div_ceil(2) as u64 + 1;
        let bound = (config.i2s.frame_duration() * frames).as_secs_f64() + lat.acquisition.max_secs;
        assert!(lat.end_to_end.max_secs <= bound, "{} > {bound}", lat.end_to_end.max_secs);
    }

    #[test]
    fn empty_run_yields_none() {
        let log = lineage_of(InterfaceConfig::prototype(), &SpikeTrain::new(), SimTime::from_ms(1));
        assert!(LatencyReport::from_lineage(&log).is_none());
    }

    #[test]
    fn display_renders_all_stages() {
        let text = LatencyReport::from_lineage(&run_with_watermark(16)).unwrap().to_string();
        assert!(text.contains("acquisition"));
        assert!(text.contains("buffering"));
        assert!(text.contains("end-to-end"));
    }
}
