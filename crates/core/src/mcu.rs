//! The downstream microcontroller's view of the link.
//!
//! The prototype streams AETR over I2S into an STM32-L476; this module
//! models that consumer: decode the frames, rebuild the spike timeline
//! from the explicit deltas, and quantify how faithfully the original
//! sensor timing survived the whole interface — the end-to-end
//! "time-to-information" contract.

use serde::{Deserialize, Serialize};

use aetr_aer::spike::SpikeTrain;
use aetr_sim::time::{SimDuration, SimTime};

use crate::aetr_format::AetrEvent;
use crate::i2s::{decode_frames, I2sStream};
use crate::quantizer::reconstruct_train;

/// The MCU-side receiver: an I2S peripheral plus the AETR decoder.
///
/// # Examples
///
/// ```
/// use aetr::aetr_format::{AetrEvent, Timestamp};
/// use aetr::i2s::{I2sConfig, I2sTransmitter};
/// use aetr::mcu::McuReceiver;
/// use aetr_aer::address::Address;
/// use aetr_sim::time::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tx = I2sTransmitter::new(I2sConfig::prototype());
/// let ev = AetrEvent::new(Address::new(9)?, Timestamp::from_ticks(150));
/// tx.send_pair(SimTime::ZERO, ev, None)?;
///
/// let rx = McuReceiver::new(SimDuration::from_ns(66));
/// let train = rx.receive(tx.stream());
/// assert_eq!(train.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct McuReceiver {
    base_period: SimDuration,
    saturation_ticks: Option<u64>,
}

impl McuReceiver {
    /// Creates a receiver that interprets timestamps in units of
    /// `base_period` (the interface's `T_min`, which the host reads
    /// over SPI at setup).
    pub fn new(base_period: SimDuration) -> McuReceiver {
        McuReceiver { base_period, saturation_ticks: None }
    }

    /// Tells the receiver the interface's timestamp saturation value
    /// (`θ_div · (2^(N_div+1) − 1)` in `T_min` ticks — derivable from
    /// the `ThetaDiv`/`NDiv` registers the host reads over SPI).
    /// Required for [`receive_anchored`](Self::receive_anchored) to
    /// recognise saturated gaps.
    pub fn with_saturation(mut self, ticks: u64) -> McuReceiver {
        self.saturation_ticks = Some(ticks);
        self
    }

    /// Decodes the raw AETR events from a stream.
    pub fn decode(&self, stream: &I2sStream) -> Vec<AetrEvent> {
        decode_frames(stream)
    }

    /// Decodes and reconstructs the spike timeline (relative to time
    /// zero — absolute time is unknowable from deltas alone, and
    /// irrelevant for batch processing).
    pub fn receive(&self, stream: &I2sStream) -> SpikeTrain {
        reconstruct_train(&self.decode(stream), self.base_period, SimTime::ZERO)
    }

    /// Decodes and reconstructs with *arrival anchoring*: fine
    /// structure comes from the AETR deltas, but whenever a timestamp
    /// is saturated (the true gap exceeded the measurable range) the
    /// timeline re-anchors at the carrying I2S frame's arrival time —
    /// the MCU's own clock. This is how a real consumer recovers
    /// wall-clock placement across long silences, at batch-latency
    /// resolution.
    ///
    /// The result is clamped monotone (an anchor can never move time
    /// backwards past already-placed events).
    pub fn receive_anchored(&self, stream: &I2sStream) -> SpikeTrain {
        let mut spikes = Vec::with_capacity(stream.event_count());
        let mut t = SimTime::ZERO;
        for frame in stream.frames() {
            for event in frame.events() {
                let delta = event.timestamp.to_interval(self.base_period);
                let by_delta = t.saturating_add(delta);
                // Saturated delta: the true gap is unknown but the
                // frame arrived *now*; trust the local clock. Without a
                // configured saturation value, fall back to the field
                // maximum (only full-width saturation is detectable).
                let sat = self.saturation_ticks.unwrap_or(crate::aetr_format::TIMESTAMP_MAX as u64);
                t = if event.timestamp.ticks() as u64 >= sat {
                    frame.start.max(t)
                } else {
                    by_delta
                };
                spikes.push(aetr_aer::spike::Spike::new(t, event.addr));
            }
        }
        SpikeTrain::from_sorted(spikes).expect("anchoring preserves monotonicity")
    }
}

/// End-to-end fidelity report between the sensor's spike train and the
/// MCU's reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Events the sensor emitted.
    pub sent: usize,
    /// Events the MCU received.
    pub received: usize,
    /// Mean relative ISI error over comparable intervals.
    pub mean_isi_error: f64,
    /// Worst relative ISI error.
    pub max_isi_error: f64,
}

impl FidelityReport {
    /// Compares the ISI sequences of the original and reconstructed
    /// trains (pairwise over the common prefix of intervals), using
    /// the bounded relative error `|r − t| / max(r, t)` — the same
    /// metric as [`IsiErrorSample::relative_error`].
    ///
    /// Zero-length interval pairs are skipped — they carry no timing
    /// information to preserve.
    ///
    /// [`IsiErrorSample::relative_error`]:
    ///     crate::quantizer::IsiErrorSample::relative_error
    pub fn compare(original: &SpikeTrain, reconstructed: &SpikeTrain) -> FidelityReport {
        // One pass and no buffer. Summing left to right keeps the mean
        // bit-identical to summing the collected errors.
        let (mut sum, mut max, mut n) = (0.0f64, 0.0f64, 0usize);
        for (t, r) in original.inter_spike_intervals().zip(reconstructed.inter_spike_intervals()) {
            let truth = t.as_secs_f64();
            let rec = r.as_secs_f64();
            let denom = truth.max(rec);
            if denom > 0.0 {
                let error = (rec - truth).abs() / denom;
                sum += error;
                max = max.max(error);
                n += 1;
            }
        }
        let mean = if n == 0 { 0.0 } else { sum / n as f64 };
        FidelityReport {
            sent: original.len(),
            received: reconstructed.len(),
            mean_isi_error: mean,
            max_isi_error: max,
        }
    }

    /// The paper's headline accuracy metric: `1 − mean error`, "above
    /// 97%" in the active region.
    pub fn accuracy(&self) -> f64 {
        1.0 - self.mean_isi_error
    }

    /// Fraction of events lost in transit.
    pub fn loss_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            1.0 - self.received as f64 / self.sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aetr_format::Timestamp;
    use crate::i2s::{I2sConfig, I2sTransmitter};
    use crate::quantizer::{quantize_train, QuantizerOutput};
    use aetr_aer::generator::{PoissonGenerator, SpikeSource};
    use aetr_clockgen::config::ClockGenConfig;

    fn send_all(out: &QuantizerOutput) -> I2sStream {
        let mut tx = I2sTransmitter::new(I2sConfig::prototype());
        let events = out.events();
        let mut t = SimTime::ZERO;
        for pair in events.chunks(2) {
            t = tx.send_pair(t, pair[0], pair.get(1).copied()).unwrap();
        }
        tx.into_stream()
    }

    #[test]
    fn end_to_end_active_region_accuracy_above_97() {
        let train = PoissonGenerator::new(150_000.0, 64, 21).generate(SimTime::from_ms(100));
        let out = quantize_train(&ClockGenConfig::prototype(), &train, SimTime::from_ms(100));
        let stream = send_all(&out);
        let rx = McuReceiver::new(out.base_period);
        let rebuilt = rx.receive(&stream);
        let report = FidelityReport::compare(&train, &rebuilt);
        assert_eq!(report.sent, report.received);
        assert_eq!(report.loss_ratio(), 0.0);
        assert!(report.accuracy() > 0.97, "accuracy {}", report.accuracy());
    }

    #[test]
    fn decode_preserves_event_identity() {
        let train = PoissonGenerator::new(50_000.0, 100, 5).generate(SimTime::from_ms(10));
        let out = quantize_train(&ClockGenConfig::prototype(), &train, SimTime::from_ms(10));
        let stream = send_all(&out);
        let rx = McuReceiver::new(out.base_period);
        let decoded = rx.decode(&stream);
        assert_eq!(decoded, out.events());
    }

    #[test]
    fn saturated_events_survive_the_carrier() {
        let train = PoissonGenerator::new(100.0, 4, 1).generate(SimTime::from_secs(1));
        let out = quantize_train(&ClockGenConfig::prototype(), &train, SimTime::from_secs(1));
        let stream = send_all(&out);
        let decoded = McuReceiver::new(out.base_period).decode(&stream);
        // Saturated at the counter's natural maximum (960 ticks for
        // θ=64, N=3), not the field marker.
        let sat_ticks = decoded.iter().filter(|e| e.timestamp.ticks() == 960).count();
        assert!(sat_ticks > 0, "expected saturated timestamps");
        let _ = Timestamp::SATURATED; // field-level saturation tested in aetr_format
    }

    #[test]
    fn anchored_reception_recovers_wall_clock_gaps() {
        use crate::interface::{AerToI2sInterface, InterfaceConfig};
        use aetr_aer::generator::{RegularGenerator, SpikeSource};

        // Two bursts separated by 200 ms of silence (far beyond the
        // 64 µs measurable range). Delta-only reconstruction collapses
        // the gap; anchored reconstruction restores it at batch
        // resolution.
        let burst1 = RegularGenerator::from_rate(100_000.0, 4).generate(SimTime::from_ms(2));
        let burst2: SpikeTrain = RegularGenerator::from_rate(100_000.0, 4)
            .generate(SimTime::from_ms(2))
            .iter()
            .map(|s| {
                aetr_aer::spike::Spike::new(
                    s.time.saturating_add(SimDuration::from_ms(200)),
                    s.addr,
                )
            })
            .collect();
        let train = burst1.merge(&burst2);
        // A shallow watermark so each burst ships promptly — arrival
        // anchoring is only as good as the batching latency.
        let config = InterfaceConfig {
            fifo: crate::fifo::FifoConfig { watermark: 32, ..crate::fifo::FifoConfig::prototype() },
            ..InterfaceConfig::prototype()
        };
        let interface = AerToI2sInterface::new(config).expect("valid config");
        let report = interface.run(&train, SimTime::from_ms(250));
        let mcu =
            McuReceiver::new(interface.config().clock.base_sampling_period()).with_saturation(960); // θ=64, N=3: 64·(2^4−1)

        let plain = mcu.receive(&report.i2s);
        let anchored = mcu.receive_anchored(&report.i2s);
        let plain_span = plain.last_time().unwrap() - plain.first_time().unwrap();
        let anchored_span = anchored.last_time().unwrap() - anchored.first_time().unwrap();
        assert!(
            plain_span < SimDuration::from_ms(10),
            "delta-only reconstruction compresses the gap: {plain_span}"
        );
        assert!(
            anchored_span > SimDuration::from_ms(150),
            "anchored reconstruction restores the gap: {anchored_span}"
        );
        // Monotone, and same event count.
        assert_eq!(anchored.len(), plain.len());
    }

    #[test]
    fn fidelity_report_on_identical_trains_is_perfect() {
        let train = PoissonGenerator::new(10_000.0, 8, 2).generate(SimTime::from_ms(20));
        let report = FidelityReport::compare(&train, &train);
        assert_eq!(report.mean_isi_error, 0.0);
        assert_eq!(report.accuracy(), 1.0);
        assert_eq!(report.loss_ratio(), 0.0);
    }

    #[test]
    fn one_pass_fidelity_matches_a_collected_reference_bit_for_bit() {
        let train = PoissonGenerator::new(150_000.0, 64, 21).generate(SimTime::from_ms(20));
        let out = quantize_train(&ClockGenConfig::prototype(), &train, SimTime::from_ms(20));
        let rebuilt = McuReceiver::new(out.base_period).receive(&send_all(&out));
        let errors: Vec<f64> = train
            .inter_spike_intervals()
            .zip(rebuilt.inter_spike_intervals())
            .map(|(t, r)| (t.as_secs_f64(), r.as_secs_f64()))
            .filter(|&(t, r)| t.max(r) > 0.0)
            .map(|(t, r)| (r - t).abs() / t.max(r))
            .collect();
        let report = FidelityReport::compare(&train, &rebuilt);
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        let max = errors.iter().copied().fold(0.0, f64::max);
        assert!(mean > 0.0, "the reconstruction is not exact");
        assert_eq!(report.mean_isi_error.to_bits(), mean.to_bits());
        assert_eq!(report.max_isi_error.to_bits(), max.to_bits());
    }

    #[test]
    fn empty_streams_compare_cleanly() {
        let report = FidelityReport::compare(&SpikeTrain::new(), &SpikeTrain::new());
        assert_eq!(report.sent, 0);
        assert_eq!(report.loss_ratio(), 0.0);
        assert_eq!(report.mean_isi_error, 0.0);
    }
}
