//! Cochlear band-pass filter bank.
//!
//! A silicon cochlea decomposes sound into overlapping frequency bands
//! along a tonotopic axis; here each channel is a biquad band-pass
//! section (RBJ audio-EQ cookbook, constant-Q) with log-spaced centre
//! frequencies, mirroring the 64-channel AMS C1c chip.

use std::f64::consts::PI;

use serde::{Deserialize, Serialize};

use crate::audio::AudioBuffer;

/// One second-order band-pass section.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
}

impl Biquad {
    /// Designs a constant-skirt-gain band-pass biquad at `f0` with
    /// quality factor `q` for the given sample rate (RBJ cookbook).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f0 < sample_rate/2` and `q > 0`.
    pub fn bandpass(sample_rate: u32, f0: f64, q: f64) -> Biquad {
        assert!(
            f0 > 0.0 && f0 < sample_rate as f64 / 2.0,
            "centre frequency {f0} must be inside (0, Nyquist)"
        );
        assert!(q > 0.0, "Q must be positive, got {q}");
        let w0 = 2.0 * PI * f0 / sample_rate as f64;
        let alpha = w0.sin() / (2.0 * q);
        let a0 = 1.0 + alpha;
        Biquad {
            b0: alpha / a0,
            b1: 0.0,
            b2: -alpha / a0,
            a1: -2.0 * w0.cos() / a0,
            a2: (1.0 - alpha) / a0,
            x1: 0.0,
            x2: 0.0,
            y1: 0.0,
            y2: 0.0,
        }
    }

    /// Processes one sample.
    pub fn step(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.b1 * self.x1 + self.b2 * self.x2
            - self.a1 * self.y1
            - self.a2 * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Resets the filter state.
    pub fn reset(&mut self) {
        self.x1 = 0.0;
        self.x2 = 0.0;
        self.y1 = 0.0;
        self.y2 = 0.0;
    }
}

/// A bank of log-spaced band-pass channels.
///
/// # Examples
///
/// ```
/// use aetr_cochlea::audio::AudioBuffer;
/// use aetr_cochlea::filterbank::FilterBank;
///
/// let mut bank = FilterBank::log_spaced(16_000, 64, 100.0, 6_000.0, 4.0);
/// let tone = AudioBuffer::tone(16_000, 1_000.0, 0.5, 0.1);
/// let outputs = bank.process(&tone);
/// assert_eq!(outputs.len(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterBank {
    sample_rate: u32,
    centers: Vec<f64>,
    filters: Vec<Biquad>,
}

impl FilterBank {
    /// Builds `channels` band-pass sections with centre frequencies
    /// log-spaced over `[f_lo, f_hi]`, all sharing quality factor `q`.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`, if the band is empty or inverted, or
    /// if `f_hi` reaches Nyquist.
    pub fn log_spaced(
        sample_rate: u32,
        channels: usize,
        f_lo: f64,
        f_hi: f64,
        q: f64,
    ) -> FilterBank {
        assert!(channels > 0, "need at least one channel");
        assert!(0.0 < f_lo && f_lo < f_hi, "band [{f_lo}, {f_hi}] must be positive and ordered");
        let centers: Vec<f64> = (0..channels)
            .map(|i| {
                let t = if channels == 1 { 0.0 } else { i as f64 / (channels - 1) as f64 };
                f_lo * (f_hi / f_lo).powf(t)
            })
            .collect();
        let filters = centers.iter().map(|&f0| Biquad::bandpass(sample_rate, f0, q)).collect();
        FilterBank { sample_rate, centers, filters }
    }

    /// The channel filters, lowest centre frequency first, in whatever
    /// state the last [`process`](Self::process) call left them.
    pub fn filters(&self) -> &[Biquad] {
        &self.filters
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.filters.len()
    }

    /// Centre frequency of a channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn center_frequency(&self, channel: usize) -> f64 {
        self.centers[channel]
    }

    /// Filters the buffer through every channel, returning one output
    /// vector per channel. Filter state is reset first so calls are
    /// independent.
    ///
    /// # Panics
    ///
    /// Panics on a sample-rate mismatch with the bank design.
    pub fn process(&mut self, audio: &AudioBuffer) -> Vec<Vec<f64>> {
        assert_eq!(audio.sample_rate(), self.sample_rate, "sample-rate mismatch");
        self.filters.iter_mut().for_each(Biquad::reset);
        self.filters
            .iter_mut()
            .map(|f| audio.samples().iter().map(|&x| f.step(x)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn band_rms(out: &[f64]) -> f64 {
        (out.iter().map(|y| y * y).sum::<f64>() / out.len() as f64).sqrt()
    }

    #[test]
    fn log_spacing_is_geometric() {
        let bank = FilterBank::log_spaced(16_000, 5, 100.0, 1_600.0, 4.0);
        let ratios: Vec<f64> =
            (1..5).map(|i| bank.center_frequency(i) / bank.center_frequency(i - 1)).collect();
        for r in &ratios {
            assert!((r - 2.0).abs() < 1e-9, "ratio {r}");
        }
    }

    #[test]
    fn tone_excites_matching_channel_most() {
        let mut bank = FilterBank::log_spaced(16_000, 32, 100.0, 6_000.0, 6.0);
        let tone = AudioBuffer::tone(16_000, 1_000.0, 0.5, 0.2);
        let outputs = bank.process(&tone);
        let rms: Vec<f64> = outputs.iter().map(|o| band_rms(o)).collect();
        let best = rms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let f_best = bank.center_frequency(best);
        assert!(
            (f_best / 1_000.0).ln().abs() < 0.2,
            "peak channel at {f_best} Hz for a 1 kHz tone"
        );
    }

    #[test]
    fn selectivity_rejects_distant_bands() {
        let mut bank = FilterBank::log_spaced(16_000, 32, 100.0, 6_000.0, 6.0);
        let tone = AudioBuffer::tone(16_000, 1_000.0, 0.5, 0.2);
        let outputs = bank.process(&tone);
        let rms: Vec<f64> = outputs.iter().map(|o| band_rms(o)).collect();
        let peak = rms.iter().cloned().fold(0.0f64, f64::max);
        // Channels more than an octave away are at least 6 dB down.
        for (i, r) in rms.iter().enumerate() {
            let f = bank.center_frequency(i);
            if !(500.0..2_000.0).contains(&f) {
                assert!(*r < peak * 0.5, "channel at {f} Hz leaked {r} vs peak {peak}");
            }
        }
    }

    #[test]
    fn filter_is_stable_on_noise() {
        let mut bank = FilterBank::log_spaced(16_000, 8, 200.0, 4_000.0, 4.0);
        let noise = AudioBuffer::white_noise(16_000, 1.0, 0.5, 3);
        let outputs = bank.process(&noise);
        for out in &outputs {
            assert!(out.iter().all(|y| y.is_finite() && y.abs() < 10.0));
        }
    }

    #[test]
    fn process_resets_state_between_calls() {
        let mut bank = FilterBank::log_spaced(16_000, 4, 200.0, 2_000.0, 4.0);
        let tone = AudioBuffer::tone(16_000, 500.0, 0.5, 0.05);
        let a = bank.process(&tone);
        let b = bank.process(&tone);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn bandpass_rejects_above_nyquist() {
        let _ = Biquad::bandpass(16_000, 9_000.0, 4.0);
    }
}
