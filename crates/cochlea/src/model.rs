//! The assembled silicon-cochlea sensor model.
//!
//! Audio → band-pass filter bank → half-wave rectification → leaky
//! integrate-and-fire per channel → AER spike train. This is the
//! substitution for the Cochlea AMS C1c (DAS1) used in the paper's
//! Fig. 7 experiment: 64 channels per ear, optionally binaural.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use aetr_aer::address::Address;
use aetr_aer::spike::{Spike, SpikeTrain};
use aetr_sim::time::SimTime;

use crate::audio::AudioBuffer;
use crate::filterbank::FilterBank;
use crate::neuron::{IntegrateFireNeuron, NeuronConfig};

/// Which ear produced a spike (binaural sensors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ear {
    /// Left microphone.
    Left,
    /// Right microphone.
    Right,
}

/// Cochlea model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CochleaConfig {
    /// Audio sample rate the model expects.
    pub sample_rate: u32,
    /// Channels per ear (the AMS C1c has 64).
    pub channels: usize,
    /// Lowest centre frequency (Hz).
    pub f_lo: f64,
    /// Highest centre frequency (Hz).
    pub f_hi: f64,
    /// Filter quality factor.
    pub q: f64,
    /// Ganglion cells per channel (the DAS1 has 4, with staggered
    /// thresholds).
    pub neurons_per_channel: usize,
    /// Spike-generation (inner hair cell) parameters of the first
    /// neuron; subsequent neurons get progressively higher thresholds.
    pub neuron: NeuronConfig,
}

impl CochleaConfig {
    /// DAS1-like defaults: 64 channels, 100 Hz – 6 kHz, Q = 5, 16 kHz
    /// audio.
    pub fn das1() -> CochleaConfig {
        CochleaConfig {
            sample_rate: 16_000,
            channels: 64,
            f_lo: 100.0,
            f_hi: 6_000.0,
            q: 5.0,
            neurons_per_channel: 4,
            neuron: NeuronConfig::default(),
        }
    }

    /// Validates the neuron array against the 10-bit AER bus (binaural
    /// needs `2 × channels × neurons_per_channel` addresses).
    ///
    /// # Errors
    ///
    /// Returns [`CochleaConfigError`] if the address space would
    /// overflow or the array is empty.
    pub fn validate(&self) -> Result<(), CochleaConfigError> {
        if self.channels == 0 || self.neurons_per_channel == 0 {
            return Err(CochleaConfigError::NoChannels);
        }
        if self.channels * self.neurons_per_channel * 2 > 1 << 10 {
            return Err(CochleaConfigError::TooManyChannels { channels: self.channels });
        }
        Ok(())
    }

    /// Addresses used per ear.
    pub fn addresses_per_ear(&self) -> usize {
        self.channels * self.neurons_per_channel
    }
}

impl Default for CochleaConfig {
    fn default() -> Self {
        Self::das1()
    }
}

/// Configuration errors of the cochlea model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CochleaConfigError {
    /// Zero channels or zero neurons per channel.
    NoChannels,
    /// The binaural address space would exceed the 10-bit AER bus.
    TooManyChannels {
        /// Offending channel count.
        channels: usize,
    },
}

impl fmt::Display for CochleaConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CochleaConfigError::NoChannels => {
                write!(f, "cochlea needs at least one channel and one neuron per channel")
            }
            CochleaConfigError::TooManyChannels { channels } => {
                write!(f, "{channels} channels per ear exceeds the 10-bit binaural address space")
            }
        }
    }
}

impl Error for CochleaConfigError {}

/// The cochlea sensor model.
///
/// # Examples
///
/// ```
/// use aetr_cochlea::audio::AudioBuffer;
/// use aetr_cochlea::model::{Cochlea, CochleaConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cochlea = Cochlea::new(CochleaConfig::das1())?;
/// let tone = AudioBuffer::tone(16_000, 1_000.0, 0.8, 0.2);
/// let spikes = cochlea.process(&tone);
/// assert!(!spikes.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cochlea {
    config: CochleaConfig,
    bank: FilterBank,
}

impl Cochlea {
    /// Creates a cochlea model.
    ///
    /// # Errors
    ///
    /// Returns [`CochleaConfigError`] if the configuration is invalid.
    pub fn new(config: CochleaConfig) -> Result<Cochlea, CochleaConfigError> {
        config.validate()?;
        let bank = FilterBank::log_spaced(
            config.sample_rate,
            config.channels,
            config.f_lo,
            config.f_hi,
            config.q,
        );
        Ok(Cochlea { config, bank })
    }

    /// The configuration.
    pub fn config(&self) -> &CochleaConfig {
        &self.config
    }

    /// Encodes `(ear, channel, neuron)` into an AER address:
    /// `addr = ear · channels · neurons + channel · neurons + neuron`.
    pub fn address_of(&self, ear: Ear, channel: usize, neuron: usize) -> Address {
        let per_ear = self.config.addresses_per_ear();
        let base = match ear {
            Ear::Left => 0,
            Ear::Right => per_ear,
        };
        Address::new((base + channel * self.config.neurons_per_channel + neuron) as u16)
            .expect("validated address space")
    }

    /// Decodes an address back into `(ear, channel, neuron)`, or
    /// `None` if it is outside this sensor's range.
    pub fn decode_address(&self, addr: Address) -> Option<(Ear, usize, usize)> {
        let v = addr.value() as usize;
        let per_ear = self.config.addresses_per_ear();
        let (ear, rest) = if v < per_ear {
            (Ear::Left, v)
        } else if v < 2 * per_ear {
            (Ear::Right, v - per_ear)
        } else {
            return None;
        };
        Some((ear, rest / self.config.neurons_per_channel, rest % self.config.neurons_per_channel))
    }

    /// Runs mono audio through the left ear, producing a spike train.
    pub fn process(&mut self, audio: &AudioBuffer) -> SpikeTrain {
        self.process_ear(audio, Ear::Left)
    }

    /// Runs a stereo pair, merging both ears' spikes into one train.
    pub fn process_binaural(&mut self, left: &AudioBuffer, right: &AudioBuffer) -> SpikeTrain {
        let l = self.process_ear(left, Ear::Left);
        let r = self.process_ear(right, Ear::Right);
        l.merge(&r)
    }

    /// One pass per channel: each sample goes through the channel's
    /// band-pass filter and straight into all of its ganglion cells, so
    /// the filter and cell recurrences advance side by side instead of
    /// materialising the band signal first.
    fn process_ear(&self, audio: &AudioBuffer, ear: Ear) -> SpikeTrain {
        assert_eq!(audio.sample_rate(), self.config.sample_rate, "sample-rate mismatch");
        let dt_secs = 1.0 / self.config.sample_rate as f64;
        let dt_ps = (dt_secs * 1e12).round() as u64;
        // Staggered thresholds, like the DAS1's four ganglion cells per
        // channel: higher-index cells need stronger drive and fire later
        // within a cycle.
        let cells: Vec<NeuronConfig> = (0..self.config.neurons_per_channel)
            .map(|j| NeuronConfig {
                threshold: self.config.neuron.threshold * (1.0 + 0.25 * j as f64),
                ..self.config.neuron
            })
            .collect();
        let mut fired: Vec<Vec<Spike>> = vec![Vec::new(); cells.len()];
        let mut spikes = Vec::new();
        for (ch, filter) in self.bank.filters().iter().enumerate() {
            let mut filter = *filter;
            filter.reset();
            let mut neurons: Vec<(IntegrateFireNeuron, Address)> = cells
                .iter()
                .enumerate()
                .map(|(j, &config)| (IntegrateFireNeuron::new(config), self.address_of(ear, ch, j)))
                .collect();
            for (i, &x) in audio.samples().iter().enumerate() {
                let band = filter.step(x);
                let t_ps = i as u64 * dt_ps;
                for ((neuron, addr), out) in neurons.iter_mut().zip(&mut fired) {
                    if let Some(frac) =
                        neuron.step_interpolated(SimTime::from_ps(t_ps), band, dt_secs)
                    {
                        // Sub-sample interpolation keeps channels from
                        // snapping to the audio grid.
                        let offset = (frac * dt_ps as f64).round() as u64;
                        out.push(Spike::new(SimTime::from_ps(t_ps + offset), *addr));
                    }
                }
            }
            // Appending cell by cell keeps the (channel, cell, time)
            // insertion order, which the stable sort below relies on to
            // order simultaneous spikes.
            for out in &mut fired {
                spikes.append(out);
            }
        }
        SpikeTrain::from_unsorted(spikes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::fig7_word;

    fn das1() -> Cochlea {
        Cochlea::new(CochleaConfig::das1()).unwrap()
    }

    #[test]
    fn silence_produces_no_spikes() {
        let mut c = das1();
        let spikes = c.process(&AudioBuffer::silence(16_000, 0.5));
        assert!(spikes.is_empty());
    }

    #[test]
    fn tone_spikes_cluster_on_matching_channels() {
        let mut c = das1();
        let spikes = c.process(&AudioBuffer::tone(16_000, 1_000.0, 0.8, 0.3));
        assert!(spikes.len() > 50, "tone produced only {} spikes", spikes.len());
        // Most spikes should come from channels near 1 kHz.
        let near: usize = spikes
            .iter()
            .filter(|s| {
                let (_, ch, _) = c.decode_address(s.addr).unwrap();
                let f =
                    FilterBank::log_spaced(16_000, 64, 100.0, 6_000.0, 5.0).center_frequency(ch);
                (500.0..2_000.0).contains(&f)
            })
            .count();
        assert!(
            near as f64 / spikes.len() as f64 > 0.7,
            "only {near}/{} spikes near 1 kHz",
            spikes.len()
        );
    }

    #[test]
    fn louder_audio_spikes_more() {
        let mut c = das1();
        let quiet = c.process(&AudioBuffer::tone(16_000, 800.0, 0.2, 0.3)).len();
        let loud = c.process(&AudioBuffer::tone(16_000, 800.0, 0.9, 0.3)).len();
        assert!(loud > quiet, "loud {loud} vs quiet {quiet}");
    }

    #[test]
    fn word_produces_bursty_multi_channel_activity() {
        let mut c = das1();
        let spikes = c.process(&fig7_word(16_000, 1));
        assert!(spikes.len() > 200, "word produced {} spikes", spikes.len());
        let channels: std::collections::HashSet<u16> =
            spikes.iter().map(|s| s.addr.value()).collect();
        assert!(channels.len() > 8, "word excited only {} channels", channels.len());
        // Leading 80 ms of silence contain (almost) no spikes.
        let head = spikes.window(SimTime::ZERO, SimTime::from_ms(80));
        assert!(head.len() < 5, "{} spikes during leading silence", head.len());
    }

    #[test]
    fn binaural_addresses_separate_ears() {
        let mut c = das1();
        let tone = AudioBuffer::tone(16_000, 1_000.0, 0.8, 0.1);
        let spikes = c.process_binaural(&tone, &tone);
        let (mut left, mut right) = (0, 0);
        for s in &spikes {
            match c.decode_address(s.addr).unwrap().0 {
                Ear::Left => left += 1,
                Ear::Right => right += 1,
            }
        }
        assert!(left > 0 && right > 0);
        assert_eq!(left, right, "identical audio in both ears spikes identically");
    }

    #[test]
    fn address_roundtrip() {
        let c = das1();
        for ear in [Ear::Left, Ear::Right] {
            for ch in [0usize, 13, 63] {
                for j in [0usize, 3] {
                    let addr = c.address_of(ear, ch, j);
                    assert_eq!(c.decode_address(addr), Some((ear, ch, j)));
                }
            }
        }
        assert_eq!(c.decode_address(Address::new(999).unwrap()), None);
    }

    #[test]
    fn config_validation() {
        assert!(CochleaConfig { channels: 0, ..CochleaConfig::das1() }.validate().is_err());
        assert!(CochleaConfig { neurons_per_channel: 0, ..CochleaConfig::das1() }
            .validate()
            .is_err());
        // 2 ears x channels x neurons must fit in 1024 addresses.
        assert!(CochleaConfig { channels: 600, ..CochleaConfig::das1() }.validate().is_err());
        assert!(CochleaConfig { channels: 128, ..CochleaConfig::das1() }.validate().is_ok());
        assert!(CochleaConfig { channels: 512, neurons_per_channel: 1, ..CochleaConfig::das1() }
            .validate()
            .is_ok());
    }

    /// The two-pass model the single-pass `process_ear` replaced: the
    /// whole band signal first, then one LIF pass per ganglion cell.
    fn two_pass_reference(cochlea: &Cochlea, audio: &AudioBuffer, ear: Ear) -> SpikeTrain {
        let config = cochlea.config;
        let outputs = cochlea.bank.clone().process(audio);
        let dt_secs = 1.0 / config.sample_rate as f64;
        let dt_ps = (dt_secs * 1e12).round() as u64;
        let mut spikes = Vec::new();
        for (ch, band) in outputs.iter().enumerate() {
            for j in 0..config.neurons_per_channel {
                let mut neuron = IntegrateFireNeuron::new(NeuronConfig {
                    threshold: config.neuron.threshold * (1.0 + 0.25 * j as f64),
                    ..config.neuron
                });
                let addr = cochlea.address_of(ear, ch, j);
                for (i, &x) in band.iter().enumerate() {
                    let t = SimTime::from_ps(i as u64 * dt_ps);
                    if let Some(frac) = neuron.step_interpolated(t, x, dt_secs) {
                        let offset = (frac * dt_ps as f64).round() as u64;
                        spikes.push(Spike::new(SimTime::from_ps(i as u64 * dt_ps + offset), addr));
                    }
                }
            }
        }
        SpikeTrain::from_unsorted(spikes)
    }

    #[test]
    fn single_pass_matches_two_pass_reference_on_the_fig7_word() {
        let mut c = das1();
        for seed in [1, 0xF17, 424_242] {
            let word = fig7_word(16_000, seed);
            let reference = two_pass_reference(&c, &word, Ear::Left);
            assert!(reference.len() > 1_000, "seed {seed}: {} spikes", reference.len());
            assert_eq!(c.process(&word), reference, "seed {seed}");
        }
    }

    #[test]
    fn single_pass_matches_two_pass_reference_on_a_tone() {
        let mut c = das1();
        let tone = AudioBuffer::tone(16_000, 1_000.0, 0.8, 0.3);
        assert_eq!(c.process(&tone), two_pass_reference(&c, &tone, Ear::Left));
    }

    #[test]
    fn single_pass_keeps_the_order_of_simultaneous_spikes() {
        // Huge clicks push every cell over threshold within a few ps of
        // the sample instant, so many spikes share a timestamp and only
        // the (channel, cell) insertion order separates them.
        let mut clicks = vec![0.0; 8_000];
        for i in (0..clicks.len()).step_by(320) {
            clicks[i] = 1e9;
        }
        let audio = AudioBuffer::new(16_000, clicks);
        let mut c = das1();
        let reference = two_pass_reference(&c, &audio, Ear::Left);
        let ties = reference.as_slice().windows(2).filter(|w| w[0].time == w[1].time).count();
        assert!(ties > 100, "only {ties} simultaneous spikes");
        assert_eq!(c.process(&audio), reference);
    }

    #[test]
    fn single_pass_matches_two_pass_reference_binaurally() {
        let mut c = das1();
        let left = fig7_word(16_000, 3);
        let right = AudioBuffer::tone(16_000, 700.0, 0.6, 0.5);
        let reference = two_pass_reference(&c, &left, Ear::Left).merge(&two_pass_reference(
            &c,
            &right,
            Ear::Right,
        ));
        assert_eq!(c.process_binaural(&left, &right), reference);
    }

    #[test]
    fn processing_is_deterministic() {
        let mut c1 = das1();
        let mut c2 = das1();
        let word = fig7_word(16_000, 4);
        assert_eq!(c1.process(&word), c2.process(&word));
    }
}
