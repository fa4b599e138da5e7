//! The four workloads: input generation, the timed operation, the
//! per-operation correctness check and the simulated-model outputs.
//!
//! Why each workload exists is recorded in `README.md`.

use std::hash::{DefaultHasher, Hasher};

use aetr::interface::{AerToI2sInterface, InterfaceConfig, InterfaceReport, SimEngine};
use aetr::mcu::{FidelityReport, McuReceiver};
use aetr::quantizer::{isi_error_samples, quantize_train};
use aetr_aer::generator::{LfsrGenerator, PoissonGenerator, SpikeSource};
use aetr_aer::spike::SpikeTrain;
use aetr_analysis::sweep::log_space;
use aetr_bench::{lfsr_workload, poisson_workload};
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_cochlea::audio::AudioBuffer;
use aetr_cochlea::model::{Cochlea, CochleaConfig};
use aetr_faults::{FaultPlan, FaultRates, WatchdogConfig};
use aetr_power::model::{ActivityInput, PowerModel};
use aetr_sim::time::{SimDuration, SimTime};
use aetr_telemetry::lineage::ErrorBudget;
use aetr_telemetry::TelemetryConfig;

use crate::trace::{Spans, Untraced};

/// Benchmark workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] =
    ["dense_lfsr_550k", "sparse_poisson_200", "cochlea_lineage_faults", "figures_quantizer"];

/// Stimulus seeds. Each is derived from `--seed` unless given on the
/// command line.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub lfsr: u32,
    pub poisson: u64,
    pub cochlea: u64,
    pub fault: u64,
}

impl Seeds {
    /// Independent streams from one benchmark seed (splitmix64).
    pub fn derive(seed: u64) -> Seeds {
        let mix = |salt: u64| {
            let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Seeds { lfsr: (mix(1) as u32).max(1), poisson: mix(2), cochlea: mix(3), fault: mix(4) }
    }
}

/// Simulated-model outputs of one operation. They depend only on the
/// inputs, so they repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelOutputs {
    pub isi_error_mean: f64,
    pub avg_power_uw: f64,
    pub event_delivered_frac: f64,
}

/// Sample rate of the synthesised Fig. 7 word.
const AUDIO_RATE_HZ: u32 = 16_000;
/// Per-event probability of each protocol fault (lost ACK, stuck REQ,
/// malformed edges) in `cochlea_lineage_faults`.
const COCHLEA_FAULT_RATE: f64 = 2e-3;
/// Live-sampler cadence of the telemetry-enabled operation.
pub const SAMPLE_CADENCE: SimDuration = SimDuration::from_us(100);
/// Events per figure sweep point, as in `reproduce_all`.
const POINT_EVENTS: u64 = 1_000;
/// Untimed operations run at the end of setup.
const WARMUP_OPS: usize = 3;

/// A built workload with the reference output every operation must
/// reproduce.
// One exists per process; boxing the larger variant would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Workload {
    Des { w: DesWorkload, reference: DesOutput },
    Figures { w: FiguresWorkload, reference: FiguresOutput },
}

/// What one operation returned.
// Moved, not copied, once per operation; boxing would add an
// allocation inside the timed region.
#[allow(clippy::large_enum_variant)]
pub enum Outcome {
    Des(DesOutput),
    Figures(FiguresOutput),
}

impl Workload {
    /// Generates the inputs, computes the reference output and warms up.
    pub fn setup(name: &str, seeds: Seeds) -> Result<Workload, String> {
        let des = |train, horizon, entry| {
            let w = DesWorkload::new(train, horizon, entry, seeds.fault);
            // The per-tick engine is the cycle-by-cycle reference model.
            let per_tick = w.interface.clone().with_engine(SimEngine::PerTickReference);
            let reference = w.op_with(&per_tick, &mut Untraced);
            Workload::Des { w, reference }
        };
        let workload = match name {
            "dense_lfsr_550k" => {
                let horizon = SimTime::from_ms(100);
                let train = LfsrGenerator::new(550_000.0, seeds.lfsr).generate(horizon);
                des(train, horizon, DesEntry::Plain)
            }
            "sparse_poisson_200" => {
                let horizon = SimTime::from_secs(50);
                let train = PoissonGenerator::new(200.0, 64, seeds.poisson).generate(horizon);
                des(train, horizon, DesEntry::Plain)
            }
            "cochlea_lineage_faults" => {
                let audio = aetr_cochlea::word::fig7_word(AUDIO_RATE_HZ, seeds.cochlea);
                let horizon = SimTime::ZERO + audio.duration();
                des(cochlea_train(&audio), horizon, DesEntry::Instrumented)
            }
            "figures_quantizer" => {
                let w = FiguresWorkload::new(seeds);
                let reference = w.op(&mut Untraced);
                reference.paper_shapes()?;
                Workload::Figures { w, reference }
            }
            other => return Err(format!("unknown workload '{other}'")),
        };
        for _ in 0..WARMUP_OPS {
            std::hint::black_box(workload.op());
        }
        Ok(workload)
    }

    /// One untraced operation.
    pub fn op(&self) -> Outcome {
        self.op_traced(&mut Untraced)
    }

    /// One operation with each layer call passed through `spans`.
    pub fn op_traced(&self, spans: &mut impl Spans) -> Outcome {
        match self {
            Workload::Des { w, .. } => Outcome::Des(w.op_with(&w.interface, spans)),
            Workload::Figures { w, .. } => Outcome::Figures(w.op(spans)),
        }
    }

    /// Sensor events one operation processes.
    pub fn events_per_op(&self) -> u64 {
        match self {
            Workload::Des { w, .. } => w.train.len() as u64,
            Workload::Figures { reference, .. } => reference.quantized_in,
        }
    }

    /// The correctness check, run outside the timed region.
    pub fn check(&self, outcome: &Outcome) -> Result<(), String> {
        match (self, outcome) {
            (Workload::Des { w, reference }, Outcome::Des(out)) => w.check(out, reference),
            (Workload::Figures { reference, .. }, Outcome::Figures(out)) => {
                if out.digest() != reference.digest() {
                    return Err(format!(
                        "figure digest {:016x} differs from setup-time {:016x}",
                        out.digest(),
                        reference.digest()
                    ));
                }
                out.paper_shapes()
            }
            _ => Err("outcome from another workload".into()),
        }
    }
}

impl Outcome {
    pub fn model(&self) -> ModelOutputs {
        match self {
            Outcome::Des(out) => ModelOutputs {
                isi_error_mean: out.fidelity.mean_isi_error,
                avg_power_uw: out.report.power.total.as_microwatts(),
                event_delivered_frac: 1.0 - out.fidelity.loss_ratio(),
            },
            Outcome::Figures(out) => out.model(),
        }
    }
}

fn cochlea_train(audio: &AudioBuffer) -> SpikeTrain {
    Cochlea::new(CochleaConfig::das1()).expect("DAS1 config validates").process(audio)
}

/// Which DES entry point one operation calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesEntry {
    /// `AerToI2sInterface::run`.
    Plain,
    /// `run_with_telemetry` with the live sampler, lineage and
    /// protocol faults, followed by the lineage error budget.
    Instrumented,
}

/// A workload that drives the discrete-event interface.
pub struct DesWorkload {
    pub interface: AerToI2sInterface,
    pub train: SpikeTrain,
    pub horizon: SimTime,
    pub entry: DesEntry,
    /// The operation's fault plan: nominal for the plain entry point.
    pub plan: FaultPlan,
    /// Telemetry of the instrumented entry point.
    telemetry: TelemetryConfig,
    receiver: McuReceiver,
}

/// Everything one DES operation returns.
pub struct DesOutput {
    pub report: InterfaceReport,
    pub fidelity: FidelityReport,
    pub budget: Option<ErrorBudget>,
}

impl DesWorkload {
    fn new(train: SpikeTrain, horizon: SimTime, entry: DesEntry, fault_seed: u64) -> DesWorkload {
        let interface = AerToI2sInterface::new(InterfaceConfig::prototype())
            .expect("prototype config validates")
            .with_engine(SimEngine::EventProportional);
        let clock = interface.config().clock;
        // θ_div · (2^(N_div+1) − 1) T_min ticks: the saturation value the
        // host reads over SPI, so the MCU re-anchors after shutdowns.
        let saturation = u64::from(clock.theta_div) * ((1u64 << (clock.n_div + 1)) - 1);
        let receiver = McuReceiver::new(clock.base_sampling_period()).with_saturation(saturation);
        let plan = match entry {
            DesEntry::Plain => FaultPlan::nominal(0),
            DesEntry::Instrumented => FaultPlan::nominal(fault_seed)
                .with_rates(FaultRates::protocol(COCHLEA_FAULT_RATE))
                .with_watchdog(WatchdogConfig::default()),
        };
        let telemetry = TelemetryConfig::with_cadence(SAMPLE_CADENCE).with_lineage();
        DesWorkload { interface, train, horizon, entry, plan, telemetry, receiver }
    }

    pub fn t_min(&self) -> SimDuration {
        self.interface.config().clock.base_sampling_period()
    }

    /// The operation on `interface` (the timed engine, or the reference).
    fn op_with(&self, interface: &AerToI2sInterface, spans: &mut impl Spans) -> DesOutput {
        let report = spans.span("core.interface.run", || match self.entry {
            DesEntry::Plain => interface.run(&self.train, self.horizon),
            DesEntry::Instrumented => {
                interface.run_with_telemetry(&self.train, self.horizon, &self.plan, &self.telemetry)
            }
        });
        let fidelity = spans.span("core.mcu", || {
            let reconstructed = self.receiver.receive_anchored(&report.i2s);
            FidelityReport::compare(&self.train, &reconstructed)
        });
        let budget = (self.entry == DesEntry::Instrumented).then(|| {
            spans.span("telemetry.lineage.budget", || {
                ErrorBudget::from_records(report.telemetry.lineage.records(), self.t_min())
            })
        });
        DesOutput { report, fidelity, budget }
    }

    fn check(&self, out: &DesOutput, reference: &DesOutput) -> Result<(), String> {
        let r = &out.report;
        if *r != reference.report {
            return Err("report differs from the per-tick reference".into());
        }
        if out.fidelity != reference.fidelity || out.budget != reference.budget {
            return Err("MCU fidelity or error budget differs from the reference".into());
        }
        // Injected malformed transactions are the only ones allowed to
        // break 4-phase order.
        let malformed =
            r.handshake.transactions().iter().filter(|t| !t.is_well_formed()).count() as u64;
        if malformed != r.health.malformed_transactions {
            return Err(format!(
                "{malformed} malformed handshakes, {} injected",
                r.health.malformed_transactions
            ));
        }
        if malformed == 0 {
            r.handshake.verify_protocol().map_err(|e| format!("handshake protocol: {e:?}"))?;
        }
        if self.entry == DesEntry::Instrumented && r.telemetry.lineage.len() != r.events.len() {
            return Err(format!(
                "{} lineage records for {} captured events",
                r.telemetry.lineage.len(),
                r.events.len()
            ));
        }
        Ok(())
    }
}

/// The `reproduce_all` computation of Figs. 6–8 on pre-generated
/// inputs. It writes no files.
pub struct FiguresWorkload {
    /// Fig. 6 points: (θ_div, rate, train, horizon).
    fig6: Vec<(u32, f64, SpikeTrain, SimTime)>,
    /// Fig. 7: the synthesised word the cochlea turns into spikes.
    audio: AudioBuffer,
    /// Fig. 8 points: (rate, train, horizon), each quantized under the
    /// prototype policy and under the never-dividing naive clock.
    fig8: Vec<(f64, SpikeTrain, SimTime)>,
    model: PowerModel,
}

/// One pass over the three figures.
#[derive(Debug, Clone, PartialEq)]
pub struct FiguresOutput {
    pub fig6: Vec<Fig6Point>,
    /// Fig. 7 per θ_div: (mean relative ISI error, P(err < 3%)).
    pub fig7: Vec<(f64, f64)>,
    /// Fig. 8 per rate: (rate, θ=64 power µW, naive power µW).
    pub fig8: Vec<(f64, f64, f64)>,
    pub cochlea_spikes: u64,
    /// Spikes offered to the quantizer, and records it returned.
    pub quantized_in: u64,
    pub quantized_out: u64,
    pub saturated: u64,
}

/// One point of the Fig. 6 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Point {
    pub theta_div: u32,
    pub rate_hz: f64,
    /// Mean relative ISI error and its standard error.
    pub mean_error: f64,
    pub std_error: f64,
    pub saturated_frac: f64,
}

/// One quantized train reduced to what the figures plot.
struct QuantPoint {
    mean_error: f64,
    std_error: f64,
    below_3pct: f64,
    saturated_frac: f64,
    activity: ActivityInput,
}

impl FiguresWorkload {
    fn new(seeds: Seeds) -> FiguresWorkload {
        let mut fig6 = Vec::new();
        for theta in [16u32, 64] {
            for (i, &rate) in log_space(100.0, 2e6, 7).iter().enumerate() {
                let seed = seeds.poisson.wrapping_add(i as u64);
                let (train, horizon) = poisson_workload(rate, seed, POINT_EVENTS);
                fig6.push((theta, rate, train, horizon));
            }
        }
        let fig8 = log_space(10.0, 800_000.0, 7)
            .iter()
            .enumerate()
            .map(|(i, &rate)| {
                let seed = seeds.lfsr.wrapping_add(i as u32).max(1);
                let (train, horizon) = lfsr_workload(rate, seed, POINT_EVENTS);
                (rate, train, horizon)
            })
            .collect();
        FiguresWorkload {
            fig6,
            audio: aetr_cochlea::word::fig7_word(AUDIO_RATE_HZ, seeds.cochlea),
            fig8,
            model: PowerModel::igloo_nano(),
        }
    }

    /// The timed operation, with each layer call passed through `spans`.
    pub fn op(&self, spans: &mut impl Spans) -> FiguresOutput {
        let mut out = FiguresOutput {
            fig6: Vec::with_capacity(self.fig6.len()),
            fig7: Vec::with_capacity(3),
            fig8: Vec::with_capacity(self.fig8.len()),
            cochlea_spikes: 0,
            quantized_in: 0,
            quantized_out: 0,
            saturated: 0,
        };
        for (theta, rate, train, horizon) in &self.fig6 {
            let config = ClockGenConfig::prototype().with_theta_div(*theta);
            let q = quantize(spans, &mut out, &config, train, *horizon);
            out.fig6.push(Fig6Point {
                theta_div: *theta,
                rate_hz: *rate,
                mean_error: q.mean_error,
                std_error: q.std_error,
                saturated_frac: q.saturated_frac,
            });
        }

        let train = spans.span("cochlea.process", || cochlea_train(&self.audio));
        out.cochlea_spikes = train.len() as u64;
        let horizon = SimTime::ZERO + self.audio.duration();
        for theta in [16u32, 32, 64] {
            let config = ClockGenConfig::prototype().with_theta_div(theta);
            let q = quantize(spans, &mut out, &config, &train, horizon);
            out.fig7.push((q.mean_error, q.below_3pct));
        }

        let proto = ClockGenConfig::prototype();
        let naive = proto.with_policy(DivisionPolicy::Never);
        for (rate, train, horizon) in &self.fig8 {
            let mut power = |config: &ClockGenConfig| {
                let q = quantize(spans, &mut out, config, train, *horizon);
                spans.span("power.model", || self.model.evaluate(&q.activity)).total.as_microwatts()
            };
            let (divided, flat) = (power(&proto), power(&naive));
            out.fig8.push((*rate, divided, flat));
        }
        out
    }
}

fn quantize(
    spans: &mut impl Spans,
    out: &mut FiguresOutput,
    config: &ClockGenConfig,
    train: &SpikeTrain,
    horizon: SimTime,
) -> QuantPoint {
    let (q, samples) = spans.span("clockgen.quantizer", || {
        let q = quantize_train(config, train, horizon);
        let samples = isi_error_samples(&q);
        (q, samples)
    });
    let errors: Vec<f64> = samples.iter().map(|s| s.relative_error()).collect();
    let saturated = q.records.iter().filter(|r| r.saturated).count() as u64;
    out.quantized_in += train.len() as u64;
    out.quantized_out += q.records.len() as u64;
    out.saturated += saturated;
    let mean_error = mean(&errors);
    let n = errors.len().max(2) as f64;
    let variance = errors.iter().map(|e| (e - mean_error).powi(2)).sum::<f64>() / (n - 1.0);
    QuantPoint {
        mean_error,
        std_error: (variance / n).sqrt(),
        below_3pct: errors.iter().filter(|&&e| e < 0.03).count() as f64
            / errors.len().max(1) as f64,
        saturated_frac: saturated as f64 / q.records.len().max(1) as f64,
        activity: q.activity,
    }
}

impl FiguresOutput {
    /// Hash of every output value, bit for bit (`Debug` prints each
    /// float in its shortest exact form).
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        h.write(format!("{self:?}").as_bytes());
        h.finish()
    }

    /// The paper's Fig. 6/8 claims: θ=64 error below 3% in the active
    /// region, the naive clock flat at ≈4.4 mW, the ≈50 µW idle floor.
    pub fn paper_shapes(&self) -> Result<(), String> {
        // Active region: the bottom of the θ=64 error curve, between
        // the saturated low rates and the Nyquist rise. Each point
        // estimates the mean error from ~1 000 intervals, so the claim
        // fails only when the estimate is more than two standard
        // errors above 3%.
        let active = self
            .fig6
            .iter()
            .filter(|p| p.theta_div == 64)
            .min_by(|a, b| a.mean_error.total_cmp(&b.mean_error))
            .ok_or("no θ=64 points")?;
        if active.mean_error - 2.0 * active.std_error >= 0.03 {
            return Err(format!(
                "θ=64 active-region error {:.4} ± {:.4} at {:.0} evt/s is not below 3%",
                active.mean_error, active.std_error, active.rate_hz
            ));
        }
        for &(rate, _, flat) in &self.fig8 {
            if !(4_000.0..4_700.0).contains(&flat) {
                return Err(format!("naive power {flat:.0} µW at {rate:.0} evt/s is not ≈4.4 mW"));
            }
        }
        let floor = self.fig8.first().map_or(0.0, |&(_, divided, _)| divided);
        if !(49.0..80.0).contains(&floor) {
            return Err(format!("lowest-rate power {floor:.1} µW is not the ≈50 µW floor"));
        }
        Ok(())
    }

    fn model(&self) -> ModelOutputs {
        let errors: Vec<f64> =
            self.fig6.iter().map(|p| p.mean_error).chain(self.fig7.iter().map(|p| p.0)).collect();
        let divided: Vec<f64> = self.fig8.iter().map(|p| p.1).collect();
        ModelOutputs {
            isi_error_mean: mean(&errors),
            avg_power_uw: mean(&divided),
            event_delivered_frac: self.quantized_out as f64 / self.quantized_in as f64,
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
