//! The paper's headline claims, asserted as tests against the
//! simulated system. Each test cites the claim it checks.

use aetr::quantizer::{isi_error_samples, quantize_train, to_power_activity};
use aetr_aer::generator::{LfsrGenerator, PoissonGenerator, SpikeSource};
use aetr_aer::handshake::CAVIAR_EVENT_BUDGET;
use aetr_aer::spike::SpikeTrain;
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_clockgen::engine::SamplingEngine;
use aetr_power::model::PowerModel;
use aetr_sim::time::{SimDuration, SimTime};

fn power_at(config: &ClockGenConfig, rate_hz: f64, seed: u32) -> f64 {
    let secs = (2_000.0 / rate_hz).max(0.5);
    let horizon = SimTime::ZERO + SimDuration::from_secs_f64(secs);
    let train = LfsrGenerator::new(rate_hz, seed).generate(horizon);
    let out = quantize_train(config, &train, horizon);
    PowerModel::igloo_nano().evaluate(&out.activity).total.as_microwatts()
}

/// Abstract: "consuming less than 4.5 mW under a 550 kevt/s spike rate
/// (i.e. a noisy environment)".
#[test]
fn claim_power_ceiling_at_550kevts() {
    let uw = power_at(&ClockGenConfig::prototype(), 550_000.0, 1);
    assert!(uw < 4_600.0, "power at 550 kevt/s: {uw} uW");
    assert!(uw > 4_000.0, "suspiciously low power at 550 kevt/s: {uw} uW");
}

/// Abstract: "down to 50 uW in absence of spikes".
#[test]
fn claim_idle_floor_50uw() {
    let out =
        quantize_train(&ClockGenConfig::prototype(), &SpikeTrain::new(), SimTime::from_secs(1));
    let uw = PowerModel::igloo_nano().evaluate(&out.activity).total.as_microwatts();
    assert!((49.0..55.0).contains(&uw), "idle power {uw} uW");
}

/// §6: "scales from 4.5 mW at a 550 kevt/s rate down to slightly more
/// than 50 uW at rates lower than 10 evt/s (a 90x factor)".
#[test]
fn claim_90x_energy_proportionality() {
    let proto = ClockGenConfig::prototype();
    let high = power_at(&proto, 550_000.0, 2);
    let low = power_at(&proto, 10.0, 3);
    let factor = high / low;
    assert!(factor > 60.0, "energy-proportionality factor only {factor:.0}x");
    assert!(low < 80.0, "near-idle power {low} uW should sit just above the 50 uW floor");
}

/// §6: "a naive constant clock methodology is stuck to the same 4.5 mW
/// power regardless of the event rate".
#[test]
fn claim_naive_baseline_is_flat() {
    let naive = ClockGenConfig::prototype().with_policy(DivisionPolicy::Never);
    let at_low = power_at(&naive, 100.0, 4);
    let at_high = power_at(&naive, 500_000.0, 5);
    // Only the tiny per-event term differs: within ~10%.
    assert!(
        (at_high - at_low).abs() / at_high < 0.1,
        "naive power varies: {at_low} vs {at_high} uW"
    );
    assert!(at_low > 4_000.0, "naive floor {at_low} uW");
}

/// Abstract: "keeping accuracy above 97% on timestamps"; §6: "accuracy
/// reduction can be kept bounded below 3%, and on average it is even
/// smaller".
#[test]
fn claim_97_percent_accuracy_in_active_region() {
    let train = PoissonGenerator::new(120_000.0, 64, 6).generate(SimTime::from_ms(200));
    let out = quantize_train(&ClockGenConfig::prototype(), &train, SimTime::from_ms(200));
    let samples = isi_error_samples(&out);
    let mean: f64 = samples.iter().map(|s| s.relative_error()).sum::<f64>() / samples.len() as f64;
    assert!(mean < 0.03, "mean relative error {mean}");
    let median = {
        let mut errs: Vec<f64> = samples.iter().map(|s| s.relative_error()).collect();
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        errs[errs.len() / 2]
    };
    assert!(median < 0.01, "median error {median} — 'on average it is even smaller'");
}

/// §5: "inter-spike time of 130 ns or more can be sensed by the
/// interface; more than enough to respect ... CAVIAR, which requires
/// each event to be completed within 700 ns".
#[test]
fn claim_min_interval_and_caviar_headroom() {
    let cfg = ClockGenConfig::prototype();
    let min = cfg.min_resolvable_interval();
    assert!(min <= SimDuration::from_ns(140), "min resolvable interval {min}");
    assert!(min >= SimDuration::from_ns(120), "min resolvable interval {min}");
    assert!(CAVIAR_EVENT_BUDGET > min * 5, "CAVIAR headroom");
}

/// §5.2: "the time to recover from the off-state is in the order of
/// 100 ns; which is comparable with a single clock period at the max
/// freq".
#[test]
fn claim_wake_latency_one_period() {
    let cfg = ClockGenConfig::prototype();
    let wake = cfg.ring.wake_latency;
    let period = cfg.base_sampling_period();
    assert!(wake >= period / 2 && wake <= period * 3, "wake {wake} vs period {period}");

    // And the wake actually bounds the acquisition delay of the event
    // that caused it.
    let mut engine = SamplingEngine::new(&cfg);
    let request = SimTime::ZERO + cfg.max_measurable().unwrap() + SimDuration::from_ms(1);
    let ev = engine.process(request);
    assert!(ev.woke_clock);
    assert_eq!(ev.detection - ev.request, wake + period);
}

/// §5.2: "we measured a reduction in power consumption up to 55% in the
/// active region" — isolating the division effect (no shutdown).
#[test]
fn claim_55_percent_division_saving() {
    let divide_only = ClockGenConfig::prototype().with_policy(DivisionPolicy::DivideOnly);
    let naive = ClockGenConfig::prototype().with_policy(DivisionPolicy::Never);
    let saving = 1.0 - power_at(&divide_only, 30_000.0, 7) / power_at(&naive, 30_000.0, 8);
    assert!(saving > 0.45, "division-only saving {:.0}%", saving * 100.0);
}

/// §5.2 (Fig. 8 discussion): "when the event rate drops below ~1 kevt/s
/// the clock is often shut down completely, boosting efficiency up to
/// near ideal power consumption".
#[test]
fn claim_near_ideal_at_low_rates() {
    let proto = ClockGenConfig::prototype();
    let model = PowerModel::igloo_nano();
    let ideal = aetr_power::ideal::IdealModel::fit_from_high_activity(
        aetr_power::units::Power::from_microwatts(power_at(&proto, 550_000.0, 9)),
        550_000.0,
        model.static_power,
    );
    let measured = power_at(&proto, 100.0, 10);
    let gap = ideal.proportionality_gap(aetr_power::units::Power::from_microwatts(measured), 100.0);
    assert!(gap < 2.0, "gap to ideal at 100 evt/s: {gap:.2}x");
}

/// §3/§4: the maximum measurable interval is set by θ_div and N_div —
/// "these two parameters can be used as two different knobs".
#[test]
fn claim_knobs_set_max_measurable_interval() {
    let t = |theta: u32, n: u32| {
        ClockGenConfig::prototype().with_theta_div(theta).with_n_div(n).max_measurable().unwrap()
    };
    // Doubling θ_div doubles the range; one more division roughly
    // doubles it too (2^(N+1)-1 factor).
    assert_eq!(t(128, 3), t(64, 3) * 2);
    let ratio = t(64, 4).as_ps() as f64 / t(64, 3).as_ps() as f64;
    assert!((ratio - 31.0 / 15.0).abs() < 1e-9);

    // Activity accounting confirms the quantizer respects them.
    let mut engine = SamplingEngine::new(&ClockGenConfig::prototype());
    let _ = engine.process(SimTime::from_ms(5));
    let activity = to_power_activity(engine.report());
    assert_eq!(activity.wake_count, 1, "a 5 ms gap must wake the clock (range is ~64 us)");
}
