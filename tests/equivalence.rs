//! Model-equivalence integration tests: the fast behavioral engine and
//! the cycle-accurate discrete-event interface must tell the same
//! story — timestamps, saturation, wakes, and power.

use aetr::front_end::FrontEndConfig;
use aetr::interface::{AerToI2sInterface, InterfaceConfig};
use aetr::quantizer::quantize_train;
use aetr_aer::generator::{LfsrGenerator, PoissonGenerator, SpikeSource};
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_power::model::PowerModel;
use aetr_sim::time::SimTime;

fn ideal_front_end(clock: ClockGenConfig) -> InterfaceConfig {
    InterfaceConfig { clock, front_end: FrontEndConfig::ideal(), ..InterfaceConfig::prototype() }
}

#[test]
fn timestamps_agree_across_policies() {
    for policy in [DivisionPolicy::Recursive, DivisionPolicy::DivideOnly] {
        let clock = ClockGenConfig::prototype().with_theta_div(16).with_policy(policy);
        let cfg = ideal_front_end(clock);
        let train = PoissonGenerator::new(60_000.0, 32, 31).generate(SimTime::from_ms(10));

        let des = AerToI2sInterface::new(cfg).unwrap().run(&train, SimTime::from_ms(10));
        let behav = quantize_train(&clock, &train, SimTime::from_ms(10));

        assert_eq!(des.events.len(), behav.records.len());
        // Handshake-timing skew moves detections by a tick or two of
        // the *current* (possibly divided) period, i.e. up to
        // 2·2^N_div base ticks.
        let tol = 2 * (1i64 << clock.n_div);
        let close = des
            .events
            .iter()
            .zip(&behav.records)
            .filter(|(d, b)| {
                let dt = d.event.timestamp.ticks() as i64 - b.event.timestamp.ticks() as i64;
                dt.abs() <= tol
            })
            .count();
        assert!(
            close as f64 / des.events.len() as f64 > 0.98,
            "policy {policy:?}: only {close}/{} timestamps agree within {tol} ticks",
            des.events.len()
        );
    }
}

#[test]
fn wake_counts_agree() {
    let clock = ClockGenConfig::prototype();
    let cfg = ideal_front_end(clock);
    // Sparse stream: every event beyond the ~64 us range.
    let train = PoissonGenerator::new(500.0, 8, 37).generate(SimTime::from_ms(200));
    let des = AerToI2sInterface::new(cfg).unwrap().run(&train, SimTime::from_ms(200));
    let behav = quantize_train(&clock, &train, SimTime::from_ms(200));
    let diff = (des.wake_count as i64 - behav.activity.wake_count as i64).abs();
    assert!(
        diff <= 2,
        "wake counts diverge: DES {} vs behavioral {}",
        des.wake_count,
        behav.activity.wake_count
    );
}

#[test]
fn power_agrees_within_ten_percent_across_rates() {
    let model = PowerModel::igloo_nano();
    for (rate, ms) in [(2_000.0, 100u64), (50_000.0, 50), (300_000.0, 20)] {
        let clock = ClockGenConfig::prototype();
        let cfg = ideal_front_end(clock);
        let horizon = SimTime::from_ms(ms);
        let train = LfsrGenerator::new(rate, 0xE0).generate(horizon);
        let des = AerToI2sInterface::new(cfg).unwrap().run(&train, horizon);
        let behav = quantize_train(&clock, &train, horizon);
        let p_des = des.power.total.as_microwatts();
        let p_behav = model.evaluate(&behav.activity).total.as_microwatts();
        let rel = (p_des - p_behav).abs() / p_behav;
        assert!(rel < 0.1, "rate {rate}: DES {p_des} uW vs behavioral {p_behav} uW");
    }
}

#[test]
fn saturation_flags_agree() {
    let clock = ClockGenConfig::prototype();
    let cfg = ideal_front_end(clock);
    let train = PoissonGenerator::new(8_000.0, 16, 41).generate(SimTime::from_ms(100));
    let des = AerToI2sInterface::new(cfg).unwrap().run(&train, SimTime::from_ms(100));
    let behav = quantize_train(&clock, &train, SimTime::from_ms(100));
    let max_ticks = clock.saturation_ticks().expect("recursive policy");
    let des_sat =
        des.events.iter().filter(|e| e.event.timestamp.ticks() as u64 == max_ticks).count();
    let behav_sat = behav.records.iter().filter(|r| r.saturated).count();
    // Borderline intervals (just at the shutdown boundary) may tip
    // either way between the models: allow 1.5% of events to disagree.
    let diff = (des_sat as i64 - behav_sat as i64).abs();
    let budget = (des.events.len() as f64 * 0.015).ceil() as i64;
    assert!(
        diff <= budget.max(3),
        "saturation counts diverge: DES {des_sat} vs behavioral {behav_sat}"
    );
}

#[test]
fn prototype_front_end_only_degrades_accuracy_slightly() {
    // The 2-FF synchroniser delays each detection by up to two ticks
    // of the current (possibly divided) period. Individual timestamps
    // shift, but the *accuracy* of the measured inter-spike intervals
    // must stay within a couple of percent of the ideal front end's.
    let clock = ClockGenConfig::prototype();
    let train = PoissonGenerator::new(50_000.0, 32, 43).generate(SimTime::from_ms(10));
    let base = clock.base_sampling_period().as_secs_f64();

    let mean_err = |front_end| {
        let cfg = InterfaceConfig { clock, front_end, ..InterfaceConfig::prototype() };
        let des = AerToI2sInterface::new(cfg).unwrap().run(&train, SimTime::from_ms(10));
        let errs: Vec<f64> = des
            .events
            .windows(2)
            .map(|w| {
                let truth = (w[1].request - w[0].request).as_secs_f64();
                let measured = w[1].event.timestamp.ticks() as f64 * base;
                (measured - truth).abs() / truth.max(measured)
            })
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    };
    let ideal = mean_err(FrontEndConfig::ideal());
    let proto = mean_err(FrontEndConfig::prototype());
    // At 50 kevt/s the local period is 2–4× T_min, so a ±2-tick
    // synchroniser skew costs up to ~2 divided periods per interval —
    // a few percent of the 20 µs mean ISI.
    assert!(
        proto - ideal < 0.05,
        "2-FF sync cost {:.4} on top of ideal {:.4}",
        proto - ideal,
        ideal
    );
}
