//! Ablation: *how* should the sampling period grow between events?
//!
//! The paper chooses geometric doubling (recursive division). This
//! harness compares, at equal `θ_div`/`N_div` budgets:
//!
//! * `recursive`  — double every θ cycles, then shut down (the paper);
//! * `linear`     — grow by `+T_min` every θ cycles, then shut down;
//! * `divide-only`— double but never shut down;
//! * `no-division`— the naïve constant clock.
//!
//! For each policy, power and accuracy across rates: recursive should
//! dominate the power/accuracy frontier at low rates, with linear
//! growth paying either range (it saturates ~8x earlier at N=3) or
//! power.

use aetr::quantizer::{isi_error_samples, quantize_train};
use aetr_analysis::sweep::log_space;
use aetr_analysis::table::{fmt_sig, Table};
use aetr_bench::{banner, poisson_workload, write_result};
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_power::model::PowerModel;

const SEED: u64 = 0xAB1;

fn main() {
    banner("Ablation", "division policy: recursive vs linear vs divide-only vs none", SEED);

    let model = PowerModel::igloo_nano();
    let policies = [
        DivisionPolicy::Recursive,
        DivisionPolicy::Linear,
        DivisionPolicy::DivideOnly,
        DivisionPolicy::Never,
    ];

    println!("measurable range per policy (θ=64, N=3):");
    for policy in policies {
        match ClockGenConfig::prototype().with_policy(policy).max_measurable() {
            Some(d) => println!("  {policy:<12} saturates at {d}"),
            None => println!("  {policy:<12} never saturates (counter-width limited)"),
        }
    }
    println!();

    let mut table = Table::new(vec!["policy", "rate (evt/s)", "power (uW)", "mean err", "sat %"]);
    for policy in policies {
        let config = ClockGenConfig::prototype().with_policy(policy);
        for (i, &rate) in log_space(100.0, 500_000.0, 8).iter().enumerate() {
            let (train, horizon) = poisson_workload(rate, SEED + i as u64, 2_000);
            let out = quantize_train(&config, &train, horizon);
            let power = model.evaluate(&out.activity).total;
            let samples = isi_error_samples(&out);
            let mean_err: f64 = samples.iter().map(|s| s.relative_error()).sum::<f64>()
                / samples.len().max(1) as f64;
            let sat =
                samples.iter().filter(|s| s.saturated).count() as f64 / samples.len().max(1) as f64;
            table.row(vec![
                policy.to_string(),
                fmt_sig(rate),
                format!("{:.1}", power.as_microwatts()),
                format!("{mean_err:.4}"),
                format!("{:.1}", sat * 100.0),
            ]);
        }
    }
    println!("{}", table.to_ascii());

    let path =
        write_result("ablation_division_policy.csv", &table.to_csv()).expect("write results");
    println!("CSV written to {}", path.display());
}
