//! Figure 6 — average relative timestamp error vs event rate.
//!
//! Reproduces: Poisson spike streams swept from 100 evt/s to 2 Mevt/s,
//! one curve per `θ_div ∈ {16, 32, 64}`, average relative error of the
//! AER→AETR conversion on a log–log plot, with the three operating
//! regions (inactive / active / high-activity) annotated.
//!
//! Paper expectation: error ≈ 1 in the inactive region, oscillating
//! well below the analytic `~1/θ_div` bound in the active region
//! (< 3 %), rising again near the Nyquist limit of the undivided
//! sampling clock.

use aetr::quantizer::{isi_error_samples, quantize_train};
use aetr_analysis::error_stats::{classify_region, ErrorSummary};
use aetr_analysis::plot::{AsciiPlot, Scale};
use aetr_analysis::sweep::log_space;
use aetr_analysis::table::{fmt_sig, Table};
use aetr_bench::{banner, poisson_workload, write_result};
use aetr_clockgen::config::ClockGenConfig;

const SEED: u64 = 0xF166;
const THETAS: [u32; 3] = [16, 32, 64];
const MIN_EVENTS: u64 = 3_000;

fn main() {
    banner(
        "Figure 6",
        "average relative timestamp error vs event rate (Poisson, θ ∈ {16,32,64})",
        SEED,
    );

    let rates = log_space(100.0, 2e6, 25);
    let mut table =
        Table::new(vec!["theta_div", "rate (evt/s)", "mean err", "median err", "sat %", "region"]);
    let mut plot = AsciiPlot::new(64, 20, Scale::Log, Scale::Log);

    for &theta in &THETAS {
        let config = ClockGenConfig::prototype().with_theta_div(theta);
        let max_meas = config.max_measurable().expect("recursive policy saturates").as_secs_f64();
        let t_min = config.base_sampling_period().as_secs_f64();
        let mut curve = Vec::new();

        for (i, &rate) in rates.iter().enumerate() {
            let (train, horizon) = poisson_workload(rate, SEED + i as u64, MIN_EVENTS);
            let out = quantize_train(&config, &train, horizon);
            let samples: Vec<(f64, bool)> =
                isi_error_samples(&out).iter().map(|s| (s.relative_error(), s.saturated)).collect();
            let Some(summary) = ErrorSummary::of(&samples) else { continue };
            let region = classify_region(rate, summary.saturation_ratio, max_meas, theta, t_min);
            table.row(vec![
                theta.to_string(),
                fmt_sig(rate),
                format!("{:.5}", summary.mean),
                format!("{:.5}", summary.median),
                format!("{:.1}", summary.saturation_ratio * 100.0),
                region.to_string(),
            ]);
            curve.push((rate, summary.mean.max(1e-5)));
        }
        plot.series(format!("theta={theta}"), curve);
    }

    println!("{}", table.to_ascii());
    println!("{}", plot.render());

    // Headline checks mirrored from the paper's §5.1 narrative.
    let proto = ClockGenConfig::prototype();
    let (train, horizon) = poisson_workload(100_000.0, SEED, MIN_EVENTS);
    let out = quantize_train(&proto, &train, horizon);
    let samples: Vec<(f64, bool)> =
        isi_error_samples(&out).iter().map(|s| (s.relative_error(), s.saturated)).collect();
    let active = ErrorSummary::of(&samples).expect("non-empty");
    println!(
        "active region check (θ=64, 100 kevt/s): mean error {:.4} (paper bound: < 0.03) -> {}",
        active.mean,
        if active.mean < 0.03 { "PASS" } else { "FAIL" }
    );

    let path = write_result("fig6_error.csv", &table.to_csv()).expect("write results");
    println!("\nCSV written to {}", path.display());
}
