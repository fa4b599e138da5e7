//! `aetr-bench` — recorded throughput baseline for the DES interface.
//!
//! Runs the full AER→I2S interface at five operating points — the
//! three dense Criterion points (10 k / 100 k / 400 k evt/s over
//! 10 ms) plus two idle-heavy sparse points (100 evt/s and 1 k evt/s
//! over a full second, where the analytic idle fast-forward dominates)
//! — all with LFSR seed `0xB`, plus a fault-campaign sweep, and writes
//! the measured throughput (simulated events per wall-clock second,
//! median wall-clock per point, and event-queue operations per second
//! from the telemetry profiling hook) as machine-readable JSON.
//!
//! The committed `BENCH_interface.json` at the repo root is this tool's
//! output and doubles as the regression baseline: `--check <path>`
//! fails (exit 1) when the fresh measurement's `sim_events_per_sec`
//! falls more than `--tolerance` (default 20%) below any committed
//! point, and also when per-event lineage recording costs more than
//! 10% wall-clock over plain telemetry at the densest point. CI runs
//! `aetr-bench --quick --out bench_smoke.json --check
//! BENCH_interface.json` as its bench-smoke gate. The baseline is read
//! before the report is written, so `--check` may also name the output
//! file.
//!
//! ```text
//! aetr-bench [--quick] [--out <file.json>] [--check <baseline.json>]
//!            [--tolerance <fraction>] [--jobs N]
//!            [--engine fast-forward|per-tick]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use aetr::campaign::{CampaignConfig, FaultCampaign};
use aetr::interface::{AerToI2sInterface, InterfaceConfig, SimEngine, TelemetryConfig};
use aetr_aer::generator::{LfsrGenerator, SpikeSource};
use aetr_analysis::sweep::log_space;
use aetr_faults::FaultPlan;
use aetr_sim::time::SimTime;
use aetr_telemetry::json::{self, Json};

const USAGE: &str = "\
aetr-bench — DES interface throughput baseline

USAGE:
  aetr-bench [--quick] [--out <file.json>] [--check <baseline.json>]
             [--tolerance <fraction>] [--jobs N]
             [--engine fast-forward|per-tick]

  --quick      3 timing iterations per point instead of 9 (CI smoke)
  --out        where to write the JSON report (default BENCH_interface.json)
  --check      compare against a committed baseline; exit 1 if any
               point's sim_events_per_sec regressed more than the
               tolerance
  --tolerance  allowed relative regression for --check (default 0.2)
  --jobs       worker threads for the campaign sweep (0 = all cores,
               the default); never changes simulation output
  --engine     simulation engine to time (default fast-forward);
               per-tick is the reference model whose hot path matches
               the pre-fast-forward code, used to record `pre_pr`
               medians — reports are bit-identical either way
";

/// Operating points as `(events per second, horizon in ms)`: the three
/// dense Criterion `des_interface` points over 10 ms, and two
/// idle-heavy sparse points over a full second where nearly all
/// simulated time is clock-idle silence.
const POINTS: [(f64, u64); 5] =
    [(100.0, 1_000), (1_000.0, 1_000), (10_000.0, 10), (100_000.0, 10), (400_000.0, 10)];
/// Stimulus seed shared with `benches/interface.rs`.
const SEED: u32 = 0xB;

/// Same-machine medians measured immediately before the analytic idle
/// fast-forward landed (equivalently: `--engine per-tick`, whose hot
/// path is the pre-PR code), so the committed report carries its own
/// before/after story. Wall-clock medians only — absolute numbers are
/// machine-specific; the before/after *ratio* is the claim.
const PRE_PR: [(f64, f64); 5] =
    [(100.0, 0.908), (1_000.0, 11.177), (10_000.0, 0.999), (100_000.0, 4.112), (400_000.0, 8.003)];

struct BenchArgs {
    quick: bool,
    out: String,
    check: Option<String>,
    tolerance: f64,
    jobs: usize,
    engine: SimEngine,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<BenchArgs, String> {
    let mut args = BenchArgs {
        quick: false,
        out: "BENCH_interface.json".to_owned(),
        check: None,
        tolerance: 0.2,
        jobs: 0,
        engine: SimEngine::EventProportional,
    };
    let mut argv = argv;
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = value("--out")?,
            "--check" => args.check = Some(value("--check")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}\n{USAGE}"))?;
                if !(0.0..1.0).contains(&args.tolerance) {
                    return Err(format!("--tolerance must be in [0, 1)\n{USAGE}"));
                }
            }
            "--jobs" => {
                args.jobs =
                    value("--jobs")?.parse().map_err(|e| format!("--jobs: {e}\n{USAGE}"))?;
            }
            "--engine" => {
                args.engine = match value("--engine")?.as_str() {
                    "fast-forward" => SimEngine::EventProportional,
                    "per-tick" => SimEngine::PerTickReference,
                    other => return Err(format!("unknown engine '{other}'\n{USAGE}")),
                };
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if args.jobs == 0 {
        args.jobs = aetr_sim::parallel::available_jobs();
    }
    Ok(args)
}

/// One measured operating point.
struct PointResult {
    rate_hz: f64,
    horizon_ms: u64,
    events: u64,
    wall_ms_median: f64,
    sim_events_per_sec: f64,
    queue_ops: u64,
    queue_ops_per_sec: f64,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("wall-clock times are finite"));
    samples[samples.len() / 2]
}

fn measure_point(
    rate_hz: f64,
    horizon_ms: u64,
    iterations: usize,
    engine: SimEngine,
) -> PointResult {
    let horizon = SimTime::from_ms(horizon_ms);
    let train = LfsrGenerator::new(rate_hz, SEED).generate(horizon);
    let interface = AerToI2sInterface::new(InterfaceConfig::prototype())
        .expect("valid prototype")
        .with_engine(engine);

    // Timed iterations run the plain (telemetry-free) entry point —
    // exactly what the Criterion benchmark times. One warm-up first.
    std::hint::black_box(interface.run(&train, horizon));
    let mut walls = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let started = Instant::now();
        std::hint::black_box(interface.run(&train, horizon));
        walls.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let wall_ms_median = median(&mut walls);

    // One instrumented run supplies the deterministic queue-op count
    // (the profiling hook from the telemetry subsystem); its rate is
    // reported against the *uninstrumented* median so the headline
    // numbers stay comparable to Criterion's.
    let report = interface.run_with_telemetry(
        &train,
        horizon,
        &FaultPlan::nominal(1),
        &TelemetryConfig { enabled: true, sample_cadence: None, lineage: false },
    );
    let queue_ops = report.telemetry.profile.map_or(0, |p| p.queue_ops);

    let events = train.len() as u64;
    let wall_secs = wall_ms_median / 1e3;
    PointResult {
        rate_hz,
        horizon_ms,
        events,
        wall_ms_median,
        sim_events_per_sec: events as f64 / wall_secs,
        queue_ops,
        queue_ops_per_sec: queue_ops as f64 / wall_secs,
    }
}

/// Times the fault-campaign sweep (the other DES-heavy workload this
/// PR parallelised) at the CLI's default surface and rate.
fn measure_campaign(quick: bool, jobs: usize) -> (usize, f64) {
    let fault_points = if quick { 3 } else { 6 };
    let campaign = FaultCampaign::new(CampaignConfig::default()).expect("valid default");
    let rates = log_space(1e-4, 0.3, fault_points);
    let started = Instant::now();
    std::hint::black_box(campaign.run_with_jobs(&rates, jobs));
    (fault_points, started.elapsed().as_secs_f64() * 1e3)
}

/// Lineage-overhead measurement at the densest operating point.
struct LineageOverhead {
    rate_hz: f64,
    horizon_ms: u64,
    wall_ms_telemetry: f64,
    wall_ms_lineage: f64,
    overhead_fraction: f64,
}

/// Times telemetry-enabled runs with and without per-event lineage at
/// the densest operating point (400 k evt/s over 10 ms, where the
/// per-event record cost is most visible). `--check` fails when
/// lineage costs more than 10% wall-clock over plain telemetry.
///
/// Methodology: the two configs run as adjacent *pairs* — back-to-back
/// runs see the same machine load on a shared CI runner, so each
/// pair's wall-clock ratio isolates the lineage cost from load drift.
/// The pair order alternates, the per-pair ratios are bucketed by
/// order, and the reported overhead is the *average of the two
/// order-conditional medians*: medians absorb scheduler hiccups on
/// individual runs, and averaging the orders cancels the systematic
/// warm-second-position bias that would otherwise skew either order
/// alone by a point or two. The headline walls are each side's
/// best-of-N. One run is ~1 ms, so the probe uses a fixed iteration
/// count independent of `--quick`.
fn measure_lineage_overhead(engine: SimEngine) -> LineageOverhead {
    const PAIRS_PER_ORDER: usize = 25;
    let (rate_hz, horizon_ms) = (400_000.0, 10);
    let horizon = SimTime::from_ms(horizon_ms);
    let train = LfsrGenerator::new(rate_hz, SEED).generate(horizon);
    let interface = AerToI2sInterface::new(InterfaceConfig::prototype())
        .expect("valid prototype")
        .with_engine(engine);
    let plan = FaultPlan::nominal(1);
    let time_once = |tel: &TelemetryConfig| {
        let started = Instant::now();
        std::hint::black_box(interface.run_with_telemetry(&train, horizon, &plan, tel));
        started.elapsed().as_secs_f64() * 1e3
    };
    let base = TelemetryConfig { enabled: true, sample_cadence: None, lineage: false };
    let with = TelemetryConfig { lineage: true, ..base };
    // Warm both paths (branch predictors, the allocator, and the
    // lineage layer's recycled record buffer) before timing.
    time_once(&base);
    time_once(&with);
    let (mut wall_ms_telemetry, mut wall_ms_lineage) = (f64::INFINITY, f64::INFINITY);
    // Adjacent-pair ratios, bucketed by run order. The second run of a
    // pair is systematically a little faster (warmer caches/allocator),
    // which biases (telemetry, lineage) pairs low and (lineage,
    // telemetry) pairs high by roughly the same margin. Taking the
    // median within each order and averaging the two cancels that
    // position bias; a single pooled median over alternating orders is
    // bimodal and lands unpredictably on either lobe.
    let mut ratios_tl = Vec::with_capacity(PAIRS_PER_ORDER);
    let mut ratios_lt = Vec::with_capacity(PAIRS_PER_ORDER);
    for i in 0..2 * PAIRS_PER_ORDER {
        let (t_ms, l_ms) = if i % 2 == 0 {
            let t = time_once(&base);
            (t, time_once(&with))
        } else {
            let l = time_once(&with);
            (time_once(&base), l)
        };
        wall_ms_telemetry = wall_ms_telemetry.min(t_ms);
        wall_ms_lineage = wall_ms_lineage.min(l_ms);
        if i % 2 == 0 {
            ratios_tl.push(l_ms / t_ms);
        } else {
            ratios_lt.push(l_ms / t_ms);
        }
    }
    LineageOverhead {
        rate_hz,
        horizon_ms,
        wall_ms_telemetry,
        wall_ms_lineage,
        overhead_fraction: (median(&mut ratios_tl) + median(&mut ratios_lt)) / 2.0 - 1.0,
    }
}

fn engine_label(engine: SimEngine) -> &'static str {
    match engine {
        SimEngine::EventProportional => "fast-forward",
        SimEngine::PerTickReference => "per-tick",
    }
}

fn report_json(
    args: &BenchArgs,
    points: &[PointResult],
    campaign: (usize, f64),
    lineage: &LineageOverhead,
) -> Json {
    Json::object([
        ("version", Json::from(2u64)),
        ("bench", Json::from("des_interface")),
        ("generator", Json::from(format!("lfsr seed 0x{SEED:X}"))),
        ("engine", Json::from(engine_label(args.engine))),
        ("quick", Json::from(args.quick)),
        (
            "points",
            Json::Array(
                points
                    .iter()
                    .map(|p| {
                        Json::object([
                            ("rate_hz", Json::from(p.rate_hz)),
                            ("horizon_ms", Json::from(p.horizon_ms)),
                            ("events", Json::from(p.events)),
                            ("wall_ms_median", Json::from(p.wall_ms_median)),
                            ("sim_events_per_sec", Json::from(p.sim_events_per_sec)),
                            ("queue_ops", Json::from(p.queue_ops)),
                            ("queue_ops_per_sec", Json::from(p.queue_ops_per_sec)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "campaign",
            Json::object([
                ("fault_points", Json::from(campaign.0 as u64)),
                ("jobs", Json::from(args.jobs as u64)),
                ("wall_ms", Json::from(campaign.1)),
            ]),
        ),
        (
            "lineage",
            Json::object([
                ("rate_hz", Json::from(lineage.rate_hz)),
                ("horizon_ms", Json::from(lineage.horizon_ms)),
                ("wall_ms_telemetry", Json::from(lineage.wall_ms_telemetry)),
                ("wall_ms_lineage", Json::from(lineage.wall_ms_lineage)),
                ("overhead_fraction", Json::from(lineage.overhead_fraction)),
            ]),
        ),
        (
            "pre_pr",
            Json::object([
                (
                    "note",
                    Json::from(
                        "same-machine medians recorded before the analytic idle \
                         fast-forward landed (the per-tick reference engine's hot \
                         path); compare wall_ms_median per rate for the speedup \
                         ratio",
                    ),
                ),
                (
                    "points",
                    Json::Array(
                        PRE_PR
                            .iter()
                            .map(|&(rate_hz, wall_ms_median)| {
                                Json::object([
                                    ("rate_hz", Json::from(rate_hz)),
                                    ("wall_ms_median", Json::from(wall_ms_median)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

/// Compares fresh points against a committed baseline report. Returns
/// the per-point verdict lines; `Err` when any point regressed beyond
/// the tolerance.
fn check_against(
    baseline_text: &str,
    points: &[PointResult],
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let baseline =
        json::parse(baseline_text).map_err(|e| format!("baseline does not parse: {e}"))?;
    let committed =
        baseline.get("points").and_then(Json::as_array).ok_or("baseline has no 'points' array")?;
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for p in points {
        let Some(old) = committed.iter().find(|c| {
            c.get("rate_hz").and_then(Json::as_f64).is_some_and(|r| (r - p.rate_hz).abs() < 0.5)
        }) else {
            lines.push(format!("  {:>9.0} evt/s: no committed point, skipped", p.rate_hz));
            continue;
        };
        let old_eps = old
            .get("sim_events_per_sec")
            .and_then(Json::as_f64)
            .ok_or("baseline point lacks sim_events_per_sec")?;
        let ratio = p.sim_events_per_sec / old_eps;
        let verdict = if ratio < 1.0 - tolerance { "REGRESSED" } else { "ok" };
        lines.push(format!(
            "  {:>9.0} evt/s: {:.3e} vs committed {:.3e} ev/s ({:+.1}%) {}",
            p.rate_hz,
            p.sim_events_per_sec,
            old_eps,
            (ratio - 1.0) * 100.0,
            verdict,
        ));
        if ratio < 1.0 - tolerance {
            regressions.push(p.rate_hz);
        }
    }
    if regressions.is_empty() {
        Ok(lines)
    } else {
        Err(format!(
            "{}\nthroughput regressed more than {:.0}% at {} operating point(s)",
            lines.join("\n"),
            tolerance * 100.0,
            regressions.len(),
        ))
    }
}

/// Writes `doc` to `--out`, then gates `points` against the `--check`
/// baseline, if any. The baseline is read before the write: `--check`
/// may name the output file itself (the default `--out`), and reading
/// it afterwards would compare the fresh report with itself.
fn write_and_check(
    args: &BenchArgs,
    doc: &Json,
    points: &[PointResult],
) -> Result<Option<Vec<String>>, String> {
    let baseline = match &args.check {
        Some(path) => Some(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?),
        None => None,
    };
    std::fs::write(&args.out, format!("{doc}\n")).map_err(|e| format!("{}: {e}", args.out))?;
    baseline.map(|text| check_against(&text, points, args.tolerance)).transpose()
}

fn run(args: &BenchArgs) -> Result<String, String> {
    let iterations = if args.quick { 3 } else { 9 };
    let mut summary = String::new();
    summary.push_str(&format!(
        "aetr-bench: {iterations} iterations/point, {} engine, campaign jobs {}\n",
        engine_label(args.engine),
        args.jobs
    ));

    let points: Vec<PointResult> = POINTS
        .iter()
        .map(|&(rate, horizon_ms)| measure_point(rate, horizon_ms, iterations, args.engine))
        .collect();
    for p in &points {
        summary.push_str(&format!(
            "  {:>9.0} evt/s x {:>4} ms: {:>8.3} ms median, {:.3e} sim-ev/s, \
             {:.3e} queue-ops/s\n",
            p.rate_hz, p.horizon_ms, p.wall_ms_median, p.sim_events_per_sec, p.queue_ops_per_sec,
        ));
    }
    let campaign = measure_campaign(args.quick, args.jobs);
    summary.push_str(&format!(
        "  campaign: {} fault points in {:.1} ms ({} jobs)\n",
        campaign.0, campaign.1, args.jobs
    ));
    let lineage = measure_lineage_overhead(args.engine);
    summary.push_str(&format!(
        "  lineage: {:>9.0} evt/s x {:>4} ms: {:.3} ms with records vs {:.3} ms \
         without (best-of-N walls; {:+.1}% order-balanced paired overhead)\n",
        lineage.rate_hz,
        lineage.horizon_ms,
        lineage.wall_ms_lineage,
        lineage.wall_ms_telemetry,
        lineage.overhead_fraction * 100.0,
    ));

    let doc = report_json(args, &points, campaign, &lineage);
    let checked = write_and_check(args, &doc, &points)?;
    summary.push_str(&format!("wrote {}\n", args.out));

    if let (Some(path), Some(lines)) = (&args.check, checked) {
        summary.push_str(&format!("check against {path}:\n{}\n", lines.join("\n")));
        // Absolute gate, independent of the committed baseline: lineage
        // recording must stay within 10% of plain telemetry wall-clock.
        if lineage.overhead_fraction > 0.10 {
            return Err(format!(
                "{summary}lineage overhead {:.1}% (order-balanced paired ratio) exceeds the 10% \
                 budget (best walls: {:.3} ms with records vs {:.3} ms without)",
                lineage.overhead_fraction * 100.0,
                lineage.wall_ms_lineage,
                lineage.wall_ms_telemetry,
            ));
        }
        summary.push_str(&format!(
            "  lineage overhead {:+.1}% within the 10% budget\n",
            lineage.overhead_fraction * 100.0
        ));
    }
    Ok(summary)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(summary) => {
            print!("{summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_defaults_and_flags() {
        let args = parse_args(std::iter::empty()).unwrap();
        assert!(!args.quick);
        assert_eq!(args.out, "BENCH_interface.json");
        assert!(args.check.is_none());
        assert_eq!(args.tolerance, 0.2);
        assert!(args.jobs >= 1, "0 resolves to all cores");
        assert_eq!(args.engine, SimEngine::EventProportional);

        let args = parse_args(
            [
                "--quick",
                "--out",
                "x.json",
                "--check",
                "b.json",
                "--tolerance",
                "0.5",
                "--jobs",
                "2",
                "--engine",
                "per-tick",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(args.quick);
        assert_eq!(args.out, "x.json");
        assert_eq!(args.check.as_deref(), Some("b.json"));
        assert_eq!(args.tolerance, 0.5);
        assert_eq!(args.jobs, 2);
        assert_eq!(args.engine, SimEngine::PerTickReference);
    }

    #[test]
    fn parse_args_rejects_junk() {
        assert!(parse_args(["--frob"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(["--out"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(["--tolerance", "1.5"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(["--engine", "warp"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn report_shape_matches_schema() {
        let args = parse_args(["--quick"].iter().map(|s| s.to_string())).unwrap();
        let points = vec![PointResult {
            rate_hz: 10_000.0,
            horizon_ms: 10,
            events: 100,
            wall_ms_median: 1.0,
            sim_events_per_sec: 100_000.0,
            queue_ops: 5_000,
            queue_ops_per_sec: 5_000_000.0,
        }];
        let lineage = LineageOverhead {
            rate_hz: 400_000.0,
            horizon_ms: 10,
            wall_ms_telemetry: 8.0,
            wall_ms_lineage: 8.4,
            overhead_fraction: 0.05,
        };
        let doc = report_json(&args, &points, (3, 12.5), &lineage);
        let schema_text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/bench.schema.json"
        ))
        .expect("schema is committed");
        let schema = json::parse(&schema_text).expect("schema parses");
        let reparsed = json::parse(&doc.to_string()).expect("report round-trips");
        assert_eq!(json::validate(&reparsed, &schema), Vec::<String>::new());
    }

    #[test]
    fn check_flags_regressions_and_passes_improvements() {
        let fresh = vec![PointResult {
            rate_hz: 400_000.0,
            horizon_ms: 10,
            events: 4_000,
            wall_ms_median: 5.0,
            sim_events_per_sec: 800_000.0,
            queue_ops: 150_000,
            queue_ops_per_sec: 3.0e7,
        }];
        let committed = |eps: f64| {
            format!("{{\"points\": [{{\"rate_hz\": 400000, \"sim_events_per_sec\": {eps}}}]}}")
        };
        assert!(check_against(&committed(700_000.0), &fresh, 0.2).is_ok(), "improvement passes");
        assert!(check_against(&committed(990_000.0), &fresh, 0.2).is_ok(), "within tolerance");
        let err = check_against(&committed(1_100_000.0), &fresh, 0.2).unwrap_err();
        assert!(err.contains("REGRESSED"), "{err}");
        assert!(check_against("not json", &fresh, 0.2).is_err());
    }

    /// `--check P` with `--out P` (or no `--out`, when P is the default)
    /// must gate against P's previous contents, not the fresh report.
    #[test]
    fn check_reads_the_baseline_before_overwriting_it() {
        let path = std::env::temp_dir()
            .join(format!("aetr-bench-self-check-{}.json", std::process::id()))
            .to_str()
            .expect("UTF-8 temp path")
            .to_owned();
        std::fs::write(
            &path,
            "{\"points\": [{\"rate_hz\": 400000, \"sim_events_per_sec\": 1100000}]}",
        )
        .expect("temp dir is writable");
        let args = BenchArgs {
            out: path.clone(),
            check: Some(path.clone()),
            ..parse_args(std::iter::empty()).unwrap()
        };
        let fresh = [PointResult {
            rate_hz: 400_000.0,
            horizon_ms: 10,
            events: 4_000,
            wall_ms_median: 5.0,
            sim_events_per_sec: 800_000.0,
            queue_ops: 150_000,
            queue_ops_per_sec: 3.0e7,
        }];
        let lineage = LineageOverhead {
            rate_hz: 400_000.0,
            horizon_ms: 10,
            wall_ms_telemetry: 8.0,
            wall_ms_lineage: 8.4,
            overhead_fraction: 0.05,
        };
        let doc = report_json(&args, &fresh, (3, 12.5), &lineage);
        let verdict = write_and_check(&args, &doc, &fresh);
        let written = std::fs::read_to_string(&path).expect("report written");
        std::fs::remove_file(&path).expect("temp file removable");
        let err = verdict.expect_err("a 27% drop against the old baseline regresses");
        assert!(err.contains("REGRESSED"), "{err}");
        assert_eq!(written, format!("{doc}\n"), "the fresh report replaces the baseline");
    }

    #[test]
    fn median_takes_the_middle_sample() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [5.0]), 5.0);
    }
}
