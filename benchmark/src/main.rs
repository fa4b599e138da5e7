//! `aetr-benchmark` — end-to-end and per-layer benchmark of the AETR
//! simulator. See `README.md` for the workloads and metrics.
//!
//! ```text
//! aetr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--lfsr-seed <n>] [--poisson-seed <n>]
//!                [--cochlea-seed <n>] [--fault-seed <n>] [--out-dir <dir>]
//! ```
//!
//! One caller runs operations back to back (a closed loop). The last
//! line of standard output is the JSON result; the full report, with
//! provenance and (when traced) every span, goes to `--out-dir`.

mod calibrate;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use aetr_telemetry::json::Json;

use workloads::{Seeds, Workload, NAMES};

const USAGE: &str = "\
usage: aetr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
                      [--lfsr-seed <n>] [--poisson-seed <n>] [--cochlea-seed <n>]
                      [--fault-seed <n>] [--out-dir <dir>]
workloads: dense_lfsr_550k, sparse_poisson_200, cochlea_lineage_faults, figures_quantizer";

/// Setup runs this many times; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed operations per run: p90 then has at least 10 samples
/// beyond it.
const MIN_OPS: usize = 110;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    seeds: Seeds,
    out_dir: String,
}

fn parse_u64(flag: &str, text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("{flag} {text}: {e}"))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut lfsr, mut poisson, mut cochlea, mut fault) = (None, None, None, None);
    let mut out_dir = ".bench_out".to_owned();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(parse_u64(&flag, &value)?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3_600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            "--lfsr-seed" => {
                let v = parse_u64(&flag, &value)?;
                lfsr = Some(u32::try_from(v).map_err(|_| format!("--lfsr-seed {v}: not a u32"))?);
            }
            "--poisson-seed" => poisson = Some(parse_u64(&flag, &value)?),
            "--cochlea-seed" => cochlea = Some(parse_u64(&flag, &value)?),
            "--fault-seed" => fault = Some(parse_u64(&flag, &value)?),
            "--out-dir" => out_dir = value,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let derived = Seeds::derive(seed);
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        seeds: Seeds {
            lfsr: lfsr.unwrap_or(derived.lfsr),
            poisson: poisson.unwrap_or(derived.poisson),
            cochlea: cochlea.unwrap_or(derived.cochlea),
            fault: fault.unwrap_or(derived.fault),
        },
        out_dir,
    })
}

/// Builds the workload `SETUP_REPS` times; returns the last build, the
/// median build time in seconds scaled to reference speed, and the
/// unscaled median.
fn setup(args: &Args) -> Result<(Workload, f64, f64), String> {
    let mut raw_ms: Vec<f64> = Vec::new();
    let mut calibration = calibrate::Calibration::default();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        calibration.gap(raw_ms.last().copied().unwrap_or(0.0));
        let started = Instant::now();
        built = Some(Workload::setup(&args.workload, args.seeds)?);
        raw_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    calibration.gap(raw_ms.last().copied().unwrap_or(0.0));
    let scaled_s = stats::median(&mut calibration.scale(&raw_ms)) / 1e3;
    let raw_s = stats::median(&mut raw_ms) / 1e3;
    Ok((built.expect("at least one setup"), scaled_s, raw_s))
}

/// Result of the untraced closed loop.
struct Measured {
    /// Host ms per operation, as measured.
    raw_ms: Vec<f64>,
    /// Calibration kernel samples around the operations.
    calibration: calibrate::Calibration,
    failed: u64,
    first_failure: Option<String>,
    model: workloads::ModelOutputs,
}

/// Runs operations back to back for `seconds` (and at least
/// `MIN_OPS`), timing each and checking each outside the timed region.
fn measure(w: &Workload, seconds: f64) -> Measured {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut raw_ms: Vec<f64> = Vec::new();
    let mut calibration = calibrate::Calibration::default();
    let (mut failed, mut first_failure, mut model) = (0, None, None);
    while raw_ms.len() < MIN_OPS || Instant::now() < deadline {
        calibration.gap(raw_ms.last().copied().unwrap_or(0.0));
        let started = Instant::now();
        let outcome = std::hint::black_box(w.op());
        raw_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = w.check(&outcome) {
            failed += 1;
            first_failure.get_or_insert(e);
        }
        model.get_or_insert_with(|| outcome.model());
    }
    calibration.gap(raw_ms.last().copied().unwrap_or(0.0));
    Measured { raw_ms, calibration, failed, first_failure, model: model.expect("at least one op") }
}

/// Host memory high-water mark of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Trimmed standard output of a helper command, or "unknown".
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn provenance(args: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let s = args.seeds;
    Json::object([
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        (
            "seeds",
            Json::object([
                ("lfsr", Json::from(format!("0x{:X}", s.lfsr))),
                ("poisson", Json::from(format!("0x{:X}", s.poisson))),
                ("cochlea", Json::from(format!("0x{:X}", s.cochlea))),
                ("fault", Json::from(format!("0x{:X}", s.fault))),
            ]),
        ),
        ("engine", Json::from("fast-forward, checked against per-tick")),
        ("loop", Json::from("closed, 1 caller")),
        ("seconds", Json::from(args.seconds)),
        ("nproc", Json::from(nproc)),
        ("cpu", Json::from(cpu)),
        ("rustc", Json::from(command_output("rustc", &["--version"]))),
        ("git_revision", Json::from(command_output("git", &["rev-parse", "HEAD"]))),
        ("calibration_reference_ms", Json::from(calibrate::REFERENCE_MS)),
    ])
}

/// `{"value": v, "unit": u}`.
fn metric(value: f64, unit: &str) -> Json {
    Json::object([("value", Json::from(value)), ("unit", Json::from(unit))])
}

/// The last line of output: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(failed: u64, attempted: u64, metrics: Json) -> Json {
    Json::object([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
}

/// The untraced run: every end-to-end metric, and details for the
/// report file.
fn run_untraced(args: &Args) -> Result<(Json, Json), String> {
    let (workload, setup_s, setup_raw_s) = setup(args)?;
    let mut m = measure(&workload, args.seconds);
    let ops = m.raw_ms.len();
    let mut scaled = m.calibration.scale(&m.raw_ms);
    let p50 = stats::percentile(&mut scaled, 0.5);
    let p90 = stats::percentile(&mut scaled, 0.9);
    let events = workload.events_per_op();
    let metrics = Json::object([
        ("setup_s", metric(setup_s, "s")),
        ("wall_ms_p50", metric(p50, "ms")),
        ("wall_ms_p90", metric(p90, "ms")),
        ("sim_events_per_s", metric(events as f64 / (p50 / 1e3), "1/s")),
        ("peak_rss_mb", metric(peak_rss_mb(), "MB")),
        ("isi_error_mean", metric(m.model.isi_error_mean, "frac")),
        ("avg_power_uw", metric(m.model.avg_power_uw, "uW")),
        ("event_delivered_frac", metric(m.model.event_delivered_frac, "frac")),
    ]);
    let detail = Json::object([
        ("ops", Json::from(ops as u64)),
        ("ops_beyond_p90", Json::from(stats::beyond(ops, 0.9) as u64)),
        ("events_per_op", Json::from(events)),
        ("setup_reps", Json::from(SETUP_REPS as u64)),
        ("failed_frac", Json::from(m.failed as f64 / ops as f64)),
        ("first_failure", m.first_failure.map_or(Json::Null, Json::from)),
        ("unscaled_setup_s", Json::from(setup_raw_s)),
        ("unscaled_wall_ms_p50", Json::from(stats::percentile(&mut m.raw_ms, 0.5))),
        ("unscaled_wall_ms_p90", Json::from(stats::percentile(&mut m.raw_ms, 0.9))),
        ("calibration_kernel_ms_median", Json::from(stats::median(&mut m.calibration.samples()))),
    ]);
    Ok((result_json(m.failed, ops as u64, metrics), detail))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace { layers::run_traced(&args) } else { run_untraced(&args) };
    let (result, detail) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aetr-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let provenance = provenance(&args);
    // Standard output carries everything but the span log.
    let mut summary = detail.clone();
    if let Json::Object(fields) = &mut summary {
        fields.remove("spans");
    }
    let report = Json::object([
        ("provenance", provenance.clone()),
        ("detail", detail),
        ("result", result.clone()),
    ]);
    let path = format!(
        "{}/{}-seed{}-trace{}.json",
        args.out_dir,
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, format!("{report}\n")))
    {
        eprintln!("aetr-benchmark: {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("provenance: {provenance}");
    println!("detail: {summary}");
    println!("full report: {path}");
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line_and_seed_overrides() {
        let base = ["--workload", "dense_lfsr_550k", "--seed", "3", "--seconds", "1", "--trace"];
        let a = args(&[&base[..], &["1"]].concat()).expect("valid");
        assert!(a.trace);
        assert_eq!(a.seeds.lfsr, Seeds::derive(3).lfsr);
        let a =
            args(&[&base[..], &["0", "--lfsr-seed", "0xB", "--cochlea-seed", "0xF17"]].concat())
                .expect("valid");
        assert_eq!((a.seeds.lfsr, a.seeds.cochlea), (0xB, 0xF17));
        assert_eq!(a.seeds.fault, Seeds::derive(3).fault);
    }

    #[test]
    fn rejects_bad_command_lines() {
        let ok = ["--workload", "dense_lfsr_550k", "--seed", "1", "--seconds", "1", "--trace", "0"];
        assert!(args(&ok).is_ok());
        for (i, bad) in [(1, "nope"), (3, "x"), (5, "0"), (7, "2")] {
            let mut line = ok;
            line[i] = bad;
            assert!(args(&line).is_err(), "{line:?}");
        }
        assert!(args(&ok[..6]).is_err(), "--trace is required");
        assert!(args(&["--workload"]).is_err());
    }
}
