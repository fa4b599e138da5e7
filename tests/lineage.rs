//! Acceptance tests for the per-event lineage layer (DESIGN.md §14).
//!
//! The load-bearing guarantees:
//!
//! 1. lineage is *purely observational* — with collection disabled the
//!    report (including the golden literals from the seed build) is
//!    bit-identical, and enabling it changes no functional field;
//! 2. the error-budget attribution is *exact*: per-cause totals sum to
//!    the measured total timestamp error, and on a fault-free run every
//!    clean event respects the analytic alignment budget behind the
//!    paper's `~1/θ_div` accuracy claim;
//! 3. the JSONL export validates line-by-line against the checked-in
//!    schema (the same check CI's lineage-smoke job runs via the CLI).

use aetr::aetr_format::{AetrEvent, Timestamp};
use aetr::fifo::{FifoConfig, OverflowPolicy};
use aetr::interface::{
    AerToI2sInterface, InterfaceConfig, InterfaceReport, SimEngine, TelemetryConfig,
};
use aetr_aer::address::Address;
use aetr_aer::generator::{LfsrGenerator, PoissonGenerator, SpikeSource};
use aetr_faults::{FaultPlan, FaultRates};
use aetr_sim::time::{SimDuration, SimTime};
use aetr_telemetry::json;
use aetr_telemetry::lineage::{relative_error_bound, DropCause, ErrorBudget};

fn prototype() -> AerToI2sInterface {
    AerToI2sInterface::new(InterfaceConfig::prototype()).unwrap()
}

/// The golden workload of `tests/telemetry.rs`: Poisson 50 kevt/s,
/// seed 7, 10 ms. Mean gap 20 µs sits in the divided-clock region
/// (level-1 division starts after θ·T_min ≈ 4.2 µs of silence), with
/// occasional gaps long enough to sleep and wake.
fn golden_run(tel: &TelemetryConfig) -> InterfaceReport {
    let horizon = SimTime::from_ms(10);
    let train = PoissonGenerator::new(50_000.0, 64, 7).generate(horizon);
    prototype().run_with_telemetry(&train, horizon, &FaultPlan::nominal(0), tel)
}

fn assert_functionally_identical(a: &InterfaceReport, b: &InterfaceReport) {
    assert_eq!(a.events, b.events);
    assert_eq!(a.handshake, b.handshake);
    assert_eq!(a.fifo_stats, b.fifo_stats);
    assert_eq!(a.i2s, b.i2s);
    assert_eq!(a.activity, b.activity);
    assert_eq!(a.power, b.power);
    assert_eq!(a.wake_count, b.wake_count);
    assert_eq!(a.health, b.health);
}

/// Lineage off leaves everything exactly as before (the golden
/// literals are from the seed build, via `tests/telemetry.rs`);
/// lineage on changes no functional field and records every event.
#[test]
fn lineage_is_purely_observational() {
    let base = TelemetryConfig::with_cadence(SimDuration::from_us(50));
    let without = golden_run(&base);
    let with = golden_run(&base.with_lineage());

    assert!(without.telemetry.lineage.is_empty(), "disabled lineage records nothing");
    assert_eq!(without.events.len(), 519, "golden event count (seed build)");
    assert_eq!(without.wake_count, 23, "golden wake count (seed build)");
    assert_eq!(without.i2s.len(), 260, "golden frame count (seed build)");

    assert_functionally_identical(&without, &with);
    // Aggregate metrics shared by both runs agree too; only the lineage
    // additions (records + e2e histogram) may differ.
    assert_eq!(
        without.telemetry.metrics.counter_by_name("interface.events.captured"),
        with.telemetry.metrics.counter_by_name("interface.events.captured"),
    );
    assert_eq!(with.telemetry.lineage.len(), with.events.len(), "one record per captured event");
}

/// The error budget is exact by construction: cause buckets sum to the
/// per-event error, totals telescope, and on this fault-free run every
/// clean event sits inside the analytic alignment budget — and the
/// clean per-level envelope respects the paper's `~1/θ_div` claim.
#[test]
fn error_budget_attribution_is_exact_and_bounded() {
    let report =
        golden_run(&TelemetryConfig::with_cadence(SimDuration::from_us(50)).with_lineage());
    let records = report.telemetry.lineage.records();
    let t_min = InterfaceConfig::prototype().clock.base_sampling_period();
    let budget = ErrorBudget::from_records(records, t_min);

    // Exactness: per-cause totals sum to the signed total, which in
    // turn is the sum of the independently recomputed per-event errors.
    assert_eq!(budget.causes.total_ps(), budget.total_error_ps);
    let recomputed: i128 = records
        .iter()
        .scan(0i128, |prev_arrival, r| {
            let measured = r.timestamp_ticks as i128 * t_min.as_ps() as i128;
            let true_interval = r.arrival.as_ps() as i128 - *prev_arrival;
            *prev_arrival = r.arrival.as_ps() as i128;
            Some(measured - true_interval)
        })
        .sum();
    assert_eq!(budget.total_error_ps, recomputed, "budget total = Σ (measured − true)");
    for row in &budget.rows {
        assert_eq!(row.causes.total_ps(), row.error_ps, "event {} split is exact", row.index);
    }
    // Telescoping: the true intervals sum to the last arrival.
    let sum_true: i128 = budget.rows.iter().map(|r| r.true_interval_ps).sum();
    assert_eq!(sum_true, records.last().unwrap().arrival.as_ps() as i128);

    // The workload actually exercises the divided-clock region, and the
    // occasional sleep/wake cycle routes into the wake bucket.
    assert!(
        budget.by_level.iter().any(|l| l.division_level >= 1),
        "levels: {:?}",
        budget.by_level.iter().map(|l| l.division_level).collect::<Vec<_>>()
    );
    assert!(budget.causes.wake_ps > 0, "23 wakes must charge the wake bucket");

    // Fault-free acceptance: no clean event exceeds the analytic
    // per-event alignment budget (sync_stages = 2 on the prototype).
    assert_eq!(budget.bound_violations(2), Vec::<u32>::new());
    // Relative form in the active region: a clean capture at level
    // d ≥ 1 implies at least ~θ_div(2^d − 1) quiet ticks of true
    // interval, so the alignment budget divides through to
    // (sync+2)(m_i + m_{i−1}) / (θ_div(2^d − 1)) — the paper's
    // `~1/θ_div` quantization envelope (`relative_error_bound`) widened
    // by the alignment endpoints (DESIGN.md §14 derives both).
    let theta = InterfaceConfig::prototype().clock.theta_div;
    let max_mult = 2f64.powi(InterfaceConfig::prototype().clock.n_div as i32);
    for level in budget.by_level.iter().filter(|l| l.division_level >= 1) {
        let m = 2f64.powi(level.division_level as i32);
        let rel_bound = 4.0 * (m + max_mult) / (f64::from(theta) * (m - 1.0));
        assert!(
            level.max_relative_error <= rel_bound,
            "level {}: {} > bound {}",
            level.division_level,
            level.max_relative_error,
            rel_bound,
        );
        // The quantization-only envelope is the tight inner core of
        // that bound.
        assert!(relative_error_bound(theta, level.division_level) < rel_bound);
    }
}

/// Every delivered event's arrival→I2S latency lands in the metrics
/// registry's `interface.lineage.e2e_latency_ns` histogram.
#[test]
fn end_to_end_latency_reaches_the_metrics_registry() {
    let report =
        golden_run(&TelemetryConfig::with_cadence(SimDuration::from_us(50)).with_lineage());
    let delivered = report
        .telemetry
        .lineage
        .records()
        .iter()
        .filter(|r| r.end_to_end_latency().is_some())
        .count();
    assert!(delivered > 0, "the golden run delivers events");
    assert_eq!(
        report
            .telemetry
            .lineage
            .records()
            .iter()
            .filter(|r| r.drop_cause == DropCause::Delivered)
            .count(),
        delivered,
        "fault-free: all delivered events complete their I2S frame"
    );
    let hist = report
        .telemetry
        .metrics
        .histogram_by_name("interface.lineage.e2e_latency_ns")
        .expect("lineage registers the latency histogram");
    assert_eq!(hist.count(), delivered as u64);
    assert_eq!(hist.non_finite(), 0);
}

/// JSONL export: one schema-valid object per captured event — the same
/// check CI's lineage-smoke job performs through
/// `aetr-cli validate --jsonl true`.
#[test]
fn jsonl_export_validates_line_by_line() {
    let report =
        golden_run(&TelemetryConfig::with_cadence(SimDuration::from_us(50)).with_lineage());
    let jsonl = report.telemetry.lineage.to_jsonl();
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/lineage.schema.json"
    ))
    .expect("schema file present");
    let schema = json::parse(&schema_text).expect("schema parses");
    let mut lines = 0;
    for (n, line) in jsonl.lines().enumerate() {
        let doc = json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", n + 1));
        let violations = json::validate(&doc, &schema);
        assert!(violations.is_empty(), "line {}: {violations:?}", n + 1);
        lines += 1;
    }
    assert_eq!(lines, report.events.len());
}

/// Overload with frame slips: a 550 kevt/s LFSR into a 64-event FIFO
/// (watermark 32) with 5% of I2S frames slipped, under both overflow
/// policies and both engines. Every loss path — incoming drop,
/// displaced oldest, slipped frame — must land on the right record, and
/// the records still marked delivered must be exactly what the I2S
/// stream carried, in order.
#[test]
fn overflow_and_slip_losses_land_on_the_right_records() {
    let horizon = SimTime::from_ms(10);
    let train = LfsrGenerator::new(550_000.0, 101).generate(horizon);
    let plan = FaultPlan::nominal(505)
        .with_rates(FaultRates { i2s_frame_slip: 0.05, ..FaultRates::default() });
    let tel = TelemetryConfig { enabled: true, sample_cadence: None, lineage: true };
    for overflow in [OverflowPolicy::DropNewest, OverflowPolicy::DropOldest] {
        for engine in [SimEngine::EventProportional, SimEngine::PerTickReference] {
            let config = InterfaceConfig {
                fifo: FifoConfig { capacity_bytes: 64 * 4, watermark: 32, overflow },
                ..InterfaceConfig::prototype()
            };
            let report = AerToI2sInterface::new(config)
                .unwrap()
                .with_engine(engine)
                .run_with_telemetry(&train, horizon, &plan, &tel);
            let records = report.telemetry.lineage.records();
            assert_eq!(records.len(), report.events.len());
            let count = |cause| records.iter().filter(|r| r.drop_cause == cause).count() as u64;

            let delivered: Vec<AetrEvent> = records
                .iter()
                .filter(|r| r.drop_cause == DropCause::Delivered)
                .map(|r| {
                    AetrEvent::new(
                        Address::new(r.address).unwrap(),
                        Timestamp::from_ticks(r.timestamp_ticks),
                    )
                })
                .collect();
            let wire: Vec<AetrEvent> =
                report.i2s.frames().iter().flat_map(|f| f.events()).collect();
            assert_eq!(delivered, wire, "{overflow:?}/{engine:?}: delivered records = I2S stream");

            let fifo_losses = count(DropCause::Displaced) + count(DropCause::Overflow);
            assert!(report.fifo_stats.dropped > 0, "{overflow:?}/{engine:?}: FIFO overflows");
            assert_eq!(fifo_losses, report.fifo_stats.dropped, "{overflow:?}/{engine:?}");
            assert!(report.health.events_lost_to_slips > 0, "{overflow:?}/{engine:?}: slips");
            assert_eq!(
                count(DropCause::FrameSlip),
                report.health.events_lost_to_slips,
                "{overflow:?}/{engine:?}"
            );
        }
    }
}
