//! Golden digests of whole interface reports.
//!
//! The engine-vs-engine property tests compare the fast-forward engine
//! against the per-tick reference in the same build, so a change that
//! both engines share (the event loop's merge order, the sampling-clock
//! edge's tie-break, the runner's handlers) cannot show up there. These
//! digests pin the complete report — events, handshakes, FIFO
//! statistics, I2S stream, activity, power, wakes, health and the
//! telemetry snapshot — against values captured before the
//! sampling-clock edge moved out of the event queue's scanned `Vec` into
//! its register, so a later change must either keep every bit or
//! update a literal here on purpose.
//!
//! One such update so far: the health report lost an always-zero
//! counter, the pointer upsets of a deleted clock-domain-crossing FIFO.
//! Each literal is the earlier report's `Debug` text with that field
//! deleted and, in the instrumented run, its registry counter name and
//! `0` value deleted — nothing else moved.
//!
//! The digest is FNV-1a 64 over the report's `Debug` text, written out
//! here because `std`'s `DefaultHasher` may change between Rust
//! releases. The wall-clock profile is cleared before hashing: it is
//! the one nondeterministic field of a report.

use aetr::config_bus::Register;
use aetr::fifo::{FifoConfig, OverflowPolicy};
use aetr::interface::{
    AerToI2sInterface, InterfaceConfig, InterfaceReport, SimEngine, TelemetryConfig,
};
use aetr_aer::generator::{LfsrGenerator, PoissonGenerator, RegularGenerator, SpikeSource};
use aetr_faults::{FaultPlan, FaultRates, WatchdogConfig};
use aetr_sim::time::{SimDuration, SimTime};

/// FNV-1a 64-bit hash of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn digest(mut report: InterfaceReport) -> u64 {
    report.telemetry.profile = None;
    fnv1a64(format!("{report:?}").as_bytes())
}

/// Runs `op` on both engines, asserts they agree, and returns the
/// shared digest with the fast-forward engine's report.
fn digest_on_both_engines(
    config: InterfaceConfig,
    op: impl Fn(&AerToI2sInterface) -> InterfaceReport,
) -> (u64, InterfaceReport) {
    let [fast, reference] = [SimEngine::EventProportional, SimEngine::PerTickReference].map(|e| {
        let interface = AerToI2sInterface::new(config).expect("config validates").with_engine(e);
        op(&interface)
    });
    assert_eq!(fast, reference, "engines disagree");
    (digest(fast.clone()), fast)
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

/// 550 kevt/s LFSR for 40 ms: above the 469 kevt/s I2S limit, so the
/// FIFO fills after ≈30 ms and overflows, and the clock never sleeps.
#[test]
fn dense_lfsr_overflow_report_is_golden() {
    let horizon = SimTime::from_ms(40);
    let train = LfsrGenerator::new(550_000.0, 101).generate(horizon);
    let (got, report) =
        digest_on_both_engines(InterfaceConfig::prototype(), |i| i.run(&train, horizon));
    assert!(report.fifo_stats.dropped > 0 && report.wake_count == 0);
    assert_eq!(got, 0xd7d5_9eb1_ec62_9961, "dense LFSR report digest {got:#018x}");
}

/// 200 evt/s Poisson for 1 s: nearly every event wakes the clock after
/// a full division ladder and shutdown.
#[test]
fn sparse_poisson_wake_report_is_golden() {
    let horizon = SimTime::from_ms(1_000);
    let train = PoissonGenerator::new(200.0, 64, 202).generate(horizon);
    let (got, report) =
        digest_on_both_engines(InterfaceConfig::prototype(), |i| i.run(&train, horizon));
    assert!(report.wake_count * 10 >= report.events.len() as u64 * 9 && report.wake_count > 100);
    assert_eq!(got, 0x5b95_bcfc_1e4c_fdc4, "sparse Poisson report digest {got:#018x}");
}

/// 50 kevt/s Poisson for 10 ms under protocol faults and the watchdog,
/// with the live sampler, lineage and one mid-run `N_div` write.
#[test]
fn faulted_instrumented_reconfigured_report_is_golden() {
    let horizon = SimTime::from_ms(10);
    let train = PoissonGenerator::new(50_000.0, 64, 303).generate(horizon);
    let plan = FaultPlan::nominal(404)
        .with_rates(FaultRates::protocol(0.02))
        .with_watchdog(WatchdogConfig::default());
    let tel = TelemetryConfig::with_cadence(SimDuration::from_us(50)).with_lineage();
    let writes = [(SimTime::from_ms(4) + SimDuration::from_ns(123), Register::NDiv, 5)];
    let (got, report) = digest_on_both_engines(InterfaceConfig::prototype(), |i| {
        i.run_with(&train, horizon, &plan, &tel, &writes)
    });
    assert!(report.health.faults_injected() > 0);
    assert_eq!(report.telemetry.lineage.len(), report.events.len());
    assert_eq!(got, 0xca4a_0d29_cdee_ec6f, "faulted instrumented report digest {got:#018x}");
}

/// The clock never sleeps, so every edge stays on the `k · T_min` grid,
/// and each SPI write lands exactly on an edge: whether the edge runs
/// under the old or the new `θ_div` depends only on how the queue
/// breaks the tie between the write and the edge.
#[test]
fn edge_aligned_spi_writes_report_is_golden() {
    let horizon = SimTime::from_ms(2);
    let t_min = InterfaceConfig::prototype().clock.base_sampling_period();
    let train = RegularGenerator::new(t_min * 90, 16).generate(horizon);
    let writes: Vec<_> = (0..20u32)
        .map(|j| {
            let theta = if j % 2 == 0 { 8 } else { 64 };
            (SimTime::ZERO + t_min * u64::from(37 + 53 * j), Register::ThetaDiv, theta)
        })
        .collect();
    let (got, report) = digest_on_both_engines(InterfaceConfig::prototype(), |i| {
        i.run_with_reconfig(&train, horizon, &writes)
    });
    assert!(report.wake_count == 0 && !report.events.is_empty());
    assert_eq!(got, 0xc5be_10b6_fe3a_7f3a, "edge-aligned report digest {got:#018x}");
}

/// 550 kevt/s LFSR for 10 ms into a 64-event `DropOldest` FIFO with 5%
/// of I2S frames slipped, lineage on: every buffered event can leave by
/// transmission, displacement or a slipped frame, so the digest pins
/// which record each loss lands on.
#[test]
fn displacing_fifo_lineage_report_is_golden() {
    let horizon = SimTime::from_ms(10);
    let train = LfsrGenerator::new(550_000.0, 101).generate(horizon);
    let config = InterfaceConfig {
        fifo: FifoConfig {
            capacity_bytes: 64 * 4,
            watermark: 32,
            overflow: OverflowPolicy::DropOldest,
        },
        ..InterfaceConfig::prototype()
    };
    let plan = FaultPlan::nominal(505)
        .with_rates(FaultRates { i2s_frame_slip: 0.05, ..FaultRates::default() });
    let tel = TelemetryConfig { enabled: true, sample_cadence: None, lineage: true };
    let (got, report) =
        digest_on_both_engines(config, |i| i.run_with_telemetry(&train, horizon, &plan, &tel));
    assert!(report.fifo_stats.dropped > 0 && report.health.events_lost_to_slips > 0);
    assert_eq!(report.telemetry.lineage.len(), report.events.len());
    assert_eq!(got, 0x55ae_b5b0_5a8a_fce9, "displacing FIFO report digest {got:#018x}");
}
