//! Criterion micro-benchmarks of the behavioral quantization path —
//! the engine behind the Fig. 6 and Fig. 8 sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use aetr::quantizer::quantize_train;
use aetr_aer::generator::{PoissonGenerator, SpikeSource};
use aetr_clockgen::config::{ClockGenConfig, DivisionPolicy};
use aetr_clockgen::engine::SamplingEngine;
use aetr_sim::time::{SimDuration, SimTime};

fn bench_quantize_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantize_train");
    for &rate in &[10_000.0f64, 100_000.0, 550_000.0] {
        let horizon = SimTime::from_ms(100);
        let train = PoissonGenerator::new(rate, 64, 7).generate(horizon);
        group.throughput(Throughput::Elements(train.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}kevts", rate / 1_000.0)),
            &train,
            |b, train| {
                let cfg = ClockGenConfig::prototype();
                b.iter(|| quantize_train(&cfg, train, horizon));
            },
        );
    }
    group.finish();
}

/// One `SamplingEngine::process` call per iteration, per policy, on
/// dense deltas (inside the first `θ_div` run, no division) and sparse
/// ones (spread over the whole division ladder and past shutdown).
fn bench_engine_process(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling_engine");
    let base = ClockGenConfig::prototype().base_sampling_period();
    for policy in [
        DivisionPolicy::Recursive,
        DivisionPolicy::DivideOnly,
        DivisionPolicy::Never,
        DivisionPolicy::Linear,
    ] {
        let config = ClockGenConfig::prototype().with_policy(policy);
        for (density, max_delta) in [("dense", base * 48), ("sparse", base * 2_000)] {
            group.bench_function(format!("process/{policy}/{density}"), |b| {
                let mut engine = SamplingEngine::new(&config);
                let mut request = SimTime::ZERO;
                let mut i = 0u64;
                b.iter(|| {
                    i = (i.wrapping_mul(6_364_136_223_846_793_005)).wrapping_add(1);
                    request += SimDuration::from_ps((i >> 17) % max_delta.as_ps());
                    std::hint::black_box(engine.process(request))
                });
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_quantize_train, bench_engine_process
}
criterion_main!(benches);
