//! Criterion benchmarks of the simulation kernel: event queue, signal
//! tracing, and online statistics.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use aetr_sim::queue::EventQueue;
use aetr_sim::stats::OnlineStats;
use aetr_sim::time::{SimDuration, SimTime};
use aetr_sim::trace::{TraceValue, Tracer};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0u64..10_000 {
                // Pseudo-random times to stress the heap.
                let t = (i * 2_654_435_761) % 1_000_000_000;
                q.schedule_at(SimTime::from_ps(t), i).expect("fresh queue");
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        });
    });
    group.bench_function("delta_chain_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            q.schedule_at(SimTime::ZERO, 0u64).expect("fresh queue");
            let mut n = 0u64;
            while let Some((_, v)) = q.pop() {
                n += 1;
                if n < 10_000 {
                    q.schedule_after(SimDuration::from_ns(66), v + 1).expect("monotone");
                }
            }
            n
        });
    });
    // The interface runner's steady state: a tick, a request and a
    // frame pending, each popped and rescheduled at its own period.
    group.bench_function("reschedule_depth3", |b| {
        const PERIOD_NS: [u64; 3] = [66, 1_818, 2_133];
        let mut q = EventQueue::with_capacity(16);
        for (kind, ns) in PERIOD_NS.iter().enumerate() {
            q.schedule_at(SimTime::from_ns(*ns), kind).expect("fresh queue");
        }
        b.iter(|| {
            for _ in 0..10_000 {
                let (t, kind) = q.pop().expect("three events stay pending");
                q.schedule_at(t + SimDuration::from_ns(PERIOD_NS[kind]), kind).expect("monotone");
            }
            q.now()
        });
    });
    group.finish();
}

fn bench_tracer(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracer");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("record_10k_toggles", |b| {
        b.iter(|| {
            let mut t = Tracer::new();
            let clk = t.declare_bit("clk", "top");
            for i in 0..10_000u64 {
                t.record(SimTime::from_ps(i * 100), clk, TraceValue::Bit(i % 2 == 0));
            }
            t.changes().len()
        });
    });
    group.bench_function("vcd_render_10k", |b| {
        let mut t = Tracer::new();
        let clk = t.declare_bit("clk", "top");
        for i in 0..10_000u64 {
            t.record(SimTime::from_ps(i * 100), clk, TraceValue::Bit(i % 2 == 0));
        }
        b.iter(|| {
            let mut buf = Vec::new();
            aetr_sim::vcd::write_vcd(&t, &mut buf).expect("in-memory write");
            buf.len()
        });
    });
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_stats");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("welford_100k", |b| {
        b.iter(|| {
            let mut s = OnlineStats::new();
            for i in 0..100_000u64 {
                s.add(((i * 37) % 1_000) as f64);
            }
            s.population_variance()
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_event_queue, bench_tracer, bench_stats
}
criterion_main!(benches);
