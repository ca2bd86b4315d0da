//! Wall-clock cost of the parallel frame runner against the sequential
//! baseline, on the pixel-encoder workload (the only app whose kernels do
//! real work — `TableApp` kernels are no-ops, so parallelism there only
//! measures executor overhead, which `executor_overhead` tracks).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use fgqos_core::policy::MaxQuality;
use fgqos_encoder::app::EncoderApp;
use fgqos_graph::iterate::IterationMode;
use fgqos_sim::app::{ParallelApp, TableApp};
use fgqos_sim::runner::{Mode, RunConfig, Runner};
use fgqos_sim::runtime::VirtualClock;
use fgqos_sim::scenario::LoadScenario;

const FRAMES: usize = 4;

fn pixel_runner() -> Runner<EncoderApp> {
    let scenario = LoadScenario::paper_benchmark(17).truncated(FRAMES);
    let app = EncoderApp::new(scenario, 96, 64, 17).expect("app");
    let n = app.iterations();
    let config = RunConfig::paper_defaults()
        .scaled_to_macroblocks(n)
        .with_iteration_mode(IterationMode::Pipelined);
    Runner::new(app, config).expect("runner")
}

fn bench_parallel_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_runner");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter_batched(
            pixel_runner,
            |mut r| {
                let mut clock = VirtualClock::new();
                let mut backend = EncoderApp::work_backend(17);
                r.run_on(
                    &mut clock,
                    &mut backend,
                    Mode::Controlled,
                    &mut MaxQuality::new(),
                    None,
                )
                .expect("run")
            },
            BatchSize::LargeInput,
        );
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter_batched(
                pixel_runner,
                |mut r| {
                    let mut clock = VirtualClock::new();
                    let mut backend = EncoderApp::work_backend(17);
                    r.run_parallel_on(
                        &mut clock,
                        &mut backend,
                        Mode::Controlled,
                        &mut MaxQuality::new(),
                        None,
                        workers,
                    )
                    .expect("run")
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Executor overhead in isolation: `TableApp` kernels are no-ops, so the
/// entire parallel-vs-sequential delta is plan walking, speculation slots
/// and pool scheduling.
fn bench_executor_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_overhead");
    group.sample_size(10);
    let mk = || {
        let scenario = LoadScenario::paper_benchmark(5).truncated(20);
        let app = TableApp::with_macroblocks(scenario, 24).expect("app");
        let config = RunConfig::paper_defaults()
            .scaled_to_macroblocks(24)
            .with_iteration_mode(IterationMode::Pipelined);
        Runner::new(app, config).expect("runner")
    };
    group.bench_function("table_sequential", |b| {
        b.iter_batched(
            mk,
            |mut r| r.run_controlled(&mut MaxQuality::new(), 5).expect("run"),
            BatchSize::LargeInput,
        );
    });
    group.bench_function("table_parallel_1w", |b| {
        b.iter_batched(
            mk,
            |mut r| r.run_parallel(&mut MaxQuality::new(), 5, 1).expect("run"),
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_parallel_runner, bench_executor_overhead);
criterion_main!(benches);
