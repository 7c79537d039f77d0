//! Engine ingest throughput: the batch pipeline vs the sharded engine at
//! 1 and N shards, over one pre-collected smoke campaign. The interesting
//! numbers are measurements/sec (campaign size ÷ median time) and how the
//! engine's incremental short-circuits compare to the pipeline's
//! flush-time AllSAT passes.

use churnlab_bench::enginebench::ThroughputHarness;
use churnlab_bench::{Bench, Scale};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_engine_throughput(c: &mut Criterion) {
    let bench = Bench::assemble(Scale::Smoke, 5);
    let harness = ThroughputHarness::assemble(&bench);
    let n = harness.measurements.len();
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);

    let mut g = c.benchmark_group(format!("engine_throughput/{n}_measurements"));
    g.sample_size(10);
    g.bench_function("pipeline_batch", |b| {
        b.iter(|| black_box(harness.time_pipeline()))
    });
    for shards in [1usize, 2, 4] {
        g.bench_function(BenchmarkId::new("engine", format!("{shards}_shards")), |b| {
            b.iter(|| black_box(harness.time_engine(shards, cores.min(4), None)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engine_throughput);
criterion_main!(benches);
