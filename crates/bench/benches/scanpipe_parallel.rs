//! Benchmarks the scan phase serial vs parallel at several worker
//! counts. Caches are cleared before every iteration so each sample
//! measures a cold scan of the whole corpus, which is what `Study::run`
//! pays.

use criterion::{criterion_group, criterion_main, Criterion};
use malware_slums::scanpipe::{ScanPipeline, DEFAULT_SCAN_CHUNK};
use malware_slums::study::{Study, StudyConfig};

fn bench_scanpipe(c: &mut Criterion) {
    let study = Study::run(&StudyConfig {
        seed: 2016,
        crawl_scale: 0.002,
        domain_scale: 0.05,
        ..Default::default()
    });
    let records = study.store.records();
    let pipeline = ScanPipeline::new(&study.web);

    let mut group = c.benchmark_group("scanpipe");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            pipeline.clear_caches();
            std::hint::black_box(pipeline.scan_all(records))
        })
    });
    for workers in [2usize, 4, 8] {
        group.bench_function(format!("parallel_{workers}"), |b| {
            b.iter(|| {
                pipeline.clear_caches();
                std::hint::black_box(pipeline.scan_all_parallel_chunked(
                    records,
                    workers,
                    DEFAULT_SCAN_CHUNK,
                ))
            })
        });
    }
    // Warm-cache rescan: the memoization payoff when the corpus repeats
    // hosts and URLs (no clear between iterations).
    pipeline.clear_caches();
    group.bench_function("parallel_4_warm", |b| {
        b.iter(|| {
            std::hint::black_box(pipeline.scan_all_parallel_chunked(records, 4, DEFAULT_SCAN_CHUNK))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scanpipe);
criterion_main!(benches);
