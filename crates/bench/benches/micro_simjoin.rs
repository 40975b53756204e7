//! Criterion micro-benchmarks of the similarity-join substrate: the
//! prefix-filtered join against the brute-force oracle (the machine-pass
//! speedup CrowdER's cost model assumes).

use criterion::{criterion_group, criterion_main, Criterion};
use reprowd_datagen::{ErConfig, ErCorpus};
use reprowd_simjoin::join::{brute_force_self_join, self_join, JoinConfig};
use reprowd_simjoin::similarity::{edit_distance, SetSimilarity};

fn corpus(n_entities: usize) -> Vec<String> {
    ErCorpus::generate(&ErConfig {
        n_entities,
        min_dups: 1,
        max_dups: 3,
        seed: 1234,
        ..ErConfig::default()
    })
    .texts()
}

fn bench_simjoin(c: &mut Criterion) {
    let mut g = c.benchmark_group("simjoin");
    g.sample_size(15);

    let small = corpus(150); // ~300 records
    let cfg = JoinConfig::new(SetSimilarity::Jaccard, 0.4);
    // The filtered join must return exactly the oracle's pairs, or the
    // timings are moot.
    assert_eq!(self_join(&small, &cfg), brute_force_self_join(&small, &cfg));

    g.bench_function("prefix_filtered_300rec", |b| {
        b.iter(|| std::hint::black_box(self_join(&small, &cfg)));
    });
    g.bench_function("brute_force_300rec", |b| {
        b.iter(|| std::hint::black_box(brute_force_self_join(&small, &cfg)));
    });

    let big = corpus(600); // ~1200 records: only the filtered join is viable
    g.bench_function("prefix_filtered_1200rec", |b| {
        b.iter(|| std::hint::black_box(self_join(&big, &cfg)));
    });

    g.bench_function("edit_distance_20x20", |b| {
        b.iter(|| {
            std::hint::black_box(edit_distance(
                "golden dragon palace",
                "goldn dragoon palaces",
            ))
        });
    });

    g.finish();
}

criterion_group!(benches, bench_simjoin);
criterion_main!(benches);
