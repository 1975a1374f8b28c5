//! Benchmarks heuristic allocation against allocation-space search
//! (experiment E9): the paper's motivation for the algorithm is that
//! "finding the optimal partition … by exhaustive search is an
//! extremely time-consuming task due to the very large number of
//! different allocations".
//!
//! `hal`'s space is small enough to exhaust inside a benchmark;
//! larger spaces are represented by fixed-size random sampling so the
//! per-point cost stays comparable. The `search_engine_hal` group
//! compares the seed sequential walk against the memoised engine —
//! the cache must cut per-candidate cost by at least 2× (asserted in
//! `tests/search_equiv.rs`; here the medians make the margin visible).

use criterion::{criterion_group, criterion_main, Criterion};
use lycos::core::{allocate, AllocConfig, Restrictions};
use lycos::explore::random_search;
use lycos::hwlib::{Area, HwLibrary};
use lycos::pace::{exhaustive_best, search_best, PaceConfig, SearchOptions};
use std::hint::black_box;

fn bench_heuristic_vs_search(c: &mut Criterion) {
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();

    // hal: heuristic vs full exhaustive search (320 allocations).
    let app = lycos::apps::hal();
    let bsbs = app.bsbs();
    let area = Area::new(app.area_budget);
    let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();

    let mut group = c.benchmark_group("search_cost_hal");
    group.sample_size(10);
    group.bench_function("heuristic_allocation", |b| {
        b.iter(|| {
            black_box(
                allocate(
                    black_box(&bsbs),
                    &lib,
                    &pace.eca,
                    area,
                    &restr,
                    &AllocConfig::default(),
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("exhaustive_search", |b| {
        b.iter(|| {
            black_box(exhaustive_best(black_box(&bsbs), &lib, area, &restr, &pace, None).unwrap())
        })
    });
    group.bench_function("random_search_64", |b| {
        b.iter(|| {
            black_box(random_search(black_box(&bsbs), &lib, area, &restr, &pace, 64, 7).unwrap())
        })
    });
    group.finish();
}

/// Same space, three engines: the seed walk, the memoised sequential
/// engine, and the memoised engine fanned out over all cores.
fn bench_search_engine(c: &mut Criterion) {
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let app = lycos::apps::hal();
    let bsbs = app.bsbs();
    let area = Area::new(app.area_budget);
    let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();

    let mut group = c.benchmark_group("search_engine_hal");
    group.sample_size(10);
    group.bench_function("sequential_uncached", |b| {
        b.iter(|| {
            black_box(exhaustive_best(black_box(&bsbs), &lib, area, &restr, &pace, None).unwrap())
        })
    });
    group.bench_function("memoised_1_thread", |b| {
        b.iter(|| {
            black_box(
                search_best(
                    black_box(&bsbs),
                    &lib,
                    area,
                    &restr,
                    &pace,
                    &SearchOptions::sequential(),
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("memoised_all_cores", |b| {
        b.iter(|| {
            black_box(
                search_best(
                    black_box(&bsbs),
                    &lib,
                    area,
                    &restr,
                    &pace,
                    &SearchOptions::default(),
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

/// The engine on the space that motivated it: `eigen`, whose full
/// sweep the paper calls "impossible" (footnote 1). A fixed evaluation
/// limit keeps the bench bounded; the per-candidate gap between the
/// seed walk and the memoised engine is the ≥2× claim of ISSUE 2 (the
/// 46-block schedules and the shared run-traffic table dominate here).
fn bench_search_engine_eigen(c: &mut Criterion) {
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let app = lycos::apps::eigen();
    let bsbs = app.bsbs();
    let area = Area::new(app.area_budget);
    let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
    const LIMIT: usize = 1_500;

    let mut group = c.benchmark_group("search_engine_eigen_1500");
    group.sample_size(5);
    group.bench_function("sequential_uncached", |b| {
        b.iter(|| {
            black_box(
                exhaustive_best(black_box(&bsbs), &lib, area, &restr, &pace, Some(LIMIT)).unwrap(),
            )
        })
    });
    group.bench_function("memoised_1_thread", |b| {
        b.iter(|| {
            black_box(
                search_best(
                    black_box(&bsbs),
                    &lib,
                    area,
                    &restr,
                    &pace,
                    &SearchOptions {
                        limit: Some(LIMIT),
                        ..SearchOptions::sequential()
                    },
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("memoised_all_cores", |b| {
        b.iter(|| {
            black_box(
                search_best(
                    black_box(&bsbs),
                    &lib,
                    area,
                    &restr,
                    &pace,
                    &SearchOptions {
                        limit: Some(LIMIT),
                        ..SearchOptions::default()
                    },
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_heuristic_vs_search,
    bench_search_engine,
    bench_search_engine_eigen
);
criterion_main!(benches);
