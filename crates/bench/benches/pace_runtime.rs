//! Benchmarks one PACE evaluation (experiment E9's unit cost): the
//! paper's footnote 1 says evaluating a single allocation took over
//! 30 seconds in 1998, making exhaustive search on `eigen`
//! "impossible". This measures our per-evaluation cost, which sets
//! the scale for the search benchmarks.
//!
//! The `pace_dp` group isolates the DP core the way a cached sweep
//! exercises it — metrics precomputed, run-traffic memo warm — and
//! compares the allocation-free scratch core against the retained
//! PR 3 baseline (fresh heap tables, `continue` scan). The machine-
//! readable version of this comparison is the `bench_pace` bin, which
//! CI archives as `BENCH_pace.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use lycos::core::{allocate, AllocConfig, Restrictions};
use lycos::hwlib::{Area, HwLibrary};
use lycos::pace::{
    compute_metrics, partition, partition_from_metrics, reference_partition_from_metrics,
    CommCosts, DpScratch, PaceConfig,
};
use std::hint::black_box;

fn bench_partition(c: &mut Criterion) {
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let mut group = c.benchmark_group("pace_partition");
    for app in lycos::apps::all() {
        let bsbs = app.bsbs();
        let area = Area::new(app.area_budget);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let out = allocate(
            &bsbs,
            &lib,
            &pace.eca,
            area,
            &restr,
            &AllocConfig::default(),
        )
        .unwrap();
        group.bench_function(app.name, |b| {
            b.iter(|| {
                black_box(partition(black_box(&bsbs), &lib, &out.allocation, area, &pace).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let mut group = c.benchmark_group("pace_metrics");
    for app in lycos::apps::all() {
        let bsbs = app.bsbs();
        let area = Area::new(app.area_budget);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let out = allocate(
            &bsbs,
            &lib,
            &pace.eca,
            area,
            &restr,
            &AllocConfig::default(),
        )
        .unwrap();
        group.bench_function(app.name, |b| {
            b.iter(|| {
                black_box(compute_metrics(black_box(&bsbs), &lib, &out.allocation, &pace).unwrap())
            })
        });
    }
    group.finish();
}

/// The DP core alone, per candidate, as a memoised sweep pays for it:
/// metrics precomputed once (a cache hit), the run-traffic memo shared
/// and warm. `baseline` is the dense PR 3 core; `scratch` is the
/// allocation-free core with staircase rows.
fn bench_dp_core(c: &mut Criterion) {
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let mut group = c.benchmark_group("pace_dp");
    for app in lycos::apps::all() {
        let bsbs = app.bsbs();
        let area = Area::new(app.area_budget);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let out = allocate(
            &bsbs,
            &lib,
            &pace.eca,
            area,
            &restr,
            &AllocConfig::default(),
        )
        .unwrap();
        let datapath = out.allocation.area(&lib);
        let ctl = area.checked_sub(datapath).unwrap();
        let metrics = compute_metrics(&bsbs, &lib, &out.allocation, &pace).unwrap();
        let mut comm = CommCosts::new(bsbs.len());
        let mut scratch = DpScratch::new();
        group.bench_function(format!("{}/baseline", app.name), |b| {
            b.iter(|| {
                black_box(reference_partition_from_metrics(
                    black_box(&bsbs),
                    &metrics,
                    &mut comm,
                    datapath,
                    ctl,
                    &pace,
                ))
            })
        });
        group.bench_function(format!("{}/scratch", app.name), |b| {
            b.iter(|| {
                black_box(partition_from_metrics(
                    black_box(&bsbs),
                    &metrics,
                    &mut comm,
                    &mut scratch,
                    datapath,
                    ctl,
                    &pace,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partition, bench_metrics, bench_dp_core);
criterion_main!(benches);
