//! How the DP core scales with problem depth: block count `L` × area
//! level count `levels` (the §4.4 `O(L²·levels)` term of one PACE
//! evaluation).
//!
//! The dense baseline pays for every level of every row. The scratch
//! core stores each row as its staircase steps, so it pays for steps:
//! at a tight budget few runs fit and rows hold a handful of steps,
//! while at a generous one most runs stay admissible and rows carry
//! the most steps. Sweeping both axes over the same `SyntheticSpec`
//! applications makes that visible — the `scratch`-vs-`baseline` gap
//! should widen as `levels` grows faster than the steps do, and stay
//! positive everywhere (the scratch core also never allocates). The
//! generous-budget corner (largest `L` and `levels`) is the one to
//! watch: it is where rows have the most steps.
//!
//! `LYCOS_BENCH_QUICK` (CI's perf-smoke mode) trims both the sample
//! count (criterion shim) and the sweep grid.

use criterion::{criterion_group, criterion_main, Criterion};
use lycos::core::{RMap, Restrictions};
use lycos::explore::SyntheticSpec;
use lycos::hwlib::{Area, HwLibrary};
use lycos::pace::{
    compute_metrics, partition_from_metrics, reference_partition_from_metrics, CommCosts,
    DpScratch, PaceConfig,
};
use std::hint::black_box;

fn quick() -> bool {
    std::env::var_os("LYCOS_BENCH_QUICK").is_some()
}

fn spec(blocks: usize) -> SyntheticSpec {
    SyntheticSpec {
        blocks,
        ..SyntheticSpec::medium()
    }
}

fn bench_dp_depth(c: &mut Criterion) {
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let (block_counts, level_counts): (&[usize], &[u64]) = if quick() {
        (&[8, 24], &[64, 512])
    } else {
        (&[8, 16, 32, 48], &[64, 256, 1024])
    };

    let mut group = c.benchmark_group("dp_depth");
    group.sample_size(10);
    for &l in block_counts {
        let app = spec(l).generate(7);
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        // The fullest data path the restrictions admit: every block
        // feasible, so the run tables are as dense as they get.
        let alloc: RMap = restr.iter().collect();
        let datapath = alloc.area(&lib);
        let metrics = compute_metrics(&app, &lib, &alloc, &pace).unwrap();
        let mut comm = CommCosts::new(app.len());
        let mut scratch = DpScratch::new();
        for &levels in level_counts {
            let ctl = Area::new(levels * pace.quantum);
            group.bench_function(format!("L{l}_lv{levels}/baseline"), |b| {
                b.iter(|| {
                    black_box(reference_partition_from_metrics(
                        black_box(&app),
                        &metrics,
                        &mut comm,
                        datapath,
                        ctl,
                        &pace,
                    ))
                })
            });
            group.bench_function(format!("L{l}_lv{levels}/scratch"), |b| {
                b.iter(|| {
                    black_box(partition_from_metrics(
                        black_box(&app),
                        &metrics,
                        &mut comm,
                        &mut scratch,
                        datapath,
                        ctl,
                        &pace,
                    ))
                })
            });
            println!(
                "dp_depth/L{l}_lv{levels}: {:.1} steps per row",
                scratch.stored_steps() as f64 / l as f64
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dp_depth);
criterion_main!(benches);
