//! Properties of the branch-and-bound search layer.
//!
//! For any synthetic application over a small allocation space:
//!
//! * **Admissibility** — every prefix bound of the artifacts' bound
//!   tables ([`lycos_pace::SearchBounds`], any level, any fixed
//!   digits) is ≤ the true PACE time of every allocation consistent
//!   with that prefix — in particular, the relaxed bound never exceeds
//!   the exhaustive optimum's time.
//! * **Field-exactness** — `search_best` with `bound: true` returns
//!   exactly the exhaustive walk's winner (allocation, partition,
//!   time, area — the full `(time, area)` tie-break), at any thread
//!   count, and its accounting buckets
//!   (`evaluated + skipped + bounded + truncated_points`) always
//!   cover the space.

use lycos_core::{RMap, Restrictions};
use lycos_explore::SyntheticSpec;
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::OpKind;
use lycos_pace::{
    exhaustive_best, search_best, PaceConfig, SearchArtifacts, SearchOptions, StopSignal,
};
use proptest::prelude::*;

/// Few kinds and tiny blocks keep the ASAP caps — and therefore the
/// space the admissibility check exhausts — small.
fn spec(blocks: usize, max_ops: usize) -> SyntheticSpec {
    SyntheticSpec {
        blocks,
        ops_per_block: (1, max_ops),
        edge_density: 0.25,
        max_profile: 3_000,
        kinds: vec![OpKind::Add, OpKind::Mul],
        read_fan: (0, 2),
        barrier_every: 0,
    }
}

/// The admissibility stressors, shrunk until exhausting their spaces
/// is cheap: `comm_dominated` keeps the wide read fan and the barrier
/// cadence, `plateau_heavy` the zero density and the flat kind pair.
fn hardness_profile(which: usize, blocks: usize) -> SyntheticSpec {
    let base = if which == 0 {
        SyntheticSpec::comm_dominated()
    } else {
        SyntheticSpec::plateau_heavy()
    };
    SyntheticSpec {
        blocks,
        ops_per_block: (base.ops_per_block.0.min(2), base.ops_per_block.1.min(3)),
        ..base
    }
}

/// The exact partition time of one allocation, fresh.
fn dp_time(
    bsbs: &lycos_ir::BsbArray,
    lib: &HwLibrary,
    alloc: &RMap,
    total: Area,
    config: &PaceConfig,
) -> u64 {
    lycos_pace::partition(bsbs, lib, alloc, total, config)
        .unwrap()
        .total_time
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every prefix bound of the artifacts' (communication-floored)
    /// tables is ≤ the DP time of every consistent allocation — on the
    /// plain synthetic spec and on the hardness profiles (wide read
    /// fans, software barriers, flat plateaus) — and the relaxed bound
    /// is ≤ the optimum.
    #[test]
    fn prefix_bounds_are_admissible(
        seed in 0u64..512,
        which in 0usize..3,
        blocks in 1usize..6,
        max_ops in 1usize..4,
        extra_area in 0u64..6_000,
    ) {
        let app = match which {
            0 => spec(blocks, max_ops).generate(seed),
            _ => hardness_profile(which - 1, blocks.clamp(2, 4)).generate(seed),
        };
        let lib = HwLibrary::standard();
        let config = PaceConfig::standard();
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let total = Area::new(1_000 + extra_area);
        let artifacts = SearchArtifacts::prepare(&app, &lib, &restr, &config).unwrap();
        let dims = artifacts.dims();
        let bounds = artifacts
            .bounds(&app, &lib, &StopSignal::never())
            .unwrap()
            .expect("a never-signal builds");

        let mut best_time = u64::MAX;
        let mut counts = vec![0u32; dims.len()];
        'space: loop {
            let alloc: RMap = dims
                .iter()
                .zip(&counts)
                .map(|(&(fu, _), &c)| (fu, c))
                .collect();
            if alloc.area(&lib) <= total {
                let time = dp_time(&app, &lib, &alloc, total, &config);
                best_time = best_time.min(time);
                for pos in 0..=dims.len() {
                    let lb = bounds.prefix_bound(&counts, pos);
                    prop_assert!(
                        lb <= time,
                        "app {} level {} bound {} beats the DP time {} at {:?}",
                        which, pos, lb, time, counts
                    );
                }
            }
            let mut pos = 0;
            loop {
                if pos == dims.len() {
                    break 'space;
                }
                counts[pos] += 1;
                if counts[pos] <= dims[pos].1 {
                    break;
                }
                counts[pos] = 0;
                pos += 1;
            }
        }
        prop_assert!(
            bounds.relaxed_bound() <= best_time,
            "relaxed bound {} beats the optimum {}",
            bounds.relaxed_bound(), best_time
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Branch-and-bound equals the exhaustive walk field-exactly,
    /// across thread counts.
    #[test]
    fn bounded_search_is_field_exact(
        seed in 0u64..512,
        blocks in 1usize..8,
        max_ops in 1usize..6,
        extra_area in 0u64..10_000,
        limit_raw in 0usize..41,
    ) {
        // The compat shim has no `prop::option`: the top of the range
        // stands in for "no limit".
        let limit = if limit_raw == 40 { None } else { Some(limit_raw) };
        let app = spec(blocks, max_ops).generate(seed);
        let lib = HwLibrary::standard();
        let config = PaceConfig::standard();
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let total = Area::new(1_000 + extra_area);
        let seed_result =
            exhaustive_best(&app, &lib, total, &restr, &config, limit).unwrap();

        for threads in [1usize, 3] {
            let got = search_best(
                &app,
                &lib,
                total,
                &restr,
                &config,
                &SearchOptions {
                    threads,
                    limit,
                    bound: true,
                    ..SearchOptions::default()
                },
            )
            .unwrap();
            prop_assert_eq!(
                &got.best_allocation,
                &seed_result.best_allocation,
                "winner allocation (threads={})",
                threads
            );
            prop_assert_eq!(
                &got.best_partition,
                &seed_result.best_partition,
                "winner partition (threads={})",
                threads
            );
            prop_assert_eq!(got.space_size, seed_result.space_size);
            prop_assert_eq!(got.truncated, seed_result.truncated);
            prop_assert!(got.evaluated <= seed_result.evaluated);
            prop_assert_eq!(
                got.points_accounted(),
                got.space_size,
                "evaluated {} + skipped {} + bounded {} + truncated {} != space {}",
                got.evaluated,
                got.skipped,
                got.stats.bounded,
                got.stats.truncated_points,
                got.space_size
            );
        }
    }
}
