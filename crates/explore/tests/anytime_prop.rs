//! Properties of the anytime search contract.
//!
//! Whatever an external [`StopSignal`] does to a sweep, the result
//! must stay *usable* and *accounted*:
//!
//! * **Feasible, DP-exact incumbent** — a truncated or cancelled
//!   `BestUnderBudget` run still answers with a winner whose
//!   partition re-derives field-exactly from one direct PACE
//!   evaluation of its allocation, within the area budget.
//! * **Accounting** — `evaluated + skipped + bounded + truncated +
//!   unvisited` covers the space exactly, stopped or not.
//! * **`deadline = ∞` is invisible** — with no deadline and a signal
//!   that never trips, every engine shape (bound × threads)
//!   returns a field-identical, `Complete` result with nothing
//!   unvisited.

use lycos_core::Restrictions;
use lycos_explore::SyntheticSpec;
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::OpKind;
use lycos_pace::{
    partition, search_best, search_best_with_stop, search_pareto_with_stop, Completion, PaceConfig,
    SearchArtifacts, SearchOptions, StopSignal,
};
use proptest::prelude::*;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Tiny spaces, as in the other search proptests: the generic
/// two-kind generator or a hardness profile, shrunk until repeated
/// sweeps stay cheap.
fn spec(which: usize, blocks: usize, max_ops: usize) -> SyntheticSpec {
    let base = match which {
        0 => SyntheticSpec {
            blocks,
            ops_per_block: (1, max_ops),
            edge_density: 0.25,
            max_profile: 3_000,
            kinds: vec![OpKind::Add, OpKind::Mul],
            read_fan: (0, 2),
            barrier_every: 0,
        },
        1 => SyntheticSpec::comm_dominated(),
        _ => SyntheticSpec::plateau_heavy(),
    };
    let hi = base.ops_per_block.1.min(max_ops).max(1);
    SyntheticSpec {
        blocks,
        ops_per_block: (base.ops_per_block.0.min(2).min(hi), hi),
        ..base
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A signal cancelled before the sweep even starts still answers:
    /// the all-software fallback, evaluated for real, feasible and
    /// DP-exact, with every unvisited point accounted.
    #[test]
    fn pre_cancelled_search_answers_the_feasible_all_software_point(
        seed in 0u64..512,
        which in 0usize..3,
        blocks in 1usize..4,
        max_ops in 1usize..4,
        extra_area in 0u64..8_000,
    ) {
        let app = spec(which, blocks, max_ops).generate(seed);
        let lib = HwLibrary::standard();
        let config = PaceConfig::standard();
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let total = Area::new(1_000 + extra_area);
        let artifacts = SearchArtifacts::prepare(&app, &lib, &restr, &config).unwrap();

        let flag = Arc::new(AtomicBool::new(true)); // cancelled up front
        let stop = StopSignal::never().with_cancel(flag);
        let options = SearchOptions { threads: 1, ..SearchOptions::default() };
        let res = search_best_with_stop(
            &app, &lib, total, &config, &options, &artifacts, &[], &stop,
        ).unwrap();

        prop_assert_eq!(res.stats.completion, Completion::Cancelled);
        prop_assert_eq!(res.best_gates, 0, "all-software fallback has no data path");
        prop_assert_eq!(res.best_index, 0u128);
        prop_assert_eq!(res.evaluated, 1, "the fallback is a real evaluation");
        prop_assert_eq!(res.points_accounted(), res.space_size);
        // Feasible and DP-exact: one direct PACE evaluation of the
        // winner's allocation reproduces the returned partition.
        let replay = partition(&app, &lib, &res.best_allocation, total, &config).unwrap();
        prop_assert_eq!(&replay, &res.best_partition);
    }

    /// An already-expired deadline truncates at the first check, and
    /// the anytime contract holds: feasible DP-exact winner, full
    /// accounting, `DeadlineTruncated` marker.
    #[test]
    fn expired_deadline_truncates_with_a_feasible_winner(
        seed in 0u64..512,
        which in 0usize..3,
        blocks in 1usize..4,
        max_ops in 1usize..4,
        extra_area in 0u64..8_000,
        shape in 0usize..4,
    ) {
        let threads = 1 + shape % 2;
        let bound = shape / 2 == 1;
        let app = spec(which, blocks, max_ops).generate(seed);
        let lib = HwLibrary::standard();
        let config = PaceConfig::standard();
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let total = Area::new(1_000 + extra_area);
        let artifacts = SearchArtifacts::prepare(&app, &lib, &restr, &config).unwrap();

        let options = SearchOptions {
            threads,
            bound,
            deadline_ms: Some(0),
            ..SearchOptions::default()
        };
        let res = search_best_with_stop(
            &app, &lib, total, &config, &options, &artifacts, &[], &StopSignal::never(),
        ).unwrap();

        prop_assert_eq!(res.stats.completion, Completion::DeadlineTruncated);
        prop_assert!(res.best_gates <= total.gates(), "winner is within budget");
        prop_assert_eq!(res.points_accounted(), res.space_size);
        let replay = partition(&app, &lib, &res.best_allocation, total, &config).unwrap();
        prop_assert_eq!(&replay, &res.best_partition);
    }

    /// A cancelled Pareto sweep still answers a frontier — at least
    /// the always-feasible all-software anchor — with the same
    /// accounting guarantee.
    #[test]
    fn cancelled_pareto_sweep_keeps_its_anchor(
        seed in 0u64..512,
        which in 0usize..3,
        blocks in 1usize..4,
        max_ops in 1usize..4,
        extra_area in 0u64..8_000,
    ) {
        let app = spec(which, blocks, max_ops).generate(seed);
        let lib = HwLibrary::standard();
        let config = PaceConfig::standard();
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let total = Area::new(1_000 + extra_area);
        let artifacts = SearchArtifacts::prepare(&app, &lib, &restr, &config).unwrap();

        let flag = Arc::new(AtomicBool::new(true));
        let stop = StopSignal::never().with_cancel(flag);
        let options = SearchOptions { threads: 1, ..SearchOptions::default() };
        let front = search_pareto_with_stop(
            &app, &lib, total, &config, &options, &artifacts, &stop,
        ).unwrap();

        prop_assert_eq!(front.completion(), Completion::Cancelled);
        prop_assert!(!front.points.is_empty(), "the all-software anchor survives");
        prop_assert_eq!(front.points_accounted(), front.space_size);
        for pair in front.points.windows(2) {
            prop_assert!(pair[0].area < pair[1].area, "areas strictly ascend");
            prop_assert!(pair[0].time() > pair[1].time(), "times strictly descend");
        }
        // The anchor (or whatever partial frontier was visited) is
        // DP-exact point by point.
        for point in &front.points {
            let replay = partition(&app, &lib, &point.allocation, total, &config).unwrap();
            prop_assert_eq!(&replay, &point.partition);
        }
    }

    /// No deadline and a never-tripping signal are invisible: every
    /// engine shape answers `Complete`, nothing unvisited, and the
    /// result is field-identical to the plain sequential search.
    #[test]
    fn no_deadline_is_field_identical_across_engine_shapes(
        seed in 0u64..512,
        which in 0usize..3,
        blocks in 1usize..4,
        max_ops in 1usize..4,
        extra_area in 0u64..8_000,
    ) {
        let app = spec(which, blocks, max_ops).generate(seed);
        let lib = HwLibrary::standard();
        let config = PaceConfig::standard();
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let total = Area::new(1_000 + extra_area);
        let artifacts = SearchArtifacts::prepare(&app, &lib, &restr, &config).unwrap();

        let reference = search_best(
            &app, &lib, total, &restr, &config, &SearchOptions::sequential(),
        ).unwrap();
        prop_assert_eq!(reference.stats.completion, Completion::Complete);
        prop_assert_eq!(reference.stats.unvisited, 0u128);

        for threads in [1usize, 3] {
            for bound in [false, true] {
                let options = SearchOptions {
                    threads,
                    bound,
                    deadline_ms: None,
                    ..SearchOptions::default()
                };
                let got = search_best_with_stop(
                    &app, &lib, total, &config, &options, &artifacts, &[],
                    &StopSignal::never(),
                ).unwrap();
                prop_assert_eq!(got.stats.completion, Completion::Complete);
                prop_assert_eq!(got.stats.unvisited, 0u128);
                prop_assert_eq!(got.points_accounted(), got.space_size);
                // Winner fields are engine-shape invariant; the
                // evaluated/bounded *effort split* legitimately
                // moves with `bound`, so full `SearchResult`
                // equality only holds shape-by-shape.
                prop_assert_eq!(
                    (&got.best_allocation, &got.best_partition, got.best_gates, got.best_index),
                    (&reference.best_allocation, &reference.best_partition,
                     reference.best_gates, reference.best_index),
                    "threads={} bound={}", threads, bound
                );
            }
        }
    }
}
