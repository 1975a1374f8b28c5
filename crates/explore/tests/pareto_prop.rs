//! Properties of the Pareto-front search objective.
//!
//! For any synthetic application over a small allocation space — the
//! generic generator plus the comm-dominated and plateau-heavy
//! hardness profiles — one `search_pareto` sweep must equal the
//! winners of repeated single-budget exhaustive runs:
//!
//! * **Pointwise** — replaying `exhaustive_best` at each frontier
//!   area returns that point field-exactly (allocation, partition,
//!   the full tie-break).
//! * **Between the steps** — at any budget strictly between two
//!   frontier areas the exhaustive winner is the lower point: the
//!   frontier is the whole staircase, with nothing hiding between
//!   its steps.
//! * **Engine invariance** — the frontier is identical across thread
//!   counts, with branch-and-bound on or off, and the accounting
//!   buckets always cover the space.

use lycos_core::Restrictions;
use lycos_explore::SyntheticSpec;
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::OpKind;
use lycos_pace::{exhaustive_best, search_pareto, PaceConfig, SearchOptions};
use proptest::prelude::*;

/// Tiny spaces: the generic two-kind generator, or a hardness profile
/// (`comm_dominated`, `plateau_heavy`) shrunk until exhausting the
/// space once per replay budget stays cheap.
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

    /// The frontier equals the winners of repeated single-budget
    /// exhaustive runs — at every frontier area, between consecutive
    /// areas, and at the sweep's own total.
    #[test]
    fn frontier_equals_repeated_single_budget_winners(
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

        let options = SearchOptions {
            threads: 1,
            bound: true,
            ..SearchOptions::default()
        };
        let front = search_pareto(&app, &lib, total, &restr, &config, &options).unwrap();
        prop_assert!(!front.points.is_empty(), "even all-software is a point");
        prop_assert_eq!(
            front.points_accounted(),
            front.space_size,
            "evaluated {} + skipped {} + bounded {} + truncated {} != space {}",
            front.evaluated,
            front.skipped,
            front.stats.bounded,
            front.stats.truncated_points,
            front.space_size
        );
        for pair in front.points.windows(2) {
            prop_assert!(pair[0].area < pair[1].area, "areas strictly ascend");
            prop_assert!(pair[0].time() > pair[1].time(), "times strictly descend");
        }

        // Replay budgets: every frontier area, the midpoint of every
        // gap (expected winner: the step below), and the total.
        let mut budgets: Vec<(u64, usize)> = front
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| (p.area.gates(), i))
            .collect();
        for (i, pair) in front.points.windows(2).enumerate() {
            let mid = (pair[0].area.gates() + pair[1].area.gates()) / 2;
            if mid > pair[0].area.gates() && mid < pair[1].area.gates() {
                budgets.push((mid, i));
            }
        }
        budgets.push((total.gates(), front.points.len() - 1));

        for (budget, idx) in budgets {
            let expect = &front.points[idx];
            let got =
                exhaustive_best(&app, &lib, Area::new(budget), &restr, &config, None).unwrap();
            prop_assert_eq!(
                &got.best_allocation,
                &expect.allocation,
                "winner allocation at budget {}",
                budget
            );
            prop_assert_eq!(
                &got.best_partition,
                &expect.partition,
                "winner partition at budget {}",
                budget
            );
        }
    }

    /// One frontier, whatever the engine shape: thread counts and the
    /// bound are invisible in the result.
    #[test]
    fn frontier_is_engine_shape_invariant(
        seed in 0u64..512,
        which in 0usize..3,
        blocks in 1usize..5,
        max_ops in 1usize..4,
        extra_area in 0u64..8_000,
    ) {
        let app = spec(which, blocks, max_ops).generate(seed);
        let lib = HwLibrary::standard();
        let config = PaceConfig::standard();
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let total = Area::new(1_000 + extra_area);

        let reference = search_pareto(
            &app,
            &lib,
            total,
            &restr,
            &config,
            &SearchOptions::sequential(),
        )
        .unwrap();
        for threads in [1usize, 3] {
            for bound in [false, true] {
                let got = search_pareto(
                    &app,
                    &lib,
                    total,
                    &restr,
                    &config,
                    &SearchOptions {
                        threads,
                        bound,
                        ..SearchOptions::default()
                    },
                )
                .unwrap();
                // `ParetoResult` equality: same points over the
                // same space, telemetry aside.
                prop_assert_eq!(
                    &got,
                    &reference,
                    "threads={} bound={}",
                    threads,
                    bound
                );
            }
        }
    }
}
