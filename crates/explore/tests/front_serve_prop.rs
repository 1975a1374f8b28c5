//! Properties of serving searches from a stored Pareto staircase.
//!
//! A complete, unlimited Pareto sweep over store-resident artifacts
//! keeps its `(time, gates, index)` staircase on them, and later
//! bounded warm searches at budgets up to its cap are answered from it
//! without a sweep. For synthetic applications — the generic
//! generator plus the comm-dominated and plateau-heavy hardness
//! profiles:
//!
//! * **Served best** — at random budgets up to the cap, and right at
//!   and just below every staircase area, the served answer is
//!   field-equal to `exhaustive_best`: allocation, partition, gates
//!   and index.
//! * **Served pareto** — at random budgets up to the cap the served
//!   frontier equals a fresh `search_pareto` at that budget.
//! * **Engine invariance** — the stored staircase is identical across
//!   thread counts and with branch-and-bound on or off.
//! * **Gates** — limited, `no-warm` and truncated sweeps store
//!   nothing; limited, unbounded and `no-warm` searches, and budgets
//!   above the cap, are never served.

use lycos_core::Restrictions;
use lycos_explore::SyntheticSpec;
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::{BsbArray, OpKind};
use lycos_pace::{
    exhaustive_best, search_best_with, search_pareto, search_pareto_with, search_pareto_with_stop,
    ArtifactStore, PaceConfig, SearchArtifacts, SearchOptions, StopSignal,
};
use proptest::prelude::*;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Tiny spaces, as in `pareto_prop.rs`: the generic two-kind
/// generator, or a hardness profile shrunk until exhausting the space
/// once per replay budget stays cheap.
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

/// The serving shape: one worker, bounded, warm, unlimited.
fn serving() -> SearchOptions {
    SearchOptions::new()
        .threads(1)
        .limit(None)
        .bound(true)
        .warm(true)
}

/// Store-resident artifacts for `app` in a fresh store.
fn resident(app: &BsbArray, restr: &Restrictions) -> (ArtifactStore, Arc<SearchArtifacts>) {
    let store = ArtifactStore::new(2);
    let (artifacts, _) = store
        .get_or_build_incremental(app, &HwLibrary::standard(), restr, &PaceConfig::standard())
        .unwrap();
    (store, artifacts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Served bests equal the exhaustive walk and served frontiers
    /// equal fresh sweeps, at every budget up to the cap.
    #[test]
    fn served_answers_equal_fresh_searches(
        seed in 0u64..512,
        which in 0usize..3,
        blocks in 1usize..4,
        max_ops in 1usize..4,
        extra_area in 0u64..8_000,
        fractions in prop::collection::vec(0u64..=1_000, 4),
    ) {
        let app = spec(which, blocks, max_ops).generate(seed);
        let lib = HwLibrary::standard();
        let config = PaceConfig::standard();
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let cap = Area::new(1_000 + extra_area);
        let (store, artifacts) = resident(&app, &restr);

        let sweep = search_pareto_with(&app, &lib, cap, &config, &serving(), &artifacts).unwrap();
        prop_assert!(!sweep.stats.served, "the first sweep walks");
        let front = artifacts.stored_front().expect("a complete sweep is stored");
        prop_assert_eq!(front.cap, cap);
        prop_assert_eq!(front.staircase[0].point.area, Area::new(0));
        prop_assert_eq!(&front.frontier_within(cap), &sweep.points);

        let mut budgets: Vec<u64> = fractions.iter().map(|f| cap.gates() * f / 1_000).collect();
        for e in &front.staircase {
            let a = e.point.area.gates();
            budgets.push(a);
            budgets.extend(a.checked_sub(1));
        }
        budgets.push(cap.gates());
        let mut served = 0;
        for &b in &budgets {
            let budget = Area::new(b);
            let got =
                search_best_with(&app, &lib, budget, &config, &serving(), &artifacts, &[]).unwrap();
            let want = exhaustive_best(&app, &lib, budget, &restr, &config, None).unwrap();
            prop_assert!(got.stats.served, "budget {} is under the cap", b);
            prop_assert_eq!(&got.best_allocation, &want.best_allocation, "allocation at {}", b);
            prop_assert_eq!(&got.best_partition, &want.best_partition, "partition at {}", b);
            prop_assert_eq!(got.best_gates, want.best_gates, "gates at {}", b);
            prop_assert_eq!(got.best_index, want.best_index, "index at {}", b);
            prop_assert_eq!((got.evaluated, got.skipped), (1, 0));
            prop_assert_eq!(got.points_accounted(), got.space_size);
            prop_assert!(got.stats.completion.is_complete());
            served += 1;
        }

        for f in &fractions {
            let budget = Area::new(cap.gates() * f / 1_000);
            let got = search_pareto_with(&app, &lib, budget, &config, &serving(), &artifacts)
                .unwrap();
            let fresh = search_pareto(&app, &lib, budget, &restr, &config, &serving()).unwrap();
            prop_assert!(got.stats.served);
            prop_assert!(!fresh.stats.served, "one-shot artifacts are never served");
            prop_assert_eq!(&got, &fresh, "frontier at {}", budget.gates());
            prop_assert_eq!((got.evaluated, got.stats.bounded), (0, got.space_size));
            prop_assert_eq!(got.points_accounted(), got.space_size);
            served += 1;
        }
        prop_assert_eq!(store.stats().front_hits, served);
    }

    /// One staircase, whatever the engine shape that swept it.
    #[test]
    fn stored_staircase_is_engine_shape_invariant(
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
        let cap = Area::new(1_000 + extra_area);

        let mut reference = None;
        for threads in [1usize, 3] {
            for bound in [false, true] {
                let (_store, artifacts) = resident(&app, &restr);
                let options = SearchOptions::new()
                    .threads(threads)
                    .limit(None)
                    .bound(bound)
                    .warm(true);
                search_pareto_with(&app, &lib, cap, &config, &options, &artifacts).unwrap();
                let front = artifacts.stored_front().expect("a complete sweep is stored");
                match &reference {
                    None => reference = Some(front),
                    Some(first) => prop_assert_eq!(
                        &front,
                        first,
                        "threads={} bound={}",
                        threads,
                        bound
                    ),
                }
            }
        }
    }
}

#[test]
fn only_complete_unlimited_warm_sweeps_store_and_only_bounded_warm_searches_serve() {
    let app = spec(0, 3, 3).generate(7);
    let lib = HwLibrary::standard();
    let config = PaceConfig::standard();
    let restr = Restrictions::from_asap(&app, &lib).unwrap();
    let cap = Area::new(6_000);
    let (store, artifacts) = resident(&app, &restr);

    // Sweeps that must not store: limited, no-warm, cancelled.
    let limited = serving().limit(Some(2));
    search_pareto_with(&app, &lib, cap, &config, &limited, &artifacts).unwrap();
    search_pareto_with(&app, &lib, cap, &config, &serving().warm(false), &artifacts).unwrap();
    let cancelled = StopSignal::never().with_cancel(Arc::new(AtomicBool::new(true)));
    let stopped =
        search_pareto_with_stop(&app, &lib, cap, &config, &serving(), &artifacts, &cancelled)
            .unwrap();
    assert!(!stopped.stats.completion.is_complete());
    assert!(artifacts.stored_front().is_none());

    // A narrower sweep stores; a wider one replaces it; a narrower one
    // after that is served from the wider staircase and keeps it.
    let narrow = Area::new(3_000);
    search_pareto_with(&app, &lib, narrow, &config, &serving(), &artifacts).unwrap();
    assert_eq!(artifacts.stored_front().unwrap().cap, narrow);
    search_pareto_with(&app, &lib, cap, &config, &serving(), &artifacts).unwrap();
    assert_eq!(artifacts.stored_front().unwrap().cap, cap);
    let again = search_pareto_with(&app, &lib, narrow, &config, &serving(), &artifacts).unwrap();
    assert!(again.stats.served);
    assert_eq!(artifacts.stored_front().unwrap().cap, cap);
    assert_eq!(store.stats().front_hits, 1);

    // Searches that must not be served.
    let best = |options: &SearchOptions, budget: Area| {
        search_best_with(&app, &lib, budget, &config, options, &artifacts, &[]).unwrap()
    };
    let within = Area::new(4_000);
    assert!(!best(&serving().bound(false), within).stats.served);
    assert!(!best(&serving().warm(false), within).stats.served);
    assert!(!best(&serving().limit(Some(1_000)), within).stats.served);
    assert!(!best(&serving(), Area::new(cap.gates() + 1)).stats.served);
    assert!(best(&serving(), within).stats.served);
    assert_eq!(store.stats().front_hits, 2);

    // One-shot artifacts neither store nor serve.
    let one_shot = SearchArtifacts::prepare(&app, &lib, &restr, &config).unwrap();
    search_pareto_with(&app, &lib, cap, &config, &serving(), &one_shot).unwrap();
    assert!(one_shot.stored_front().is_none());
}

/// Same-time entries are rare on tiny spaces (2 of 3 600 sampled
/// staircases carry one); these two fixtures do. At every budget from
/// 0 to the cap, the served best must still be the exhaustive winner —
/// including at the larger-area, smaller-data-path entry of a tie.
#[test]
fn same_time_ties_are_served_exactly() {
    let lib = HwLibrary::standard();
    let config = PaceConfig::standard();
    let cap = Area::new(9_000);
    for (which, seed) in [(0, 185), (2, 47)] {
        let app = spec(which, 4, 3).generate(seed);
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let (_store, artifacts) = resident(&app, &restr);
        search_pareto_with(&app, &lib, cap, &config, &serving(), &artifacts).unwrap();
        let front = artifacts
            .stored_front()
            .expect("a complete sweep is stored");
        let tie = front
            .staircase
            .windows(2)
            .find(|w| w[0].point.time() == w[1].point.time())
            .expect("the fixture carries a same-time tie");
        assert!(
            tie[1].gates < tie[0].gates,
            "the larger-area entry has the smaller data path"
        );
        for b in (0..=cap.gates()).step_by(50) {
            let budget = Area::new(b);
            let got =
                search_best_with(&app, &lib, budget, &config, &serving(), &artifacts, &[]).unwrap();
            let want = exhaustive_best(&app, &lib, budget, &restr, &config, None).unwrap();
            assert!(got.stats.served);
            assert_eq!(
                (
                    &got.best_allocation,
                    &got.best_partition,
                    got.best_gates,
                    got.best_index
                ),
                (
                    &want.best_allocation,
                    &want.best_partition,
                    want.best_gates,
                    want.best_index
                ),
                "fixture ({which}, {seed}) at budget {b}"
            );
        }
    }
}
