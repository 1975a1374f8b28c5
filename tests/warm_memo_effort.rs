//! Pins how little a warm repeat of a bounded search over a stored
//! application does. The equivalence suites cannot see this either:
//! a warm run that re-refreshes every candidate is still exact, only
//! slower.
//!
//! The cold run records every candidate it evaluated (exact times) and
//! every candidate the controller-budget relaxation pruned (bound
//! entries) in the per-budget evaluation memo. A warm repeat at one
//! worker, reseeded with the recorded winner, must skip all of them
//! from the memo: it refreshes the metrics of exactly one candidate —
//! the winner, whose partition it has to backtrack — and prunes
//! nothing by relaxation again.

use lycos::core::Restrictions;
use lycos::explore::flow::search;
use lycos::hwlib::{Area, HwLibrary};
use lycos::pace::{exhaustive_best, ArtifactStore, PaceConfig, SearchOptions, StopSignal};

#[test]
fn warm_repeat_of_bounded_eigen_refreshes_only_the_winner() {
    let app = lycos::apps::all()
        .into_iter()
        .find(|app| app.name == "eigen")
        .expect("eigen is bundled");
    let bsbs = app.bsbs();
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let restr = Restrictions::from_asap(&bsbs, &lib).expect("restrictions");
    let store = ArtifactStore::new(2);
    let options = SearchOptions::new()
        .threads(1)
        .limit(None)
        .bound(true)
        .warm(true);
    let budget = Area::new(12_000);
    let run = || {
        search(
            &bsbs,
            &lib,
            budget,
            &restr,
            &pace,
            &options,
            Some(&store),
            &StopSignal::never(),
        )
    };

    let cold = run().expect("cold run");
    assert!(cold.stats.budget_pruned > 0, "the relaxation never fired");
    let warm = run().expect("warm run");
    assert!(warm.stats.warm_reseeded, "the recorded winner reseeds");
    assert_eq!(warm.best_allocation, cold.best_allocation);
    assert_eq!(warm.best_partition, cold.best_partition);
    assert_eq!(warm.best_index, cold.best_index);
    assert_eq!(warm.points_accounted(), warm.space_size);
    assert_eq!(
        warm.stats.budget_pruned, 0,
        "a warm repeat pruned a memo-covered candidate by relaxation again"
    );
    assert_eq!(
        warm.stats.dirty_probes + warm.stats.clean_reuses,
        bsbs.len() as u64,
        "a warm repeat refreshed more than the winner's metrics"
    );
}

/// Bound entries a bounded run leaves in the memo may spare an
/// unbounded warm run the DP too, but never its accounting: that run
/// stays the exhaustive walk's reference, `evaluated` and `skipped`
/// included.
#[test]
fn unbounded_warm_run_after_a_bounded_one_keeps_the_exhaustive_accounting() {
    let app = lycos::apps::man();
    let bsbs = app.bsbs();
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let restr = Restrictions::from_asap(&bsbs, &lib).expect("restrictions");
    let budget = Area::new(app.area_budget);
    let store = ArtifactStore::new(2);
    let options = SearchOptions::new().threads(1).limit(None).warm(true);
    let run = |options: &SearchOptions| {
        search(
            &bsbs,
            &lib,
            budget,
            &restr,
            &pace,
            options,
            Some(&store),
            &StopSignal::never(),
        )
        .expect("search")
    };

    let bounded = run(&options.clone().bound(true));
    assert!(bounded.stats.budget_pruned > 0, "no bound entries recorded");
    let unbounded = run(&options);
    let reference = exhaustive_best(&bsbs, &lib, budget, &restr, &pace, None).expect("walk");
    assert_eq!(unbounded, reference);
    assert_eq!(unbounded.stats.bounded, 0);
}
