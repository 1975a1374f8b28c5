//! Pins how little a warm repeat of a search over a stored application
//! does. The equivalence suites cannot see this either: a warm repeat
//! that walks the whole space again is still exact, only slower.
//!
//! A complete walk over store-resident artifacts records its answer
//! under `(budget, limit, bound)`. An exact repeat is served a copy:
//! the same winner and the same accounting, with no metrics refresh
//! at all. A run a stop signal cut short records nothing.

use lycos::core::Restrictions;
use lycos::explore::flow::search;
use lycos::hwlib::{Area, HwLibrary};
use lycos::ir::BsbArray;
use lycos::pace::{
    exhaustive_best, ArtifactStore, Completion, PaceConfig, SearchOptions, SearchResult, StopSignal,
};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// One bundled application's search inputs.
struct Inputs {
    bsbs: BsbArray,
    lib: HwLibrary,
    pace: PaceConfig,
    restr: Restrictions,
}

impl Inputs {
    fn of(app: &lycos::apps::BenchmarkApp) -> Inputs {
        let bsbs = app.bsbs();
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).expect("restrictions");
        Inputs {
            bsbs,
            lib,
            pace: PaceConfig::standard(),
            restr,
        }
    }

    fn search(
        &self,
        budget: Area,
        options: &SearchOptions,
        store: &ArtifactStore,
        stop: &StopSignal,
    ) -> SearchResult {
        search(
            &self.bsbs,
            &self.lib,
            budget,
            &self.restr,
            &self.pace,
            options,
            Some(store),
            stop,
        )
        .expect("search")
    }
}

#[test]
fn warm_repeat_of_bounded_eigen_is_served_and_refreshes_nothing() {
    let eigen = lycos::apps::all()
        .into_iter()
        .find(|app| app.name == "eigen")
        .expect("eigen is bundled");
    let inputs = Inputs::of(&eigen);
    let store = ArtifactStore::new(2);
    let options = SearchOptions::new()
        .threads(1)
        .limit(None)
        .bound(true)
        .warm(true);
    let budget = Area::new(12_000);

    let cold = inputs.search(budget, &options, &store, &StopSignal::never());
    assert!(!cold.stats.served);
    let warm = inputs.search(budget, &options, &store, &StopSignal::never());
    assert!(warm.stats.served, "an exact repeat is served its answer");
    assert_eq!(warm.best_allocation, cold.best_allocation);
    assert_eq!(warm.best_partition, cold.best_partition);
    assert_eq!(warm.best_gates, cold.best_gates);
    assert_eq!(warm.best_index, cold.best_index);
    assert_eq!(warm.points_accounted(), warm.space_size);
    assert_eq!(
        warm.stats.dirty_probes + warm.stats.clean_reuses,
        0,
        "a served repeat refreshed a candidate's metrics"
    );
    assert_eq!(store.stats().front_hits, 1, "the served answer is counted");
}

#[test]
fn unbounded_warm_repeat_is_served_and_equals_the_exhaustive_walk() {
    let man = lycos::apps::man();
    let inputs = Inputs::of(&man);
    let budget = Area::new(man.area_budget);
    let store = ArtifactStore::new(2);
    let options = SearchOptions::new().threads(2).limit(None).warm(true);

    let cold = inputs.search(budget, &options, &store, &StopSignal::never());
    assert!(!cold.stats.served);
    let warm = inputs.search(budget, &options, &store, &StopSignal::never());
    assert!(warm.stats.served, "an exact repeat is served its answer");
    let reference = exhaustive_best(
        &inputs.bsbs,
        &inputs.lib,
        budget,
        &inputs.restr,
        &inputs.pace,
        None,
    )
    .expect("walk");
    // `==` compares `evaluated` and `skipped` too.
    assert_eq!(warm, reference);
    assert_eq!(warm.stats.bounded, 0);
}

#[test]
fn a_stopped_run_is_not_recorded() {
    let man = lycos::apps::man();
    let inputs = Inputs::of(&man);
    let budget = Area::new(man.area_budget);
    let store = ArtifactStore::new(2);
    let options = SearchOptions::new().threads(1).limit(None).bound(true);

    let cancelled = StopSignal::never().with_cancel(Arc::new(AtomicBool::new(true)));
    let stopped = inputs.search(budget, &options, &store, &cancelled);
    assert_eq!(stopped.stats.completion, Completion::Cancelled);
    let repeat = inputs.search(budget, &options, &store, &StopSignal::never());
    assert!(!repeat.stats.served, "a stopped run's answer was served");
    assert_eq!(repeat.stats.completion, Completion::Complete);
    // The complete repeat is what the next one is served.
    let again = inputs.search(budget, &options, &store, &StopSignal::never());
    assert!(again.stats.served);
    assert_eq!(again, repeat);
}

/// An unbounded run after a bounded one at the same budget is not an
/// exact repeat — `bound` is part of the answer's key — so it walks,
/// and stays the exhaustive walk's reference, `evaluated` and
/// `skipped` included.
#[test]
fn unbounded_warm_run_after_a_bounded_one_keeps_the_exhaustive_accounting() {
    let man = lycos::apps::man();
    let inputs = Inputs::of(&man);
    let budget = Area::new(man.area_budget);
    let store = ArtifactStore::new(2);
    let options = SearchOptions::new().threads(1).limit(None).warm(true);

    let bounded = inputs.search(
        budget,
        &options.clone().bound(true),
        &store,
        &StopSignal::never(),
    );
    assert!(bounded.stats.bounded > 0, "the bounded run pruned nothing");
    let unbounded = inputs.search(budget, &options, &store, &StopSignal::never());
    assert!(
        !unbounded.stats.served,
        "a bounded answer served an unbounded run"
    );
    let reference = exhaustive_best(
        &inputs.bsbs,
        &inputs.lib,
        budget,
        &inputs.restr,
        &inputs.pace,
        None,
    )
    .expect("walk");
    assert_eq!(unbounded, reference);
    assert_eq!(unbounded.stats.bounded, 0);
}
