//! Pins the exact effort of the bounded search on the four bundled
//! applications at their Table 1 budgets, for both best-under-budget
//! and the Pareto sweep.
//!
//! `tests/pruning_effort.rs` holds ceilings; this file holds the
//! counts themselves. A change to the walk that keeps every result
//! exact but evaluates, prunes or refreshes a different set of points
//! shows up here and nowhere else. One worker and no cross-request
//! warm start make every run repeat exactly: the walk order, every
//! prune decision and every metrics refresh.

use lycos::core::Restrictions;
use lycos::hwlib::{Area, HwLibrary};
use lycos::pace::{search_best, search_pareto, PaceConfig, SearchOptions, SearchStats};

/// `evaluated`, `skipped`, `bounded`, `budget_pruned`, `dirty_probes`,
/// `clean_reuses` and `cache_hits`.
type Effort = [u128; 7];

fn effort(evaluated: usize, skipped: usize, stats: &SearchStats) -> Effort {
    [
        evaluated as u128,
        skipped as u128,
        stats.bounded,
        u128::from(stats.budget_pruned),
        u128::from(stats.dirty_probes),
        u128::from(stats.clean_reuses),
        u128::from(stats.cache_hits),
    ]
}

/// `(app, objective, effort)` at each app's Table 1 budget, in bundle
/// order.
const PINNED: [(&str, &str, Effort); 8] = [
    ("straight", "best", [120, 0, 456, 0, 1_045, 275, 460]),
    ("straight", "pareto", [315, 0, 261, 30, 2_618, 1_177, 794]),
    ("hal", "best", [145, 0, 367, 4, 192, 553, 50]),
    ("hal", "pareto", [215, 0, 297, 4, 269, 826, 64]),
    ("man", "best", [140, 277, 2_655, 120, 1_041, 259, 605]),
    ("man", "pareto", [381, 277, 2_414, 284, 2_661, 664, 1_775]),
    (
        "eigen",
        "best",
        [366, 1_157, 50_317, 4_986, 204_313, 41_879, 199_468],
    ),
    (
        "eigen",
        "pareto",
        [5_442, 1_223, 45_175, 10_038, 588_367, 123_713, 335_074],
    ),
];

#[test]
fn bounded_search_effort_is_pinned_on_the_bundled_apps() {
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let options = SearchOptions::new()
        .threads(1)
        .limit(None)
        .bound(true)
        .warm(false);
    let mut got = Vec::new();
    for app in lycos::apps::all() {
        let bsbs = app.bsbs();
        let restr = Restrictions::from_asap(&bsbs, &lib).expect("restrictions");
        let budget = Area::new(app.area_budget);
        let best = search_best(&bsbs, &lib, budget, &restr, &pace, &options).unwrap();
        let front = search_pareto(&bsbs, &lib, budget, &restr, &pace, &options).unwrap();
        assert_eq!(best.points_accounted(), best.space_size);
        assert_eq!(front.points_accounted(), front.space_size);
        got.push((
            app.name,
            "best",
            effort(best.evaluated, best.skipped, &best.stats),
        ));
        got.push((
            app.name,
            "pareto",
            effort(front.evaluated, front.skipped, &front.stats),
        ));
    }
    assert_eq!(got, PINNED);
}
