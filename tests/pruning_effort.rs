//! Pins how much of eigen's allocation space the bounded search still
//! evaluates. The equivalence suites cannot see this: losing pruning
//! leaves every result exact and only makes the search slower.
//!
//! Both runs are deterministic: one worker and no cross-request warm
//! start, so the walk order and every prune decision repeat exactly.
//! The ceilings leave headroom above the counts the controller-budget
//! relaxation reaches (366 and 5,442) and sit far below the counts
//! without it (5,352 and 15,480).

use lycos::core::Restrictions;
use lycos::hwlib::{Area, HwLibrary};
use lycos::pace::{search_best, search_pareto, PaceConfig, SearchOptions};

fn eigen() -> (lycos::ir::BsbArray, Restrictions) {
    let app = lycos::apps::all()
        .into_iter()
        .find(|app| app.name == "eigen")
        .expect("eigen is bundled");
    let bsbs = app.bsbs();
    let restr = Restrictions::from_asap(&bsbs, &HwLibrary::standard()).expect("restrictions");
    (bsbs, restr)
}

fn options() -> SearchOptions {
    SearchOptions::new()
        .threads(1)
        .limit(None)
        .bound(true)
        .warm(false)
}

#[test]
fn bounded_best_on_eigen_evaluates_at_most_750() {
    let (bsbs, restr) = eigen();
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let res = search_best(&bsbs, &lib, Area::new(12_000), &restr, &pace, &options()).unwrap();
    assert_eq!(res.points_accounted(), res.space_size);
    assert!(res.stats.budget_pruned > 0, "the relaxation never fired");
    assert!(
        res.evaluated <= 750,
        "best eigen@12000 evaluated {} allocations",
        res.evaluated
    );
}

#[test]
fn bounded_pareto_on_eigen_evaluates_at_most_8000() {
    let (bsbs, restr) = eigen();
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let front = search_pareto(&bsbs, &lib, Area::new(12_000), &restr, &pace, &options()).unwrap();
    assert_eq!(front.points_accounted(), front.space_size);
    assert!(front.stats.budget_pruned > 0, "the relaxation never fired");
    assert!(
        front.evaluated <= 8_000,
        "pareto eigen@12000 evaluated {} allocations",
        front.evaluated
    );
}
