//! Pins how few list schedules a search over stored artifacts runs.
//! Every schedule length lives in the artifacts' schedule table, which
//! later requests and edits read instead of re-scheduling. The
//! equivalence suites cannot see this: a search that re-schedules
//! every projection is still exact, only slower.
//!
//! A lookup counts as a `cache_hits` when its slot was already filled
//! and as a `cache_misses` when the list scheduler had to run. A
//! projection outside the table is scheduled every time and never
//! kept, and still equals `compute_metrics`; so is every projection of
//! a block whose kinds lie outside the table's dimensions.

use lycos::core::{required_resources, RMap, Restrictions};
use lycos::explore::flow::search;
use lycos::hwlib::{Area, HwLibrary};
use lycos::ir::{extract_bsbs, Bsb, BsbArray, BsbId, BsbOrigin, Dfg, OpKind};
use lycos::pace::{
    compute_metrics, partition, partition_with_artifacts, ArtifactStore, BlockKey, DpScratch,
    MetricsCache, PaceConfig, SearchArtifacts, SearchOptions, SearchResult, StopSignal,
};

/// Eigen with the `occurrence`-th ` + ` of its source swapped for
/// ` - `, if that still compiles.
fn eigen_with_swap(occurrence: usize) -> Option<BsbArray> {
    let source = lycos::apps::eigen().source;
    let (at, _) = source.match_indices(" + ").nth(occurrence)?;
    let mut edited = source.to_owned();
    edited.replace_range(at..at + 3, " - ");
    let cdfg = lycos::frontend::compile(&edited).ok()?;
    extract_bsbs(&cdfg, None).ok()
}

/// The projection count of every block of `edited` whose content no
/// block of `original` has — the slots an edit can leave empty.
fn dirty_projections(
    original: &BsbArray,
    edited: &BsbArray,
    lib: &HwLibrary,
    restr: &Restrictions,
    edited_restr: &Restrictions,
) -> Vec<u64> {
    let before: Vec<BlockKey> = original
        .iter()
        .map(|b| BlockKey::of(b, lib, restr))
        .collect();
    edited
        .iter()
        .filter(|b| !before.contains(&BlockKey::of(b, lib, edited_restr)))
        .map(|b| {
            required_resources(b, lib)
                .expect("kinds")
                .iter()
                .map(|(fu, _)| u64::from(edited_restr.cap(fu)) + 1)
                .product()
        })
        .collect()
}

#[test]
fn an_edit_and_a_budget_repeat_schedule_only_what_changed() {
    let app = lycos::apps::eigen();
    let bsbs = app.bsbs();
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let restr = Restrictions::from_asap(&bsbs, &lib).expect("restrictions");
    let store = ArtifactStore::new(4);
    let options = SearchOptions::new()
        .threads(1)
        .bound(true)
        .limit(Some(1024));
    let run = |bsbs: &BsbArray, restr: &Restrictions, budget: u64| -> SearchResult {
        search(
            bsbs,
            &lib,
            Area::new(budget),
            restr,
            &pace,
            &options,
            Some(&store),
            &StopSignal::never(),
        )
        .expect("search")
    };

    let cold = run(&bsbs, &restr, app.area_budget);
    assert!(cold.stats.cache_hits > 0);

    // Another budget over the same stored artifacts: every slot the
    // sweep reads is already filled.
    let repeat = run(&bsbs, &restr, app.area_budget - 1_000);
    assert_eq!(repeat.stats.artifact_hits, 1);
    assert!(repeat.stats.cache_hits > 0);
    assert_eq!(repeat.stats.cache_misses, 0, "a budget repeat re-scheduled");

    // A one-operator swap: the clean blocks share the donor's slots, so
    // at most the edited block's projections are scheduled again.
    let (edited, edited_restr, dirty) = (0..64)
        .filter_map(eigen_with_swap)
        .find_map(|edited| {
            let edited_restr = Restrictions::from_asap(&edited, &lib).ok()?;
            match dirty_projections(&bsbs, &edited, &lib, &restr, &edited_restr)[..] {
                [dirty] => Some((edited, edited_restr, dirty)),
                _ => None,
            }
        })
        .expect("a swap that compiles and changes one block");
    let inc = run(&edited, &edited_restr, app.area_budget);
    assert_eq!(inc.stats.incremental_hits, 1, "the edit took the diff path");
    assert_eq!(inc.stats.blocks_rederived, 1, "one block changed");
    assert!(
        inc.stats.cache_misses <= dirty,
        "the edit scheduled {} projections, the swapped block has {dirty}",
        inc.stats.cache_misses
    );
}

/// One block of `n` independent operations of each kind: its ASAP cap
/// is `n` per kind.
fn parallel_block(kinds: &[OpKind], n: usize) -> BsbArray {
    let mut dfg = Dfg::new();
    for &kind in kinds {
        for _ in 0..n {
            dfg.add_op(kind);
        }
    }
    let bsb = Bsb {
        id: BsbId(0),
        name: "b0".into(),
        dfg,
        reads: Default::default(),
        writes: Default::default(),
        profile: 10,
        origin: BsbOrigin::Body,
    };
    BsbArray::from_bsbs("parallel", vec![bsb])
}

#[test]
fn a_count_past_its_cap_is_scheduled_every_time_and_never_kept() {
    let bsbs = parallel_block(&[OpKind::Add, OpKind::Mul], 2);
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let (adder, mult) = (
        lib.fu_for(OpKind::Add).unwrap(),
        lib.fu_for(OpKind::Mul).unwrap(),
    );
    let mut cache = MetricsCache::new(&bsbs, &lib, &pace).expect("cache");
    let inside: RMap = [(adder, 2), (mult, 1)].into_iter().collect();
    let past: RMap = [(adder, 3), (mult, 1)].into_iter().collect();
    for alloc in [&inside, &past, &inside, &past] {
        let fresh = compute_metrics(&bsbs, &lib, alloc, &pace).expect("metrics");
        assert_eq!(cache.metrics(alloc).expect("metrics"), fresh);
    }
    assert_eq!(cache.hits(), 1, "the in-table projection is read back");
    assert_eq!(cache.misses(), 3, "the past-cap projection runs every time");
    assert_eq!(
        cache.key_allocs(),
        1,
        "only the in-table projection is kept"
    );
}

#[test]
fn a_block_over_the_table_cap_is_scheduled_every_time() {
    // 42³ projections: more than the table keeps for one block.
    let bsbs = parallel_block(&[OpKind::Add, OpKind::Sub, OpKind::Shl], 41);
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let kinds = [OpKind::Add, OpKind::Sub, OpKind::Shl].map(|k| lib.fu_for(k).unwrap());
    let mut cache = MetricsCache::new(&bsbs, &lib, &pace).expect("cache");
    for counts in [[1, 1, 1], [3, 2, 41], [1, 1, 1]] {
        let alloc: RMap = kinds.into_iter().zip(counts).collect();
        let fresh = compute_metrics(&bsbs, &lib, &alloc, &pace).expect("metrics");
        assert_eq!(cache.metrics(&alloc).expect("metrics"), fresh);
    }
    assert_eq!(
        (cache.hits(), cache.misses(), cache.key_allocs()),
        (0, 3, 0)
    );
}

#[test]
fn one_partition_artifact_set_serves_every_allocation() {
    // Partition artifacts span no dimensions, so no block keeps a
    // schedule slot: a length memoised under one allocation must never
    // be read back under another.
    let bsbs = lycos::apps::eigen().bsbs();
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let total = Area::new(30_000);
    let restr = Restrictions::from_asap(&bsbs, &lib).expect("restrictions");
    let artifacts = SearchArtifacts::for_partition(&bsbs, &lib, &pace).expect("artifacts");
    let mut scratch = DpScratch::new();
    let mut checked = 0;
    for units in [1, 2, 4, 3, 1] {
        let alloc: RMap = restr.iter().map(|(fu, cap)| (fu, cap.min(units))).collect();
        if alloc.area(&lib) > total {
            continue;
        }
        assert_eq!(
            artifacts
                .metrics(&bsbs, &lib, &alloc, &pace)
                .expect("metrics"),
            compute_metrics(&bsbs, &lib, &alloc, &pace).expect("metrics"),
            "metrics at {units} units per kind"
        );
        let shared =
            partition_with_artifacts(&bsbs, &lib, &alloc, total, &pace, &mut scratch, &artifacts)
                .expect("partition");
        let fresh = partition(&bsbs, &lib, &alloc, total, &pace).expect("partition");
        assert_eq!(shared, fresh, "{units} units per kind");
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} allocations fit");
}
