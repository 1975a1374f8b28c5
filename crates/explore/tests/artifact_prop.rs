//! Property: the cross-request artifact store is invisible.
//!
//! For any synthetic application — including the communication-
//! dominated and plateau-heavy hardness profiles — and any point of
//! the bound × threads knob cross-product, a search through a
//! warm [`ArtifactStore`] (artifacts cached, a previous winner
//! reseeding the incumbent) must return exactly the winner a cold,
//! storeless search returns. The store may only change *effort*
//! telemetry (a tight incumbent from step 0 prunes more), never the
//! outcome.
//!
//! Also pinned here: [`ArtifactKey`] is a pure content fingerprint —
//! equal inputs give equal keys, and the key changes iff the CDFG,
//! the unit library, the restrictions or the PACE config changes (the
//! area budget is deliberately *not* part of the key; that is what
//! lets a budget-only change hit the store and warm-start).

use lycos_core::Restrictions;
use lycos_explore::{flow, SyntheticSpec};
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::BsbArray;
use lycos_pace::{ArtifactKey, ArtifactStore, PaceConfig, SearchOptions, SearchResult, StopSignal};
use proptest::prelude::*;

fn spec_for(idx: usize) -> SyntheticSpec {
    match idx % 3 {
        0 => {
            // Scaled-down medium profile so the cross-product stays fast.
            let mut s = SyntheticSpec::medium();
            s.blocks = 8;
            s.ops_per_block = (2, 8);
            s
        }
        1 => SyntheticSpec::comm_dominated(),
        _ => SyntheticSpec::plateau_heavy(),
    }
}

/// The warm-start guarantee: winner fields are identical. The effort
/// counters (`evaluated`/`skipped` plus `stats.bounded`) may shift
/// between the buckets when a seeded incumbent prunes earlier, so
/// they are deliberately not compared here — the unbounded case
/// checks full equality separately.
fn assert_same_winner(warm: &SearchResult, cold: &SearchResult) {
    assert_eq!(&warm.best_allocation, &cold.best_allocation);
    assert_eq!(&warm.best_partition, &cold.best_partition);
    assert_eq!(warm.best_gates, cold.best_gates);
    assert_eq!(warm.best_index, cold.best_index);
    assert_eq!(warm.space_size, cold.space_size);
    assert_eq!(warm.truncated, cold.truncated);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Warm (store hit + reseeded incumbent) equals cold (no store)
    /// across the full bound × threads cross-product.
    #[test]
    fn warm_search_matches_cold(
        spec_idx in 0usize..3,
        seed in 0u64..256,
        budget in 2_000u64..30_000,
    ) {
        let app = spec_for(spec_idx).generate(seed);
        let lib = HwLibrary::standard();
        let pace = PaceConfig::standard();
        let area = Area::new(budget);
        let restr = Restrictions::from_asap(&app, &lib).unwrap();

        for bound in [false, true] {
            for threads in [1usize, 2] {
                let options = SearchOptions::new()
                    .limit(Some(512))
                    .threads(threads)
                    .bound(bound);

                let cold = flow::search(
                    &app, &lib, area, &restr, &pace, &options, None, &StopSignal::never(),
                ).unwrap();

                let store = ArtifactStore::new(4);
                let first = flow::search(
                    &app, &lib, area, &restr, &pace, &options, Some(&store),
                    &StopSignal::never(),
                ).unwrap();
                prop_assert_eq!(first.stats.artifact_misses, 1);
                prop_assert_eq!(first.stats.artifact_hits, 0);
                assert_same_winner(&first, &cold);

                // Second identical request: artifacts hit, and the
                // exact repeat is served the first run's answer.
                let second = flow::search(
                    &app, &lib, area, &restr, &pace, &options, Some(&store),
                    &StopSignal::never(),
                ).unwrap();
                prop_assert_eq!(second.stats.artifact_hits, 1);
                prop_assert_eq!(second.stats.artifact_misses, 0);
                prop_assert!(second.stats.served);
                assert_same_winner(&second, &cold);
                if !bound {
                    // Without pruning there is no incumbent to
                    // seed: the runs must be equal in *every*
                    // compared field, effort included.
                    prop_assert_eq!(&second, &cold);
                }
            }
        }
    }

    /// A budget-only change still hits the store (budget is not in
    /// the key) and stays field-exact against its own cold run —
    /// recorded winners from other budgets are offered as seeds only
    /// when they fit inside the new budget.
    #[test]
    fn changed_budget_hits_and_matches_cold(
        spec_idx in 0usize..3,
        seed in 0u64..256,
        lo in 2_000u64..12_000,
        delta in 1_000u64..18_000,
    ) {
        let app = spec_for(spec_idx).generate(seed);
        let lib = HwLibrary::standard();
        let pace = PaceConfig::standard();
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let options = SearchOptions::new().limit(Some(512)).bound(true);
        let store = ArtifactStore::new(4);

        // Prime the store at the low budget, then query the high one
        // (warm: seed fits) and the low one again (an exact repeat).
        let budgets = [Area::new(lo), Area::new(lo + delta), Area::new(lo)];
        let mut seed_index = 0;
        for (request, area) in budgets.into_iter().enumerate() {
            let cold = flow::search(
                &app, &lib, area, &restr, &pace, &options, None, &StopSignal::never(),
            ).unwrap();
            let warm = flow::search(
                &app, &lib, area, &restr, &pace, &options, Some(&store),
                &StopSignal::never(),
            ).unwrap();
            assert_same_winner(&warm, &cold);
            match request {
                0 => seed_index = warm.best_index,
                1 => {
                    // The winner recorded at `lo` reseeds the walk
                    // whenever it lies inside this request's window.
                    let window = warm.space_size - warm.stats.truncated_points;
                    prop_assert_eq!(warm.stats.warm_reseeded, seed_index < window);
                }
                _ => prop_assert!(warm.stats.served),
            }
        }
        let stats = store.stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 2);
    }

    /// The content fingerprint changes iff an input the artifacts
    /// depend on changes.
    #[test]
    fn key_changes_iff_inputs_change(seed in 0u64..256) {
        let spec = spec_for(seed as usize);
        let app = spec.generate(seed);
        let lib = HwLibrary::standard();
        let pace = PaceConfig::standard();
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let base = ArtifactKey::of(&app, &lib, &restr, &pace);

        // Same inputs, independent call: same key.
        prop_assert_eq!(ArtifactKey::of(&app, &lib, &restr, &pace), base);

        // A different CDFG: different key.
        let other: BsbArray = spec.generate(seed.wrapping_add(1));
        let other_restr = Restrictions::from_asap(&other, &lib).unwrap();
        prop_assert_ne!(ArtifactKey::of(&other, &lib, &other_restr, &pace), base);

        // A different unit library: different key.
        let extended = HwLibrary::extended();
        prop_assert_ne!(ArtifactKey::of(&app, &extended, &restr, &pace), base);

        // Tightened restrictions: different key.
        if let Some((fu, cap)) = restr.iter().find(|&(_, cap)| cap > 0) {
            let mut tight = restr.clone();
            tight.tighten(fu, cap - 1);
            prop_assert_ne!(ArtifactKey::of(&app, &lib, &tight, &pace), base);
        }

        // A different PACE config: different key.
        let coarse = PaceConfig::standard().with_quantum(32);
        prop_assert_ne!(ArtifactKey::of(&app, &lib, &restr, &coarse), base);
    }
}
