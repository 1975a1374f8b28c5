//! Property: incremental dirty-block re-allocation is invisible.
//!
//! For any synthetic application — including the communication-
//! dominated and plateau-heavy hardness profiles — any single- or
//! multi-block edit (a DFG tweak, a restriction change, a block
//! insert or delete), and any point of the bound × threads × warm
//! knob cross-product, a search whose artifacts were built
//! *incrementally* (diffed against the resident original by per-block
//! fingerprint, clean blocks cloned, dirty blocks re-derived) must
//! return exactly what a from-scratch build returns. The diff path
//! may only change the reuse telemetry, never the outcome — the same
//! hard contract the warm/cold equivalence proptests pin for
//! reseeding.
//!
//! Also pinned here: the schedule table an edited application carries
//! from its donor holds exactly the lengths a from-scratch fill
//! computes, and [`BlockKey`] is a pure per-block content
//! fingerprint — any block edit flips exactly the edited block's key
//! and leaves every sibling's key unchanged, including across the
//! position and id shifts of an insert or delete.

use lycos_core::Restrictions;
use lycos_explore::{flow, SyntheticSpec};
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::{Bsb, BsbArray, OpKind};
use lycos_pace::{
    search_best_with_stop, ArtifactStore, BlockKey, PaceConfig, SearchArtifacts, SearchOptions,
    SearchResult, StopSignal,
};
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

/// One program edit, by shape: `0` grows one block's DFG, `1` inserts
/// a fresh block, `2` deletes one (falling back to a tweak when only
/// one block remains), `3` tweaks two blocks at once. `at` picks the
/// edited position. Restriction changes edit the *inputs*, not the
/// program, and are applied by the caller instead.
fn edited_app(app: &BsbArray, shape: usize, at: usize) -> BsbArray {
    let mut blocks: Vec<Bsb> = app.as_slice().to_vec();
    let i = at % blocks.len();
    match shape {
        0 => {
            blocks[i].dfg.add_op(OpKind::Add);
        }
        1 => {
            let mut extra = blocks[i].clone();
            extra.name = "inserted".into();
            extra.dfg.add_op(OpKind::Sub);
            extra.profile = extra.profile / 2 + 1;
            blocks.insert(i + 1, extra);
        }
        2 => {
            if blocks.len() > 1 {
                blocks.remove(i);
            } else {
                blocks[i].dfg.add_op(OpKind::Add);
            }
        }
        _ => {
            blocks[i].dfg.add_op(OpKind::Add);
            let j = (i + 1) % blocks.len();
            blocks[j].profile += 1;
        }
    }
    // from_bsbs re-ids every block: ids and positions shift exactly as
    // a real editor pass would shift them.
    BsbArray::from_bsbs(app.app_name().to_owned(), blocks)
}

/// The incremental guarantee: winner fields are identical. Effort
/// counters may shift when carried-forward seeds prune earlier, so
/// they are compared only in the unbounded case (full equality).
fn assert_same_winner(incremental: &SearchResult, scratch: &SearchResult) {
    assert_eq!(&incremental.best_allocation, &scratch.best_allocation);
    assert_eq!(&incremental.best_partition, &scratch.best_partition);
    assert_eq!(incremental.best_gates, scratch.best_gates);
    assert_eq!(incremental.best_index, scratch.best_index);
    assert_eq!(incremental.space_size, scratch.space_size);
    assert_eq!(incremental.truncated, scratch.truncated);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An edited request whose artifacts were diffed against the
    /// resident original equals a from-scratch build, across every
    /// edit shape and the bound × threads × warm cross-product.
    #[test]
    fn incremental_rebuild_matches_from_scratch(
        spec_idx in 0usize..3,
        seed in 0u64..256,
        at in 0usize..64,
        edit in 0usize..5,
        budget in 2_000u64..30_000,
    ) {
        let app = spec_for(spec_idx).generate(seed);
        let lib = HwLibrary::standard();
        let pace = PaceConfig::standard();
        let area = Area::new(budget);
        let restr = Restrictions::from_asap(&app, &lib).unwrap();

        // Shape 4 tightens a restriction cap and keeps the program;
        // the other shapes edit blocks and re-derive the restrictions
        // exactly as a fresh frontend pass would.
        let (edited, edited_restr) = if edit == 4 {
            match restr.iter().find(|&(_, cap)| cap > 1) {
                Some((fu, cap)) => {
                    let mut tight = restr.clone();
                    tight.tighten(fu, cap - 1);
                    (app.clone(), tight)
                }
                // Nothing to tighten: fall back to a DFG tweak.
                None => {
                    let e = edited_app(&app, 0, at);
                    let r = Restrictions::from_asap(&e, &lib).unwrap();
                    (e, r)
                }
            }
        } else {
            let e = edited_app(&app, edit, at);
            let r = Restrictions::from_asap(&e, &lib).unwrap();
            (e, r)
        };

        for bound in [false, true] {
            for threads in [1usize, 2] {
                for warm in [false, true] {
                    let options = SearchOptions::new()
                        .limit(Some(512))
                        .threads(threads)
                        .bound(bound)
                        .warm(warm);

                    // The from-scratch reference on the edited inputs.
                    let scratch = flow::search(
                        &edited, &lib, area, &edited_restr, &pace, &options, None,
                        &StopSignal::never(),
                    ).unwrap();

                    // Incremental: prime the store with the original,
                    // then send the edit through the diff path.
                    let store = ArtifactStore::new(4);
                    flow::search(
                        &app, &lib, area, &restr, &pace, &options, Some(&store),
                        &StopSignal::never(),
                    ).unwrap();
                    let inc = flow::search(
                        &edited, &lib, area, &edited_restr, &pace, &options, Some(&store),
                        &StopSignal::never(),
                    ).unwrap();

                    // An edit is never a whole-entry hit, and the diff
                    // accounts every block exactly once.
                    prop_assert_eq!(inc.stats.artifact_misses, 1);
                    prop_assert_eq!(inc.stats.artifact_hits, 0);
                    if inc.stats.incremental_hits == 1 {
                        prop_assert_eq!(
                            inc.stats.blocks_reused + inc.stats.blocks_rederived,
                            edited.len() as u64
                        );
                    } else {
                        prop_assert_eq!(inc.stats.blocks_reused, 0);
                        prop_assert_eq!(inc.stats.blocks_rederived, 0);
                    }
                    assert_same_winner(&inc, &scratch);
                    if !bound {
                        // Without pruning there is no incumbent to
                        // seed: the runs must be equal in *every*
                        // compared field, effort included.
                        prop_assert_eq!(&inc, &scratch);
                    }
                }
            }
        }
    }

    /// A single-block program edit always engages the diff path (the
    /// siblings anchor the donor) and re-derives exactly one block.
    #[test]
    fn single_block_edit_reuses_every_sibling(
        spec_idx in 0usize..3,
        seed in 0u64..256,
        at in 0usize..64,
    ) {
        let app = spec_for(spec_idx).generate(seed);
        let lib = HwLibrary::standard();
        let pace = PaceConfig::standard();
        let area = Area::new(12_000);
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let edited = edited_app(&app, 0, at);
        let edited_restr = Restrictions::from_asap(&edited, &lib).unwrap();
        if edited_restr != restr {
            // The tweak raised an ASAP cap — not a pure content edit;
            // the main property still covers that shape.
            return;
        }

        let options = SearchOptions::new().limit(Some(512)).threads(1);
        let store = ArtifactStore::new(4);
        flow::search(
            &app, &lib, area, &restr, &pace, &options, Some(&store),
            &StopSignal::never(),
        ).unwrap();
        let inc = flow::search(
            &edited, &lib, area, &edited_restr, &pace, &options, Some(&store),
            &StopSignal::never(),
        ).unwrap();
        prop_assert_eq!(inc.stats.incremental_hits, 1);
        prop_assert_eq!(inc.stats.blocks_rederived, 1);
        prop_assert_eq!(inc.stats.blocks_reused, app.len() as u64 - 1);

        // And the repeat of the edited request is a plain hit.
        let again = flow::search(
            &edited, &lib, area, &edited_restr, &pace, &options, Some(&store),
            &StopSignal::never(),
        ).unwrap();
        prop_assert_eq!(again.stats.artifact_hits, 1);
        prop_assert_eq!(again.stats.incremental_hits, 0);
    }

    /// Any block edit flips exactly the edited block's key; siblings
    /// keep theirs through content edits, inserts and deletes alike.
    #[test]
    fn block_edits_flip_exactly_the_edited_key(
        spec_idx in 0usize..3,
        seed in 0u64..256,
        at in 0usize..64,
    ) {
        let app = spec_for(spec_idx).generate(seed);
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let n = app.len();
        let i = at % n;
        let keys: Vec<BlockKey> =
            app.as_slice().iter().map(|b| BlockKey::of(b, &lib, &restr)).collect();

        // A DFG tweak: only position `i` moves (same restrictions on
        // both sides isolates the content change).
        let tweaked = edited_app(&app, 0, at);
        let tweaked_keys: Vec<BlockKey> =
            tweaked.as_slice().iter().map(|b| BlockKey::of(b, &lib, &restr)).collect();
        for j in 0..n {
            if j == i {
                prop_assert_ne!(tweaked_keys[j], keys[j], "edited block {}", j);
            } else {
                prop_assert_eq!(tweaked_keys[j], keys[j], "sibling {}", j);
            }
        }

        // An insert shifts every following id and position; no
        // sibling key moves.
        let inserted = edited_app(&app, 1, at);
        let inserted_keys: Vec<BlockKey> =
            inserted.as_slice().iter().map(|b| BlockKey::of(b, &lib, &restr)).collect();
        prop_assert_eq!(inserted_keys.len(), n + 1);
        prop_assert_eq!(&inserted_keys[..=i], &keys[..=i]);
        prop_assert_eq!(&inserted_keys[i + 2..], &keys[i + 1..]);

        // A delete likewise.
        if n > 1 {
            let deleted = edited_app(&app, 2, at);
            let deleted_keys: Vec<BlockKey> =
                deleted.as_slice().iter().map(|b| BlockKey::of(b, &lib, &restr)).collect();
            let mut expect = keys.clone();
            expect.remove(i);
            prop_assert_eq!(deleted_keys, expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A carried schedule table equals a from-scratch one: every slot
    /// the donor had filled (a bounded search fills them all) reads the
    /// edited block set's true length, and after a bounded search over
    /// both the tables agree slot for slot.
    #[test]
    fn carried_schedule_table_equals_a_fresh_fill(
        spec_idx in 0usize..3,
        seed in 0u64..256,
        at in 0usize..64,
        edit in 0usize..4,
    ) {
        let app = spec_for(spec_idx).generate(seed);
        let lib = HwLibrary::standard();
        let pace = PaceConfig::standard();
        let area = Area::new(12_000);
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let edited = edited_app(&app, edit, at);
        let edited_restr = Restrictions::from_asap(&edited, &lib).unwrap();
        let options = SearchOptions::new().threads(1).limit(Some(64)).bound(true);

        let store = ArtifactStore::new(4);
        let never = StopSignal::never();
        flow::search(&app, &lib, area, &restr, &pace, &options, Some(&store), &never).unwrap();
        let (carried, _) = store
            .get_or_build_incremental(&edited, &lib, &edited_restr, &pace)
            .unwrap();
        let fresh = SearchArtifacts::prepare(&edited, &lib, &edited_restr, &pace).unwrap();
        search_best_with_stop(&edited, &lib, area, &pace, &options, &fresh, &[], &never).unwrap();

        let (got, want) = (carried.schedules(), fresh.schedules());
        for b in 0..edited.len() {
            let (g, w) = (got.lengths(b), want.lengths(b));
            prop_assert_eq!(g.len(), w.len(), "block {} layout", b);
            for (slot, (g, w)) in g.iter().zip(&w).enumerate() {
                if g.is_some() {
                    prop_assert_eq!(g, w, "block {} slot {} holds a stale length", b, slot);
                }
            }
        }
        search_best_with_stop(&edited, &lib, area, &pace, &options, &carried, &[], &never).unwrap();
        for b in 0..edited.len() {
            prop_assert_eq!(got.lengths(b), want.lengths(b), "block {}", b);
        }
    }
}
