//! Property: the reusable DP workspace and the reusable artifacts are
//! invisible.
//!
//! For any sequence of synthetic applications and any allocations
//! drawn within (and slightly beyond) their ASAP restriction caps, a
//! [`DpScratch`] threaded through every evaluation — across *different*
//! applications, budgets and level counts, exactly as a search worker
//! reuses it — and one [`SearchArtifacts::for_partition`] set per
//! application, shared by every allocation and budget, must produce
//! partitions identical to a fresh [`partition`] call.

use lycos_core::{RMap, Restrictions};
use lycos_explore::SyntheticSpec;
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::OpKind;
use lycos_pace::{partition, partition_with_artifacts, DpScratch, PaceConfig, SearchArtifacts};
use proptest::prelude::*;

fn spec(blocks: usize, max_ops: usize) -> SyntheticSpec {
    SyntheticSpec {
        blocks,
        ops_per_block: (1, max_ops),
        edge_density: 0.2,
        max_profile: 2_000,
        kinds: vec![
            OpKind::Add,
            OpKind::Sub,
            OpKind::Mul,
            OpKind::Const,
            OpKind::Lt,
        ],
        read_fan: (0, 2),
        barrier_every: 0,
    }
}

/// Allocations to probe: scaled variants of the restriction caps, so
/// the sequence crosses feasibility boundaries block by block.
fn probe_allocations(restr: &Restrictions, picks: &[u8]) -> Vec<RMap> {
    let dims: Vec<_> = restr.iter().collect();
    let mut out = vec![RMap::new()];
    for &pick in picks {
        let alloc: RMap = dims
            .iter()
            .enumerate()
            .map(|(i, &(fu, cap))| {
                let c = (pick as u32 + i as u32 * 7) % (cap + 2);
                (fu, c)
            })
            .collect();
        out.push(alloc);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One scratch across a random sequence of apps/budgets, and one
    /// artifact set per app, equal a fresh partition per call.
    #[test]
    fn reused_scratch_matches_fresh_partitions(
        seed in 0u64..512,
        blocks in 1usize..9,
        max_ops in 1usize..10,
        picks in prop::collection::vec(any::<u8>(), 1..8),
        // Up to ~9.4k controller levels: wide rows for some draws,
        // tight enough that others prune hard.
        extras in prop::collection::vec(0u64..150_000, 2..5),
    ) {
        let lib = HwLibrary::standard();
        let config = PaceConfig::standard();
        let mut scratch = DpScratch::new();

        // Two different applications share the same workspace, in
        // alternation — the reuse pattern a long-lived search worker
        // (or the allocation service) exhibits.
        let apps = [
            spec(blocks, max_ops).generate(seed),
            spec(blocks.max(2) - 1, max_ops).generate(seed ^ 0x9E37_79B9),
        ];
        for app in &apps {
            let restr = Restrictions::from_asap(app, &lib).unwrap();
            let artifacts = SearchArtifacts::for_partition(app, &lib, &config).unwrap();
            for alloc in probe_allocations(&restr, &picks) {
                let datapath = alloc.area(&lib).gates();
                for &extra in &extras {
                    let total = Area::new(datapath + extra);
                    let fresh = partition(app, &lib, &alloc, total, &config).unwrap();
                    let reused = partition_with_artifacts(
                        app,
                        &lib,
                        &alloc,
                        total,
                        &config,
                        &mut scratch,
                        &artifacts,
                    )
                    .unwrap();
                    prop_assert_eq!(&reused, &fresh, "reuse diverged (+{} GE)", extra);
                }
            }
        }
    }
}
