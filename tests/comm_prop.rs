//! The one-pass run-traffic table against the per-run reference: every
//! cell of `CommCosts::priced` must equal `run_traffic(..).cost(comm)`,
//! on random block arrays and on every run of the bundled apps.

use lycos::hwlib::CommModel;
use lycos::ir::{Bsb, BsbArray, BsbId, BsbOrigin, Dfg};
use lycos::pace::{run_traffic, CommCosts};
use proptest::prelude::*;

/// Checks that the table covers every block of `bsbs` and prices every
/// run exactly as `run_traffic` does.
fn assert_priced_exactly(bsbs: &BsbArray, comm: &CommModel) {
    let table = CommCosts::priced(bsbs, comm);
    assert_eq!(table.blocks(), bsbs.len(), "{}", bsbs.app_name());
    for j in 0..bsbs.len() {
        for k in j..bsbs.len() {
            assert_eq!(
                table.cost(j, k),
                run_traffic(bsbs, j, k).cost(comm).count(),
                "run [{j}, {k}] of {}",
                bsbs.app_name()
            );
        }
    }
}

/// Random applications over a pool of four variables, so blocks share
/// values, read and write the same variable, kill values by rewriting
/// them and read program inputs nobody wrote; profiles include 0 and 1.
fn arb_io_app(max_blocks: usize) -> impl Strategy<Value = BsbArray> {
    let vars =
        || prop::collection::btree_set(prop::sample::select(vec!["a", "b", "c", "d"]), 0..=3);
    let profile = prop::sample::select(vec![0u64, 1, 2, 7, 40, 300]);
    prop::collection::vec((vars(), vars(), profile), 1..=max_blocks).prop_map(|blocks| {
        BsbArray::from_bsbs(
            "prop",
            blocks
                .into_iter()
                .enumerate()
                .map(|(i, (reads, writes, profile))| Bsb {
                    id: BsbId(i as u32),
                    name: format!("b{i}"),
                    dfg: Dfg::new(),
                    reads: reads.into_iter().map(str::to_owned).collect(),
                    writes: writes.into_iter().map(str::to_owned).collect(),
                    profile,
                    origin: BsbOrigin::Body,
                })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_table_matches_run_traffic(
        app in arb_io_app(10),
        word in 0u64..6,
        sync in 0u64..20,
    ) {
        assert_priced_exactly(&app, &CommModel { cycles_per_word: word, sync_overhead: sync });
    }
}

#[test]
fn one_pass_table_matches_run_traffic_on_the_bundled_apps() {
    for app in lycos::apps::all() {
        assert_priced_exactly(&app.bsbs(), &CommModel::standard());
    }
}
