//! Properties of the controller-budget relaxation
//! ([`BudgetRelaxation`]) the bounded search checks before each
//! candidate's DP.
//!
//! For synthetic and bundled applications, random allocations and
//! random total budgets:
//!
//! * **Admissibility** — at every controller level `a` the relaxation's
//!   bound at `a · quantum` gates is ≤ the DP's time under a controller
//!   budget of `a` quanta, with the artifacts' communication floors;
//! * the one-pass level sweep agrees with the direct lookup;
//! * at unbounded capacity the relaxation equals the tables' leaf
//!   bound ([`SearchBounds::prefix_bound`] at level 0), so it is never
//!   weaker than the check it follows.

use lycos_core::{RMap, Restrictions};
use lycos_explore::SyntheticSpec;
use lycos_hwlib::{Area, FuId, HwLibrary};
use lycos_ir::BsbArray;
use lycos_pace::{
    compute_metrics, partition_from_metrics, BudgetRelaxation, DpScratch, PaceConfig,
    SearchArtifacts, StopSignal,
};
use proptest::prelude::*;

/// Picks one allocation of the space from raw digits (one per
/// dimension, reduced modulo the dimension's radix).
fn allocation(dims: &[(FuId, u32)], digits: &[u32]) -> (Vec<u32>, RMap) {
    let counts: Vec<u32> = dims
        .iter()
        .zip(digits.iter().cycle())
        .map(|(&(_, cap), &d)| d % (cap + 1))
        .collect();
    let alloc = dims
        .iter()
        .zip(&counts)
        .map(|(&(fu, _), &c)| (fu, c))
        .collect();
    (counts, alloc)
}

/// Checks every property for one allocation whose controllers may
/// spend up to `extra_quanta` quanta (plus a sub-quantum remainder)
/// beyond its data path. Plain asserts: a panic fails the case.
fn check_allocation(bsbs: &BsbArray, digits: &[u32], extra_quanta: u64, remainder: u64) {
    let lib = HwLibrary::standard();
    let config = PaceConfig::standard();
    let q = config.quantum;
    let restr = Restrictions::from_asap(bsbs, &lib).unwrap();
    let artifacts = SearchArtifacts::prepare(bsbs, &lib, &restr, &config).unwrap();
    let bounds = artifacts
        .bounds(bsbs, &lib, &StopSignal::never())
        .unwrap()
        .expect("a never-signal builds");
    let (counts, alloc) = allocation(artifacts.dims(), digits);
    let datapath = alloc.area(&lib);
    let metrics = compute_metrics(bsbs, &lib, &alloc, &config).unwrap();
    let levels = extra_quanta as usize;
    // The DP's time at level `a` is its total under a controller
    // budget of `a` quanta.
    let comm = artifacts.comm();
    let mut scratch = DpScratch::new();
    let row: Vec<u64> = (0..=extra_quanta)
        .map(|a| {
            let ctl = Area::new(a * q + if a == extra_quanta { remainder } else { 0 });
            partition_from_metrics(&metrics, comm, &mut scratch, datapath, ctl, &config)
                .total_time
                .count()
        })
        .collect();
    let mut relax = BudgetRelaxation::new();
    relax.rebuild(&metrics, bounds.comm_floors());
    for (a, lb) in relax.level_bounds(q, levels).enumerate() {
        assert_eq!(lb, relax.lower_bound(a as u64 * q), "level {}", a);
        assert!(
            lb <= row[a],
            "level {} bound {} beats the DP time {} at {:?}",
            a,
            lb,
            row[a],
            counts
        );
    }
    assert_eq!(
        relax.lower_bound(u64::MAX),
        bounds.prefix_bound(&counts, 0),
        "unbounded capacity is the leaf bound at {:?}",
        counts
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Synthetic applications, including the communication-dominated
    /// and plateau-heavy hardness profiles.
    #[test]
    fn budget_relaxation_is_admissible_on_synthetic_apps(
        seed in 0u64..512,
        which in 0usize..3,
        blocks in 1usize..9,
        digits in prop::collection::vec(0u32..64, 6),
        extra_quanta in 0u64..160,
        remainder in 0u64..16,
    ) {
        let base = match which {
            0 => SyntheticSpec::medium(),
            1 => SyntheticSpec::comm_dominated(),
            _ => SyntheticSpec::plateau_heavy(),
        };
        let app = SyntheticSpec { blocks, ..base }.generate(seed);
        check_allocation(&app, &digits, extra_quanta, remainder);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The four bundled applications.
    #[test]
    fn budget_relaxation_is_admissible_on_bundled_apps(
        which in 0usize..4,
        digits in prop::collection::vec(0u32..64, 8),
        extra_quanta in 0u64..240,
        remainder in 0u64..16,
    ) {
        let app = &lycos_apps::all()[which];
        check_allocation(&app.bsbs(), &digits, extra_quanta, remainder);
    }
}
