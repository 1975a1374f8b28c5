//! Property tests for the allocation algorithm's components.

use lycos_core::{
    allocate, allocate_with_furo, AllocConfig, FuroTable, RMap, Restrictions, StateEstimate,
};
use lycos_hwlib::{Area, EcaModel, FuId, HwLibrary};
use lycos_ir::{Bsb, BsbArray, BsbId, BsbOrigin, Dfg, OpKind};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_app(max_blocks: usize, max_ops: usize) -> impl Strategy<Value = BsbArray> {
    let kinds = prop::sample::select(vec![
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Const,
        OpKind::Lt,
    ]);
    prop::collection::vec(
        (
            prop::collection::vec(kinds, 1..=max_ops),
            prop::collection::vec(any::<(u8, u8)>(), 0..=max_ops),
            1u64..200,
        ),
        1..=max_blocks,
    )
    .prop_map(|blocks| {
        BsbArray::from_bsbs(
            "prop",
            blocks
                .into_iter()
                .enumerate()
                .map(|(i, (ops, edges, profile))| {
                    let mut dfg = Dfg::new();
                    let ids: Vec<_> = ops.into_iter().map(|k| dfg.add_op(k)).collect();
                    for (a, b) in edges {
                        let (a, b) = (a as usize % ids.len(), b as usize % ids.len());
                        if a < b {
                            dfg.add_edge(ids[a], ids[b]).unwrap();
                        }
                    }
                    Bsb {
                        id: BsbId(i as u32),
                        name: format!("b{i}"),
                        dfg,
                        reads: BTreeSet::new(),
                        writes: BTreeSet::new(),
                        profile,
                        origin: BsbOrigin::Body,
                    }
                })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FURO is non-negative, zero for singleton kinds, and scales
    /// linearly with the profile count.
    #[test]
    fn furo_properties(app in arb_app(4, 8)) {
        let lib = HwLibrary::standard();
        let table = FuroTable::compute(&app, &lib).unwrap();
        for (k, bsb) in app.iter().enumerate() {
            for kind in bsb.dfg.kinds_present() {
                let f = table.furo(k, kind);
                prop_assert!(f >= 0.0);
                prop_assert!(f.is_finite());
                if bsb.dfg.count_of(kind) < 2 {
                    prop_assert_eq!(f, 0.0);
                }
            }
        }

        // Linearity in the profile count: double every profile.
        let doubled = BsbArray::from_bsbs(
            "x2",
            app.iter()
                .map(|b| {
                    let mut c = b.clone();
                    c.profile *= 2;
                    c
                })
                .collect(),
        );
        let table2 = FuroTable::compute(&doubled, &lib).unwrap();
        for (k, bsb) in app.iter().enumerate() {
            for kind in bsb.dfg.kinds_present() {
                let ratio_ok = (table2.furo(k, kind) - 2.0 * table.furo(k, kind)).abs() < 1e-9;
                prop_assert!(ratio_ok, "profile linearity violated");
            }
        }
    }

    /// Restrictions from ASAP never exceed static op counts and are
    /// positive for every kind the app uses.
    #[test]
    fn restriction_bounds(app in arb_app(4, 8)) {
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let mut static_max: std::collections::BTreeMap<FuId, u32> = Default::default();
        for bsb in &app {
            let mut per_block: std::collections::BTreeMap<FuId, u32> = Default::default();
            for op in bsb.dfg.ops() {
                *per_block.entry(lib.fu_for(op.kind).unwrap()).or_insert(0) += 1;
            }
            for (fu, n) in per_block {
                let e = static_max.entry(fu).or_insert(0);
                *e = (*e).max(n);
            }
        }
        for (fu, cap) in restr.iter() {
            prop_assert!(cap >= 1);
            prop_assert!(cap <= static_max[&fu],
                "cap {} exceeds static bound {}", cap, static_max[&fu]);
        }
    }

    /// Tightening a restriction never enlarges the allocation of that
    /// kind.
    #[test]
    fn tightening_shrinks_allocation(app in arb_app(4, 8), budget in 1_000u64..20_000) {
        let lib = HwLibrary::standard();
        let eca = EcaModel::standard();
        let area = Area::new(budget);
        let restr = Restrictions::from_asap(&app, &lib).unwrap();
        let base = allocate(&app, &lib, &eca, area, &restr, &AllocConfig::default())
            .unwrap();
        // Tighten the most-allocated kind to one.
        if let Some((fu, _)) = base.allocation.iter().max_by_key(|&(_, c)| c) {
            let mut tighter = restr.clone();
            tighter.tighten(fu, 1);
            let out = allocate(&app, &lib, &eca, area, &tighter, &AllocConfig::default())
                .unwrap();
            prop_assert!(out.allocation.count(fu) <= 1);
        }
    }

    /// One FURO table, built once, serves Algorithm 1 at any budget and
    /// under any tightened restriction set exactly as a fresh
    /// `allocate` (which builds its own table) does — the contract a
    /// resident stage relies on when it reuses its table across
    /// requests.
    #[test]
    fn a_reused_furo_table_matches_fresh_allocations(
        app in arb_app(4, 8),
        runs in prop::collection::vec(
            (200u64..20_000, any::<(u8, u8)>(), 0u8..3, any::<bool>()),
            1..6,
        ),
    ) {
        let lib = HwLibrary::standard();
        let eca = EcaModel::standard();
        let furo = FuroTable::compute(&app, &lib).unwrap();
        let asap = Restrictions::from_asap(&app, &lib).unwrap();
        let caps: Vec<(FuId, u32)> = asap.iter().collect();
        for (budget, (pick, cap), estimate, record_trace) in runs {
            let mut restr = asap.clone();
            let (fu, asap_cap) = caps[pick as usize % caps.len()];
            restr.tighten(fu, u32::from(cap) % (asap_cap + 1));
            let config = AllocConfig {
                state_estimate: match estimate {
                    0 => StateEstimate::Asap,
                    1 => StateEstimate::Serial,
                    _ => StateEstimate::Scaled(1.5),
                },
                record_trace,
            };
            let area = Area::new(budget);
            let reused =
                allocate_with_furo(&app, &furo, &lib, &eca, area, &restr, &config).unwrap();
            let fresh = allocate(&app, &lib, &eca, area, &restr, &config).unwrap();
            prop_assert_eq!(&reused.allocation, &fresh.allocation);
            prop_assert_eq!(&reused.in_hw, &fresh.in_hw);
            prop_assert_eq!(reused.remaining, fresh.remaining);
            prop_assert_eq!(reused.controller_area, fresh.controller_area);
            prop_assert_eq!(reused.passes, fresh.passes);
            prop_assert_eq!(reused.steps, fresh.steps);
            prop_assert_eq!(&reused.trace, &fresh.trace);
        }
    }

    /// Required resources: one unit per kind class, covering exactly
    /// the kinds present.
    #[test]
    fn required_resources_cover_kinds(app in arb_app(3, 8)) {
        let lib = HwLibrary::standard();
        for bsb in &app {
            let req = lycos_core::required_resources(bsb, &lib).unwrap();
            for kind in bsb.dfg.kinds_present() {
                prop_assert!(req.count(lib.fu_for(kind).unwrap()) == 1);
            }
            prop_assert!(req.total_units() as usize <= bsb.dfg.kinds_present().len());
        }
    }

    /// RMap difference then union restores a superset (Definition 1).
    #[test]
    fn rmap_difference_union_roundtrip(
        a in prop::collection::btree_map(0u32..6, 1u32..6, 0..5),
        b in prop::collection::btree_map(0u32..6, 1u32..6, 0..5),
    ) {
        let a: RMap = a.into_iter().map(|(k, v)| (FuId(k), v)).collect();
        let b: RMap = b.into_iter().map(|(k, v)| (FuId(k), v)).collect();
        prop_assert!(b.union(&a.difference(&b)).covers(&a));
        // Difference is monotone: (a ∪ c) \ b ⊇ a \ b.
        let c: RMap = [(FuId(0), 1)].into_iter().collect();
        prop_assert!(a.union(&c).difference(&b).covers(&a.difference(&b)));
    }

    /// The Definition 1 algebra: `∪` is associative and commutative,
    /// `A \ A = ∅`, and `|A ∪ B| ≤ |A| + |B|` (with multiset union the
    /// bound is tight).
    #[test]
    fn rmap_union_is_an_abelian_monoid(
        a in prop::collection::btree_map(0u32..8, 1u32..6, 0..6),
        b in prop::collection::btree_map(0u32..8, 1u32..6, 0..6),
        c in prop::collection::btree_map(0u32..8, 1u32..6, 0..6),
    ) {
        let a: RMap = a.into_iter().map(|(k, v)| (FuId(k), v)).collect();
        let b: RMap = b.into_iter().map(|(k, v)| (FuId(k), v)).collect();
        let c: RMap = c.into_iter().map(|(k, v)| (FuId(k), v)).collect();

        // Associativity and commutativity.
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.union(&b), b.union(&a));
        // Identity.
        prop_assert_eq!(a.union(&RMap::new()), a.clone());

        // A \ A = ∅.
        prop_assert!(a.difference(&a).is_empty());
        prop_assert_eq!(a.difference(&a), RMap::new());

        // |A ∪ B| ≤ |A| + |B| (tight for multiset union), and counts
        // add exactly per kind.
        let u = a.union(&b);
        prop_assert!(u.total_units() <= a.total_units() + b.total_units());
        for (fu, count) in u.iter() {
            prop_assert_eq!(count, a.count(fu) + b.count(fu));
        }
    }
}
