//! The §5.1 ablation: what the optimistic controller estimate costs.
//!
//! The allocation algorithm estimates controller states from the ASAP
//! schedule, which is never longer than the real (resource-constrained)
//! schedule. §5.1 predicts the consequence: "the algorithm will
//! allocate a few too many resources for the hardware data-path than
//! actually affordable", fixable by *reducing* units, never by adding.
//!
//! [`optimism_report`] reruns Algorithm 1 under three state estimates
//! (ASAP as published, a scaled middle ground, and the fully serial
//! worst case) and evaluates each allocation through PACE.

use crate::flow::{allocate_and_partition, Fetched};
use lycos_core::{AllocConfig, RMap, Restrictions, StateEstimate};
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::BsbArray;
use lycos_pace::{PaceConfig, PaceError};

/// Results of one state-estimate variant.
#[derive(Clone, Debug)]
pub struct OptimismPoint {
    /// Which estimate produced this point.
    pub estimate: StateEstimate,
    /// Total units allocated.
    pub units: u64,
    /// Data-path area of the allocation.
    pub datapath: Area,
    /// Speed-up after PACE, percent.
    pub speedup: f64,
}

/// Runs the ablation for one application.
///
/// # Errors
///
/// Propagates [`PaceError`] from allocation or partitioning.
pub fn optimism_report(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    restrictions: &Restrictions,
    pace: &PaceConfig,
) -> Result<Vec<OptimismPoint>, PaceError> {
    let estimates = [
        StateEstimate::Asap,
        StateEstimate::Scaled(1.5),
        StateEstimate::Serial,
    ];
    let mut out = Vec::with_capacity(estimates.len());
    for estimate in estimates {
        let config = AllocConfig {
            state_estimate: estimate,
            record_trace: false,
        };
        let flow = allocate_and_partition(bsbs, lib, total_area, restrictions, pace, &config)?;
        out.push(OptimismPoint {
            estimate,
            units: flow.allocation().total_units(),
            datapath: flow.allocation().area(lib),
            speedup: flow.speedup_pct(),
        });
    }
    Ok(out)
}

/// Checks the §5.1 claim on an allocation: walking *down* from the
/// automatic allocation (removing one unit at a time, greedily keeping
/// the best) must reach a speed-up at least as good as the starting
/// point. Returns the best allocation found on the downward walk.
///
/// Every candidate is partitioned over one artifact set, prepared once
/// under the application's ASAP caps, with one traffic memo across the
/// walk.
///
/// # Errors
///
/// Propagates [`PaceError`] from partition evaluation.
pub fn reduce_only_walk(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    start: &RMap,
    total_area: Area,
    pace: &PaceConfig,
) -> Result<(RMap, f64), PaceError> {
    let mut eval = Fetched::new(bsbs, lib, &Restrictions::from_asap(bsbs, lib)?, pace, None)?;
    let mut speedup = |allocation: &RMap| -> Result<f64, PaceError> {
        Ok(eval
            .partition(bsbs, lib, allocation, total_area, pace)?
            .speedup_pct())
    };
    let mut current = start.clone();
    let mut best_su = speedup(&current)?;
    loop {
        let mut improved = false;
        let kinds: Vec<_> = current.iter().map(|(fu, _)| fu).collect();
        for fu in kinds {
            let mut candidate = current.clone();
            candidate.decrement(fu);
            let su = speedup(&candidate)?;
            if su > best_su {
                best_su = su;
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return Ok((current, best_su));
        }
    }
}

/// Renders the ablation as an aligned text table.
pub fn format_optimism(points: &[OptimismPoint]) -> String {
    let mut out = String::new();
    out.push_str("estimate        units   datapath       SU\n");
    out.push_str("------------    -----   ----------  -------\n");
    for p in points {
        let name = match p.estimate {
            StateEstimate::Asap => "ASAP (paper)".to_owned(),
            StateEstimate::Serial => "serial".to_owned(),
            StateEstimate::Scaled(f) => format!("ASAP × {f:.1}"),
        };
        out.push_str(&format!(
            "{:<12}    {:>5}   {:>10}  {:>6.0}%\n",
            name,
            p.units,
            p.datapath.to_string(),
            p.speedup,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lycos_ir::{Bsb, BsbId, BsbOrigin, Dfg, OpKind};
    use std::collections::BTreeSet;

    fn app() -> BsbArray {
        let mk = |i: u32, kind: OpKind, n: usize, profile: u64| {
            let mut dfg = Dfg::new();
            for _ in 0..n {
                dfg.add_op(kind);
            }
            Bsb {
                id: BsbId(i),
                name: format!("b{i}"),
                dfg,
                reads: BTreeSet::new(),
                writes: BTreeSet::new(),
                profile,
                origin: BsbOrigin::Body,
            }
        };
        BsbArray::from_bsbs(
            "t",
            vec![
                mk(0, OpKind::Const, 8, 500),
                mk(1, OpKind::Add, 4, 400),
                mk(2, OpKind::Mul, 2, 300),
            ],
        )
    }

    #[test]
    fn serial_estimate_never_allocates_more_units() {
        let bsbs = app();
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let pts = optimism_report(
            &bsbs,
            &lib,
            Area::new(3_000),
            &restr,
            &PaceConfig::standard(),
        )
        .unwrap();
        assert_eq!(pts.len(), 3);
        let asap = pts
            .iter()
            .find(|p| matches!(p.estimate, StateEstimate::Asap))
            .unwrap();
        let serial = pts
            .iter()
            .find(|p| matches!(p.estimate, StateEstimate::Serial))
            .unwrap();
        assert!(
            serial.units <= asap.units,
            "pessimistic controllers leave less room for units: {} vs {}",
            serial.units,
            asap.units
        );
    }

    #[test]
    fn reduce_only_walk_never_gets_worse() {
        let bsbs = app();
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let pace = PaceConfig::standard();
        let area = Area::new(3_000);
        let flow = allocate_and_partition(
            &bsbs,
            &lib,
            area,
            &restr,
            &pace,
            &lycos_core::AllocConfig::default(),
        )
        .unwrap();
        let (_, walked_su) = reduce_only_walk(&bsbs, &lib, flow.allocation(), area, &pace).unwrap();
        assert!(walked_su >= flow.speedup_pct());
    }

    #[test]
    fn reduce_only_walk_matches_a_walk_through_compat_partition() {
        // The same greedy walk, each candidate partitioned from
        // scratch: the artifact-backed walk must take the same steps.
        fn reference(
            bsbs: &BsbArray,
            lib: &HwLibrary,
            start: &RMap,
            area: Area,
            pace: &PaceConfig,
        ) -> (RMap, f64) {
            let su = |a: &RMap| {
                lycos_pace::partition(bsbs, lib, a, area, pace)
                    .unwrap()
                    .speedup_pct()
            };
            let mut current = start.clone();
            let mut best_su = su(&current);
            'walk: loop {
                let kinds: Vec<_> = current.iter().map(|(fu, _)| fu).collect();
                for fu in kinds {
                    let mut candidate = current.clone();
                    candidate.decrement(fu);
                    let s = su(&candidate);
                    if s > best_su {
                        best_su = s;
                        current = candidate;
                        continue 'walk;
                    }
                }
                return (current, best_su);
            }
        }
        let lib = HwLibrary::standard();
        let pace = PaceConfig::standard();
        for app in [lycos_apps::man(), lycos_apps::eigen()] {
            let bsbs = app.bsbs();
            let area = Area::new(app.area_budget);
            let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
            let flow =
                allocate_and_partition(&bsbs, &lib, area, &restr, &pace, &AllocConfig::default())
                    .unwrap();
            let (walked, walked_su) =
                reduce_only_walk(&bsbs, &lib, flow.allocation(), area, &pace).unwrap();
            let (want, want_su) = reference(&bsbs, &lib, flow.allocation(), area, &pace);
            assert_eq!(walked, want, "{}", app.name);
            assert_eq!(walked_su.to_bits(), want_su.to_bits(), "{}", app.name);
        }
    }

    #[test]
    fn format_lists_all_estimates() {
        let pts = vec![
            OptimismPoint {
                estimate: StateEstimate::Asap,
                units: 5,
                datapath: Area::new(1_000),
                speedup: 900.0,
            },
            OptimismPoint {
                estimate: StateEstimate::Serial,
                units: 3,
                datapath: Area::new(700),
                speedup: 800.0,
            },
        ];
        let text = format_optimism(&pts);
        assert!(text.contains("ASAP (paper)"));
        assert!(text.contains("serial"));
    }
}
