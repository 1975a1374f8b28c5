//! A greedy baseline partitioner.
//!
//! PACE's dynamic program (reference [7]) is the paper's evaluation
//! vehicle; this module provides the obvious simpler alternative as a
//! baseline: sort blocks by gain density (cycles saved per controller
//! area) and move them while they fit, with no run-merging awareness
//! in the selection loop. Comparing the two shows what the dynamic
//! program buys — the greedy picker misses partitions where adjacent
//! blocks are only worthwhile *together* because their communication
//! cancels.

use crate::artifacts::SearchArtifacts;
use crate::metrics::BsbMetrics;
use crate::{CommCosts, PaceConfig, PaceError, Partition};
use lycos_core::RMap;
use lycos_hwlib::{Area, Cycles, HwLibrary};
use lycos_ir::BsbArray;

/// Greedily partitions `bsbs` for `allocation` within `total_area`.
///
/// Blocks are ranked by local gain density `(sw − hw) / controller
/// area` and moved in that order while the controller budget lasts.
/// Communication is charged afterwards on the resulting maximal runs,
/// exactly as [`crate::partition`] charges it, so the two results are
/// comparable.
///
/// # Errors
///
/// Same conditions as [`crate::partition`].
pub fn greedy_partition(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    allocation: &RMap,
    total_area: Area,
    config: &PaceConfig,
) -> Result<Partition, PaceError> {
    let artifacts = SearchArtifacts::for_partition(bsbs, lib, config)?;
    let datapath_area = allocation.area(lib);
    let ctl_budget = total_area
        .checked_sub(datapath_area)
        .ok_or(PaceError::DatapathTooLarge {
            datapath: datapath_area,
            total: total_area,
        })?;
    let metrics = artifacts.metrics(bsbs, lib, allocation, config)?;
    Ok(greedy_from_metrics(
        &metrics,
        artifacts.comm(),
        datapath_area,
        ctl_budget,
    ))
}

/// The greedy selection over precomputed per-block metrics, charging
/// each resulting run its price from `comm`.
fn greedy_from_metrics(
    metrics: &[BsbMetrics],
    comm: &CommCosts,
    datapath_area: Area,
    ctl_budget: Area,
) -> Partition {
    let l = metrics.len();

    // Rank hardware-feasible blocks by gain density.
    let mut order: Vec<usize> = (0..l).filter(|&i| metrics[i].hw_feasible()).collect();
    order.sort_by(|&a, &b| {
        let density = |i: usize| {
            let gain = metrics[i].local_gain().count() as f64;
            let area = metrics[i].controller_area.expect("feasible").gates().max(1) as f64;
            gain / area
        };
        density(b)
            .partial_cmp(&density(a))
            .expect("densities are finite")
            .then_with(|| a.cmp(&b))
    });

    let mut in_hw = vec![false; l];
    let mut spent = Area::ZERO;
    for i in order {
        let cost = metrics[i].controller_area.expect("feasible");
        if metrics[i].local_gain() == Cycles::ZERO {
            continue; // no point paying area for nothing
        }
        if spent + cost <= ctl_budget {
            spent += cost;
            in_hw[i] = true;
        }
    }

    // Derive maximal runs and charge communication like the DP does.
    let mut runs = Vec::new();
    let mut i = 0;
    while i < l {
        if in_hw[i] {
            let start = i;
            while i < l && in_hw[i] {
                i += 1;
            }
            runs.push(start..i);
        } else {
            i += 1;
        }
    }
    let mut total = Cycles::ZERO;
    let mut comm_time = Cycles::ZERO;
    let mut controller_area = Area::ZERO;
    for (i, m) in metrics.iter().enumerate() {
        if in_hw[i] {
            total += m.hw_time.expect("feasible");
            controller_area += m.controller_area.expect("feasible");
        } else {
            total += m.sw_time;
        }
    }
    for run in &runs {
        let c = Cycles::new(comm.cost(run.start, run.end - 1));
        total += c;
        comm_time += c;
    }
    let all_sw_time: Cycles = metrics.iter().map(|m| m.sw_time).sum();

    Partition {
        in_hw,
        total_time: total,
        all_sw_time,
        comm_time,
        controller_area,
        datapath_area,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition;
    use lycos_ir::{Bsb, BsbId, BsbOrigin, Dfg, OpKind};
    use std::collections::BTreeSet;

    fn bsb(i: u32, n: usize, profile: u64, reads: &[&str], writes: &[&str]) -> Bsb {
        let mut dfg = Dfg::new();
        for _ in 0..n {
            dfg.add_op(OpKind::Add);
        }
        Bsb {
            id: BsbId(i),
            name: format!("b{i}"),
            dfg,
            reads: reads.iter().map(|s| s.to_string()).collect::<BTreeSet<_>>(),
            writes: writes
                .iter()
                .map(|s| s.to_string())
                .collect::<BTreeSet<_>>(),
            profile,
            origin: BsbOrigin::Body,
        }
    }

    fn alloc(lib: &HwLibrary, adders: u32) -> RMap {
        [(lib.fu_for(OpKind::Add).unwrap(), adders)]
            .into_iter()
            .collect()
    }

    #[test]
    fn greedy_moves_the_densest_blocks() {
        let lib = HwLibrary::standard();
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                bsb(0, 4, 1_000, &[], &[]), // hot: huge gain
                bsb(1, 4, 1, &[], &[]),     // cold
            ],
        );
        let a = alloc(&lib, 4);
        let budget = Area::new(a.area(&lib).gates() + 100);
        let p = greedy_partition(&bsbs, &lib, &a, budget, &PaceConfig::standard()).unwrap();
        assert!(p.in_hw[0], "hot block wins the single controller slot");
        assert!(!p.in_hw[1]);
    }

    #[test]
    fn dp_never_loses_to_greedy() {
        // The headline property: on a variety of shapes, PACE's DP is
        // at least as good as the greedy baseline.
        let lib = HwLibrary::standard();
        let cfg = PaceConfig::standard();
        let shapes: Vec<BsbArray> = vec![
            BsbArray::from_bsbs(
                "independent",
                (0..6)
                    .map(|i| bsb(i, 3, 10 * (i as u64 + 1), &[], &[]))
                    .collect(),
            ),
            BsbArray::from_bsbs(
                "chained",
                vec![
                    bsb(0, 3, 50, &["a"], &["x"]),
                    bsb(1, 3, 50, &["x"], &["y"]),
                    bsb(2, 3, 50, &["y"], &["z"]),
                    bsb(3, 1, 50, &["z"], &["w"]),
                ],
            ),
        ];
        for bsbs in shapes {
            let a = alloc(&lib, 3);
            for extra in [50u64, 200, 1_000, 5_000] {
                let budget = Area::new(a.area(&lib).gates() + extra);
                let dp = partition(&bsbs, &lib, &a, budget, &cfg).unwrap();
                let greedy = greedy_partition(&bsbs, &lib, &a, budget, &cfg).unwrap();
                assert!(
                    dp.total_time <= greedy.total_time,
                    "{}: DP {} > greedy {} at +{extra}",
                    bsbs.app_name(),
                    dp.total_time,
                    greedy.total_time
                );
            }
        }
    }

    #[test]
    fn greedy_can_lose_on_communication_coupling() {
        // Two adjacent blocks pass a hot value between them. Separately
        // each is barely worth moving (the bus eats the gain); together
        // they are clearly worth it. The greedy density ranking sees
        // them separately; the DP sees the run.
        let lib = HwLibrary::standard();
        let cfg = PaceConfig::standard();
        let bsbs = BsbArray::from_bsbs(
            "coupled",
            vec![
                bsb(0, 2, 400, &["in"], &["mid"]),
                bsb(1, 2, 400, &["mid"], &["out"]),
                bsb(2, 1, 400, &["out"], &[]),
            ],
        );
        let a = alloc(&lib, 2);
        let budget = Area::new(a.area(&lib).gates() + 2_000);
        let dp = partition(&bsbs, &lib, &a, budget, &cfg).unwrap();
        let greedy = greedy_partition(&bsbs, &lib, &a, budget, &cfg).unwrap();
        assert!(dp.total_time <= greedy.total_time);
    }

    #[test]
    fn greedy_respects_the_budget_and_reports_consistently() {
        let lib = HwLibrary::standard();
        let bsbs = BsbArray::from_bsbs(
            "t",
            (0..5)
                .map(|i| bsb(i, 2 + i as usize, 100, &[], &[]))
                .collect(),
        );
        let a = alloc(&lib, 3);
        let budget = Area::new(a.area(&lib).gates() + 300);
        let p = greedy_partition(&bsbs, &lib, &a, budget, &PaceConfig::standard()).unwrap();
        assert!(p.datapath_area + p.controller_area <= budget);
        let run_blocks: usize = p.runs.iter().map(|r| r.len()).sum();
        assert_eq!(run_blocks, p.hw_count());
        assert!(p.total_time <= p.all_sw_time || p.hw_count() == 0);
    }

    #[test]
    fn infeasible_datapath_errors_like_the_dp() {
        let lib = HwLibrary::standard();
        let bsbs = BsbArray::from_bsbs("t", vec![bsb(0, 2, 10, &[], &[])]);
        let a = alloc(&lib, 4);
        let err = greedy_partition(&bsbs, &lib, &a, Area::new(10), &PaceConfig::standard());
        assert!(matches!(err, Err(PaceError::DatapathTooLarge { .. })));
    }
}
