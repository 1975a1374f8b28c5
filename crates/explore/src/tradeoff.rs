//! The Figure 3 trade-off: small data path / many controllers vs
//! large data path / few controllers.
//!
//! Figure 3 of the paper is a conceptual drawing; this module turns it
//! into data. All allocations in the restriction space are bucketed by
//! their data-path share of the total hardware area; each bucket
//! reports the best achievable speed-up and how many blocks PACE moves
//! for that winner. Small data paths leave room for many controllers
//! ("many small speed-ups"); large data paths speed blocks up more but
//! move fewer ("few large speed-ups"). The sweep makes the crossover
//! visible.

use crate::flow::Fetched;
use lycos_core::RMap;
use lycos_core::Restrictions;
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::BsbArray;
use lycos_pace::{search_space, PaceConfig, PaceError};

/// One bucket of the Figure 3 sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct TradeoffPoint {
    /// Lower edge of the bucket's data-path fraction range.
    pub dp_fraction_lo: f64,
    /// Upper edge of the bucket's data-path fraction range.
    pub dp_fraction_hi: f64,
    /// Allocations that fell into the bucket.
    pub allocations: usize,
    /// Best speed-up over the bucket, percent.
    pub best_su: f64,
    /// Blocks moved to hardware by the bucket's best partition.
    pub hw_blocks: usize,
    /// Controller area used by the bucket's best partition.
    pub controller_area: Area,
}

/// Sweeps every allocation within `restrictions`, bucketed into
/// `buckets` equal ranges of data-path fraction. Every allocation is
/// partitioned over one artifact set, so each block projection is
/// scheduled once for the whole sweep.
///
/// # Errors
///
/// Propagates [`PaceError`] from partition evaluation.
///
/// # Panics
///
/// Panics if `buckets` is zero.
pub fn tradeoff_sweep(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    restrictions: &Restrictions,
    pace: &PaceConfig,
    buckets: usize,
) -> Result<Vec<TradeoffPoint>, PaceError> {
    assert!(buckets > 0, "need at least one bucket");
    let dims = search_space(restrictions);
    let mut eval = Fetched::new(bsbs, lib, restrictions, pace, None)?;
    let mut points: Vec<TradeoffPoint> = (0..buckets)
        .map(|i| TradeoffPoint {
            dp_fraction_lo: i as f64 / buckets as f64,
            dp_fraction_hi: (i + 1) as f64 / buckets as f64,
            allocations: 0,
            best_su: 0.0,
            hw_blocks: 0,
            controller_area: Area::ZERO,
        })
        .collect();

    // Odometer over the space, including the all-zero point.
    let mut counts = vec![0u32; dims.len()];
    loop {
        let candidate: RMap = dims
            .iter()
            .zip(&counts)
            .map(|(&(fu, _), &c)| (fu, c))
            .collect();
        let dp = candidate.area(lib);
        if dp <= total_area {
            let frac = dp.fraction_of(total_area);
            let idx = ((frac * buckets as f64) as usize).min(buckets - 1);
            let p = eval.partition(bsbs, lib, &candidate, total_area, pace)?;
            let point = &mut points[idx];
            point.allocations += 1;
            let su = p.speedup_pct();
            if point.allocations == 1 || su > point.best_su {
                point.best_su = su;
                point.hw_blocks = p.hw_count();
                point.controller_area = p.controller_area;
            }
        }
        // Advance.
        let mut pos = 0;
        loop {
            if pos == dims.len() {
                return Ok(points);
            }
            counts[pos] += 1;
            if counts[pos] <= dims[pos].1 {
                break;
            }
            counts[pos] = 0;
            pos += 1;
        }
        if dims.is_empty() {
            return Ok(points);
        }
    }
}

/// Renders the sweep as an aligned text table (one row per non-empty
/// bucket).
pub fn format_tradeoff(points: &[TradeoffPoint]) -> String {
    let mut out = String::new();
    out.push_str("datapath%   allocs   best SU     HW blocks   controller\n");
    out.push_str("---------   ------   ---------   ---------   ----------\n");
    for p in points.iter().filter(|p| p.allocations > 0) {
        out.push_str(&format!(
            "{:>3.0}-{:<3.0}     {:>6}   {:>8.0}%   {:>9}   {}\n",
            p.dp_fraction_lo * 100.0,
            p.dp_fraction_hi * 100.0,
            p.allocations,
            p.best_su,
            p.hw_blocks,
            p.controller_area,
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
        let mk = |i: u32, n: usize, profile: u64| {
            let mut dfg = Dfg::new();
            for _ in 0..n {
                dfg.add_op(OpKind::Add);
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
        BsbArray::from_bsbs("t", vec![mk(0, 4, 200), mk(1, 2, 100), mk(2, 3, 50)])
    }

    #[test]
    fn sweep_covers_whole_space() {
        let bsbs = app();
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let points = tradeoff_sweep(
            &bsbs,
            &lib,
            Area::new(2_000),
            &restr,
            &PaceConfig::standard(),
            4,
        )
        .unwrap();
        let total: usize = points.iter().map(|p| p.allocations).sum();
        // adder cap 4 → 5 allocations, all within area (4·200 ≤ 2000).
        assert_eq!(total, 5);
    }

    #[test]
    fn buckets_partition_the_fraction_axis() {
        let bsbs = app();
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let points = tradeoff_sweep(
            &bsbs,
            &lib,
            Area::new(2_000),
            &restr,
            &PaceConfig::standard(),
            5,
        )
        .unwrap();
        assert_eq!(points.len(), 5);
        for w in points.windows(2) {
            assert!((w[0].dp_fraction_hi - w[1].dp_fraction_lo).abs() < 1e-12);
        }
    }

    #[test]
    fn nonzero_allocations_produce_speedup_somewhere() {
        let bsbs = app();
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let points = tradeoff_sweep(
            &bsbs,
            &lib,
            Area::new(4_000),
            &restr,
            &PaceConfig::standard(),
            3,
        )
        .unwrap();
        assert!(points.iter().any(|p| p.best_su > 0.0));
        let text = format_tradeoff(&points);
        assert!(text.contains("best SU"));
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let bsbs = app();
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let _ = tradeoff_sweep(
            &bsbs,
            &lib,
            Area::new(1_000),
            &restr,
            &PaceConfig::standard(),
            0,
        );
    }
}
