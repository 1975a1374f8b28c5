//! Exhaustive allocation search — the paper's baseline (§5).
//!
//! "First, the PACE algorithm is used to generate a partition of the
//! application for all possible allocations. Through this exhaustive
//! search, the allocation that gives the best partitioning result in
//! terms of speed-up is marked as the best allocation."
//!
//! The space is the Cartesian product of `0..=cap` instances for every
//! unit kind the application uses (caps from [`Restrictions`], §4.3) —
//! beyond a cap extra units can never help. Allocations whose data path
//! does not fit the total area are skipped. A step limit makes the
//! search usable on spaces like `eigen`'s, which the paper itself calls
//! "impossible" to exhaust (footnote 1).

use crate::artifacts::SearchArtifacts;
use crate::metrics::metrics_from_statics;
use crate::stop::Completion;
use crate::{partition_from_metrics, DpScratch, PaceConfig, PaceError, Partition, SearchStats};
use lycos_core::{RMap, Restrictions};
use lycos_hwlib::{Area, FuId, HwLibrary};
use lycos_ir::BsbArray;
use std::time::Instant;

/// Outcome of an allocation-space search.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The best allocation found (empty = all software).
    pub best_allocation: RMap,
    /// Its partition.
    pub best_partition: Partition,
    /// Data-path gates of the best allocation — the second key of the
    /// `(time, area, index)` winner order, carried so a store can
    /// record the winner as a warm seed without re-pricing it.
    pub best_gates: u64,
    /// Odometer index of the winner — the earliest point of the space
    /// achieving the minimal `(time, area)`, identical across every
    /// engine configuration (it is the deterministic tie-break key).
    pub best_index: u128,
    /// Number of allocations actually evaluated through PACE.
    pub evaluated: usize,
    /// Number skipped because the data path alone exceeded the area.
    pub skipped: usize,
    /// Total size of the allocation space (including skipped).
    pub space_size: u128,
    /// Whether a step limit cut the search short.
    pub truncated: bool,
    /// Telemetry of the run (threads, cache hits, wall clock). Not
    /// part of result equality: the memoised parallel engine and the
    /// sequential walk compare equal whenever they found the same
    /// answer over the same space.
    pub stats: SearchStats,
}

impl SearchResult {
    /// Allocations evaluated per wall-clock second — the headline
    /// search-engine telemetry figure. Counts *evaluated* candidates
    /// only: bound-pruned points ([`SearchStats::bounded`]) are
    /// engine savings, not work, and must never inflate the rate —
    /// they are accounted separately from `skipped`, so
    /// [`SearchResult::points_accounted`] still covers the space.
    ///
    /// When the clock reads exactly zero (tiny spaces on fast
    /// machines, or coarse timers), the rate is the mathematical
    /// limit rather than a misleading `0.0`: [`f64::INFINITY`] when
    /// anything was evaluated — a search always evaluates at least
    /// the all-software point — and `0.0` only for an empty run.
    /// The rate is therefore strictly positive for every real search,
    /// however fast it finished.
    pub fn eval_rate(&self) -> f64 {
        let secs = self.stats.elapsed.as_secs_f64();
        if secs == 0.0 {
            if self.evaluated == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.evaluated as f64 / secs
        }
    }

    /// Sum of the accounting buckets: every point of the space lands
    /// in exactly one of *evaluated* (partitioned through PACE),
    /// *skipped* (data path alone over the area), *bounded* (pruned by
    /// an admissible bound, [`SearchStats::bounded`]), *truncated*
    /// (past the evaluation-limit window,
    /// [`SearchStats::truncated_points`]) or *unvisited* (beyond the
    /// point where a deadline or cancellation stopped the sweep,
    /// [`SearchStats::unvisited`]). Always equals
    /// [`SearchResult::space_size`] — asserted by the engines in debug
    /// builds and pinned by unit tests — so no emitter can quietly
    /// fold bound-pruned candidates into another column.
    pub fn points_accounted(&self) -> u128 {
        self.evaluated as u128
            + self.skipped as u128
            + self.stats.bounded
            + self.stats.truncated_points
            + self.stats.unvisited
    }

    /// How the run ended ([`SearchStats::completion`]): `Complete`
    /// results are exact; `DeadlineTruncated`/`Cancelled` ones carry
    /// the best feasible incumbent over the points visited before the
    /// stop.
    pub fn completion(&self) -> Completion {
        self.stats.completion
    }
}

impl PartialEq for SearchResult {
    /// Equality over the *search outcome* — `stats` is telemetry and
    /// deliberately excluded, so a memoised parallel run compares
    /// equal to the sequential walk it reproduces.
    fn eq(&self, other: &Self) -> bool {
        self.best_allocation == other.best_allocation
            && self.best_partition == other.best_partition
            && self.best_gates == other.best_gates
            && self.best_index == other.best_index
            && self.evaluated == other.evaluated
            && self.skipped == other.skipped
            && self.space_size == other.space_size
            && self.truncated == other.truncated
    }
}

/// The searchable dimensions: each used unit kind and its cap.
pub fn search_space(restrictions: &Restrictions) -> Vec<(FuId, u32)> {
    restrictions.iter().collect()
}

/// Number of points in the space (`Π (cap + 1)`).
pub fn space_size(dims: &[(FuId, u32)]) -> u128 {
    dims.iter().map(|&(_, cap)| cap as u128 + 1).product()
}

/// Exhaustively evaluates every allocation within `restrictions`,
/// returning the one whose PACE partition is fastest. Ties prefer the
/// smaller data path.
///
/// `limit` bounds the number of *evaluated* allocations; when hit, the
/// best found so far is returned with `truncated = true`.
///
/// # Errors
///
/// Propagates [`PaceError`] from partition evaluation (the
/// all-software case is always evaluable, so a best partition always
/// exists).
///
/// # Examples
///
/// ```
/// use lycos_core::Restrictions;
/// use lycos_hwlib::{Area, HwLibrary};
/// use lycos_ir::{extract_bsbs, Cdfg, CdfgNode, DfgBuilder, OpKind, TripCount};
/// use lycos_pace::{exhaustive_best, PaceConfig};
///
/// let mut b = DfgBuilder::new();
/// let m = b.binary(OpKind::Mul, "a".into(), "b".into());
/// b.assign("x", m);
/// let m2 = b.binary(OpKind::Mul, "c".into(), "d".into());
/// b.assign("y", m2);
/// let cdfg = Cdfg::new(
///     "hot",
///     CdfgNode::Loop {
///         label: "l".into(),
///         test: None,
///         body: Box::new(CdfgNode::block("body", b.finish())),
///         trip: TripCount::Fixed(400),
///     },
/// );
/// let bsbs = extract_bsbs(&cdfg, None)?;
/// let lib = HwLibrary::standard();
/// let restr = Restrictions::from_asap(&bsbs, &lib)?;
///
/// let res = exhaustive_best(&bsbs, &lib, Area::new(6000), &restr,
///                           &PaceConfig::standard(), None)?;
/// assert!(res.best_partition.speedup_pct() > 0.0);
/// assert!(!res.truncated);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn exhaustive_best(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    restrictions: &Restrictions,
    config: &PaceConfig,
    limit: Option<usize>,
) -> Result<SearchResult, PaceError> {
    let artifacts = SearchArtifacts::prepare(bsbs, lib, restrictions, config)?;
    let started = Instant::now();
    let dims = artifacts.dims();
    let space = artifacts.space_size();

    // Metrics are recomputed per point (this is the uncached reference
    // walk — only the statics behind them come from the artifacts),
    // but the DP workspace carries over and every candidate reads the
    // artifacts' traffic table — results are identical either way,
    // the walk just stops paying their allocation cost per call.
    let mut scratch = DpScratch::new();
    let mut eval = |allocation: &RMap, datapath_area: Area| -> Result<Partition, PaceError> {
        let ctl_budget = total_area
            .checked_sub(datapath_area)
            .expect("candidate fits the area");
        let metrics = metrics_from_statics(bsbs, lib, &artifacts.statics, allocation, config)?;
        Ok(partition_from_metrics(
            &metrics,
            artifacts.comm(),
            &mut scratch,
            datapath_area,
            ctl_budget,
            config,
        ))
    };

    let mut best_allocation = RMap::new();
    // Hoisted alongside `best_partition`: the tie-break reads the
    // incumbent's area on every candidate, so never recompute it there.
    let mut best_area = best_allocation.area(lib);
    let mut best_partition = eval(&best_allocation, best_area)?;
    let mut best_index = 0u128;
    let mut evaluated = 1usize; // the all-software point
    let mut skipped = 0usize;
    let mut truncated = false;

    // Odometer over the caps; the all-zero point is the baseline above.
    let mut counts = vec![0u32; dims.len()];
    let mut index = 0u128;
    'outer: loop {
        // Advance the odometer.
        let mut pos = 0;
        loop {
            if pos == dims.len() {
                break 'outer; // wrapped all the way: done
            }
            counts[pos] += 1;
            if counts[pos] <= dims[pos].1 {
                break;
            }
            counts[pos] = 0;
            pos += 1;
        }
        index += 1;

        let candidate: RMap = dims
            .iter()
            .zip(&counts)
            .map(|(&(fu, _), &c)| (fu, c))
            .collect();
        let candidate_area = candidate.area(lib);
        if candidate_area > total_area {
            skipped += 1;
            continue;
        }
        if let Some(max) = limit {
            if evaluated >= max {
                truncated = true;
                break;
            }
        }
        let p = eval(&candidate, candidate_area)?;
        evaluated += 1;
        let better = p.total_time < best_partition.total_time
            || (p.total_time == best_partition.total_time && candidate_area < best_area);
        if better {
            best_allocation = candidate;
            best_partition = p;
            best_area = candidate_area;
            best_index = index;
        }
    }

    let result = SearchResult {
        best_allocation,
        best_partition,
        best_gates: best_area.gates(),
        best_index,
        evaluated,
        skipped,
        space_size: space,
        truncated,
        stats: SearchStats {
            threads: 1,
            // No cache, no bounding in the reference walk; whatever
            // the limit left unvisited is the truncated bucket.
            truncated_points: space - evaluated as u128 - skipped as u128,
            elapsed: started.elapsed(),
            ..SearchStats::default()
        },
    };
    debug_assert_eq!(
        result.points_accounted(),
        space,
        "every point lands in exactly one accounting bucket"
    );
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition;
    use lycos_ir::{Bsb, BsbId, BsbOrigin, Dfg, OpKind};
    use std::collections::BTreeSet;

    fn lib() -> HwLibrary {
        HwLibrary::standard()
    }

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
            vec![mk(0, OpKind::Add, 3, 500), mk(1, OpKind::Mul, 2, 500)],
        )
    }

    #[test]
    fn space_enumeration_matches_caps() {
        let bsbs = app();
        let lib = lib();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let dims = search_space(&restr);
        // adder cap 3, multiplier cap 2 → (3+1)·(2+1) = 12 points.
        assert_eq!(space_size(&dims), 12);
    }

    #[test]
    fn search_covers_space_minus_skipped() {
        let bsbs = app();
        let lib = lib();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let res = exhaustive_best(
            &bsbs,
            &lib,
            Area::new(100_000),
            &restr,
            &PaceConfig::standard(),
            None,
        )
        .unwrap();
        assert_eq!(res.evaluated as u128, res.space_size);
        assert_eq!(res.skipped, 0);
        assert!(!res.truncated);
    }

    #[test]
    fn best_beats_every_alternative() {
        let bsbs = app();
        let lib = lib();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let cfg = PaceConfig::standard();
        let area = Area::new(8_000);
        let res = exhaustive_best(&bsbs, &lib, area, &restr, &cfg, None).unwrap();
        // Probe a few specific allocations; none may beat the winner.
        let adder = lib.fu_for(OpKind::Add).unwrap();
        let mult = lib.fu_for(OpKind::Mul).unwrap();
        for probe in [
            RMap::new(),
            [(adder, 1)].into_iter().collect::<RMap>(),
            [(adder, 3)].into_iter().collect::<RMap>(),
            [(mult, 1)].into_iter().collect::<RMap>(),
            [(adder, 3), (mult, 2)].into_iter().collect::<RMap>(),
        ] {
            if probe.area(&lib) > area {
                continue;
            }
            let p = partition(&bsbs, &lib, &probe, area, &cfg).unwrap();
            assert!(
                res.best_partition.total_time <= p.total_time,
                "probe {probe} beats the exhaustive winner"
            );
        }
    }

    #[test]
    fn tight_area_skips_large_allocations() {
        let bsbs = app();
        let lib = lib();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        // Area fits one multiplier at most (2000), not two.
        let res = exhaustive_best(
            &bsbs,
            &lib,
            Area::new(2_500),
            &restr,
            &PaceConfig::standard(),
            None,
        )
        .unwrap();
        assert!(res.skipped > 0, "two-multiplier points must be skipped");
        assert!(res.best_allocation.area(&lib) <= Area::new(2_500));
    }

    #[test]
    fn limit_truncates() {
        let bsbs = app();
        let lib = lib();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let res = exhaustive_best(
            &bsbs,
            &lib,
            Area::new(100_000),
            &restr,
            &PaceConfig::standard(),
            Some(3),
        )
        .unwrap();
        assert!(res.truncated);
        assert!(res.evaluated <= 3);
        // The unvisited tail is accounted as truncated points, never
        // folded into `skipped`.
        assert_eq!(res.stats.bounded, 0, "reference walk never bounds");
        assert_eq!(
            res.stats.truncated_points,
            res.space_size - res.evaluated as u128 - res.skipped as u128
        );
        assert_eq!(res.points_accounted(), res.space_size);
    }

    #[test]
    fn accounting_covers_the_space_without_a_limit_too() {
        let bsbs = app();
        let lib = lib();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        for gates in [2_500u64, 100_000] {
            let res = exhaustive_best(
                &bsbs,
                &lib,
                Area::new(gates),
                &restr,
                &PaceConfig::standard(),
                None,
            )
            .unwrap();
            assert_eq!(res.stats.truncated_points, 0, "nothing truncated");
            assert_eq!(res.points_accounted(), res.space_size, "area {gates}");
        }
    }

    #[test]
    fn eval_rate_is_positive_even_on_a_zero_clock() {
        let bsbs = app();
        let lib = lib();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let mut res = exhaustive_best(
            &bsbs,
            &lib,
            Area::new(8_000),
            &restr,
            &PaceConfig::standard(),
            None,
        )
        .unwrap();
        // Force the degenerate clock a fast machine can produce.
        res.stats.elapsed = std::time::Duration::ZERO;
        assert!(res.evaluated > 0);
        assert_eq!(res.eval_rate(), f64::INFINITY);
        assert!(res.eval_rate() > 0.0, "the documented contract");
        // Only a run that evaluated nothing reports a zero rate.
        res.evaluated = 0;
        assert_eq!(res.eval_rate(), 0.0);
    }

    #[test]
    fn empty_restrictions_yield_all_software() {
        let bsbs = app();
        let lib = lib();
        let res = exhaustive_best(
            &bsbs,
            &lib,
            Area::new(100_000),
            &Restrictions::new(),
            &PaceConfig::standard(),
            None,
        )
        .unwrap();
        assert!(res.best_allocation.is_empty());
        assert_eq!(res.space_size, 1);
        assert_eq!(res.best_partition.speedup_pct(), 0.0);
    }
}
