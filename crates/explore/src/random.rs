//! Randomised allocation search.
//!
//! The paper notes (footnote 1) that `eigen`'s million-point allocation
//! space made exhaustive evaluation impossible; the authors fell back
//! to the best allocation known from tutorial sessions. This module
//! provides the equivalent tool for large spaces: uniform sampling
//! within the restriction caps, keeping the best PACE result.

use crate::flow::Fetched;
use lycos_core::{RMap, Restrictions};
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::BsbArray;
use lycos_pace::{search_space, PaceConfig, PaceError, Partition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a randomised search.
#[derive(Clone, Debug)]
pub struct RandomSearchResult {
    /// The best allocation sampled (empty = all software).
    pub best_allocation: RMap,
    /// Its partition.
    pub best_partition: Partition,
    /// Samples actually evaluated (in-budget ones).
    pub evaluated: usize,
    /// Samples rejected because the data path exceeded the area.
    pub rejected: usize,
}

/// Samples `samples` random allocations within `restrictions`
/// (uniformly per dimension), evaluates the in-budget ones through
/// PACE and returns the best. The all-software baseline is always
/// included, so the result is never worse than software-only. A fixed
/// `seed` makes runs reproducible. Every sample is partitioned over
/// one artifact set, prepared once.
///
/// # Errors
///
/// Propagates [`PaceError`] from partition evaluation.
///
/// # Examples
///
/// ```
/// use lycos_core::Restrictions;
/// use lycos_explore::random_search;
/// use lycos_hwlib::{Area, HwLibrary};
/// use lycos_pace::PaceConfig;
/// use lycos_apps::hal;
///
/// let app = hal();
/// let bsbs = app.bsbs();
/// let lib = HwLibrary::standard();
/// let restr = Restrictions::from_asap(&bsbs, &lib)?;
/// let res = random_search(&bsbs, &lib, Area::new(7000), &restr,
///                         &PaceConfig::standard(), 32, 7)?;
/// assert!(res.best_partition.speedup_pct() >= 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn random_search(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    restrictions: &Restrictions,
    pace: &PaceConfig,
    samples: usize,
    seed: u64,
) -> Result<RandomSearchResult, PaceError> {
    let mut eval = Fetched::new(bsbs, lib, restrictions, pace, None)?;
    sample_best(
        &mut eval,
        bsbs,
        lib,
        total_area,
        restrictions,
        pace,
        samples,
        seed,
    )
}

/// [`random_search`] over artifacts fetched by the caller, so a sweep
/// over budgets prepares them once per application.
#[allow(clippy::too_many_arguments)] // random_search's inputs plus the artifacts
pub(crate) fn sample_best(
    eval: &mut Fetched<'_>,
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    restrictions: &Restrictions,
    pace: &PaceConfig,
    samples: usize,
    seed: u64,
) -> Result<RandomSearchResult, PaceError> {
    let dims = search_space(restrictions);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut best_allocation = RMap::new();
    let mut best_partition = eval.partition(bsbs, lib, &best_allocation, total_area, pace)?;
    let mut evaluated = 1usize;
    let mut rejected = 0usize;

    for _ in 0..samples {
        let candidate: RMap = dims
            .iter()
            .map(|&(fu, cap)| (fu, rng.gen_range(0..=cap)))
            .collect();
        if candidate.area(lib) > total_area {
            rejected += 1;
            continue;
        }
        let p = eval.partition(bsbs, lib, &candidate, total_area, pace)?;
        evaluated += 1;
        if p.total_time < best_partition.total_time {
            best_allocation = candidate;
            best_partition = p;
        }
    }

    Ok(RandomSearchResult {
        best_allocation,
        best_partition,
        evaluated,
        rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lycos_ir::{Bsb, BsbId, BsbOrigin, Dfg, OpKind};
    use std::collections::BTreeSet;

    fn app() -> BsbArray {
        let mut dfg = Dfg::new();
        for _ in 0..4 {
            dfg.add_op(OpKind::Add);
        }
        BsbArray::from_bsbs(
            "t",
            vec![Bsb {
                id: BsbId(0),
                name: "b0".into(),
                dfg,
                reads: BTreeSet::new(),
                writes: BTreeSet::new(),
                profile: 500,
                origin: BsbOrigin::Body,
            }],
        )
    }

    #[test]
    fn same_seed_same_result() {
        let bsbs = app();
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let pace = PaceConfig::standard();
        let a = random_search(&bsbs, &lib, Area::new(2_000), &restr, &pace, 20, 42).unwrap();
        let b = random_search(&bsbs, &lib, Area::new(2_000), &restr, &pace, 20, 42).unwrap();
        assert_eq!(a.best_allocation, b.best_allocation);
        assert_eq!(a.evaluated, b.evaluated);
    }

    #[test]
    fn never_worse_than_all_software() {
        let bsbs = app();
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let pace = PaceConfig::standard();
        let res = random_search(&bsbs, &lib, Area::new(2_000), &restr, &pace, 0, 1).unwrap();
        assert!(res.best_partition.speedup_pct() >= 0.0);
        assert_eq!(res.evaluated, 1, "only the baseline");
    }

    #[test]
    fn enough_samples_usually_find_hardware() {
        let bsbs = app();
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let pace = PaceConfig::standard();
        let res = random_search(&bsbs, &lib, Area::new(5_000), &restr, &pace, 64, 3).unwrap();
        assert!(
            res.best_partition.speedup_pct() > 0.0,
            "a hot 4-add block with plenty of area must gain"
        );
    }

    #[test]
    fn over_budget_samples_are_rejected_not_evaluated() {
        let bsbs = app();
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let pace = PaceConfig::standard();
        // Area fits at most one adder: most 4-adder samples get rejected.
        let res = random_search(&bsbs, &lib, Area::new(250), &restr, &pace, 50, 9).unwrap();
        assert!(res.rejected > 0);
        assert!(res.best_allocation.area(&lib) <= Area::new(250));
    }
}
