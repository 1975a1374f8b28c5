//! The shared allocate→partition seam of the exploration experiments.
//!
//! Every experiment in this crate runs the same two stages — Algorithm
//! 1, then PACE — before doing anything interesting. This module is
//! that seam, factored once: the crate-internal mirror of the facade's
//! `lycos::Pipeline` (which sits *above* this crate and therefore
//! cannot be used here).

use lycos_core::{allocate, AllocConfig, AllocOutcome, RMap, Restrictions};
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::BsbArray;
use lycos_pace::{
    partition, partition_with_artifacts, ArtifactStore, DpScratch, PaceConfig, PaceError,
    ParetoResult, Partition, SearchArtifacts, SearchOptions, SearchResult, StopSignal,
    StoreOutcome, WarmSeed,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The result of one allocate→partition run.
#[derive(Clone, Debug)]
pub struct FlowOutcome {
    /// The allocation stage's full outcome.
    pub outcome: AllocOutcome,
    /// The PACE partition of the automatic allocation.
    pub partition: Partition,
    /// Wall-clock time of the allocation algorithm alone (the paper's
    /// `CPU sec` column).
    pub alloc_time: Duration,
}

impl FlowOutcome {
    /// The automatic allocation.
    pub fn allocation(&self) -> &RMap {
        &self.outcome.allocation
    }

    /// Speed-up of the automatic allocation's partition, percent.
    pub fn speedup_pct(&self) -> f64 {
        self.partition.speedup_pct()
    }
}

/// Runs Algorithm 1 and PACE back to back.
///
/// # Errors
///
/// Propagates [`PaceError`] from either stage.
pub fn allocate_and_partition(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    restrictions: &Restrictions,
    pace: &PaceConfig,
    config: &AllocConfig,
) -> Result<FlowOutcome, PaceError> {
    let started = Instant::now();
    let outcome = allocate(bsbs, lib, &pace.eca, total_area, restrictions, config)?;
    let alloc_time = started.elapsed();
    let partition = partition(bsbs, lib, &outcome.allocation, total_area, pace)?;
    Ok(FlowOutcome {
        outcome,
        partition,
        alloc_time,
    })
}

/// Copies one request's store outcome into its search telemetry.
fn note_outcome(stats: &mut lycos_pace::SearchStats, outcome: StoreOutcome) {
    if outcome.hit {
        stats.artifact_hits = 1;
    } else {
        stats.artifact_misses = 1;
    }
    stats.incremental_hits = u64::from(outcome.incremental);
    stats.blocks_reused = outcome.blocks_reused;
    stats.blocks_rederived = outcome.blocks_rederived;
}

/// The artifacts one request runs every PACE stage over — fetched
/// from (or built into) a store, or prepared one-shot without one —
/// plus one DP workspace that carries across every partition over
/// them, so loops over many allocations schedule each block
/// projection once and price every run up front.
pub(crate) struct Fetched<'s> {
    artifacts: Arc<SearchArtifacts>,
    store: Option<(&'s ArtifactStore, StoreOutcome)>,
    scratch: DpScratch,
}

impl<'s> Fetched<'s> {
    /// Fetches through `store` or prepares one-shot artifacts when
    /// there is none. A store miss builds incrementally from the
    /// nearest resident entry when one shares blocks with the request
    /// ([`ArtifactStore::get_or_build_incremental`]), and from scratch
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Propagates [`PaceError`] from the artifact build.
    pub(crate) fn new(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        restrictions: &Restrictions,
        pace: &PaceConfig,
        store: Option<&'s ArtifactStore>,
    ) -> Result<Self, PaceError> {
        let (artifacts, store) = match store {
            None => (
                Arc::new(SearchArtifacts::prepare(bsbs, lib, restrictions, pace)?),
                None,
            ),
            Some(store) => {
                let (artifacts, outcome) =
                    store.get_or_build_incremental(bsbs, lib, restrictions, pace)?;
                (artifacts, Some((store, outcome)))
            }
        };
        Ok(Fetched {
            artifacts,
            store,
            scratch: DpScratch::new(),
        })
    }

    /// PACE on one explicit allocation over the fetched artifacts —
    /// identical to [`partition`], minus every schedule and traffic
    /// price the artifacts already hold.
    ///
    /// # Errors
    ///
    /// Propagates [`PaceError`] from the partitioner.
    pub(crate) fn partition(
        &mut self,
        bsbs: &BsbArray,
        lib: &HwLibrary,
        allocation: &RMap,
        total_area: Area,
        pace: &PaceConfig,
    ) -> Result<Partition, PaceError> {
        partition_with_artifacts(
            bsbs,
            lib,
            allocation,
            total_area,
            pace,
            &mut self.scratch,
            &self.artifacts,
        )
    }

    /// The best-under-budget sweep over the fetched artifacts; on the
    /// store path warm seeds go in, the winner is recorded back and the
    /// store outcome lands in the stats ([`search`]).
    ///
    /// # Errors
    ///
    /// Propagates [`PaceError`] from partition evaluation.
    pub(crate) fn search(
        &self,
        bsbs: &BsbArray,
        lib: &HwLibrary,
        total_area: Area,
        pace: &PaceConfig,
        options: &SearchOptions,
        stop: &StopSignal,
    ) -> Result<SearchResult, PaceError> {
        let artifacts = &self.artifacts;
        let Some((store, outcome)) = self.store else {
            return lycos_pace::search_best_with_stop(
                bsbs,
                lib,
                total_area,
                pace,
                options,
                artifacts,
                &[],
                stop,
            );
        };
        let seeds = if options.warm && options.bound {
            store.warm_seeds(artifacts.key(), total_area)
        } else {
            Vec::new()
        };
        let mut result = lycos_pace::search_best_with_stop(
            bsbs, lib, total_area, pace, options, artifacts, &seeds, stop,
        )?;
        note_outcome(&mut result.stats, outcome);
        store.record_winner(
            artifacts.key(),
            total_area,
            WarmSeed {
                time: result.best_partition.total_time.count(),
                gates: result.best_gates,
                index: result.best_index,
            },
        );
        Ok(result)
    }
}

/// Sweeps the allocation space through the memoised search engine —
/// the seam the Table 1 experiment, the CLI `best` command and the
/// facade share. With `threads: 1` this is exactly the paper's
/// sequential baseline; the defaults fan out over all cores, and
/// `options.bound` turns on the branch-and-bound walk (field-exact
/// winner, `stats.bounded`/`stats.dirty_ratio()` effort telemetry in
/// the returned [`SearchResult`]).
///
/// With a cross-request [`ArtifactStore`], artifacts are fetched (or
/// built once and cached) under the request's content fingerprint,
/// previously recorded winners at a budget within the current one are
/// offered as warm seeds (engaged only under `options.bound` +
/// `options.warm`), the winner is recorded back for future requests,
/// and `stats.artifact_hits`/`artifact_misses` report the store
/// outcome. With `store: None` the artifacts are one-shot; the result
/// is field-identical either way, pinned by the warm/cold equivalence
/// proptests.
///
/// `stop` is the anytime seam the allocation service drives with its
/// per-connection cancel flags (the deadline half of the signal also
/// folds in from [`SearchOptions::deadline_ms`]); pass
/// [`StopSignal::never`] to run to completion. On a trip the result
/// carries the best-so-far incumbent and a non-`Complete`
/// [`lycos_pace::Completion`]; a truncated winner is still a feasible,
/// DP-exact point of the space, so recording it back as a warm seed
/// stays sound (seeds only ever tighten pruning).
///
/// # Errors
///
/// Propagates [`PaceError`] from partition evaluation.
#[allow(clippy::too_many_arguments)] // the search inputs plus store and stop signal
pub fn search(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    restrictions: &Restrictions,
    pace: &PaceConfig,
    options: &SearchOptions,
    store: Option<&ArtifactStore>,
    stop: &StopSignal,
) -> Result<SearchResult, PaceError> {
    Fetched::new(bsbs, lib, restrictions, pace, store)?
        .search(bsbs, lib, total_area, pace, options, stop)
}

/// Sweeps the allocation space once under the Pareto objective — the
/// seam the `lycos pareto` CLI command and the allocation service's
/// `pareto` verb share. The returned frontier covers every budget up
/// to `total_area` in a single walk; see
/// [`lycos_pace::search_pareto`] for the exactness guarantee.
/// Artifacts come from `store` as in [`search`]; a frontier has no
/// single incumbent, so there is no seeding, only the precompute
/// reuse. On a `stop` trip the result is the partial frontier of
/// everything visited before the stop (every point on it feasible and
/// DP-exact), marked by its non-`Complete`
/// [`lycos_pace::Completion`].
///
/// # Errors
///
/// Propagates [`PaceError`] from partition evaluation.
#[allow(clippy::too_many_arguments)] // the search inputs plus store and stop signal
pub fn pareto(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    restrictions: &Restrictions,
    pace: &PaceConfig,
    options: &SearchOptions,
    store: Option<&ArtifactStore>,
    stop: &StopSignal,
) -> Result<ParetoResult, PaceError> {
    let fetched = Fetched::new(bsbs, lib, restrictions, pace, store)?;
    let mut result = lycos_pace::search_pareto_with_stop(
        bsbs,
        lib,
        total_area,
        pace,
        options,
        &fetched.artifacts,
        stop,
    )?;
    if let Some((_, outcome)) = fetched.store {
        note_outcome(&mut result.stats, outcome);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lycos_ir::{Bsb, BsbId, BsbOrigin, Dfg, OpKind};
    use std::collections::BTreeSet;

    fn app() -> BsbArray {
        let mut dfg = Dfg::new();
        for _ in 0..3 {
            dfg.add_op(OpKind::Mul);
        }
        BsbArray::from_bsbs(
            "t",
            vec![Bsb {
                id: BsbId(0),
                name: "b0".into(),
                dfg,
                reads: BTreeSet::new(),
                writes: BTreeSet::new(),
                profile: 400,
                origin: BsbOrigin::Body,
            }],
        )
    }

    #[test]
    fn flow_matches_the_hand_rolled_stages() {
        let bsbs = app();
        let lib = HwLibrary::standard();
        let pace = PaceConfig::standard();
        let area = Area::new(8_000);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let flow =
            allocate_and_partition(&bsbs, &lib, area, &restr, &pace, &AllocConfig::default())
                .unwrap();
        let direct = allocate(
            &bsbs,
            &lib,
            &pace.eca,
            area,
            &restr,
            &AllocConfig::default(),
        )
        .unwrap();
        assert_eq!(flow.outcome.allocation, direct.allocation);
        let p = partition(&bsbs, &lib, flow.allocation(), area, &pace).unwrap();
        assert_eq!(p.total_time, flow.partition.total_time);
        assert!(flow.speedup_pct() >= 0.0);
    }
}
