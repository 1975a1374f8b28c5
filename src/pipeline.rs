//! The end-to-end pipeline: LYC source → CDFG → BSBs → allocation →
//! partition.
//!
//! [`Pipeline`] is a builder over the whole reproduction. Configure it
//! with a source text (or a bundled [`lycos_apps::BenchmarkApp`]), a
//! hardware library and an area budget, then drive it through its
//! stages; every stage returns a value that carries everything the
//! next stage needs, so callers never have to thread BSB arrays,
//! restriction tables and configs by hand.

use crate::LycosError;
use lycos_apps::{BenchmarkApp, IterationHint};
use lycos_core::{allocate, AllocConfig, AllocOutcome, RMap, Restrictions};
use lycos_explore::flow::{pareto_with_store_stop, search_with_store_stop};
use lycos_explore::{table1_row_with_store_stop, Table1Options, Table1Row, Table1Subject};
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::{extract_bsbs, BsbArray, Cdfg, ProfileOverrides};
use lycos_pace::{
    partition, ArtifactStore, PaceConfig, ParetoResult, Partition, SearchOptions, SearchResult,
    StopSignal, StoreStats,
};
use std::sync::Arc;

/// Builder for the full LYCOS flow.
///
/// # Examples
///
/// ```
/// use lycos::Pipeline;
/// use lycos::hwlib::{Area, HwLibrary};
///
/// let part = Pipeline::new(
///     "app demo;
///      loop l times 500 {
///        y = y + u * dx;
///        u = u - 3 * y * dx;
///      }",
/// )
/// .with_library(HwLibrary::standard())
/// .with_budget(Area::new(6_000))
/// .allocate()?
/// .partition()?;
/// assert!(part.speedup_pct() > 0.0);
/// # Ok::<(), lycos::LycosError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Pipeline {
    source: String,
    // Pre-lowered CDFG (bundled apps ship one); skips re-parsing.
    precompiled: Option<Cdfg>,
    library: HwLibrary,
    pace: PaceConfig,
    budget: Area,
    alloc_config: AllocConfig,
    search: SearchOptions,
    overrides: Option<ProfileOverrides>,
    // §5 design iteration carried by bundled apps; drives the
    // `iterated_su` column of a Table 1 row.
    iteration: Option<IterationHint>,
    // Cross-request artifact store; `None` keeps every search cold.
    artifact_store: Option<Arc<ArtifactStore>>,
}

impl Pipeline {
    /// A pipeline over `source`, with the standard library, the
    /// standard PACE configuration and a 10 000 GE budget.
    pub fn new(source: impl Into<String>) -> Self {
        Pipeline {
            source: source.into(),
            precompiled: None,
            library: HwLibrary::standard(),
            pace: PaceConfig::standard(),
            budget: Area::new(10_000),
            alloc_config: AllocConfig::default(),
            search: SearchOptions::default(),
            overrides: None,
            iteration: None,
            artifact_store: None,
        }
    }

    /// A pipeline over a bundled benchmark, at its Table 1 budget.
    /// Reuses the app's already-compiled CDFG and carries its §5
    /// design-iteration hint.
    pub fn for_app(app: &BenchmarkApp) -> Self {
        let mut p = Pipeline::new(app.source).with_budget(Area::new(app.area_budget));
        p.precompiled = Some(app.cdfg.clone());
        p.iteration = app.iteration;
        p
    }

    /// Replaces the hardware library.
    #[must_use]
    pub fn with_library(mut self, library: HwLibrary) -> Self {
        self.library = library;
        self
    }

    /// Sets the total hardware area budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Area) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the PACE configuration (ECA model, communication
    /// costs, controller quantum).
    #[must_use]
    pub fn with_pace(mut self, pace: PaceConfig) -> Self {
        self.pace = pace;
        self
    }

    /// Replaces the allocation configuration (state estimate, tracing).
    #[must_use]
    pub fn with_alloc_config(mut self, config: AllocConfig) -> Self {
        self.alloc_config = config;
        self
    }

    /// Configures the allocation-space search engine (worker threads,
    /// evaluation limit, branch-and-bound) used by [`Allocated::search`].
    #[must_use]
    pub fn with_search_options(mut self, options: SearchOptions) -> Self {
        self.search = options;
        self
    }

    /// Attaches a cross-request [`ArtifactStore`]: the search stages
    /// ([`Allocated::search`], [`Allocated::pareto`], the Table 1
    /// flow) fetch their precomputed artifacts from the store under
    /// the pipeline's content fingerprint instead of rebuilding them,
    /// and `bound` searches warm-start from previously recorded
    /// winners. Results are field-identical with or without a store.
    /// Share one store (behind [`Arc`]) across the pipelines of a
    /// server or batch to amortise per-application precompute.
    #[must_use]
    pub fn with_artifact_store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.artifact_store = Some(store);
        self
    }

    /// Applies profile overrides (trip counts, probabilities) when
    /// flattening the CDFG to BSBs.
    #[must_use]
    pub fn with_profile_overrides(mut self, overrides: ProfileOverrides) -> Self {
        self.overrides = Some(overrides);
        self
    }

    /// Attaches a §5 design-iteration hint, reported as the
    /// `iterated_su` column by [`Pipeline::table1_row`]. Bundled apps
    /// carry theirs automatically via [`Pipeline::for_app`].
    #[must_use]
    pub fn with_iteration(mut self, hint: IterationHint) -> Self {
        self.iteration = Some(hint);
        self
    }

    /// Runs the complete §5 Table 1 flow for this pipeline — heuristic
    /// allocation (timed), PACE on its result, exhaustive best via the
    /// memoised search engine, the design iteration if one is attached
    /// — under the pipeline's library, PACE configuration and budget.
    ///
    /// This is the single entry point behind the `table1` bin, the
    /// `lycos table1` command and the allocation service, so their
    /// rows cannot drift.
    ///
    /// # Errors
    ///
    /// Any stage error as [`LycosError`].
    pub fn table1_row(&self, options: &Table1Options) -> Result<Table1Row, LycosError> {
        self.table1_row_stop(options, &StopSignal::never())
    }

    /// [`Pipeline::table1_row`] under an external [`StopSignal`] — the
    /// anytime seam the allocation service drives with its
    /// per-connection cancel flags. The signal governs the exhaustive
    /// search stage; on a trip the row carries the best-so-far winner
    /// and a non-`Complete` [`lycos_pace::Completion`].
    ///
    /// # Errors
    ///
    /// Any stage error as [`LycosError`].
    pub fn table1_row_stop(
        &self,
        options: &Table1Options,
        stop: &StopSignal,
    ) -> Result<Table1Row, LycosError> {
        let compiled = self.compile()?;
        let subject = Table1Subject {
            name: compiled.cdfg.name(),
            lines: lycos_frontend::line_count(&self.source),
            bsbs: &compiled.bsbs,
            budget: self.budget,
            iteration: self.iteration,
        };
        Ok(table1_row_with_store_stop(
            &subject,
            &self.library,
            &self.pace,
            options,
            self.artifact_store.as_deref(),
            stop,
        )?)
    }

    /// Runs [`Pipeline::table1_row`] over a batch of pipelines under
    /// one set of options, in order — the batch seam the allocation
    /// service and the `table1` bin share.
    ///
    /// # Errors
    ///
    /// The first failing row's [`LycosError`]; earlier rows' work is
    /// discarded.
    pub fn table1_batch(
        pipelines: &[Pipeline],
        options: &Table1Options,
    ) -> Result<Vec<Table1Row>, LycosError> {
        Self::table1_batch_stop(pipelines, options, &StopSignal::never())
    }

    /// [`Pipeline::table1_batch`] under an external [`StopSignal`],
    /// shared by every row: each row's search stage polls the same
    /// signal, so one cancellation stops the whole batch at the next
    /// row boundary (rows already finished keep their exact results;
    /// the row in flight returns best-so-far).
    ///
    /// # Errors
    ///
    /// The first failing row's [`LycosError`]; earlier rows' work is
    /// discarded.
    pub fn table1_batch_stop(
        pipelines: &[Pipeline],
        options: &Table1Options,
        stop: &StopSignal,
    ) -> Result<Vec<Table1Row>, LycosError> {
        pipelines
            .iter()
            .map(|p| p.table1_row_stop(options, stop))
            .collect()
    }

    /// Runs the frontend only: parse + lower + flatten (or reuse the
    /// pre-lowered CDFG of a bundled app).
    ///
    /// # Errors
    ///
    /// [`LycosError::Frontend`] / [`LycosError::Ir`].
    pub fn compile(&self) -> Result<Compiled, LycosError> {
        let cdfg = match &self.precompiled {
            Some(cdfg) => cdfg.clone(),
            None => lycos_frontend::compile(&self.source)?,
        };
        let bsbs = extract_bsbs(&cdfg, self.overrides.as_ref())?;
        Ok(Compiled { cdfg, bsbs })
    }

    /// Runs the flow through Algorithm 1: compile, derive ASAP
    /// restrictions, pre-allocate the data path.
    ///
    /// # Errors
    ///
    /// Any stage error as [`LycosError`].
    pub fn allocate(self) -> Result<Allocated, LycosError> {
        let compiled = self.compile()?;
        self.allocate_compiled(compiled)
    }

    /// Size of the application's full allocation space (`Π (cap+1)`
    /// over the ASAP restriction caps) without running Algorithm 1:
    /// compile, derive the restrictions, count. The seam the
    /// allocation service's admission control classifies job size by.
    ///
    /// # Errors
    ///
    /// Frontend and restriction errors as [`LycosError`].
    pub fn space_size(&self) -> Result<u128, LycosError> {
        let Compiled { bsbs, .. } = self.compile()?;
        let restrictions = Restrictions::from_asap(&bsbs, &self.library)?;
        Ok(lycos_pace::space_size(&lycos_pace::search_space(
            &restrictions,
        )))
    }

    /// Runs Algorithm 1 over an already-compiled stage output, so a
    /// caller that inspected [`Compiled`] does not pay for a second
    /// frontend pass.
    ///
    /// # Errors
    ///
    /// Any stage error as [`LycosError`].
    pub fn allocate_compiled(self, compiled: Compiled) -> Result<Allocated, LycosError> {
        let Compiled { cdfg, bsbs } = compiled;
        let restrictions = Restrictions::from_asap(&bsbs, &self.library)?;
        let outcome = allocate(
            &bsbs,
            &self.library,
            &self.pace.eca,
            self.budget,
            &restrictions,
            &self.alloc_config,
        )?;
        Ok(Allocated {
            library: self.library,
            pace: self.pace,
            budget: self.budget,
            search: self.search,
            artifact_store: self.artifact_store,
            cdfg,
            bsbs,
            restrictions,
            outcome,
        })
    }
}

/// Output of the frontend stage: the CDFG and its flattened BSB array.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The lowered control/data flow graph.
    pub cdfg: Cdfg,
    /// The leaf BSB array with annotated profiles.
    pub bsbs: BsbArray,
}

/// Output of the allocation stage, ready to partition.
#[derive(Clone, Debug)]
pub struct Allocated {
    library: HwLibrary,
    pace: PaceConfig,
    budget: Area,
    search: SearchOptions,
    artifact_store: Option<Arc<ArtifactStore>>,
    /// The compiled CDFG (kept for inspection and reporting).
    pub cdfg: Cdfg,
    /// The flattened BSB array the allocation was computed over.
    pub bsbs: BsbArray,
    /// The ASAP-parallelism allocation caps.
    pub restrictions: Restrictions,
    /// The result of Algorithm 1.
    pub outcome: AllocOutcome,
}

impl Allocated {
    /// The allocated data path.
    pub fn allocation(&self) -> &RMap {
        &self.outcome.allocation
    }

    /// The hardware library this allocation was computed against.
    pub fn library(&self) -> &HwLibrary {
        &self.library
    }

    /// The PACE configuration the pipeline carries.
    pub fn pace(&self) -> &PaceConfig {
        &self.pace
    }

    /// The total hardware area budget.
    pub fn budget(&self) -> Area {
        self.budget
    }

    /// Counters of the attached cross-request artifact store, or
    /// `None` when the pipeline runs cold (no store attached via
    /// [`Pipeline::with_artifact_store`]).
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.artifact_store.as_deref().map(ArtifactStore::stats)
    }

    /// Partitions with PACE under the automatic allocation.
    ///
    /// # Errors
    ///
    /// [`LycosError::Pace`] from the partitioner.
    pub fn partition(&self) -> Result<Partitioned, LycosError> {
        self.partition_with(self.allocation())
    }

    /// Sweeps the whole allocation space with the memoised, parallel
    /// search engine, returning the best allocation the partitioner
    /// can find — the paper's exhaustive baseline (§5), under the
    /// options set via [`Pipeline::with_search_options`].
    ///
    /// # Errors
    ///
    /// [`LycosError::Pace`] from partition evaluation.
    ///
    /// # Examples
    ///
    /// ```
    /// use lycos::pace::SearchOptions;
    /// use lycos::Pipeline;
    ///
    /// let allocated = Pipeline::for_app(&lycos::apps::hal())
    ///     .with_search_options(SearchOptions::new().threads(2))
    ///     .allocate()?;
    /// let best = allocated.search()?;
    /// let auto = allocated.partition()?;
    /// assert!(best.best_partition.speedup_pct() >= auto.speedup_pct());
    /// # Ok::<(), lycos::LycosError>(())
    /// ```
    pub fn search(&self) -> Result<SearchResult, LycosError> {
        self.search_with(&self.search)
    }

    /// Sweeps the allocation space under explicit search options,
    /// ignoring the ones stored in the pipeline.
    ///
    /// # Errors
    ///
    /// [`LycosError::Pace`] from partition evaluation.
    pub fn search_with(&self, options: &SearchOptions) -> Result<SearchResult, LycosError> {
        self.search_with_stop(options, &StopSignal::never())
    }

    /// [`Allocated::search_with`] under an external [`StopSignal`]:
    /// the anytime entry point. On a trip the result carries the best
    /// feasible incumbent found so far and a non-`Complete`
    /// [`lycos_pace::Completion`]; a never-tripping signal is
    /// field-identical to [`Allocated::search_with`].
    ///
    /// # Errors
    ///
    /// [`LycosError::Pace`] from partition evaluation.
    pub fn search_with_stop(
        &self,
        options: &SearchOptions,
        stop: &StopSignal,
    ) -> Result<SearchResult, LycosError> {
        Ok(search_with_store_stop(
            &self.bsbs,
            &self.library,
            self.budget,
            &self.restrictions,
            &self.pace,
            options,
            self.artifact_store.as_deref(),
            stop,
        )?)
    }

    /// Size of this application's full allocation space (`Π (cap+1)`
    /// over the ASAP restriction caps) — what a sweep would walk
    /// before any limit or pruning. Cheap (no search runs); see
    /// [`Pipeline::space_size`] for the same count before Algorithm 1.
    pub fn space_size(&self) -> u128 {
        lycos_pace::space_size(&lycos_pace::search_space(&self.restrictions))
    }

    /// Sweeps the allocation space once under the Pareto-front
    /// objective, returning the entire time×area trade-off curve up to
    /// the pipeline's budget — what N per-budget [`Allocated::search`]
    /// calls would assemble — under the options set via
    /// [`Pipeline::with_search_options`].
    ///
    /// # Errors
    ///
    /// [`LycosError::Pace`] from partition evaluation.
    ///
    /// # Examples
    ///
    /// ```
    /// use lycos::Pipeline;
    ///
    /// let allocated = Pipeline::for_app(&lycos::apps::hal()).allocate()?;
    /// let front = allocated.pareto()?;
    /// let best = allocated.search()?;
    /// // The frontier's fastest point is the full-budget winner.
    /// assert_eq!(front.points.last().unwrap().partition, best.best_partition);
    /// # Ok::<(), lycos::LycosError>(())
    /// ```
    pub fn pareto(&self) -> Result<ParetoResult, LycosError> {
        self.pareto_with(&self.search)
    }

    /// [`Allocated::pareto`] under explicit search options, ignoring
    /// the ones stored in the pipeline.
    ///
    /// # Errors
    ///
    /// [`LycosError::Pace`] from partition evaluation.
    pub fn pareto_with(&self, options: &SearchOptions) -> Result<ParetoResult, LycosError> {
        self.pareto_with_stop(options, &StopSignal::never())
    }

    /// [`Allocated::pareto_with`] under an external [`StopSignal`]: on
    /// a trip the result is the partial frontier of everything visited
    /// before the stop, marked by its [`lycos_pace::Completion`].
    ///
    /// # Errors
    ///
    /// [`LycosError::Pace`] from partition evaluation.
    pub fn pareto_with_stop(
        &self,
        options: &SearchOptions,
        stop: &StopSignal,
    ) -> Result<ParetoResult, LycosError> {
        Ok(pareto_with_store_stop(
            &self.bsbs,
            &self.library,
            self.budget,
            &self.restrictions,
            &self.pace,
            options,
            self.artifact_store.as_deref(),
            stop,
        )?)
    }

    /// Partitions with PACE under an explicit allocation — the seam
    /// used by design iterations (§5) and exploration sweeps.
    ///
    /// # Errors
    ///
    /// [`LycosError::Pace`] from the partitioner.
    pub fn partition_with(&self, allocation: &RMap) -> Result<Partitioned, LycosError> {
        let partition = partition(
            &self.bsbs,
            &self.library,
            allocation,
            self.budget,
            &self.pace,
        )?;
        Ok(Partitioned {
            allocation: allocation.clone(),
            partition,
        })
    }
}

/// Output of the partitioning stage.
#[derive(Clone, Debug)]
pub struct Partitioned {
    /// The data-path allocation the partition was evaluated under.
    pub allocation: RMap,
    /// The PACE partition.
    pub partition: Partition,
}

impl Partitioned {
    /// Speed-up over all-software execution, in percent.
    pub fn speedup_pct(&self) -> f64 {
        self.partition.speedup_pct()
    }

    /// Blocks placed in hardware.
    pub fn hw_count(&self) -> usize {
        self.partition.hw_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT_LOOP: &str = "app t;
        loop l times 800 {
          y = y + u * dx;
          u = u - 3 * y * dx;
        }";

    #[test]
    fn compile_stage_exposes_cdfg_and_bsbs() {
        let c = Pipeline::new(HOT_LOOP).compile().unwrap();
        assert_eq!(c.cdfg.name(), "t");
        assert_eq!(c.bsbs.len(), 1);
        assert_eq!(c.bsbs[0].profile, 800);
    }

    #[test]
    fn full_chain_produces_a_gainful_partition() {
        let part = Pipeline::new(HOT_LOOP)
            .with_budget(Area::new(6_000))
            .allocate()
            .unwrap()
            .partition()
            .unwrap();
        assert!(part.speedup_pct() > 0.0);
        assert!(part.hw_count() >= 1);
    }

    #[test]
    fn partition_with_reuses_the_compiled_state() {
        let allocated = Pipeline::new(HOT_LOOP)
            .with_budget(Area::new(6_000))
            .allocate()
            .unwrap();
        let auto = allocated.partition().unwrap();
        // An empty allocation forces everything to software.
        let sw = allocated.partition_with(&RMap::new()).unwrap();
        assert_eq!(sw.partition.hw_count(), 0);
        assert!(auto.partition.total_time <= sw.partition.total_time);
    }

    #[test]
    fn search_stage_honours_the_stored_options() {
        let allocated = Pipeline::new(HOT_LOOP)
            .with_budget(Area::new(6_000))
            .with_search_options(SearchOptions::new().threads(1).limit(Some(2)))
            .allocate()
            .unwrap();
        let res = allocated.search().unwrap();
        assert!(res.truncated, "limit 2 must cut the space short");
        assert!(res.evaluated <= 2);
        // Explicit options override the stored ones.
        let full = allocated
            .search_with(&SearchOptions::new().threads(2).limit(None).dp_threads(2))
            .unwrap();
        assert!(!full.truncated);
        assert_eq!(
            full.evaluated as u128 + full.skipped as u128,
            full.space_size
        );
    }

    #[test]
    fn pareto_stage_brackets_the_single_budget_search() {
        let allocated = Pipeline::new(HOT_LOOP)
            .with_budget(Area::new(6_000))
            .allocate()
            .unwrap();
        let front = allocated.pareto().unwrap();
        let best = allocated.search().unwrap();
        assert!(!front.points.is_empty());
        let fastest = front.points.last().unwrap();
        assert_eq!(fastest.partition, best.best_partition);
        assert_eq!(fastest.allocation, best.best_allocation);
        // Explicit options override the stored ones here too.
        let seq = allocated
            .pareto_with(&SearchOptions::sequential().bound(true))
            .unwrap();
        assert_eq!(seq.points, front.points);
    }

    #[test]
    fn frontend_errors_surface_as_lycos_errors() {
        let err = Pipeline::new("app broken").compile().unwrap_err();
        assert!(matches!(err, LycosError::Frontend(_)));
    }

    #[test]
    fn overrides_change_profiles() {
        let mut ov = ProfileOverrides::new();
        ov.set_trip("l", 50);
        let c = Pipeline::new(HOT_LOOP)
            .with_profile_overrides(ov)
            .compile()
            .unwrap();
        assert_eq!(c.bsbs[0].profile, 50);
    }

    #[test]
    fn table1_row_matches_the_explore_path() {
        let app = lycos_apps::hal();
        let options = Table1Options {
            search_limit: Some(500),
            threads: 1,
            ..Table1Options::default()
        };
        let via_pipeline = Pipeline::for_app(&app).table1_row(&options).unwrap();
        let direct = lycos_explore::table1_row(
            &app,
            &HwLibrary::standard(),
            &PaceConfig::standard(),
            &options,
        )
        .unwrap();
        // Identical up to the (nondeterministic) allocator wall clock.
        assert_eq!(
            lycos_explore::table1_csv_row(&via_pipeline, false),
            lycos_explore::table1_csv_row(&direct, false),
        );
        assert!(via_pipeline.iterated_su.is_none());
    }

    #[test]
    fn table1_batch_keeps_row_order() {
        let apps = [lycos_apps::straight(), lycos_apps::hal()];
        let pipelines: Vec<Pipeline> = apps.iter().map(Pipeline::for_app).collect();
        let options = Table1Options {
            search_limit: Some(200),
            threads: 1,
            ..Table1Options::default()
        };
        let rows = Pipeline::table1_batch(&pipelines, &options).unwrap();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["straight", "hal"]);
        assert_eq!(rows[0].lines, apps[0].lines);
    }

    #[test]
    fn artifact_store_is_invisible_and_counted() {
        let store = Arc::new(ArtifactStore::new(4));
        let cold = Pipeline::new(HOT_LOOP)
            .with_budget(Area::new(6_000))
            .allocate()
            .unwrap();
        assert!(cold.store_stats().is_none(), "no store attached");
        let warm = Pipeline::new(HOT_LOOP)
            .with_budget(Area::new(6_000))
            .with_artifact_store(store)
            .allocate()
            .unwrap();
        let opts = SearchOptions::new().bound(true);
        let baseline = cold.search_with(&opts).unwrap();
        let first = warm.search_with(&opts).unwrap();
        let second = warm.search_with(&opts).unwrap();
        for res in [&first, &second] {
            assert_eq!(res.best_allocation, baseline.best_allocation);
            assert_eq!(res.best_partition, baseline.best_partition);
        }
        assert_eq!(first.stats.artifact_misses, 1);
        assert_eq!(second.stats.artifact_hits, 1);
        assert!(second.stats.warm_reseeded, "recorded winner must seed");
        let stats = warm.store_stats().unwrap();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn for_app_matches_the_bundled_budget() {
        let app = lycos_apps::hal();
        let allocated = Pipeline::for_app(&app).allocate().unwrap();
        assert_eq!(allocated.budget(), Area::new(app.area_budget));
        assert!(!allocated.allocation().is_empty());
        // The admission probe counts the same space without Algorithm 1.
        assert_eq!(
            Pipeline::for_app(&app).space_size().unwrap(),
            allocated.space_size()
        );
    }
}
