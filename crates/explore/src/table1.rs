//! The Table 1 experiment: heuristic allocation vs exhaustive best.
//!
//! For one application the flow is exactly §5 of the paper:
//!
//! 1. run the allocation algorithm (Algorithm 1) and time it — the
//!    `CPU sec` column;
//! 2. evaluate its allocation through PACE — the `SU` numerator;
//! 3. exhaustively evaluate *every* allocation through PACE — the
//!    `SU(best)` denominator;
//! 4. if the paper applied a design iteration (`man`, `eigen`), rerun
//!    PACE on the manually adjusted allocation.
//!
//! The row also reports the data-path share of the used hardware area
//! (`Size`) and the static hardware/software split (`HW/SW`).

use crate::apply_iteration;
use crate::flow::Fetched;
use lycos_apps::{BenchmarkApp, IterationHint};
use lycos_core::{allocate_with_furo, AllocConfig, FuroTable, RMap, Restrictions};
use lycos_hwlib::{Area, HwLibrary};
use lycos_ir::BsbArray;
use lycos_pace::{ArtifactStore, Completion, PaceConfig, PaceError, SearchOptions, StopSignal};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One row of the reproduced Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Application name.
    pub name: String,
    /// LYC source lines.
    pub lines: usize,
    /// Speed-up of the heuristic allocation, percent.
    pub heuristic_su: f64,
    /// Speed-up of the exhaustive best allocation, percent.
    pub best_su: f64,
    /// Speed-up after the paper's design iteration, if one applies.
    pub iterated_su: Option<f64>,
    /// Data-path share of used hardware area under the heuristic
    /// allocation's partition (`Size`).
    pub size_fraction: f64,
    /// Static share of the application placed in hardware (`HW`).
    pub hw_fraction: f64,
    /// Allocation-algorithm runtime (`CPU sec`): Algorithm 1 including
    /// its FURO table build when the row builds the table — always for
    /// a one-shot row, as in the paper. A row over a subject whose
    /// table an earlier row already built ([`Table1Subject::furo`], a
    /// resident stage) times only the allocation loop: the stage pays
    /// the build once.
    pub alloc_time: Duration,
    /// The heuristic allocation.
    pub heuristic_allocation: RMap,
    /// The best allocation found by exhaustive search.
    pub best_allocation: RMap,
    /// Allocations evaluated by the exhaustive search.
    pub evaluated: usize,
    /// Allocations skipped because the data path alone exceeded the
    /// area budget.
    pub skipped: usize,
    /// Allocations pruned by the branch-and-bound engine's admissible
    /// bounds (`0` unless [`Table1Options::bound`] is on). Counted
    /// separately from `skipped`: together with the truncated tail,
    /// `evaluated + skipped + bounded` accounts for every point of
    /// the window the search visited.
    pub bounded: u128,
    /// Fraction of per-block metric refreshes the search actually had
    /// to re-derive ([`lycos_pace::SearchStats::dirty_ratio`]) —
    /// lower means the incremental frontier metrics carried more.
    /// Machine telemetry (each worker's first refresh is from
    /// scratch, so the figure depends on the resolved worker count):
    /// the CSV blanks it unless `timing` is on, like `alloc_seconds`.
    pub dirty_ratio: f64,
    /// Size of the full allocation space.
    pub space_size: u128,
    /// Whether the exhaustive search hit its step limit.
    pub truncated: bool,
    /// Artifact-store hits for this row's search (`0` unless the row
    /// ran through a cross-request [`ArtifactStore`]). Depends on
    /// request history, so the CSV blanks it unless `timing` is on,
    /// like `alloc_seconds`.
    pub artifact_hits: u64,
    /// Artifact-store misses for this row's search — same caveat as
    /// [`Table1Row::artifact_hits`].
    pub artifact_misses: u64,
    /// Whether a recorded previous winner was installed as the
    /// branch-and-bound incumbent before the sweep started. Pure
    /// telemetry: the winner columns are field-identical either way.
    /// History-dependent, so CSV-blanked unless `timing` is on.
    pub warm_reseeded: bool,
    /// Blocks whose artifacts were cloned from a fingerprint-matched
    /// store donor instead of re-derived (the incremental diff path).
    /// History-dependent, so CSV-blanked unless `timing` is on.
    pub blocks_reused: u64,
    /// Blocks re-derived from scratch during an incremental build —
    /// same caveat as [`Table1Row::blocks_reused`].
    pub blocks_rederived: u64,
    /// Whether this row's artifacts were built incrementally from a
    /// donor entry (1) rather than from scratch or served whole from
    /// the store (0) — same caveat as [`Table1Row::blocks_reused`].
    pub incremental_hits: u64,
    /// How the search ended ([`lycos_pace::Completion`]): `Complete`
    /// rows are exact; `DeadlineTruncated`/`Cancelled` rows carry the
    /// best-so-far winner over the points visited before the stop.
    /// *Where* a wall-clock deadline lands is nondeterministic, so the
    /// CSV blanks a non-`Complete` marker unless `timing` is on.
    pub completion: Completion,
    /// Points of the candidate window no worker reached before the
    /// stop ([`lycos_pace::SearchStats::unvisited`]); `0` on complete
    /// runs. Same nondeterminism caveat as [`Table1Row::completion`].
    pub unvisited: u128,
}

impl Table1Row {
    /// `SU / SU(best)` as a ratio in `[0, 1]` (1 = heuristic matches
    /// the best allocation; guards against a zero best).
    pub fn su_ratio(&self) -> f64 {
        if self.best_su <= 0.0 {
            if self.heuristic_su <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.heuristic_su / self.best_su
        }
    }

    /// Whether the design iteration (when present) recovers at least
    /// this fraction of the best speed-up.
    pub fn iteration_recovers(&self, fraction: f64) -> bool {
        match self.iterated_su {
            Some(su) => su >= self.best_su * fraction,
            None => true,
        }
    }
}

/// Options for a Table 1 run.
#[derive(Clone, Debug)]
pub struct Table1Options {
    /// Cap on exhaustively evaluated allocations (`None` = no cap; the
    /// paper itself could not exhaust `eigen`, footnote 1).
    pub search_limit: Option<usize>,
    /// Worker threads for the exhaustive sweep (`0` = one per core).
    /// The result is identical at any thread count; only the wall
    /// clock changes.
    pub threads: usize,
    /// Branch-and-bound sweep (`SearchOptions::bound`): the winner
    /// columns stay field-exact, while the `evaluated`/`bounded`
    /// effort columns shrink — and, under multiple worker threads,
    /// depend on incumbent-sharing timing. Leave off where rows are
    /// diffed byte-for-byte across runs.
    pub bound: bool,
    /// Capacity of the cross-request artifact store
    /// (`SearchOptions::store_cap`). Only read by store-owning layers
    /// (the allocation service, the CLI); a bare row run never
    /// evicts anything.
    pub store_cap: usize,
    /// Cross-request warm starts (`SearchOptions::warm`): answers
    /// served from a stored Pareto staircase or, for an exact repeat,
    /// from a recorded answer, and incumbent reseeding from recorded
    /// winners. On
    /// by default; winner columns are field-identical either way —
    /// only the effort spent reaching them changes.
    pub warm: bool,
    /// Wall-clock budget for the search stage in milliseconds
    /// (`SearchOptions::deadline_ms`; `None` = run to completion). On
    /// expiry the winner columns hold the best-so-far incumbent and
    /// [`Table1Row::completion`] marks the row `deadline`.
    pub deadline_ms: Option<u64>,
}

impl Default for Table1Options {
    fn default() -> Self {
        Table1Options {
            search_limit: None,
            threads: 0,
            bound: false,
            store_cap: 8,
            warm: true,
            deadline_ms: None,
        }
    }
}

impl Table1Options {
    /// The search-engine configuration this run implies.
    pub fn search_options(&self) -> SearchOptions {
        SearchOptions {
            threads: self.threads,
            limit: self.search_limit,
            bound: self.bound,
            store_cap: self.store_cap,
            warm: self.warm,
            deadline_ms: self.deadline_ms,
        }
    }

    /// The inverse of [`Table1Options::search_options`]: the Table 1
    /// run a resolved engine configuration implies. The two structs
    /// carry the same six knobs field for field, so the round trip
    /// is lossless — the seam the allocation service uses to merge
    /// wire-level knob overrides once, against `SearchOptions`, and
    /// feed the result to both verbs.
    pub fn from_search_options(options: &SearchOptions) -> Self {
        Table1Options {
            search_limit: options.limit,
            threads: options.threads,
            bound: options.bound,
            store_cap: options.store_cap,
            warm: options.warm,
            deadline_ms: options.deadline_ms,
        }
    }
}

/// The application-shaped inputs of one Table 1 row, decoupled from
/// [`BenchmarkApp`] so ad-hoc sources (a `.lyc` file, an inline
/// program handed to the allocation service) run the exact same flow
/// as the bundled benchmarks.
#[derive(Clone, Debug)]
pub struct Table1Subject<'a> {
    /// Application name (Table 1's `Example` column).
    pub name: &'a str,
    /// LYC source lines (the `Lines` column).
    pub lines: usize,
    /// The compiled leaf BSB array.
    pub bsbs: &'a BsbArray,
    /// The ASAP restriction caps of `bsbs` — the allocation space.
    pub restrictions: &'a Restrictions,
    /// Algorithm 1's FURO table over `bsbs`, built on first use by
    /// [`table1_row_for`] inside its allocator timer. A fresh cell makes
    /// a one-shot row; a cell that outlives the row (a resident stage)
    /// lets every later row over the same BSB array and library skip
    /// the build.
    pub furo: &'a OnceLock<FuroTable>,
    /// Total hardware area budget, in gate equivalents.
    pub budget: Area,
    /// The §5 design iteration, if one applies.
    pub iteration: Option<IterationHint>,
}

impl<'a> Table1Subject<'a> {
    /// The subject a bundled benchmark defines, over its pre-extracted
    /// BSB array, their restriction caps and a FURO table cell.
    pub fn of_app(
        app: &'a BenchmarkApp,
        bsbs: &'a BsbArray,
        restrictions: &'a Restrictions,
        furo: &'a OnceLock<FuroTable>,
    ) -> Self {
        Table1Subject {
            name: app.name,
            lines: app.lines,
            bsbs,
            restrictions,
            furo,
            budget: Area::new(app.area_budget),
            iteration: app.iteration,
        }
    }
}

/// Runs the full Table 1 flow for one application.
///
/// # Errors
///
/// Propagates [`PaceError`] from allocation or partitioning.
pub fn table1_row(
    app: &BenchmarkApp,
    lib: &HwLibrary,
    pace: &PaceConfig,
    options: &Table1Options,
) -> Result<Table1Row, PaceError> {
    let bsbs = app.bsbs();
    let restrictions = Restrictions::from_asap(&bsbs, lib)?;
    table1_row_for(
        &Table1Subject::of_app(app, &bsbs, &restrictions, &OnceLock::new()),
        lib,
        pace,
        options,
        None,
        &StopSignal::never(),
    )
}

/// Runs the full Table 1 flow for an arbitrary subject — the seam the
/// bundled-app path above, the `table1` bin and the allocation service
/// all share.
///
/// With a cross-request [`ArtifactStore`], the row's artifacts are
/// fetched (or built once) under the request's content fingerprint
/// and, under `bound` + `warm`, the incumbent is reseeded from a
/// previously recorded winner. The row is field-identical with or
/// without a store; only the `artifact_hits`/`artifact_misses`/
/// `warm_reseeded` telemetry columns see the difference. The artifacts
/// are fetched once, before step 1, and all three PACE stages run over
/// them.
///
/// `stop` governs the search stage (step 3) — on a trip the winner
/// columns hold the best-so-far incumbent and
/// [`Table1Row::completion`] records the reason. The allocation stage
/// and the design iteration are single PACE evaluations and always run
/// to completion.
///
/// # Errors
///
/// Propagates [`PaceError`] from allocation or partitioning.
pub fn table1_row_for(
    subject: &Table1Subject<'_>,
    lib: &HwLibrary,
    pace: &PaceConfig,
    options: &Table1Options,
    store: Option<&ArtifactStore>,
    stop: &StopSignal,
) -> Result<Table1Row, PaceError> {
    let bsbs = subject.bsbs;
    let area = subject.budget;
    let mut fetched = Fetched::new(bsbs, lib, subject.restrictions, pace, store)?;

    // 1–2. The allocation algorithm (timed) and PACE on its result.
    //    The FURO table is part of the algorithm, so its build (when
    //    this row is the first over the subject's cell) is timed too.
    let started = Instant::now();
    let furo = match subject.furo.get() {
        Some(furo) => furo,
        None => {
            let built = FuroTable::compute(bsbs, lib)?;
            subject.furo.get_or_init(|| built)
        }
    };
    let outcome = allocate_with_furo(
        bsbs,
        furo,
        lib,
        &pace.eca,
        area,
        subject.restrictions,
        &AllocConfig::default(),
    )?;
    let alloc_time = started.elapsed();
    let heuristic = fetched.partition(bsbs, lib, &outcome.allocation, area, pace)?;

    // 3. PACE on every allocation, through the memoised search engine
    //    (artifacts shared across requests when a store is attached).
    let search = fetched.search(bsbs, lib, area, pace, &options.search_options(), stop)?;

    // 4. The manual design iteration, when the paper used one.
    let iterated_su = match subject.iteration {
        Some(hint) => {
            let adjusted = apply_iteration(&outcome.allocation, hint, lib);
            Some(
                fetched
                    .partition(bsbs, lib, &adjusted, area, pace)?
                    .speedup_pct(),
            )
        }
        None => None,
    };

    Ok(Table1Row {
        name: subject.name.to_owned(),
        lines: subject.lines,
        heuristic_su: heuristic.speedup_pct(),
        best_su: search.best_partition.speedup_pct(),
        iterated_su,
        size_fraction: heuristic.size_fraction(),
        hw_fraction: heuristic.hw_fraction_static(bsbs),
        alloc_time,
        heuristic_allocation: outcome.allocation,
        best_allocation: search.best_allocation,
        evaluated: search.evaluated,
        skipped: search.skipped,
        bounded: search.stats.bounded,
        dirty_ratio: search.stats.dirty_ratio(),
        space_size: search.space_size,
        truncated: search.truncated,
        artifact_hits: search.stats.artifact_hits,
        artifact_misses: search.stats.artifact_misses,
        warm_reseeded: search.stats.warm_reseeded,
        blocks_reused: search.stats.blocks_reused,
        blocks_rederived: search.stats.blocks_rederived,
        incremental_hits: search.stats.incremental_hits,
        completion: search.stats.completion,
        unvisited: search.stats.unvisited,
    })
}

/// Header of the canonical machine-readable Table 1 CSV (no trailing
/// newline). Shared by the `table1` bin and the allocation service so
/// the two outputs cannot drift.
pub const TABLE1_CSV_HEADER: &str = "name,lines,heuristic_su_pct,best_su_pct,iterated_su_pct,\
     size_fraction,hw_fraction,alloc_seconds,evaluated,skipped,bounded,dirty_ratio,\
     space_size,truncated,artifact_hits,artifact_misses,warm_reseeded,\
     blocks_reused,blocks_rederived,incremental_hits,completion,unvisited";

/// One canonical CSV row (no trailing newline). With `timing` off the
/// `alloc_seconds`, `dirty_ratio`, `artifact_hits`, `artifact_misses`,
/// `warm_reseeded`, `blocks_reused`, `blocks_rederived` and
/// `incremental_hits` columns are left empty, making the row a pure
/// function of the search outcome — byte-identical across runs,
/// machines and transports, which is what the service smoke tests diff
/// against. (`dirty_ratio` counts each worker's first from-scratch
/// refresh, so it depends on how many workers the machine resolves;
/// the artifact columns depend on what earlier requests left in the
/// store — run-history telemetry, exactly like the allocator wall
/// clock.) Bound-pruned candidates get their own `bounded` column —
/// they are never folded into `skipped`, so
/// `evaluated + skipped + bounded` plus the truncated tail always
/// covers `space_size` (the engine's accounting invariant).
///
/// The `completion`/`unvisited` pair follows the same rule with one
/// refinement: a `Complete` run is deterministic by construction
/// (`complete,0` whatever the machine), so it is emitted even in
/// stable mode; a deadline- or cancel-truncated run depends on where
/// the wall clock landed, so without `timing` both cells are blanked.
pub fn table1_csv_row(r: &Table1Row, timing: bool) -> String {
    format!(
        "{},{},{:.2},{:.2},{},{:.4},{:.4},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        r.name,
        r.lines,
        r.heuristic_su,
        r.best_su,
        r.iterated_su.map(|s| format!("{s:.2}")).unwrap_or_default(),
        r.size_fraction,
        r.hw_fraction,
        if timing {
            format!("{:.6}", r.alloc_time.as_secs_f64())
        } else {
            String::new()
        },
        r.evaluated,
        r.skipped,
        r.bounded,
        if timing {
            format!("{:.4}", r.dirty_ratio)
        } else {
            String::new()
        },
        r.space_size,
        r.truncated,
        if timing {
            r.artifact_hits.to_string()
        } else {
            String::new()
        },
        if timing {
            r.artifact_misses.to_string()
        } else {
            String::new()
        },
        if timing {
            r.warm_reseeded.to_string()
        } else {
            String::new()
        },
        if timing {
            r.blocks_reused.to_string()
        } else {
            String::new()
        },
        if timing {
            r.blocks_rederived.to_string()
        } else {
            String::new()
        },
        if timing {
            r.incremental_hits.to_string()
        } else {
            String::new()
        },
        if timing || r.completion.is_complete() {
            r.completion.as_str().to_string()
        } else {
            String::new()
        },
        if timing || r.completion.is_complete() {
            r.unvisited.to_string()
        } else {
            String::new()
        },
    )
}

/// Renders the complete CSV document: header plus one line per row,
/// each `\n`-terminated.
pub fn format_table1_csv(rows: &[Table1Row], timing: bool) -> String {
    let mut out = String::from(TABLE1_CSV_HEADER);
    out.push('\n');
    for r in rows {
        out.push_str(&table1_csv_row(r, timing));
        out.push('\n');
    }
    out
}

/// Renders rows in the paper's layout.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Example    Lines  SU/SU(best)           Size   HW/SW      CPU sec\n");
    out.push_str("---------- -----  --------------------- -----  ---------  -------\n");
    for r in rows {
        let su = format!("{:.0}%/{:.0}%", r.heuristic_su, r.best_su);
        let hwsw = format!(
            "{:.0}%/{:.0}%",
            r.hw_fraction * 100.0,
            (1.0 - r.hw_fraction) * 100.0
        );
        out.push_str(&format!(
            "{:<10} {:>5}  {:<21} {:>4.0}%  {:<9}  {:>7.3}\n",
            r.name,
            r.lines,
            su,
            r.size_fraction * 100.0,
            hwsw,
            r.alloc_time.as_secs_f64(),
        ));
        if let Some(su) = r.iterated_su {
            out.push_str(&format!(
                "           `-- after design iteration: SU = {su:.0}%\n"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, h: f64, b: f64, it: Option<f64>) -> Table1Row {
        Table1Row {
            name: name.into(),
            lines: 100,
            heuristic_su: h,
            best_su: b,
            iterated_su: it,
            size_fraction: 0.8,
            hw_fraction: 0.5,
            alloc_time: Duration::from_millis(3),
            heuristic_allocation: RMap::new(),
            best_allocation: RMap::new(),
            evaluated: 10,
            skipped: 0,
            bounded: 0,
            dirty_ratio: 1.0,
            space_size: 10,
            truncated: false,
            artifact_hits: 0,
            artifact_misses: 0,
            warm_reseeded: false,
            blocks_reused: 0,
            blocks_rederived: 0,
            incremental_hits: 0,
            completion: Completion::Complete,
            unvisited: 0,
        }
    }

    #[test]
    fn su_ratio_handles_edges() {
        assert_eq!(row("a", 50.0, 100.0, None).su_ratio(), 0.5);
        assert_eq!(row("a", 0.0, 0.0, None).su_ratio(), 1.0);
        assert!(row("a", 10.0, 0.0, None).su_ratio().is_infinite());
    }

    #[test]
    fn iteration_recovery_check() {
        assert!(row("m", 30.0, 3000.0, Some(2990.0)).iteration_recovers(0.95));
        assert!(!row("m", 30.0, 3000.0, Some(1000.0)).iteration_recovers(0.95));
        assert!(row("s", 100.0, 100.0, None).iteration_recovers(0.95));
    }

    #[test]
    fn csv_rows_are_deterministic_without_timing() {
        let mut r = row("hal", 2000.0, 2000.0, None);
        r.artifact_hits = 1;
        r.warm_reseeded = true;
        r.blocks_reused = 3;
        r.blocks_rederived = 1;
        r.incremental_hits = 1;
        let stable = table1_csv_row(&r, false);
        assert_eq!(
            stable,
            "hal,100,2000.00,2000.00,,0.8000,0.5000,,10,0,0,,10,false,,,,,,,complete,0"
        );
        // The run-history columns (alloc wall clock, dirty ratio,
        // artifact hits/misses, warm reseed, incremental reuse) are
        // the only difference between the modes.
        let timed = table1_csv_row(&r, true);
        assert_eq!(
            timed,
            "hal,100,2000.00,2000.00,,0.8000,0.5000,0.003000,10,0,0,1.0000,10,false,1,0,true,3,1,1,complete,0"
        );
    }

    #[test]
    fn csv_blanks_truncated_completion_unless_timing() {
        // Where a wall-clock deadline lands is machine-dependent, so
        // stable rows blank the pair; complete rows keep it (pinned
        // above) because `complete,0` is deterministic by construction.
        let mut r = row("hal", 2000.0, 2000.0, None);
        r.completion = Completion::DeadlineTruncated;
        r.unvisited = 4;
        r.evaluated = 6;
        let stable = table1_csv_row(&r, false);
        assert!(
            stable.ends_with(",,,"),
            "stable mode blanks the pair: {stable}"
        );
        let timed = table1_csv_row(&r, true);
        assert!(timed.ends_with(",deadline,4"), "timing keeps it: {timed}");
        r.completion = Completion::Cancelled;
        assert!(table1_csv_row(&r, true).ends_with(",cancelled,4"));
    }

    #[test]
    fn csv_keeps_bounded_separate_from_skipped() {
        // A bounded run: the effort buckets appear in their own
        // columns, never folded together.
        let mut r = row("eigen", 100.0, 150.0, None);
        r.evaluated = 4;
        r.skipped = 2;
        r.bounded = 3;
        r.dirty_ratio = 0.125;
        r.space_size = 10;
        let line = table1_csv_row(&r, true);
        assert_eq!(
            line,
            "eigen,100,100.00,150.00,,0.8000,0.5000,0.003000,4,2,3,0.1250,10,false,0,0,false,0,0,0,complete,0"
        );
        // The window the engine walked is fully accounted.
        assert_eq!(r.evaluated as u128 + r.skipped as u128 + r.bounded, 9);
    }

    #[test]
    fn csv_document_has_header_and_one_line_per_row() {
        let rows = [
            row("hal", 2000.0, 2000.0, None),
            row("man", 30.0, 3000.0, Some(2990.0)),
        ];
        let doc = format_table1_csv(&rows, false);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], TABLE1_CSV_HEADER);
        assert!(lines[2].starts_with("man,100,30.00,3000.00,2990.00,"));
        assert!(doc.ends_with('\n'));
        // Column count matches the header in both timing modes.
        let cols = TABLE1_CSV_HEADER.split(',').count();
        for r in &rows {
            assert_eq!(table1_csv_row(r, false).split(',').count(), cols);
            assert_eq!(table1_csv_row(r, true).split(',').count(), cols);
        }
    }

    #[test]
    fn search_options_round_trip_losslessly() {
        let all_flipped = SearchOptions::new()
            .threads(3)
            .limit(Some(42))
            .bound(true)
            .store_cap(3)
            .warm(false)
            .deadline_ms(Some(500));
        for opts in [SearchOptions::default(), all_flipped] {
            assert_eq!(
                Table1Options::from_search_options(&opts).search_options(),
                opts
            );
        }
    }

    #[test]
    fn subject_of_app_mirrors_the_bundled_fields() {
        let app = lycos_apps::hal();
        let bsbs = app.bsbs();
        let restrictions = Restrictions::from_asap(&bsbs, &HwLibrary::standard()).unwrap();
        let furo = OnceLock::new();
        let s = Table1Subject::of_app(&app, &bsbs, &restrictions, &furo);
        assert_eq!(s.name, "hal");
        assert_eq!(s.lines, app.lines);
        assert_eq!(s.budget, Area::new(app.area_budget));
        assert_eq!(s.iteration, app.iteration);
    }

    #[test]
    fn format_includes_all_columns() {
        let text = format_table1(&[
            row("hal", 2000.0, 2000.0, None),
            row("man", 30.0, 3000.0, Some(2990.0)),
        ]);
        assert!(text.contains("hal"));
        assert!(text.contains("2000%/2000%"));
        assert!(text.contains("50%/50%"));
        assert!(text.contains("after design iteration"));
    }
}
