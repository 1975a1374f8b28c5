//! The traced in-process replay: the server's request path rebuilt
//! from the layers' public functions, so each call can be timed from
//! outside.
//!
//! [`Replay::answer`] follows `lycos serve` step for step — request
//! parse, the admission probe's allocation, the Table 1 row or Pareto
//! sweep through an artifact store of the server's capacity, CSV
//! formatting, response encoding — calling the same public functions
//! in the same order. Every call is one span (`name`, start, end,
//! parent, request id) in a [`Tracer`]; a disabled tracer records
//! nothing, which gives the untraced in-process time the traced run is
//! compared against.

use lycos::apps::BenchmarkApp;
use lycos::core::{allocate, AllocConfig, Restrictions};
use lycos::explore::{
    apply_iteration, format_table1_csv, pareto_csv_row, Table1Row, PARETO_CSV_HEADER,
};
use lycos::hwlib::{Area, HwLibrary};
use lycos::ir::{extract_bsbs, BsbArray, Cdfg};
use lycos::pace::{
    partition, search_best_with_stop, search_pareto_with_stop, search_space, space_size,
    ArtifactStore, PaceConfig, SearchOptions, SearchStats, StopSignal, StoreStats, WarmSeed,
};
use lycos_serve::{Job, JobSource, Request, Response};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Span names, one per layer, as the per-layer metrics name them.
pub const SERVE: &str = "serve";
/// `lycos_frontend::compile`.
pub const FRONTEND: &str = "frontend";
/// `extract_bsbs`.
pub const IR: &str = "ir";
/// `Restrictions::from_asap` and `allocate`.
pub const CORE: &str = "core";
/// The heuristic `partition` (PACE's dynamic program on one allocation).
pub const DP: &str = "pace.dp";
/// `ArtifactStore` lookups, builds, warm seeds and winner records.
pub const ARTIFACTS: &str = "pace.artifacts";
/// `search_best_with_stop` / `search_pareto_with_stop`.
pub const SEARCH: &str = "pace.search";
/// CSV formatting.
pub const EXPLORE: &str = "explore";
/// The root span of one request.
pub const REQUEST: &str = "request";

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, or [`REQUEST`] for a request's root.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The request the call served.
    pub request: usize,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the replay ends. Spans nest two deep: a
/// request root and the layer calls it makes.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and otherwise only
    /// runs the calls.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            root: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a replay lasts under 584 years")
    }

    /// Runs `call` as one span named `name` under the current request.
    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return call();
        }
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        let request = self.root.map_or(0, |r| self.spans[r].request);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.root,
            request,
        });
        out
    }

    /// Runs `call` as the root span of request `request`; the layer
    /// spans `call` opens become its children.
    pub fn request<T>(&mut self, request: usize, call: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return call(self);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: REQUEST,
            start_ns,
            end_ns: start_ns,
            parent: None,
            request,
        });
        let root = self.spans.len() - 1;
        self.root = Some(root);
        let out = call(self);
        self.root = None;
        self.spans[root].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in the order they ended (roots are placed
    /// when they start).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one parent never overlap (the replay is
/// sequential), so their durations add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// The spans as tab-separated text, one per line, under a header.
pub fn spans_tsv(spans: &[Span]) -> String {
    let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\trequest\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        out.push_str(&format!(
            "{i}\t{}\t{}\t{}\t{parent}\t{}\n",
            s.name, s.start_ns, s.end_ns, s.request
        ));
    }
    out
}

/// What the store and search layers reported over a replay: counts
/// the per-layer ratios are computed from.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Store lookups (one per searched job).
    pub lookups: u64,
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups answered by an incremental (donor-diff) build.
    pub incremental: u64,
    /// Blocks cloned from a donor.
    pub blocks_reused: u64,
    /// Blocks re-derived during incremental builds.
    pub blocks_rederived: u64,
    /// Nanoseconds spent in from-scratch builds (no donor), and how
    /// many there were.
    pub cold_build_ns: u64,
    /// From-scratch builds.
    pub cold_builds: u64,
    /// Search calls.
    pub searches: u64,
    /// Searches whose incumbent was reseeded from a recorded winner.
    pub reseeded: u64,
    /// Points fully evaluated.
    pub evaluated: u128,
    /// Points pruned by the bound or skipped as over budget.
    pub pruned: u128,
    /// Full space sizes, summed.
    pub space: u128,
    /// Per-block metric memo hits and misses.
    pub memo_hits: u64,
    /// Memo misses.
    pub memo_misses: u64,
    /// Per-block refreshes re-derived and carried.
    pub dirty_probes: u64,
    /// Refreshes carried from the previous point.
    pub clean_reuses: u64,
}

impl LayerCounts {
    fn note_search(&mut self, stats: &SearchStats, evaluated: usize, skipped: usize, space: u128) {
        self.searches += 1;
        self.reseeded += u64::from(stats.warm_reseeded);
        self.evaluated += evaluated as u128;
        self.pruned += stats.bounded + skipped as u128;
        self.space += space;
        self.memo_hits += stats.cache_hits;
        self.memo_misses += stats.cache_misses;
        self.dirty_probes += stats.dirty_probes;
        self.clean_reuses += stats.clean_reuses;
    }
}

/// A compiled job: its name, line count, BSBs and budget.
struct Compiled {
    cdfg: Cdfg,
    bsbs: BsbArray,
    lines: usize,
    budget: Area,
    iteration: Option<lycos::apps::IterationHint>,
}

/// The in-process server: its own artifact store and compiled bundled
/// apps, the request defaults of `lycos serve`, and the counts the
/// replay has gathered.
pub struct Replay {
    store: ArtifactStore,
    defaults: SearchOptions,
    apps: Vec<BenchmarkApp>,
    library: HwLibrary,
    pace: PaceConfig,
    /// Counts gathered since the replay started.
    pub counts: LayerCounts,
}

impl Replay {
    /// A fresh server state. The bundled apps are compiled here, as the
    /// server compiles them on first use, inside a request-0 span.
    pub fn new(defaults: SearchOptions, tracer: &mut Tracer) -> Replay {
        let apps = tracer.request(0, |t| t.span(FRONTEND, lycos::apps::all));
        Replay {
            store: ArtifactStore::new(defaults.store_cap),
            defaults,
            apps,
            library: HwLibrary::standard(),
            pace: PaceConfig::standard(),
            counts: LayerCounts::default(),
        }
    }

    /// The store's counters.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Answers one request line as request `id`, returning the wire
    /// bytes the server would write.
    ///
    /// # Errors
    ///
    /// Any stage error, as text.
    pub fn answer(
        &mut self,
        id: usize,
        line: &str,
        tracer: &mut Tracer,
    ) -> Result<Vec<u8>, String> {
        tracer.request(id, |t| {
            let response = self.respond(line, t)?;
            let mut wire = Vec::new();
            t.span(SERVE, || response.write_to(&mut wire))
                .map_err(|e| e.to_string())?;
            Ok(wire)
        })
    }

    fn respond(&mut self, line: &str, t: &mut Tracer) -> Result<Response, String> {
        let request = t
            .span(SERVE, || Request::parse(line))
            .map_err(|e| e.to_string())?;
        let (jobs, knobs) = match &request {
            Request::Table1(r) => (&r.jobs, &r.knobs),
            Request::Pareto(r) => (&r.jobs, &r.knobs),
            other => return Err(format!("the replay serves search verbs, not {other:?}")),
        };
        let options = knobs.apply_to(&self.defaults);
        // The admission probe: the server allocates every job once to
        // size its space before searching.
        for job in jobs {
            let compiled = self.compile(job, t)?;
            let restrictions = self.allocate(&compiled, t)?.0;
            std::hint::black_box(space_size(&search_space(&restrictions)));
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let stop = StopSignal::never().with_cancel(cancel);
        let body = match &request {
            Request::Table1(r) => {
                let mut rows = Vec::with_capacity(jobs.len());
                for job in jobs {
                    let compiled = self.compile(job, t)?;
                    rows.push(self.table1_row(&compiled, &options, &stop, t)?);
                }
                t.span(EXPLORE, || format_table1_csv(&rows, r.timing))
            }
            _ => {
                let mut body = format!("{PARETO_CSV_HEADER}\n");
                for job in jobs {
                    let compiled = self.compile(job, t)?;
                    let restrictions = self.allocate(&compiled, t)?.0;
                    let artifacts = self.artifacts(&compiled, &restrictions, t)?;
                    let front = t
                        .span(SEARCH, || {
                            search_pareto_with_stop(
                                &compiled.bsbs,
                                &self.library,
                                compiled.budget,
                                &self.pace,
                                &options,
                                &artifacts,
                                &stop,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    self.counts.note_search(
                        &front.stats,
                        front.evaluated,
                        front.skipped,
                        front.space_size,
                    );
                    let name = compiled.cdfg.name();
                    t.span(EXPLORE, || {
                        for point in &front.points {
                            body.push_str(&pareto_csv_row(name, point));
                            body.push('\n');
                        }
                    });
                }
                body
            }
        };
        Ok(Response::Ok(body.lines().map(str::to_owned).collect()))
    }

    /// `Pipeline::compile`: the frontend for an inline source (bundled
    /// apps are precompiled), then BSB extraction.
    fn compile(&self, job: &Job, t: &mut Tracer) -> Result<Compiled, String> {
        let (cdfg, source, budget, iteration) = match &job.source {
            JobSource::App(name) => {
                let app = self
                    .apps
                    .iter()
                    .find(|a| a.name == *name)
                    .ok_or_else(|| format!("unknown app `{name}`"))?;
                (app.cdfg.clone(), app.source, app.area_budget, app.iteration)
            }
            JobSource::Inline(source) => {
                let cdfg = t
                    .span(FRONTEND, || lycos::frontend::compile(source))
                    .map_err(|e| e.to_string())?;
                (cdfg, source.as_str(), 10_000, None)
            }
        };
        let bsbs = t
            .span(IR, || extract_bsbs(&cdfg, None))
            .map_err(|e| e.to_string())?;
        Ok(Compiled {
            lines: lycos::frontend::line_count(source),
            budget: Area::new(job.budget.unwrap_or(budget)),
            cdfg,
            bsbs,
            iteration,
        })
    }

    /// ASAP restrictions and Algorithm 1, timed as the Table 1 flow
    /// times the allocator.
    fn allocate(
        &self,
        c: &Compiled,
        t: &mut Tracer,
    ) -> Result<(Restrictions, lycos::core::AllocOutcome, std::time::Duration), String> {
        let restrictions = t
            .span(CORE, || Restrictions::from_asap(&c.bsbs, &self.library))
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        let outcome = t
            .span(CORE, || {
                allocate(
                    &c.bsbs,
                    &self.library,
                    &self.pace.eca,
                    c.budget,
                    &restrictions,
                    &AllocConfig::default(),
                )
            })
            .map_err(|e| e.to_string())?;
        Ok((restrictions, outcome, started.elapsed()))
    }

    /// The store lookup of the search flow (incremental builds on, as
    /// the server's defaults have them).
    fn artifacts(
        &mut self,
        c: &Compiled,
        restrictions: &Restrictions,
        t: &mut Tracer,
    ) -> Result<Arc<lycos::pace::SearchArtifacts>, String> {
        let started = Instant::now();
        let (artifacts, outcome) = t
            .span(ARTIFACTS, || {
                self.store.get_or_build_incremental(
                    &c.bsbs,
                    &self.library,
                    restrictions,
                    &self.pace,
                )
            })
            .map_err(|e| e.to_string())?;
        let counts = &mut self.counts;
        counts.lookups += 1;
        counts.hits += u64::from(outcome.hit);
        counts.incremental += u64::from(outcome.incremental);
        counts.blocks_reused += outcome.blocks_reused;
        counts.blocks_rederived += outcome.blocks_rederived;
        if !outcome.hit && !outcome.incremental {
            counts.cold_builds += 1;
            counts.cold_build_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        Ok(artifacts)
    }

    /// `table1_row_with_store_stop`, call for call.
    fn table1_row(
        &mut self,
        c: &Compiled,
        options: &SearchOptions,
        stop: &StopSignal,
        t: &mut Tracer,
    ) -> Result<Table1Row, String> {
        let (restrictions, outcome, alloc_time) = self.allocate(c, t)?;
        let heuristic = t
            .span(DP, || {
                partition(
                    &c.bsbs,
                    &self.library,
                    &outcome.allocation,
                    c.budget,
                    &self.pace,
                )
            })
            .map_err(|e| e.to_string())?;
        let artifacts = self.artifacts(c, &restrictions, t)?;
        let seeds = if options.warm && options.bound {
            t.span(ARTIFACTS, || {
                self.store.warm_seeds(artifacts.key(), c.budget)
            })
        } else {
            Vec::new()
        };
        let search = t
            .span(SEARCH, || {
                search_best_with_stop(
                    &c.bsbs,
                    &self.library,
                    c.budget,
                    &self.pace,
                    options,
                    &artifacts,
                    &seeds,
                    stop,
                )
            })
            .map_err(|e| e.to_string())?;
        self.counts.note_search(
            &search.stats,
            search.evaluated,
            search.skipped,
            search.space_size,
        );
        t.span(ARTIFACTS, || {
            self.store.record_winner(
                artifacts.key(),
                c.budget,
                WarmSeed {
                    time: search.best_partition.total_time.count(),
                    gates: search.best_gates,
                    index: search.best_index,
                },
            )
        });
        let iterated_su = match c.iteration {
            Some(hint) => {
                let adjusted = apply_iteration(&outcome.allocation, hint, &self.library);
                let p = t
                    .span(DP, || {
                        partition(&c.bsbs, &self.library, &adjusted, c.budget, &self.pace)
                    })
                    .map_err(|e| e.to_string())?;
                Some(p.speedup_pct())
            }
            None => None,
        };
        Ok(Table1Row {
            name: c.cdfg.name().to_owned(),
            lines: c.lines,
            heuristic_su: heuristic.speedup_pct(),
            best_su: search.best_partition.speedup_pct(),
            iterated_su,
            size_fraction: heuristic.size_fraction(),
            hw_fraction: heuristic.hw_fraction_static(&c.bsbs),
            alloc_time,
            heuristic_allocation: outcome.allocation,
            best_allocation: search.best_allocation,
            evaluated: search.evaluated,
            skipped: search.skipped,
            bounded: search.stats.bounded,
            dirty_ratio: search.stats.dirty_ratio(),
            space_size: search.space_size,
            truncated: search.truncated,
            // The stable CSV blanks the store telemetry; the store's own
            // counters are read through `counts`.
            artifact_hits: 0,
            artifact_misses: 0,
            warm_reseeded: search.stats.warm_reseeded,
            blocks_reused: 0,
            blocks_rederived: 0,
            incremental_hits: 0,
            completion: search.stats.completion,
            unvisited: search.stats.unvisited,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        };
        let spans = [
            span(REQUEST, 0, 100, None),
            span(SERVE, 0, 10, Some(0)),
            span(SEARCH, 20, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), [20, 10, 70]);
    }

    #[test]
    fn replay_answers_like_the_reference() {
        let defaults = lycos_serve::ServeConfig::default().defaults;
        let apps = lycos::apps::all();
        let line = "table1 app=man format=csv";
        let mut tracer = Tracer::new(true);
        let mut replay = Replay::new(defaults.clone(), &mut tracer);
        let wire = replay.answer(1, line, &mut tracer).unwrap();
        let text = String::from_utf8(wire).unwrap();
        let lines: Vec<String> = text.lines().skip(1).map(str::to_owned).collect();
        let expected = crate::check::reference(line, &defaults, &apps).unwrap();
        assert_eq!(crate::check::compare(&expected, &lines), Ok(()));
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for layer in [SERVE, IR, CORE, DP, ARTIFACTS, SEARCH, EXPLORE, REQUEST] {
            assert!(names.contains(&layer), "no {layer} span");
        }
        assert_eq!(replay.counts.cold_builds, 1);
        assert_eq!(replay.counts.searches, 1);
    }
}
