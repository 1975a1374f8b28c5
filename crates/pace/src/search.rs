//! Memoised, parallel, bound-driven allocation-space search.
//!
//! The paper's baseline partitions the application for *every*
//! allocation in the space (§5) — exactly the cost its §4.4 complexity
//! argument holds against the PACE allocator. [`search_best`] makes
//! that baseline usable on larger spaces with four observations:
//!
//! * **Memoisation** — a BSB's list schedule depends only on the unit
//!   counts of the kinds its operations use, and its length fixes the
//!   block's hardware time, states and controller area. The artifacts'
//!   [`ScheduleTable`](crate::ScheduleTable) keeps one length per projection of each block's
//!   kinds, filled on first use and read in place by the bound tables
//!   and every worker ([`MetricsCache`]), so a projection is scheduled
//!   once per artifact set — across workers, requests and budgets, and
//!   for the content-clean blocks of an edit. Run communication costs
//!   never depend on the allocation at all: the artifacts price every
//!   run once ([`CommCosts`]), and every worker reads that one table.
//! * **Incremental frontier metrics** — one odometer step changes one
//!   (occasionally a few) unit-kind counts, and every change is a
//!   carry into the digits below some position. The sweep keeps one
//!   carry watermark between refreshes and re-derives only the blocks
//!   whose lowest digit lies below it ([`MetricsCache::step_into`]),
//!   each block's lowest digit computed once per artifact set; clean
//!   blocks are reused without even probing the memo. A jump to a
//!   stolen chunk refreshes from scratch. The dirty/clean split is
//!   reported as [`SearchStats::dirty_ratio`].
//! * **Branch-and-bound** — with [`SearchOptions::bound`] on, the walk
//!   skips whole odometer subtrees whose admissible lower bound
//!   ([`crate::SearchBounds`]) proves they cannot beat the incumbent
//!   under the strict `(time, area)` improvement rule — including a
//!   leaf-level check that spares the DP for individually hopeless
//!   candidates. The bound folds in each block's admissible
//!   communication floor, priced off the artifacts' traffic table
//!   ([`SearchArtifacts::bounds`]), instead of relaxing all traffic to
//!   zero, pruning harder on communication-dominated applications.
//!   After a surviving candidate's metrics refresh, a fractional
//!   knapsack over its blocks' controller areas
//!   ([`crate::BudgetRelaxation`]) puts the controller budget back
//!   into the bound and spares the DP of candidates whose data path
//!   leaves too little controller area
//!   ([`Objective::prune_candidate`]). Workers share their best
//!   `(time, area)` through an [`AtomicU64`]-packed incumbent so one
//!   worker's early optimum tightens every other worker's bound;
//!   cross-worker pruning is deliberately stricter than own-range
//!   pruning so the deterministic final reduce still returns the
//!   *field-exact* winner of the exhaustive walk (same allocation,
//!   partition, time and area). Pruned points are accounted separately
//!   ([`SearchStats::bounded`]).
//! * **Parallelism** — the odometer sequence is cut into
//!   subtree-aligned chunks behind an atomic cursor and workers
//!   *steal* the next chunk as they finish, so a worker handed a
//!   heavily pruned region doesn't idle while its neighbours grind. A
//!   single worker takes the whole window as one chunk — the
//!   sequential walk. Workers share the artifacts' traffic table
//!   read-only, and each keeps its own scratch; results reduce
//!   deterministically under the strict `(time, area, index)`
//!   improvement order — exactly the order the
//!   sequential walk discovers winners in — so the outcome is
//!   bit-identical to [`exhaustive_best`](crate::exhaustive_best) at any worker count:
//!   including `evaluated`, `skipped` and truncation behaviour when
//!   bounding is off, and the field-exact winner when it is on. The
//!   per-candidate DP leaf stores each row as a staircase of steps
//!   merged from earlier rows ([`DpScratch`]).
//!
//! The incumbent/record/reduce seam of the engine is the
//! crate-internal [`Objective`] trait: [`BestUnderBudget`] *is* the
//! classic single-incumbent engine described above (bit-identical,
//! including the [`AtomicU64`]-packed cross-worker incumbent and the
//! lexicographic `(time, area, index)` reduce), while [`ParetoFront`]
//! keeps a dominance frontier instead — branch-and-bound prunes
//! against the frontier's area-conditional best time, still
//! admissibly — so one sweep ([`search_pareto`]) emits the whole
//! time×area trade-off curve instead of one point per budget. The seam
//! is not exported: the public entries ([`search_best_with_stop`],
//! [`search_pareto_with_stop`] and their conveniences) are the only
//! way to run an objective.
//!
//! # The all-software anchor
//!
//! The walk evaluates the all-software point (odometer index 0) first,
//! under a never-signal and with no subtree or budget prune, exactly
//! as the paper's baseline and [`exhaustive_best`](crate::exhaustive_best) start. Whichever
//! worker takes chunk 0 does it, and every run starts its workers — a
//! stop that trips while the bound tables are built included — so
//! index 0 is booked exactly once whatever a warm seed or a shared
//! incumbent would prune. Every reduce therefore holds a feasible,
//! DP-exact point: a stopped best answers at least the all-software
//! point, and a stopped Pareto sweep's frontier starts with it. A stop
//! costs at most that one DP past its trip, and a window holding only
//! index 0 is `Complete` whatever the signal does.
//!
//! # Serving every budget from one stored staircase
//!
//! A complete, unlimited [`search_pareto`] sweep at cap `C` over
//! store-resident artifacts with [`SearchOptions::warm`] on keeps its
//! reduced staircase on the artifacts ([`StoredFront`]). Afterwards
//! every bounded, unlimited, warm [`search_best_with_stop`] at a budget
//! `B ≤ C`, and every such [`search_pareto_with_stop`] at `B′ ≤ C`, is
//! answered from it without a sweep. The answers are field-exact:
//!
//! * **Staircase order.** A point is one candidate at one controller
//!   level `a`: area `gates + a·q`, time `row[a]` of its DP. The
//!   staircase keeps, area-ascending, every point whose
//!   `(time, gates, index)` key is smaller than the key of every point
//!   at no more area, so keys strictly fall along it and its last
//!   entry with area ≤ `B` carries the minimum key over every point
//!   within `B`. Ties on time alone are not enough to drop an entry: a
//!   larger-area entry with the same time and a smaller data path
//!   stays, because it wins that tie at its own budget. Every pruning
//!   rule of [`ParetoFront`] drops only points some recorded point
//!   beats in this key within no more area.
//! * **Level monotonicity.** A fresh search at `B` evaluates each
//!   candidate with `floor((B − gates)/q)` levels and reduces by
//!   `(time, gates, index)`. A DP cell at level `a` does not depend on
//!   how many levels the row has, and rows are non-increasing in the
//!   level, so the candidate's time at `B` is the minimum of its
//!   points within `B`, each of which the sweep at `C ≥ B` evaluated.
//!   The fresh winner is therefore the minimum key over every point
//!   within `B`: the staircase's last entry within `B`.
//! * **One-DP partition.** The staircase stores the partition
//!   backtracked at the entry's own level, which may differ from the
//!   one at `B` on the same time. A served best runs one DP of the
//!   winner's allocation at `B` — the evaluation the fresh search
//!   backtracks — so its `Partition` is bit-identical.
//! * **Frontier prefix.** A fresh sweep at `B′ ≤ C` sees exactly the
//!   points within `B′`, with the same times and level backtracks, so
//!   its time frontier is the stored staircase's time frontier cut at
//!   `B′` ([`StoredFront::frontier_within`]).
//!
//! A served search books the whole space as `bounded` (a served best
//! moves its one DP to `evaluated`) and reports
//! [`SearchStats::served`]; truncated, limited or `no-warm` requests
//! are never stored, and limited, unbounded or `no-warm` requests are
//! never served.
//!
//! # Serving exact repeats from a recorded answer
//!
//! A complete, warm best-under-budget walk over store-resident
//! artifacts records its result under `(budget, limit, bound)` (the
//! 32 most recently used keys are kept). An exact repeat is served a
//! copy with the walk's own winner and accounting, so an unbounded
//! repeat still equals [`exhaustive_best`](crate::exhaustive_best). Stopped runs are never
//! recorded.

use crate::artifacts::{AnswerKey, SearchArtifacts, WarmSeed};
use crate::bounds::{BudgetRelaxation, LevelState};
use crate::metrics::{infeasible_block_metrics, FROM_SCRATCH};
use crate::stop::{Completion, StopReason, StopSignal, STOP_CHECK_INTERVAL};
use crate::{
    BsbMetrics, CommCosts, DpScratch, MetricsCache, PaceConfig, PaceError, Partition, SearchBounds,
    SearchResult,
};
use lycos_core::{RMap, Restrictions};
use lycos_hwlib::{Area, Cycles, FuId, HwLibrary};
use lycos_ir::BsbArray;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Knobs of the allocation-search engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SearchOptions {
    /// Worker threads for the sweep. `0` = one per available core;
    /// `1` = sequential (still memoised). Multiple workers take
    /// subtree-aligned chunks off a shared cursor (work-stealing), so
    /// bound-pruned regions don't leave workers idle; only the load
    /// balance and [`SearchStats::steals`] depend on the count.
    pub threads: usize,
    /// Cap on the number of *evaluated* allocations, as in
    /// [`exhaustive_best`](crate::exhaustive_best); `None` exhausts
    /// the space. With `bound` on the limit caps the same candidate
    /// window, so the winner still matches the limited exhaustive
    /// walk; bound-pruned points inside the window do not count
    /// against the limit.
    pub limit: Option<usize>,
    /// Branch-and-bound: skip odometer subtrees whose admissible lower
    /// bound ([`crate::SearchBounds`]) proves they cannot improve the
    /// incumbent. The returned winner is *field-exact* against the
    /// exhaustive walk — same allocation, partition, time and area,
    /// same `(time, area)` tie-break — but `evaluated`/`skipped`
    /// become engine-effort telemetry: pruned points are counted in
    /// [`SearchStats::bounded`] instead, and under multiple worker
    /// threads the exact split depends on incumbent-sharing timing.
    ///
    /// Cross-worker sharing degrades gracefully on astronomically
    /// scaled applications: an improving `(time, area)` pair with a
    /// component ≥ 2³² − 1 cannot be packed into the shared incumbent
    /// word and is published as *no information* instead of a
    /// saturated lie (counted by
    /// [`SearchStats::unpacked_incumbents`]). Each worker still prunes
    /// against its own incumbent and the result is unchanged — only
    /// the cross-worker prune assist is lost for such pairs.
    ///
    /// The bound tables are built once per artifact set
    /// ([`crate::SearchArtifacts::bounds`]) and fold in the admissible
    /// communication floor, priced off the artifacts' traffic table:
    /// blocks forced to hardware carry their minimum unavoidable
    /// run-traffic share instead of relaxing communication to zero.
    /// Each surviving candidate then meets the controller-budget
    /// relaxation ([`crate::BudgetRelaxation`]) before its DP; the
    /// candidates it prunes are counted in
    /// [`SearchStats::budget_pruned`] as well.
    pub bound: bool,
    /// Capacity of the cross-request [`crate::ArtifactStore`] in
    /// applications, for the layers that own one (the
    /// `lycos::Pipeline` facade, the serve loop). The
    /// engine itself never reads this — artifacts are handed in — but
    /// carrying it here lets one knob table configure the whole stack.
    /// Clamped to at least `1` by the store constructor.
    pub store_cap: usize,
    /// Warm-start: cross-request reuse of what earlier runs over the
    /// same store-resident artifacts learned. Three mechanisms ride
    /// this knob:
    ///
    /// * a complete, unlimited [`search_pareto`] sweep keeps its
    ///   `(time, gates, index)` staircase on the artifacts, and every
    ///   later bounded ([`SearchOptions::bound`]), unlimited search at
    ///   a budget up to that sweep's is answered from it without a
    ///   sweep ([`SearchStats::served`]);
    /// * a complete best-under-budget walk records its answer under
    ///   `(budget, limit, bound)`, and an exact repeat is served a copy
    ///   without a sweep ([`SearchStats::served`]);
    /// * on an artifact-store hit the best-under-budget shared
    ///   incumbent is reseeded from a previously recorded winner whose
    ///   budget fits under the current one (requires
    ///   [`SearchOptions::bound`] and store-supplied seeds).
    ///
    /// All three are sound — results stay field-identical to a cold
    /// run — so this knob exists purely for A/B benchmarking the warm
    /// path. On by default; off leaves no trace (nothing served,
    /// nothing recorded). The artifacts' [`ScheduleTable`](crate::ScheduleTable) does not
    /// ride this knob: a filled slot changes no result, so `no-warm`
    /// runs read and fill it too.
    pub warm: bool,
    /// Anytime deadline in milliseconds, measured from the moment the
    /// engine starts its sweep; `None` (the default) searches to
    /// completion. On expiry every worker stops cleanly at its next
    /// stop check, the deterministic reduce runs over whatever was
    /// visited, and the result carries
    /// [`Completion::DeadlineTruncated`] plus the unvisited remainder
    /// in [`SearchStats::unvisited`] — a best-so-far incumbent for
    /// [`search_best`], a partial frontier for [`search_pareto`]. The
    /// all-software point is the walk's own first point and is always
    /// evaluated, so a deadline overruns by at most that one DP (plus
    /// one DP row or one stop-check interval of the sweep).
    /// Folded together with any externally supplied
    /// [`StopSignal`] (earliest deadline wins) by
    /// [`search_best_with_stop`] and [`search_pareto_with_stop`].
    pub deadline_ms: Option<u64>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            threads: 0,
            limit: None,
            bound: false,
            store_cap: 8,
            warm: true,
            deadline_ms: None,
        }
    }
}

impl SearchOptions {
    /// Sequential, memoised, unlimited, unbounded — the reference
    /// configuration.
    pub fn sequential() -> Self {
        SearchOptions {
            threads: 1,
            ..SearchOptions::default()
        }
    }

    /// The default configuration, as the seed of a builder chain
    /// mirroring the `lycos::Pipeline` idiom:
    /// `SearchOptions::new().threads(4).bound(true)`. The pub fields
    /// remain usable directly; the chain is sugar over them.
    pub fn new() -> Self {
        SearchOptions::default()
    }

    /// Replaces [`SearchOptions::threads`].
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces [`SearchOptions::limit`].
    #[must_use]
    pub fn limit(mut self, limit: Option<usize>) -> Self {
        self.limit = limit;
        self
    }

    /// Replaces [`SearchOptions::bound`].
    #[must_use]
    pub fn bound(mut self, bound: bool) -> Self {
        self.bound = bound;
        self
    }

    /// Replaces [`SearchOptions::store_cap`].
    #[must_use]
    pub fn store_cap(mut self, store_cap: usize) -> Self {
        self.store_cap = store_cap;
        self
    }

    /// Replaces [`SearchOptions::warm`].
    #[must_use]
    pub fn warm(mut self, warm: bool) -> Self {
        self.warm = warm;
        self
    }

    /// Replaces [`SearchOptions::deadline_ms`].
    #[must_use]
    pub fn deadline_ms(mut self, deadline_ms: Option<u64>) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }

    /// Sweep workers for a sweep over `candidates` points: `0` = one
    /// per available core, never more workers than points (a
    /// degenerate `0`-point window still gets one), and never more than
    /// a hard cap. Results are bit-identical at any count; only the
    /// wall clock changes.
    pub fn resolve(&self, candidates: u128) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        requested.clamp(1, candidates.clamp(1, MAX_THREADS as u128) as usize)
    }
}

/// Telemetry of one search run. Not part of a [`SearchResult`]'s
/// identity — two results are equal if they found the same answer over
/// the same space, however long it took.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Worker threads the sweep actually used.
    pub threads: usize,
    /// Per-BSB schedule lookups of the metrics refresh answered from a
    /// filled [`ScheduleTable`](crate::ScheduleTable) slot.
    pub cache_hits: u64,
    /// Per-BSB schedule lookups that had to list-schedule. Slots the
    /// bound-table build filled before the sweep are hits here.
    pub cache_misses: u64,
    /// Schedule-table slots the sweep filled — every miss inside the
    /// table, so it equals `cache_misses` unless a count ran past its
    /// cap.
    pub key_allocs: u64,
    /// Improving candidates whose `(time, area)` pair could not be
    /// packed into the shared incumbent word (a component ≥ 2³² − 1)
    /// and was published as *no information* instead — see
    /// [`SearchOptions::bound`]. Always `0` unless bounding is on;
    /// non-zero means cross-worker pruning ran without those assists
    /// (the result is unaffected either way).
    pub unpacked_incumbents: u64,
    /// Points never evaluated because an admissible lower bound proved
    /// their whole subtree could not improve the incumbent — always
    /// `0` unless [`SearchOptions::bound`] is on. Counted separately
    /// from `skipped`, so
    /// `evaluated + skipped + bounded + truncated_points` always
    /// equals the space size.
    pub bounded: u128,
    /// The subset of `bounded` pruned one candidate at a time by the
    /// controller-budget relaxation ([`crate::BudgetRelaxation`]):
    /// candidates whose metrics were refreshed but whose DP the
    /// relaxation proved hopeless.
    pub budget_pruned: u64,
    /// Points past the truncation window — never visited because the
    /// evaluation limit cut the space short (`0` on full sweeps).
    pub truncated_points: u128,
    /// Per-block metric entries actually re-derived when refreshing a
    /// candidate's metrics (dirty kinds after an odometer step, plus
    /// every block of a from-scratch refresh).
    pub dirty_probes: u64,
    /// Per-block metric entries reused untouched across an odometer
    /// step — the incremental-metrics saving: these cost neither a
    /// projection nor a memo probe.
    pub clean_reuses: u64,
    /// Chunks taken by work-stealing workers beyond their first — the
    /// rebalancing the work-stealing scheduler performed. `0` with a
    /// single worker.
    pub steals: u64,
    /// Requests this search answered from a cross-request
    /// [`ArtifactStore`](crate::ArtifactStore) hit (artifacts reused).
    /// Set by the store-owning caller, not the engine; `0` on the
    /// store-less compat paths.
    pub artifact_hits: u64,
    /// Requests that had to build their artifacts from scratch before
    /// searching. Set by the store-owning caller; `0` on the
    /// store-less compat paths.
    pub artifact_misses: u64,
    /// Whether a stored previous winner was actually installed as the
    /// initial shared incumbent (warm-start reseeding) — requires
    /// [`SearchOptions::bound`] + [`SearchOptions::warm`], a store
    /// hit, and a recorded winner whose budget fits under the current
    /// one. The result is field-identical either way; this flag is the
    /// telemetry that the prune had a head start.
    pub warm_reseeded: bool,
    /// Whether the answer came without a sweep (see
    /// [`SearchOptions::warm`]): a stored staircase books the space as
    /// `bounded` bar a best answer's one DP (`evaluated == 1`), and a
    /// recorded answer replays its walk's counts, so the accounting
    /// identity holds unchanged.
    pub served: bool,
    /// Blocks whose allocation-independent artifacts (statics, bound
    /// tables) were cloned from a resident store entry on the
    /// incremental diff path instead of being re-derived. Zero on
    /// store hits, from-scratch misses, and store-less runs.
    pub blocks_reused: u64,
    /// Blocks re-derived from scratch during an incremental build —
    /// the edited (dirty) blocks of the diff.
    pub blocks_rederived: u64,
    /// Whether this request's artifacts were built incrementally from
    /// a fingerprint-overlapping donor entry (1) rather than from
    /// scratch or served whole from the store (0). Counted as a `u64`
    /// so the Table-1 CSV and serve telemetry can sum it across
    /// requests.
    pub incremental_hits: u64,
    /// How the run ended: [`Completion::Complete`] (exact — every
    /// point of the candidate window visited), or truncated early by a
    /// deadline or an external cancel flag (best-so-far). Telemetry
    /// like every other stats field: a `Complete` run compares equal
    /// to the sequential reference whatever its engine shape.
    pub completion: Completion,
    /// Points inside the candidate window that no worker reached
    /// before the stop signal tripped — the fifth accounting bucket:
    /// `evaluated + skipped + bounded + truncated_points + unvisited`
    /// always equals the space size. Zero on every `Complete` run.
    pub unvisited: u128,
    /// Wall-clock time of the whole search.
    pub elapsed: Duration,
}

impl SearchStats {
    /// Fraction of schedule lookups answered from the table, in
    /// `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of per-block metric refreshes that actually had to be
    /// re-derived, in `(0, 1]` — the incremental-metrics figure: an
    /// odometer step dirties few kinds, so most blocks ride along
    /// untouched and the ratio sits well below 1. Exactly `1.0` when
    /// nothing was ever reused (single-candidate runs, or a run that
    /// never stepped).
    pub fn dirty_ratio(&self) -> f64 {
        let total = self.dirty_probes + self.clean_reuses;
        if total == 0 {
            1.0
        } else {
            self.dirty_probes as f64 / total as f64
        }
    }

    /// Folds a sweep worker's telemetry into the run's: every count a
    /// worker keeps adds up, and the graver stop wins — a cancel
    /// outranks a deadline, either outranks completion. The rest is
    /// the run's own to set.
    pub(crate) fn merge(&mut self, worker: &SearchStats) {
        self.cache_hits += worker.cache_hits;
        self.cache_misses += worker.cache_misses;
        self.key_allocs += worker.key_allocs;
        self.unpacked_incumbents += worker.unpacked_incumbents;
        self.bounded += worker.bounded;
        self.budget_pruned += worker.budget_pruned;
        self.dirty_probes += worker.dirty_probes;
        self.clean_reuses += worker.clean_reuses;
        self.steals += worker.steals;
        if self.completion.is_complete() || worker.completion == Completion::Cancelled {
            self.completion = worker.completion;
        }
    }
}

/// Mixed-radix odometer over the allocation space, with incremental
/// data-path area tracking. Dimension 0 is the least-significant digit,
/// matching the sequential walk of [`exhaustive_best`](crate::exhaustive_best): the point at
/// index `i` is the `i`-th allocation that walk visits.
struct Odometer {
    caps: Vec<u32>,
    fus: Vec<FuId>,
    unit_area: Vec<u64>,
    counts: Vec<u32>,
    area: u64,
    /// `weight[pos]` = number of points in a subtree fixing digits
    /// `pos..` (saturating for astronomically large spaces, which only
    /// makes the walk decline to skip such a subtree).
    weight: Vec<u128>,
}

/// `weights[pos]` = points in a subtree fixing digits `pos..` — the
/// cumulative radix products of the mixed-radix space (saturating for
/// astronomically large spaces). `weights[dims.len()]` is the space
/// size itself. Shared by the odometer and the work-stealing chunk
/// sizing, so chunk boundaries are guaranteed to be subtree roots.
fn subtree_weights(dims: &[(FuId, u32)]) -> Vec<u128> {
    let mut weight = Vec::with_capacity(dims.len() + 1);
    weight.push(1u128);
    for &(_, cap) in dims {
        let last = *weight.last().expect("starts non-empty");
        weight.push(last.saturating_mul(cap as u128 + 1));
    }
    weight
}

impl Odometer {
    /// The odometer positioned at `index` (`0 ≤ index < space size`).
    fn at(dims: &[(FuId, u32)], lib: &HwLibrary, index: u128) -> Odometer {
        let caps: Vec<u32> = dims.iter().map(|&(_, cap)| cap).collect();
        let fus: Vec<FuId> = dims.iter().map(|&(fu, _)| fu).collect();
        let unit_area: Vec<u64> = fus.iter().map(|&fu| lib.area_of(fu).gates()).collect();
        let weight = subtree_weights(dims);
        let mut rest = index;
        let mut counts = vec![0u32; dims.len()];
        for (c, &cap) in counts.iter_mut().zip(&caps) {
            let base = cap as u128 + 1;
            *c = (rest % base) as u32;
            rest /= base;
        }
        debug_assert_eq!(rest, 0, "index outside the space");
        let area = counts
            .iter()
            .zip(&unit_area)
            .map(|(&c, &a)| c as u64 * a)
            .sum();
        Odometer {
            caps,
            fus,
            unit_area,
            counts,
            area,
            weight,
        }
    }

    /// Advances to the next point; `false` once the space is exhausted.
    fn step(&mut self) -> bool {
        self.advance(0).is_some()
    }

    /// Advances past the subtree rooted at digit `from` (digits below
    /// `from` must be zero — they stay zero), carrying upward. Returns
    /// the highest digit position that changed, or `None` once the
    /// space is exhausted. `advance(0)` is a plain step.
    fn advance(&mut self, from: usize) -> Option<usize> {
        debug_assert!(
            self.counts[..from].iter().all(|&c| c == 0),
            "subtree skips start at a subtree root"
        );
        for pos in from..self.counts.len() {
            self.counts[pos] += 1;
            self.area += self.unit_area[pos];
            if self.counts[pos] <= self.caps[pos] {
                return Some(pos);
            }
            self.area -= self.unit_area[pos] * (self.caps[pos] as u64 + 1);
            self.counts[pos] = 0;
        }
        None
    }

    /// Number of least-significant zero digits — the current point is
    /// the root of subtrees at every level up to this.
    fn trailing_zeros(&self) -> usize {
        self.counts
            .iter()
            .position(|&c| c != 0)
            .unwrap_or(self.counts.len())
    }

    /// Points in a subtree fixing digits `pos..`.
    fn subtree_width(&self, pos: usize) -> u128 {
        self.weight[pos]
    }

    /// The current point as a resource map (test-only: the sweep
    /// itself reuses one map via [`Odometer::write_rmap`]).
    #[cfg(test)]
    fn rmap(&self) -> RMap {
        let mut out = RMap::new();
        self.write_rmap(&mut out);
        out
    }

    /// Writes the current point into a reused resource map — the
    /// sweep's steady-state path, which updates one map in place
    /// instead of rebuilding a fresh `RMap` per candidate.
    fn write_rmap(&self, into: &mut RMap) {
        for (&fu, &c) in self.fus.iter().zip(&self.counts) {
            into.set(fu, c);
        }
    }

    /// Data-path area of the current point, in gate equivalents.
    fn area_gates(&self) -> u64 {
        self.area
    }
}

/// Pins where a limited search stops, before any partitioning runs:
/// `(bound, truncated)`, where workers cover `[0, bound)`.
///
/// The sequential walk evaluates the all-software point, then skips
/// area-infeasible candidates freely and truncates at the first
/// evaluable candidate past the limit. Walking the odometer with area
/// tracking alone (no scheduling) finds that exact index, so parallel
/// workers can cover `[0, bound)` and reproduce `evaluated`, `skipped`
/// and `truncated` bit-for-bit. Full sweeps (`limit == None`) run no
/// walk at all.
fn truncation_bound(
    dims: &[(FuId, u32)],
    lib: &HwLibrary,
    total_gates: u64,
    space: u128,
    limit: Option<usize>,
) -> (u128, bool) {
    let Some(limit) = limit else {
        return (space, false);
    };
    // The all-software point (index 0) is always evaluated, even under
    // `limit = 0`; truncation strikes the (limit+1)-th evaluable point.
    let target = limit.max(1) as u128 + 1;
    let mut odo = Odometer::at(dims, lib, 0);
    let mut count = 1u128;
    let mut index = 0u128;
    while odo.step() {
        index += 1;
        if odo.area_gates() <= total_gates {
            count += 1;
            if count == target {
                // `index` is the first evaluable point *outside* the
                // window — not covered.
                return (index, true);
            }
        }
    }
    (space, false)
}

/// "No shared incumbent yet" — also the packing of any `(time, area)`
/// pair too large to share (see [`pack_incumbent`]).
const NO_INCUMBENT: u64 = u64::MAX;

/// Packs a worker's best `(time, area)` into one `u64` — time in the
/// high 32 bits (major), area in the low 32 (minor) — so the `u64`
/// order *is* the strict `(time, area)` improvement order and workers
/// tighten each other with a single [`AtomicU64::fetch_min`]. Pairs
/// that do not fit 32 bits pack to [`NO_INCUMBENT`] (no information):
/// a saturated component would advertise an achievement no candidate
/// made and could prune the true winner.
fn pack_incumbent(time: u64, area: u64) -> u64 {
    if time >= u64::from(u32::MAX) || area >= u64::from(u32::MAX) {
        return NO_INCUMBENT;
    }
    (time << 32) | area
}

/// Inverse of [`pack_incumbent`]; `None` when nothing usable is shared.
fn unpack_incumbent(packed: u64) -> Option<(u64, u64)> {
    if packed == NO_INCUMBENT {
        None
    } else {
        Some((packed >> 32, packed & u64::from(u32::MAX)))
    }
}

/// Decides whether a subtree with admissible time bound `lb` and
/// minimal data-path area `min_area` can be skipped.
///
/// Against the worker's **own** incumbent (always an earlier index of
/// its own range) ties prune at equal-or-worse area too: a later
/// candidate equalling the incumbent never replaces it under the
/// strict improvement rule. Against the **shared** incumbent (any
/// worker, any index) pruning is stricter — equal `(time, area)` must
/// survive, because the earliest point achieving the global optimum
/// may sit in *this* worker's range and must reach the deterministic
/// reduce for the result to stay field-exact vs the sequential walk.
fn subtree_pruned(
    lb: u64,
    min_area: u64,
    own: Option<(u64, u64)>,
    shared: Option<(u64, u64)>,
) -> bool {
    if let Some((time, area)) = own {
        if lb > time || (lb >= time && min_area >= area) {
            return true;
        }
    }
    if let Some((time, area)) = shared {
        if lb > time || (lb >= time && min_area > area) {
            return true;
        }
    }
    false
}

/// One evaluated allocation, as the engine hands it to an
/// [`Objective`]: the candidate's identity (allocation, data-path
/// gates, odometer index) plus read access to the full area×time
/// trade-off row the PACE DP just computed, including on-demand
/// backtracks at any controller-area level.
pub(crate) struct CandidateEval<'w> {
    scratch: &'w DpScratch,
    metrics: &'w [BsbMetrics],
    allocation: &'w RMap,
    time: u64,
    gates: u64,
    index: u128,
    quantum: u64,
}

impl CandidateEval<'_> {
    /// Hybrid time under the full controller budget — the minimum of
    /// the whole trade-off row.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Data-path area of the allocation, in gate equivalents.
    pub fn gates(&self) -> u64 {
        self.gates
    }

    /// Odometer index of the candidate — the deterministic tie-break
    /// key reduces order by.
    pub fn index(&self) -> u128 {
        self.index
    }

    /// The allocation itself. Clone it to keep it: the reference is
    /// into the worker's reused candidate map, overwritten at the
    /// next point.
    pub fn allocation(&self) -> &RMap {
        self.allocation
    }

    /// The DP area quantum in gates: level `a` is a controller budget
    /// of `a * quantum()` gates.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// The trade-off row's corners, level-ascending: level 0 and its
    /// time, then each `(level, time)` where the hybrid time under a
    /// controller budget of `level` quanta strictly falls. Every other
    /// level repeats the time of the last corner below it; the last
    /// corner's time is [`CandidateEval::time`].
    pub fn time_falls(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.scratch.time_falls()
    }

    /// Materialises the partition behind [`CandidateEval::time`].
    pub fn backtrack(&self) -> Partition {
        self.scratch.backtrack(self.metrics, Area::new(self.gates))
    }

    /// Materialises the partition at controller level `level` —
    /// bit-identical to the backtrack a separate evaluation under a
    /// controller budget of `level` quanta would produce.
    pub fn backtrack_at_level(&self, level: usize) -> Partition {
        self.scratch
            .backtrack_at(self.metrics, Area::new(self.gates), level)
    }
}

/// The search engine's pluggable incumbent/record/reduce seam.
///
/// The generic sweep — odometer walk, memoised incremental metrics,
/// admissible branch-and-bound, work-stealing fan-out — is
/// objective-agnostic. What "improving" means, what workers share to
/// tighten each other's pruning, and how per-worker results reduce
/// into one deterministic answer all live behind this trait:
/// [`BestUnderBudget`] is the classic single-incumbent engine
/// ([`search_best`] exactly), [`ParetoFront`] keeps a dominance
/// frontier and emits the whole time×area curve in one sweep
/// ([`search_pareto`]).
///
/// # Pruning contract
///
/// [`Objective::prune`] may only return `true` for a subtree when no
/// point of it could change the reduced output. `lb` is an
/// *admissible* (never over-estimating) lower bound on the time of
/// every point in the subtree, and `min_area` a lower bound on every
/// point's data-path gates. Cross-worker state read from `Shared` is
/// racy by design: an implementation must keep its pruning sound and
/// its reduce deterministic under any interleaving.
pub(crate) trait Objective: Sync {
    /// Cross-worker state (the shared incumbent / frontier).
    type Shared: Sync;
    /// Per-worker state, moved into the reduce.
    type Local: Send;
    /// What [`Objective::reduce`] distils the locals into.
    type Output;

    /// Fresh shared state for one engine run.
    fn shared(&self) -> Self::Shared;

    /// Fresh per-worker state.
    fn local(&self) -> Self::Local;

    /// Installs a stored previous winner into the fresh shared state
    /// as the initial incumbent (warm-start reseeding), returning
    /// whether the seed was actually taken. The engine only offers
    /// seeds whose odometer index lies inside the current truncation
    /// window and only when bounding is on; an objective for which a
    /// foreign incumbent is unsound (or meaningless, like a frontier)
    /// keeps this default and reports `false`.
    fn seed_shared(&self, _shared: &Self::Shared, _seed: WarmSeed) -> bool {
        false
    }

    /// The worker is about to jump to a non-adjacent index (a stolen
    /// chunk): refresh whatever view of `shared` the local caches.
    fn reseed(&self, _local: &mut Self::Local, _shared: &Self::Shared) {}

    /// Called once per bound-check round, before a batch of
    /// [`Objective::prune`] probes: refresh the local's cached view of
    /// `shared` here, so the hot per-subtree probes touch no shared
    /// memory.
    fn observe(&self, _local: &mut Self::Local, _shared: &Self::Shared) {}

    /// Whether a subtree with admissible time bound `lb` and minimal
    /// data-path gates `min_area` can be skipped wholesale.
    fn prune(&self, local: &Self::Local, lb: u64, min_area: u64) -> bool;

    /// Whether one candidate whose metrics are known can skip its DP.
    /// The candidate's data path costs `gates`; its DP would fill
    /// controller levels `0..=levels`, level `a` costing `a · quantum`
    /// gates of controller, and its time at level `a` is at least
    /// `relax.lower_bound(a · quantum)`. The same contract as
    /// [`Objective::prune`]: return `true` only when no level of the
    /// candidate could change the reduced output.
    ///
    /// The default prunes against the full-budget bound, which is
    /// sound for every objective: no level can beat it.
    fn prune_candidate(
        &self,
        local: &Self::Local,
        relax: &BudgetRelaxation,
        gates: u64,
        levels: usize,
        quantum: u64,
    ) -> bool {
        self.prune(local, relax.lower_bound(levels as u64 * quantum), gates)
    }

    /// An allocation was evaluated. `publish` is `true` when
    /// branch-and-bound is on — the one case where advertising
    /// progress cross-worker buys pruning.
    fn record(
        &self,
        local: &mut Self::Local,
        shared: &Self::Shared,
        publish: bool,
        eval: &CandidateEval<'_>,
    );

    /// Folds a worker's objective-specific telemetry into the worker's
    /// [`SearchStats`].
    fn fold_stats(&self, _local: &Self::Local, _stats: &mut SearchStats) {}

    /// Deterministically reduces every worker's local state into the
    /// final output. Locals arrive in worker order, but a correct
    /// implementation must not depend on which worker saw which
    /// points — the scheduler hands them out in timing-dependent
    /// ways.
    fn reduce(&self, locals: Vec<Self::Local>) -> Self::Output;
}

/// The classic objective: the single best `(time, area)` candidate
/// under one area budget. This is [`search_best`]'s engine,
/// bit-identical to the historical hard-wired incumbent — including
/// the [`AtomicU64`]-packed cross-worker incumbent and the
/// lexicographic `(time, area, index)` reduce.
pub(crate) struct BestUnderBudget;

/// Cross-worker state of [`BestUnderBudget`]: the packed incumbent.
pub(crate) struct BestShared(AtomicU64);

/// Per-worker state of [`BestUnderBudget`].
#[derive(Default)]
pub(crate) struct BestLocal {
    /// Best candidate evaluated: allocation, partition, data-path
    /// gates, odometer index (the earliest point achieving the
    /// worker's minimal `(time, area)`).
    best: Option<(RMap, Partition, u64, u128)>,
    /// Own/shared incumbent views, cached once per bound round.
    own: Option<(u64, u64)>,
    inherited: Option<(u64, u64)>,
    /// Improving candidates whose pair could not pack — see
    /// [`SearchStats::unpacked_incumbents`].
    unpacked: u64,
}

impl Objective for BestUnderBudget {
    type Shared = BestShared;
    type Local = BestLocal;
    type Output = (RMap, Partition, u64, u128);

    fn shared(&self) -> BestShared {
        BestShared(AtomicU64::new(NO_INCUMBENT))
    }

    fn local(&self) -> BestLocal {
        BestLocal::default()
    }

    // Sound because the seed is a point of this very space that every
    // worker's walk could (re)discover: the shared prune is strict-only
    // (`subtree_pruned`), so the subtree holding the seed itself — and
    // any point achieving a `(time, area)` no worse than it — still
    // reaches evaluation, and `record` never compares against shared
    // state, so the per-worker winner and the deterministic reduce are
    // untouched. A seed too large to pack is simply not installed.
    fn seed_shared(&self, shared: &BestShared, seed: WarmSeed) -> bool {
        let packed = pack_incumbent(seed.time, seed.gates);
        if packed == NO_INCUMBENT {
            return false;
        }
        shared.0.fetch_min(packed, Ordering::Relaxed);
        true
    }

    fn observe(&self, local: &mut BestLocal, shared: &BestShared) {
        local.own = local
            .best
            .as_ref()
            .map(|(_, p, area, _)| (p.total_time.count(), *area));
        local.inherited = unpack_incumbent(shared.0.load(Ordering::Relaxed));
    }

    fn prune(&self, local: &BestLocal, lb: u64, min_area: u64) -> bool {
        subtree_pruned(lb, min_area, local.own, local.inherited)
    }

    fn record(
        &self,
        local: &mut BestLocal,
        shared: &BestShared,
        publish: bool,
        eval: &CandidateEval<'_>,
    ) {
        let (time, gates) = (eval.time(), eval.gates());
        let better = match &local.best {
            None => true,
            Some((_, bp, barea, _)) => {
                time < bp.total_time.count() || (time == bp.total_time.count() && gates < *barea)
            }
        };
        if better {
            let p = eval.backtrack();
            if publish {
                let packed = pack_incumbent(time, gates);
                if packed == NO_INCUMBENT {
                    local.unpacked += 1;
                }
                shared.0.fetch_min(packed, Ordering::Relaxed);
            }
            local.best = Some((eval.allocation().clone(), p, gates, eval.index()));
        }
    }

    fn fold_stats(&self, local: &BestLocal, stats: &mut SearchStats) {
        stats.unpacked_incumbents += local.unpacked;
    }

    fn reduce(&self, locals: Vec<BestLocal>) -> Self::Output {
        // Strict lexicographic (time, area, index) — the exact order
        // the sequential walk discovers winners in — so the reduce is
        // deterministic whatever scheduler handed points to workers:
        // ties keep the earliest odometer index. The walk always
        // evaluates the all-software point, so some worker has a best.
        let mut best: Option<(RMap, Partition, u64, u128)> = None;
        for local in locals {
            if let Some((alloc, part, gates, index)) = local.best {
                let better = match &best {
                    None => true,
                    Some((_, bp, bgates, bindex)) => {
                        (part.total_time, gates, index) < (bp.total_time, *bgates, *bindex)
                    }
                };
                if better {
                    best = Some((alloc, part, gates, index));
                }
            }
        }
        best.expect("the walk evaluates the all-software point first")
    }
}

/// How many bound-check rounds a Pareto worker goes between refreshes
/// of its shared-frontier snapshot: rare enough that the mutex stays
/// cold, frequent enough that another worker's tightening still lands
/// while there are subtrees left to prune with it.
const SNAPSHOT_EVERY: u32 = 1024;

/// One recorded Pareto candidate point — a strict step of some
/// candidate's area×time trade-off row, with everything the reduce
/// needs to rebuild the winner deterministically.
struct ParetoEntry {
    time: u64,
    /// Minimal total area budget achieving `time` with this
    /// allocation: data-path gates plus the controller level times
    /// the area quantum.
    area: u64,
    /// Data-path gates alone — the second tie-break key (the
    /// per-budget exhaustive walk prefers smaller data paths at equal
    /// time).
    gates: u64,
    index: u128,
    allocation: RMap,
    partition: Partition,
}

impl ParetoEntry {
    /// The best-under-budget order: `(time, gates, index)`, the key
    /// [`BestUnderBudget`] reduces by. Unique per point — indices are
    /// unique per candidate, and a candidate's strict steps differ in
    /// time.
    fn key(&self) -> (u64, u64, u128) {
        (self.time, self.gates, self.index)
    }
}

/// Largest-area entry of an `(area, time)` staircase with area ≤
/// `min_area` — the area-conditional best time. Staircases are
/// area-ascending with strictly descending times, so every
/// smaller-area entry is strictly slower and one probe answers "what
/// time is already achieved within this area".
fn staircase_floor(points: &[(u64, u64)], min_area: u64) -> Option<(u64, u64)> {
    let n = points.partition_point(|&(area, _)| area <= min_area);
    (n > 0).then(|| points[n - 1])
}

/// Inserts `(area, time)` into a staircase, dropping weakly dominated
/// entries (keep-first on exact duplicates).
fn staircase_insert(points: &mut Vec<(u64, u64)>, area: u64, time: u64) {
    let s = points.partition_point(|&(a, _)| a < area);
    if s < points.len() && points[s].0 == area && points[s].1 <= time {
        return;
    }
    if s > 0 && points[s - 1].1 <= time {
        return;
    }
    let mut end = s;
    while end < points.len() && points[end].1 >= time {
        end += 1;
    }
    points.splice(s..end, [(area, time)]);
}

/// Inserts a candidate point into a worker's own staircase,
/// materialising the expensive payload (allocation clone + backtrack)
/// only when the point actually goes in.
///
/// The staircase is over area in the best-under-budget key
/// `(time, gates, index)`: area-ascending with strictly descending
/// keys, so the last entry within a budget is that budget's
/// single-budget winner. A point is rejected when an entry at no more
/// area has a key no larger, and evicts every entry at no less area
/// whose key is no smaller. An entry with the same time at a larger
/// area therefore stays when its data path is smaller — it wins that
/// tie at its own budget.
fn frontier_insert(
    points: &mut Vec<ParetoEntry>,
    time: u64,
    area: u64,
    gates: u64,
    index: u128,
    make: impl FnOnce() -> (RMap, Partition),
) -> bool {
    let key = (time, gates, index);
    let n = points.partition_point(|e| e.area <= area);
    if n > 0 && points[n - 1].key() <= key {
        return false;
    }
    // Entries at this very area have larger keys than the last of
    // them, hence than `key`; with the larger-area ones whose keys are
    // no smaller they form one run from `s`, keys only falling.
    let s = points.partition_point(|e| e.area < area);
    let mut end = s;
    while end < points.len() && points[end].key() >= key {
        end += 1;
    }
    let (allocation, partition) = make();
    points.splice(
        s..end,
        [ParetoEntry {
            time,
            area,
            gates,
            index,
            allocation,
            partition,
        }],
    );
    true
}

/// The multi-objective engine: one sweep emits the entire Pareto
/// frontier of the time×area trade-off, replacing N single-budget
/// sweeps — see [`search_pareto`].
///
/// Every evaluated candidate contributes the strict steps of its DP
/// trade-off row (the minimal controller areas at which its time
/// improves); workers keep them in a private `(time, gates, index)`
/// staircase over area (see `frontier_insert`) and, under
/// branch-and-bound, share a merged time-only `(area, time)` staircase
/// to prune against. Own-staircase pruning is tie-inclusive whenever
/// the entry's data path is no larger (an earlier index wins the
/// tie-break); a shared entry prunes a tie only when its whole area is
/// below the candidate's data path (its own data path is then strictly
/// smaller), so every point that could sit on the final staircase
/// survives to the deterministic reduce and the output is identical at
/// any thread count. The reduce emits the whole staircase
/// ([`StairEntry`]); [`ParetoResult::points`] is its time frontier.
pub(crate) struct ParetoFront;

/// Cross-worker state of [`ParetoFront`]: the merged `(area, time)`
/// staircase, behind a mutex — workers touch it only on publish and
/// every `SNAPSHOT_EVERY` (1024) bound rounds.
pub(crate) struct ParetoShared {
    frontier: Mutex<Vec<(u64, u64)>>,
}

impl ParetoShared {
    fn snapshot_into(&self, into: &mut Vec<(u64, u64)>) {
        // Poison-tolerant: the staircase is valid after every insert
        // (each `staircase_insert` call leaves it consistent), so a
        // panicking sibling worker must not poison the survivors —
        // the serve layer keeps answering around isolated panics.
        into.clone_from(&self.frontier.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

/// Per-worker state of [`ParetoFront`].
pub(crate) struct ParetoLocal {
    /// The worker's own staircase: area-ascending, strictly
    /// descending in `(time, gates, index)`, mutually non-dominated.
    points: Vec<ParetoEntry>,
    /// Last snapshot of the shared staircase.
    snapshot: Vec<(u64, u64)>,
    rounds: u32,
}

impl Objective for ParetoFront {
    type Shared = ParetoShared;
    type Local = ParetoLocal;
    type Output = Vec<StairEntry>;

    fn shared(&self) -> ParetoShared {
        ParetoShared {
            frontier: Mutex::new(Vec::new()),
        }
    }

    fn local(&self) -> ParetoLocal {
        ParetoLocal {
            points: Vec::new(),
            snapshot: Vec::new(),
            rounds: 0,
        }
    }

    fn reseed(&self, local: &mut ParetoLocal, shared: &ParetoShared) {
        shared.snapshot_into(&mut local.snapshot);
        local.rounds = 0;
    }

    fn observe(&self, local: &mut ParetoLocal, shared: &ParetoShared) {
        local.rounds += 1;
        if local.rounds >= SNAPSHOT_EVERY {
            local.rounds = 0;
            shared.snapshot_into(&mut local.snapshot);
        }
    }

    fn prune(&self, local: &ParetoLocal, lb: u64, min_area: u64) -> bool {
        // Every point of the subtree costs ≥ min_area gates (data path
        // included) and ≥ lb cycles. An own entry within that area at
        // no more time has a data path within it too and an earlier
        // index, so its key is smaller than every point's — prune on
        // time ties too.
        let n = local.points.partition_point(|e| e.area <= min_area);
        if n > 0 && local.points[n - 1].time <= lb {
            return true;
        }
        // A shared entry prunes a time tie only when its whole area,
        // hence its data path, is strictly below every point's data
        // path: an equal-gates cross-worker tie may be the
        // lexicographic winner and must reach the reduce.
        if let Some((area, time)) = staircase_floor(&local.snapshot, min_area) {
            if time <= lb && (time < lb || area < min_area) {
                return true;
            }
        }
        false
    }

    // Level `a` would record the point `(gates + a·q, t(a))` with
    // `t(a) ≥ lb(a·q)`. The candidate prunes only if every level's
    // point is dominated in the staircase key `(time, gates, index)`
    // by an entry within the level's area: by an own entry strictly
    // faster, or on a time tie when the entry's data path is no
    // larger (its index is earlier, so it wins the tie-break); by a
    // shared entry strictly faster, or on a time tie when the entry's
    // whole area — hence its data path — is below `gates`. Along both
    // staircases keys fall with area, so the entry with the largest
    // area within a level's area is the strongest dominator, and both
    // cursors only move forward.
    fn prune_candidate(
        &self,
        local: &ParetoLocal,
        relax: &BudgetRelaxation,
        gates: u64,
        levels: usize,
        quantum: u64,
    ) -> bool {
        let (own, shared) = (&local.points, &local.snapshot);
        let (mut o, mut s) = (0, 0);
        for (a, lb) in relax.level_bounds(quantum, levels).enumerate() {
            let area = gates + a as u64 * quantum;
            while o < own.len() && own[o].area <= area {
                o += 1;
            }
            while s < shared.len() && shared[s].0 <= area {
                s += 1;
            }
            let own_dominates = o > 0 && {
                let e = &own[o - 1];
                e.time < lb || (e.time == lb && e.gates <= gates)
            };
            let shared_dominates = s > 0 && {
                let (sa, st) = shared[s - 1];
                st < lb || (st == lb && sa < gates)
            };
            if !own_dominates && !shared_dominates {
                return false;
            }
        }
        true
    }

    fn record(
        &self,
        local: &mut ParetoLocal,
        shared: &ParetoShared,
        publish: bool,
        eval: &CandidateEval<'_>,
    ) {
        let gates = eval.gates();
        // Whole-candidate quick reject: if an earlier own entry
        // already achieves the candidate's best time within its
        // data-path gates (so with no larger data path), every step
        // point is dominated in the staircase key, so the row scan is
        // pointless.
        let n = local.points.partition_point(|e| e.area <= gates);
        if n > 0 && local.points[n - 1].time <= eval.time() {
            return;
        }
        let quantum = eval.quantum();
        let mut fresh: Vec<(u64, u64)> = Vec::new();
        // Levels between corners repeat a time already available at
        // less area, so only the corners can enter the staircase.
        for (level, time) in eval.time_falls() {
            let area = gates + level as u64 * quantum;
            // Shared-dominated points can never reach the final
            // staircase (some worker keeps a dominator, transitively):
            // skip the backtrack. A time tie dominates only when the
            // shared entry's whole area is below this data path.
            if let Some((sa, st)) = staircase_floor(&local.snapshot, area) {
                if st < time || (st == time && sa < gates) {
                    continue;
                }
            }
            let accepted =
                frontier_insert(&mut local.points, time, area, gates, eval.index(), || {
                    (eval.allocation().clone(), eval.backtrack_at_level(level))
                });
            if accepted {
                fresh.push((area, time));
            }
        }
        if publish && !fresh.is_empty() {
            let mut frontier = shared
                .frontier
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for &(area, time) in &fresh {
                staircase_insert(&mut frontier, area, time);
            }
            local.snapshot.clone_from(&frontier);
        }
    }

    fn reduce(&self, locals: Vec<ParetoLocal>) -> Vec<StairEntry> {
        // Deterministic skyline: order every surviving entry by its
        // key (time, gates, index), then area, and keep each strict
        // area improvement as keys grow. Each kept entry is the
        // smallest key within its area — exactly the candidate a
        // single-budget exhaustive run at that area returns.
        let mut all: Vec<ParetoEntry> = locals.into_iter().flat_map(|l| l.points).collect();
        all.sort_by_key(|e| (e.key(), e.area));
        let mut staircase: Vec<StairEntry> = Vec::new();
        let mut best_area = u64::MAX;
        for e in all {
            if e.area < best_area {
                best_area = e.area;
                staircase.push(StairEntry {
                    point: ParetoPoint {
                        allocation: e.allocation,
                        partition: e.partition,
                        area: Area::new(e.area),
                        index: e.index,
                    },
                    gates: e.gates,
                });
            }
        }
        staircase.reverse();
        staircase
    }
}

/// One entry of the staircase a Pareto sweep reduces to: a point
/// whose `(time, data-path gates, index)` key is smaller than that of
/// every point at no more area — the winner a single-budget search at
/// [`ParetoPoint::area`] returns.
#[derive(Clone, Debug, PartialEq)]
pub struct StairEntry {
    /// The point: allocation, partition (backtracked at the point's
    /// controller level), total area and odometer index.
    pub point: ParetoPoint,
    /// Data-path gates of [`ParetoPoint::allocation`].
    pub gates: u64,
}

/// A completed, untruncated Pareto sweep kept on store-resident
/// [`SearchArtifacts`] ([`SearchArtifacts::stored_front`]): it answers
/// every search at a budget up to [`StoredFront::cap`] — see the
/// module docs for the exactness argument.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredFront {
    /// The total area budget the sweep ran under.
    pub cap: Area,
    /// Area-ascending, strictly descending in `(time, gates, index)`;
    /// the first entry is the all-software point at area 0.
    pub staircase: Vec<StairEntry>,
}

impl StoredFront {
    /// The entry a best-under-budget search at `budget` returns: the
    /// last one within `budget`. `None` above the cap.
    pub fn best_at(&self, budget: Area) -> Option<&StairEntry> {
        if budget > self.cap {
            return None;
        }
        let n = self.staircase.partition_point(|e| e.point.area <= budget);
        n.checked_sub(1).map(|i| &self.staircase[i])
    }

    /// The time frontier within `budget`: the first (smallest-area)
    /// entry of each time — area-ascending, strictly time-descending,
    /// exactly the points a fresh [`search_pareto`] at `budget ≤ cap`
    /// reports.
    pub fn frontier_within(&self, budget: Area) -> Vec<ParetoPoint> {
        let mut points: Vec<ParetoPoint> = Vec::new();
        for e in self.staircase.iter().take_while(|e| e.point.area <= budget) {
            if points.last().is_none_or(|p| e.point.time() < p.time()) {
                points.push(e.point.clone());
            }
        }
        points
    }
}

/// One point of the frontier [`search_pareto`] emits.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoPoint {
    /// The winning allocation at this point.
    pub allocation: RMap,
    /// Its partition — identical to what a single-budget run
    /// ([`search_best`] or the exhaustive walk) at
    /// [`ParetoPoint::area`] returns.
    pub partition: Partition,
    /// Minimal total area budget achieving this latency: data-path
    /// gates plus controller quanta
    /// (quantised by [`PaceConfig::quantum`]).
    pub area: Area,
    /// Odometer index of the winning allocation.
    pub index: u128,
}

impl ParetoPoint {
    /// Hybrid latency of this point.
    pub fn time(&self) -> Cycles {
        self.partition.total_time
    }
}

/// Outcome of [`search_pareto`]: the dominance frontier plus the same
/// accounting a [`SearchResult`] carries.
#[derive(Clone, Debug)]
pub struct ParetoResult {
    /// The frontier, area-ascending and therefore strictly
    /// time-descending: the first point is the cheapest (the
    /// all-software point, unless hardware is free), the last the
    /// fastest achievable within the sweep's total area.
    pub points: Vec<ParetoPoint>,
    /// Allocations actually evaluated (engine effort under `bound`).
    pub evaluated: usize,
    /// Area-infeasible allocations skipped.
    pub skipped: usize,
    /// Size of the full allocation space.
    pub space_size: u128,
    /// Whether an evaluation limit cut the sweep short.
    pub truncated: bool,
    /// Engine telemetry — not part of the result's identity.
    pub stats: SearchStats,
}

impl ParetoResult {
    /// Sum over every accounting bucket:
    /// `evaluated + skipped + bounded + truncated_points + unvisited`,
    /// always equal to [`ParetoResult::space_size`].
    pub fn points_accounted(&self) -> u128 {
        self.evaluated as u128
            + self.skipped as u128
            + self.stats.bounded
            + self.stats.truncated_points
            + self.stats.unvisited
    }

    /// How the sweep ended ([`SearchStats::completion`]): a `Complete`
    /// frontier is the exact dominance frontier of the space; a
    /// truncated one is the partial frontier over the points visited
    /// before the deadline or cancellation.
    pub fn completion(&self) -> Completion {
        self.stats.completion
    }
}

impl PartialEq for ParetoResult {
    /// Telemetry aside — two results are equal if they found the same
    /// frontier over the same space.
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
            && self.space_size == other.space_size
            && self.truncated == other.truncated
    }
}

/// What one worker brings back from the odometer indices it covered:
/// its objective-local state (incumbent, frontier, …) plus its
/// accounting — `evaluated` and `skipped` beside the engine counters,
/// as in a [`SearchResult`]. The objective's per-point odometer indices
/// make the final reduce order-free: whichever worker a chunk landed
/// on, the objective's deterministic order decides. A worker that
/// stopped before exhausting its points says why in
/// [`SearchStats::completion`].
struct WorkerOut<L> {
    local: L,
    evaluated: usize,
    skipped: usize,
    stats: SearchStats,
}

/// A bounded walk's private state: the incremental level chain over
/// the artifacts' bound tables, and the current candidate's
/// controller-budget relaxation, rebuilt in place after each metrics
/// refresh.
struct BoundState<'a> {
    levels: LevelState<'a>,
    relax: BudgetRelaxation,
}

/// One sweep worker's whole private state: the metrics cache (over the
/// artifacts' shared schedule table), the DP scratch, the metrics
/// buffer, the candidate map and the bound chain — everything reused
/// across every point the worker visits across every chunk it takes.
/// After warm-up a non-improving evaluation performs no heap
/// allocation at all (the winning [`Partition`] is only materialised
/// when a candidate actually improves on the worker's best).
struct SweepWorker<'a, O: Objective> {
    lib: &'a HwLibrary,
    config: &'a PaceConfig,
    total_gates: u64,
    dims: &'a [(FuId, u32)],
    cache: MetricsCache<'a>,
    comm: &'a CommCosts,
    scratch: DpScratch,
    metrics: Vec<BsbMetrics>,
    candidate: RMap,
    /// The carry watermark since the last metrics refresh: only
    /// digits below it changed ([`FROM_SCRATCH`] after a jump).
    dirty_below: usize,
    /// Branch-and-bound state; `None` on an unbounded walk, which
    /// neither prunes nor advertises its candidates cross-worker.
    bound: Option<BoundState<'a>>,
    objective: &'a O,
    shared: &'a O::Shared,
    /// The run's stop signal: polled before every DP, between DP rows,
    /// and every [`STOP_CHECK_INTERVAL`] subtree-skip rounds.
    stop: &'a StopSignal,
    /// Countdown to the next polled stop check in the cheap pruning
    /// loop.
    stop_countdown: u32,
    out: WorkerOut<O::Local>,
}

impl<'a, O: Objective> SweepWorker<'a, O> {
    #[allow(clippy::too_many_arguments)] // internal seam of run_search
    fn new(
        bsbs: &'a BsbArray,
        lib: &'a HwLibrary,
        config: &'a PaceConfig,
        total_gates: u64,
        artifacts: &'a SearchArtifacts,
        bounds: Option<&'a SearchBounds>,
        objective: &'a O,
        shared: &'a O::Shared,
        stop: &'a StopSignal,
    ) -> Self {
        SweepWorker {
            lib,
            config,
            total_gates,
            dims: artifacts.dims(),
            cache: MetricsCache::from_artifacts(bsbs, lib, config, artifacts),
            comm: artifacts.comm(),
            scratch: DpScratch::new(),
            metrics: vec![infeasible_block_metrics(Cycles::ZERO); bsbs.len()],
            candidate: RMap::new(),
            dirty_below: FROM_SCRATCH,
            bound: bounds.map(|bounds| BoundState {
                levels: LevelState::new(bounds),
                relax: BudgetRelaxation::new(),
            }),
            objective,
            shared,
            stop,
            stop_countdown: STOP_CHECK_INTERVAL,
            out: WorkerOut {
                local: objective.local(),
                evaluated: 0,
                skipped: 0,
                stats: SearchStats::default(),
            },
        }
    }

    /// Polls the stop signal directly, recording the reason on a trip.
    /// Used before every expensive step (a candidate's DP evaluation);
    /// free on never-signals.
    fn stop_tripped(&mut self) -> bool {
        if !self.out.stats.completion.is_complete() {
            return true;
        }
        if let Some(reason) = self.stop.check() {
            self.out.stats.completion = reason.into();
            return true;
        }
        false
    }

    /// [`Self::stop_tripped`] for the subtree-skip loop: skip rounds
    /// are ~100 ns, so only every [`STOP_CHECK_INTERVAL`]-th call
    /// reads the clock.
    fn stop_tripped_throttled(&mut self) -> bool {
        self.stop_countdown -= 1;
        if self.stop_countdown > 0 {
            return false;
        }
        self.stop_countdown = STOP_CHECK_INTERVAL;
        self.stop_tripped()
    }

    /// Forgets the incremental stepping state before jumping to a
    /// non-adjacent index: the metrics buffer refreshes from scratch
    /// and the bound chain re-derives every level. The memos,
    /// the objective's progress and the accounting survive — they are
    /// position independent (the objective merely refreshes its
    /// cross-worker view).
    fn reseed(&mut self) {
        self.dirty_below = FROM_SCRATCH;
        if let Some(bound) = self.bound.as_mut() {
            bound.levels = LevelState::new(bound.levels.bounds());
        }
        self.objective.reseed(&mut self.out.local, self.shared);
    }

    /// Brings the metrics buffer up to the odometer's current point:
    /// a from-scratch refresh after a jump, otherwise only the blocks
    /// holding a kind below the carry watermark.
    fn refresh_metrics(&mut self, odo: &Odometer) -> Result<(), PaceError> {
        odo.write_rmap(&mut self.candidate);
        self.cache
            .step_into(&self.candidate, self.dirty_below, &mut self.metrics)?;
        self.dirty_below = 0;
        Ok(())
    }

    /// Runs the refreshed candidate's DP under `stop` and hands it to
    /// the objective. Returns `false` when `stop` tripped between DP
    /// rows: the point then stays unvisited (neither evaluated nor
    /// recorded) and the worker must stop.
    fn evaluate_and_record(&mut self, index: u128, gates: u64, stop: &StopSignal) -> bool {
        let Some(time) = self.scratch.evaluate(
            &self.metrics,
            self.comm,
            Area::new(self.total_gates - gates),
            self.config,
            stop,
        ) else {
            self.out.stats.completion = stop.check().unwrap_or(StopReason::Deadline).into();
            return false;
        };
        self.out.evaluated += 1;
        let eval = CandidateEval {
            scratch: &self.scratch,
            metrics: &self.metrics,
            allocation: &self.candidate,
            time,
            gates,
            index,
            quantum: self.config.quantum,
        };
        self.objective.record(
            &mut self.out.local,
            self.shared,
            self.bound.is_some(),
            &eval,
        );
        true
    }

    /// Whether the controller-budget relaxation of the freshly
    /// refreshed candidate (data path `gates`) proves its DP hopeless
    /// to the objective. Always `false` on unbounded walks.
    fn budget_prunes(&mut self, gates: u64) -> bool {
        let Some(bound) = self.bound.as_mut() else {
            return false;
        };
        let floors = bound.levels.bounds().comm_floors();
        bound.relax.rebuild(&self.metrics, floors);
        let quantum = self.config.quantum;
        let levels = ((self.total_gates - gates) / quantum) as usize;
        self.objective
            .prune_candidate(&self.out.local, &bound.relax, gates, levels, quantum)
    }

    /// The largest subtree rooted at the odometer's current point that
    /// fits in the `room` points left of the range and that the
    /// objective prunes, as `(digit, width)`; `None` when none does,
    /// and always on an unbounded walk. A subtree prunes when its
    /// whole area is infeasible, or when the admissible bound at its
    /// level cannot improve the incumbents; digit 0 is the leaf check
    /// sparing the DP for an individually hopeless candidate.
    fn pruned_subtree(&mut self, odo: &Odometer, room: u128) -> Option<(usize, u128)> {
        let bound = self.bound.as_mut()?;
        let gates = odo.area_gates();
        self.objective.observe(&mut self.out.local, self.shared);
        for pos in (0..=odo.trailing_zeros()).rev() {
            let width = odo.subtree_width(pos);
            if width > room {
                continue; // subtree leaks out of this range
            }
            let prune = if gates > self.total_gates {
                // Every point of the subtree is area-infeasible (free
                // digits only add area). Single points stay on the
                // walk's `skipped` path.
                pos > 0
            } else {
                let lb = bound.levels.bound_at(pos, &odo.counts);
                self.objective.prune(&self.out.local, lb, gates)
            };
            if prune {
                return Some((pos, width));
            }
        }
        None
    }

    /// Evaluates every point of `range`, exactly as the sequential
    /// walk would, accumulating into the worker's [`WorkerOut`]. With
    /// bounds present the walk is branch-and-bound: whole subtrees
    /// (and single hopeless leaves) the objective prunes against its
    /// incumbent/frontier are skipped and tallied in `bounded`, with
    /// cross-worker progress read and published through the
    /// objective's shared state. Ranges must arrive in increasing
    /// index order (the chunk cursor guarantees it), so the objective's
    /// own-progress tie pruning stays sound: everything it recorded
    /// sits at an earlier index than any point still ahead.
    ///
    /// Anytime: the walk polls the run's [`StopSignal`] before every
    /// candidate DP (and, throttled, in the subtree-skip loop); when
    /// it trips the worker returns immediately with the reason in its
    /// [`SearchStats::completion`], leaving its unprocessed tail to
    /// the engine's `unvisited` accounting.
    ///
    /// The all-software point anchors every run: a range starting at
    /// index 0 evaluates it first, under a never-signal and with no
    /// subtree or budget prune, exactly as the reference walk starts.
    /// The chunk cursor hands chunk 0 to the first worker that asks and
    /// every run starts its workers, so index 0 is booked exactly once
    /// and every reduce, a stopped one included, holds a feasible,
    /// DP-exact point. The anchor costs one DP past a stop.
    fn walk(&mut self, range: Range<u128>) -> Result<(), PaceError> {
        if range.is_empty() {
            return Ok(());
        }
        let mut odo = Odometer::at(self.dims, self.lib, range.start);
        let mut index = range.start;
        if index == 0 {
            self.refresh_metrics(&odo)?;
            let anchored = self.evaluate_and_record(0, 0, &StopSignal::never());
            debug_assert!(anchored, "a never-signal cannot stop the DP");
            index = 1;
            if index < range.end {
                self.advance(&mut odo, 0);
            }
        }
        'walk: while index < range.end {
            if self.stop_tripped() {
                return Ok(());
            }
            // Branch-and-bound: skip subtrees rooted here, largest
            // first, until none prunes.
            while let Some((pos, width)) = self.pruned_subtree(&odo, range.end - index) {
                self.out.stats.bounded += width;
                index += width;
                if index >= range.end {
                    break 'walk;
                }
                self.advance(&mut odo, pos);
                if self.stop_tripped_throttled() {
                    return Ok(());
                }
            }
            // Evaluate or skip the surviving point, exactly as the
            // exhaustive walk would.
            let gates = odo.area_gates();
            if gates > self.total_gates {
                self.out.skipped += 1;
            } else {
                self.refresh_metrics(&odo)?;
                if self.budget_prunes(gates) {
                    // Hopeless under its own controller budget: tallied
                    // like a leaf-level skip, and the walk advances
                    // past it below like past any other point.
                    self.out.stats.bounded += 1;
                    self.out.stats.budget_pruned += 1;
                } else if !self.evaluate_and_record(index, gates, self.stop) {
                    return Ok(());
                }
            }
            index += 1;
            if index >= range.end {
                break;
            }
            self.advance(&mut odo, 0);
        }
        Ok(())
    }

    /// Steps the odometer past the subtree rooted at digit `pos`,
    /// raising the carry watermark for the next metrics refresh and
    /// invalidating the bound chain up to the highest changed digit.
    fn advance(&mut self, odo: &mut Odometer, pos: usize) {
        let changed = odo.advance(pos).expect("range ends within the space");
        self.dirty_below = self.dirty_below.max(changed + 1);
        if let Some(bound) = self.bound.as_mut() {
            bound.levels.invalidate_upto(changed);
        }
    }

    /// Work-stealing loop: takes subtree-aligned chunks of `width`
    /// indices off the shared `cursor` until the window `[0, bound)` is
    /// exhausted, reseeding the incremental state at every non-first
    /// chunk, then returns the accumulated output with the cache
    /// counters and the objective's telemetry folded in. Chunk indices
    /// are taken in increasing order (the cursor only grows), so the
    /// objective's own-progress tie pruning stays sound, and every
    /// index of the window lands in exactly one worker's chunks — the
    /// accounting identity is preserved chunk by chunk.
    fn sweep_chunks(
        mut self,
        bound: u128,
        width: u128,
        cursor: &AtomicU64,
    ) -> Result<WorkerOut<O::Local>, PaceError> {
        let mut taken = 0u64;
        loop {
            let chunk = u128::from(cursor.fetch_add(1, Ordering::Relaxed));
            let start = chunk.saturating_mul(width);
            if start >= bound {
                break;
            }
            if taken > 0 {
                self.reseed();
            }
            taken += 1;
            self.walk(start..(start + width).min(bound))?;
            if !self.out.stats.completion.is_complete() {
                // A tripped signal ends the chunk loop too: chunks the
                // cursor already moved past this one stay with their
                // owners, everything else lands in `unvisited`.
                break;
            }
        }
        let stats = &mut self.out.stats;
        stats.steals = taken.saturating_sub(1);
        stats.cache_hits = self.cache.hits();
        stats.cache_misses = self.cache.misses();
        stats.key_allocs = self.cache.key_allocs();
        stats.dirty_probes = self.cache.dirty_probes();
        stats.clean_reuses = self.cache.clean_reuses();
        self.objective.fold_stats(&self.out.local, stats);
        Ok(self.out)
    }
}

/// How many chunks each work-stealing worker should see on average:
/// enough that a worker finishing a pruned-hollow chunk finds more
/// work, few enough that the per-chunk reseed (a from-scratch metrics
/// refresh and bound re-derivation) stays noise.
const STEAL_CHUNKS_PER_WORKER: u128 = 8;

/// Chunk width for the work-stealing scheduler: the *largest* subtree
/// weight of the space that still yields at least
/// [`STEAL_CHUNKS_PER_WORKER`] chunks per worker over `[0, bound)`.
/// Subtree-weight alignment matters: every chunk start is then a
/// subtree root with all digits below the chunk level at zero, so
/// wholesale subtree pruning inside a chunk works exactly as in one
/// contiguous walk. Degenerate windows smaller than the target fall back
/// to single-point chunks (weight 1 — the finest alignment there is).
fn steal_chunk_width(weights: &[u128], bound: u128, threads: usize) -> u128 {
    let target = (threads as u128)
        .saturating_mul(STEAL_CHUNKS_PER_WORKER)
        .max(1);
    let mut width = 1u128;
    for &w in weights {
        // Weights are nondecreasing cumulative products; keep the
        // largest one that still meets the chunk-count target.
        if w > 0 && bound.div_ceil(w) >= target {
            width = width.max(w);
        }
    }
    width
}

/// Hard cap on sweep workers: beyond this, thread spawn/join overhead
/// dwarfs any split benefit on every machine this could run on.
const MAX_THREADS: usize = 1024;

/// Memoised, optionally parallel, optionally bound-driven search —
/// result-identical to [`exhaustive_best`](crate::exhaustive_best)
/// (same best allocation and partition, same
/// `evaluated`/`skipped`/`truncated` accounting), but with per-BSB
/// schedules read from the artifacts' table, metrics stepped
/// incrementally across candidates and
/// the odometer range fanned out over scoped worker threads. With
/// [`SearchOptions::bound`] on, admissible lower bounds additionally
/// skip whole subtrees; the winner stays field-exact while
/// `evaluated`/`skipped`/[`SearchStats::bounded`] become engine-effort
/// telemetry.
///
/// Whatever the engine configuration, every point of the space lands
/// in exactly one accounting bucket:
/// `evaluated + skipped + stats.bounded + stats.truncated_points`
/// equals `space_size`.
///
/// # Errors
///
/// Propagates [`PaceError`] from partition evaluation, as the
/// sequential walk does.
///
/// # Examples
///
/// ```
/// use lycos_core::Restrictions;
/// use lycos_hwlib::{Area, HwLibrary};
/// use lycos_ir::{extract_bsbs, Cdfg, CdfgNode, DfgBuilder, OpKind, TripCount};
/// use lycos_pace::{exhaustive_best, search_best, PaceConfig, SearchOptions};
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
/// let config = PaceConfig::standard();
/// let area = Area::new(6000);
///
/// let fast = search_best(&bsbs, &lib, area, &restr, &config,
///                        &SearchOptions::new().threads(2))?;
/// let slow = exhaustive_best(&bsbs, &lib, area, &restr, &config, None)?;
/// assert_eq!(fast, slow, "telemetry aside, the results are identical");
/// assert!(fast.stats.cache_misses > 0);
///
/// // Branch-and-bound: the winner is field-exact, the effort smaller.
/// let bounded = search_best(&bsbs, &lib, area, &restr, &config,
///                           &SearchOptions::new().bound(true))?;
/// assert_eq!(bounded.best_allocation, slow.best_allocation);
/// assert_eq!(bounded.best_partition, slow.best_partition);
/// assert_eq!(bounded.points_accounted(), bounded.space_size);
/// // Never flakes: with at least one evaluation the rate is +∞ when
/// // the wall clock reads zero (see `SearchResult::eval_rate`).
/// assert!(fast.eval_rate() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn search_best(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    restrictions: &Restrictions,
    config: &PaceConfig,
    options: &SearchOptions,
) -> Result<SearchResult, PaceError> {
    let artifacts = SearchArtifacts::prepare(bsbs, lib, restrictions, config)?;
    search_best_with_stop(
        bsbs,
        lib,
        total_area,
        config,
        options,
        &artifacts,
        &[],
        &StopSignal::never(),
    )
}

/// [`search_best`] over artifacts prepared (or fetched from an
/// [`ArtifactStore`](crate::ArtifactStore)) elsewhere, under an
/// external [`StopSignal`] — the seam every store-owning layer and the
/// serve layer call.
///
/// `seeds` are previously recorded winners offered for warm-start
/// reseeding: each seed whose odometer index lies inside the
/// truncation window is installed as an initial shared incumbent (when
/// [`SearchOptions::bound`] is on), which can only tighten pruning —
/// the result is field-identical to a cold run with `&[]`, pinned by
/// the warm/cold equivalence proptests. Callers must only offer seeds
/// that are points of *this* search's space with a data-path area
/// within the current budget (the store's budget-filtered
/// `warm_seeds` guarantees it).
///
/// The signal is folded with [`SearchOptions::deadline_ms`] (earliest
/// deadline wins); when it trips, every worker stops cleanly at its
/// next check, the deterministic reduce runs over whatever was
/// visited, and the result's [`SearchStats::completion`] reports how
/// the run ended. The anytime contract: whatever the signal does, the
/// returned winner is a *feasible, DP-exact* point of the space — the
/// best one visited before the stop. The anchor is the walk's own
/// first point: every run evaluates the all-software point before it
/// polls the signal, so the incumbent is never empty and a stop
/// overruns by at most that one DP, with no artifact rebuild.
/// [`StopSignal::never`] runs the sweep to completion.
///
/// Over store-resident artifacts carrying a [`StoredFront`] whose cap
/// covers `total_area`, a bounded, unlimited, warm search is answered
/// from the staircase instead — one DP of the winner, no sweep, and a
/// complete result whatever the signal does ([`SearchStats::served`]).
/// Otherwise an exact repeat of a complete warm walk over
/// store-resident artifacts is served that walk's recorded answer.
///
/// # Errors
///
/// Propagates [`PaceError`] as [`search_best`] does.
#[allow(clippy::too_many_arguments)] // the artifact seam plus seeds and the stop signal
pub fn search_best_with_stop(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    config: &PaceConfig,
    options: &SearchOptions,
    artifacts: &SearchArtifacts,
    seeds: &[WarmSeed],
    stop: &StopSignal,
) -> Result<SearchResult, PaceError> {
    if let Some(front) = serving_front(options, artifacts, total_area) {
        return serve_best(bsbs, lib, total_area, config, artifacts, &front);
    }
    let key: AnswerKey = (total_area.gates(), options.limit, options.bound);
    if options.warm {
        let started = Instant::now();
        if let Some(answer) = artifacts.answer(key) {
            let mut served = SearchResult::clone(&answer);
            served.stats.elapsed = started.elapsed();
            return Ok(served);
        }
    }
    let run = run_search(
        bsbs,
        lib,
        total_area,
        config,
        options,
        &BestUnderBudget,
        artifacts,
        seeds,
        stop,
    )?;
    let (best_allocation, best_partition, best_gates, best_index) = run.output;
    let result = SearchResult {
        best_allocation,
        best_partition,
        best_gates,
        best_index,
        evaluated: run.evaluated,
        skipped: run.skipped,
        space_size: run.space_size,
        truncated: run.truncated,
        stats: run.stats,
    };
    if options.warm && result.stats.completion.is_complete() {
        artifacts.keep_answer(key, recorded_answer(&result));
    }
    Ok(result)
}

/// A walked result as an exact repeat replays it: the winner and the
/// accounting, none of the walk's effort, and [`SearchStats::served`].
fn recorded_answer(result: &SearchResult) -> SearchResult {
    SearchResult {
        stats: SearchStats {
            bounded: result.stats.bounded,
            budget_pruned: result.stats.budget_pruned,
            truncated_points: result.stats.truncated_points,
            served: true,
            ..SearchStats::default()
        },
        ..result.clone()
    }
}

/// One multi-objective sweep emitting the entire Pareto frontier of
/// the time×area trade-off within `total_area` — the answer N
/// single-budget [`search_best`] calls (one per frontier area) would
/// assemble, from one walk of the allocation space.
///
/// Each frontier point's allocation *and partition* are field-exact
/// against a single-budget exhaustive run at that point's area, with
/// the same `(time, area)` then smallest-data-path, earliest-index
/// tie-breaks; the frontier is identical at any thread count and with
/// branch-and-bound on or off.
/// Every engine knob of [`SearchOptions`] applies: with
/// [`SearchOptions::bound`] on, subtrees are pruned against the
/// frontier's area-conditional best time (still admissible — a
/// subtree is only skipped when a recorded point at no more area is
/// already at least as fast as the subtree's admissible time bound),
/// and with [`SearchOptions::limit`] the candidate window truncates
/// exactly as in [`search_best`] (the frontier is then the frontier
/// *of the window*).
///
/// The accounting identity holds as for [`search_best`]:
/// `evaluated + skipped + stats.bounded + stats.truncated_points`
/// equals `space_size`.
///
/// # Errors
///
/// Propagates [`PaceError`] from partition evaluation, as the
/// sequential walk does.
///
/// # Examples
///
/// ```
/// use lycos_core::Restrictions;
/// use lycos_hwlib::{Area, HwLibrary};
/// use lycos_ir::{extract_bsbs, Cdfg, CdfgNode, DfgBuilder, OpKind, TripCount};
/// use lycos_pace::{search_best, search_pareto, PaceConfig, SearchOptions};
///
/// let mut b = DfgBuilder::new();
/// let m = b.binary(OpKind::Mul, "a".into(), "b".into());
/// b.assign("x", m);
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
/// let config = PaceConfig::standard();
/// let area = Area::new(6000);
///
/// let front = search_pareto(&bsbs, &lib, area, &restr, &config,
///                           &SearchOptions::new().bound(true))?;
/// // Area-ascending, strictly time-descending — a real frontier.
/// assert!(!front.points.is_empty());
/// for w in front.points.windows(2) {
///     assert!(w[0].area < w[1].area && w[0].time() > w[1].time());
/// }
/// // Its fastest point is exactly the single-budget winner at the
/// // full budget.
/// let best = search_best(&bsbs, &lib, area, &restr, &config,
///                        &SearchOptions::default())?;
/// let fastest = front.points.last().unwrap();
/// assert_eq!(fastest.partition, best.best_partition);
/// assert_eq!(fastest.allocation, best.best_allocation);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn search_pareto(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    restrictions: &Restrictions,
    config: &PaceConfig,
    options: &SearchOptions,
) -> Result<ParetoResult, PaceError> {
    let artifacts = SearchArtifacts::prepare(bsbs, lib, restrictions, config)?;
    search_pareto_with_stop(
        bsbs,
        lib,
        total_area,
        config,
        options,
        &artifacts,
        &StopSignal::never(),
    )
}

/// [`search_pareto`] over artifacts prepared (or fetched from an
/// [`ArtifactStore`](crate::ArtifactStore)) elsewhere, under an
/// external [`StopSignal`] (folded with [`SearchOptions::deadline_ms`],
/// earliest deadline wins). A frontier has no single incumbent to
/// reseed, so there is no seed parameter — the warm win here is
/// reusing the statics, traffic memo and bound tables. On a trip the
/// result is the *partial* frontier of everything visited — every
/// point on it is feasible and DP-exact, but points a longer run would
/// have found may be missing. The anchor is the walk's own first
/// point: every run evaluates the all-software point before it polls
/// the signal, so the frontier is never empty and a stop overruns by
/// at most that one DP, with no artifact rebuild.
///
/// Over store-resident artifacts with [`SearchOptions::warm`] on, a
/// complete sweep without a `limit` keeps its staircase on the
/// artifacts ([`SearchArtifacts::stored_front`], the widest one wins),
/// and a bounded, unlimited sweep at a budget the stored cap covers is
/// answered from it without walking ([`SearchStats::served`]).
///
/// # Errors
///
/// Propagates [`PaceError`] as [`search_pareto`] does.
pub fn search_pareto_with_stop(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    config: &PaceConfig,
    options: &SearchOptions,
    artifacts: &SearchArtifacts,
    stop: &StopSignal,
) -> Result<ParetoResult, PaceError> {
    if let Some(front) = serving_front(options, artifacts, total_area) {
        let started = Instant::now();
        artifacts.note_served();
        let space = artifacts.space_size();
        return Ok(ParetoResult {
            points: front.frontier_within(total_area),
            evaluated: 0,
            skipped: 0,
            space_size: space,
            truncated: false,
            stats: served_stats(space, started),
        });
    }
    let run = run_search(
        bsbs,
        lib,
        total_area,
        config,
        options,
        &ParetoFront,
        artifacts,
        &[],
        stop,
    )?;
    let front = StoredFront {
        cap: total_area,
        staircase: run.output,
    };
    let points = front.frontier_within(total_area);
    if options.warm && options.limit.is_none() && run.stats.completion.is_complete() {
        artifacts.keep_front(front);
    }
    Ok(ParetoResult {
        points,
        evaluated: run.evaluated,
        skipped: run.skipped,
        space_size: run.space_size,
        truncated: run.truncated,
        stats: run.stats,
    })
}

/// The stored staircase that answers a search at `budget` under
/// `options`, if any. Serving needs the warm path over store-resident
/// artifacts, a full window (no `limit`), and `bound` on: a served
/// answer books the space as bounded, which an unbounded run — the
/// reference walk whose `evaluated`/`skipped` are part of the result —
/// never does.
fn serving_front(
    options: &SearchOptions,
    artifacts: &SearchArtifacts,
    budget: Area,
) -> Option<Arc<StoredFront>> {
    if !(options.warm && options.bound && options.limit.is_none() && artifacts.store_resident()) {
        return None;
    }
    artifacts.stored_front().filter(|front| budget <= front.cap)
}

/// The accounting of a served answer: complete, nothing evaluated,
/// the whole space bounded (a served best moves its winner to
/// `evaluated`).
fn served_stats(space: u128, started: Instant) -> SearchStats {
    SearchStats {
        bounded: space,
        served: true,
        elapsed: started.elapsed(),
        ..SearchStats::default()
    }
}

/// Answers a best-under-budget search from `front`: the staircase's
/// last entry within `total_area` is the winner, and one DP of its
/// allocation at `total_area` — the evaluation a fresh search
/// backtracks — gives the partition.
fn serve_best(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    config: &PaceConfig,
    artifacts: &SearchArtifacts,
    front: &StoredFront,
) -> Result<SearchResult, PaceError> {
    let started = Instant::now();
    let winner = front
        .best_at(total_area)
        .expect("a staircase starts with the all-software point at area 0");
    let partition = crate::dp::partition_with_artifacts(
        bsbs,
        lib,
        &winner.point.allocation,
        total_area,
        config,
        &mut DpScratch::new(),
        artifacts,
    )?;
    debug_assert_eq!(partition.total_time, winner.point.time());
    artifacts.note_served();
    let space = artifacts.space_size();
    let mut stats = served_stats(space, started);
    stats.bounded -= 1;
    Ok(SearchResult {
        best_allocation: winner.point.allocation.clone(),
        best_partition: partition,
        best_gates: winner.gates,
        best_index: winner.point.index,
        evaluated: 1,
        skipped: 0,
        space_size: space,
        truncated: false,
        stats,
    })
}

/// What the generic engine hands its public wrappers: the objective's
/// reduced output plus the engine accounting.
struct EngineRun<T> {
    output: T,
    evaluated: usize,
    skipped: usize,
    space_size: u128,
    truncated: bool,
    stats: SearchStats,
}

/// The objective-generic engine behind [`search_best`] and
/// [`search_pareto`]: truncation pre-walk, artifact-backed
/// precomputes, warm-seed installation, work-stealing fan-out,
/// per-worker accounting and the objective's deterministic reduce.
/// The caller's [`StopSignal`] — tightened by
/// [`SearchOptions::deadline_ms`], earliest deadline first — is
/// threaded to every worker; points no worker reached before a trip
/// are tallied centrally as [`SearchStats::unvisited`], closing the
/// five-bucket accounting identity.
#[allow(clippy::too_many_arguments)] // internal seam of the public entries
fn run_search<O: Objective>(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    config: &PaceConfig,
    options: &SearchOptions,
    objective: &O,
    artifacts: &SearchArtifacts,
    seeds: &[WarmSeed],
    stop: &StopSignal,
) -> Result<EngineRun<O::Output>, PaceError> {
    let started = Instant::now();
    let stop = stop.with_deadline_ms(options.deadline_ms);
    let stop = &stop;
    let dims = artifacts.dims();
    let space = artifacts.space_size();
    let total_gates = total_area.gates();
    let (bound, truncated) = truncation_bound(dims, lib, total_gates, space, options.limit);
    // The all-software point (index 0) is always inside the bound —
    // `truncation_bound` returns ≥ 1 even under `limit = 0`, and an
    // empty dimension list still spans one point — so the reduce
    // below always sees at least one evaluated candidate.
    debug_assert!(bound >= 1, "search bound excludes the all-SW point");
    let threads = options.resolve(bound);

    // The artifacts carry the sweep's one-time precomputes: per-block
    // statics (software times, required resources, kind sets), the
    // schedule table and the full run-traffic table, which every
    // worker reads in place. The bound tables are built lazily inside
    // the artifacts and shared read-only, folding in the admissible
    // communication floor. Their first build polls the stop signal: if
    // it trips there, the workers still run, unbounded, and stop right
    // after the all-software anchor.
    let bounds = if options.bound {
        artifacts.bounds(bsbs, lib, stop)?
    } else {
        None
    };
    let mut stats = SearchStats {
        threads,
        truncated_points: space - bound,
        ..SearchStats::default()
    };
    let shared = objective.shared();
    // Warm-start: install stored previous winners as the initial
    // shared incumbent. Only sound seeds are offered (points of this
    // space within the current budget — the caller's contract), and
    // only ones inside the truncation window are taken: a seed past
    // the window describes a point this walk would never visit, so its
    // `(time, area)` is not an outcome the window's exhaustive
    // reference could produce. Shared state is only ever read for
    // pruning, so without bounds seeding would be inert — skip it and
    // keep the telemetry honest.
    if bounds.is_some() {
        for seed in seeds {
            if seed.index < bound {
                stats.warm_reseeded |= objective.seed_shared(&shared, *seed);
            }
        }
    }

    // Workers take subtree-aligned chunks off one cursor. A single
    // worker takes the whole window as one chunk: the sequential walk,
    // with no reseeds.
    let width = if threads == 1 {
        bound
    } else {
        steal_chunk_width(&subtree_weights(dims), bound, threads)
    };
    let cursor = AtomicU64::new(0);
    let sweep = || {
        SweepWorker::new(
            bsbs,
            lib,
            config,
            total_gates,
            artifacts,
            bounds,
            objective,
            &shared,
            stop,
        )
        .sweep_chunks(bound, width, &cursor)
    };
    // Worker 0 runs on the calling thread; only the others are spawned,
    // so a sequential walk spawns none.
    let outs: Vec<Result<WorkerOut<O::Local>, PaceError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(sweep)).collect();
        let mut outs = vec![sweep()];
        outs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("search worker panicked")),
        );
        outs
    });

    let mut evaluated = 0usize;
    let mut skipped = 0usize;
    let mut locals = Vec::with_capacity(outs.len());
    for out in outs {
        let out = out?;
        evaluated += out.evaluated;
        skipped += out.skipped;
        stats.merge(&out.stats);
        locals.push(out.local);
    }
    // The objective's reduce is deterministic whatever scheduler
    // handed points to workers — ties resolve by odometer index, the
    // exact order the sequential walk discovers winners in.
    let output = objective.reduce(locals);
    // Whatever no worker reached before the stop is the fifth bucket,
    // tallied centrally: the per-worker counters only ever cover what
    // was actually visited, so the remainder of the candidate window
    // is exactly the unvisited tail. A worker only stops with a point
    // of its chunk still ahead, so a run that visited its whole window
    // is complete, whatever tripped on the way.
    let visited = evaluated as u128 + skipped as u128 + stats.bounded;
    debug_assert!(visited <= bound, "workers never visit past the window");
    stats.unvisited = bound - visited;
    stats.elapsed = started.elapsed();
    debug_assert_eq!(
        stats.unvisited == 0,
        stats.completion.is_complete(),
        "a run is complete exactly when it left nothing unvisited"
    );
    debug_assert_eq!(
        evaluated as u128
            + skipped as u128
            + stats.bounded
            + stats.truncated_points
            + stats.unvisited,
        space,
        "every point lands in exactly one accounting bucket"
    );

    Ok(EngineRun {
        output,
        evaluated,
        skipped,
        space_size: space,
        truncated,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compute_metrics, exhaustive_best, partition, search_space, space_size};
    use lycos_ir::{Bsb, BsbId, BsbOrigin, Dfg, OpKind};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn lib() -> HwLibrary {
        HwLibrary::standard()
    }

    /// Block `i` with `n` operations of each of `kinds`.
    fn block(i: usize, kinds: &[OpKind], n: usize, profile: u64) -> Bsb {
        let mut dfg = Dfg::new();
        for &kind in kinds {
            for _ in 0..n {
                dfg.add_op(kind);
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
    }

    fn app() -> BsbArray {
        BsbArray::from_bsbs(
            "t",
            vec![
                block(0, &[OpKind::Add], 3, 500),
                block(1, &[OpKind::Mul], 2, 500),
                block(2, &[OpKind::Add], 2, 90),
            ],
        )
    }

    fn restr(bsbs: &BsbArray, lib: &HwLibrary) -> Restrictions {
        Restrictions::from_asap(bsbs, lib).unwrap()
    }

    #[test]
    fn odometer_matches_sequential_enumeration() {
        let bsbs = app();
        let lib = lib();
        let dims = search_space(&restr(&bsbs, &lib));
        let space = space_size(&dims);
        // Walk by stepping from 0 and by direct decode; both must agree.
        let mut stepped = Odometer::at(&dims, &lib, 0);
        for index in 0..space {
            let decoded = Odometer::at(&dims, &lib, index);
            assert_eq!(decoded.counts, stepped.counts, "index {index}");
            assert_eq!(decoded.area, stepped.area, "index {index}");
            assert_eq!(
                decoded.rmap().area(&lib).gates(),
                decoded.area_gates(),
                "incremental area drifted at {index}"
            );
            if index + 1 < space {
                assert!(stepped.step());
            }
        }
        assert!(!stepped.step(), "space exhausted");
    }

    #[test]
    fn odometer_subtree_advance_matches_index_arithmetic() {
        let bsbs = app();
        let lib = lib();
        let dims = search_space(&restr(&bsbs, &lib));
        let space = space_size(&dims);
        // From every subtree root, advancing past the subtree lands on
        // the decode of `index + width`, with the right changed digit.
        for index in 0..space {
            let odo = Odometer::at(&dims, &lib, index);
            let z = odo.trailing_zeros();
            assert_eq!(odo.subtree_width(0), 1, "a leaf is its own subtree");
            for pos in 0..=z {
                let width = odo.subtree_width(pos);
                if index + width >= space {
                    continue;
                }
                let mut skipping = Odometer::at(&dims, &lib, index);
                let changed = skipping.advance(pos).expect("inside the space");
                let direct = Odometer::at(&dims, &lib, index + width);
                assert_eq!(skipping.counts, direct.counts, "index {index} pos {pos}");
                assert_eq!(skipping.area, direct.area, "index {index} pos {pos}");
                assert!(changed >= pos, "carry reaches at least the skipped digit");
            }
        }
    }

    #[test]
    fn sequential_memoised_and_parallel_agree() {
        let bsbs = app();
        let lib = lib();
        let restr = restr(&bsbs, &lib);
        let cfg = PaceConfig::standard();
        let area = Area::new(8_000);
        let seed = exhaustive_best(&bsbs, &lib, area, &restr, &cfg, None).unwrap();
        for threads in [1, 2, 3, 7] {
            let opts = SearchOptions {
                threads,
                limit: None,
                bound: false,
                ..SearchOptions::default()
            };
            let got = search_best(&bsbs, &lib, area, &restr, &cfg, &opts).unwrap();
            assert_eq!(got, seed, "threads={threads}");
        }
    }

    #[test]
    fn bounded_engine_is_field_exact_and_cheaper() {
        let bsbs = app();
        let lib = lib();
        let restr = restr(&bsbs, &lib);
        let cfg = PaceConfig::standard();
        for gates in [2_500u64, 8_000, 100_000] {
            let area = Area::new(gates);
            let seed = exhaustive_best(&bsbs, &lib, area, &restr, &cfg, None).unwrap();
            for threads in [1usize, 3] {
                let got = search_best(
                    &bsbs,
                    &lib,
                    area,
                    &restr,
                    &cfg,
                    &SearchOptions {
                        threads,
                        bound: true,
                        ..SearchOptions::default()
                    },
                )
                .unwrap();
                // Field-exact winner: allocation, partition, the
                // (time, area) pair — everything but the effort.
                assert_eq!(got.best_allocation, seed.best_allocation, "area {gates}");
                assert_eq!(got.best_partition, seed.best_partition, "area {gates}");
                assert_eq!(got.space_size, seed.space_size);
                assert_eq!(got.truncated, seed.truncated);
                assert!(got.evaluated <= seed.evaluated, "bounding never adds work");
                assert_eq!(got.points_accounted(), got.space_size, "area {gates}");
            }
            // Sequentially the saving is deterministic; on this app the
            // bound genuinely bites.
            let seq = search_best(
                &bsbs,
                &lib,
                area,
                &restr,
                &cfg,
                &SearchOptions {
                    bound: true,
                    ..SearchOptions::sequential()
                },
            )
            .unwrap();
            assert!(seq.stats.bounded > 0, "area {gates}: nothing pruned");
        }
    }

    #[test]
    fn bounded_engine_respects_limits_field_exactly() {
        let bsbs = app();
        let lib = lib();
        let restr = restr(&bsbs, &lib);
        let cfg = PaceConfig::standard();
        let area = Area::new(2_500);
        for limit in [0usize, 1, 3, 10] {
            let seed = exhaustive_best(&bsbs, &lib, area, &restr, &cfg, Some(limit)).unwrap();
            let got = search_best(
                &bsbs,
                &lib,
                area,
                &restr,
                &cfg,
                &SearchOptions {
                    limit: Some(limit),
                    bound: true,
                    ..SearchOptions::sequential()
                },
            )
            .unwrap();
            assert_eq!(got.best_allocation, seed.best_allocation, "limit {limit}");
            assert_eq!(got.best_partition, seed.best_partition, "limit {limit}");
            assert_eq!(got.truncated, seed.truncated, "limit {limit}");
            assert_eq!(got.points_accounted(), got.space_size, "limit {limit}");
        }
    }

    #[test]
    fn incumbent_packing_orders_time_major_area_minor() {
        // Round trips.
        assert_eq!(unpack_incumbent(pack_incumbent(0, 0)), Some((0, 0)));
        assert_eq!(unpack_incumbent(pack_incumbent(7, 42)), Some((7, 42)));
        let edge = u64::from(u32::MAX) - 1;
        assert_eq!(
            unpack_incumbent(pack_incumbent(edge, edge)),
            Some((edge, edge))
        );
        // Time is the major key: one extra cycle outweighs any area.
        assert!(pack_incumbent(1, edge) < pack_incumbent(2, 0));
        // Area breaks ties, minor.
        assert!(pack_incumbent(5, 3) < pack_incumbent(5, 4));
        // u64::MAX edges: pairs that cannot pack become NO_INCUMBENT —
        // "no information", never a pruning licence.
        assert_eq!(pack_incumbent(u64::from(u32::MAX), 0), NO_INCUMBENT);
        assert_eq!(pack_incumbent(u64::MAX, 0), NO_INCUMBENT);
        assert_eq!(pack_incumbent(0, u64::MAX), NO_INCUMBENT);
        assert_eq!(pack_incumbent(u64::MAX, u64::MAX), NO_INCUMBENT);
        assert_eq!(unpack_incumbent(NO_INCUMBENT), None);
        // And every packable pair stays below the sentinel, so a real
        // incumbent always wins the fetch_min.
        assert!(pack_incumbent(edge, edge) < NO_INCUMBENT);
    }

    #[test]
    fn subtree_pruning_rules_respect_tie_breaks() {
        // Own incumbent: ties at equal area prune (a later equal point
        // never replaces an earlier one)…
        assert!(subtree_pruned(10, 5, Some((10, 5)), None));
        assert!(subtree_pruned(11, 9, Some((10, 5)), None));
        // …but an equal-time subtree that could undercut the area must
        // survive.
        assert!(!subtree_pruned(10, 4, Some((10, 5)), None));
        assert!(!subtree_pruned(9, 9, Some((10, 5)), None));
        // Shared incumbent: strictly worse prunes, an exact (time,
        // area) tie does NOT — the earliest such point must reach the
        // reduce.
        assert!(subtree_pruned(11, 9, None, Some((10, 5))));
        assert!(subtree_pruned(10, 6, None, Some((10, 5))));
        assert!(!subtree_pruned(10, 5, None, Some((10, 5))));
        assert!(!subtree_pruned(10, 4, None, Some((10, 5))));
        // No incumbents, no pruning.
        assert!(!subtree_pruned(u64::MAX / 4, u64::MAX / 4, None, None));
    }

    #[test]
    fn limits_truncate_identically() {
        let bsbs = app();
        let lib = lib();
        let restr = restr(&bsbs, &lib);
        let cfg = PaceConfig::standard();
        // A tight area forces skips, exercising the skip-aware bound.
        let area = Area::new(2_500);
        for limit in [0, 1, 3, 10, 10_000] {
            let seed = exhaustive_best(&bsbs, &lib, area, &restr, &cfg, Some(limit)).unwrap();
            for threads in [1, 4] {
                let opts = SearchOptions {
                    threads,
                    limit: Some(limit),
                    bound: false,
                    ..SearchOptions::default()
                };
                let got = search_best(&bsbs, &lib, area, &restr, &cfg, &opts).unwrap();
                assert_eq!(got, seed, "limit={limit} threads={threads}");
                assert_eq!(got.evaluated, seed.evaluated, "limit={limit}");
                assert_eq!(got.skipped, seed.skipped, "limit={limit}");
                assert_eq!(got.truncated, seed.truncated, "limit={limit}");
                assert_eq!(got.points_accounted(), got.space_size, "limit={limit}");
            }
        }
    }

    #[test]
    fn cache_hits_dominate_on_full_sweeps() {
        let bsbs = app();
        let lib = lib();
        let restr = restr(&bsbs, &lib);
        let cfg = PaceConfig::standard();
        let res = search_best(
            &bsbs,
            &lib,
            Area::new(100_000),
            &restr,
            &cfg,
            &SearchOptions::sequential(),
        )
        .unwrap();
        assert!(res.stats.cache_misses > 0);
        assert!(
            res.stats.hit_rate() > 0.5,
            "odometer locality should make most lookups hit (rate {})",
            res.stats.hit_rate()
        );
        assert!(res.stats.threads == 1);
        // Keys are allocated per insert only: probes answered from the
        // cache never clone the scratch key.
        assert_eq!(res.stats.key_allocs, res.stats.cache_misses);
        assert!(res.stats.key_allocs < res.stats.cache_hits + res.stats.cache_misses);
        // Incremental stepping: most block entries ride along clean.
        assert!(res.stats.clean_reuses > 0, "steps must reuse clean blocks");
        assert!(
            res.stats.dirty_ratio() < 1.0,
            "dirty ratio {} should reflect reuse",
            res.stats.dirty_ratio()
        );
        assert_eq!(
            res.stats.dirty_probes + res.stats.clean_reuses,
            (res.evaluated * bsbs.len()) as u64,
            "every evaluated candidate refreshes every block, one way or the other"
        );
    }

    #[test]
    fn step_into_matches_full_recompute() {
        // Walk the odometer by hand: stepping with the carry watermark
        // of each step must equal a from-scratch refresh.
        let bsbs = app();
        let lib = lib();
        let cfg = PaceConfig::standard();
        let dims = search_space(&restr(&bsbs, &lib));
        let mut stepped_cache = MetricsCache::new(&bsbs, &lib, &cfg).unwrap();
        let mut odo = Odometer::at(&dims, &lib, 0);
        let mut candidate = odo.rmap();
        let mut stepped = stepped_cache.metrics(&candidate).unwrap();
        while let Some(changed) = odo.advance(0) {
            odo.write_rmap(&mut candidate);
            stepped_cache
                .step_into(&candidate, changed + 1, &mut stepped)
                .unwrap();
            let fresh = compute_metrics(&bsbs, &lib, &candidate, &cfg).unwrap();
            assert_eq!(stepped, fresh, "at {:?}", odo.counts);
        }
        assert!(stepped_cache.clean_reuses() > 0, "reuse must have happened");
        assert!(stepped_cache.dirty_probes() > 0);
    }

    #[test]
    fn dirty_ratio_degenerate_cases() {
        let stats = SearchStats::default();
        assert_eq!(stats.dirty_ratio(), 1.0, "no refreshes: nothing reused");
        let stats = SearchStats {
            dirty_probes: 1,
            clean_reuses: 3,
            ..SearchStats::default()
        };
        assert_eq!(stats.dirty_ratio(), 0.25);
    }

    #[test]
    fn empty_restrictions_search_is_all_software() {
        let bsbs = app();
        let lib = lib();
        for bound in [false, true] {
            let res = search_best(
                &bsbs,
                &lib,
                Area::new(10_000),
                &Restrictions::new(),
                &PaceConfig::standard(),
                &SearchOptions {
                    bound,
                    ..SearchOptions::default()
                },
            )
            .unwrap();
            assert!(res.best_allocation.is_empty());
            assert_eq!(res.space_size, 1);
            assert_eq!(res.evaluated, 1);
            assert_eq!(res.points_accounted(), 1);
        }
    }

    #[test]
    fn resolve_clamps_workers_to_points_and_cap() {
        let threads = |n| SearchOptions::new().threads(n);
        // Explicit requests clamp to the number of points…
        assert_eq!(threads(8).resolve(3), 3);
        assert_eq!(threads(1).resolve(3), 1);
        // …a degenerate empty space still yields one worker…
        assert_eq!(threads(4).resolve(0), 1);
        assert_eq!(threads(0).resolve(0), 1);
        // …huge spaces cap at MAX_THREADS however much is requested…
        assert_eq!(threads(1_000_000).resolve(u128::MAX), MAX_THREADS);
        // …and `0` resolves to the machine's parallelism, at least 1.
        let auto = threads(0).resolve(u128::MAX);
        assert!((1..=MAX_THREADS).contains(&auto));
        assert_eq!(SearchOptions::sequential().resolve(2), 1);
    }

    #[test]
    fn truncation_bound_always_covers_the_all_sw_point() {
        let bsbs = app();
        let lib = lib();
        let dims = search_space(&restr(&bsbs, &lib));
        let space = space_size(&dims);
        // Even `limit = 0` keeps index 0 (the all-SW baseline) in
        // range; the bound is never 0.
        for limit in [Some(0), Some(1), Some(usize::MAX), None] {
            let (bound, _) = truncation_bound(&dims, &lib, 8_000, space, limit);
            assert!(bound >= 1, "limit={limit:?}");
            assert!(bound <= space, "limit={limit:?}");
        }
        // An empty dimension list spans exactly the all-SW point.
        let (bound, truncated) = truncation_bound(&[], &lib, 8_000, 1, Some(0));
        assert_eq!((bound, truncated), (1, false));
    }

    #[test]
    fn limit_zero_and_huge_limits_search_like_the_seed() {
        let bsbs = app();
        let lib = lib();
        let restr = restr(&bsbs, &lib);
        let cfg = PaceConfig::standard();
        let area = Area::new(8_000);
        for limit in [Some(0), Some(usize::MAX)] {
            let seed = exhaustive_best(&bsbs, &lib, area, &restr, &cfg, limit).unwrap();
            let opts = SearchOptions {
                threads: 4,
                limit,
                bound: false,
                ..SearchOptions::default()
            };
            let got = search_best(&bsbs, &lib, area, &restr, &cfg, &opts).unwrap();
            assert_eq!(got, seed, "limit={limit:?}");
        }
    }

    #[test]
    fn steal_chunk_width_picks_the_largest_aligned_weight() {
        // Weights of a 4×4×4 space. Two workers want 16 chunks: width
        // 4 yields exactly 16 over a 64-point window, width 16 only 4.
        assert_eq!(steal_chunk_width(&[1, 4, 16, 64], 64, 2), 4);
        // One worker wants 8: width 4 still clears it (16 chunks),
        // width 16 would leave only 4.
        assert_eq!(steal_chunk_width(&[1, 4, 16, 64], 64, 1), 4);
        // A window smaller than the chunk target falls back to
        // single-point chunks rather than starving workers.
        assert_eq!(steal_chunk_width(&[1, 4, 16, 64], 5, 8), 1);
        // Degenerate spaces: one point, one chunk.
        assert_eq!(steal_chunk_width(&[1], 1, 4), 1);
        // A giant first radix: no coarser alignment meets the target,
        // so chunks stay single points.
        assert_eq!(steal_chunk_width(&[1, 1000], 1000, 4), 1);
        // Chunk starts are always subtree roots: whatever width is
        // chosen, it is one of the weights.
        let weights = [1u128, 3, 12, 60, 600];
        for bound in [1u128, 7, 59, 60, 599, 600] {
            for threads in [1usize, 2, 5, 8] {
                let w = steal_chunk_width(&weights, bound, threads);
                assert!(weights.contains(&w), "bound={bound} threads={threads}");
                // And the chunk count fits comfortably in the u64
                // cursor.
                assert!(bound.div_ceil(w) < u128::from(u64::MAX));
            }
        }
    }

    #[test]
    fn work_stealing_is_field_exact_for_any_worker_count() {
        let bsbs = app();
        let lib = lib();
        let restr = restr(&bsbs, &lib);
        let cfg = PaceConfig::standard();
        // A tight budget mixes evaluations with skips; the limit run
        // exercises truncation under the chunked scheduler too.
        for (gates, limit) in [(8_000u64, None), (2_500, None), (2_500, Some(5))] {
            let area = Area::new(gates);
            let seed = exhaustive_best(&bsbs, &lib, area, &restr, &cfg, limit).unwrap();
            for threads in 1..=8usize {
                for bound in [false, true] {
                    let got = search_best(
                        &bsbs,
                        &lib,
                        area,
                        &restr,
                        &cfg,
                        &SearchOptions {
                            threads,
                            limit,
                            bound,
                            ..SearchOptions::default()
                        },
                    )
                    .unwrap();
                    let tag =
                        format!("gates={gates} limit={limit:?} threads={threads} bound={bound}");
                    if bound {
                        // Bounding makes evaluated/skipped telemetry;
                        // the winner and the accounting identity stay
                        // exact.
                        assert_eq!(got.best_allocation, seed.best_allocation, "{tag}");
                        assert_eq!(got.best_partition, seed.best_partition, "{tag}");
                        assert_eq!(got.space_size, seed.space_size, "{tag}");
                        assert_eq!(got.truncated, seed.truncated, "{tag}");
                    } else {
                        // Without bounding every field is
                        // position-determined: full `SearchResult`
                        // equality at any worker count.
                        assert_eq!(got, seed, "{tag}");
                        assert_eq!(got.evaluated, seed.evaluated, "{tag}");
                        assert_eq!(got.skipped, seed.skipped, "{tag}");
                    }
                    assert_eq!(got.points_accounted(), got.space_size, "{tag}");
                }
            }
        }
    }

    #[test]
    fn stats_equality_is_ignored() {
        let a = SearchResult {
            best_allocation: RMap::new(),
            best_partition: partition(
                &app(),
                &lib(),
                &RMap::new(),
                Area::new(1_000),
                &PaceConfig::standard(),
            )
            .unwrap(),
            best_gates: 0,
            best_index: 0,
            evaluated: 1,
            skipped: 0,
            space_size: 1,
            truncated: false,
            stats: SearchStats::default(),
        };
        let mut b = a.clone();
        b.stats.cache_hits = 99;
        b.stats.bounded = 7;
        b.stats.elapsed = Duration::from_secs(5);
        b.stats.artifact_hits = 3;
        b.stats.warm_reseeded = true;
        b.stats.blocks_reused = 4;
        b.stats.blocks_rederived = 1;
        b.stats.incremental_hits = 1;
        b.stats.completion = Completion::DeadlineTruncated;
        b.stats.unvisited = 11;
        assert_eq!(a, b, "telemetry must not break result identity");
    }

    #[test]
    fn builder_chain_mirrors_the_pub_fields() {
        let built = SearchOptions::new()
            .threads(4)
            .limit(Some(9))
            .bound(true)
            .store_cap(3)
            .warm(false)
            .deadline_ms(Some(250));
        let literal = SearchOptions {
            threads: 4,
            limit: Some(9),
            bound: true,
            store_cap: 3,
            warm: false,
            deadline_ms: Some(250),
        };
        assert_eq!(built, literal);
        assert_eq!(SearchOptions::new(), SearchOptions::default());
    }

    #[test]
    fn staircase_pins_dominance_and_duplicate_areas() {
        let mut s: Vec<(u64, u64)> = Vec::new();
        staircase_insert(&mut s, 100, 50);
        staircase_insert(&mut s, 200, 40);
        staircase_insert(&mut s, 150, 45);
        assert_eq!(s, [(100, 50), (150, 45), (200, 40)]);
        // Dominated (more area, no less time): rejected.
        staircase_insert(&mut s, 160, 45);
        assert_eq!(s, [(100, 50), (150, 45), (200, 40)]);
        // Duplicate area, worse time: rejected; equal: keep-first.
        staircase_insert(&mut s, 150, 46);
        staircase_insert(&mut s, 150, 45);
        assert_eq!(s, [(100, 50), (150, 45), (200, 40)]);
        // Duplicate area, better time: replaces and sweeps dominated
        // successors away.
        staircase_insert(&mut s, 150, 39);
        assert_eq!(s, [(100, 50), (150, 39)]);
        // A new global best at less area clears everything behind it.
        staircase_insert(&mut s, 90, 30);
        assert_eq!(s, [(90, 30)]);
        // Floor queries: largest area ≤ the probe.
        staircase_insert(&mut s, 400, 20);
        assert_eq!(staircase_floor(&s, 89), None);
        assert_eq!(staircase_floor(&s, 90), Some((90, 30)));
        assert_eq!(staircase_floor(&s, 399), Some((90, 30)));
        assert_eq!(staircase_floor(&s, 400), Some((400, 20)));
    }

    #[test]
    fn frontier_insert_ties_keep_the_lexicographic_winner() {
        let part = partition(
            &app(),
            &lib(),
            &RMap::new(),
            Area::new(1_000),
            &PaceConfig::standard(),
        )
        .unwrap();
        let mut points: Vec<ParetoEntry> = Vec::new();
        let insert = |points: &mut Vec<ParetoEntry>, time, area, gates, index| {
            frontier_insert(points, time, area, gates, index, || {
                (RMap::new(), part.clone())
            })
        };
        assert!(insert(&mut points, 50, 100, 80, 7));
        // Exact (time, area) tie, larger (gates, index): rejected.
        assert!(!insert(&mut points, 50, 100, 80, 9));
        assert!(!insert(&mut points, 50, 100, 90, 1));
        // Exact tie, smaller gates: replaces.
        assert!(insert(&mut points, 50, 100, 70, 9));
        assert_eq!(points.len(), 1);
        assert_eq!((points[0].gates, points[0].index), (70, 9));
        // Domination by the floor in (time, gates, index): rejected.
        assert!(!insert(&mut points, 50, 120, 70, 10));
        assert!(!insert(&mut points, 50, 120, 90, 0));
        assert!(!insert(&mut points, 55, 100, 0, 0));
        // Strict improvements extend the staircase both ways.
        assert!(insert(&mut points, 40, 150, 60, 3));
        assert!(insert(&mut points, 60, 90, 10, 2));
        let shape: Vec<(u64, u64)> = points.iter().map(|e| (e.area, e.time)).collect();
        assert_eq!(shape, [(90, 60), (100, 50), (150, 40)]);
    }

    #[test]
    fn staircase_keeps_same_time_entries_with_smaller_data_paths() {
        let part = partition(
            &app(),
            &lib(),
            &RMap::new(),
            Area::new(1_000),
            &PaceConfig::standard(),
        )
        .unwrap();
        let mut points: Vec<ParetoEntry> = Vec::new();
        let insert = |points: &mut Vec<ParetoEntry>, time, area, gates, index| {
            frontier_insert(points, time, area, gates, index, || {
                (RMap::new(), part.clone())
            })
        };
        // A big data path reaches time 50 at area 100 (level 0); a
        // smaller one reaches it only with two controller quanta.
        assert!(insert(&mut points, 50, 100, 100, 4));
        assert!(insert(&mut points, 50, 140, 80, 9));
        let keys: Vec<(u64, u64, u64, u128)> = points
            .iter()
            .map(|e| (e.area, e.time, e.gates, e.index))
            .collect();
        assert_eq!(keys, [(100, 50, 100, 4), (140, 50, 80, 9)]);
        // A later candidate with the same time and data path at a
        // larger area loses on index; one with a smaller data path at
        // the same area evicts the entry it beats.
        assert!(!insert(&mut points, 50, 160, 80, 11));
        assert!(insert(&mut points, 50, 140, 60, 12));
        assert_eq!(points.len(), 2);
        assert_eq!((points[1].gates, points[1].index), (60, 12));

        // Each entry wins at its own budget, exactly as the
        // best-under-budget reduce orders them.
        let staircase: Vec<StairEntry> = points
            .into_iter()
            .map(|e| StairEntry {
                point: ParetoPoint {
                    allocation: e.allocation,
                    partition: e.partition,
                    area: Area::new(e.area),
                    index: e.index,
                },
                gates: e.gates,
            })
            .collect();
        let front = StoredFront {
            cap: Area::new(200),
            staircase,
        };
        let at = |b: u64| {
            front
                .best_at(Area::new(b))
                .map(|e| (e.gates, e.point.index))
        };
        assert_eq!(at(99), None);
        assert_eq!(at(100), Some((100, 4)));
        assert_eq!(at(139), Some((100, 4)));
        assert_eq!(at(140), Some((60, 12)));
        assert_eq!(at(200), Some((60, 12)));
        assert_eq!(at(201), None, "above the cap nothing is served");
        // The time frontier keeps only the smallest area per time.
        let areas: Vec<Area> = front
            .frontier_within(Area::new(200))
            .iter()
            .map(|p| p.area)
            .collect();
        assert_eq!(areas, [Area::new(100)]);
    }

    /// The tentpole acceptance on the in-crate fixture: the one-sweep
    /// frontier equals repeated single-budget exhaustive runs at each
    /// frontier area — partitions and allocations field-exact — and
    /// between frontier areas the exhaustive winner is the previous
    /// point (areas are minimal).
    #[test]
    fn pareto_frontier_matches_per_budget_exhaustive_runs() {
        let bsbs = app();
        let lib = lib();
        let restr = restr(&bsbs, &lib);
        let config = PaceConfig::standard();
        let total = Area::new(9_000);
        let front = search_pareto(
            &bsbs,
            &lib,
            total,
            &restr,
            &config,
            &SearchOptions::sequential(),
        )
        .unwrap();
        assert!(!front.points.is_empty());
        assert_eq!(front.points_accounted(), front.space_size);
        for pair in front.points.windows(2) {
            assert!(pair[0].area < pair[1].area, "areas strictly ascend");
            assert!(pair[0].time() > pair[1].time(), "times strictly descend");
        }
        for (i, point) in front.points.iter().enumerate() {
            let single = exhaustive_best(&bsbs, &lib, point.area, &restr, &config, None).unwrap();
            assert_eq!(single.best_partition, point.partition, "point {i}");
            assert_eq!(single.best_allocation, point.allocation, "point {i}");
            // Minimality: one gate less, and the previous point wins.
            if point.area.gates() > 0 {
                let below = Area::new(point.area.gates() - 1);
                let prev = exhaustive_best(&bsbs, &lib, below, &restr, &config, None).unwrap();
                if i == 0 {
                    assert!(
                        prev.best_partition.total_time > point.time(),
                        "first point's area is minimal"
                    );
                } else {
                    assert_eq!(
                        prev.best_partition.total_time,
                        front.points[i - 1].time(),
                        "between areas the previous frontier time rules"
                    );
                }
            }
        }
        // The fastest frontier point is the full-budget winner.
        let best = search_best(
            &bsbs,
            &lib,
            total,
            &restr,
            &config,
            &SearchOptions::sequential(),
        )
        .unwrap();
        let fastest = front.points.last().unwrap();
        assert_eq!(fastest.partition, best.best_partition);
        assert_eq!(fastest.allocation, best.best_allocation);
    }

    /// The frontier is identical across every engine shape: bounded or
    /// not, any thread count.
    #[test]
    fn pareto_frontier_is_engine_shape_invariant() {
        let bsbs = app();
        let lib = lib();
        let restr = restr(&bsbs, &lib);
        let config = PaceConfig::standard();
        let total = Area::new(9_000);
        let reference = search_pareto(
            &bsbs,
            &lib,
            total,
            &restr,
            &config,
            &SearchOptions::sequential(),
        )
        .unwrap();
        for threads in [1usize, 2, 5] {
            for bound in [false, true] {
                let options = SearchOptions::new().threads(threads).bound(bound);
                let run = search_pareto(&bsbs, &lib, total, &restr, &config, &options).unwrap();
                assert_eq!(
                    run.points, reference.points,
                    "threads={threads} bound={bound}"
                );
                assert_eq!(run.points_accounted(), run.space_size);
            }
        }
    }

    #[test]
    fn pareto_single_point_and_infeasible_frontiers() {
        let bsbs = app();
        let lib = lib();
        let config = PaceConfig::standard();
        // Zero area: only the all-software point fits, and the
        // frontier is exactly that single point at area 0.
        let restrictions = restr(&bsbs, &lib);
        let front = search_pareto(
            &bsbs,
            &lib,
            Area::new(0),
            &restrictions,
            &config,
            &SearchOptions::sequential(),
        )
        .unwrap();
        assert_eq!(front.points.len(), 1);
        let only = &front.points[0];
        assert_eq!(only.area, Area::new(0));
        assert!(only.allocation.is_empty());
        assert_eq!(only.time(), only.partition.all_sw_time);
        // No movable hardware at all (empty restrictions): every
        // budget collapses to the same all-software time, so the
        // frontier stays a single minimal-area point even with a huge
        // budget.
        let empty = Restrictions::new();
        let front = search_pareto(
            &bsbs,
            &lib,
            Area::new(50_000),
            &empty,
            &config,
            &SearchOptions::sequential(),
        )
        .unwrap();
        assert_eq!(front.points.len(), 1, "nothing trades area for time");
        assert!(front.points[0].allocation.is_empty());
    }

    /// Huge software times cannot pack into the shared incumbent word:
    /// the engine publishes "no information", counts the degradation,
    /// and the winner is still field-exact.
    #[test]
    fn unpackable_incumbents_are_counted_not_lied_about() {
        // Profiles huge enough that every candidate's time tops 2³².
        let huge = 2_000_000_000;
        let mul = [OpKind::Mul];
        let bsbs = BsbArray::from_bsbs(
            "huge",
            vec![block(0, &mul, 3, huge), block(1, &mul, 2, huge)],
        );
        let lib = lib();
        let restr = restr(&bsbs, &lib);
        let config = PaceConfig::standard();
        let area = Area::new(6_000);
        let bounded = search_best(
            &bsbs,
            &lib,
            area,
            &restr,
            &config,
            &SearchOptions::new().threads(1).bound(true),
        )
        .unwrap();
        assert!(
            bounded.stats.unpacked_incumbents > 0,
            "every improving candidate overflows the packed word"
        );
        let exhaustive = exhaustive_best(&bsbs, &lib, area, &restr, &config, None).unwrap();
        assert_eq!(bounded.best_partition, exhaustive.best_partition);
        assert_eq!(bounded.best_allocation, exhaustive.best_allocation);
        // Unbounded searches never publish, so the counter stays 0.
        let plain = search_best(
            &bsbs,
            &lib,
            area,
            &restr,
            &config,
            &SearchOptions::sequential(),
        )
        .unwrap();
        assert_eq!(plain.stats.unpacked_incumbents, 0);
    }

    /// The walk books the all-software point first and exactly once,
    /// even when a shared incumbent prunes every subtree: a fabricated
    /// seed at time 0, which no real point achieves, leaves index 0 the
    /// only evaluated point and the winner.
    #[test]
    fn all_software_point_is_booked_once_under_a_pruning_incumbent() {
        let bsbs = app();
        let lib = lib();
        let config = PaceConfig::standard();
        let artifacts =
            SearchArtifacts::prepare(&bsbs, &lib, &restr(&bsbs, &lib), &config).unwrap();
        let area = Area::new(8_000);
        let seed = WarmSeed {
            time: 0,
            gates: 0,
            index: 0,
        };
        for threads in [1usize, 3] {
            let res = search_best_with_stop(
                &bsbs,
                &lib,
                area,
                &config,
                &SearchOptions::new().threads(threads).bound(true),
                &artifacts,
                &[seed],
                &StopSignal::never(),
            )
            .unwrap();
            let all_sw = partition(&bsbs, &lib, &RMap::new(), area, &config).unwrap();
            assert!(res.stats.warm_reseeded, "threads={threads}");
            assert_eq!(res.evaluated, 1, "threads={threads}");
            assert_eq!(res.best_index, 0, "threads={threads}");
            assert!(res.best_allocation.is_empty(), "threads={threads}");
            assert_eq!(res.best_partition, all_sw, "threads={threads}");
            assert_eq!(res.stats.completion, Completion::Complete);
            assert_eq!(res.points_accounted(), res.space_size, "threads={threads}");
        }
    }

    /// Under a signal tripped before the sweep the anchor is the one
    /// evaluation: a larger window is truncated after it, while a window
    /// holding only the all-software point was fully visited.
    #[test]
    fn a_tripped_signal_still_books_the_anchor() {
        let (bsbs, lib, config) = (app(), lib(), PaceConfig::standard());
        let stop = StopSignal::never().with_cancel(Arc::new(true.into()));
        for (restrictions, completion) in [
            (restr(&bsbs, &lib), Completion::Cancelled),
            (Restrictions::new(), Completion::Complete),
        ] {
            let artifacts = SearchArtifacts::prepare(&bsbs, &lib, &restrictions, &config).unwrap();
            for bound in [false, true] {
                let options = SearchOptions::new().threads(2).bound(bound);
                let area = Area::new(8_000);
                let best = search_best_with_stop(
                    &bsbs,
                    &lib,
                    area,
                    &config,
                    &options,
                    &artifacts,
                    &[],
                    &stop,
                )
                .unwrap();
                let front = search_pareto_with_stop(
                    &bsbs, &lib, area, &config, &options, &artifacts, &stop,
                )
                .unwrap();
                assert_eq!((best.evaluated, best.best_index), (1, 0), "bound={bound}");
                assert_eq!(best.stats.completion, completion, "bound={bound}");
                assert_eq!(best.points_accounted(), best.space_size);
                assert_eq!((front.evaluated, front.points[0].index), (1, 0));
                assert_eq!(front.completion(), completion, "bound={bound}");
                assert_eq!(front.points_accounted(), front.space_size);
            }
        }
    }

    /// A synthetic application: one block per `(kinds, ops)` entry,
    /// with `ops` operations of each kind the 4-bit `kinds` mask picks,
    /// then an empty (immovable) block, a divider block and a
    /// divider-and-adder block. The restrictions cap the divider at
    /// zero, so the last two hold a kind outside the space.
    fn synthetic(entries: &[(u32, usize)], lib: &HwLibrary) -> (BsbArray, Restrictions) {
        let palette = [OpKind::Add, OpKind::Mul, OpKind::Shl, OpKind::Lt];
        let mut kinds: Vec<(Vec<OpKind>, usize)> = entries
            .iter()
            .map(|&(mask, ops)| {
                let picked = (0..4).filter(|k| mask & (1 << k) != 0);
                (picked.map(|k| palette[k]).collect(), ops)
            })
            .collect();
        kinds.extend([
            (vec![], 0),
            (vec![OpKind::Div], 1),
            (vec![OpKind::Div, OpKind::Add], 1),
        ]);
        let blocks = kinds.iter().enumerate();
        let blocks = blocks.map(|(i, (kinds, ops))| block(i, kinds, *ops, 50 + 70 * i as u64));
        let bsbs = BsbArray::from_bsbs("synthetic", blocks.collect());
        let mut restrictions = restr(&bsbs, lib);
        restrictions.tighten(lib.fu_for(OpKind::Div).unwrap(), 0);
        (bsbs, restrictions)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random bounded walks over synthetic spaces through the
        /// worker's own `advance`, `reseed` and `refresh_metrics`:
        /// plain steps, subtree skips and chunk jumps, refreshing at
        /// random points so one watermark spans several moves. Every
        /// refreshed buffer equals `compute_metrics` at the odometer's
        /// point, and the bound chain equals the direct prefix bound at
        /// every level.
        #[test]
        fn watermark_refreshes_match_compute_metrics(
            entries in prop::collection::vec((1u32..16, 1usize..4), 1..6),
            moves in prop::collection::vec((0u32..3, 0u32..1_000, any::<bool>()), 1..60),
        ) {
            let (lib, config) = (lib(), PaceConfig::standard());
            let (bsbs, restrictions) = synthetic(&entries, &lib);
            let artifacts = SearchArtifacts::prepare(&bsbs, &lib, &restrictions, &config).unwrap();
            let never = StopSignal::never();
            let bounds = artifacts.bounds(&bsbs, &lib, &never).unwrap();
            let (dims, space) = (artifacts.dims(), artifacts.space_size());
            let objective = BestUnderBudget;
            let shared = objective.shared();
            let mut worker = SweepWorker::new(
                &bsbs, &lib, &config, 100_000, &artifacts, bounds, &objective, &shared, &never,
            );
            let (mut index, mut odo) = (0u128, Odometer::at(dims, &lib, 0));
            for (kind, pick, refresh) in moves {
                // 0: a plain step, 1: a subtree skip, 2: a chunk jump.
                let pos = if kind == 0 { 0 } else { pick as usize % (odo.trailing_zeros() + 1) };
                let width = odo.subtree_width(pos);
                if kind == 2 {
                    index = u128::from(pick) % space;
                    odo = Odometer::at(dims, &lib, index);
                    worker.reseed();
                } else if index + width < space {
                    worker.advance(&mut odo, pos);
                    index += width;
                }
                if refresh {
                    worker.refresh_metrics(&odo).unwrap();
                    let fresh = compute_metrics(&bsbs, &lib, &odo.rmap(), &config).unwrap();
                    prop_assert_eq!(&worker.metrics, &fresh, "at index {}", index);
                    let bound = worker.bound.as_mut().unwrap();
                    for pos in 0..=dims.len() {
                        prop_assert_eq!(
                            bound.levels.bound_at(pos, &odo.counts),
                            bounds.unwrap().prefix_bound(&odo.counts, pos)
                        );
                    }
                }
            }
        }
    }
}
