//! The PACE dynamic-programming partitioner (Knudsen & Madsen, Codes/
//! CASHE '96 — reference [7] of the paper).
//!
//! Given a fixed data-path allocation, PACE chooses which BSBs to move
//! to hardware so that total execution time is minimal under the area
//! left for controllers. The DP walks the BSB sequence once per area
//! level; a block either stays in software, or closes a *run* of
//! adjacent hardware blocks `[j, i]`. Runs matter because adjacent
//! hardware blocks communicate for free — this is PACE's "inclusion of
//! adjacent sequences".
//!
//! Controller areas are the realistic, list-schedule-based figures from
//! [`crate::compute_metrics`], so a partition produced here reflects
//! what the synthesised system would actually cost (§5.1).
//!
//! # Staircase rows
//!
//! An allocation-space sweep runs this DP millions of times. Row `i`
//! of the DP, the minimal time of blocks `0..i` as a function of the
//! controller level `a`, is non-increasing in `a` and changes at only
//! a few levels: on `eigen` a row of 343 levels holds about 20
//! distinct values. The core therefore stores each row as its *steps*
//! instead of one cell per level:
//!
//! * **Steps** — row `i` is a level-sorted run of `(level, time,
//!   choice)` triples in flat structure-of-arrays slabs, delimited by
//!   `row_off[i] .. row_off[i + 1]`. Each step starts a segment of
//!   levels on which both the time and the choice stay constant; row
//!   0 is the single step `(0, 0, 0)`.
//! * **Merge** — row `i` is the pointwise minimum of `1 + R` shifted
//!   copies of finished rows: row `i-1` plus the block's software time
//!   (choice 0), and, for each run `j-1..=i-1` the run tables keep, row
//!   `j-1` shifted right by the run's controller quanta and up by its
//!   time (choice `j`). Every copy is itself a non-increasing
//!   staircase, so one level-ordered sweep over their steps keeps the
//!   running minimum under the key `(time, source order)` and emits a
//!   step wherever the time *or* the choice changes. Source order is
//!   software first, then the shortest run — the order in which the
//!   dense per-level scan met its candidates under its strict-`<`
//!   tie-break — so every level reads the same time and choice the
//!   dense grid held. A row costs its sources' steps, not its levels.
//! * **Bounded run tables** — the run tables are flat slabs too
//!   (`run_off[j] .. run_off[j] + run_len[j]` indexes the runs starting
//!   at block `j`). A run's controller quanta only grow as it extends
//!   (`ctl_sum` is a sum of non-negative areas), so the slab for start
//!   `j` stops at the first run over the level budget: no longer run
//!   could fit either.
//! * **Scratch reuse** — the run tables, the step slabs and the merge
//!   cursors are owned by the [`DpScratch`] a caller threads through
//!   repeated evaluations. After warm-up, evaluating a candidate
//!   allocates nothing: buffers are cleared and refilled in place.
//!
//! Readers find the segment holding a level by binary search over a
//! row's step levels, so a backtrack costs `O(L log steps)` and the
//! Pareto search walks only the final row's steps.
//!
//! The pre-optimisation implementation, a dense `(L + 1) × (levels +
//! 1)` grid, is retained as [`reference_partition_from_metrics`]
//! (hidden from docs): the equivalence tests pin the staircase core
//! against it, and the perf harness uses it as the measured baseline.

use crate::artifacts::SearchArtifacts;
use crate::metrics::BsbMetrics;
use crate::stop::StopSignal;
use crate::{CommCosts, PaceConfig, PaceError};
use lycos_core::RMap;
use lycos_hwlib::{Area, Cycles, HwLibrary};
use lycos_ir::BsbArray;
use std::ops::Range;

/// A hardware/software partition and its cost breakdown.
#[derive(Clone, PartialEq, Debug)]
pub struct Partition {
    /// Block placement: `true` = hardware.
    pub in_hw: Vec<bool>,
    /// Total execution time of the partitioned system, communication
    /// included.
    pub total_time: Cycles,
    /// Execution time of the all-software solution.
    pub all_sw_time: Cycles,
    /// Bus time included in `total_time`.
    pub comm_time: Cycles,
    /// Exact (unquantised) controller area of the hardware blocks.
    pub controller_area: Area,
    /// Data-path area of the allocation this partition was built for.
    pub datapath_area: Area,
    /// The maximal hardware runs, in order.
    pub runs: Vec<Range<usize>>,
}

impl Partition {
    /// The paper's speed-up figure: the decrease in execution time from
    /// the all-software solution, as a percentage of the hybrid time —
    /// `(T_sw − T_hybrid) / T_hybrid × 100`.
    pub fn speedup_pct(&self) -> f64 {
        if self.total_time.count() == 0 {
            return 0.0;
        }
        (self.all_sw_time.count() as f64 - self.total_time.count() as f64)
            / self.total_time.count() as f64
            * 100.0
    }

    /// Number of blocks in hardware.
    pub fn hw_count(&self) -> usize {
        self.in_hw.iter().filter(|&&h| h).count()
    }

    /// Static fraction of blocks in hardware (`HW` of Table 1's HW/SW
    /// column, by operation count).
    pub fn hw_fraction_static(&self, bsbs: &BsbArray) -> f64 {
        let total: usize = bsbs.total_ops();
        if total == 0 {
            return 0.0;
        }
        let hw: usize = bsbs
            .iter()
            .zip(&self.in_hw)
            .filter(|&(_, &h)| h)
            .map(|(b, _)| b.op_count())
            .sum();
        hw as f64 / total as f64
    }

    /// Data-path share of the used hardware area (Table 1's *Size*):
    /// `datapath / (datapath + controllers)`.
    pub fn size_fraction(&self) -> f64 {
        self.datapath_area
            .fraction_of(self.datapath_area + self.controller_area)
    }
}

/// Sentinel for an unreachable cell of the dense reference grid, far
/// from `u64` overflow even after a saturating add of any real cost.
const INF: u64 = u64::MAX / 4;

/// One input of a row merge: a finished row, shifted right by a run's
/// controller quanta and up by its time, standing for one choice.
#[derive(Clone, Copy, Debug)]
struct Source {
    /// Next unread step of the source row.
    next: usize,
    /// One past the source row's last step.
    end: usize,
    /// Shifted level of step `next`, or `usize::MAX` once the source
    /// is exhausted or past the level budget.
    at: usize,
    /// Level shift: the run's quanta, 0 for software.
    shift: usize,
    /// Time added to every step: the run's time, or the block's
    /// software time.
    add: u64,
    /// `0` = software; `j` = hardware run `j-1..=i-1` (1-based start).
    choice: u32,
}

/// Reusable workspace of the PACE dynamic program.
///
/// Each DP row — the minimal time of a block prefix as a function of
/// the controller level — is stored as its staircase of `(level, time,
/// choice)` steps and built by merging shifted copies of earlier rows,
/// so a row costs its steps, not its levels.
///
/// Owns the flat run tables, the staircase rows and the merge cursors
/// so that repeated evaluations — one per candidate of an
/// allocation-space sweep — perform no steady-state heap allocation:
/// buffers are cleared and refilled in place, and capacity ratchets up
/// to the largest problem seen. A scratch is freely reusable across
/// *different* applications and budgets; every evaluation resizes its
/// views first (pinned by property tests in the exploration crate).
///
/// Construct with [`DpScratch::new`], then thread `&mut` through
/// [`partition_with_artifacts`] or [`partition_from_metrics`].
#[derive(Clone, Debug, Default)]
pub struct DpScratch {
    /// `run_off[j]` = first flat index of the runs starting at `j`.
    run_off: Vec<usize>,
    /// Number of materialised runs starting at `j` (truncated at the
    /// first infeasible block *or* the first run over the level
    /// budget).
    run_len: Vec<usize>,
    /// Run execution time (hardware + boundary communication).
    run_time: Vec<u64>,
    /// Run controller quanta (`ceil(Σ ctl / quantum)`), nondecreasing
    /// along each `j` slab.
    run_quanta: Vec<usize>,
    /// Exact run controller area, for the backtrack's accounting.
    run_ctl: Vec<u64>,
    /// Run boundary bus cost, so the backtrack reads the run table
    /// instead of the [`CommCosts`].
    run_comm: Vec<u64>,
    /// `row_off[i] .. row_off[i + 1]` = the steps of DP row `i`.
    row_off: Vec<usize>,
    /// Step start level, strictly increasing within a row.
    step_level: Vec<u32>,
    /// Min time for blocks `0..i` on the step's segment.
    step_time: Vec<u64>,
    /// The choice on the step's segment, coded as [`Source::choice`].
    step_choice: Vec<u32>,
    /// Merge cursors of the row being built.
    sources: Vec<Source>,
    /// Problem shape of the last [`DpScratch::evaluate`] call.
    l: usize,
    levels: usize,
}

impl DpScratch {
    /// An empty workspace.
    pub fn new() -> Self {
        DpScratch::default()
    }

    /// Runs the forward DP over `metrics`, filling the run tables and
    /// the staircase rows in place, and returns the hybrid total time
    /// at the full controller budget — everything a sweep needs to
    /// rank a candidate. Call [`DpScratch::backtrack`] afterwards to
    /// materialise the winning [`Partition`].
    pub(crate) fn evaluate(
        &mut self,
        metrics: &[BsbMetrics],
        comm: &CommCosts,
        ctl_budget: Area,
        config: &PaceConfig,
    ) -> u64 {
        self.evaluate_stoppable(metrics, comm, ctl_budget, config, &StopSignal::never())
            .expect("a never-signal cannot stop the DP")
    }

    /// [`DpScratch::evaluate`] with a cooperative stop check between DP
    /// rows: returns `None` if `stop` trips mid-evaluation (the rows
    /// are then partially built and must not be read), `Some` with the
    /// exact hybrid time otherwise. A row is the natural abandon
    /// granularity — each costs one merge over its sources' steps,
    /// `O(steps × sources)` — so the check adds one branch per row and
    /// bounds deadline overrun to a single row.
    ///
    /// Levels are capped at `u32::MAX`, the widest step level: only a
    /// partition whose controllers need more than 2^32 quanta could
    /// tell the difference.
    ///
    /// # Panics
    ///
    /// If `comm` was priced for an application of another length than
    /// `metrics`.
    pub(crate) fn evaluate_stoppable(
        &mut self,
        metrics: &[BsbMetrics],
        comm: &CommCosts,
        ctl_budget: Area,
        config: &PaceConfig,
        stop: &StopSignal,
    ) -> Option<u64> {
        let l = metrics.len();
        assert_eq!(comm.blocks(), l, "traffic table priced for another app");
        let q = config.quantum;
        let levels = (ctl_budget.gates() / q).min(u64::from(u32::MAX)) as usize;
        self.l = l;
        self.levels = levels;

        // Per-run cost tables, flat SoA. The slab for start j covers
        // runs j..=i for growing i; it stops at the first infeasible
        // block, and at the first run whose quanta exceed `levels` —
        // ctl_sum only grows, so no longer run could ever fit either.
        self.run_off.clear();
        self.run_len.clear();
        self.run_time.clear();
        self.run_quanta.clear();
        self.run_ctl.clear();
        self.run_comm.clear();
        for j in 0..l {
            self.run_off.push(self.run_time.len());
            let mut hw_sum = 0u64;
            let mut ctl_sum = 0u64;
            let mut len = 0usize;
            for (i, m) in metrics.iter().enumerate().skip(j) {
                let (Some(hw), Some(ctl)) = (m.hw_time, m.controller_area) else {
                    break; // infeasible block: no run crosses it
                };
                hw_sum += hw.count();
                ctl_sum += ctl.gates();
                let quanta = ctl_sum.div_ceil(q) as usize;
                if quanta > levels {
                    break; // over budget now and for every longer run
                }
                let c = comm.cost(j, i);
                self.run_time.push(hw_sum + c);
                self.run_quanta.push(quanta);
                self.run_ctl.push(ctl_sum);
                self.run_comm.push(c);
                len += 1;
            }
            self.run_len.push(len);
        }

        self.row_off.clear();
        self.step_level.clear();
        self.step_time.clear();
        self.step_choice.clear();
        self.row_off.extend([0, 1]);
        self.step_level.push(0);
        self.step_time.push(0);
        self.step_choice.push(0);
        let stoppable = !stop.is_never();
        for i in 1..=l {
            if stoppable && stop.check().is_some() {
                return None;
            }
            // Sources in the dense scan's tie-break order: software,
            // then runs ending at block i-1 from shortest to longest.
            // Every kept run fits `levels`, so each source's first
            // step (level 0 of its row) lands inside the budget.
            self.sources.clear();
            self.sources.push(Source {
                next: self.row_off[i - 1],
                end: self.row_off[i],
                at: 0,
                shift: 0,
                add: metrics[i - 1].sw_time.count(),
                choice: 0,
            });
            for j in (1..=i).rev() {
                let idx = i - j; // offset into the slab of start j-1
                if self.run_len[j - 1] <= idx {
                    break; // infeasible or over-budget block inside the run
                }
                let e = self.run_off[j - 1] + idx;
                self.sources.push(Source {
                    next: self.row_off[j - 1],
                    end: self.row_off[j],
                    at: self.run_quanta[e],
                    shift: self.run_quanta[e],
                    add: self.run_time[e],
                    choice: j as u32,
                });
            }
            merge_row(
                &mut self.sources,
                levels,
                &mut self.step_level,
                &mut self.step_time,
                &mut self.step_choice,
            );
            self.row_off.push(self.step_level.len());
        }
        Some(self.step_time[self.step_time.len() - 1])
    }

    /// Controller levels of the last [`DpScratch::evaluate`] call —
    /// the controller budget in quanta, the top level of every row.
    pub(crate) fn levels(&self) -> usize {
        self.levels
    }

    /// Staircase steps the last evaluation (e.g. by
    /// [`partition_from_metrics`]) stored over rows `1..=L` — the DP's
    /// working size. A dense grid would hold `L × (levels + 1)` cells
    /// instead.
    pub fn stored_steps(&self) -> usize {
        self.step_level.len().saturating_sub(1) // row 0 is one step
    }

    /// Flat index of the step of row `i` whose segment holds level `a`.
    fn step_at(&self, i: usize, a: usize) -> usize {
        let row = self.row_off[i]..self.row_off[i + 1];
        // Every row starts at level 0, so the count is at least 1.
        row.start + self.step_level[row].partition_point(|&lv| lv as usize <= a) - 1
    }

    /// Minimal hybrid time over all blocks within `level` controller
    /// quanta, after the last [`DpScratch::evaluate`] call:
    /// non-increasing in `level`, equal to the evaluated time at
    /// `levels()`.
    pub(crate) fn time_at_level(&self, level: usize) -> u64 {
        self.step_time[self.step_at(self.l, level)]
    }

    /// The final row's `(level, time)` corners, level-ascending: level
    /// 0, then every level where the minimal time strictly falls. The
    /// time at any level is that of the last corner at or below it —
    /// the whole time×area trade-off of one candidate at quantum
    /// granularity, the seam the Pareto-front search harvests.
    pub(crate) fn time_falls(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let row = self.row_off[self.l]..self.row_off[self.l + 1];
        let mut prev = u64::MAX;
        self.step_level[row.clone()]
            .iter()
            .zip(&self.step_time[row])
            .filter(move |&(_, &time)| {
                let falls = time < prev;
                prev = time;
                falls
            })
            .map(|(&level, &time)| (level as usize, time))
    }

    /// Materialises the [`Partition`] chosen by the last
    /// [`DpScratch::evaluate`] call. Reads the run tables for the
    /// per-run communication and controller figures — the
    /// [`CommCosts`] is never read again.
    pub(crate) fn backtrack(&self, metrics: &[BsbMetrics], datapath_area: Area) -> Partition {
        self.backtrack_at(metrics, datapath_area, self.levels)
    }

    /// [`DpScratch::backtrack`] at an arbitrary controller level
    /// `level ≤ levels`: the partition the same evaluation would have
    /// produced under a controller budget of exactly `level` quanta.
    /// Sound because a row's value at level `a` only ever depends on
    /// levels and runs with quanta `≤ a` — the rows cut at `level` are
    /// exactly the rows a smaller-budget evaluation would build.
    pub(crate) fn backtrack_at(
        &self,
        metrics: &[BsbMetrics],
        datapath_area: Area,
        level: usize,
    ) -> Partition {
        debug_assert!(level <= self.levels, "level outside the evaluated rows");
        let l = self.l;
        let all_sw_time: Cycles = metrics.iter().map(|m| m.sw_time).sum();

        let mut in_hw = vec![false; l];
        let mut runs = Vec::new();
        let mut comm_time = 0u64;
        let mut controller_area = 0u64;
        let mut i = l;
        let mut a = level;
        while i > 0 {
            let pick = self.step_choice[self.step_at(i, a)];
            if pick == 0 {
                i -= 1;
            } else {
                let j = pick as usize; // 1-based start
                let e = self.run_off[j - 1] + (i - j);
                for b in in_hw.iter_mut().take(i).skip(j - 1) {
                    *b = true;
                }
                runs.push(j - 1..i);
                comm_time += self.run_comm[e];
                controller_area += self.run_ctl[e];
                a -= self.run_quanta[e];
                i = j - 1;
            }
        }
        runs.reverse();

        Partition {
            in_hw,
            total_time: Cycles::new(self.time_at_level(level)),
            all_sw_time,
            comm_time: Cycles::new(comm_time),
            controller_area: Area::new(controller_area),
            datapath_area,
            runs,
        }
    }
}

/// Appends one DP row: the pointwise minimum of `sources` over levels
/// `0..=levels`, as steps.
///
/// Each source is a non-increasing staircase from its shift on, so its
/// key `(time, position in sources)` only falls as the level grows, and
/// the row's minimum key can be kept as a running minimum: at each
/// level where some source steps, fold that source's new key in. A
/// step is emitted wherever the resulting time or choice differs from
/// the last step — a choice can change at equal time, when a
/// higher-priority source catches up with the incumbent, and the
/// backtrack must see that.
///
/// `sources` arrive sorted by shift (software at 0, then runs of
/// nondecreasing quanta), so the sources that have started form a
/// prefix and only that prefix is scanned at each level.
fn merge_row(
    sources: &mut [Source],
    levels: usize,
    step_level: &mut Vec<u32>,
    step_time: &mut Vec<u64>,
    step_choice: &mut Vec<u32>,
) {
    debug_assert!(sources.windows(2).all(|w| w[0].shift <= w[1].shift));
    let mut best = (u64::MAX, usize::MAX, 0u32); // (time, source, choice)
    let mut last = (u64::MAX, u32::MAX); // (time, choice) of the last step
    let mut live = 0usize; // sources[..live] have reached their shift
    let mut at = 0usize; // the software source steps at level 0
    loop {
        while live < sources.len() && sources[live].at == at {
            live += 1;
        }
        let mut next_at = sources.get(live).map_or(usize::MAX, |s| s.at);
        for (k, s) in sources[..live].iter_mut().enumerate() {
            if s.at == at {
                let t = step_time[s.next].saturating_add(s.add);
                if t < best.0 || (t == best.0 && k < best.1) {
                    best = (t, k, s.choice);
                }
                s.next += 1;
                s.at = if s.next < s.end {
                    let lv = step_level[s.next] as usize + s.shift;
                    if lv <= levels {
                        lv
                    } else {
                        usize::MAX // past the budget, as is every later step
                    }
                } else {
                    usize::MAX
                };
            }
            next_at = next_at.min(s.at);
        }
        if (best.0, best.2) != last {
            last = (best.0, best.2);
            step_level.push(at as u32);
            step_time.push(best.0);
            step_choice.push(best.2);
        }
        if next_at == usize::MAX {
            return;
        }
        at = next_at;
    }
}

/// Runs PACE: partitions `bsbs` for the data path `allocation` within
/// `total_area` of hardware.
///
/// One-shot convenience over [`partition_with_artifacts`]: fresh
/// artifacts and a fresh workspace are built per call. Hot loops —
/// anything evaluating many allocations — should hold one
/// [`SearchArtifacts`] and one [`DpScratch`] and use the reusable
/// seams instead.
///
/// # Errors
///
/// * [`PaceError::DatapathTooLarge`] if the allocation alone exceeds
///   `total_area`.
/// * [`PaceError::Sched`] / [`PaceError::Hw`] if a block cannot be
///   scheduled at all.
///
/// # Examples
///
/// ```
/// use lycos_core::RMap;
/// use lycos_hwlib::{Area, HwLibrary};
/// use lycos_ir::{extract_bsbs, Cdfg, CdfgNode, DfgBuilder, OpKind, TripCount};
/// use lycos_pace::{partition, PaceConfig};
///
/// let mut b = DfgBuilder::new();
/// let m1 = b.binary(OpKind::Mul, "a".into(), "b".into());
/// b.assign("x", m1);
/// let m2 = b.binary(OpKind::Mul, "x".into(), "x".into());
/// b.assign("y", m2);
/// let cdfg = Cdfg::new(
///     "hot",
///     CdfgNode::Loop {
///         label: "l".into(),
///         test: None,
///         body: Box::new(CdfgNode::block("body", b.finish())),
///         trip: TripCount::Fixed(500),
///     },
/// );
/// let bsbs = extract_bsbs(&cdfg, None)?;
/// let lib = HwLibrary::standard();
/// let mult = lib.fu_for(OpKind::Mul).unwrap();
/// let alloc: RMap = [(mult, 1)].into_iter().collect();
///
/// let p = partition(&bsbs, &lib, &alloc, Area::new(4000), &PaceConfig::standard())?;
/// assert!(p.in_hw[0], "the hot block moves to hardware");
/// assert!(p.speedup_pct() > 100.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn partition(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    allocation: &RMap,
    total_area: Area,
    config: &PaceConfig,
) -> Result<Partition, PaceError> {
    let artifacts = SearchArtifacts::for_partition(bsbs, lib, config)?;
    let mut scratch = DpScratch::new();
    partition_with_artifacts(
        bsbs,
        lib,
        allocation,
        total_area,
        config,
        &mut scratch,
        &artifacts,
    )
}

/// [`partition`] over artifacts prepared (or fetched from an
/// [`ArtifactStore`](crate::ArtifactStore)) elsewhere and a
/// caller-owned [`DpScratch`]: metrics derive from the artifacts'
/// statics and schedule table, and the DP reads the artifacts' traffic
/// table in place. Results are identical to [`partition`]'s; repeated
/// calls over one application stop re-deriving the per-block facts,
/// and the scratch may have served any other application or budget
/// before.
///
/// # Errors
///
/// Same conditions as [`partition`].
pub fn partition_with_artifacts(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    allocation: &RMap,
    total_area: Area,
    config: &PaceConfig,
    scratch: &mut DpScratch,
    artifacts: &SearchArtifacts,
) -> Result<Partition, PaceError> {
    let datapath_area = allocation.area(lib);
    let ctl_budget = total_area
        .checked_sub(datapath_area)
        .ok_or(PaceError::DatapathTooLarge {
            datapath: datapath_area,
            total: total_area,
        })?;

    let metrics = artifacts.metrics(bsbs, lib, allocation, config)?;
    Ok(partition_from_metrics(
        &metrics,
        artifacts.comm(),
        scratch,
        datapath_area,
        ctl_budget,
        config,
    ))
}

/// The PACE dynamic program over precomputed per-block metrics — the
/// seam the allocation-search engine drives: metrics come from its
/// memo cache ([`crate::MetricsCache`]), `comm` is the one table every
/// candidate reads (run traffic never depends on the allocation), and
/// `scratch` carries the DP tables from evaluation to evaluation.
///
/// `metrics` must hold one entry per block of the application, e.g.
/// from [`crate::compute_metrics`], and `comm` must be that
/// application's table ([`CommCosts::priced`]).
///
/// # Panics
///
/// If `comm` was priced for an application of another length.
pub fn partition_from_metrics(
    metrics: &[BsbMetrics],
    comm: &CommCosts,
    scratch: &mut DpScratch,
    datapath_area: Area,
    ctl_budget: Area,
    config: &PaceConfig,
) -> Partition {
    scratch.evaluate(metrics, comm, ctl_budget, config);
    scratch.backtrack(metrics, datapath_area)
}

/// The pre-optimisation (PR 3) DP core, kept verbatim: fresh nested
/// `Vec` run tables per call, a `continue`-based run scan, and a
/// backtrack that re-reads the [`CommCosts`]. Not part of the
/// public API — it exists so equivalence tests can pin the optimised
/// core against the exact seed behaviour, and so the perf harness has
/// a real baseline to measure against.
#[doc(hidden)]
pub fn reference_partition_from_metrics(
    bsbs: &BsbArray,
    metrics: &[BsbMetrics],
    comm: &CommCosts,
    datapath_area: Area,
    ctl_budget: Area,
    config: &PaceConfig,
) -> Partition {
    let l = bsbs.len();
    assert_eq!(comm.blocks(), l, "traffic table priced for another app");
    let all_sw_time: Cycles = metrics.iter().map(|m| m.sw_time).sum();

    if l == 0 {
        return Partition {
            in_hw: Vec::new(),
            total_time: Cycles::ZERO,
            all_sw_time,
            comm_time: Cycles::ZERO,
            controller_area: Area::ZERO,
            datapath_area,
            runs: Vec::new(),
        };
    }

    let q = config.quantum;
    let levels = (ctl_budget.gates() / q) as usize;

    let feasible: Vec<bool> = metrics.iter().map(|m| m.hw_feasible()).collect();
    let mut run_time = vec![Vec::<u64>::new(); l];
    let mut run_quanta = vec![Vec::<usize>::new(); l];
    let mut run_ctl = vec![Vec::<u64>::new(); l];
    for j in 0..l {
        let mut hw_sum = 0u64;
        let mut ctl_sum = 0u64;
        for i in j..l {
            if !feasible[i] {
                break;
            }
            hw_sum += metrics[i].hw_time.expect("feasible").count();
            ctl_sum += metrics[i].controller_area.expect("feasible").gates();
            let comm = comm.cost(j, i);
            run_time[j].push(hw_sum + comm);
            run_quanta[j].push(ctl_sum.div_ceil(q) as usize);
            run_ctl[j].push(ctl_sum);
        }
    }

    let width = levels + 1;
    let mut dp = vec![INF; (l + 1) * width];
    let mut choice = vec![0u32; (l + 1) * width];
    dp[..=levels].fill(0);
    for i in 1..=l {
        for a in 0..=levels {
            let mut best = dp[(i - 1) * width + a].saturating_add(metrics[i - 1].sw_time.count());
            let mut pick = 0u32;
            for j in (1..=i).rev() {
                let idx = i - j;
                if run_time[j - 1].len() <= idx {
                    break; // infeasible block inside the run
                }
                let quanta = run_quanta[j - 1][idx];
                if quanta > a {
                    continue;
                }
                let t = dp[(j - 1) * width + (a - quanta)].saturating_add(run_time[j - 1][idx]);
                if t < best {
                    best = t;
                    pick = j as u32;
                }
            }
            dp[i * width + a] = best;
            choice[i * width + a] = pick;
        }
    }

    let mut in_hw = vec![false; l];
    let mut runs = Vec::new();
    let mut comm_time = 0u64;
    let mut controller_area = 0u64;
    let mut i = l;
    let mut a = levels;
    while i > 0 {
        let pick = choice[i * width + a];
        if pick == 0 {
            i -= 1;
        } else {
            let j = pick as usize; // 1-based start
            let idx = i - j;
            for b in in_hw.iter_mut().take(i).skip(j - 1) {
                *b = true;
            }
            runs.push(j - 1..i);
            comm_time += comm.cost(j - 1, i - 1);
            controller_area += run_ctl[j - 1][idx];
            a -= run_quanta[j - 1][idx];
            i = j - 1;
        }
    }
    runs.reverse();

    Partition {
        in_hw,
        total_time: Cycles::new(dp[l * width + levels]),
        all_sw_time,
        comm_time: Cycles::new(comm_time),
        controller_area: Area::new(controller_area),
        datapath_area,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_metrics;
    use lycos_ir::{Bsb, BsbId, BsbOrigin, Dfg, OpKind};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn lib() -> HwLibrary {
        HwLibrary::standard()
    }

    fn bsb_full(
        i: u32,
        kind: OpKind,
        n: usize,
        profile: u64,
        reads: &[&str],
        writes: &[&str],
    ) -> Bsb {
        let mut dfg = Dfg::new();
        for _ in 0..n {
            dfg.add_op(kind);
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

    fn alloc_of(pairs: &[(OpKind, u32)]) -> RMap {
        let lib = lib();
        pairs
            .iter()
            .map(|&(op, c)| (lib.fu_for(op).unwrap(), c))
            .collect()
    }

    /// The seed behaviour, end to end: fresh metrics and comm table per
    /// call, through the retained reference DP core.
    fn reference_partition(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        allocation: &RMap,
        total_area: Area,
        config: &PaceConfig,
    ) -> Partition {
        let datapath_area = allocation.area(lib);
        let ctl_budget = total_area.checked_sub(datapath_area).expect("fits");
        let metrics = compute_metrics(bsbs, lib, allocation, config).unwrap();
        let comm = CommCosts::priced(bsbs, &config.comm);
        reference_partition_from_metrics(bsbs, &metrics, &comm, datapath_area, ctl_budget, config)
    }

    #[test]
    fn empty_allocation_keeps_everything_in_software() {
        let bsbs = BsbArray::from_bsbs("t", vec![bsb_full(0, OpKind::Add, 4, 100, &[], &[])]);
        let p = partition(
            &bsbs,
            &lib(),
            &RMap::new(),
            Area::new(10_000),
            &PaceConfig::standard(),
        )
        .unwrap();
        assert_eq!(p.hw_count(), 0);
        assert_eq!(p.total_time, p.all_sw_time);
        assert_eq!(p.speedup_pct(), 0.0);
        assert!(p.runs.is_empty());
    }

    #[test]
    fn hot_feasible_block_moves_to_hardware() {
        let bsbs = BsbArray::from_bsbs("t", vec![bsb_full(0, OpKind::Add, 4, 1000, &[], &[])]);
        let p = partition(
            &bsbs,
            &lib(),
            &alloc_of(&[(OpKind::Add, 4)]),
            Area::new(10_000),
            &PaceConfig::standard(),
        )
        .unwrap();
        assert!(p.in_hw[0]);
        // 4 adds × 6 cyc × 1000 = 24000 SW vs 1 step × 1000 HW.
        assert_eq!(p.all_sw_time, Cycles::new(24_000));
        assert!(p.total_time < Cycles::new(2_000));
        assert!(p.speedup_pct() > 1_000.0);
    }

    #[test]
    fn no_controller_room_means_no_hardware() {
        let bsbs = BsbArray::from_bsbs("t", vec![bsb_full(0, OpKind::Add, 4, 1000, &[], &[])]);
        let alloc = alloc_of(&[(OpKind::Add, 4)]);
        let lib = lib();
        let datapath = alloc.area(&lib);
        // Total area exactly the data path: zero controller budget.
        let p = partition(&bsbs, &lib, &alloc, datapath, &PaceConfig::standard()).unwrap();
        assert_eq!(p.hw_count(), 0, "controller does not fit");
    }

    #[test]
    fn datapath_larger_than_total_is_an_error() {
        let bsbs = BsbArray::from_bsbs("t", vec![bsb_full(0, OpKind::Add, 1, 1, &[], &[])]);
        let err = partition(
            &bsbs,
            &lib(),
            &alloc_of(&[(OpKind::Add, 1)]),
            Area::new(10),
            &PaceConfig::standard(),
        )
        .unwrap_err();
        assert!(matches!(err, PaceError::DatapathTooLarge { .. }));
    }

    #[test]
    fn area_budget_limits_how_many_blocks_move() {
        // Many hot blocks; controller budget fits only some.
        let blocks: Vec<Bsb> = (0..6)
            .map(|i| bsb_full(i, OpKind::Add, 4, 1000, &[], &[]))
            .collect();
        let bsbs = BsbArray::from_bsbs("t", blocks);
        let lib = lib();
        let alloc = alloc_of(&[(OpKind::Add, 4)]);
        let dp_area = alloc.area(&lib);
        let cfg = PaceConfig::standard();
        // Each controller: 1 state → ECA(1) = 96 GE. A merged run of k
        // controllers costs 96k GE rounded up to 16-GE quanta (= 6k
        // quanta). 18 quanta = 288 GE: three controllers fit (288),
        // four (384) do not.
        let budget = Area::new(dp_area.gates() + 18 * cfg.quantum);
        let p = partition(&bsbs, &lib, &alloc, budget, &cfg).unwrap();
        assert_eq!(p.hw_count(), 3, "exactly three controllers fit");
        // And with a huge budget all six move.
        let p = partition(&bsbs, &lib, &alloc, Area::new(100_000), &cfg).unwrap();
        assert_eq!(p.hw_count(), 6);
    }

    #[test]
    fn infeasible_blocks_stay_in_software() {
        // Block 1 needs a divider the allocation lacks.
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                bsb_full(0, OpKind::Add, 4, 100, &[], &[]),
                bsb_full(1, OpKind::Div, 2, 100, &[], &[]),
            ],
        );
        let p = partition(
            &bsbs,
            &lib(),
            &alloc_of(&[(OpKind::Add, 4)]),
            Area::new(10_000),
            &PaceConfig::standard(),
        )
        .unwrap();
        assert!(p.in_hw[0]);
        assert!(!p.in_hw[1]);
    }

    #[test]
    fn adjacent_blocks_merge_into_one_run() {
        // Chain of data through three hot blocks: one run, intra-run
        // traffic free.
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                bsb_full(0, OpKind::Add, 3, 500, &["a"], &["x"]),
                bsb_full(1, OpKind::Add, 3, 500, &["x"], &["y"]),
                bsb_full(2, OpKind::Add, 3, 500, &["y"], &["z"]),
            ],
        );
        let p = partition(
            &bsbs,
            &lib(),
            &alloc_of(&[(OpKind::Add, 3)]),
            Area::new(10_000),
            &PaceConfig::standard(),
        )
        .unwrap();
        assert_eq!(p.hw_count(), 3);
        assert_eq!(p.runs.len(), 1, "one maximal run");
        assert_eq!(p.runs[0], 0..3);
    }

    #[test]
    fn communication_can_keep_a_block_in_software() {
        // A lukewarm block whose inputs change every execution: the bus
        // cost exceeds the modest compute gain.
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                // Producer in software (cheap, cold): writes 8 vars.
                bsb_full(0, OpKind::Add, 1, 1000, &[], &["v0"]),
                // Consumer: reads the fresh value each time; tiny gain.
                bsb_full(1, OpKind::Add, 2, 1000, &["v0"], &["w"]),
                // Final reader keeps w live.
                bsb_full(2, OpKind::Add, 1, 1000, &["w"], &[]),
            ],
        );
        let lib = lib();
        // Only allow moving the middle block: SW 2×6 = 12/exec,
        // HW 1 step + comm in 14 + out 14 per exec — not worth it.
        let alloc = alloc_of(&[(OpKind::Add, 2)]);
        let p = partition(
            &bsbs,
            &lib,
            &alloc,
            Area::new(1_000),
            &PaceConfig::standard(),
        )
        .unwrap();
        // Moving all three is better than moving just the middle one;
        // but with a budget that fits only one controller the middle
        // block alone must NOT move.
        let dp = alloc.area(&lib);
        let tight = partition(
            &bsbs,
            &lib,
            &alloc,
            Area::new(dp.gates() + 16),
            &PaceConfig::standard(),
        )
        .unwrap();
        assert!(
            !tight.in_hw[1] || tight.comm_time.count() == 0,
            "middle block alone should not pay the bus"
        );
        let _ = p;
    }

    #[test]
    fn partition_accounting_is_consistent() {
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                bsb_full(0, OpKind::Add, 3, 100, &["a"], &["x"]),
                bsb_full(1, OpKind::Mul, 2, 900, &["x"], &["y"]),
                bsb_full(2, OpKind::Add, 1, 10, &["y"], &["z"]),
            ],
        );
        let lib = lib();
        let alloc = alloc_of(&[(OpKind::Add, 3), (OpKind::Mul, 2)]);
        let p = partition(
            &bsbs,
            &lib,
            &alloc,
            Area::new(20_000),
            &PaceConfig::standard(),
        )
        .unwrap();
        assert_eq!(p.datapath_area, alloc.area(&lib));
        assert!(p.total_time <= p.all_sw_time, "DP never loses to all-SW");
        assert!(p.comm_time <= p.total_time);
        let in_runs: usize = p.runs.iter().map(|r| r.len()).sum();
        assert_eq!(in_runs, p.hw_count());
        assert!((0.0..=1.0).contains(&p.size_fraction()));
        assert!((0.0..=1.0).contains(&p.hw_fraction_static(&bsbs)));
    }

    #[test]
    fn empty_application_partitions_trivially() {
        let bsbs = BsbArray::from_bsbs("t", vec![]);
        let p = partition(
            &bsbs,
            &lib(),
            &RMap::new(),
            Area::new(1_000),
            &PaceConfig::standard(),
        )
        .unwrap();
        assert_eq!(p.total_time, Cycles::ZERO);
        assert_eq!(p.speedup_pct(), 0.0);
    }

    #[test]
    fn dp_beats_or_matches_all_software_everywhere() {
        // Randomised-ish structure, several budgets.
        let blocks: Vec<Bsb> = (0..8)
            .map(|i| {
                let kind = match i % 3 {
                    0 => OpKind::Add,
                    1 => OpKind::Mul,
                    _ => OpKind::Sub,
                };
                bsb_full(i, kind, 1 + (i as usize % 4), 10 * (i as u64 + 1), &[], &[])
            })
            .collect();
        let bsbs = BsbArray::from_bsbs("t", blocks);
        let alloc = alloc_of(&[(OpKind::Add, 2), (OpKind::Mul, 1), (OpKind::Sub, 1)]);
        let lib = lib();
        let dp_area = alloc.area(&lib).gates();
        for extra in [0u64, 50, 200, 1_000, 10_000] {
            let p = partition(
                &bsbs,
                &lib,
                &alloc,
                Area::new(dp_area + extra),
                &PaceConfig::standard(),
            )
            .unwrap();
            assert!(p.total_time <= p.all_sw_time, "budget +{extra}");
        }
    }

    /// A mix of shapes the reuse/pruning/parallel tests sweep over:
    /// feasible and infeasible blocks, chained traffic, hot and cold
    /// profiles.
    fn zoo() -> Vec<(BsbArray, RMap)> {
        vec![
            (
                BsbArray::from_bsbs("one", vec![bsb_full(0, OpKind::Add, 4, 1000, &[], &[])]),
                alloc_of(&[(OpKind::Add, 4)]),
            ),
            (
                BsbArray::from_bsbs(
                    "chain",
                    vec![
                        bsb_full(0, OpKind::Add, 3, 500, &["a"], &["x"]),
                        bsb_full(1, OpKind::Mul, 2, 700, &["x"], &["y"]),
                        bsb_full(2, OpKind::Add, 2, 90, &["y"], &["z"]),
                        bsb_full(3, OpKind::Div, 1, 40, &["z"], &["w"]),
                    ],
                ),
                alloc_of(&[(OpKind::Add, 3), (OpKind::Mul, 1)]),
            ),
            (
                BsbArray::from_bsbs(
                    "wide",
                    (0..9)
                        .map(|i| {
                            bsb_full(
                                i,
                                OpKind::Add,
                                1 + (i as usize % 3),
                                10 * (i as u64 + 1),
                                &[],
                                &[],
                            )
                        })
                        .collect(),
                ),
                alloc_of(&[(OpKind::Add, 3)]),
            ),
        ]
    }

    #[test]
    fn new_core_matches_the_reference_everywhere() {
        // The optimised core (scratch reuse, truncated tables, break
        // scan) against the retained seed core and a fresh partition,
        // across shapes and budgets — including budgets tight enough
        // that most runs are never materialised. One scratch is
        // interleaved across applications of different sizes and
        // budgets of different level counts, each app over one
        // artifact set.
        let lib = lib();
        let cfg = PaceConfig::standard();
        let apps: Vec<_> = zoo()
            .into_iter()
            .map(|(bsbs, alloc)| {
                let artifacts = SearchArtifacts::for_partition(&bsbs, &lib, &cfg).unwrap();
                (bsbs, alloc, artifacts)
            })
            .collect();
        let mut scratch = DpScratch::new();
        for extra in [0u64, 16, 100, 300, 400, 800, 1_000, 1_200, 10_000] {
            for (bsbs, alloc, artifacts) in &apps {
                let total = Area::new(alloc.area(&lib).gates() + extra);
                let new = partition_with_artifacts(
                    bsbs,
                    &lib,
                    alloc,
                    total,
                    &cfg,
                    &mut scratch,
                    artifacts,
                )
                .unwrap();
                let what = format!("{} +{extra}", bsbs.app_name());
                assert_eq!(
                    new,
                    reference_partition(bsbs, &lib, alloc, total, &cfg),
                    "{what}"
                );
                assert_eq!(
                    new,
                    partition(bsbs, &lib, alloc, total, &cfg).unwrap(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn monotone_break_matches_the_continue_scan_on_a_quanta_plateau() {
        // A giant quantum makes every run of 1..=6 blocks cost exactly
        // one quantum — a plateau where the old scan `continue`d over
        // equal values and the new scan must keep scanning too (it may
        // only break on *strictly* greater quanta). A wrong `>=` break
        // would miss the longer, communication-free runs.
        let bsbs = BsbArray::from_bsbs(
            "plateau",
            vec![
                bsb_full(0, OpKind::Add, 2, 400, &["in"], &["a"]),
                bsb_full(1, OpKind::Add, 2, 400, &["a"], &["b"]),
                bsb_full(2, OpKind::Add, 2, 400, &["b"], &["c"]),
                bsb_full(3, OpKind::Add, 2, 400, &["c"], &["d"]),
                bsb_full(4, OpKind::Add, 2, 400, &["d"], &["e"]),
                bsb_full(5, OpKind::Add, 2, 400, &["e"], &["out"]),
            ],
        );
        let lib = lib();
        let alloc = alloc_of(&[(OpKind::Add, 2)]);
        let cfg = PaceConfig {
            quantum: 4_096, // ECA(1..6 controllers) all round up to 1 quantum
            ..PaceConfig::standard()
        };
        let dp_gates = alloc.area(&lib).gates();
        let mut scratch = DpScratch::new();
        for extra_quanta in [1u64, 2, 3] {
            let total = Area::new(dp_gates + extra_quanta * cfg.quantum);
            let metrics = compute_metrics(&bsbs, &lib, &alloc, &cfg).unwrap();
            let ctl = total.checked_sub(alloc.area(&lib)).unwrap();
            let comm = CommCosts::priced(&bsbs, &cfg.comm);
            let seed = reference_partition_from_metrics(
                &bsbs,
                &metrics,
                &comm,
                alloc.area(&lib),
                ctl,
                &cfg,
            );
            let new =
                partition_from_metrics(&metrics, &comm, &mut scratch, alloc.area(&lib), ctl, &cfg);
            assert_eq!(new, seed, "+{extra_quanta} quanta");
            // The plateau really is exercised: one quantum admits the
            // full six-block run, whose intra-run traffic is free.
            if extra_quanta == 1 {
                assert_eq!(new.runs, vec![0..6], "whole chain in one run");
                assert_eq!(new.comm_time, seed.comm_time);
            }
        }
    }

    #[test]
    fn over_budget_runs_are_never_materialised() {
        // Six hot blocks but room for three controllers: the run slabs
        // must stop at the first run over the level budget instead of
        // materialising all O(L²) entries.
        let blocks: Vec<Bsb> = (0..6)
            .map(|i| bsb_full(i, OpKind::Add, 4, 1000, &[], &[]))
            .collect();
        let bsbs = BsbArray::from_bsbs("t", blocks);
        let lib = lib();
        let alloc = alloc_of(&[(OpKind::Add, 4)]);
        let cfg = PaceConfig::standard();
        let metrics = compute_metrics(&bsbs, &lib, &alloc, &cfg).unwrap();
        let ctl = Area::new(18 * cfg.quantum); // three 6-quanta controllers
        let comm = CommCosts::priced(&bsbs, &cfg.comm);
        let mut scratch = DpScratch::new();
        let time = scratch.evaluate(&metrics, &comm, ctl, &cfg);
        assert!(time < u64::MAX / 8);
        // Every slab holds at most 3 runs (4+ controllers > 18 quanta),
        // and the result still matches the reference.
        assert!(
            scratch.run_len.iter().all(|&n| n <= 3),
            "{:?}",
            scratch.run_len
        );
        let new = scratch.backtrack(&metrics, alloc.area(&lib));
        let seed =
            reference_partition_from_metrics(&bsbs, &metrics, &comm, alloc.area(&lib), ctl, &cfg);
        assert_eq!(new, seed);
        assert_eq!(new.hw_count(), 3);
    }

    /// The dense oracle: the scalar per-level scan the staircase core
    /// replaced, run over the scratch's own run tables after an
    /// evaluation. Returns the full `(L + 1) × (levels + 1)` time and
    /// choice grids.
    fn dense_grid(s: &DpScratch, metrics: &[BsbMetrics]) -> (Vec<u64>, Vec<u32>) {
        let width = s.levels + 1;
        let mut dp = vec![INF; (s.l + 1) * width];
        let mut choice = vec![0u32; (s.l + 1) * width];
        dp[..width].fill(0);
        for i in 1..=s.l {
            for a in 0..width {
                let mut best =
                    dp[(i - 1) * width + a].saturating_add(metrics[i - 1].sw_time.count());
                let mut pick = 0u32;
                for j in (1..=i).rev() {
                    let idx = i - j;
                    if s.run_len[j - 1] <= idx {
                        break;
                    }
                    let e = s.run_off[j - 1] + idx;
                    let quanta = s.run_quanta[e];
                    if quanta > a {
                        break;
                    }
                    let t = dp[(j - 1) * width + (a - quanta)].saturating_add(s.run_time[e]);
                    if t < best {
                        best = t;
                        pick = j as u32;
                    }
                }
                dp[i * width + a] = best;
                choice[i * width + a] = pick;
            }
        }
        (dp, choice)
    }

    /// Asserts every `(i, a)` of the staircase rows reads the dense
    /// oracle's time and choice, and that every row is a minimal
    /// staircase: starts at level 0, levels strictly rise, times never
    /// rise, and consecutive steps differ in time or choice.
    fn assert_matches_dense(s: &DpScratch, metrics: &[BsbMetrics], what: &str) {
        let (dp, choice) = dense_grid(s, metrics);
        let width = s.levels + 1;
        for i in 0..=s.l {
            let row = s.row_off[i]..s.row_off[i + 1];
            assert_eq!(s.step_level[row.start], 0, "{what}: row {i} starts at 0");
            for k in row.start + 1..row.end {
                assert!(s.step_level[k - 1] < s.step_level[k], "{what}: row {i}");
                assert!(s.step_time[k - 1] >= s.step_time[k], "{what}: row {i}");
                assert_ne!(
                    (s.step_time[k - 1], s.step_choice[k - 1]),
                    (s.step_time[k], s.step_choice[k]),
                    "{what}: row {i} repeats a step"
                );
            }
            for a in 0..width {
                let k = s.step_at(i, a);
                assert_eq!(s.step_time[k], dp[i * width + a], "{what}: time ({i}, {a})");
                assert_eq!(
                    s.step_choice[k],
                    choice[i * width + a],
                    "{what}: choice ({i}, {a})"
                );
            }
        }
    }

    #[test]
    fn staircase_rows_expand_to_the_dense_grid() {
        // Not just the same partition: every cell the dense grid held
        // must read the same time and choice off the staircase, across
        // budgets from none (every row one step) to generous ones
        // where most runs fit and rows carry the most steps.
        let lib = lib();
        let cfg = PaceConfig::standard();
        let mut scratch = DpScratch::new();
        for (bsbs, alloc) in zoo() {
            let dp_gates = alloc.area(&lib).gates();
            for extra in [0u64, 16, 33, 100, 307, 1_000, 10_000, 140_000] {
                let total = Area::new(dp_gates + extra);
                let metrics = compute_metrics(&bsbs, &lib, &alloc, &cfg).unwrap();
                let ctl = total.checked_sub(alloc.area(&lib)).unwrap();
                let comm = CommCosts::priced(&bsbs, &cfg.comm);
                let time = scratch.evaluate(&metrics, &comm, ctl, &cfg);
                let what = format!("{} +{extra}", bsbs.app_name());
                assert_matches_dense(&scratch, &metrics, &what);
                assert_eq!(time, scratch.time_at_level(scratch.levels()), "{what}");
                assert!(scratch.stored_steps() <= bsbs.len() * (scratch.levels() + 1));
                let seed = reference_partition_from_metrics(
                    &bsbs,
                    &metrics,
                    &comm,
                    alloc.area(&lib),
                    ctl,
                    &cfg,
                );
                assert_eq!(
                    scratch.backtrack(&metrics, alloc.area(&lib)),
                    seed,
                    "{what}"
                );
            }
        }
    }

    /// Metrics of a block with no bus traffic: `sw` software time and,
    /// if feasible, `hw` hardware time under a `ctl`-gate controller.
    fn metric(sw: u64, hw: Option<(u64, u64)>) -> BsbMetrics {
        BsbMetrics {
            sw_time: Cycles::new(sw),
            hw_time: hw.map(|(t, _)| Cycles::new(t)),
            hw_states: hw.map(|_| 1),
            controller_area: hw.map(|(_, g)| Area::new(g)),
        }
    }

    #[test]
    fn choice_only_steps_survive_equal_times() {
        // Two blocks, 10 cycles each in software and 2 in hardware,
        // 8-gate controllers: alone or merged, a run costs one 16-gate
        // quantum. Row 2 at one quantum is the merged run (4 cycles);
        // at two quanta the block-1 run on top of block 0's row ties
        // at 4 cycles and wins the tie (it is the shorter run). The
        // staircase must keep that choice-only step.
        let bsbs = BsbArray::from_bsbs(
            "tie",
            vec![
                bsb_full(0, OpKind::Add, 1, 1, &[], &[]),
                bsb_full(1, OpKind::Add, 1, 1, &[], &[]),
            ],
        );
        let metrics = [metric(10, Some((2, 8))), metric(10, Some((2, 8)))];
        let cfg = PaceConfig::standard();
        let mut scratch = DpScratch::new();
        let ctl = Area::new(2 * cfg.quantum);
        let comm = CommCosts::priced(&bsbs, &cfg.comm);
        assert_eq!(scratch.evaluate(&metrics, &comm, ctl, &cfg), 4);
        let row = scratch.row_off[2]..scratch.row_off[3];
        let steps: Vec<_> = row
            .map(|k| {
                (
                    scratch.step_level[k],
                    scratch.step_time[k],
                    scratch.step_choice[k],
                )
            })
            .collect();
        assert_eq!(steps, vec![(0, 20, 0), (1, 4, 1), (2, 4, 2)]);
        assert_matches_dense(&scratch, &metrics, "tie");
        assert_eq!(
            scratch.time_falls().collect::<Vec<_>>(),
            vec![(0, 20), (1, 4)]
        );
        let at = |level| scratch.backtrack_at(&metrics, Area::ZERO, level).runs;
        assert_eq!(at(1), vec![0..2]);
        assert_eq!(at(2), vec![0..1, 1..2]);
        for level in 0..=2 {
            let seed = reference_partition_from_metrics(
                &bsbs,
                &metrics,
                &comm,
                Area::ZERO,
                Area::new(level as u64 * cfg.quantum),
                &cfg,
            );
            assert_eq!(
                scratch.backtrack_at(&metrics, Area::ZERO, level),
                seed,
                "level {level}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "traffic table priced for another app")]
    fn a_table_priced_for_another_app_is_refused() {
        let lib = lib();
        let cfg = PaceConfig::standard();
        let (bsbs, alloc) = zoo().swap_remove(0);
        let other = BsbArray::from_bsbs(
            "other",
            (0..bsbs.len() as u32 + 1)
                .map(|i| bsb_full(i, OpKind::Add, 1, 1, &[], &[]))
                .collect(),
        );
        let metrics = compute_metrics(&bsbs, &lib, &alloc, &cfg).unwrap();
        DpScratch::new().evaluate(
            &metrics,
            &CommCosts::priced(&other, &cfg.comm),
            Area::new(10_000),
            &cfg,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn staircase_matches_the_dense_grid_under_ties(
            blocks in prop::collection::vec((0u64..8, 0u64..3, 0u64..40, any::<bool>()), 1..8),
            extra in 0u64..400,
        ) {
            // Small integer times on traffic-free blocks make equal
            // times common, so the software-first / shortest-run-first
            // tie-break and the choice-only steps are exercised.
            let bsbs = BsbArray::from_bsbs(
                "prop",
                (0..blocks.len() as u32)
                    .map(|i| bsb_full(i, OpKind::Add, 1, 1, &[], &[]))
                    .collect(),
            );
            let metrics: Vec<BsbMetrics> = blocks
                .iter()
                .map(|&(sw, hw, ctl, feasible)| metric(sw, feasible.then_some((hw, ctl))))
                .collect();
            let cfg = PaceConfig::standard();
            let ctl = Area::new(extra);
            let mut scratch = DpScratch::new();
            let comm = CommCosts::priced(&bsbs, &cfg.comm);
            scratch.evaluate(&metrics, &comm, ctl, &cfg);
            assert_matches_dense(&scratch, &metrics, "prop");
            let seed = reference_partition_from_metrics(
                &bsbs, &metrics, &comm, Area::ZERO, ctl, &cfg,
            );
            prop_assert_eq!(scratch.backtrack(&metrics, Area::ZERO), seed);
        }
    }
}
