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
//! # The allocation-free hot path
//!
//! An allocation-space sweep runs this DP millions of times, so the
//! core is built around a reusable [`DpScratch`] workspace instead of
//! per-call heap tables:
//!
//! * **Scratch reuse** — the run tables are flat structure-of-arrays
//!   slabs (`run_off[j] .. run_off[j] + run_len[j]` indexes the runs
//!   starting at block `j`) and the `dp`/`choice` grids are flat
//!   vectors, all owned by the [`DpScratch`] a caller threads through
//!   repeated evaluations. After warm-up, evaluating a candidate
//!   allocates nothing: buffers are cleared and refilled in place.
//! * **Monotone pruning** — a run's controller quanta only grow as the
//!   run extends (`ctl_sum` is a sum of non-negative areas), so the
//!   per-cell scan over runs ending at block `i-1` can *stop* at the
//!   first run that exceeds the remaining area budget `a`, instead of
//!   skipping it and scanning on. For the same reason, runs whose
//!   quanta exceed the total level count are never materialised at
//!   all: the table for start `j` is truncated at the first such run,
//!   which also bounds the scan from the feasibility side.
//!
//! The pre-optimisation implementation is retained as
//! [`reference_partition_from_metrics`] (hidden from docs): the
//! equivalence tests pin the new core against it, and the perf
//! harness uses it as the measured baseline.

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

/// Sentinel for an unreachable DP cell, far from `u64` overflow even
/// after a saturating add of any real cost.
const INF: u64 = u64::MAX / 4;

/// Reusable workspace of the PACE dynamic program.
///
/// Owns the flat run tables and the `dp`/`choice` grids so that
/// repeated evaluations — one per candidate of an allocation-space
/// sweep — perform no steady-state heap allocation: buffers are
/// cleared and refilled in place, and capacity ratchets up to the
/// largest problem seen. A scratch is freely reusable across
/// *different* applications and budgets; every evaluation resizes its
/// views first (pinned by property tests in the exploration crate).
///
/// Construct with [`DpScratch::new`], then thread `&mut` through
/// [`partition_with_scratch`] or [`partition_from_metrics`].
#[derive(Clone, Debug)]
pub struct DpScratch {
    /// Test seam: run the pure scalar inner scan instead of the
    /// [`LANES`]-wide chunked one, which must match it bit for bit.
    #[cfg(test)]
    scalar: bool,
    /// Per-block hardware feasibility under the current metrics.
    feasible: Vec<bool>,
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
    /// Run boundary bus cost, so the backtrack reads the table instead
    /// of re-querying the [`CommCosts`] memo.
    run_comm: Vec<u64>,
    /// `dp[i * (levels+1) + a]`: min time for blocks `0..i` within `a`
    /// quanta.
    dp: Vec<u64>,
    /// `0` = block `i-1` in software; `j` = hardware run `j-1..=i-1`
    /// (1-based start).
    choice: Vec<u32>,
    /// Problem shape of the last [`DpScratch::evaluate`] call.
    l: usize,
    levels: usize,
}

impl Default for DpScratch {
    fn default() -> Self {
        DpScratch::new()
    }
}

impl DpScratch {
    /// An empty workspace.
    pub fn new() -> Self {
        DpScratch {
            #[cfg(test)]
            scalar: false,
            feasible: Vec::new(),
            run_off: Vec::new(),
            run_len: Vec::new(),
            run_time: Vec::new(),
            run_quanta: Vec::new(),
            run_ctl: Vec::new(),
            run_comm: Vec::new(),
            dp: Vec::new(),
            choice: Vec::new(),
            l: 0,
            levels: 0,
        }
    }

    /// Runs the forward DP over `metrics`, filling the run tables and
    /// the `dp`/`choice` grids in place, and returns the hybrid total
    /// time at the full controller budget — everything a sweep needs
    /// to rank a candidate. Call [`DpScratch::backtrack`] afterwards
    /// to materialise the winning [`Partition`].
    pub(crate) fn evaluate(
        &mut self,
        bsbs: &BsbArray,
        metrics: &[BsbMetrics],
        comm: &mut CommCosts,
        ctl_budget: Area,
        config: &PaceConfig,
    ) -> u64 {
        self.evaluate_stoppable(
            bsbs,
            metrics,
            comm,
            ctl_budget,
            config,
            &StopSignal::never(),
        )
        .expect("a never-signal cannot stop the DP")
    }

    /// [`DpScratch::evaluate`] with a cooperative stop check between DP
    /// rows: returns `None` if `stop` trips mid-evaluation (the grids
    /// are then partially filled and must not be backtracked), `Some`
    /// with the exact hybrid time otherwise. A row is the natural
    /// abandon granularity — each costs `O(width × runs)`, so the check
    /// adds one branch per row and bounds deadline overrun to a single
    /// row.
    pub(crate) fn evaluate_stoppable(
        &mut self,
        bsbs: &BsbArray,
        metrics: &[BsbMetrics],
        comm: &mut CommCosts,
        ctl_budget: Area,
        config: &PaceConfig,
        stop: &StopSignal,
    ) -> Option<u64> {
        let l = bsbs.len();
        debug_assert_eq!(metrics.len(), l, "one metrics entry per block");
        let q = config.quantum;
        let levels = (ctl_budget.gates() / q) as usize;
        self.l = l;
        self.levels = levels;

        // Per-run cost tables, flat SoA. The slab for start j covers
        // runs j..=i for growing i; it stops at the first infeasible
        // block, and at the first run whose quanta exceed `levels` —
        // ctl_sum only grows, so no longer run could ever fit either.
        self.feasible.clear();
        self.feasible
            .extend(metrics.iter().map(|m| m.hw_feasible()));
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
            for (i, m) in metrics.iter().enumerate().take(l).skip(j) {
                if !self.feasible[i] {
                    break;
                }
                hw_sum += m.hw_time.expect("feasible").count();
                ctl_sum += m.controller_area.expect("feasible").gates();
                let quanta = ctl_sum.div_ceil(q) as usize;
                if quanta > levels {
                    break; // over budget now and for every longer run
                }
                let c = comm.cost(bsbs, &config.comm, j, i);
                self.run_time.push(hw_sum + c);
                self.run_quanta.push(quanta);
                self.run_ctl.push(ctl_sum);
                self.run_comm.push(c);
                len += 1;
            }
            self.run_len.push(len);
        }

        // dp/choice grids. Only row 0 needs initialising: every cell of
        // rows 1..=l is written before it is read, so stale values from
        // the previous evaluation are harmless and the resize is a
        // no-op whenever the shape already fits.
        let width = levels + 1;
        let need = (l + 1) * width;
        self.dp.resize(need, INF);
        self.choice.resize(need, 0);
        self.dp[..width].fill(0);

        let run_off: &[usize] = &self.run_off;
        let run_len: &[usize] = &self.run_len;
        let run_time: &[u64] = &self.run_time;
        let run_quanta: &[usize] = &self.run_quanta;
        let dp = &mut self.dp;
        let choice = &mut self.choice;
        #[cfg(not(test))]
        let kernel = dp_row_cells_lanes;
        #[cfg(test)]
        let kernel = if self.scalar {
            dp_row_cells
        } else {
            dp_row_cells_lanes
        };
        let stoppable = !stop.is_never();
        for i in 1..=l {
            if stoppable && stop.check().is_some() {
                return None;
            }
            let sw_prev = metrics[i - 1].sw_time.count();
            let (done, rest) = dp.split_at_mut(i * width);
            kernel(
                i,
                width,
                0,
                done,
                &mut rest[..width],
                &mut choice[i * width..(i + 1) * width],
                sw_prev,
                run_off,
                run_len,
                run_time,
                run_quanta,
            );
        }
        Some(self.dp[l * width + levels])
    }

    /// Controller levels of the last [`DpScratch::evaluate`] call —
    /// the controller budget in quanta, i.e. the top index of
    /// [`DpScratch::final_row`].
    pub(crate) fn levels(&self) -> usize {
        self.levels
    }

    /// The final DP row of the last [`DpScratch::evaluate`] call:
    /// `row[a]` is the minimal hybrid time over all blocks within `a`
    /// controller quanta, non-increasing in `a`, with `row[levels]`
    /// the value `evaluate` returned. This is the whole time×area
    /// trade-off of one candidate at quantum granularity — the seam
    /// the Pareto-front search harvests.
    pub(crate) fn final_row(&self) -> &[u64] {
        let width = self.levels + 1;
        &self.dp[self.l * width..][..width]
    }

    /// Materialises the [`Partition`] chosen by the last
    /// [`DpScratch::evaluate`] call. Reads the run tables for the
    /// per-run communication and controller figures — the
    /// [`CommCosts`] memo is never re-queried.
    pub(crate) fn backtrack(&self, metrics: &[BsbMetrics], datapath_area: Area) -> Partition {
        self.backtrack_at(metrics, datapath_area, self.levels)
    }

    /// [`DpScratch::backtrack`] at an arbitrary controller level
    /// `level ≤ levels`: the partition the same evaluation would have
    /// produced under a controller budget of exactly `level` quanta.
    /// Sound because a cell `dp[i][a]` only ever reads cells and runs
    /// with quanta `≤ a` — the grid under `level` is bit-identical to
    /// the grid a smaller-budget evaluation would fill.
    pub(crate) fn backtrack_at(
        &self,
        metrics: &[BsbMetrics],
        datapath_area: Area,
        level: usize,
    ) -> Partition {
        debug_assert!(level <= self.levels, "level outside the evaluated grid");
        let l = self.l;
        let width = self.levels + 1;
        let all_sw_time: Cycles = metrics.iter().map(|m| m.sw_time).sum();

        let mut in_hw = vec![false; l];
        let mut runs = Vec::new();
        let mut comm_time = 0u64;
        let mut controller_area = 0u64;
        let mut i = l;
        let mut a = level;
        while i > 0 {
            let pick = self.choice[i * width + a];
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
            total_time: Cycles::new(self.dp[l * width + level]),
            all_sw_time,
            comm_time: Cycles::new(comm_time),
            controller_area: Area::new(controller_area),
            datapath_area,
            runs,
        }
    }
}

/// Computes the cells `a0 .. a0 + dp_row.len()` of DP row `i`.
///
/// The run scan walks start positions `j` from `i` down to `1`, i.e.
/// runs ending at block `i-1` from shortest to longest. Both stopping
/// conditions are monotone in run length — a truncated table stays
/// truncated, and `run_quanta` is nondecreasing along a slab — so the
/// scan `break`s where the pre-optimisation core `continue`d.
#[allow(clippy::too_many_arguments)] // internal kernel of DpScratch::evaluate
fn dp_row_cells(
    i: usize,
    width: usize,
    a0: usize,
    done: &[u64],
    dp_row: &mut [u64],
    choice_row: &mut [u32],
    sw_prev: u64,
    run_off: &[usize],
    run_len: &[usize],
    run_time: &[u64],
    run_quanta: &[usize],
) {
    for (k, (cell, pick_cell)) in dp_row.iter_mut().zip(choice_row).enumerate() {
        let a = a0 + k;
        let mut best = done[(i - 1) * width + a].saturating_add(sw_prev);
        let mut pick = 0u32;
        for j in (1..=i).rev() {
            let idx = i - j; // offset into the slab of start j-1
            if run_len[j - 1] <= idx {
                break; // infeasible or over-budget block inside the run
            }
            let e = run_off[j - 1] + idx;
            let quanta = run_quanta[e];
            if quanta > a {
                break; // monotone: every longer run needs more quanta
            }
            let t = done[(j - 1) * width + (a - quanta)].saturating_add(run_time[e]);
            if t < best {
                best = t;
                pick = j as u32;
            }
        }
        *cell = best;
        *pick_cell = pick;
    }
}

/// Fixed lane width of [`dp_row_cells_lanes`]. Four `u64` accumulators
/// fill one 256-bit vector register; the manual unroll keeps the hot
/// loop autovectorisable on stable Rust without `std::simd`.
const LANES: usize = 4;

/// [`dp_row_cells`], processing the area axis in [`LANES`]-wide groups
/// over the flat SoA run tables, scalar tail included.
///
/// Bit-identical to the scalar kernel by construction: the `j` scan is
/// shared across the group, and because `run_quanta` is nondecreasing
/// along a slab, a lane whose budget `a` a run overflows stays
/// overflowed for every later (longer) run — exactly where the scalar
/// loop `break`s. Each lane therefore sees the same candidate
/// sequence, in the same order, under the same strict-`<` tie-break.
/// The group itself breaks only once the *largest* budget in it
/// overflows; lanes below it fall into the partial-range arm until
/// then. When `quanta <= a0k` every lane's `done` read is contiguous
/// (`a - quanta` shifts with the lane), which is the load the unroll
/// exists to coalesce.
#[allow(clippy::too_many_arguments)] // internal kernel of DpScratch::evaluate
fn dp_row_cells_lanes(
    i: usize,
    width: usize,
    a0: usize,
    done: &[u64],
    dp_row: &mut [u64],
    choice_row: &mut [u32],
    sw_prev: u64,
    run_off: &[usize],
    run_len: &[usize],
    run_time: &[u64],
    run_quanta: &[usize],
) {
    let n = dp_row.len();
    let mut k = 0usize;
    while k + LANES <= n {
        let a0k = a0 + k;
        let base = (i - 1) * width + a0k;
        let mut best = [0u64; LANES];
        for (l, b) in best.iter_mut().enumerate() {
            *b = done[base + l].saturating_add(sw_prev);
        }
        let mut pick = [0u32; LANES];
        for j in (1..=i).rev() {
            let idx = i - j;
            if run_len[j - 1] <= idx {
                break;
            }
            let e = run_off[j - 1] + idx;
            let quanta = run_quanta[e];
            if quanta > a0k + (LANES - 1) {
                break; // monotone: over even the group's largest budget
            }
            let rt = run_time[e];
            let row = (j - 1) * width;
            if quanta <= a0k {
                // All lanes active: one contiguous done load.
                let src = &done[row + (a0k - quanta)..][..LANES];
                for l in 0..LANES {
                    let t = src[l].saturating_add(rt);
                    if t < best[l] {
                        best[l] = t;
                        pick[l] = j as u32;
                    }
                }
            } else {
                // Low lanes over budget (and, by monotonicity, out for
                // the rest of the scan — as if the scalar loop broke).
                for l in (quanta - a0k)..LANES {
                    let t = done[row + (a0k + l - quanta)].saturating_add(rt);
                    if t < best[l] {
                        best[l] = t;
                        pick[l] = j as u32;
                    }
                }
            }
        }
        dp_row[k..k + LANES].copy_from_slice(&best);
        choice_row[k..k + LANES].copy_from_slice(&pick);
        k += LANES;
    }
    if k < n {
        dp_row_cells(
            i,
            width,
            a0 + k,
            done,
            &mut dp_row[k..],
            &mut choice_row[k..],
            sw_prev,
            run_off,
            run_len,
            run_time,
            run_quanta,
        );
    }
}

/// Runs PACE: partitions `bsbs` for the data path `allocation` within
/// `total_area` of hardware.
///
/// One-shot convenience over [`partition_with_scratch`]: a fresh
/// workspace is built per call. Hot loops — anything evaluating many
/// allocations — should hold a [`DpScratch`] (and a [`CommCosts`])
/// and use the reusable seams instead.
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
    let mut scratch = DpScratch::new();
    partition_with_scratch(bsbs, lib, allocation, total_area, config, &mut scratch)
}

/// [`partition`] reusing a caller-owned [`DpScratch`] — identical
/// results, no steady-state DP allocations across calls. The scratch
/// may have served any other application or budget before.
///
/// # Errors
///
/// Same conditions as [`partition`].
pub fn partition_with_scratch(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    allocation: &RMap,
    total_area: Area,
    config: &PaceConfig,
    scratch: &mut DpScratch,
) -> Result<Partition, PaceError> {
    let artifacts = SearchArtifacts::for_partition(bsbs, lib, config)?;
    partition_with_artifacts(
        bsbs, lib, allocation, total_area, config, scratch, &artifacts,
    )
}

/// [`partition_with_scratch`] over artifacts prepared (or fetched from
/// an [`ArtifactStore`](crate::ArtifactStore)) elsewhere: metrics
/// derive from the artifacts' statics and the run-traffic memo starts
/// from the artifacts' table. Results are identical to the compat
/// path; repeated calls over one application stop re-deriving the
/// per-block facts.
///
/// # Errors
///
/// Same conditions as [`partition`].
#[allow(clippy::too_many_arguments)] // the documented artifact seam
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
    let mut comm = artifacts.comm_clone();
    Ok(partition_from_metrics(
        bsbs,
        &metrics,
        &mut comm,
        scratch,
        datapath_area,
        ctl_budget,
        config,
    ))
}

/// The PACE dynamic program over precomputed per-block metrics — the
/// seam the allocation-search engine drives: metrics come from its
/// memo cache ([`crate::MetricsCache`]), `comm` is shared across every
/// candidate (run traffic never depends on the allocation), and
/// `scratch` carries the DP tables from evaluation to evaluation.
///
/// `metrics` must hold one entry per block of `bsbs`, e.g. from
/// [`crate::compute_metrics`].
#[allow(clippy::too_many_arguments)] // the documented hot-path seam
pub fn partition_from_metrics(
    bsbs: &BsbArray,
    metrics: &[BsbMetrics],
    comm: &mut CommCosts,
    scratch: &mut DpScratch,
    datapath_area: Area,
    ctl_budget: Area,
    config: &PaceConfig,
) -> Partition {
    scratch.evaluate(bsbs, metrics, comm, ctl_budget, config);
    scratch.backtrack(metrics, datapath_area)
}

/// The pre-optimisation (PR 3) DP core, kept verbatim: fresh nested
/// `Vec` run tables per call, a `continue`-based run scan, and a
/// backtrack that re-queries the [`CommCosts`] memo. Not part of the
/// public API — it exists so equivalence tests can pin the optimised
/// core against the exact seed behaviour, and so the perf harness has
/// a real baseline to measure against.
#[doc(hidden)]
pub fn reference_partition_from_metrics(
    bsbs: &BsbArray,
    metrics: &[BsbMetrics],
    comm: &mut CommCosts,
    datapath_area: Area,
    ctl_budget: Area,
    config: &PaceConfig,
) -> Partition {
    let l = bsbs.len();
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
            let comm = comm.cost(bsbs, &config.comm, j, i);
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
            comm_time += comm.cost(bsbs, &config.comm, j - 1, i - 1);
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
        let mut comm = CommCosts::new(bsbs.len());
        reference_partition_from_metrics(
            bsbs,
            &metrics,
            &mut comm,
            datapath_area,
            ctl_budget,
            config,
        )
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
        // scan) against the retained seed core, across shapes and
        // budgets — including budgets tight enough that most runs are
        // never materialised.
        let lib = lib();
        let cfg = PaceConfig::standard();
        let mut scratch = DpScratch::new();
        for (bsbs, alloc) in zoo() {
            let dp_gates = alloc.area(&lib).gates();
            for extra in [0u64, 16, 100, 300, 1_000, 10_000] {
                let total = Area::new(dp_gates + extra);
                let seed = reference_partition(&bsbs, &lib, &alloc, total, &cfg);
                let new =
                    partition_with_scratch(&bsbs, &lib, &alloc, total, &cfg, &mut scratch).unwrap();
                assert_eq!(new, seed, "{} +{extra}", bsbs.app_name());
            }
        }
    }

    #[test]
    fn scratch_reuse_is_invisible_across_apps_and_budgets() {
        // One scratch, interleaved across applications of different
        // sizes and budgets of different level counts: identical to a
        // fresh partition every time.
        let lib = lib();
        let cfg = PaceConfig::standard();
        let mut scratch = DpScratch::new();
        for round in 0..3 {
            for (bsbs, alloc) in zoo() {
                let total = Area::new(alloc.area(&lib).gates() + 400 * (round + 1));
                let fresh = partition(&bsbs, &lib, &alloc, total, &cfg).unwrap();
                let reused =
                    partition_with_scratch(&bsbs, &lib, &alloc, total, &cfg, &mut scratch).unwrap();
                assert_eq!(reused, fresh, "{} round {round}", bsbs.app_name());
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
            let mut comm_ref = CommCosts::new(bsbs.len());
            let seed = reference_partition_from_metrics(
                &bsbs,
                &metrics,
                &mut comm_ref,
                alloc.area(&lib),
                ctl,
                &cfg,
            );
            let mut comm_new = CommCosts::new(bsbs.len());
            let new = partition_from_metrics(
                &bsbs,
                &metrics,
                &mut comm_new,
                &mut scratch,
                alloc.area(&lib),
                ctl,
                &cfg,
            );
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
        let mut comm = CommCosts::new(bsbs.len());
        let mut scratch = DpScratch::new();
        let time = scratch.evaluate(&bsbs, &metrics, &mut comm, ctl, &cfg);
        assert!(time < u64::MAX / 8);
        // Every slab holds at most 3 runs (4+ controllers > 18 quanta),
        // and the result still matches the reference.
        assert!(
            scratch.run_len.iter().all(|&n| n <= 3),
            "{:?}",
            scratch.run_len
        );
        let new = scratch.backtrack(&metrics, alloc.area(&lib));
        let mut comm_ref = CommCosts::new(bsbs.len());
        let seed = reference_partition_from_metrics(
            &bsbs,
            &metrics,
            &mut comm_ref,
            alloc.area(&lib),
            ctl,
            &cfg,
        );
        assert_eq!(new, seed);
        assert_eq!(new.hw_count(), 3);
    }

    #[test]
    fn lane_chunked_scan_is_bit_identical_to_scalar() {
        // Not just the same partition: the full dp/choice grids must
        // match cell for cell, across row widths that exercise whole
        // lane groups, the partial-lane arm (tight budgets where
        // `quanta > a0k` mid-group) and the scalar tail (widths not a
        // multiple of LANES).
        let lib = lib();
        let cfg = PaceConfig::standard();
        for (bsbs, alloc) in zoo() {
            let dp_gates = alloc.area(&lib).gates();
            for extra in [0u64, 16, 33, 100, 307, 1_000, 10_000, 140_000] {
                let total = Area::new(dp_gates + extra);
                let metrics = compute_metrics(&bsbs, &lib, &alloc, &cfg).unwrap();
                let ctl = total.checked_sub(alloc.area(&lib)).unwrap();

                let mut lanes = DpScratch::new();
                let mut scalar = DpScratch::new();
                scalar.scalar = true;

                let mut comm_a = CommCosts::new(bsbs.len());
                let ta = lanes.evaluate(&bsbs, &metrics, &mut comm_a, ctl, &cfg);
                let mut comm_b = CommCosts::new(bsbs.len());
                let tb = scalar.evaluate(&bsbs, &metrics, &mut comm_b, ctl, &cfg);
                assert_eq!(ta, tb, "{} +{extra}", bsbs.app_name());
                let need = (lanes.l + 1) * (lanes.levels + 1);
                assert_eq!(
                    lanes.dp[..need],
                    scalar.dp[..need],
                    "{} +{extra}: dp grid diverged",
                    bsbs.app_name()
                );
                assert_eq!(
                    lanes.choice[..need],
                    scalar.choice[..need],
                    "{} +{extra}: choice grid diverged",
                    bsbs.app_name()
                );
                assert_eq!(
                    lanes.backtrack(&metrics, alloc.area(&lib)),
                    scalar.backtrack(&metrics, alloc.area(&lib)),
                );
            }
        }
    }
}
