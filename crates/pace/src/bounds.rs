//! Admissible lower bounds for the branch-and-bound allocation search.
//!
//! The exhaustive walk ranks a candidate by the PACE DP's total time.
//! That time is a sum over blocks: a software block contributes its
//! software time, a hardware block its hardware time plus a
//! non-negative share of run communication, all under the controller
//! budget. Dropping the budget and flooring communication at zero
//! relaxes every constraint, so
//!
//! ```text
//! total_time(allocation) ≥ Σ_b min(sw_b, hw_b(allocation))
//! ```
//!
//! for every allocation — and `hw_b` depends only on the allocation's
//! projection onto the block's own unit kinds. [`SearchBounds`] is
//! built **once per artifact set**: it schedules each block under
//! *every* projection it can ever see, reading and filling the
//! artifacts' [`ScheduleTable`] (blocks use few kinds, so the
//! per-block projection spaces are tiny even when the full space is
//! astronomic), and derives a per-unit-kind *marginal* table: the
//! minimum hardware time over all projections holding one kind at one
//! count.
//!
//! A branch-and-bound walk fixes the odometer's most-significant
//! digits first. For a subtree fixing the kinds at dimension positions
//! `pos..` the tables yield an admissible bound in O(blocks) lookups:
//!
//! * a block whose kinds are all fixed contributes its **exact**
//!   relaxed cost `min(sw, hw(projection))` — `sw` when the fixed
//!   counts cannot cover its required resources;
//! * a block whose most-significant kind is fixed at count `c`
//!   contributes `min(sw, marginal(c))` — the marginal is a minimum
//!   over a superset of the subtree's completions, hence admissible;
//! * a block with no fixed kind contributes its **relaxed** floor
//!   `min(sw, min over all projections of hw)`.
//!
//! Contributions only tighten as more kinds are fixed, so the walk
//! maintains the per-level bounds incrementally ([`LevelState`]): a
//! carry into digit `p` invalidates levels `≤ p`, and each level is
//! re-derived from the one above by adjusting only the blocks whose
//! class changes at that level.
//!
//! # Communication floors
//!
//! Flooring communication at zero is admissible but loose on
//! applications whose runs pay real bus traffic.
//! [`SearchBounds::with_comm_floor`] tightens every hardware
//! contribution to `hw_b + floor_b`, where `floor_b` is the
//! [`crate::comm`] *segmented floor*: the minimum per-block share of
//! any run that could contain `b`, restricted to `b`'s maximal
//! segment of blocks that are hardware-feasible *somewhere* in the
//! space — runs the DP can actually form never span a block that is
//! infeasible under every allocation, and for any real run the
//! per-block shares sum to at most the run's cost (see
//! `crate::comm::comm_floors`). The floor is a per-block constant, so
//! it folds into the precomputed tables once and the level chain
//! stays untouched; software contributions never carry it (a block
//! kept in software pays no run communication).
//!
//! # Controller-budget relaxation
//!
//! The tables above drop the controller budget, so a candidate whose
//! data path leaves too little controller area to afford its speed-up
//! still looks promising to them. Once a candidate's metrics are known
//! (after the metrics refresh, before its DP), [`BudgetRelaxation`]
//! puts the budget back as a fractional knapsack:
//!
//! * every hardware-feasible block with a positive saving
//!   `s_b = sw_b − hw_b − floor_b` is one item, weighing its
//!   controller area `w_b` in gates;
//! * items sort by `s/w` (an exact `u128` cross-multiply; weight-0
//!   items sort first) with prefix sums, and
//!   `lb(cap) = Σ_b sw_b − (Σ savings of the items that fit whole +
//!   ⌈the fractional item's share⌉)`.
//!
//! **Admissibility.** At controller level `a` the DP's time is
//! `Σ_sw sw_b + Σ_runs (Σ_run hw_b + comm(run))`. Each run pays
//! `⌈Σ_run ctl_b / q⌉` quanta and the runs' quanta sum to at most `a`,
//! so the hardware blocks' controller areas sum to at most `a·q`. The
//! per-block floors sum to at most each run's communication (see
//! above), so the time is at least `Σ sw − Σ_hw s_b` over a block set
//! of weight `≤ a·q` — an integral knapsack, which the fractional one
//! bounds from above. Hence `time_at_level(a) ≥ lb(a·q)` for every
//! level: each segment of the final row's staircase lies on or above
//! the bound at every level it covers. With an unbounded capacity every item fits and `lb` is exactly
//! `Σ_b min(sw_b, hw_b + floor_b)`, the leaf bound of the tables — so
//! the relaxation is never weaker than the leaf check it follows.

use crate::comm::{comm_floors, CommCosts};
use crate::metrics::{bsb_statics, BsbMetrics, BsbStatics, ScheduleTable};
use crate::stop::StopSignal;
use crate::{PaceConfig, PaceError};
use lycos_core::kind_positions;
use lycos_hwlib::{CommModel, Cycles, FuId, HwLibrary};
use lycos_ir::{Bsb, BsbArray};

/// Sentinel for a projection that cannot execute its block.
const INFEASIBLE: u64 = u64::MAX;

/// Lower-bound tables of one block.
#[derive(Clone, Debug)]
struct BlockBound {
    /// Total software time — the contribution whenever hardware is
    /// infeasible, and the ceiling of every contribution.
    sw: u64,
    /// Dimension positions of the block's kinds, ascending (parallel
    /// to `needed`). Empty when the block can never move.
    positions: Vec<usize>,
    /// Required instances per kind (hardware-feasibility floor).
    needed: Vec<u32>,
    /// Executions per application run: hardware time is
    /// `length × profile`.
    profile: u64,
    /// The block's communication floor (0 when none was requested).
    floor: u64,
    /// Per count of the most-significant kind: minimum hardware time
    /// over all feasible projections holding that count. Empty when
    /// the block keeps no schedule slots.
    marg: Vec<u64>,
    /// `min(sw, min hardware time)` — the nothing-fixed floor
    /// (`min(sw, comm floor)` for slot-less movable blocks).
    relaxed: u64,
}

impl BlockBound {
    /// A block that can never move to hardware: its contribution is
    /// its software time at every level.
    fn immovable(sw: u64) -> Self {
        BlockBound {
            sw,
            positions: Vec::new(),
            needed: Vec::new(),
            profile: 0,
            floor: 0,
            marg: Vec::new(),
            relaxed: sw,
        }
    }

    fn min_pos(&self) -> usize {
        *self.positions.first().expect("movable block has kinds")
    }

    fn max_pos(&self) -> usize {
        *self.positions.last().expect("movable block has kinds")
    }

    /// Hardware time of a projection whose schedule has `length`
    /// steps, plus the communication floor, capped below `INFEASIBLE`
    /// (capping only loosens, so admissibility survives).
    fn hw(&self, length: u64) -> u64 {
        (Cycles::new(length) * self.profile)
            .count()
            .saturating_add(self.floor)
            .min(INFEASIBLE - 1)
    }

    /// Exact relaxed cost with every kind fixed at `counts` (indexed
    /// by dimension position); block `b`'s schedule lengths come from
    /// `schedules`.
    fn exact(&self, schedules: &ScheduleTable, b: usize, counts: &[u32]) -> u64 {
        let covered = self
            .positions
            .iter()
            .zip(&self.needed)
            .all(|(&p, &need)| counts[p] >= need);
        if !covered {
            return self.sw; // cannot cover: software for sure
        }
        match schedules.get(b, self.positions.iter().map(|&p| counts[p])) {
            Some(length) => self.sw.min(self.hw(length)),
            None => {
                // No slots: only the communication floor (hardware
                // time floored at 0) survives.
                debug_assert!(self.marg.is_empty(), "the build fills every feasible slot");
                self.relaxed
            }
        }
    }

    /// Marginal cost with (at least) the most-significant kind fixed
    /// at `count`.
    fn marginal(&self, count: u32) -> u64 {
        if count < *self.needed.last().expect("movable block has kinds") {
            return self.sw;
        }
        if self.marg.is_empty() {
            return self.relaxed;
        }
        let m = self.marg[count as usize];
        if m == INFEASIBLE {
            self.sw
        } else {
            self.sw.min(m)
        }
    }
}

/// Once-per-artifact-set admissible bound tables over an allocation space —
/// see the module docs for the construction and the admissibility
/// argument.
///
/// # Examples
///
/// ```
/// use lycos_core::Restrictions;
/// use lycos_hwlib::{Area, HwLibrary};
/// use lycos_ir::{extract_bsbs, Cdfg, CdfgNode, DfgBuilder, OpKind, TripCount};
/// use lycos_pace::{exhaustive_best, search_space, PaceConfig, SearchBounds};
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
/// let dims = search_space(&restr);
///
/// let bounds = SearchBounds::new(&bsbs, &lib, &dims, &config)?;
/// let best = exhaustive_best(&bsbs, &lib, Area::new(6000), &restr, &config, None)?;
/// // Admissible: no allocation can beat the relaxed floor.
/// assert!(bounds.relaxed_bound() <= best.best_partition.total_time.count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct SearchBounds {
    blocks: Vec<BlockBound>,
    /// Blocks becoming fully fixed at level `p` (`min_pos == p`).
    exact_at: Vec<Vec<usize>>,
    /// Blocks whose most-significant kind is `p` while lower kinds
    /// stay free (`max_pos == p && min_pos < p`).
    marginal_at: Vec<Vec<usize>>,
    /// Σ relaxed contributions — the bound with nothing fixed.
    relaxed_total: u64,
    /// The per-block communication floor each table was built with
    /// (all zeros without a comm model).
    floors: Vec<u64>,
    /// The schedule lengths behind every exact contribution, shared
    /// with the artifacts the tables were built over.
    schedules: ScheduleTable,
    dims_len: usize,
}

impl SearchBounds {
    /// Builds the bound tables for `bsbs` over the allocation space
    /// spanned by `dims` (from [`crate::search_space`]).
    ///
    /// # Errors
    ///
    /// [`PaceError::Hw`] / [`PaceError::Sched`] exactly where
    /// [`crate::compute_metrics`] would fail on the same application.
    pub fn new(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        dims: &[(FuId, u32)],
        config: &PaceConfig,
    ) -> Result<Self, PaceError> {
        Self::standalone(bsbs, lib, dims, config, None)
    }

    /// [`SearchBounds::new`] with the admissible communication floor
    /// folded in: every hardware contribution additionally carries the
    /// minimum run-communication share the block cannot avoid (see the
    /// module docs). Strictly at least as tight as [`SearchBounds::new`]
    /// and still admissible — software contributions are unchanged.
    ///
    /// # Errors
    ///
    /// As [`SearchBounds::new`].
    pub fn with_comm_floor(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        dims: &[(FuId, u32)],
        config: &PaceConfig,
    ) -> Result<Self, PaceError> {
        Self::standalone(bsbs, lib, dims, config, Some(&config.comm))
    }

    /// The two public builds: fresh statics, schedule table and
    /// (with a floor) full traffic table, nothing to stop them.
    fn standalone(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        dims: &[(FuId, u32)],
        config: &PaceConfig,
        comm: Option<&CommModel>,
    ) -> Result<Self, PaceError> {
        let statics = bsb_statics(bsbs, lib, config)?;
        let schedules = ScheduleTable::new(&statics, dims, None);
        let costs = comm.map(|model| CommCosts::priced(bsbs, model));
        let never = StopSignal::never();
        let built = Self::from_statics(
            bsbs,
            lib,
            dims,
            &statics,
            &schedules,
            costs.as_ref(),
            &never,
        )?;
        Ok(built.expect("a never-signal cannot stop the build"))
    }

    /// [`SearchBounds::new`] over statics and a schedule table already
    /// built elsewhere — the artifact seam derives them once for the
    /// whole sweep, and the tables read every length from
    /// `schedules`, filling what is missing. A traffic table (the
    /// artifacts' own, so the floors and the DP price runs off the
    /// same entries) folds the communication floor into the tables.
    ///
    /// The per-block tables run list schedules for every projection a
    /// block's slots do not hold yet, so `stop` is polled between
    /// blocks: `Ok(None)` means it tripped and the partial build was
    /// abandoned.
    pub(crate) fn from_statics(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        dims: &[(FuId, u32)],
        statics: &[BsbStatics],
        schedules: &ScheduleTable,
        comm: Option<&CommCosts>,
        stop: &StopSignal,
    ) -> Result<Option<Self>, PaceError> {
        let dim_fus: Vec<FuId> = dims.iter().map(|&(fu, _)| fu).collect();
        let floors = floors_for(dims, &dim_fus, statics, comm);
        let stoppable = !stop.is_never();
        let mut blocks = Vec::with_capacity(bsbs.len());
        for (b, (bsb, stat)) in bsbs.iter().zip(statics).enumerate() {
            if stoppable && stop.check().is_some() {
                return Ok(None);
            }
            blocks.push(block_bound(
                b, bsb, stat, lib, dims, &dim_fus, floors[b], schedules,
            )?);
        }
        Ok(Some(Self::assemble(blocks, floors, dims.len(), schedules)))
    }

    /// Builds the level index (`exact_at`/`marginal_at`) and the
    /// relaxed floor over finished per-block tables.
    fn assemble(
        blocks: Vec<BlockBound>,
        floors: Vec<u64>,
        dims_len: usize,
        schedules: &ScheduleTable,
    ) -> Self {
        let mut exact_at = vec![Vec::new(); dims_len];
        let mut marginal_at = vec![Vec::new(); dims_len];
        for (b, bound) in blocks.iter().enumerate() {
            if bound.positions.is_empty() {
                continue;
            }
            exact_at[bound.min_pos()].push(b);
            if bound.min_pos() < bound.max_pos() {
                marginal_at[bound.max_pos()].push(b);
            }
        }
        let relaxed_total = blocks.iter().map(|b| b.relaxed).sum();
        SearchBounds {
            blocks,
            exact_at,
            marginal_at,
            relaxed_total,
            floors,
            schedules: schedules.clone(),
            dims_len,
        }
    }

    /// The bound with no kind fixed: no allocation in the space can
    /// finish faster than this.
    pub fn relaxed_bound(&self) -> u64 {
        self.relaxed_total
    }

    /// The per-block communication floors folded into the tables (all
    /// zeros for [`SearchBounds::new`]) — the `floor_b` a
    /// [`BudgetRelaxation`] subtracts from each block's saving.
    pub fn comm_floors(&self) -> &[u64] {
        &self.floors
    }

    /// Admissible lower bound on the total time of every allocation
    /// whose counts at dimension positions `fixed_from..` equal
    /// `counts` (positions below `fixed_from` are free). `counts` must
    /// span the full dimension list; entries below `fixed_from` are
    /// ignored. `fixed_from == dims.len()` fixes nothing and returns
    /// [`SearchBounds::relaxed_bound`]; `fixed_from == 0` bounds the
    /// single allocation `counts` itself.
    ///
    /// This is the direct O(blocks) reference evaluation; the search
    /// walk derives the same values incrementally through the
    /// crate-internal `LevelState` chain (pinned equal by unit tests).
    pub fn prefix_bound(&self, counts: &[u32], fixed_from: usize) -> u64 {
        debug_assert_eq!(counts.len(), self.dims_len, "counts span the space");
        (0..self.blocks.len())
            .map(|b| self.contribution(b, fixed_from, counts))
            .sum()
    }

    /// One block's contribution at a level (see the module docs).
    fn contribution(&self, b: usize, fixed_from: usize, counts: &[u32]) -> u64 {
        let blk = &self.blocks[b];
        if blk.positions.is_empty() {
            return blk.relaxed; // immovable: constant software time
        }
        if blk.min_pos() >= fixed_from {
            blk.exact(&self.schedules, b, counts)
        } else if blk.max_pos() >= fixed_from {
            blk.marginal(counts[blk.max_pos()])
        } else {
            blk.relaxed
        }
    }
}

/// Fractional-knapsack relaxation of one candidate's controller budget:
/// an admissible lower bound on the candidate's DP time at every
/// controller capacity, from its metrics alone — see the module docs
/// ("Controller-budget relaxation") for the construction and the
/// admissibility argument.
///
/// A sweep keeps one per worker and [`BudgetRelaxation::rebuild`]s it
/// in place for every candidate, so the buffers are reused.
///
/// # Examples
///
/// ```
/// use lycos_hwlib::{Area, Cycles};
/// use lycos_pace::{BsbMetrics, BudgetRelaxation};
///
/// let block = |sw, hw: Option<u64>, ctl| BsbMetrics {
///     sw_time: Cycles::new(sw),
///     hw_time: hw.map(Cycles::new),
///     hw_states: hw.map(|_| 1),
///     controller_area: hw.map(|_| Area::new(ctl)),
/// };
/// // Savings 90 (weight 30) and 40 (weight 40); the third block cannot
/// // move to hardware.
/// let metrics = [block(100, Some(10), 30), block(50, Some(10), 40), block(7, None, 0)];
/// let mut relax = BudgetRelaxation::new();
/// relax.rebuild(&metrics, &[0, 0, 0]);
/// assert_eq!(relax.lower_bound(0), 157); // all software
/// assert_eq!(relax.lower_bound(30), 67); // the denser item fits whole
/// assert_eq!(relax.lower_bound(50), 47); // plus half of the other
/// assert_eq!(relax.lower_bound(u64::MAX), 27); // Σ min(sw, hw)
/// ```
#[derive(Clone, Debug, Default)]
pub struct BudgetRelaxation {
    /// Σ software time over every block — the bound before savings.
    sw_total: u64,
    /// `(saving, weight)` per item, highest saving per gate first.
    items: Vec<(u64, u64)>,
    /// `prefix[k]` = `(Σ weight, Σ saving)` of `items[..k]`.
    prefix: Vec<(u64, u64)>,
}

impl BudgetRelaxation {
    /// An empty relaxation (bound 0 everywhere until rebuilt).
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-derives the items from one candidate's per-block `metrics`
    /// and the per-block communication `floors`
    /// ([`SearchBounds::comm_floors`], or zeros to ignore traffic).
    ///
    /// # Panics
    ///
    /// If `floors` does not hold one entry per block.
    pub fn rebuild(&mut self, metrics: &[BsbMetrics], floors: &[u64]) {
        assert_eq!(metrics.len(), floors.len(), "one floor per block");
        self.sw_total = 0;
        self.items.clear();
        for (m, &floor) in metrics.iter().zip(floors) {
            let sw = m.sw_time.count();
            self.sw_total += sw;
            let (Some(hw), Some(ctl)) = (m.hw_time, m.controller_area) else {
                continue; // infeasible: stays in software
            };
            let saving = sw.saturating_sub(hw.count().saturating_add(floor));
            if saving > 0 {
                self.items.push((saving, ctl.gates()));
            }
        }
        // Descending saving per gate, exactly: `s1/w1 > s2/w2` iff
        // `s1·w2 > s2·w1`. Savings are positive, so a weight-0 item
        // sorts ahead of every weighted one; the bound does not depend
        // on how equal ratios order.
        self.items.sort_unstable_by(|&(s1, w1), &(s2, w2)| {
            (u128::from(s2) * u128::from(w1)).cmp(&(u128::from(s1) * u128::from(w2)))
        });
        self.prefix.clear();
        self.prefix.push((0, 0));
        let (mut weight, mut saving) = (0u64, 0u64);
        for &(s, w) in &self.items {
            weight += w;
            saving += s;
            self.prefix.push((weight, saving));
        }
    }

    /// Admissible lower bound on the candidate's DP time when its
    /// controllers may spend at most `cap` gates.
    pub fn lower_bound(&self, cap: u64) -> u64 {
        // `prefix[0]` weighs 0, so at least one entry fits.
        let whole = self.prefix.partition_point(|&(w, _)| w <= cap) - 1;
        self.bound_with(whole, cap)
    }

    /// [`BudgetRelaxation::lower_bound`] at `a · quantum` gates for
    /// every level `a` in `0..=levels`, in one monotone pass.
    pub fn level_bounds(&self, quantum: u64, levels: usize) -> impl Iterator<Item = u64> + '_ {
        let mut whole = 0;
        (0..=levels as u64).map(move |a| {
            let cap = a * quantum;
            while whole + 1 < self.prefix.len() && self.prefix[whole + 1].0 <= cap {
                whole += 1;
            }
            self.bound_with(whole, cap)
        })
    }

    /// The bound at `cap` when exactly `items[..whole]` fit whole: the
    /// next item (if any) fills the rest fractionally, its share
    /// rounded up.
    fn bound_with(&self, whole: usize, cap: u64) -> u64 {
        let (weight, saving) = self.prefix[whole];
        let fraction = match self.items.get(whole) {
            // It did not fit whole, so `w > cap − weight ≥ 0`.
            Some(&(s, w)) => {
                let share = (u128::from(s) * u128::from(cap - weight)).div_ceil(u128::from(w));
                u64::try_from(share).expect("a partial share is below the item's saving")
            }
            None => 0,
        };
        self.sw_total - saving - fraction
    }
}

/// Static barrier flags and segmented communication floors of one
/// application over one allocation space.
fn floors_for(
    dims: &[(FuId, u32)],
    dim_fus: &[FuId],
    statics: &[BsbStatics],
    comm: Option<&CommCosts>,
) -> Vec<u64> {
    // Static barriers — blocks hardware-infeasible under EVERY
    // allocation of this space (immovable, a kind outside the
    // dimensions, or needing more units than the cap). Runs the DP
    // can form never span one, which is what makes the segmented
    // communication floor admissible.
    let barrier: Vec<bool> = statics
        .iter()
        .map(|stat| {
            if !stat.movable {
                return true;
            }
            match kind_positions(dim_fus, &stat.kinds).filter(|p| !p.is_empty()) {
                None => true,
                Some(positions) => positions
                    .iter()
                    .zip(&stat.need)
                    .any(|(&p, &need)| need > dims[p].1),
            }
        })
        .collect();
    match comm {
        Some(costs) => comm_floors(&barrier, costs),
        None => vec![0u64; statics.len()],
    }
}

/// Builds one block's bound tables from the block's content (DFG and
/// profile via `bsb`, derived resources via `stat`), the space
/// dimensions and the block's communication floor. Schedule lengths
/// come from block `b`'s slots of `schedules`, so a rebuild over
/// filled slots runs no schedule.
#[allow(clippy::too_many_arguments)] // one block of the artifact seam
fn block_bound(
    b: usize,
    bsb: &Bsb,
    stat: &BsbStatics,
    lib: &HwLibrary,
    dims: &[(FuId, u32)],
    dim_fus: &[FuId],
    floor: u64,
    schedules: &ScheduleTable,
) -> Result<BlockBound, PaceError> {
    let positions = if stat.movable {
        kind_positions(dim_fus, &stat.kinds)
    } else {
        None
    };
    let sw = stat.sw_time.count();
    let Some(positions) = positions.filter(|p| !p.is_empty()) else {
        // Not movable, a kind outside the space, or no kinds at
        // all: software at every level, folded into the floor.
        return Ok(BlockBound::immovable(sw));
    };
    // Past the schedule table's size cap only the communication floor
    // survives (hardware time floored at 0).
    let mut bound = BlockBound {
        sw,
        positions,
        needed: stat.need.clone(),
        profile: bsb.profile,
        floor,
        marg: Vec::new(),
        relaxed: sw.min(floor),
    };
    if !schedules.keeps(b) {
        return Ok(bound);
    }
    let radix: Vec<u32> = bound.positions.iter().map(|&p| dims[p].1 + 1).collect();
    bound.marg = vec![INFEASIBLE; *radix.last().expect("movable block has kinds") as usize];
    bound.relaxed = sw;
    let mut counts = vec![0u32; radix.len()];
    for _ in 0..radix.iter().map(|&r| r as usize).product::<usize>() {
        if counts
            .iter()
            .zip(&bound.needed)
            .all(|(&c, &need)| c >= need)
        {
            let (length, _) = schedules.length(b, bsb, lib, &stat.kinds, &counts)?;
            let hw = bound.hw(length);
            let top = *counts.last().expect("non-empty") as usize;
            bound.marg[top] = bound.marg[top].min(hw);
            bound.relaxed = bound.relaxed.min(hw);
        }
        // Advance the block-local odometer.
        for (c, &r) in counts.iter_mut().zip(&radix) {
            *c += 1;
            if *c < r {
                break;
            }
            *c = 0;
        }
    }
    Ok(bound)
}

/// Incrementally-maintained per-level bounds of one branch-and-bound
/// walk: `lb[pos]` is [`SearchBounds::prefix_bound`] at `pos` for the
/// walk's current digits, re-derived lazily from the level above after
/// each carry.
#[derive(Clone, Debug)]
pub(crate) struct LevelState {
    lb: Vec<u64>,
    /// Levels `>= valid_from` hold current values.
    valid_from: usize,
}

impl LevelState {
    pub(crate) fn new(bounds: &SearchBounds) -> Self {
        let n = bounds.dims_len;
        let mut lb = vec![0; n + 1];
        lb[n] = bounds.relaxed_total;
        LevelState { lb, valid_from: n }
    }

    /// The walk changed digits at positions `..=pos`: every level at
    /// or below `pos` is stale (the top level never is — it fixes
    /// nothing).
    pub(crate) fn invalidate_upto(&mut self, pos: usize) {
        self.valid_from = self.valid_from.max(pos + 1).min(self.lb.len() - 1);
    }

    /// Every digit may have changed — a work-stealing worker jumping
    /// to a fresh odometer chunk. Only the (digit-independent) top
    /// level survives.
    pub(crate) fn invalidate_all(&mut self) {
        self.valid_from = self.lb.len() - 1;
    }

    /// The bound at `pos` for the current `counts`, re-deriving stale
    /// levels top-down. Each level adjusts only the blocks whose
    /// contribution class changes there, so a full walk costs O(class
    /// changes), not O(levels × blocks).
    pub(crate) fn bound_at(&mut self, bounds: &SearchBounds, pos: usize, counts: &[u32]) -> u64 {
        while self.valid_from > pos {
            let q = self.valid_from - 1;
            let mut v = self.lb[q + 1];
            for &b in &bounds.exact_at[q] {
                let blk = &bounds.blocks[b];
                let prev = if blk.max_pos() > q {
                    blk.marginal(counts[blk.max_pos()])
                } else {
                    blk.relaxed
                };
                let now = blk.exact(&bounds.schedules, b, counts);
                debug_assert!(now >= prev, "contributions only tighten downward");
                v += now - prev;
            }
            for &b in &bounds.marginal_at[q] {
                let blk = &bounds.blocks[b];
                let now = blk.marginal(counts[q]);
                debug_assert!(now >= blk.relaxed, "marginal is at least the floor");
                v += now - blk.relaxed;
            }
            self.lb[q] = v;
            self.valid_from = q;
        }
        self.lb[pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compute_metrics, partition_from_metrics, search_space, CommCosts, DpScratch};
    use lycos_core::{RMap, Restrictions};
    use lycos_hwlib::Area;
    use lycos_ir::{Bsb, BsbId, BsbOrigin, Dfg, OpKind};
    use std::collections::BTreeSet;

    fn lib() -> HwLibrary {
        HwLibrary::standard()
    }

    fn bsb(i: u32, kind: OpKind, n: usize, profile: u64, reads: &[&str], writes: &[&str]) -> Bsb {
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

    fn app() -> BsbArray {
        BsbArray::from_bsbs(
            "t",
            vec![
                bsb(0, OpKind::Add, 3, 500, &["a"], &["x"]),
                bsb(1, OpKind::Mul, 2, 700, &["x"], &["y"]),
                bsb(2, OpKind::Add, 2, 90, &["y"], &["z"]),
                bsb(3, OpKind::Div, 1, 40, &["z"], &["w"]),
            ],
        )
    }

    /// Exact DP time of one allocation (fresh everything).
    fn dp_time(bsbs: &BsbArray, lib: &HwLibrary, alloc: &RMap, total: Area) -> u64 {
        let cfg = PaceConfig::standard();
        let metrics = compute_metrics(bsbs, lib, alloc, &cfg).unwrap();
        let datapath = alloc.area(lib);
        let ctl = total.checked_sub(datapath).unwrap();
        let comm = CommCosts::priced(bsbs, &cfg.comm);
        let mut scratch = DpScratch::new();
        partition_from_metrics(&metrics, &comm, &mut scratch, datapath, ctl, &cfg)
            .total_time
            .count()
    }

    /// Walks every allocation of the space, returning `(counts, time)`
    /// pairs (skipping area-infeasible points).
    fn all_times(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        dims: &[(FuId, u32)],
        total: Area,
    ) -> Vec<(Vec<u32>, u64)> {
        let mut counts = vec![0u32; dims.len()];
        let mut out = Vec::new();
        loop {
            let alloc: RMap = dims
                .iter()
                .zip(&counts)
                .map(|(&(fu, _), &c)| (fu, c))
                .collect();
            if alloc.area(lib) <= total {
                out.push((counts.clone(), dp_time(bsbs, lib, &alloc, total)));
            }
            let mut pos = 0;
            loop {
                if pos == dims.len() {
                    return out;
                }
                counts[pos] += 1;
                if counts[pos] <= dims[pos].1 {
                    break;
                }
                counts[pos] = 0;
                pos += 1;
            }
        }
    }

    #[test]
    fn every_prefix_bound_is_admissible() {
        // For every point and every level: the bound with positions
        // `pos..` fixed must not exceed the time of ANY allocation
        // sharing those fixed counts.
        let bsbs = app();
        let lib = lib();
        let cfg = PaceConfig::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let dims = search_space(&restr);
        let total = Area::new(9_000);
        let bounds = SearchBounds::new(&bsbs, &lib, &dims, &cfg).unwrap();
        let times = all_times(&bsbs, &lib, &dims, total);
        assert!(!times.is_empty());
        for (counts, time) in &times {
            for pos in 0..=dims.len() {
                let lb = bounds.prefix_bound(counts, pos);
                assert!(
                    lb <= *time,
                    "level {pos} bound {lb} beats the DP time {time} at {counts:?}"
                );
            }
        }
        // And the relaxed floor bounds the optimum itself.
        let best = times.iter().map(|&(_, t)| t).min().unwrap();
        assert!(bounds.relaxed_bound() <= best);
    }

    #[test]
    fn fully_fixed_bound_is_tight_without_comm_or_budget_pressure() {
        // One isolated hot block, no reads/writes, huge budget: the DP
        // time IS min(sw, hw), so the level-0 bound must be exact.
        let bsbs = BsbArray::from_bsbs("t", vec![bsb(0, OpKind::Add, 4, 1000, &[], &[])]);
        let lib = lib();
        let cfg = PaceConfig::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let dims = search_space(&restr);
        let total = Area::new(100_000);
        let bounds = SearchBounds::new(&bsbs, &lib, &dims, &cfg).unwrap();
        for (counts, time) in all_times(&bsbs, &lib, &dims, total) {
            assert_eq!(bounds.prefix_bound(&counts, 0), time, "at {counts:?}");
        }
    }

    #[test]
    fn level_state_matches_the_reference_recompute() {
        // Walk the space in odometer order with the incremental chain
        // and compare every level against the direct prefix_bound.
        let bsbs = app();
        let lib = lib();
        let cfg = PaceConfig::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let dims = search_space(&restr);
        let bounds = SearchBounds::new(&bsbs, &lib, &dims, &cfg).unwrap();
        let mut state = LevelState::new(&bounds);
        let mut counts = vec![0u32; dims.len()];
        loop {
            for pos in 0..=dims.len() {
                assert_eq!(
                    state.bound_at(&bounds, pos, &counts),
                    bounds.prefix_bound(&counts, pos),
                    "level {pos} at {counts:?}"
                );
            }
            let mut pos = 0;
            loop {
                if pos == dims.len() {
                    return;
                }
                counts[pos] += 1;
                state.invalidate_upto(pos);
                if counts[pos] <= dims[pos].1 {
                    break;
                }
                counts[pos] = 0;
                pos += 1;
            }
        }
    }

    #[test]
    fn infeasible_prefixes_bound_at_software_time() {
        // Fixing the divider's dimension at 0 forces block 3 into
        // software: the bound at that level includes its full sw time.
        let bsbs = app();
        let lib = lib();
        let cfg = PaceConfig::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let dims = search_space(&restr);
        let bounds = SearchBounds::new(&bsbs, &lib, &dims, &cfg).unwrap();
        let div = lib.fu_for(OpKind::Div).unwrap();
        let div_pos = dims.iter().position(|&(fu, _)| fu == div).unwrap();
        // All caps at maximum except the divider at zero, fixed from
        // the divider's own level.
        let mut counts: Vec<u32> = dims.iter().map(|&(_, cap)| cap).collect();
        counts[div_pos] = 0;
        let with_div = {
            let mut c = counts.clone();
            c[div_pos] = 1;
            bounds.prefix_bound(&c, div_pos)
        };
        let without = bounds.prefix_bound(&counts, div_pos);
        assert!(
            without > with_div,
            "a starved divider must raise the bound ({without} vs {with_div})"
        );
        // The gap is at least the divider block's hardware gain.
        let metrics = compute_metrics(
            &bsbs,
            &lib,
            &dims
                .iter()
                .zip(&counts)
                .map(|(&(fu, _), &c)| (fu, if fu == div { dims[div_pos].1.max(1) } else { c }))
                .collect(),
            &cfg,
        )
        .unwrap();
        assert!(metrics[3].hw_feasible());
    }

    #[test]
    fn immovable_and_alien_kind_blocks_contribute_software_everywhere() {
        // An empty block and one whose kind is outside the dimensions
        // (cap 0) are software constants at every level.
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                bsb(0, OpKind::Add, 2, 100, &[], &[]),
                Bsb {
                    id: BsbId(1),
                    name: "empty".into(),
                    dfg: Dfg::new(),
                    reads: BTreeSet::new(),
                    writes: BTreeSet::new(),
                    profile: 9,
                    origin: BsbOrigin::Body,
                },
                bsb(2, OpKind::Div, 1, 30, &[], &[]),
            ],
        );
        let lib = lib();
        let cfg = PaceConfig::standard();
        let adder = lib.fu_for(OpKind::Add).unwrap();
        // Dimension list without the divider: block 2 can never move.
        let dims = vec![(adder, 2u32)];
        let bounds = SearchBounds::new(&bsbs, &lib, &dims, &cfg).unwrap();
        let metrics = compute_metrics(&bsbs, &lib, &RMap::new(), &cfg).unwrap();
        let sw_div = metrics[2].sw_time.count();
        assert!(sw_div > 0);
        // With the adder maxed, only block 0 can go to hardware; the
        // bound keeps blocks 1 and 2 at their software times.
        let counts = vec![2u32];
        let lb = bounds.prefix_bound(&counts, 0);
        assert!(lb >= sw_div, "alien-kind block stays software");
        // The empty block contributes zero (its sw time is zero); the
        // divider block contributes its full sw time.
        assert_eq!(bounds.blocks[1].relaxed, 0, "empty block floor");
        assert_eq!(bounds.blocks[2].relaxed, sw_div, "alien-kind block floor");
        assert_eq!(
            bounds.relaxed_bound(),
            bounds.blocks[0].relaxed + sw_div,
            "floors sum across the blocks"
        );
    }

    #[test]
    fn comm_floor_bounds_stay_admissible() {
        // The tightened constructor must still never beat the DP time
        // of any consistent allocation, at any level — communication
        // included (dp_time charges the full run comm).
        let bsbs = app();
        let lib = lib();
        let cfg = PaceConfig::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let dims = search_space(&restr);
        let total = Area::new(9_000);
        let relaxed = SearchBounds::new(&bsbs, &lib, &dims, &cfg).unwrap();
        let comm = SearchBounds::with_comm_floor(&bsbs, &lib, &dims, &cfg).unwrap();
        let times = all_times(&bsbs, &lib, &dims, total);
        assert!(!times.is_empty());
        for (counts, time) in &times {
            for pos in 0..=dims.len() {
                let lb = comm.prefix_bound(counts, pos);
                assert!(
                    lb <= *time,
                    "level {pos} comm bound {lb} beats the DP time {time} at {counts:?}"
                );
                assert!(
                    lb >= relaxed.prefix_bound(counts, pos),
                    "the comm floor never loosens the bound"
                );
            }
        }
        let best = times.iter().map(|&(_, t)| t).min().unwrap();
        assert!(comm.relaxed_bound() <= best);
    }

    #[test]
    fn comm_floor_tightens_across_barriers() {
        // An immovable block splits the app into two segments whose
        // single-block runs pay real traffic — the whole-application
        // run (nearly free) can no longer wash the floors out.
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                bsb(0, OpKind::Add, 6, 400, &[], &["x"]),
                Bsb {
                    id: BsbId(1),
                    name: "barrier".into(),
                    dfg: Dfg::new(),
                    reads: BTreeSet::new(),
                    writes: BTreeSet::new(),
                    profile: 1,
                    origin: BsbOrigin::Body,
                },
                bsb(2, OpKind::Add, 6, 400, &["x"], &[]),
            ],
        );
        let lib = lib();
        let cfg = PaceConfig::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let dims = search_space(&restr);
        let relaxed = SearchBounds::new(&bsbs, &lib, &dims, &cfg).unwrap();
        let comm = SearchBounds::with_comm_floor(&bsbs, &lib, &dims, &cfg).unwrap();
        assert!(
            comm.relaxed_bound() > relaxed.relaxed_bound(),
            "cross-barrier traffic must tighten the floor ({} vs {})",
            comm.relaxed_bound(),
            relaxed.relaxed_bound()
        );
        // And tightened is still admissible on this app.
        let total = Area::new(9_000);
        for (counts, time) in all_times(&bsbs, &lib, &dims, total) {
            for pos in 0..=dims.len() {
                assert!(comm.prefix_bound(&counts, pos) <= time, "at {counts:?}");
            }
        }
    }

    #[test]
    fn level_state_matches_the_reference_under_comm_floors() {
        // The incremental chain re-derives the comm-floored bounds
        // exactly (floors are per-block constants, so every class
        // transition still only tightens).
        let bsbs = app();
        let lib = lib();
        let cfg = PaceConfig::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let dims = search_space(&restr);
        let bounds = SearchBounds::with_comm_floor(&bsbs, &lib, &dims, &cfg).unwrap();
        let mut state = LevelState::new(&bounds);
        let mut counts = vec![0u32; dims.len()];
        loop {
            for pos in 0..=dims.len() {
                assert_eq!(
                    state.bound_at(&bounds, pos, &counts),
                    bounds.prefix_bound(&counts, pos),
                    "level {pos} at {counts:?}"
                );
            }
            let mut pos = 0;
            loop {
                if pos == dims.len() {
                    return;
                }
                counts[pos] += 1;
                state.invalidate_upto(pos);
                if counts[pos] <= dims[pos].1 {
                    break;
                }
                counts[pos] = 0;
                pos += 1;
            }
        }
    }

    /// Hand-built metrics of one block: `hw = None` is infeasible.
    fn block(sw: u64, hw: Option<u64>, ctl: u64) -> BsbMetrics {
        BsbMetrics {
            sw_time: Cycles::new(sw),
            hw_time: hw.map(Cycles::new),
            hw_states: hw.map(|_| 1),
            controller_area: hw.map(|_| Area::new(ctl)),
        }
    }

    fn relaxation(metrics: &[BsbMetrics], floors: &[u64]) -> BudgetRelaxation {
        let mut relax = BudgetRelaxation::new();
        relax.rebuild(metrics, floors);
        relax
    }

    #[test]
    fn budget_relaxation_rounds_the_fractional_share_up() {
        // One item: saving 10 at weight 3. A third of it is 3.33… —
        // the bound subtracts 4, a looser but still admissible value.
        let relax = relaxation(&[block(12, Some(2), 3)], &[0]);
        assert_eq!(relax.lower_bound(0), 12);
        assert_eq!(relax.lower_bound(1), 12 - 4);
        assert_eq!(relax.lower_bound(2), 12 - 7);
        assert_eq!(relax.lower_bound(3), 2, "the item fits whole");
        assert_eq!(relax.lower_bound(u64::MAX), 2);
        // The denser item goes first whatever the block order, and the
        // next one fills the rest fractionally.
        let metrics = [block(50, Some(10), 40), block(100, Some(10), 30)];
        let relax = relaxation(&metrics, &[0, 0]);
        assert_eq!(relax.lower_bound(30), 150 - 90);
        assert_eq!(relax.lower_bound(31), 150 - 90 - 1, "ceil(40/40)");
        assert_eq!(relax.lower_bound(69), 150 - 90 - 39);
        assert_eq!(relax.lower_bound(70), 20);
    }

    #[test]
    fn zero_weight_items_always_fit() {
        // A free controller fits at capacity 0, ahead of a denser but
        // weighted item.
        let metrics = [block(100, Some(0), 10), block(9, Some(4), 0)];
        let relax = relaxation(&metrics, &[0, 0]);
        assert_eq!(relax.lower_bound(0), 109 - 5);
        assert_eq!(relax.lower_bound(5), 109 - 5 - 50);
        assert_eq!(relax.lower_bound(10), 4);
        let all: Vec<u64> = relax.level_bounds(5, 2).collect();
        assert_eq!(all, vec![104, 54, 4]);
    }

    #[test]
    fn blocks_without_a_saving_are_no_items() {
        // Infeasible, slower in hardware, and eaten by the comm floor:
        // every capacity bounds at the all-software time.
        let metrics = [
            block(30, None, 0),
            block(20, Some(25), 1),
            block(40, Some(10), 1),
        ];
        for floors in [[0, 0, 30], [0, 0, 31]] {
            let relax = relaxation(&metrics, &floors);
            for cap in [0, 1, 1_000, u64::MAX] {
                assert_eq!(relax.lower_bound(cap), 90, "cap {cap}, floors {floors:?}");
            }
        }
        // Below the floor the block is an item again, saving 1.
        let relax = relaxation(&metrics, &[0, 0, 29]);
        assert_eq!(relax.lower_bound(1), 89);
        // Nothing at all: the bound is 0 everywhere.
        assert_eq!(relaxation(&[], &[]).lower_bound(7), 0);
    }

    #[test]
    fn zero_capacity_keeps_weighted_items_in_software() {
        let metrics = [block(100, Some(10), 16), block(80, Some(20), 32)];
        let relax = relaxation(&metrics, &[0, 0]);
        assert_eq!(relax.lower_bound(0), 180);
        assert_eq!(relax.level_bounds(16, 0).collect::<Vec<_>>(), vec![180]);
    }

    #[test]
    fn budget_relaxation_is_admissible_at_every_level() {
        // Every allocation of the test app, with and without comm
        // floors: the bound at `a` quanta never beats the DP's time at
        // controller level `a`, the monotone pass agrees with the direct
        // lookup, and at unbounded capacity the relaxation is exactly
        // the tables' leaf bound.
        let bsbs = app();
        let lib = lib();
        let cfg = PaceConfig::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let dims = search_space(&restr);
        let total = Area::new(9_000);
        let tables = [
            SearchBounds::new(&bsbs, &lib, &dims, &cfg).unwrap(),
            SearchBounds::with_comm_floor(&bsbs, &lib, &dims, &cfg).unwrap(),
        ];
        let mut scratch = DpScratch::new();
        let comm = CommCosts::priced(&bsbs, &cfg.comm);
        let mut relax = BudgetRelaxation::new();
        let mut checked = 0;
        let mut counts = vec![0u32; dims.len()];
        loop {
            let alloc: RMap = dims
                .iter()
                .zip(&counts)
                .map(|(&(fu, _), &c)| (fu, c))
                .collect();
            let datapath = alloc.area(&lib);
            if datapath <= total {
                let metrics = compute_metrics(&bsbs, &lib, &alloc, &cfg).unwrap();
                let ctl = total.checked_sub(datapath).unwrap();
                scratch.evaluate(&metrics, &comm, ctl, &cfg, &StopSignal::never());
                for bounds in &tables {
                    relax.rebuild(&metrics, bounds.comm_floors());
                    for (a, lb) in relax
                        .level_bounds(cfg.quantum, scratch.levels())
                        .enumerate()
                    {
                        assert_eq!(lb, relax.lower_bound(a as u64 * cfg.quantum));
                        let time = scratch.time_at_level(a);
                        assert!(lb <= time, "level {a}: {lb} beats {time} at {counts:?}");
                    }
                    assert_eq!(relax.lower_bound(u64::MAX), bounds.prefix_bound(&counts, 0));
                }
                checked += 1;
            }
            let mut pos = 0;
            loop {
                if pos == dims.len() {
                    assert!(checked > 0);
                    return;
                }
                counts[pos] += 1;
                if counts[pos] <= dims[pos].1 {
                    break;
                }
                counts[pos] = 0;
                pos += 1;
            }
        }
    }

    #[test]
    fn invalidate_all_resets_the_chain_exactly() {
        // A work-stealing worker jumps to an arbitrary chunk: after
        // invalidate_all, every level must re-derive against the new
        // digits with no residue from the old ones.
        let bsbs = app();
        let lib = lib();
        let cfg = PaceConfig::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let dims = search_space(&restr);
        let bounds = SearchBounds::with_comm_floor(&bsbs, &lib, &dims, &cfg).unwrap();
        let mut state = LevelState::new(&bounds);
        let zeros = vec![0u32; dims.len()];
        for pos in 0..=dims.len() {
            state.bound_at(&bounds, pos, &zeros); // warm the chain
        }
        let jump: Vec<u32> = dims.iter().map(|&(_, cap)| cap).collect();
        state.invalidate_all();
        for pos in 0..=dims.len() {
            assert_eq!(
                state.bound_at(&bounds, pos, &jump),
                bounds.prefix_bound(&jump, pos),
                "level {pos} after the jump"
            );
        }
    }
}
