//! Per-BSB cost metrics under a fixed data-path allocation.
//!
//! For every block the partitioner needs: its software time, and — if
//! the allocation covers its operations at all — its hardware time and
//! the *realistic* controller area derived from the resource-constrained
//! list schedule (§5.1: the allocation algorithm's ASAP estimate is
//! optimistic; at partition time the real schedule is in hand). The
//! schedule's length fixes all three allocation-dependent figures
//! (`hw_time = length × profile`, `hw_states = length`,
//! `controller_area = eca(length)`), and [`ScheduleTable`] keeps one
//! length per projection of each block's kinds.

use crate::{PaceConfig, PaceError, SearchArtifacts};
use lycos_core::{kind_positions, required_resources, RMap, Restrictions};
use lycos_hwlib::{Area, Cycles, FuId, HwLibrary};
use lycos_ir::{Bsb, BsbArray};
use lycos_sched::{list_schedule, FuCounts};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Cost figures of one BSB under a concrete allocation.
///
/// `Copy`: four machine words, cloned once per block per candidate on
/// the search engine's refresh path, so a table hit never touches the
/// heap.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BsbMetrics {
    /// Total software time over the application run
    /// (`block time × profile`).
    pub sw_time: Cycles,
    /// Total hardware time over the application run, if the allocation
    /// can execute the block at all.
    pub hw_time: Option<Cycles>,
    /// List-schedule control steps (= realistic controller states).
    pub hw_states: Option<u64>,
    /// Realistic controller area (ECA over `hw_states`).
    pub controller_area: Option<Area>,
}

impl BsbMetrics {
    /// Whether the allocation can execute this block in hardware.
    pub fn hw_feasible(&self) -> bool {
        self.hw_time.is_some()
    }

    /// The speed gained by moving this block to hardware (ignoring
    /// communication), zero if infeasible.
    pub fn local_gain(&self) -> Cycles {
        match self.hw_time {
            Some(hw) => self.sw_time.saturating_sub(hw),
            None => Cycles::ZERO,
        }
    }
}

/// Allocation-independent facts about one BSB, precomputed once and
/// reused across every candidate of an allocation-space search.
#[derive(Clone, Debug)]
pub(crate) struct BsbStatics {
    /// Total software time (`block time × profile`).
    pub sw_time: Cycles,
    /// Sorted distinct default-unit kinds of the block's operations —
    /// the axes of the block's schedule-table projection.
    pub kinds: Vec<FuId>,
    /// Minimum instances per kind for hardware feasibility
    /// (`GetReqResources`), parallel to `kinds`.
    pub need: Vec<u32>,
    /// Whether the block has operations at all (empty blocks cannot
    /// move to hardware).
    pub movable: bool,
}

/// Precomputes [`BsbStatics`] for one block — a pure function of the
/// block's content, the library, and the CPU model, which is what lets
/// the incremental artifact path re-derive exactly the edited blocks
/// and clone the rest.
///
/// # Errors
///
/// [`PaceError::Hw`] if an operation kind has no default unit.
pub(crate) fn block_statics(
    bsb: &Bsb,
    lib: &HwLibrary,
    config: &PaceConfig,
) -> Result<BsbStatics, PaceError> {
    let (kinds, need) = required_resources(bsb, lib)?.iter().unzip();
    Ok(BsbStatics {
        sw_time: config.cpu.bsb_time(bsb),
        kinds,
        need,
        movable: !bsb.dfg.is_empty(),
    })
}

/// Precomputes [`BsbStatics`] for every block.
///
/// # Errors
///
/// As [`block_statics`].
pub(crate) fn bsb_statics(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    config: &PaceConfig,
) -> Result<Vec<BsbStatics>, PaceError> {
    bsbs.iter()
        .map(|bsb| block_statics(bsb, lib, config))
        .collect()
}

/// Largest per-block projection table: real blocks use a handful of
/// kinds with single-digit caps. A block whose projection space
/// exceeds this keeps no slots (every schedule runs directly) and is
/// bounded by its feasibility alone.
const MAX_TABLE: usize = 1 << 16;

/// A slot no schedule has filled yet.
const UNSET: u32 = u32::MAX;

/// One block's slots: a dense mixed-radix array over the counts of the
/// block's kinds, first kind least significant.
#[derive(Debug)]
struct BlockSlots {
    /// `cap + 1` per kind of the block.
    radix: Vec<u32>,
    /// One schedule length per projection, [`UNSET`] until filled.
    /// Empty when the block keeps no table.
    slots: Box<[AtomicU32]>,
}

impl BlockSlots {
    /// Slots over `radix` (from [`block_radix`]): none for `None` or a
    /// projection space over [`MAX_TABLE`], one for a kind-less block.
    fn new(radix: Option<Vec<u32>>) -> Self {
        let sized = radix.and_then(|radix| {
            let size = radix
                .iter()
                .try_fold(1usize, |acc, &r| acc.checked_mul(r as usize))
                .filter(|&size| size <= MAX_TABLE)?;
            Some((radix, size))
        });
        let (radix, size) = sized.unwrap_or_default();
        let slots = (0..size).map(|_| AtomicU32::new(UNSET)).collect();
        BlockSlots { radix, slots }
    }

    /// The slot of the projection `counts` (one count per kind of the
    /// block), if it lies in the table.
    fn slot(&self, counts: impl IntoIterator<Item = u32>) -> Option<&AtomicU32> {
        if self.slots.is_empty() {
            return None;
        }
        let mut index = 0usize;
        let mut mul = 1usize;
        for (c, &radix) in counts.into_iter().zip(&self.radix) {
            if c >= radix {
                return None; // past the cap
            }
            index += c as usize * mul;
            mul *= radix as usize;
        }
        Some(&self.slots[index])
    }
}

/// How [`ScheduleTable::length`] found a length.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Probe {
    /// Read from a filled slot.
    Hit,
    /// Scheduled now and stored in its slot.
    Filled,
    /// Scheduled now; the projection lies outside the table.
    Direct,
}

/// The list-schedule length of every block under every projection of
/// one allocation space, filled on first use.
///
/// One table lives in each [`crate::SearchArtifacts`] and is read by
/// the bound tables, every sweep worker, every request and the
/// incremental rebuild of an edited application. Each slot is an
/// [`AtomicU32`] that is either unset or the block's schedule length;
/// the fill is deterministic, so two workers racing on one slot store
/// the same value. A projection outside the table — a count past its
/// dimension cap, or a block whose projection space exceeds the table
/// cap — is scheduled directly and not memoised. Clones share slots.
#[derive(Clone, Debug)]
pub struct ScheduleTable {
    blocks: Vec<Arc<BlockSlots>>,
}

impl ScheduleTable {
    /// Slots for every block over the space spanned by `dims`.
    /// Immovable blocks, blocks using a kind outside `dims`, and
    /// blocks over the table cap keep none. With a `donor` table (an
    /// edited application's), a block that matched a donor block by
    /// content (`matched[b] == Some(j)`) shares the donor's slots when
    /// the donor block keeps some and its layout is unchanged; every
    /// other block starts empty. A length depends only on the block's
    /// content, the library and the projection, and the layout only
    /// on the block's caps, so a shared slot holds exactly what a
    /// fresh fill would.
    pub(crate) fn new(
        statics: &[BsbStatics],
        dims: &[(FuId, u32)],
        donor: Option<(&ScheduleTable, &[Option<usize>])>,
    ) -> Self {
        let blocks = statics
            .iter()
            .enumerate()
            .map(|(b, stat)| {
                let radix = block_radix(stat, dims);
                let carried = donor.and_then(|(table, matched)| Some(&table.blocks[matched[b]?]));
                match carried {
                    Some(slots)
                        if !slots.slots.is_empty() && Some(&slots.radix) == radix.as_ref() =>
                    {
                        Arc::clone(slots)
                    }
                    _ => Arc::new(BlockSlots::new(radix)),
                }
            })
            .collect();
        ScheduleTable { blocks }
    }

    /// Whether block `b` keeps slots: it is movable, every kind it uses
    /// lies in the space and its projection space fits the table cap.
    pub(crate) fn keeps(&self, b: usize) -> bool {
        !self.blocks[b].slots.is_empty()
    }

    /// The length filled for block `b` under the projection `counts`
    /// (one count per kind of the block, in kind order); `None` outside
    /// the table or while the slot is unset.
    pub(crate) fn get(&self, b: usize, counts: impl IntoIterator<Item = u32>) -> Option<u64> {
        let v = self.blocks[b].slot(counts)?.load(Ordering::Relaxed);
        (v != UNSET).then_some(u64::from(v))
    }

    /// Block `b`'s slots in layout order: `Some(length)` where a
    /// schedule has run, `None` where none has (or none can: the
    /// projection cannot execute the block). Empty for a block that
    /// keeps no table.
    ///
    /// # Panics
    ///
    /// If `b` is not a block of the table.
    pub fn lengths(&self, b: usize) -> Vec<Option<u32>> {
        self.blocks[b]
            .slots
            .iter()
            .map(|slot| Some(slot.load(Ordering::Relaxed)).filter(|&v| v != UNSET))
            .collect()
    }

    /// The list-schedule length of `bsb` (block `b` of the table) with
    /// `counts[k]` units of `kinds[k]` — the only place the search and
    /// partition engines run the list scheduler (the reference
    /// [`compute_metrics`] and the exhaustive walk schedule on their
    /// own). A filled slot is read; otherwise the block is scheduled
    /// and, inside the table, the slot filled.
    ///
    /// # Errors
    ///
    /// [`PaceError::Sched`] if the DFG cannot be scheduled.
    pub(crate) fn length(
        &self,
        b: usize,
        bsb: &Bsb,
        lib: &HwLibrary,
        kinds: &[FuId],
        counts: &[u32],
    ) -> Result<(u64, Probe), PaceError> {
        let slot = self.blocks[b].slot(counts.iter().copied());
        if let Some(v) = slot.map(|s| s.load(Ordering::Relaxed)) {
            if v != UNSET {
                return Ok((u64::from(v), Probe::Hit));
            }
        }
        // Counts restricted to the block's own kinds: the list
        // scheduler only ever looks those up.
        let fu_counts: FuCounts = kinds.iter().copied().zip(counts.iter().copied()).collect();
        let length = list_schedule(&bsb.dfg, lib, &fu_counts)?.length();
        match (slot, u32::try_from(length)) {
            (Some(slot), Ok(v)) if v != UNSET => {
                slot.store(v, Ordering::Relaxed);
                Ok((length, Probe::Filled))
            }
            _ => Ok((length, Probe::Direct)),
        }
    }
}

/// `cap + 1` per kind of a movable block whose kinds all lie in
/// `dims` (empty for a block with no kinds: one projection); `None`
/// for any other block, which keeps no table.
fn block_radix(stat: &BsbStatics, dims: &[(FuId, u32)]) -> Option<Vec<u32>> {
    let dim_fus: Vec<FuId> = dims.iter().map(|&(fu, _)| fu).collect();
    let positions = kind_positions(&dim_fus, &stat.kinds).filter(|_| stat.movable)?;
    Some(positions.iter().map(|&p| dims[p].1 + 1).collect())
}

/// The dirty watermark of a from-scratch refresh: above every block's
/// lowest digit, so [`MetricsCache::step_into`] re-derives every block
/// — those no odometer digit reaches included.
pub(crate) const FROM_SCRATCH: usize = usize::MAX;

/// The lowest odometer digit (position in `dims`) holding one of the
/// block's kinds: a walk step whose carry reaches that digit changes
/// the block's projection, and no lower carry does. `dims.len()` when
/// no kind of the block lies in the space (an immovable block, or one
/// whose every kind is capped at zero), which no step ever reaches.
pub(crate) fn lowest_digit(stat: &BsbStatics, dims: &[(FuId, u32)]) -> usize {
    stat.kinds
        .iter()
        .filter_map(|&fu| dims.iter().position(|&(d, _)| d == fu))
        .min()
        .unwrap_or(dims.len())
}

/// Metrics of a block the allocation cannot (or need not) execute.
pub(crate) fn infeasible_block_metrics(sw_time: Cycles) -> BsbMetrics {
    BsbMetrics {
        sw_time,
        hw_time: None,
        hw_states: None,
        controller_area: None,
    }
}

/// Computes [`BsbMetrics`] for every block of `bsbs` under `allocation`,
/// list-scheduling every feasible block afresh — the reference the
/// schedule table is tested against.
///
/// # Errors
///
/// [`PaceError::Hw`] if an operation kind has no default unit,
/// [`PaceError::Sched`] if a DFG cannot be scheduled.
pub fn compute_metrics(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    allocation: &RMap,
    config: &PaceConfig,
) -> Result<Vec<BsbMetrics>, PaceError> {
    let statics = bsb_statics(bsbs, lib, config)?;
    metrics_from_statics(bsbs, lib, &statics, allocation, config)
}

/// [`compute_metrics`] over statics already derived elsewhere — the
/// exhaustive reference walk's path, which schedules every feasible
/// block under the whole allocation and reads no schedule table.
///
/// # Errors
///
/// [`PaceError::Sched`] as for [`compute_metrics`].
pub(crate) fn metrics_from_statics(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    statics: &[BsbStatics],
    allocation: &RMap,
    config: &PaceConfig,
) -> Result<Vec<BsbMetrics>, PaceError> {
    let counts: FuCounts = allocation.iter().collect();
    let mut out = Vec::with_capacity(bsbs.len());
    for (bsb, stat) in bsbs.iter().zip(statics) {
        let covered = stat
            .kinds
            .iter()
            .zip(&stat.need)
            .all(|(&fu, &n)| allocation.count(fu) >= n);
        out.push(if stat.movable && covered {
            let states = list_schedule(&bsb.dfg, lib, &counts)?.length();
            BsbMetrics {
                sw_time: stat.sw_time,
                hw_time: Some(Cycles::new(states) * bsb.profile),
                hw_states: Some(states),
                controller_area: Some(config.eca.controller_area(states)),
            }
        } else {
            infeasible_block_metrics(stat.sw_time)
        });
    }
    Ok(out)
}

/// Per-BSB metrics of a sweep's candidates, read through a
/// [`ScheduleTable`].
///
/// Guarantees that [`MetricsCache::metrics`] returns exactly what
/// [`compute_metrics`] returns for the same allocation — the table is a
/// pure evaluation-order optimisation (asserted by property tests in
/// the exploration crate). A sweep worker reads the table of its
/// [`SearchArtifacts`], shared read-only with the bound tables, every
/// other worker and every later request; a standalone cache
/// ([`MetricsCache::new`]) prepares its own artifacts over the
/// application's ASAP restriction caps. The table does not ride
/// [`crate::SearchOptions::warm`]: a filled slot changes no result.
/// A sweep worker refreshes its buffer incrementally instead: after an
/// odometer step only the blocks holding a kind below the step's carry
/// watermark are re-derived.
///
/// # Examples
///
/// ```
/// use lycos_core::RMap;
/// use lycos_hwlib::HwLibrary;
/// use lycos_ir::{extract_bsbs, Cdfg, CdfgNode, DfgBuilder, OpKind, TripCount};
/// use lycos_pace::{compute_metrics, MetricsCache, PaceConfig};
///
/// let mut b = DfgBuilder::new();
/// let m = b.binary(OpKind::Mul, "a".into(), "b".into());
/// b.assign("x", m);
/// let cdfg = Cdfg::new("app", CdfgNode::block("b0", b.finish()));
/// let bsbs = extract_bsbs(&cdfg, None)?;
/// let lib = HwLibrary::standard();
/// let config = PaceConfig::standard();
/// let mult = lib.fu_for(OpKind::Mul).unwrap();
/// let alloc: RMap = [(mult, 1)].into_iter().collect();
///
/// let mut cache = MetricsCache::new(&bsbs, &lib, &config)?;
/// let cached = cache.metrics(&alloc)?;
/// assert_eq!(cached, compute_metrics(&bsbs, &lib, &alloc, &config)?);
/// let again = cache.metrics(&alloc)?;
/// assert_eq!(again, cached);
/// assert!(cache.hits() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct MetricsCache<'a> {
    bsbs: &'a BsbArray,
    lib: &'a HwLibrary,
    config: &'a PaceConfig,
    // Handles to the artifacts' statics, per-block lowest digits and
    // shared schedule slots.
    statics: Arc<[BsbStatics]>,
    lowest_digits: Arc<[usize]>,
    table: ScheduleTable,
    // Scratch projection: one count per kind of the block in hand.
    counts: Vec<u32>,
    hits: u64,
    misses: u64,
    fills: u64,
    dirty_probes: u64,
    clean_reuses: u64,
}

impl<'a> MetricsCache<'a> {
    /// A standalone cache over `bsbs`: prepares the application's
    /// artifacts — the allocation-independent per-block facts and an
    /// empty schedule table — over its ASAP restriction caps.
    ///
    /// # Errors
    ///
    /// [`PaceError::Hw`] if an operation kind has no default unit,
    /// [`PaceError::Sched`] if a block cannot be ASAP-scheduled.
    pub fn new(
        bsbs: &'a BsbArray,
        lib: &'a HwLibrary,
        config: &'a PaceConfig,
    ) -> Result<Self, PaceError> {
        let restrictions = Restrictions::from_asap(bsbs, lib)?;
        let artifacts = SearchArtifacts::prepare(bsbs, lib, &restrictions, config)?;
        Ok(Self::from_artifacts(bsbs, lib, config, &artifacts))
    }

    /// A cache over the artifacts' statics and schedule table, shared
    /// in place — what every sweep worker and every single evaluation
    /// over the artifacts uses.
    pub(crate) fn from_artifacts(
        bsbs: &'a BsbArray,
        lib: &'a HwLibrary,
        config: &'a PaceConfig,
        artifacts: &SearchArtifacts,
    ) -> Self {
        MetricsCache {
            bsbs,
            lib,
            config,
            statics: Arc::clone(&artifacts.statics),
            lowest_digits: Arc::clone(&artifacts.lowest_digits),
            table: artifacts.schedules().clone(),
            counts: Vec::new(),
            hits: 0,
            misses: 0,
            fills: 0,
            dirty_probes: 0,
            clean_reuses: 0,
        }
    }

    /// Metrics for every block under `allocation`, each schedule length
    /// read from the table where an earlier lookup filled it.
    ///
    /// # Errors
    ///
    /// [`PaceError::Sched`] if a block's DFG cannot be scheduled at all.
    pub fn metrics(&mut self, allocation: &RMap) -> Result<Vec<BsbMetrics>, PaceError> {
        let mut out = vec![infeasible_block_metrics(Cycles::ZERO); self.bsbs.len()];
        self.step_into(allocation, FROM_SCRATCH, &mut out)?;
        Ok(out)
    }

    /// Incrementally refreshes `out` — a previous candidate's complete
    /// metrics — for `allocation`, where only odometer digits below
    /// the watermark `below` changed since the metrics in `out` were
    /// computed. A block is re-derived when its lowest digit (see
    /// [`lowest_digit`]) lies below the watermark; every other block's
    /// projection is unchanged, so its entry is still exactly what
    /// [`compute_metrics`] would return and is reused as-is.
    /// [`FROM_SCRATCH`] re-derives every block. The dirty/clean split
    /// is counted by [`MetricsCache::dirty_probes`] and
    /// [`MetricsCache::clean_reuses`].
    ///
    /// # Errors
    ///
    /// [`PaceError::Sched`] if a block's DFG cannot be scheduled at all.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold one entry per block.
    pub(crate) fn step_into(
        &mut self,
        allocation: &RMap,
        below: usize,
        out: &mut [BsbMetrics],
    ) -> Result<(), PaceError> {
        assert_eq!(out.len(), self.bsbs.len(), "one metrics entry per block");
        for (b, (bsb, stat)) in self.bsbs.iter().zip(self.statics.iter()).enumerate() {
            if self.lowest_digits[b] >= below {
                self.clean_reuses += 1;
                continue;
            }
            self.dirty_probes += 1;
            self.counts.clear();
            self.counts
                .extend(stat.kinds.iter().map(|&fu| allocation.count(fu)));
            let covered = self.counts.iter().zip(&stat.need).all(|(&c, &n)| c >= n);
            if !stat.movable || !covered {
                out[b] = infeasible_block_metrics(stat.sw_time);
                continue;
            }
            let (states, probe) = self
                .table
                .length(b, bsb, self.lib, &stat.kinds, &self.counts)?;
            match probe {
                Probe::Hit => self.hits += 1,
                Probe::Filled => {
                    self.misses += 1;
                    self.fills += 1;
                }
                Probe::Direct => self.misses += 1,
            }
            out[b] = BsbMetrics {
                sw_time: stat.sw_time,
                hw_time: Some(Cycles::new(states) * bsb.profile),
                hw_states: Some(states),
                controller_area: Some(self.config.eca.controller_area(states)),
            };
        }
        Ok(())
    }

    /// Lookups answered from a filled slot so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to run the list scheduler.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Table slots this cache filled so far — every miss inside the
    /// table; a miss outside it is scheduled without being kept.
    pub fn key_allocs(&self) -> u64 {
        self.fills
    }

    /// Block entries actually re-derived across all refreshes.
    pub fn dirty_probes(&self) -> u64 {
        self.dirty_probes
    }

    /// Block entries an incremental refresh reused untouched.
    pub fn clean_reuses(&self) -> u64 {
        self.clean_reuses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lycos_ir::{Bsb, BsbId, BsbOrigin, Dfg, OpKind};
    use std::collections::BTreeSet;

    fn lib() -> HwLibrary {
        HwLibrary::standard()
    }

    fn one_bsb(dfg: Dfg, profile: u64) -> BsbArray {
        BsbArray::from_bsbs(
            "t",
            vec![Bsb {
                id: BsbId(0),
                name: "b0".into(),
                dfg,
                reads: BTreeSet::new(),
                writes: BTreeSet::new(),
                profile,
                origin: BsbOrigin::Body,
            }],
        )
    }

    #[test]
    fn feasible_block_gets_hw_numbers() {
        let mut g = Dfg::new();
        g.add_op(OpKind::Add);
        g.add_op(OpKind::Add);
        let bsbs = one_bsb(g, 10);
        let lib = lib();
        let adder = lib.fu_for(OpKind::Add).unwrap();
        let alloc: RMap = [(adder, 2)].into_iter().collect();
        let m = compute_metrics(&bsbs, &lib, &alloc, &PaceConfig::standard()).unwrap();
        assert!(m[0].hw_feasible());
        assert_eq!(m[0].hw_states, Some(1), "two adds on two adders");
        assert_eq!(m[0].hw_time, Some(Cycles::new(10)));
        // embedded-1998 add = 6 cycles, two adds, ten executions.
        assert_eq!(m[0].sw_time, Cycles::new(2 * 6 * 10));
        assert_eq!(m[0].local_gain(), Cycles::new(120 - 10));
    }

    #[test]
    fn fewer_instances_stretch_hw_time() {
        let mut g = Dfg::new();
        g.add_op(OpKind::Add);
        g.add_op(OpKind::Add);
        let bsbs = one_bsb(g, 1);
        let lib = lib();
        let adder = lib.fu_for(OpKind::Add).unwrap();
        let one: RMap = [(adder, 1)].into_iter().collect();
        let two: RMap = [(adder, 2)].into_iter().collect();
        let cfg = PaceConfig::standard();
        let m1 = compute_metrics(&bsbs, &lib, &one, &cfg).unwrap();
        let m2 = compute_metrics(&bsbs, &lib, &two, &cfg).unwrap();
        assert_eq!(m1[0].hw_states, Some(2));
        assert_eq!(m2[0].hw_states, Some(1));
        assert!(m1[0].controller_area.unwrap() > m2[0].controller_area.unwrap());
    }

    #[test]
    fn uncovered_block_is_infeasible_not_an_error() {
        let mut g = Dfg::new();
        g.add_op(OpKind::Div);
        let bsbs = one_bsb(g, 5);
        let m = compute_metrics(&bsbs, &lib(), &RMap::new(), &PaceConfig::standard()).unwrap();
        assert!(!m[0].hw_feasible());
        assert_eq!(m[0].hw_time, None);
        assert_eq!(m[0].local_gain(), Cycles::ZERO);
        assert!(m[0].sw_time > Cycles::ZERO, "software still runs it");
    }

    #[test]
    fn empty_block_is_not_movable() {
        let bsbs = one_bsb(Dfg::new(), 5);
        let m = compute_metrics(&bsbs, &lib(), &RMap::new(), &PaceConfig::standard()).unwrap();
        assert!(!m[0].hw_feasible());
        assert_eq!(m[0].sw_time, Cycles::ZERO);
    }

    #[test]
    fn partial_coverage_is_infeasible() {
        // Block needs adder + multiplier; allocation has only the adder.
        let mut g = Dfg::new();
        let a = g.add_op(OpKind::Add);
        let m = g.add_op(OpKind::Mul);
        g.add_edge(a, m).unwrap();
        let lib = lib();
        let adder = lib.fu_for(OpKind::Add).unwrap();
        let alloc: RMap = [(adder, 1)].into_iter().collect();
        let metrics =
            compute_metrics(&one_bsb(g, 1), &lib, &alloc, &PaceConfig::standard()).unwrap();
        assert!(!metrics[0].hw_feasible());
    }
}
