//! Content-addressed search artifacts and the cross-request store.
//!
//! Every engine in this crate needs the same per-application
//! precompute before it can evaluate a single candidate: the
//! allocation-independent per-block facts ([`block_statics`]), the
//! run-traffic table ([`CommCosts`]), the search dimensions, and — under
//! branch-and-bound — the admissible bound tables ([`SearchBounds`]).
//! Historically each engine rebuilt all of that per call. This module
//! hoists the whole precompute behind one seam:
//!
//! * [`SearchArtifacts`] — everything derived from one
//!   (application, unit library, configuration) triple, built once —
//!   by [`SearchArtifacts::prepare`], [`SearchArtifacts::for_partition`]
//!   or a store miss, all through one private constructor — and
//!   consumed by
//!   [`crate::search_best_with_stop`] / [`crate::search_pareto_with_stop`] /
//!   [`crate::partition_with_artifacts`]. Bound tables stay lazy (built
//!   on first bounded use, [`SearchArtifacts::bounds`]); the traffic table is full from the start
//!   ([`CommCosts::priced`] prices every run in one pass, well under a
//!   millisecond on the largest bundled app) and read-only, so every
//!   engine borrows it and none ever prices a run itself.
//! * [`ArtifactKey`] — a stable content fingerprint over the BSB
//!   array (blocks *and* their DFGs), the unit library, the allocation
//!   caps and the PACE configuration. Same content ⇒ same key; any
//!   semantic change ⇒ a different key (pinned by mutation tests).
//!   The area budget is deliberately *not* part of the key: a budget
//!   change reuses the artifacts and only re-runs the sweep.
//! * [`BlockKey`] — the same discipline applied to *one* block: its
//!   DFG, environment reads/writes, profile, origin, and the
//!   restriction caps projected onto its own unit kinds. The
//!   per-entry `Vec<BlockKey>` fingerprint is what the incremental
//!   diff path aligns an edited application against.
//! * [`ArtifactStore`] — a thread-safe bounded-LRU map from key to
//!   shared artifacts, for servers that see the same application
//!   repeatedly; [`ArtifactStore::get_or_build_incremental`] is its
//!   one entry point. Entries are artifacts plus an LRU stamp;
//!   artifacts keep winners, answers and the staircase. A previous
//!   winner ([`WarmSeed`]) lets a warm repeat reseed the engine's
//!   shared incumbent and prune most of the space on arrival — while
//!   staying field-exact, because the shared-incumbent prune is
//!   strict-only (see [`crate::search_best_with_stop`]).
//!
//! # Incremental re-preparation (the edit loop)
//!
//! [`ArtifactStore::get_or_build_incremental`] turns an edited
//! application's store miss into a *diff* against the nearest resident
//! entry (most fingerprint overlap, same library + configuration
//! context). Blocks whose [`BlockKey`] matches a donor block are
//! *clean* and clone the donor's per-block state; everything else is
//! *dirty* and re-derives. The clean/dirty invalidation rules:
//!
//! * **Statics** ([`BsbStatics`]) depend only on one block's content —
//!   clean blocks clone, dirty blocks re-derive.
//! * **Schedule lengths** ([`ScheduleTable`]) depend only on one block's
//!   content and the projection; the slot layout only on its caps. A
//!   clean block whose caps are unchanged shares the donor's slots,
//!   filled or not; every other block starts with empty slots. No
//!   communication floor enters a length, so this rule is simpler than
//!   the bound tables'.
//! * **Lowest digits** — each block's lowest odometer digit, which the
//!   sweep's carry watermark is compared against — depend only on the
//!   block's kinds and the dimensions, and are recomputed on every
//!   build in one pass over the statics.
//! * **Traffic table** ([`CommCosts`]) prices runs over the whole block
//!   sequence — reused wholesale iff no block's I/O content
//!   (reads/writes/profile) changed and the block count is unchanged;
//!   any other edit reprices every run in one pass
//!   ([`CommCosts::priced`]).
//! * **Bound tables** ([`SearchBounds`]) fold in segmented
//!   communication floors, which an edit can move for content-clean
//!   neighbours, so they are rebuilt whole, lazily on the first
//!   bounded search. The rebuild reads the carried schedule slots, so
//!   only dirty blocks run the list scheduler.
//! * **Recorded winners** are re-evaluated point-wise under the new
//!   artifacts (decode the donor's odometer index, re-encode under the
//!   new dimensions, run the DP) — a re-evaluated seed is a real point
//!   with its true time, so the strict-only reseed stays sound.
//! * **Stored Pareto staircases** and **recorded answers** are never
//!   carried: they die with the entry, and an edited application
//!   builds its own.
//!
//! The hard contract — pinned by `incremental_prop.rs` in the
//! exploration crate — is that a search over incrementally built
//! artifacts is field-identical to one over a from-scratch build.

use crate::bounds::SearchBounds;
use crate::comm::CommCosts;
use crate::config::PaceConfig;
use crate::error::PaceError;
use crate::exhaustive::{search_space, space_size};
use crate::metrics::{block_statics, lowest_digit, BsbStatics, ScheduleTable};
use crate::search::StoredFront;
use crate::stop::StopSignal;
use crate::{BsbMetrics, DpScratch, MetricsCache, SearchResult};
use lycos_core::{RMap, Restrictions};
use lycos_hwlib::{Area, FuId, HwLibrary};
use lycos_ir::{Bsb, BsbArray, BsbOrigin, Dfg, OpKind};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Streaming FNV-1a 64-bit hasher over an explicit byte serialization.
///
/// Keys used to hash `Debug` renderings, which made store identity
/// hostage to derived formatting; every fingerprinted component is now
/// written field by field through the typed writers below, so the
/// projection is a deliberate contract (pinned by a golden-value unit
/// test). Strings are length-prefixed and every compound field is
/// preceded by a tag byte, so adjacent fields can never slide into
/// each other.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// A section/field marker keeping adjacent components apart.
    fn tag(&mut self, t: u8) {
        self.byte(t);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Length-prefixed, so `"ab" + "c"` and `"a" + "bc"` differ.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }
}

// Section tags of the key serialization. Distinct per component so a
// truncated component can never alias the start of the next one.
const TAG_BLOCKS: u8 = 0x01;
const TAG_LIBRARY: u8 = 0x02;
const TAG_RESTRICTIONS: u8 = 0x03;
const TAG_CONFIG: u8 = 0x04;
const TAG_DFG: u8 = 0x06;
const TAG_IO: u8 = 0x07;
const TAG_UNMAPPED: u8 = 0x08;

fn origin_code(origin: BsbOrigin) -> u8 {
    // An explicit projection: renaming a variant must not flip keys.
    match origin {
        BsbOrigin::Body => 0,
        BsbOrigin::LoopTest => 1,
        BsbOrigin::CondTest => 2,
        BsbOrigin::Wait => 3,
    }
}

/// One DFG, structurally: operation kinds/labels/widths in op order,
/// then edges as index pairs (both deterministic in [`Dfg`]).
fn hash_dfg(h: &mut Fnv, dfg: &Dfg) {
    h.tag(TAG_DFG);
    h.usize(dfg.len());
    for op in dfg.ops() {
        h.str(op.kind.mnemonic());
        match &op.label {
            Some(label) => h.str(label),
            None => h.tag(TAG_UNMAPPED),
        }
        h.u64(u64::from(op.width));
    }
    for (from, to) in dfg.edges() {
        h.usize(from.index());
        h.usize(to.index());
    }
}

/// One block's semantic content: DFG, environment I/O, profile,
/// origin. Deliberately excludes the positional `id` and the cosmetic
/// `name`, so a pure rename or an insert/delete shift leaves sibling
/// blocks' keys unchanged.
fn hash_block_content(h: &mut Fnv, bsb: &Bsb) {
    hash_dfg(h, &bsb.dfg);
    h.tag(TAG_IO);
    h.usize(bsb.reads.len());
    for v in &bsb.reads {
        h.str(v);
    }
    h.usize(bsb.writes.len());
    for v in &bsb.writes {
        h.str(v);
    }
    h.u64(bsb.profile);
    h.byte(origin_code(bsb.origin));
}

/// The unit library: every unit's full spec, then the default-unit
/// mapping over all operation kinds (the part [`required_resources`]
/// and the schedulers actually consult).
///
/// [`required_resources`]: lycos_core::required_resources
fn hash_library(h: &mut Fnv, lib: &HwLibrary) {
    h.tag(TAG_LIBRARY);
    h.usize(lib.fus().len());
    for fu in lib.fus() {
        h.str(&fu.name);
        h.u64(fu.area.gates());
        h.u64(u64::from(fu.latency));
        h.usize(fu.ops.len());
        for op in &fu.ops {
            h.str(op.mnemonic());
        }
    }
    for op in OpKind::ALL {
        match lib.fu_for(op) {
            Ok(fu) => h.usize(fu.index() + 1),
            Err(_) => h.tag(TAG_UNMAPPED),
        }
    }
}

/// The allocation caps, in the restrictions' own (BTree) order.
fn hash_restrictions(h: &mut Fnv, restrictions: &Restrictions) {
    h.tag(TAG_RESTRICTIONS);
    for (fu, cap) in restrictions.iter() {
        h.usize(fu.index());
        h.u64(u64::from(cap));
    }
}

/// Every PACE knob: CPU model (name + per-kind op times), the
/// communication model, the ECA gate costs, the area quantum.
fn hash_config(h: &mut Fnv, config: &PaceConfig) {
    h.tag(TAG_CONFIG);
    h.str(config.cpu.name());
    for op in OpKind::ALL {
        h.u64(config.cpu.op_time(op).count());
    }
    h.u64(config.comm.cycles_per_word);
    h.u64(config.comm.sync_overhead);
    let gates = config.eca.gates();
    h.u64(gates.register.gates());
    h.u64(gates.and_gate.gates());
    h.u64(gates.or_gate.gates());
    h.u64(gates.inverter.gates());
    h.u64(config.quantum);
}

/// Fingerprint of the (library, configuration) pair alone — the shared
/// *context* every per-block key is implicitly relative to. Incremental
/// donors must match on it: a clean [`BlockKey`] only implies equal
/// derived state when the library and configuration agree too.
fn context_of(lib: &HwLibrary, config: &PaceConfig) -> u64 {
    let mut h = Fnv::new();
    hash_library(&mut h, lib);
    hash_config(&mut h, config);
    h.0
}

/// Fingerprint of one block's I/O content — reads, writes, profile —
/// the exact inputs of the run-traffic table. The donor's [`CommCosts`]
/// table is reusable wholesale iff every positional I/O mark matches.
fn io_mark(bsb: &Bsb) -> u64 {
    let mut h = Fnv::new();
    h.tag(TAG_IO);
    h.usize(bsb.reads.len());
    for v in &bsb.reads {
        h.str(v);
    }
    h.usize(bsb.writes.len());
    for v in &bsb.writes {
        h.str(v);
    }
    h.u64(bsb.profile);
    h.0
}

/// Content fingerprint of one (application, library, restrictions,
/// configuration) quadruple — the identity under which
/// [`SearchArtifacts`] are shared and cached.
///
/// Covers the BSB array (block structure, DFG operations and edges,
/// profiles, read/write sets), the unit library (units, areas, cycle
/// counts, defaults), the allocation caps and every PACE knob (CPU
/// model, communication model, ECA model, area quantum). Two inputs
/// with the same key produce byte-identical artifacts; changing any
/// covered component changes the key. The area *budget* is not
/// covered — artifacts are budget-independent by construction.
///
/// The fingerprint is an explicit field-by-field byte serialization
/// (not a `Debug` rendering), so store identity survives derived
/// formatting changes; the projection is pinned by a golden-value
/// unit test.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArtifactKey(u64);

impl ArtifactKey {
    /// Fingerprints the full search inputs.
    pub fn of(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        restrictions: &Restrictions,
        config: &PaceConfig,
    ) -> Self {
        let mut h = Fnv::new();
        h.tag(TAG_BLOCKS);
        h.str(bsbs.app_name());
        h.usize(bsbs.len());
        for bsb in bsbs {
            h.u64(u64::from(bsb.id.0));
            h.str(&bsb.name);
            hash_block_content(&mut h, bsb);
        }
        hash_library(&mut h, lib);
        hash_restrictions(&mut h, restrictions);
        hash_config(&mut h, config);
        ArtifactKey(h.0)
    }

    /// The raw 64-bit fingerprint.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Content fingerprint of *one* block, relative to the restriction
/// caps — [`ArtifactKey`]'s discipline at block granularity, and the
/// unit of the incremental diff path.
///
/// Covers the block's DFG (operation kinds, labels, widths, edges),
/// its environment reads/writes, profile count, origin, and the
/// restriction caps projected onto the default units of the kinds the
/// block uses. Deliberately excludes the positional block id and the
/// cosmetic block name, so inserting, deleting or renaming *other*
/// blocks leaves a block's key unchanged — that stability is exactly
/// what lets [`ArtifactStore::get_or_build_incremental`] align an
/// edited application against a resident donor. Any edit to the block
/// itself — an operation, an edge, a read/write, the profile, or a cap
/// on a unit kind it uses — flips its key (pinned by mutation tests in
/// `incremental_prop.rs`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockKey(u64);

impl BlockKey {
    /// Fingerprints one block under the given restriction caps.
    pub fn of(bsb: &Bsb, lib: &HwLibrary, restrictions: &Restrictions) -> Self {
        let mut h = Fnv::new();
        hash_block_content(&mut h, bsb);
        h.tag(TAG_RESTRICTIONS);
        // The caps this block's own kinds project onto, in FuId order.
        let mut fus: Vec<FuId> = bsb
            .dfg
            .ops()
            .iter()
            .filter_map(|op| lib.fu_for(op.kind).ok())
            .collect();
        fus.sort_unstable();
        fus.dedup();
        for fu in fus {
            h.usize(fu.index());
            h.u64(u64::from(restrictions.cap(fu)));
        }
        BlockKey(h.0)
    }

    /// The raw 64-bit fingerprint.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Every allocation-independent precompute the engines share, built
/// once per [`ArtifactKey`]: the per-block statics, the schedule table
/// (filled on first use), the full run-traffic table, the search dimensions
/// and (lazily, on first bounded use) the admissible bound tables.
///
/// Build one with [`SearchArtifacts::prepare`] and pass it to the
/// engine entries that take artifacts; or let the classic wrappers
/// ([`crate::search_best`] and friends) build a one-shot instance
/// internally — the results are identical either way.
pub struct SearchArtifacts {
    key: ArtifactKey,
    pub(crate) statics: Arc<[BsbStatics]>,
    /// Per block, the lowest odometer digit holding one of its kinds
    /// ([`lowest_digit`]): a walk step re-derives the block's metrics
    /// exactly when its carry reaches that digit.
    pub(crate) lowest_digits: Arc<[usize]>,
    /// Every block's list-schedule length per projection, filled on
    /// first use and read by the bound tables, every sweep worker and
    /// every request over these artifacts.
    schedules: ScheduleTable,
    /// The run-traffic table, every run priced at build time
    /// ([`CommCosts::priced`], or the donor's table cloned). Every
    /// engine, worker and request borrows it read-only.
    comm: CommCosts,
    dims: Vec<(FuId, u32)>,
    space: u128,
    /// Per-block content keys, in block order — what the store's
    /// incremental diff path aligns an edited application against.
    /// Empty on the partition-helper path (never store-diffed).
    fingerprint: Vec<BlockKey>,
    /// Per-block I/O content marks (reads/writes/profile) — the
    /// wholesale-reuse condition for the traffic table.
    io_marks: Vec<u64>,
    /// Fingerprint of the (library, configuration) context the
    /// per-block keys are relative to.
    context: u64,
    // The comm-floored bound tables, built on first use so unbounded
    // sweeps never pay for tables they cannot read.
    bounds: OnceLock<SearchBounds>,
    /// The results of complete walked best-under-budget searches, most
    /// recently used last, served to exact repeats. Store-resident
    /// artifacts only; never carried across an incremental rebuild.
    answers: Mutex<Vec<(AnswerKey, Arc<SearchResult>)>>,
    /// `(budget gates, winner)` per budget searched so far over these
    /// artifacts, most recently recorded last — seed material for warm
    /// restarts ([`ArtifactStore::warm_seeds`]). An incremental
    /// rebuild re-evaluates them under the new artifacts.
    winners: Mutex<Vec<(u64, WarmSeed)>>,
    /// The widest completed Pareto staircase swept over these
    /// artifacts, if any. It answers every best-under-budget search at
    /// a budget `B ≤ cap` and every Pareto sweep at `B′ ≤ cap` without
    /// a sweep, exactly:
    ///
    /// * the staircase holds, area-ascending, each point `(allocation,
    ///   controller level)` whose `(time, gates, index)` key is smaller
    ///   than every point's at no more area — so the last entry with
    ///   area ≤ `B` is the minimum key over every point within `B`;
    /// * a candidate's DP row is non-increasing in the level and a
    ///   cell does not depend on the row's width, so that minimum is
    ///   exactly the `(time, gates, index)` order a fresh search at `B`
    ///   reduces by;
    /// * the served winner's partition comes from one DP of its
    ///   allocation at `B`, the very evaluation the fresh search
    ///   backtracks.
    ///
    /// Kept only for complete, untruncated sweeps over store-resident
    /// artifacts with `warm` on; a wider sweep replaces a narrower one.
    /// It dies with the store entry and is never carried across an
    /// incremental rebuild. See the module docs of the search engine.
    front: Mutex<Option<Arc<StoredFront>>>,
    // The owning store's served-lookup counter when these artifacts
    // live in an [`ArtifactStore`] and can outlive the current
    // request; `None` on one-shot artifacts, so sweeps over them skip
    // the staircase and answer bookkeeping nobody could ever read back.
    store_front_hits: Option<Arc<AtomicU64>>,
}

/// What a recorded answer is filed under: budget gates, evaluation
/// limit and bound — every option a complete result depends on (the
/// worker count changes effort telemetry only).
pub(crate) type AnswerKey = (u64, Option<usize>, bool);

/// Records of each kind one artifact set keeps — answers and winners
/// alike. An answer's worst case is this many results, each about one
/// partition in size (under 1 KiB on eigen); a winner is 32 bytes.
const MAX_RECORDED: usize = 32;

/// Files `value` under `key` as the most recent record, replacing an
/// earlier record at the same key and dropping the least recently
/// used past [`MAX_RECORDED`].
fn keep_recent<K: PartialEq, V>(records: &Mutex<Vec<(K, V)>>, key: K, value: V) {
    let mut records = records.lock().unwrap_or_else(PoisonError::into_inner);
    records.retain(|(k, _)| *k != key);
    records.push((key, value));
    if records.len() > MAX_RECORDED {
        records.remove(0);
    }
}

/// Every block's [`BlockKey`] under `restrictions`, in block order.
fn block_keys(bsbs: &BsbArray, lib: &HwLibrary, restrictions: &Restrictions) -> Vec<BlockKey> {
    bsbs.iter()
        .map(|b| BlockKey::of(b, lib, restrictions))
        .collect()
}

impl SearchArtifacts {
    /// Builds the artifacts for a full allocation-space search: block
    /// statics, the full traffic table, and the search dimensions
    /// derived from `restrictions`.
    ///
    /// # Errors
    ///
    /// [`PaceError::Hw`] if an operation kind has no default unit.
    pub fn prepare(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        restrictions: &Restrictions,
        config: &PaceConfig,
    ) -> Result<Self, PaceError> {
        let key = ArtifactKey::of(bsbs, lib, restrictions, config);
        let fingerprint = block_keys(bsbs, lib, restrictions);
        Self::build(bsbs, lib, restrictions, config, key, fingerprint, None).map(|(a, _)| a)
    }

    /// Builds the artifacts for a single-allocation partition
    /// evaluation (no search dimensions) — the seam the
    /// [`crate::partition`] / [`crate::greedy_partition`] helper paths
    /// route through. The fingerprint stays empty: these artifacts
    /// never enter the store, so no block key is ever hashed.
    ///
    /// # Errors
    ///
    /// [`PaceError::Hw`] if an operation kind has no default unit.
    pub fn for_partition(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        config: &PaceConfig,
    ) -> Result<Self, PaceError> {
        let none = Restrictions::new();
        let key = ArtifactKey::of(bsbs, lib, &none, config);
        Self::build(bsbs, lib, &none, config, key, Vec::new(), None).map(|(a, _)| a)
    }

    /// The one constructor, from scratch or against a resident `donor`
    /// (the store's diff path). Without a donor every block is dirty.
    /// With one, blocks align to donor blocks by [`BlockKey`] and clean
    /// blocks clone the donor's per-block state instead of re-deriving
    /// it — see the module docs for the full clean/dirty invalidation
    /// rules. `key` and `fingerprint` are the caller's, computed once
    /// for the lookup. Returns the artifacts plus the blocks reused.
    ///
    /// The caller guarantees the donor's context equals this
    /// request's (the store's donor selection filters on it).
    fn build(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        restrictions: &Restrictions,
        config: &PaceConfig,
        key: ArtifactKey,
        fingerprint: Vec<BlockKey>,
        donor: Option<&SearchArtifacts>,
    ) -> Result<(Self, u64), PaceError> {
        let dims = search_space(restrictions);
        let space = space_size(&dims);
        let io_marks: Vec<u64> = bsbs.iter().map(io_mark).collect();

        // Align new blocks with donor blocks by key — a multiset
        // matching (first unconsumed donor occurrence wins), so
        // insert/delete shifts still pair every surviving block.
        let matched: Vec<Option<usize>> = match donor {
            None => vec![None; bsbs.len()],
            Some(donor) => {
                let mut donor_at: HashMap<BlockKey, VecDeque<usize>> = HashMap::new();
                for (j, &bk) in donor.fingerprint.iter().enumerate() {
                    donor_at.entry(bk).or_default().push_back(j);
                }
                fingerprint
                    .iter()
                    .map(|bk| donor_at.get_mut(bk).and_then(VecDeque::pop_front))
                    .collect()
            }
        };

        // Statics are per-block pure functions of (content, library,
        // configuration): clean blocks clone, dirty blocks re-derive.
        let statics = bsbs
            .iter()
            .zip(&matched)
            .map(|(bsb, m)| match (donor, m) {
                (Some(donor), Some(j)) => Ok(donor.statics[*j].clone()),
                _ => block_statics(bsb, lib, config),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let reused = matched.iter().flatten().count() as u64;

        // The traffic table prices runs over the whole block sequence,
        // so it is never patched block-wise: identical positional I/O
        // marks reuse it wholesale, anything else reprices every run
        // in one pass.
        let comm = match donor {
            Some(donor) if donor.io_marks == io_marks => donor.comm.clone(),
            _ => CommCosts::priced(bsbs, &config.comm),
        };

        // Schedule lengths depend only on one block's content and its
        // caps: content-clean blocks under unchanged caps share the
        // donor's slots, filled or not.
        let schedules =
            ScheduleTable::new(&statics, &dims, donor.map(|d| (&d.schedules, &matched[..])));
        let lowest_digits = statics
            .iter()
            .map(|stat| lowest_digit(stat, &dims))
            .collect();

        let artifacts = SearchArtifacts {
            key,
            statics: statics.into(),
            lowest_digits,
            schedules,
            comm,
            dims,
            space,
            fingerprint,
            io_marks,
            context: context_of(lib, config),
            bounds: OnceLock::new(),
            answers: Mutex::new(Vec::new()),
            winners: Mutex::new(Vec::new()),
            front: Mutex::new(None),
            store_front_hits: None,
        };
        Ok((artifacts, reused))
    }

    /// The content fingerprint these artifacts were built under.
    pub fn key(&self) -> ArtifactKey {
        self.key
    }

    /// The per-block content keys, in block order — empty on the
    /// partition-helper path.
    pub fn fingerprint(&self) -> &[BlockKey] {
        &self.fingerprint
    }

    /// Whether these artifacts are shared through an
    /// [`ArtifactStore`] (set by
    /// [`ArtifactStore::get_or_build_incremental`]).
    /// The engines consult this before recording a staircase or an
    /// answer: on one-shot artifacts nothing could ever read a
    /// recording back, so the sweep skips it entirely.
    pub fn store_resident(&self) -> bool {
        self.store_front_hits.is_some()
    }

    /// The widest completed Pareto staircase kept on these artifacts,
    /// if any — what answers later searches at budgets up to its cap
    /// without a sweep.
    pub fn stored_front(&self) -> Option<Arc<StoredFront>> {
        self.front
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Keeps `front` unless a staircase at least as wide is already
    /// stored. A no-op on one-shot artifacts.
    pub(crate) fn keep_front(&self, front: StoredFront) {
        if !self.store_resident() {
            return;
        }
        let mut slot = self.front.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.as_ref().is_none_or(|kept| kept.cap < front.cap) {
            *slot = Some(Arc::new(front));
        }
    }

    /// Counts one search answered without a sweep — from the stored
    /// staircase or a recorded answer — on the owning store's
    /// [`StoreStats::front_hits`].
    pub(crate) fn note_served(&self) {
        if let Some(hits) = &self.store_front_hits {
            hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The search dimensions (unit kind, cap), odometer order.
    pub fn dims(&self) -> &[(FuId, u32)] {
        &self.dims
    }

    /// Number of points in the allocation space the dimensions span.
    pub fn space_size(&self) -> u128 {
        self.space
    }

    /// Number of blocks the artifacts were derived over.
    pub fn block_count(&self) -> usize {
        self.statics.len()
    }

    /// The full traffic table every DP over these artifacts reads.
    pub fn comm(&self) -> &CommCosts {
        &self.comm
    }

    /// The schedule table every engine over these artifacts reads.
    pub fn schedules(&self) -> &ScheduleTable {
        &self.schedules
    }

    /// Per-block metrics under `allocation`, computed from the cached
    /// statics and schedule table — what [`crate::compute_metrics`]
    /// computes, minus the per-call statics derivation and every
    /// schedule an earlier evaluation already ran.
    ///
    /// # Errors
    ///
    /// [`PaceError::Sched`] if a block's DFG cannot be scheduled.
    pub fn metrics(
        &self,
        bsbs: &BsbArray,
        lib: &HwLibrary,
        allocation: &RMap,
        config: &PaceConfig,
    ) -> Result<Vec<BsbMetrics>, PaceError> {
        MetricsCache::from_artifacts(bsbs, lib, config, self).metrics(allocation)
    }

    /// The admissible bound tables of a bounded search over these
    /// artifacts, built on first use and shared afterwards. They read
    /// and fill the artifacts' schedule table, and fold in the
    /// communication floor priced off the artifacts' own traffic
    /// table. The build polls `stop` between blocks; `Ok(None)` means
    /// it tripped, and nothing was cached (the next caller builds from
    /// scratch).
    ///
    /// # Errors
    ///
    /// [`PaceError::Sched`] if a block cannot be list-scheduled under
    /// one of its projections.
    pub fn bounds(
        &self,
        bsbs: &BsbArray,
        lib: &HwLibrary,
        stop: &StopSignal,
    ) -> Result<Option<&SearchBounds>, PaceError> {
        if let Some(bounds) = self.bounds.get() {
            return Ok(Some(bounds));
        }
        let Some(built) = SearchBounds::from_statics(
            bsbs,
            lib,
            &self.dims,
            &self.statics,
            &self.schedules,
            &self.comm,
            stop,
        )?
        else {
            return Ok(None);
        };
        // A concurrent builder may have won the race; either value is
        // identical, `get_or_init` keeps exactly one.
        Ok(Some(self.bounds.get_or_init(|| built)))
    }

    /// Serves the answer recorded under `key`, if any: it becomes the
    /// most recently used and counts as served ([`Self::note_served`]).
    pub(crate) fn answer(&self, key: AnswerKey) -> Option<Arc<SearchResult>> {
        let mut answers = self.answers.lock().unwrap_or_else(PoisonError::into_inner);
        let pos = answers.iter().position(|(k, _)| *k == key)?;
        let entry = answers.remove(pos);
        answers.push(entry);
        self.note_served();
        answers.last().map(|(_, answer)| answer.clone())
    }

    /// Records `answer` under `key` ([`keep_recent`]). A no-op on
    /// one-shot artifacts.
    pub(crate) fn keep_answer(&self, key: AnswerKey, answer: SearchResult) {
        if self.store_resident() {
            keep_recent(&self.answers, key, Arc::new(answer));
        }
    }
}

impl fmt::Debug for SearchArtifacts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SearchArtifacts")
            .field("key", &self.key)
            .field("blocks", &self.statics.len())
            .field("dims", &self.dims.len())
            .field("space", &self.space)
            .finish_non_exhaustive()
    }
}

/// A previous winner of [`crate::search_best_with_stop`] over the same
/// artifacts, usable to reseed a later run's shared incumbent.
///
/// Soundness contract (enforced by [`ArtifactStore::warm_seeds`] and
/// the engine together): a seed may only be offered to a run whose
/// budget is **at least** the budget it was recorded under (so the
/// seed point is still area-feasible), and the engine only engages it
/// when `index` falls inside the run's truncation window (so the seed
/// point is a real point of the window). Under those two conditions
/// the strict-only shared prune keeps the warm result field-identical
/// to the cold one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WarmSeed {
    /// Hybrid time of the recorded winner, in cycles.
    pub time: u64,
    /// Data-path gates of the recorded winner.
    pub gates: u64,
    /// Odometer index of the recorded winner.
    pub index: u128,
}

/// Outcome of one [`ArtifactStore::get_or_build_incremental`] lookup —
/// how the artifacts were obtained and, on the diff path, how much of
/// the donor survived the edit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreOutcome {
    /// The lookup was answered from the store outright.
    pub hit: bool,
    /// The miss was built by diffing against a resident donor.
    pub incremental: bool,
    /// Blocks cloned from the donor (diff path only).
    pub blocks_reused: u64,
    /// Blocks re-derived from scratch (diff path only).
    pub blocks_rederived: u64,
}

/// Aggregate counters of one [`ArtifactStore`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that had to build artifacts.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub cap: usize,
    /// Misses answered by the incremental diff path (a donor with
    /// fingerprint overlap was resident).
    pub incremental: u64,
    /// Blocks cloned from donors across all incremental builds.
    pub reused: u64,
    /// Blocks re-derived from scratch across all incremental builds.
    pub rederived: u64,
    /// Searches answered without a sweep
    /// ([`crate::SearchStats::served`]): from a stored Pareto staircase,
    /// or — for an exact repeat of a best-under-budget search — from
    /// its recorded answer.
    pub front_hits: u64,
}

/// One resident application: its artifacts — which keep everything
/// searches learn over them — plus an LRU stamp. Every record dies
/// with the entry on eviction.
struct StoreEntry {
    artifacts: Arc<SearchArtifacts>,
    /// Monotonic last-use stamp — the LRU order without a list.
    used: u64,
}

/// The store's keyed state: entries by key (O(1) lookup however large
/// the cap grows), plus the inverted block-fingerprint index the
/// incremental diff path selects donors from.
#[derive(Default)]
struct StoreInner {
    map: HashMap<ArtifactKey, StoreEntry>,
    /// [`BlockKey`] → resident keys containing it, one per occurrence
    /// (a multiset, so duplicate blocks count correctly).
    blocks: HashMap<BlockKey, Vec<ArtifactKey>>,
    /// Monotonic use counter feeding the per-entry stamps.
    tick: u64,
}

impl StoreInner {
    fn stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn index_blocks(&mut self, key: ArtifactKey, artifacts: &SearchArtifacts) {
        for &bk in &artifacts.fingerprint {
            self.blocks.entry(bk).or_default().push(key);
        }
    }

    fn unindex_blocks(&mut self, key: ArtifactKey, artifacts: &SearchArtifacts) {
        for &bk in &artifacts.fingerprint {
            if let Some(keys) = self.blocks.get_mut(&bk) {
                if let Some(i) = keys.iter().position(|&k| k == key) {
                    keys.swap_remove(i);
                }
                if keys.is_empty() {
                    self.blocks.remove(&bk);
                }
            }
        }
    }

    /// Evicts least-recently-used entries past `cap`, returning how
    /// many were dropped.
    fn evict_past(&mut self, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.map.len() > cap {
            let Some(coldest) = self.map.iter().min_by_key(|(_, e)| e.used).map(|(&k, _)| k) else {
                break;
            };
            if let Some(entry) = self.map.remove(&coldest) {
                let artifacts = entry.artifacts.clone();
                self.unindex_blocks(coldest, &artifacts);
            }
            evicted += 1;
        }
        evicted
    }
}

/// Thread-safe bounded-LRU store of [`SearchArtifacts`], shared across
/// requests (one per server, or one per CLI invocation). Entries are
/// indexed by key — lookup cost stays flat as the cap grows — with a
/// per-entry use stamp carrying the LRU order; inserting past the cap
/// evicts the coldest entry. A second, inverted index maps every
/// resident [`BlockKey`] to the entries containing it, so the
/// incremental diff path finds its donor without scanning artifacts.
/// All counters are monotonic over the store's lifetime.
pub struct ArtifactStore {
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    incremental: AtomicU64,
    reused: AtomicU64,
    rederived: AtomicU64,
    /// Shared with every resident artifact set, which counts its own
    /// served lookups here.
    front_hits: Arc<AtomicU64>,
    inner: Mutex<StoreInner>,
}

impl ArtifactStore {
    /// A store holding at most `cap` applications (`cap` is clamped to
    /// at least 1 — a store that can hold nothing is never useful).
    pub fn new(cap: usize) -> Self {
        ArtifactStore {
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            incremental: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            rederived: AtomicU64::new(0),
            front_hits: Arc::new(AtomicU64::new(0)),
            inner: Mutex::new(StoreInner::default()),
        }
    }

    /// Looks `key` up, refreshing its LRU position. Counts a hit or a
    /// miss.
    fn get(&self, key: ArtifactKey) -> Option<Arc<SearchArtifacts>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let stamp = inner.stamp();
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.used = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(entry.artifacts.clone())
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Inserts freshly built artifacts under `key`, evicting the
    /// coldest entries past the cap. If a concurrent builder already
    /// installed this key, the resident artifacts win (and are
    /// returned) — winners recorded against them survive.
    fn insert(&self, key: ArtifactKey, artifacts: Arc<SearchArtifacts>) -> Arc<SearchArtifacts> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let stamp = inner.stamp();
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.used = stamp;
            return entry.artifacts.clone();
        }
        inner.index_blocks(key, &artifacts);
        inner.map.insert(
            key,
            StoreEntry {
                artifacts: artifacts.clone(),
                used: stamp,
            },
        );
        let evicted = inner.evict_past(self.cap);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        artifacts
    }

    /// The resident entry with the largest fingerprint overlap against
    /// `fingerprint` under an equal (library, configuration) context —
    /// the incremental donor. Ties break towards the most recently used
    /// entry.
    fn find_donor(&self, fingerprint: &[BlockKey], context: u64) -> Option<Arc<SearchArtifacts>> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut mult: HashMap<BlockKey, usize> = HashMap::new();
        for &bk in fingerprint {
            *mult.entry(bk).or_insert(0) += 1;
        }
        // Multiset overlap per candidate key:
        // Σ over block keys of min(new multiplicity, donor multiplicity).
        let mut overlap: HashMap<ArtifactKey, usize> = HashMap::new();
        for (bk, &m_new) in &mult {
            let Some(keys) = inner.blocks.get(bk) else {
                continue;
            };
            let mut per_key: HashMap<ArtifactKey, usize> = HashMap::new();
            for &k in keys {
                *per_key.entry(k).or_insert(0) += 1;
            }
            for (k, m_donor) in per_key {
                *overlap.entry(k).or_insert(0) += m_new.min(m_donor);
            }
        }
        overlap
            .into_iter()
            .filter_map(|(k, n)| inner.map.get(&k).map(|e| (n, e)))
            .filter(|&(n, e)| n > 0 && e.artifacts.context == context)
            .max_by_key(|&(n, e)| (n, e.used))
            .map(|(_, e)| e.artifacts.clone())
    }

    /// The store's one entry point: a lookup by [`ArtifactKey`]
    /// (counting a hit or a miss and refreshing the LRU order), falling
    /// back to a build and an insert. The key and the per-block
    /// fingerprint are hashed once, for the lookup and the donor
    /// choice, and the build reuses them. Building runs outside the
    /// store lock, so a slow build never blocks other keys. A miss first
    /// tries an incremental diff: when a resident entry under the same
    /// (library, configuration) context shares block fingerprints with
    /// the request, the new artifacts are built by cloning that
    /// donor's clean per-block state and re-deriving only the dirty
    /// blocks (see the module docs for the invalidation rules), and
    /// the donor's recorded winners are re-evaluated under the new
    /// artifacts so the warm-reseed path survives the edit. Results
    /// are field-identical to a from-scratch build; the returned
    /// [`StoreOutcome`] carries the reuse telemetry.
    ///
    /// # Errors
    ///
    /// As [`SearchArtifacts::prepare`].
    pub fn get_or_build_incremental(
        &self,
        bsbs: &BsbArray,
        lib: &HwLibrary,
        restrictions: &Restrictions,
        config: &PaceConfig,
    ) -> Result<(Arc<SearchArtifacts>, StoreOutcome), PaceError> {
        let key = ArtifactKey::of(bsbs, lib, restrictions, config);
        if let Some(artifacts) = self.get(key) {
            return Ok((
                artifacts,
                StoreOutcome {
                    hit: true,
                    ..StoreOutcome::default()
                },
            ));
        }
        let fingerprint = block_keys(bsbs, lib, restrictions);
        let donor = self.find_donor(&fingerprint, context_of(lib, config));
        let (mut built, reused) = SearchArtifacts::build(
            bsbs,
            lib,
            restrictions,
            config,
            key,
            fingerprint,
            donor.as_deref(),
        )?;
        // Store-resident: served lookups count on this store's
        // `front_hits`, and searches record answers and staircases.
        built.store_front_hits = Some(self.front_hits.clone());
        let Some(donor) = donor else {
            // Nothing to diff against: a from-scratch build.
            return Ok((self.insert(key, Arc::new(built)), StoreOutcome::default()));
        };
        // Carry the donor's winners forward by re-evaluation: a
        // re-evaluated seed is a real point of the new space with its
        // true DP time, so the strict-only reseed stays sound.
        let mut scratch = DpScratch::new();
        let donor_winners = donor
            .winners
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        for (budget_gates, seed) in donor_winners {
            if let Some(seed) = reevaluate_winner(
                bsbs,
                lib,
                config,
                &donor,
                &built,
                seed,
                budget_gates,
                &mut scratch,
            ) {
                keep_recent(&built.winners, budget_gates, seed);
            }
        }
        let rederived = bsbs.len() as u64 - reused;
        self.incremental.fetch_add(1, Ordering::Relaxed);
        self.reused.fetch_add(reused, Ordering::Relaxed);
        self.rederived.fetch_add(rederived, Ordering::Relaxed);
        Ok((
            self.insert(key, Arc::new(built)),
            StoreOutcome {
                hit: false,
                incremental: true,
                blocks_reused: reused,
                blocks_rederived: rederived,
            },
        ))
    }

    /// The resident artifacts under `key`, without counting a lookup
    /// or refreshing the LRU order.
    fn resident(&self, key: ArtifactKey) -> Option<Arc<SearchArtifacts>> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.map.get(&key).map(|e| e.artifacts.clone())
    }

    /// The winners recorded against `key` that are sound seeds for a
    /// run at `budget`: exactly those recorded at a budget no larger
    /// than the current one (their points are still area-feasible).
    pub fn warm_seeds(&self, key: ArtifactKey, budget: Area) -> Vec<WarmSeed> {
        let Some(artifacts) = self.resident(key) else {
            return Vec::new();
        };
        let winners = artifacts
            .winners
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        winners
            .iter()
            .filter(|&&(b, _)| b <= budget.gates())
            .map(|&(_, seed)| seed)
            .collect()
    }

    /// Records the winner of a finished run on the resident artifacts,
    /// replacing any earlier winner at the same budget. A no-op if
    /// `key` was evicted in the meantime.
    pub fn record_winner(&self, key: ArtifactKey, budget: Area, seed: WarmSeed) {
        if let Some(artifacts) = self.resident(key) {
            keep_recent(&artifacts.winners, budget.gates(), seed);
        }
    }

    /// A snapshot of the store's counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            cap: self.cap,
            incremental: self.incremental.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            rederived: self.rederived.load(Ordering::Relaxed),
            front_hits: self.front_hits.load(Ordering::Relaxed),
        }
    }
}

/// Re-evaluates one recorded winner under freshly (incrementally)
/// built artifacts: decode the odometer index under the donor's
/// dimensions, re-encode it under the new ones, and run the real DP at
/// the recorded budget. `None` drops the seed — the allocation no
/// longer fits the new space or budget, which is always safe (a seed
/// is an optimisation, never a requirement).
#[allow(clippy::too_many_arguments)]
fn reevaluate_winner(
    bsbs: &BsbArray,
    lib: &HwLibrary,
    config: &PaceConfig,
    donor: &SearchArtifacts,
    new: &SearchArtifacts,
    seed: WarmSeed,
    budget_gates: u64,
    scratch: &mut DpScratch,
) -> Option<WarmSeed> {
    let alloc = decode_allocation(&donor.dims, seed.index)?;
    let index = encode_allocation(&new.dims, &alloc)?;
    let budget = Area::new(budget_gates);
    let partition =
        crate::dp::partition_with_artifacts(bsbs, lib, &alloc, budget, config, scratch, new)
            .ok()?;
    Some(WarmSeed {
        time: partition.total_time.count(),
        gates: alloc.area(lib).gates(),
        index,
    })
}

/// Odometer index → allocation over `dims` (first dimension least
/// significant). `None` if the index overruns the space.
fn decode_allocation(dims: &[(FuId, u32)], index: u128) -> Option<RMap> {
    let mut rest = index;
    let mut pairs = Vec::with_capacity(dims.len());
    for &(fu, cap) in dims {
        let radix = u128::from(cap) + 1;
        let count = (rest % radix) as u32;
        rest /= radix;
        if count > 0 {
            pairs.push((fu, count));
        }
    }
    (rest == 0).then(|| pairs.into_iter().collect())
}

/// Allocation → odometer index over `dims` — the inverse of
/// [`decode_allocation`]. `None` if the allocation uses a kind outside
/// the dimensions or exceeds a cap.
fn encode_allocation(dims: &[(FuId, u32)], alloc: &RMap) -> Option<u128> {
    let covered: u64 = dims.iter().map(|&(fu, _)| u64::from(alloc.count(fu))).sum();
    let total: u64 = alloc.iter().map(|(_, c)| u64::from(c)).sum();
    if covered != total {
        return None; // a kind outside the new dimensions
    }
    let mut index = 0u128;
    let mut mul = 1u128;
    for &(fu, cap) in dims {
        let count = alloc.count(fu);
        if count > cap {
            return None;
        }
        index += u128::from(count) * mul;
        mul = mul.checked_mul(u128::from(cap) + 1)?;
    }
    Some(index)
}

impl fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lycos_ir::{Bsb, BsbId, BsbOrigin, Dfg, OpKind};
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicBool;

    fn app(ops: usize) -> BsbArray {
        let mut dfg = Dfg::new();
        for _ in 0..ops {
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

    fn inputs(ops: usize) -> (BsbArray, HwLibrary, PaceConfig) {
        (app(ops), HwLibrary::standard(), PaceConfig::standard())
    }

    #[test]
    fn key_is_stable_for_identical_content() {
        let (bsbs, lib, config) = inputs(3);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let a = ArtifactKey::of(&bsbs, &lib, &restr, &config);
        let b = ArtifactKey::of(&bsbs.clone(), &lib.clone(), &restr.clone(), &config.clone());
        assert_eq!(a, b);
    }

    #[test]
    fn key_serialization_is_a_pinned_contract() {
        // The explicit byte serialization IS the store identity: this
        // golden value only moves when the projection deliberately
        // changes, never because a derived `Debug` format drifted.
        let (bsbs, lib, config) = inputs(3);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let key = ArtifactKey::of(&bsbs, &lib, &restr, &config);
        assert_eq!(key.value(), 0xf48d_e72c_b497_c37e, "golden artifact key");
        let block = BlockKey::of(&bsbs.as_slice()[0], &lib, &restr);
        assert_eq!(block.value(), 0x6664_fc16_8f0c_1fd3, "golden block key");
    }

    #[test]
    fn length_prefixes_keep_adjacent_strings_apart() {
        // "ab" + "c" and "a" + "bc" must hash differently — the
        // classic concatenation collision the prefixes exist for.
        let mut h1 = Fnv::new();
        h1.str("ab");
        h1.str("c");
        let mut h2 = Fnv::new();
        h2.str("a");
        h2.str("bc");
        assert_ne!(h1.0, h2.0);
    }

    #[test]
    fn key_separates_application_library_and_config() {
        let (bsbs, lib, config) = inputs(3);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let base = ArtifactKey::of(&bsbs, &lib, &restr, &config);
        // A different application.
        let other = app(4);
        let other_restr = Restrictions::from_asap(&other, &lib).unwrap();
        assert_ne!(base, ArtifactKey::of(&other, &lib, &other_restr, &config));
        // A different configuration knob.
        let quantum = config.clone().with_quantum(8);
        assert_ne!(base, ArtifactKey::of(&bsbs, &lib, &restr, &quantum));
    }

    #[test]
    fn block_key_ignores_position_and_name_but_not_content() {
        let (bsbs, lib, config) = inputs(3);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let _ = config;
        let base = BlockKey::of(&bsbs.as_slice()[0], &lib, &restr);
        // Same content, different id and name: the key must not move,
        // or insert/delete shifts would dirty every sibling block.
        let mut renamed = bsbs.as_slice()[0].clone();
        renamed.id = BsbId(7);
        renamed.name = "elsewhere".into();
        assert_eq!(base, BlockKey::of(&renamed, &lib, &restr));
        // A profile edit is content.
        let mut hotter = bsbs.as_slice()[0].clone();
        hotter.profile += 1;
        assert_ne!(base, BlockKey::of(&hotter, &lib, &restr));
        // A cap change on a kind the block uses is content.
        let mut tighter = restr.clone();
        let mult = lib.fu_for(OpKind::Mul).unwrap();
        tighter.tighten(mult, restr.cap(mult).saturating_sub(1).max(1));
        if tighter.cap(mult) != restr.cap(mult) {
            assert_ne!(base, BlockKey::of(&bsbs.as_slice()[0], &lib, &tighter));
        }
    }

    /// Asserts `table` covers `bsbs` and prices every run exactly as
    /// [`crate::run_traffic`] does, one run at a time.
    fn assert_prices_every_run(table: &CommCosts, bsbs: &BsbArray, config: &PaceConfig) {
        assert_eq!(table.blocks(), bsbs.len());
        for j in 0..bsbs.len() {
            for k in j..bsbs.len() {
                let want = crate::run_traffic(bsbs, j, k).cost(&config.comm).count();
                assert_eq!(table.cost(j, k), want, "run [{j}, {k}]");
            }
        }
    }

    #[test]
    fn prepare_derives_dims_space_and_statics() {
        let (bsbs, lib, config) = inputs(3);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let artifacts = SearchArtifacts::prepare(&bsbs, &lib, &restr, &config).unwrap();
        assert_eq!(artifacts.dims(), search_space(&restr).as_slice());
        assert_eq!(artifacts.space_size(), space_size(artifacts.dims()));
        assert_eq!(artifacts.fingerprint().len(), bsbs.len());
        // The traffic table is full from the start.
        assert_prices_every_run(artifacts.comm(), &bsbs, &config);

        // Every caller of `build` covers every block: prepare, the
        // partition helper (empty fingerprint, no dimensions) and a
        // store diff build.
        let partition = SearchArtifacts::for_partition(&bsbs, &lib, &config).unwrap();
        assert!(partition.fingerprint().is_empty() && partition.dims().is_empty());
        let store = ArtifactStore::new(2);
        store
            .get_or_build_incremental(&bsbs, &lib, &restr, &config)
            .unwrap();
        let mut grown = bsbs.as_slice().to_vec();
        let mut extra = grown[0].clone();
        extra.id = BsbId(1);
        extra.profile += 1;
        grown.push(extra);
        let grown = BsbArray::from_bsbs("t", grown);
        let grown_restr = Restrictions::from_asap(&grown, &lib).unwrap();
        let (diffed, outcome) = store
            .get_or_build_incremental(&grown, &lib, &grown_restr, &config)
            .unwrap();
        assert!(outcome.incremental, "the first block is clean");
        for (built, blocks) in [(&artifacts, &bsbs), (&partition, &bsbs), (&*diffed, &grown)] {
            assert_eq!(built.block_count(), blocks.len());
            assert_eq!(built.comm().blocks(), blocks.len());
        }
    }

    #[test]
    fn prepare_prices_every_run_like_run_traffic() {
        // Blocks that share, rewrite and read back variables: the
        // one-pass table must equal the run-by-run pricing cell for
        // cell.
        let (lib, config) = (HwLibrary::standard(), PaceConfig::standard());
        let block = |i: u32, profile: u64, reads: &[&str], writes: &[&str]| Bsb {
            id: BsbId(i),
            name: format!("b{i}"),
            dfg: Dfg::new(),
            reads: reads.iter().map(|v| v.to_string()).collect(),
            writes: writes.iter().map(|v| v.to_string()).collect(),
            profile,
            origin: BsbOrigin::Body,
        };
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                block(0, 4, &["in"], &["c", "x"]),
                block(1, 40, &["c", "x"], &["x"]),
                block(2, 0, &["x"], &["y"]),
                block(3, 9, &[], &["x"]),
                block(4, 30, &["x", "y"], &[]),
            ],
        );
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let artifacts = SearchArtifacts::prepare(&bsbs, &lib, &restr, &config).unwrap();
        assert_prices_every_run(artifacts.comm(), &bsbs, &config);
    }

    #[test]
    fn a_tripped_stop_abandons_the_bound_build_uncached() {
        let (bsbs, lib, config) = inputs(3);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let artifacts = SearchArtifacts::prepare(&bsbs, &lib, &restr, &config).unwrap();
        let cancelled = StopSignal::never().with_cancel(Arc::new(AtomicBool::new(true)));
        let stopped = artifacts.bounds(&bsbs, &lib, &cancelled);
        assert!(
            stopped.unwrap().is_none(),
            "the build stops at its first poll"
        );
        assert!(
            artifacts.bounds.get().is_none(),
            "no partial table is cached"
        );
        // The next caller builds the full tables from scratch.
        let never = StopSignal::never();
        let built = artifacts
            .bounds(&bsbs, &lib, &never)
            .unwrap()
            .expect("a never-signal builds");
        let other = SearchArtifacts::prepare(&bsbs, &lib, &restr, &config).unwrap();
        let fresh = other.bounds(&bsbs, &lib, &never).unwrap().unwrap();
        assert_eq!(built.relaxed_bound(), fresh.relaxed_bound());
        assert_eq!(built.comm_floors(), fresh.comm_floors());
    }

    #[test]
    fn answers_evict_the_least_recently_used_past_the_cap() {
        let (bsbs, lib, config) = inputs(2);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let store = ArtifactStore::new(1);
        let (artifacts, _) = store
            .get_or_build_incremental(&bsbs, &lib, &restr, &config)
            .unwrap();
        let answer = crate::search_best(
            &bsbs,
            &lib,
            Area::new(8_000),
            &restr,
            &config,
            &crate::SearchOptions::sequential(),
        )
        .unwrap();
        // Each recording is tagged with its budget to tell them apart.
        let key = |budget: u64| (budget, None, true);
        let tagged = |budget: u64| SearchResult {
            best_index: u128::from(budget),
            ..answer.clone()
        };
        assert!(artifacts.answer(key(0)).is_none());
        for budget in 0..MAX_RECORDED as u64 {
            artifacts.keep_answer(key(budget), tagged(budget));
        }
        // Serving the oldest key makes it most recent, so the next
        // recording past the cap evicts the second oldest instead.
        assert_eq!(artifacts.answer(key(0)).unwrap().best_index, 0);
        artifacts.keep_answer(key(1_000), tagged(1_000));
        assert!(artifacts.answer(key(1)).is_none(), "coldest key evicted");
        assert!(artifacts.answer(key(0)).is_some(), "served key kept");
        assert_eq!(artifacts.answer(key(1_000)).unwrap().best_index, 1_000);
        assert_eq!(artifacts.answers.lock().unwrap().len(), MAX_RECORDED);
        // The limit and the bound are part of the key.
        assert!(artifacts.answer((0, Some(5), true)).is_none());
        assert!(artifacts.answer((0, None, false)).is_none());
        // One-shot artifacts record nothing.
        let one_shot = SearchArtifacts::prepare(&bsbs, &lib, &restr, &config).unwrap();
        one_shot.keep_answer(key(0), tagged(0));
        assert!(one_shot.answer(key(0)).is_none());
    }

    #[test]
    fn store_is_lru_with_counted_evictions() {
        let (bsbs, lib, config) = inputs(2);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let store = ArtifactStore::new(1);
        let key_a = ArtifactKey::of(&bsbs, &lib, &restr, &config);
        let other = app(5);
        let other_restr = Restrictions::from_asap(&other, &lib).unwrap();
        let key_b = ArtifactKey::of(&other, &lib, &other_restr, &config);

        let (a, outcome) = store
            .get_or_build_incremental(&bsbs, &lib, &restr, &config)
            .unwrap();
        assert!(!outcome.hit && !outcome.incremental);
        assert_eq!(a.key(), key_a);
        assert!(a.store_resident());
        let (again, outcome) = store
            .get_or_build_incremental(&bsbs, &lib, &restr, &config)
            .unwrap();
        assert!(outcome.hit);
        assert!(Arc::ptr_eq(&a, &again), "a hit shares the resident entry");
        // Store-resident artifacts count their served lookups on the
        // store.
        a.note_served();
        assert_eq!(store.stats().front_hits, 1);
        // A second application evicts the first at cap 1.
        let (b, outcome) = store
            .get_or_build_incremental(&other, &lib, &other_restr, &config)
            .unwrap();
        assert!(!outcome.hit);
        assert_eq!(b.key(), key_b);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 2, 1));
        assert_eq!((stats.entries, stats.cap), (1, 1));
        // The evicted key misses again — and its winners are gone.
        assert!(store.get(key_a).is_none());
        assert!(store.warm_seeds(key_a, Area::new(u64::MAX)).is_empty());
    }

    #[test]
    fn winners_filter_by_budget_and_replace_per_budget() {
        let (bsbs, lib, config) = inputs(2);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let store = ArtifactStore::new(2);
        let key = ArtifactKey::of(&bsbs, &lib, &restr, &config);
        store
            .get_or_build_incremental(&bsbs, &lib, &restr, &config)
            .unwrap();
        let seed = |t| WarmSeed {
            time: t,
            gates: 100,
            index: 7,
        };
        store.record_winner(key, Area::new(1_000), seed(50));
        store.record_winner(key, Area::new(4_000), seed(40));
        // Only the small-budget winner is sound for a 2 000-gate run.
        assert_eq!(store.warm_seeds(key, Area::new(2_000)), vec![seed(50)]);
        // A larger budget admits both.
        assert_eq!(store.warm_seeds(key, Area::new(4_000)).len(), 2);
        // Same budget replaces, never duplicates.
        store.record_winner(key, Area::new(1_000), seed(45));
        assert_eq!(store.warm_seeds(key, Area::new(1_000)), vec![seed(45)]);
    }

    #[test]
    fn allocation_codec_round_trips_and_rejects_out_of_space() {
        let lib = HwLibrary::standard();
        let mult = lib.fu_for(OpKind::Mul).unwrap();
        let add = lib.fu_for(OpKind::Add).unwrap();
        let dims = vec![(add, 3u32), (mult, 2u32)];
        for index in 0..space_size(&dims) {
            let alloc = decode_allocation(&dims, index).unwrap();
            assert_eq!(encode_allocation(&dims, &alloc), Some(index));
        }
        // Past the space: the quotient chain leaves a remainder.
        assert!(decode_allocation(&dims, space_size(&dims)).is_none());
        // A count over the cap, or a kind outside the dims, encodes to
        // nothing.
        let over: RMap = [(add, 4u32)].into_iter().collect();
        assert_eq!(encode_allocation(&dims, &over), None);
        let div = lib.fu_for(OpKind::Div).unwrap();
        let alien: RMap = [(div, 1u32)].into_iter().collect();
        assert_eq!(encode_allocation(&dims, &alien), None);
    }

    #[test]
    fn incremental_build_matches_prepare_and_counts_reuse() {
        // Two-block app; edit the second block's profile. The first
        // block is clean (statics cloned), the second re-derives, and
        // every derived field must equal a from-scratch prepare.
        let lib = HwLibrary::standard();
        let config = PaceConfig::standard();
        let block = |i: u32, ops: usize, profile: u64| {
            let mut dfg = Dfg::new();
            for _ in 0..ops {
                dfg.add_op(OpKind::Mul);
            }
            Bsb {
                id: BsbId(i),
                name: format!("b{i}"),
                dfg,
                reads: BTreeSet::new(),
                writes: BTreeSet::new(),
                profile,
                origin: BsbOrigin::Body,
            }
        };
        let original = BsbArray::from_bsbs("t", vec![block(0, 3, 400), block(1, 2, 100)]);
        let edited = BsbArray::from_bsbs("t", vec![block(0, 3, 400), block(1, 2, 150)]);
        let restr = Restrictions::from_asap(&original, &lib).unwrap();
        let edited_restr = Restrictions::from_asap(&edited, &lib).unwrap();

        let store = ArtifactStore::new(4);
        let (_, outcome) = store
            .get_or_build_incremental(&original, &lib, &restr, &config)
            .unwrap();
        assert!(!outcome.hit && !outcome.incremental, "empty store: scratch");
        let (incremental, outcome) = store
            .get_or_build_incremental(&edited, &lib, &edited_restr, &config)
            .unwrap();
        assert!(!outcome.hit && outcome.incremental);
        assert_eq!(
            (outcome.blocks_reused, outcome.blocks_rederived),
            (1, 1),
            "one clean, one dirty"
        );

        let scratch = SearchArtifacts::prepare(&edited, &lib, &edited_restr, &config).unwrap();
        assert_eq!(incremental.key(), scratch.key());
        assert_eq!(incremental.dims(), scratch.dims());
        assert_eq!(incremental.space_size(), scratch.space_size());
        assert_eq!(incremental.fingerprint(), scratch.fingerprint());
        for (a, b) in incremental.statics.iter().zip(scratch.statics.iter()) {
            assert_eq!(a.sw_time, b.sw_time);
            assert_eq!(a.need, b.need);
            assert_eq!(a.kinds, b.kinds);
            assert_eq!(a.movable, b.movable);
        }
        // The incremental traffic table is full and prices every run
        // exactly as a fresh fill does.
        assert_prices_every_run(incremental.comm(), &edited, &config);
        let stats = store.stats();
        assert_eq!(
            (stats.incremental, stats.reused, stats.rederived),
            (1, 1, 1)
        );
        // A repeat of the edited request is now a plain hit.
        let (_, outcome) = store
            .get_or_build_incremental(&edited, &lib, &edited_restr, &config)
            .unwrap();
        assert!(outcome.hit);
    }

    #[test]
    fn incremental_carries_winners_forward_by_reevaluation() {
        // Two blocks so the unedited one anchors the fingerprint
        // match — a donor is only discoverable through shared block
        // keys, so an app whose every block changed has no donor.
        let (lib, config) = (HwLibrary::standard(), PaceConfig::standard());
        let block = |id: u32, ops: usize, profile: u64| {
            let mut dfg = Dfg::new();
            for _ in 0..ops {
                dfg.add_op(OpKind::Mul);
            }
            Bsb {
                id: BsbId(id),
                name: format!("b{id}"),
                dfg,
                reads: BTreeSet::new(),
                writes: BTreeSet::new(),
                profile,
                origin: BsbOrigin::Body,
            }
        };
        let bsbs = BsbArray::from_bsbs("t", vec![block(0, 3, 400), block(1, 2, 100)]);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let store = ArtifactStore::new(4);
        let (artifacts, _) = store
            .get_or_build_incremental(&bsbs, &lib, &restr, &config)
            .unwrap();
        // Record a real winner: the all-zero allocation (index 0) is
        // always a point of the space and always area-feasible.
        let budget = Area::new(10_000);
        store.record_winner(
            artifacts.key(),
            budget,
            WarmSeed {
                time: 0,
                gates: 0,
                index: 0,
            },
        );
        // Edit one block's profile; the carried winner must reappear
        // under the edited key with its true re-evaluated time.
        let edited = BsbArray::from_bsbs("t", vec![block(0, 3, 400), block(1, 2, 150)]);
        let edited_restr = Restrictions::from_asap(&edited, &lib).unwrap();
        let (edited_artifacts, outcome) = store
            .get_or_build_incremental(&edited, &lib, &edited_restr, &config)
            .unwrap();
        assert!(outcome.incremental);
        let seeds = store.warm_seeds(edited_artifacts.key(), budget);
        assert_eq!(seeds.len(), 1, "donor winner carried");
        assert_eq!(seeds[0].index, 0);
        let expected = crate::dp::partition_with_artifacts(
            &edited,
            &lib,
            &RMap::new(),
            budget,
            &config,
            &mut DpScratch::new(),
            &edited_artifacts,
        )
        .unwrap();
        assert_eq!(
            seeds[0].time,
            expected.total_time.count(),
            "re-evaluated, not copied"
        );
    }
}
