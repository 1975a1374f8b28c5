//! Content-addressed search artifacts and the cross-request store.
//!
//! Every engine in this crate needs the same per-application
//! precompute before it can evaluate a single candidate: the
//! allocation-independent per-block facts ([`bsb_statics`]), the
//! run-traffic memo ([`CommCosts`]), the search dimensions, and — under
//! branch-and-bound — the admissible bound tables ([`SearchBounds`]).
//! Historically each engine rebuilt all of that per call. This module
//! hoists the whole precompute behind one seam:
//!
//! * [`SearchArtifacts`] — everything derived from one
//!   (application, unit library, configuration) triple, built once by
//!   [`SearchArtifacts::prepare`] and consumed by
//!   [`crate::search_best_with`] / [`crate::search_pareto_with`] /
//!   [`crate::exhaustive_best_with`] / the partition helpers. Bound
//!   tables stay lazy (built on first bounded use), and the comm memo
//!   starts empty on the one-shot path — cold calls through the compat
//!   wrappers cost exactly what they always did.
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
//!   repeatedly. It also remembers each application's previous
//!   winners ([`WarmSeed`]) so a warm repeat can reseed the engine's
//!   shared incumbent and prune most of the space on arrival — while
//!   staying field-exact, because the shared-incumbent prune is
//!   strict-only (see [`crate::search_best_with`]).
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
//! * **Traffic memo** ([`CommCosts`]) prices runs over the whole block
//!   sequence — reused wholesale iff no block's I/O content
//!   (reads/writes/profile) changed and the block count is unchanged.
//!   A profile-only edit (read/write sets identical everywhere)
//!   carries every run the dirty profiles provably cannot move
//!   ([`CommCosts::carry_clean`]); any set change, insert or delete
//!   reprices from scratch.
//! * **Bound tables** ([`SearchBounds`]) are patchable only under
//!   identical search dimensions; a clean block's table is cloned iff
//!   its segmented communication floor is also unchanged, which
//!   transitively re-derives every block whose barrier segment the
//!   edit invalidated (see `SearchBounds::patched`).
//! * **Recorded winners** are re-evaluated point-wise under the new
//!   artifacts (decode the donor's odometer index, re-encode under the
//!   new dimensions, run the DP) — a re-evaluated seed is a real point
//!   with its true time, so the strict-only reseed stays sound.
//! * **Evaluation memos** depend on every block at once and carry over
//!   only when *zero* blocks were dirty (a pure rename edit).
//! * **Stored Pareto staircases** are never carried: they die with the
//!   entry, and an edited application builds its own.
//!
//! The hard contract — pinned by `incremental_prop.rs` in the
//! exploration crate — is that a search over incrementally built
//! artifacts is field-identical to one over a from-scratch build.

use crate::bounds::SearchBounds;
use crate::comm::CommCosts;
use crate::config::PaceConfig;
use crate::error::PaceError;
use crate::exhaustive::{search_space, space_size};
use crate::metrics::{block_statics, bsb_statics, metrics_from_statics, BsbStatics};
use crate::search::StoredFront;
use crate::stop::StopSignal;
use crate::{BsbMetrics, DpScratch};
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
const TAG_PARTITION: u8 = 0x05;
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
/// the exact inputs of the run-traffic memo. The donor's [`CommCosts`]
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

/// Fingerprint of one block's read/write *sets* alone — [`io_mark`]
/// minus the profile. When every positional set mark matches but some
/// I/O marks differ, the edit was profile-only and the traffic memo
/// can carry per-run instead of wholesale
/// ([`CommCosts::carry_clean`]).
fn rw_mark(bsb: &Bsb) -> u64 {
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

    /// Fingerprint for the restriction-free partition helpers: same
    /// scheme, with a fixed marker in the restrictions slot.
    fn of_partition(bsbs: &BsbArray, lib: &HwLibrary, config: &PaceConfig) -> Self {
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
        h.tag(TAG_PARTITION);
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
/// once per [`ArtifactKey`]: the per-block statics, the run-traffic
/// memo, the search dimensions and (lazily, on first bounded use) the
/// admissible bound tables.
///
/// Build one with [`SearchArtifacts::prepare`] and pass it to the
/// `*_with` engine entry points; or let the classic wrappers
/// ([`crate::search_best`] and friends) build a one-shot instance
/// internally — the results are identical either way.
pub struct SearchArtifacts {
    key: ArtifactKey,
    pub(crate) statics: Vec<BsbStatics>,
    /// The shared run-traffic memo. Empty on a one-shot `prepare` (the
    /// cold path keeps its lazy per-worker fill); eagerly filled by
    /// [`SearchArtifacts::warm_comm`] on the store path, where it
    /// amortises across requests. Workers clone it, so a warmed table
    /// makes every traffic probe a pure lookup.
    pub(crate) comm: CommCosts,
    dims: Vec<(FuId, u32)>,
    space: u128,
    /// Per-block content keys, in block order — what the store's
    /// incremental diff path aligns an edited application against.
    /// Empty on the partition-helper path (never store-diffed).
    fingerprint: Vec<BlockKey>,
    /// Per-block I/O content marks (reads/writes/profile) — the
    /// wholesale-reuse condition for the traffic memo.
    io_marks: Vec<u64>,
    /// Per-block read/write *set* marks (no profile). Equal set marks
    /// with unequal I/O marks identify a profile-only edit, under
    /// which the traffic memo carries per-run.
    rw_marks: Vec<u64>,
    /// Fingerprint of the (library, configuration) context the
    /// per-block keys are relative to.
    context: u64,
    // The comm-floored bound tables, built on first use so unbounded
    // sweeps never pay for tables they cannot read.
    bounds: OnceLock<SearchBounds>,
    // Cross-request evaluation memos, one per total budget (MRU-last,
    // capped): candidate odometer index → hybrid time (or, for a
    // candidate the controller-budget relaxation pruned, its lower
    // bound), recorded by finished sweeps and served back to later
    // warm runs over the same artifacts. The DP and the relaxation are
    // deterministic per (artifacts, budget, candidate), so a served
    // value is bit-identical to a recompute.
    eval_memos: Mutex<Vec<(u64, Arc<EvalMemo>)>>,
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
    // the memo and staircase bookkeeping nobody could ever read back.
    store_front_hits: Option<Arc<AtomicU64>>,
}

/// One cross-request evaluation-memo entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MemoEval {
    /// The candidate's DP time under the memo's budget.
    Exact(u64),
    /// The controller-budget relaxation's lower bound on that time, at
    /// the candidate's full controller budget: recorded for a
    /// candidate the relaxation pruned, so its DP never ran.
    Bound(u64),
}

impl MemoEval {
    /// The recorded time, or lower bound on it.
    pub(crate) fn time(self) -> u64 {
        match self {
            MemoEval::Exact(time) | MemoEval::Bound(time) => time,
        }
    }

    /// One word: the time shifted left, the low bit set for a bound.
    /// `None` for a time of 2⁶³ cycles or more, which is simply not
    /// memoised.
    fn pack(self) -> Option<u64> {
        let (time, bound) = match self {
            MemoEval::Exact(time) => (time, 0),
            MemoEval::Bound(time) => (time, 1),
        };
        (time < 1 << 63).then_some((time << 1) | bound)
    }

    fn unpack(word: u64) -> Self {
        if word & 1 == 1 {
            MemoEval::Bound(word >> 1)
        } else {
            MemoEval::Exact(word >> 1)
        }
    }
}

/// One budget's evaluation memo: `(odometer index, packed evaluation)`
/// pairs sorted by index — 16 bytes an entry and no hash-table slack,
/// looked up by binary search. A candidate whose index or time does
/// not fit a word is simply not memoised.
#[derive(Clone, Debug, Default)]
pub(crate) struct EvalMemo(Vec<(u64, u64)>);

impl EvalMemo {
    /// The evaluation recorded for the candidate at `index`, if any.
    pub(crate) fn get(&self, index: u128) -> Option<MemoEval> {
        let index = u64::try_from(index).ok()?;
        let at = self.0.binary_search_by_key(&index, |&(i, _)| i).ok()?;
        Some(MemoEval::unpack(self.0[at].1))
    }

    /// This memo with `pairs` folded in. An exact time replaces a bound
    /// and is never replaced by one; equal kinds must carry equal
    /// values (the DP and the relaxation are deterministic), asserted
    /// in debug builds. New candidates stop at [`MAX_EVAL_ENTRIES`].
    fn merged(&self, pairs: Vec<(u128, MemoEval)>) -> EvalMemo {
        let mut fresh: Vec<(u64, u64)> = pairs
            .into_iter()
            .filter_map(|(index, eval)| Some((u64::try_from(index).ok()?, eval.pack()?)))
            .collect();
        // Exact words (low bit clear) sort first, so dedup keeps them.
        fresh.sort_unstable_by_key(|&(index, word)| (index, word & 1));
        fresh.dedup_by_key(|&mut (index, _)| index);
        let mut room = MAX_EVAL_ENTRIES.saturating_sub(self.0.len());
        let mut out = Vec::with_capacity(self.0.len() + fresh.len().min(room));
        let mut old = self.0.iter().copied().peekable();
        for (index, word) in fresh {
            while let Some(&kept) = old.peek().filter(|&&(i, _)| i < index) {
                out.push(kept);
                old.next();
            }
            match old.peek() {
                Some(&(i, kept)) if i == index => {
                    let merged = match (kept & 1, word & 1) {
                        (1, 0) => word,
                        (0, 1) => kept,
                        _ => {
                            debug_assert_eq!(kept, word, "eval memo disagrees at index {index}");
                            kept
                        }
                    };
                    out.push((index, merged));
                    old.next();
                }
                _ if room > 0 => {
                    room -= 1;
                    out.push((index, word));
                }
                _ => {}
            }
        }
        out.extend(old);
        EvalMemo(out)
    }
}

/// Budgets an artifact set keeps evaluation memos for.
const MAX_EVAL_MEMOS: usize = 8;

/// Entries one evaluation memo may hold, exact and bound entries
/// together — a few MB worst case; a partial memo stays sound
/// (missing indices just recompute).
const MAX_EVAL_ENTRIES: usize = 1 << 18;

impl SearchArtifacts {
    /// Builds the artifacts for a full allocation-space search: block
    /// statics, an (empty) traffic memo, and the search dimensions
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
        let dims = search_space(restrictions);
        let space = space_size(&dims);
        Ok(SearchArtifacts {
            key: ArtifactKey::of(bsbs, lib, restrictions, config),
            statics: bsb_statics(bsbs, lib, config)?,
            comm: CommCosts::new(bsbs.len()),
            dims,
            space,
            fingerprint: bsbs
                .iter()
                .map(|b| BlockKey::of(b, lib, restrictions))
                .collect(),
            io_marks: bsbs.iter().map(io_mark).collect(),
            rw_marks: bsbs.iter().map(rw_mark).collect(),
            context: context_of(lib, config),
            bounds: OnceLock::new(),
            eval_memos: Mutex::new(Vec::new()),
            front: Mutex::new(None),
            store_front_hits: None,
        })
    }

    /// [`SearchArtifacts::prepare`] against a resident donor: clean
    /// blocks (matching [`BlockKey`]s, under an equal context) clone
    /// the donor's per-block state instead of re-deriving it — see the
    /// module docs for the full clean/dirty invalidation rules.
    /// Returns the artifacts plus `(blocks reused, blocks re-derived)`.
    ///
    /// The caller guarantees `donor.context` equals this request's
    /// context (the store's donor selection filters on it); everything
    /// else — block alignment, dimension equality, floor equality — is
    /// checked here.
    ///
    /// # Errors
    ///
    /// As [`SearchArtifacts::prepare`].
    fn prepare_incremental(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        restrictions: &Restrictions,
        config: &PaceConfig,
        donor: &SearchArtifacts,
    ) -> Result<(Self, u64, u64), PaceError> {
        let dims = search_space(restrictions);
        let space = space_size(&dims);
        let fingerprint: Vec<BlockKey> = bsbs
            .iter()
            .map(|b| BlockKey::of(b, lib, restrictions))
            .collect();
        let io_marks: Vec<u64> = bsbs.iter().map(io_mark).collect();
        let rw_marks: Vec<u64> = bsbs.iter().map(rw_mark).collect();
        let n = bsbs.len();

        // Align new blocks with donor blocks by key — a multiset
        // matching (first unconsumed donor occurrence wins), so
        // insert/delete shifts still pair every surviving block.
        let mut donor_at: HashMap<BlockKey, VecDeque<usize>> = HashMap::new();
        for (j, &bk) in donor.fingerprint.iter().enumerate() {
            donor_at.entry(bk).or_default().push_back(j);
        }
        let matched: Vec<Option<usize>> = fingerprint
            .iter()
            .map(|bk| donor_at.get_mut(bk).and_then(VecDeque::pop_front))
            .collect();

        // Statics are per-block pure functions of (content, library,
        // configuration): clean blocks clone, dirty blocks re-derive.
        let mut reused = 0u64;
        let mut statics = Vec::with_capacity(n);
        for (bsb, m) in bsbs.iter().zip(&matched) {
            match m {
                Some(j) => {
                    reused += 1;
                    statics.push(donor.statics[*j].clone());
                }
                None => statics.push(block_statics(bsb, lib, config)?),
            }
        }
        let rederived = n as u64 - reused;

        // The traffic memo prices runs over the whole block sequence,
        // so it is never patched block-wise. Three tiers instead:
        // identical positional I/O marks reuse it wholesale; equal
        // read/write-set marks (a profile-only edit) carry every run
        // the dirty profiles provably cannot move; anything else —
        // changed sets, insert, delete — reprices from scratch.
        let mut comm = if n == donor.io_marks.len() && io_marks == donor.io_marks {
            donor.comm.clone()
        } else if n == donor.rw_marks.len() && rw_marks == donor.rw_marks {
            let dirty: Vec<usize> = (0..n)
                .filter(|&i| io_marks[i] != donor.io_marks[i])
                .collect();
            donor.comm.carry_clean(bsbs, &dirty)
        } else {
            CommCosts::new(n)
        };
        // Warm eagerly either way (pure lookups on the cloned table) —
        // store-resident artifacts always carry a full table.
        for j in 0..n {
            for k in j..n {
                comm.cost(bsbs, &config.comm, j, k);
            }
        }

        // Evaluation memos depend on every block and the dimensions at
        // once; only a zero-dirty edit (pure rename) may carry them.
        let eval_memos = if rederived == 0 && n == donor.statics.len() && dims == donor.dims {
            donor
                .eval_memos
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        } else {
            Vec::new()
        };

        let artifacts = SearchArtifacts {
            key: ArtifactKey::of(bsbs, lib, restrictions, config),
            statics,
            comm,
            dims,
            space,
            fingerprint,
            io_marks,
            rw_marks,
            context: donor.context,
            bounds: OnceLock::new(),
            eval_memos: Mutex::new(eval_memos),
            front: Mutex::new(None),
            store_front_hits: None,
        };

        // Bound tables are patchable only under identical dimensions
        // (positions and radices bake the dimension list in); within
        // that, `patched` clones exactly the blocks whose content AND
        // segmented comm floor both survived the edit.
        if artifacts.dims == donor.dims {
            if let Some(donor_bounds) = donor.bounds.get() {
                let mut memo = artifacts.comm.clone();
                let patched = SearchBounds::patched(
                    donor_bounds,
                    &matched,
                    bsbs,
                    lib,
                    &artifacts.dims,
                    &artifacts.statics,
                    &config.comm,
                    &mut memo,
                )?;
                let _ = artifacts.bounds.set(patched);
            }
        }
        Ok((artifacts, reused, rederived))
    }

    /// Builds the artifacts for a single-allocation partition
    /// evaluation (no search dimensions) — the seam the
    /// [`crate::partition`] / [`crate::greedy_partition`] helper paths
    /// route through instead of hand-building their own memos.
    ///
    /// # Errors
    ///
    /// [`PaceError::Hw`] if an operation kind has no default unit.
    pub fn for_partition(
        bsbs: &BsbArray,
        lib: &HwLibrary,
        config: &PaceConfig,
    ) -> Result<Self, PaceError> {
        Ok(SearchArtifacts {
            key: ArtifactKey::of_partition(bsbs, lib, config),
            statics: bsb_statics(bsbs, lib, config)?,
            comm: CommCosts::new(bsbs.len()),
            dims: Vec::new(),
            space: 1,
            // Partition-path artifacts never enter the store's diff
            // path; an empty fingerprint keeps them inert as donors.
            fingerprint: Vec::new(),
            io_marks: Vec::new(),
            rw_marks: Vec::new(),
            context: 0,
            bounds: OnceLock::new(),
            eval_memos: Mutex::new(Vec::new()),
            front: Mutex::new(None),
            store_front_hits: None,
        })
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
    /// [`ArtifactStore`] (set by [`ArtifactStore::get_or_build`]).
    /// The engines consult this before doing evaluation-memo and
    /// staircase bookkeeping: on one-shot artifacts nothing could ever
    /// read a recording back, so the sweep skips it entirely.
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

    /// Counts one answer served from the stored staircase on the
    /// owning store's [`StoreStats::front_hits`].
    pub(crate) fn note_front_hit(&self) {
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

    /// Eagerly fills the run-traffic memo — every `[j..=k]` run of the
    /// application. One-shot searches skip this (a lazy per-worker
    /// fill is cheaper for a single sweep); the store path calls it
    /// once so every later request starts from a fully known table.
    pub fn warm_comm(&mut self, bsbs: &BsbArray, config: &PaceConfig) {
        let n = self.statics.len();
        for j in 0..n {
            for k in j..n {
                self.comm.cost(bsbs, &config.comm, j, k);
            }
        }
    }

    /// A private clone of the traffic memo for one worker — warmed if
    /// the artifacts were, empty (lazy) otherwise.
    pub(crate) fn comm_clone(&self) -> CommCosts {
        self.comm.clone()
    }

    /// Per-block metrics under `allocation`, computed from the cached
    /// statics — what [`crate::compute_metrics`] computes, minus the
    /// per-call statics derivation.
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
        metrics_from_statics(bsbs, lib, &self.statics, allocation, config)
    }

    /// The admissible bound tables, with the communication floor
    /// folded in, built on first use and shared afterwards — seeded
    /// from this artifact set's traffic memo. The build polls `stop`
    /// between blocks; `Ok(None)` means it tripped, and nothing was
    /// cached (the next caller builds from scratch).
    ///
    /// # Errors
    ///
    /// [`PaceError::Hw`] from the per-block projection enumeration.
    pub(crate) fn bounds_for(
        &self,
        bsbs: &BsbArray,
        lib: &HwLibrary,
        config: &PaceConfig,
        stop: &StopSignal,
    ) -> Result<Option<&SearchBounds>, PaceError> {
        if let Some(bounds) = self.bounds.get() {
            return Ok(Some(bounds));
        }
        let mut memo = self.comm.clone();
        let Some(built) = SearchBounds::from_statics(
            bsbs,
            lib,
            &self.dims,
            &self.statics,
            Some(&config.comm),
            &mut memo,
            stop,
        )?
        else {
            return Ok(None);
        };
        // A concurrent builder may have won the race; either value is
        // identical, `get_or_init` keeps exactly one.
        Ok(Some(self.bounds.get_or_init(|| built)))
    }

    /// The evaluation memo recorded under `budget_gates`, if any —
    /// served to warm runs so non-improving candidates skip the DP
    /// (and the metrics refresh) outright.
    pub(crate) fn eval_memo(&self, budget_gates: u64) -> Option<Arc<EvalMemo>> {
        let mut memos = self
            .eval_memos
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let pos = memos.iter().position(|(b, _)| *b == budget_gates)?;
        let entry = memos.remove(pos);
        let memo = entry.1.clone();
        memos.push(entry); // MRU-last
        Some(memo)
    }

    /// Folds a finished run's `(index, evaluation)` pairs into the
    /// memo for `budget_gates` ([`EvalMemo::merged`]), evicting the
    /// coldest budget past the cap. Concurrent recorders merge.
    pub(crate) fn record_evals(&self, budget_gates: u64, pairs: Vec<(u128, MemoEval)>) {
        if pairs.is_empty() {
            return;
        }
        let mut memos = self
            .eval_memos
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let merged = match memos.iter().position(|(b, _)| *b == budget_gates) {
            Some(pos) => memos.remove(pos).1.merged(pairs),
            None => EvalMemo::default().merged(pairs),
        };
        let entry = (budget_gates, Arc::new(merged));
        memos.push(entry);
        while memos.len() > MAX_EVAL_MEMOS {
            memos.remove(0);
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

/// A previous winner of [`crate::search_best_with`] over the same
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
    /// Searches answered from a stored Pareto staircase instead of a
    /// sweep ([`crate::SearchStats::served`]).
    pub front_hits: u64,
}

/// One resident application: its artifacts plus the winners recorded
/// against it (seed material for warm restarts). Winners die with the
/// entry on eviction.
struct StoreEntry {
    artifacts: Arc<SearchArtifacts>,
    /// `(budget gates, winner)` per budget searched so far.
    winners: Vec<(u64, WarmSeed)>,
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

/// Most winners one entry remembers — enough for a realistic budget
/// sweep, bounded so a store entry cannot grow without limit.
const MAX_WINNERS: usize = 32;

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

/// A donor picked for an incremental rebuild: the resident artifacts
/// plus a snapshot of their recorded per-budget winners.
type Donor = (Arc<SearchArtifacts>, Vec<(u64, WarmSeed)>);

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
    pub fn get(&self, key: ArtifactKey) -> Option<Arc<SearchArtifacts>> {
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
    pub fn insert(
        &self,
        key: ArtifactKey,
        artifacts: Arc<SearchArtifacts>,
    ) -> Arc<SearchArtifacts> {
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
                winners: Vec::new(),
                used: stamp,
            },
        );
        let evicted = inner.evict_past(self.cap);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        artifacts
    }

    /// [`ArtifactStore::get`] falling back to `build` +
    /// [`ArtifactStore::insert`]. Returns the shared artifacts and
    /// whether the lookup was a hit. Building runs outside the store
    /// lock, so a slow build never blocks other keys.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn get_or_build<F>(
        &self,
        key: ArtifactKey,
        build: F,
    ) -> Result<(Arc<SearchArtifacts>, bool), PaceError>
    where
        F: FnOnce() -> Result<SearchArtifacts, PaceError>,
    {
        if let Some(artifacts) = self.get(key) {
            return Ok((artifacts, true));
        }
        let mut built = build()?;
        self.adopt(&mut built);
        let built = Arc::new(built);
        Ok((self.insert(key, built), false))
    }

    /// Marks freshly built artifacts as store-resident: their served
    /// lookups count on this store's [`StoreStats::front_hits`].
    fn adopt(&self, built: &mut SearchArtifacts) {
        built.store_front_hits = Some(self.front_hits.clone());
    }

    /// The resident entry with the largest fingerprint overlap against
    /// `fingerprint` under an equal (library, configuration) context —
    /// the incremental donor — along with a snapshot of its recorded
    /// winners. Ties break towards the most recently used entry.
    fn find_donor(&self, fingerprint: &[BlockKey], context: u64) -> Option<Donor> {
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
            .map(|(_, e)| (e.artifacts.clone(), e.winners.clone()))
    }

    /// [`ArtifactStore::get_or_build`] with the miss path upgraded to
    /// an incremental diff: when a resident entry under the same
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
        let context = context_of(lib, config);
        let fingerprint: Vec<BlockKey> = bsbs
            .iter()
            .map(|b| BlockKey::of(b, lib, restrictions))
            .collect();
        let Some((donor, donor_winners)) = self.find_donor(&fingerprint, context) else {
            // Nothing to diff against: plain from-scratch build, warmed
            // as the non-incremental store path would.
            let mut built = SearchArtifacts::prepare(bsbs, lib, restrictions, config)?;
            built.warm_comm(bsbs, config);
            self.adopt(&mut built);
            return Ok((self.insert(key, Arc::new(built)), StoreOutcome::default()));
        };
        let (mut built, reused, rederived) =
            SearchArtifacts::prepare_incremental(bsbs, lib, restrictions, config, &donor)?;
        self.adopt(&mut built);
        let artifacts = self.insert(key, Arc::new(built));
        // Carry the donor's winners forward by re-evaluation: a
        // re-evaluated seed is a real point of the new space with its
        // true DP time, so the strict-only reseed stays sound.
        let mut scratch = DpScratch::new();
        for (budget_gates, seed) in donor_winners {
            if let Some(seed) = reevaluate_winner(
                bsbs,
                lib,
                config,
                &donor,
                &artifacts,
                seed,
                budget_gates,
                &mut scratch,
            ) {
                self.record_winner(key, Area::new(budget_gates), seed);
            }
        }
        self.incremental.fetch_add(1, Ordering::Relaxed);
        self.reused.fetch_add(reused, Ordering::Relaxed);
        self.rederived.fetch_add(rederived, Ordering::Relaxed);
        Ok((
            artifacts,
            StoreOutcome {
                hit: false,
                incremental: true,
                blocks_reused: reused,
                blocks_rederived: rederived,
            },
        ))
    }

    /// The winners recorded against `key` that are sound seeds for a
    /// run at `budget`: exactly those recorded at a budget no larger
    /// than the current one (their points are still area-feasible).
    pub fn warm_seeds(&self, key: ArtifactKey, budget: Area) -> Vec<WarmSeed> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .map
            .get(&key)
            .map(|e| {
                e.winners
                    .iter()
                    .filter(|&&(b, _)| b <= budget.gates())
                    .map(|&(_, seed)| seed)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Records the winner of a finished run, replacing any earlier
    /// winner at the same budget. A no-op if `key` was evicted in the
    /// meantime.
    pub fn record_winner(&self, key: ArtifactKey, budget: Area, seed: WarmSeed) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(entry) = inner.map.get_mut(&key) else {
            return;
        };
        if let Some(slot) = entry.winners.iter_mut().find(|(b, _)| *b == budget.gates()) {
            slot.1 = seed;
            return;
        }
        if entry.winners.len() >= MAX_WINNERS {
            entry.winners.remove(0);
        }
        entry.winners.push((budget.gates(), seed));
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
        // The partition-path fingerprint never collides with the
        // search-path one.
        assert_ne!(base, ArtifactKey::of_partition(&bsbs, &lib, &config));
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

    #[test]
    fn prepare_derives_dims_space_and_statics() {
        let (bsbs, lib, config) = inputs(3);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let artifacts = SearchArtifacts::prepare(&bsbs, &lib, &restr, &config).unwrap();
        assert_eq!(artifacts.dims(), search_space(&restr).as_slice());
        assert_eq!(artifacts.space_size(), space_size(artifacts.dims()));
        assert_eq!(artifacts.block_count(), bsbs.len());
        assert_eq!(artifacts.fingerprint().len(), bsbs.len());
        // The one-shot path leaves the traffic memo lazy.
        assert_eq!(artifacts.comm_clone(), CommCosts::new(bsbs.len()));
    }

    #[test]
    fn warm_comm_fills_the_whole_table() {
        let (bsbs, lib, config) = inputs(2);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let mut artifacts = SearchArtifacts::prepare(&bsbs, &lib, &restr, &config).unwrap();
        artifacts.warm_comm(&bsbs, &config);
        let mut warmed = artifacts.comm_clone();
        let mut fresh = CommCosts::new(bsbs.len());
        // A warmed clone answers without deriving anything new: its
        // memo already equals a fully filled fresh table.
        for j in 0..bsbs.len() {
            for k in j..bsbs.len() {
                fresh.cost(&bsbs, &config.comm, j, k);
            }
        }
        for j in 0..bsbs.len() {
            for k in j..bsbs.len() {
                assert_eq!(
                    warmed.cost(&bsbs, &config.comm, j, k),
                    fresh.cost(&bsbs, &config.comm, j, k)
                );
            }
        }
    }

    #[test]
    fn a_tripped_stop_abandons_the_bound_build_uncached() {
        let (bsbs, lib, config) = inputs(3);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let artifacts = SearchArtifacts::prepare(&bsbs, &lib, &restr, &config).unwrap();
        let cancelled = StopSignal::never().with_cancel(Arc::new(AtomicBool::new(true)));
        let stopped = artifacts.bounds_for(&bsbs, &lib, &config, &cancelled);
        assert!(
            stopped.unwrap().is_none(),
            "the build stops at its first poll"
        );
        assert!(
            artifacts.bounds.get().is_none(),
            "no partial table is cached"
        );
        // The next caller builds the full tables from scratch.
        let built = artifacts
            .bounds_for(&bsbs, &lib, &config, &StopSignal::never())
            .unwrap()
            .expect("a never-signal builds");
        let fresh = SearchBounds::with_comm_floor(&bsbs, &lib, artifacts.dims(), &config).unwrap();
        assert_eq!(built.relaxed_bound(), fresh.relaxed_bound());
        assert_eq!(built.comm_floors(), fresh.comm_floors());
    }

    #[test]
    fn eval_memos_merge_per_budget_and_evict_the_coldest() {
        let (bsbs, lib, config) = inputs(2);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let artifacts = SearchArtifacts::prepare(&bsbs, &lib, &restr, &config).unwrap();
        assert!(artifacts.eval_memo(100).is_none());

        use super::MemoEval::{Bound, Exact};
        // Recordings under one budget merge (keep-first on equal
        // keys, an exact time replacing a bound but never the other
        // way round); other budgets stay isolated.
        artifacts.record_evals(100, vec![(0, Exact(7)), (1, Exact(9)), (3, Bound(5))]);
        artifacts.record_evals(100, vec![(1, Exact(9)), (2, Exact(4)), (3, Exact(6))]);
        artifacts.record_evals(100, vec![(2, Bound(3)), (4, Bound(8))]);
        artifacts.record_evals(200, vec![(0, Exact(3))]);
        let memo = artifacts.eval_memo(100).unwrap();
        assert_eq!(memo.0.len(), 5);
        assert_eq!(memo.get(2), Some(Exact(4)));
        assert_eq!(memo.get(3), Some(Exact(6)));
        assert_eq!(memo.get(4), Some(Bound(8)));
        assert_eq!(memo.get(5), None);
        assert_eq!(
            memo.get(u128::MAX),
            None,
            "indices past a word are never memoised"
        );
        assert_eq!(artifacts.eval_memo(200).unwrap().0.len(), 1);
        assert!(artifacts.eval_memo(300).is_none());

        // Re-serving budget 100 makes it most-recent, so filling the
        // remaining slots evicts budget 200 — the coldest — first.
        let _ = artifacts.eval_memo(100);
        for b in 0..(super::MAX_EVAL_MEMOS as u64 - 1) {
            artifacts.record_evals(1_000 + b, vec![(0, Exact(1))]);
        }
        assert!(artifacts.eval_memo(200).is_none(), "coldest budget evicted");
        assert!(
            artifacts.eval_memo(100).is_some(),
            "recently served budget kept"
        );
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

        let (_, hit) = store
            .get_or_build(key_a, || {
                SearchArtifacts::prepare(&bsbs, &lib, &restr, &config)
            })
            .unwrap();
        assert!(!hit);
        let (_, hit) = store
            .get_or_build(key_a, || {
                SearchArtifacts::prepare(&bsbs, &lib, &restr, &config)
            })
            .unwrap();
        assert!(hit);
        // A second application evicts the first at cap 1.
        let (_, hit) = store
            .get_or_build(key_b, || {
                SearchArtifacts::prepare(&other, &lib, &other_restr, &config)
            })
            .unwrap();
        assert!(!hit);
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
            .get_or_build(key, || {
                SearchArtifacts::prepare(&bsbs, &lib, &restr, &config)
            })
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
        for (a, b) in incremental.statics.iter().zip(&scratch.statics) {
            assert_eq!(a.sw_time, b.sw_time);
            assert_eq!(a.needed, b.needed);
            assert_eq!(a.kinds, b.kinds);
            assert_eq!(a.movable, b.movable);
        }
        // The incremental comm memo is fully warmed and prices every
        // run exactly as a fresh fill does.
        let mut fresh = CommCosts::new(edited.len());
        let mut warmed = incremental.comm_clone();
        for j in 0..edited.len() {
            for k in j..edited.len() {
                assert_eq!(
                    warmed.cost(&edited, &config.comm, j, k),
                    fresh.cost(&edited, &config.comm, j, k)
                );
            }
        }
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
