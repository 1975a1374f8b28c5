//! Hardware/software communication estimation for block runs.
//!
//! PACE moves *runs* of adjacent BSBs to hardware; values flowing inside
//! a run stay in the ASIC for free, while values crossing the boundary
//! pay bus transfers. For each variable the transfer count is estimated
//! as `min(producer executions, consumer executions)` — a value that
//! changes rarely but is read often (a per-pixel constant in an inner
//! loop) is transferred at its *production* rate, not its consumption
//! rate, which models keeping it in an ASIC register across iterations.

use crate::stop::StopSignal;
use lycos_hwlib::{CommModel, Cycles};
use lycos_ir::BsbArray;
use std::collections::BTreeMap;

/// Word traffic of one candidate hardware run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RunTraffic {
    /// Total words transferred into the run over the application run.
    pub in_words: u64,
    /// Estimated number of inbound transfer bursts.
    pub in_bursts: u64,
    /// Total words transferred out of the run.
    pub out_words: u64,
    /// Estimated number of outbound transfer bursts.
    pub out_bursts: u64,
}

impl RunTraffic {
    /// Bus time for this traffic under `comm`.
    pub fn cost(&self, comm: &CommModel) -> Cycles {
        let cycles = |words: u64, bursts: u64| {
            if words == 0 {
                0
            } else {
                comm.sync_overhead * bursts + comm.cycles_per_word * words
            }
        };
        Cycles::new(cycles(self.in_words, self.in_bursts) + cycles(self.out_words, self.out_bursts))
    }
}

/// Estimates the boundary traffic of the hardware run `[j, k]`
/// (inclusive block indices).
///
/// * **Inbound**: a variable read by a run block whose latest definition
///   is outside the run (or is a program input) is transferred
///   `min(producer profile, consumer profile)` times (program inputs
///   once). Several consumers of the same variable are charged at the
///   highest such rate, once.
/// * **Outbound**: a variable written in the run and read by a later
///   block before being overwritten is transferred
///   `min(writer profile, first reader profile)` times.
///
/// Burst counts are the per-direction maxima over variables — an
/// estimate of how often the run boundary is actually crossed.
///
/// # Panics
///
/// Panics if `j > k` or `k` is out of range.
pub fn run_traffic(bsbs: &BsbArray, j: usize, k: usize) -> RunTraffic {
    assert!(j <= k && k < bsbs.len(), "invalid run [{j}, {k}]");
    let blocks = bsbs.as_slice();

    // Inbound: per variable, the strongest (producer, consumer) rate.
    let mut in_rate: BTreeMap<&str, u64> = BTreeMap::new();
    for (c, block) in blocks.iter().enumerate().take(k + 1).skip(j) {
        for v in &block.reads {
            // Latest definition strictly before block c.
            let producer = blocks[..c].iter().rposition(|b| b.writes.contains(v));
            let from_inside = producer.is_some_and(|p| p >= j);
            if from_inside {
                continue; // value lives in the data path already
            }
            let rate = match producer {
                Some(p) => blocks[p].profile.min(block.profile),
                None => 1, // program input: load once
            };
            let e = in_rate.entry(v.as_str()).or_insert(0);
            *e = (*e).max(rate);
        }
    }

    // Outbound: last writer in the run vs first later reader.
    let mut out_rate: BTreeMap<&str, u64> = BTreeMap::new();
    for (w, block) in blocks.iter().enumerate().take(k + 1).skip(j) {
        for v in &block.writes {
            let is_last_writer_in_run = !blocks[w + 1..=k].iter().any(|b| b.writes.contains(v));
            if !is_last_writer_in_run {
                continue;
            }
            // Scan forward past the run: a reader consumes the value; a
            // rewriter kills it.
            for later in &blocks[k + 1..] {
                if later.reads.contains(v) {
                    out_rate.insert(v.as_str(), block.profile.min(later.profile));
                    break;
                }
                if later.writes.contains(v) {
                    break;
                }
            }
        }
    }

    RunTraffic {
        in_words: in_rate.values().sum(),
        in_bursts: in_rate.values().max().copied().unwrap_or(0),
        out_words: out_rate.values().sum(),
        out_bursts: out_rate.values().max().copied().unwrap_or(0),
    }
}

/// Lazily-filled memo table of run bus costs.
///
/// [`run_traffic`] depends only on the BSB array, never on the
/// allocation, so its costs can be shared across every candidate of an
/// allocation-space search instead of being recomputed per partition
/// call. Entries are filled on first use; a full table over `eigen`'s
/// 46 blocks is ~2k words, so the memo is kept dense.
///
/// The DP queries each run once while building its tables and copies
/// the cost into them — the backtrack reads the run table, never this
/// memo, and runs the controller budget can never admit are not
/// queried at all (see `crate::DpScratch`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommCosts {
    n: usize,
    cost: Vec<u64>,
    known: Vec<bool>,
}

impl CommCosts {
    /// An empty table for an application of `n` blocks.
    pub fn new(n: usize) -> Self {
        CommCosts {
            n,
            cost: vec![0; n * n],
            known: vec![false; n * n],
        }
    }

    /// Bus cost (in cycles) of the hardware run `[j, k]`, memoised.
    ///
    /// # Panics
    ///
    /// Panics if `j > k`, `k` is out of range, or `bsbs` has a
    /// different length than the table was created for.
    pub fn cost(&mut self, bsbs: &BsbArray, comm: &CommModel, j: usize, k: usize) -> u64 {
        assert_eq!(bsbs.len(), self.n, "table built for another app");
        assert!(j <= k && k < self.n, "invalid run [{j}, {k}]");
        let idx = j * self.n + k;
        if !self.known[idx] {
            self.cost[idx] = run_traffic(bsbs, j, k).cost(comm).count();
            self.known[idx] = true;
        }
        self.cost[idx]
    }

    /// Copies into a fresh table every run price that provably
    /// survives a profile-only edit of the blocks listed in `dirty`
    /// (positions into `bsbs`, which must have the var sets the donor
    /// table was priced under — the caller checks that with per-block
    /// read/write-set marks).
    ///
    /// With every read/write set unchanged, a dirty block `d` can move
    /// the price of run `[j, k]` only through its *rate* — profiles
    /// enter [`run_traffic`] nowhere else — and a rate involving `d`
    /// is charged in exactly four situations:
    ///
    /// * the run contains `d` and `d` *imports*: `d` reads `v` whose
    ///   latest producer sits before the run — a producer inside the
    ///   run makes the edge internal (free), and a variable nobody
    ///   wrote yet is a program input, charged at the constant rate 1;
    /// * the run contains `d` and `d` *exports*: `d` is the run's last
    ///   writer of `v` (no rewrite between `d` and the run's end) and
    ///   a later reader consumes `v` before its next rewrite;
    /// * `d` produces a value the run imports: `d` writes `v`, the run
    ///   starts after `d` but before `v`'s next rewrite, and some run
    ///   block up to (and including) that rewrite reads `v` — readers
    ///   past the rewrite are fed by it, not by `d`;
    /// * `d` is the *first* consumer of a value the run exports: the
    ///   run writes `v`, `d > k` reads it, and nothing touches `v`
    ///   between the run's end and `d` — an intervening reader sets
    ///   the outbound rate instead, an intervening writer kills the
    ///   value.
    ///
    /// Killer blocks (rewrites after the run) gate outbound traffic by
    /// *identity*, not rate, so a profile edit never acts through
    /// them; every cell the rules above leave untouched carries over.
    pub(crate) fn carry_clean(&self, bsbs: &BsbArray, dirty: &[usize]) -> CommCosts {
        let n = bsbs.len();
        assert_eq!(n, self.n, "table built for another app");
        let blocks = bsbs.as_slice();
        let mut stale = vec![false; n * n];
        for &d in dirty {
            // `d` importing from before the run: only runs that start
            // after `v`'s producer and still contain `d` pay a rate
            // with `d`'s profile in it.
            for v in &blocks[d].reads {
                let Some(p) = blocks[..d].iter().rposition(|b| b.writes.contains(v)) else {
                    continue; // program input: rate 1, profile-free
                };
                for j in p + 1..=d {
                    for cell in stale[j * n + d..j * n + n].iter_mut() {
                        *cell = true;
                    }
                }
            }
            for v in &blocks[d].writes {
                let nw = blocks[d + 1..]
                    .iter()
                    .position(|b| b.writes.contains(v))
                    .map_or(n, |p| d + 1 + p);
                // `d` exporting: runs ending in [d, nw) with a reader
                // left in (k, nw] have `d` as their last writer of `v`
                // and that reader as its consumer. (A co-located
                // reader at `nw` consumes before rewriting — the
                // outbound scan checks reads first.)
                let mut reader_after = nw < n && blocks[nw].reads.contains(v);
                for k in (d..nw.min(n)).rev() {
                    if k + 1 < nw && blocks[k + 1].reads.contains(v) {
                        reader_after = true;
                    }
                    if reader_after {
                        for row in 0..=d {
                            stale[row * n + k] = true;
                        }
                    }
                }
                // `d` as producer for later-starting runs: the readers
                // it feeds lie in (d, nw] — a run starting in that
                // window pays d's rate once it reaches the first one.
                let mut first_reader = usize::MAX;
                for j in (d + 1..=nw.min(n - 1)).rev() {
                    if blocks[j].reads.contains(v) {
                        first_reader = j;
                    }
                    if first_reader != usize::MAX {
                        for cell in stale[j * n + first_reader..j * n + n].iter_mut() {
                            *cell = true;
                        }
                    }
                }
            }
            // `d` as first later reader: a run ending at k < d exports
            // to `d` only if it writes `v` (last writer ≥ j) and no
            // block in (k, d) reads or writes `v`.
            for v in &blocks[d].reads {
                let last_touch = blocks[..d]
                    .iter()
                    .rposition(|b| b.reads.contains(v) || b.writes.contains(v));
                let mut last_writer = None;
                for k in 0..d {
                    if blocks[k].writes.contains(v) {
                        last_writer = Some(k);
                    }
                    if last_touch.is_some_and(|t| k < t) {
                        continue; // something still touches v after k
                    }
                    if let Some(w) = last_writer {
                        for j in 0..=w {
                            stale[j * n + k] = true;
                        }
                    }
                }
            }
        }
        let mut out = CommCosts::new(n);
        for j in 0..n {
            for k in j..n {
                let idx = j * n + k;
                if !stale[idx] && self.known[idx] {
                    out.cost[idx] = self.cost[idx];
                    out.known[idx] = true;
                }
            }
        }
        out
    }
}

/// Admissible per-block communication floors for the search bound.
///
/// `floors[b]` lower-bounds the communication share block `b` adds to
/// *any* hardware run the DP can place it in: the minimum over all
/// runs `[j, k]` containing `b` — restricted to `b`'s maximal
/// barrier-free segment — of `⌊cost(j, k) / (k − j + 1)⌋`.
/// `barrier[b]` marks blocks that are hardware-infeasible under every
/// allocation of the space; real runs contain only feasible blocks, so
/// no run ever spans a barrier and the segment restriction is sound.
/// For a run `R` the DP charges `cost(R)` once, and
///
/// ```text
/// Σ_{b ∈ R} floors[b] ≤ |R| · ⌊cost(R) / |R|⌋ ≤ cost(R)
/// ```
///
/// so adding `floors[b]` to every hardware block's bound contribution
/// never exceeds the communication the DP actually pays. Barrier
/// blocks get a zero floor — they are charged software time, never run
/// communication. Costs come from the caller's [`CommCosts`] memo —
/// the artifact seam hands in the same table the DP reads, so the
/// floor and the evaluation can never disagree on a run's price (and
/// a warmed table answers without deriving anything).
///
/// On a cold memo this prices every run of every segment — the
/// expensive part of a first bound-table build — so `stop` is polled
/// once per run start; `None` means it tripped.
pub(crate) fn comm_floors(
    bsbs: &BsbArray,
    comm: &CommModel,
    barrier: &[bool],
    costs: &mut CommCosts,
    stop: &StopSignal,
) -> Option<Vec<u64>> {
    assert_eq!(bsbs.len(), barrier.len(), "one flag per block");
    let n = bsbs.len();
    let stoppable = !stop.is_never();
    let mut floors = vec![0u64; n];
    let mut s = 0usize;
    while s < n {
        if barrier[s] {
            s += 1;
            continue;
        }
        let mut e = s;
        while e + 1 < n && !barrier[e + 1] {
            e += 1;
        }
        for f in &mut floors[s..=e] {
            *f = u64::MAX;
        }
        for j in s..=e {
            if stoppable && stop.check().is_some() {
                return None;
            }
            for k in j..=e {
                let share = costs.cost(bsbs, comm, j, k) / (k - j + 1) as u64;
                for f in &mut floors[j..=k] {
                    *f = (*f).min(share);
                }
            }
        }
        s = e + 1;
    }
    Some(floors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lycos_ir::{Bsb, BsbId, BsbOrigin, Dfg};
    use std::collections::BTreeSet;

    /// The array with block `d`'s profile bumped — a pure rate edit.
    fn with_bump(original: &BsbArray, d: usize) -> BsbArray {
        let mut blocks = original.as_slice().to_vec();
        blocks[d].profile += 13;
        BsbArray::from_bsbs("t", blocks)
    }

    fn bsb(i: u32, profile: u64, reads: &[&str], writes: &[&str]) -> Bsb {
        Bsb {
            id: BsbId(i),
            name: format!("b{i}"),
            dfg: Dfg::new(),
            reads: reads.iter().map(|s| s.to_string()).collect::<BTreeSet<_>>(),
            writes: writes
                .iter()
                .map(|s| s.to_string())
                .collect::<BTreeSet<_>>(),
            profile,
            origin: BsbOrigin::Body,
        }
    }

    #[test]
    fn values_inside_a_run_are_free() {
        // b0 writes x; b1 reads x. Run [0,1]: no traffic for x.
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![bsb(0, 10, &[], &["x"]), bsb(1, 10, &["x"], &["y"])],
        );
        let t = run_traffic(&bsbs, 0, 1);
        assert_eq!(t.in_words, 0);
        assert_eq!(t.out_words, 0, "y is never read later");
    }

    #[test]
    fn inbound_rate_is_min_of_producer_and_consumer() {
        // b0 (profile 4) writes c; b1 (profile 100, inner loop) reads c.
        // Run [1,1]: c transferred per b0 execution, not per b1.
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![bsb(0, 4, &[], &["c"]), bsb(1, 100, &["c"], &["z"])],
        );
        let t = run_traffic(&bsbs, 1, 1);
        assert_eq!(t.in_words, 4, "per-pixel constant enters 4 times");
        assert_eq!(t.in_bursts, 4);
    }

    #[test]
    fn program_inputs_enter_once() {
        let bsbs = BsbArray::from_bsbs("t", vec![bsb(0, 50, &["in"], &["out"])]);
        let t = run_traffic(&bsbs, 0, 0);
        assert_eq!(t.in_words, 1);
    }

    #[test]
    fn outbound_rate_is_min_of_writer_and_reader() {
        // Inner block (100) writes r; outer block (4) reads it after.
        let bsbs = BsbArray::from_bsbs("t", vec![bsb(0, 100, &[], &["r"]), bsb(1, 4, &["r"], &[])]);
        let t = run_traffic(&bsbs, 0, 0);
        assert_eq!(t.out_words, 4, "only the final value per outer iteration");
    }

    #[test]
    fn rewritten_values_are_dead() {
        // b0 writes x; b1 rewrites x without reading; b2 reads x.
        // Run [0,0]: x from b0 never escapes.
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                bsb(0, 10, &[], &["x"]),
                bsb(1, 10, &[], &["x"]),
                bsb(2, 10, &["x"], &[]),
            ],
        );
        let t = run_traffic(&bsbs, 0, 0);
        assert_eq!(t.out_words, 0);
    }

    #[test]
    fn last_writer_in_run_wins() {
        // Both b0 and b1 write x inside the run; reader sees b1's value.
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                bsb(0, 10, &[], &["x"]),
                bsb(1, 3, &[], &["x"]),
                bsb(2, 7, &["x"], &[]),
            ],
        );
        let t = run_traffic(&bsbs, 0, 1);
        assert_eq!(t.out_words, 3, "min(writer b1 = 3, reader = 7)");
    }

    #[test]
    fn shared_inbound_variable_charged_once_at_max_rate() {
        // c read by two run blocks with different profiles.
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                bsb(0, 5, &[], &["c"]),
                bsb(1, 10, &["c"], &[]),
                bsb(2, 50, &["c"], &[]),
            ],
        );
        let t = run_traffic(&bsbs, 1, 2);
        assert_eq!(t.in_words, 5, "min(5, 50) beats min(5, 10), charged once");
    }

    #[test]
    fn carried_runs_match_a_full_reprice_exhaustively() {
        // A producer/consumer chain with a shared constant, a block
        // that consumes the value it rewrites (5 reads *and* rewrites
        // `out`, so it imports the old value while being its next
        // writer) and a tail reader behind that rewrite, edited by
        // profile only at every position in turn: each carried cell
        // must equal the from-scratch price of the edited array, and
        // cells the edit can actually move must NOT be carried.
        let original = BsbArray::from_bsbs(
            "t",
            vec![
                bsb(0, 4, &["in"], &["c", "x"]),
                bsb(1, 40, &["c", "x"], &["y"]),
                bsb(2, 40, &["y"], &["x"]),
                bsb(3, 7, &["q"], &["q"]),
                bsb(4, 9, &["x", "q"], &["out"]),
                bsb(5, 30, &["out", "x"], &["out"]),
                bsb(6, 50, &["out"], &[]),
            ],
        );
        let model = CommModel::standard();
        let n = original.len();
        let mut donor = CommCosts::new(n);
        for j in 0..n {
            for k in j..n {
                donor.cost(&original, &model, j, k);
            }
        }
        for d in 0..n {
            let mut blocks = original.as_slice().to_vec();
            blocks[d].profile += 13;
            let edited = BsbArray::from_bsbs("t", blocks);
            let carried = donor.carry_clean(&edited, &[d]);
            let mut fresh = CommCosts::new(n);
            for j in 0..n {
                for k in j..n {
                    let price = fresh.cost(&edited, &model, j, k);
                    let idx = j * n + k;
                    if carried.known[idx] {
                        assert_eq!(
                            carried.cost[idx], price,
                            "stale carry for run [{j},{k}] under edit at {d}"
                        );
                    }
                }
            }
            // Any cell the edit actually moved must have been dropped
            // (the equality assert above covers carried cells; this
            // states the contrapositive directly).
            for j in 0..n {
                for k in j..n {
                    let idx = j * n + k;
                    if donor.cost[idx] != fresh.cost[idx] {
                        assert!(!carried.known[idx], "run [{j},{k}] moved under edit at {d}");
                    }
                }
            }
        }
        // The isolated self-loop block (3) couples to nothing before
        // it, so editing block 0 leaves its singleton run carried.
        let mut blocks = original.as_slice().to_vec();
        blocks[0].profile += 1;
        let edited = BsbArray::from_bsbs("t", blocks);
        let carried = donor.carry_clean(&edited, &[0]);
        assert!(carried.known[3 * n + 3], "uncoupled run must carry over");
        // Precision, not just soundness: run [4,4] reads `x`, but its
        // producer is block 2's rewrite — block 0's stale `x` never
        // reaches it, so a variable-intersection rule would give this
        // cell up for nothing.
        assert!(
            carried.known[4 * n + 4],
            "re-written producer shields the run"
        );
        // Block 6 reads `out`, yet editing 4 leaves its run priced:
        // block 5's rewrite is its producer.
        let carried = donor.carry_clean(&with_bump(&original, 4), &[4]);
        assert!(
            !carried.known[5 * n + 5],
            "rewriter that consumes the value pays 4's rate"
        );
        assert!(
            carried.known[6 * n + 6],
            "reader behind the rewrite is shielded"
        );
        // Editing the tail reader (6) leaves run [3,4] priced even
        // though the run writes `out`: block 5 consumes the value
        // first, so 6's rate never enters the run's outbound price.
        let carried = donor.carry_clean(&with_bump(&original, 6), &[6]);
        assert!(
            carried.known[3 * n + 4],
            "earlier consumer shields the exporter"
        );
        // Even a run CONTAINING the dirty block can carry: inside
        // [2,4], block 3 imports only the program input `q` (rate 1,
        // profile-free) and its `q` export dies unread past the run's
        // end — so 3's profile never enters the price.
        let carried = donor.carry_clean(&with_bump(&original, 3), &[3]);
        assert!(
            carried.known[2 * n + 4],
            "profile-decoupled run spans the edit yet carries"
        );
        assert!(
            !carried.known[2 * n + 3],
            "run [2,3] exports q to block 4 at 3's rate"
        );
    }

    #[test]
    fn traffic_cost_uses_comm_model() {
        let t = RunTraffic {
            in_words: 4,
            in_bursts: 2,
            out_words: 1,
            out_bursts: 1,
        };
        let comm = CommModel::standard(); // sync 10, word 4
        assert_eq!(t.cost(&comm), Cycles::new((10 * 2 + 4 * 4) + (10 + 4)));
        assert_eq!(RunTraffic::default().cost(&comm), Cycles::ZERO);
        assert_eq!(t.cost(&CommModel::free()), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid run")]
    fn invalid_run_panics() {
        let bsbs = BsbArray::from_bsbs("t", vec![bsb(0, 1, &[], &[])]);
        run_traffic(&bsbs, 0, 5);
    }

    #[test]
    fn comm_floors_never_exceed_any_run_share() {
        // The documented inequality, checked exhaustively: for every
        // run within a barrier-free segment, the floors of its blocks
        // sum to at most the run's cost.
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                bsb(0, 40, &["in"], &["x"]),
                bsb(1, 40, &["x"], &["y"]),
                bsb(2, 8, &["y"], &["z"]),
                bsb(3, 8, &["z"], &["out"]),
            ],
        );
        let comm = CommModel::standard();
        let floors = comm_floors(
            &bsbs,
            &comm,
            &[false; 4],
            &mut CommCosts::new(4),
            &StopSignal::never(),
        )
        .unwrap();
        let mut costs = CommCosts::new(4);
        for j in 0..4 {
            for k in j..4 {
                let total: u64 = floors[j..=k].iter().sum();
                assert!(
                    total <= costs.cost(&bsbs, &comm, j, k),
                    "floors {floors:?} overcharge run [{j}, {k}]"
                );
            }
        }
    }

    #[test]
    fn barriers_segment_the_floor_runs() {
        // b1 can never reach hardware, so no run spans it: b0 and b2
        // keep their single-block run costs as floors instead of being
        // washed out by the cheap whole-application run.
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![
                bsb(0, 100, &[], &["x"]),
                bsb(1, 1, &[], &[]),
                bsb(2, 100, &["x"], &[]),
            ],
        );
        let comm = CommModel::standard(); // sync 10, word 4
        let floors = comm_floors(
            &bsbs,
            &comm,
            &[false, true, false],
            &mut CommCosts::new(3),
            &StopSignal::never(),
        )
        .unwrap();
        // Run [0,0]: x leaves 100 times (min(writer, reader) = 100).
        assert_eq!(floors[0], 100 * 10 + 100 * 4);
        assert_eq!(floors[1], 0, "barrier blocks never pay run comm");
        // Run [2,2]: x enters 100 times.
        assert_eq!(floors[2], 100 * 10 + 100 * 4);
        // Without the barrier the whole-app run [0,2] (x internal, no
        // traffic) collapses every floor to zero.
        assert_eq!(
            comm_floors(
                &bsbs,
                &comm,
                &[false; 3],
                &mut CommCosts::new(3),
                &StopSignal::never()
            )
            .unwrap(),
            vec![0, 0, 0]
        );
    }
}
