//! Hardware/software communication estimation for block runs.
//!
//! PACE moves *runs* of adjacent BSBs to hardware; values flowing inside
//! a run stay in the ASIC for free, while values crossing the boundary
//! pay bus transfers. For each variable the transfer count is estimated
//! as `min(producer executions, consumer executions)` — a value that
//! changes rarely but is read often (a per-pixel constant in an inner
//! loop) is transferred at its *production* rate, not its consumption
//! rate, which models keeping it in an ASIC register across iterations.

use lycos_hwlib::{CommModel, Cycles};
use lycos_ir::BsbArray;
use std::collections::{BTreeMap, HashMap};

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

/// The bus cost of every hardware run, priced once.
///
/// [`run_traffic`] depends only on the BSB array, never on the
/// allocation, so one table serves every candidate of an
/// allocation-space search instead of being recomputed per partition
/// call. [`CommCosts::priced`] builds the whole table in one pass —
/// what every artifact set carries — and every consumer borrows it
/// read-only. A full table over `eigen`'s 46 blocks is ~2k words, so
/// it is kept dense.
///
/// The DP reads each run once while building its tables and copies
/// the cost into them — the backtrack reads the run table, never this
/// one, and runs the controller budget can never admit are not read
/// at all (see `crate::DpScratch`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommCosts {
    n: usize,
    cost: Vec<u64>,
}

impl CommCosts {
    /// The full table of `bsbs`: every run `[j, k]` priced exactly as
    /// [`run_traffic`] prices it, in one pass shared across runs.
    ///
    /// Variables are interned to dense ids, and each block's reads and
    /// writes are resolved once: a read against its latest earlier
    /// producer, a write against its next rewriter. A run's price is
    /// the sum of an inbound and an outbound part, built in two sweeps:
    ///
    /// * **Inbound**, per run start `j`, extending `k`: a read of block
    ///   `k` crosses the boundary iff its producer lies before `j` (or
    ///   is missing: a program input), and each variable keeps the
    ///   running max of its crossing rates.
    /// * **Outbound**, per run end `k`, extending `j` backwards: block
    ///   `j`'s write of `v` is the run's last iff its next rewriter lies
    ///   past `k`, and it is exported iff the first block after `k`
    ///   that touches `v` reads it (a read counts before a write in the
    ///   same block). That first touch is kept per variable as the
    ///   sweep walks `k` down.
    ///
    /// No run rescans earlier blocks: each cell costs one block's reads
    /// or writes, where [`run_traffic`] scans back over the whole
    /// prefix for every read of every block in the run.
    pub fn priced(bsbs: &BsbArray, comm: &CommModel) -> Self {
        let blocks = bsbs.as_slice();
        let n = blocks.len();
        let mut ids: HashMap<&str, usize> = HashMap::new();
        for v in blocks.iter().flat_map(|b| b.reads.iter().chain(&b.writes)) {
            let next = ids.len();
            ids.entry(v).or_insert(next);
        }
        let vars = ids.len();
        let reads: Vec<Vec<usize>> = blocks
            .iter()
            .map(|b| b.reads.iter().map(|v| ids[v.as_str()]).collect())
            .collect();
        let writes: Vec<Vec<usize>> = blocks
            .iter()
            .map(|b| b.writes.iter().map(|v| ids[v.as_str()]).collect())
            .collect();

        // Each read as (variable, latest earlier producer + 1 — 0 for a
        // program input — and the rate it crosses a boundary at).
        let mut producer = vec![0usize; vars];
        let mut imports: Vec<Vec<(usize, usize, u64)>> = Vec::with_capacity(n);
        for (c, block) in blocks.iter().enumerate() {
            imports.push(
                reads[c]
                    .iter()
                    .map(|&v| {
                        let p = producer[v];
                        let rate = match p {
                            0 => 1, // program input: load once
                            p => blocks[p - 1].profile.min(block.profile),
                        };
                        (v, p, rate)
                    })
                    .collect(),
            );
            for &v in &writes[c] {
                producer[v] = c + 1;
            }
        }
        // Each write as (variable, next rewriter — `n` if none).
        let mut rewriter = vec![n; vars];
        let mut exports: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for w in (0..n).rev() {
            exports[w] = writes[w].iter().map(|&v| (v, rewriter[v])).collect();
            for &v in &writes[w] {
                rewriter[v] = w;
            }
        }

        let mut table = CommCosts {
            n,
            cost: vec![0; n * n],
        };
        let mut rate = vec![0u64; vars];
        for j in 0..n {
            rate.fill(0);
            let mut traffic = RunTraffic::default();
            for (k, reads_k) in imports.iter().enumerate().skip(j) {
                for &(v, p, r) in reads_k {
                    if p <= j && r > rate[v] {
                        traffic.in_words += r - rate[v];
                        traffic.in_bursts = traffic.in_bursts.max(r);
                        rate[v] = r;
                    }
                }
                table.cost[j * n + k] = traffic.cost(comm).count();
            }
        }
        // The profile of the first block after `k` touching each
        // variable, if that block reads it — `None` past a rewrite or
        // with no later touch.
        let mut consumer: Vec<Option<u64>> = vec![None; vars];
        for k in (0..n).rev() {
            let mut traffic = RunTraffic::default();
            for j in (0..=k).rev() {
                for &(v, next) in &exports[j] {
                    if let Some(reader) = consumer[v].filter(|_| next > k) {
                        let r = blocks[j].profile.min(reader);
                        traffic.out_words += r;
                        traffic.out_bursts = traffic.out_bursts.max(r);
                    }
                }
                table.cost[j * n + k] += traffic.cost(comm).count();
            }
            for &v in &writes[k] {
                consumer[v] = None;
            }
            for &v in &reads[k] {
                consumer[v] = Some(blocks[k].profile);
            }
        }
        table
    }

    /// Number of blocks of the application the table was priced for.
    pub fn blocks(&self) -> usize {
        self.n
    }

    /// Bus cost (in cycles) of the hardware run `[j, k]`.
    ///
    /// # Panics
    ///
    /// Panics if `j > k` or `k` is out of range.
    pub fn cost(&self, j: usize, k: usize) -> u64 {
        assert!(j <= k && k < self.n, "invalid run [{j}, {k}]");
        self.cost[j * self.n + k]
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
/// communication. Costs come from the artifacts' [`CommCosts`] — the
/// same table the DP reads, so the floor and the evaluation can never
/// disagree on a run's price.
pub(crate) fn comm_floors(barrier: &[bool], costs: &CommCosts) -> Vec<u64> {
    assert_eq!(costs.blocks(), barrier.len(), "one flag per block");
    let n = barrier.len();
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
            for k in j..=e {
                let share = costs.cost(j, k) / (k - j + 1) as u64;
                for f in &mut floors[j..=k] {
                    *f = (*f).min(share);
                }
            }
        }
        s = e + 1;
    }
    floors
}

#[cfg(test)]
mod tests {
    use super::*;
    use lycos_ir::{Bsb, BsbId, BsbOrigin, Dfg};
    use std::collections::BTreeSet;

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
    #[should_panic(expected = "invalid run")]
    fn a_lookup_past_the_table_panics() {
        let bsbs = BsbArray::from_bsbs("t", vec![bsb(0, 1, &[], &[])]);
        CommCosts::priced(&bsbs, &CommModel::standard()).cost(0, 1);
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
        let costs = CommCosts::priced(&bsbs, &comm);
        let floors = comm_floors(&[false; 4], &costs);
        for j in 0..4 {
            for k in j..4 {
                let total: u64 = floors[j..=k].iter().sum();
                assert!(
                    total <= costs.cost(j, k),
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
        let costs = CommCosts::priced(&bsbs, &comm);
        let floors = comm_floors(&[false, true, false], &costs);
        // Run [0,0]: x leaves 100 times (min(writer, reader) = 100).
        assert_eq!(floors[0], 100 * 10 + 100 * 4);
        assert_eq!(floors[1], 0, "barrier blocks never pay run comm");
        // Run [2,2]: x enters 100 times.
        assert_eq!(floors[2], 100 * 10 + 100 * 4);
        // Without the barrier the whole-app run [0,2] (x internal, no
        // traffic) collapses every floor to zero.
        assert_eq!(comm_floors(&[false; 3], &costs), vec![0, 0, 0]);
    }
}
