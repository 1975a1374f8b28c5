//! Seeded request plans for the three workloads.
//!
//! A [`Plan`] is a list of warm-up request lines plus a list of
//! *passes*. Every pass draws the same mix — the same verb shares and
//! the same budget strata, or the same apps — so a run that measures
//! whole passes sees the same distribution of requests whatever its
//! seed; the seed only moves budgets inside their strata, the order
//! inside a pass, and which operator an edit swaps.
//!
//! Requests use only `app=`/`src=`, `@budget`, `bound`, `limit=` and
//! `format=csv`: no engine-lever toggles, so deleting a lever never
//! requires editing this file.

use lycos::apps::BenchmarkApp;
use lycos_serve::protocol::encode;
use std::collections::HashSet;

/// The three workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Batch design-space exploration: bounded full eigen sweeps at
    /// seeded budgets, three `table1` to one `pareto`.
    Sweep,
    /// The designer's edit loop: bundled programs with one seeded
    /// operator swap, sent inline with a truncated bounded sweep.
    Edit,
    /// One-shot clients: a fresh connection per small `table1`.
    Connect,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Edit, Workload::Connect];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Edit => "edit",
            Workload::Connect => "connect",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a small, fast, seedable generator; plenty for choosing
/// budgets and edits, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The requests one run sends.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Plan {
    /// Sent once per server start, inside the timed set-up.
    pub warmup: Vec<String>,
    /// The measured phase sends whole passes, in order, until the run's
    /// time is up.
    pub passes: Vec<Vec<String>>,
    /// One fresh TCP connection per request (else one keep-alive
    /// connection for the whole phase).
    pub fresh_connections: bool,
    /// Answers of each verb checked against the cold reference.
    pub checks_per_verb: usize,
    /// Whether the server's `stats` must show incremental builds.
    pub expects_incremental: bool,
}

/// Eigen budgets a bounded full sweep covers in about 0.1–1 s.
const SWEEP_GATES: std::ops::Range<u64> = 7_000..13_000;
/// Warm-up budget of the sweep: below [`SWEEP_GATES`], so no measured
/// budget repeats it.
const SWEEP_WARMUP_GATES: u64 = 6_500;
/// `table1` requests per sweep pass, one per equal budget stratum.
const SWEEP_TABLE1_PER_PASS: u64 = 6;
/// `pareto` requests per sweep pass, one per equal budget stratum.
const SWEEP_PARETO_PER_PASS: u64 = 2;
/// Passes a sweep plan holds: more than any run of at most a minute
/// can send, so budgets never repeat within a run.
const SWEEP_PASSES: usize = 120;
/// Edit passes. Each app's edits are drawn from its shuffled pool of
/// valid swaps and repeat only when the pool wraps, so no program
/// comes back while the store (8 entries) could still hold it.
const EDIT_PASSES: usize = 40;
/// Apps of one edit pass: mostly eigen, the rest once each.
const EDIT_MIX: [&str; 8] = [
    "eigen", "eigen", "eigen", "eigen", "eigen", "man", "straight", "hal",
];
/// Connect passes (the three small apps, shuffled, per pass).
const CONNECT_PASSES: usize = 200;
/// Apps of one connect pass.
const CONNECT_MIX: [&str; 3] = ["hal", "straight", "man"];
/// The interactive window of an edit request.
const EDIT_LIMIT: usize = 1024;

/// The plan of `workload` under `seed`. The bundled apps supply the
/// edit sources and budgets.
///
/// # Errors
///
/// Only if the edit generator finds no valid edit of an app, which a
/// change to the bundled sources could cause.
pub fn build(workload: Workload, seed: u64, apps: &[BenchmarkApp]) -> Result<Plan, String> {
    let mut rng = Rng::new(seed ^ 0x6C79_636F_735F_6231);
    match workload {
        Workload::Sweep => Ok(sweep(&mut rng)),
        Workload::Edit => edit(&mut rng, apps),
        Workload::Connect => Ok(connect(&mut rng)),
    }
}

fn sweep_line(verb: &str, gates: u64) -> String {
    format!("{verb} app=eigen@{gates} bound limit=0 format=csv")
}

fn sweep(rng: &mut Rng) -> Plan {
    // The golden-ratio step spreads successive passes evenly across
    // each stratum from a seeded starting phase, so every run covers
    // its budget range the same way whatever the seed.
    const STEP: f64 = 0.618_033_988_749_894_9;
    let mut used = HashSet::from([SWEEP_WARMUP_GATES]);
    let mut strata = Vec::new();
    for (verb, count) in [
        ("table1", SWEEP_TABLE1_PER_PASS),
        ("pareto", SWEEP_PARETO_PER_PASS),
    ] {
        let width = (SWEEP_GATES.end - SWEEP_GATES.start) / count;
        for stratum in 0..count {
            let phase = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            strata.push((verb, SWEEP_GATES.start + stratum * width, width, phase));
        }
    }
    let mut passes = Vec::with_capacity(SWEEP_PASSES);
    for k in 0..SWEEP_PASSES {
        let mut pass = Vec::with_capacity(strata.len());
        for &(verb, low, width, phase) in &strata {
            let position = (phase + k as f64 * STEP).fract();
            let mut offset = (position * width as f64) as u64;
            while !used.insert(low + offset) {
                offset = (offset + 1) % width;
            }
            pass.push(sweep_line(verb, low + offset));
        }
        rng.shuffle(&mut pass);
        passes.push(pass);
    }
    Plan {
        warmup: vec![sweep_line("table1", SWEEP_WARMUP_GATES)],
        passes,
        fresh_connections: false,
        checks_per_verb: 2,
        expects_incremental: false,
    }
}

fn edit_line(source: &str, gates: u64) -> String {
    format!(
        "table1 src={}@{gates} bound limit={EDIT_LIMIT} format=csv",
        encode(source)
    )
}

fn app<'a>(apps: &'a [BenchmarkApp], name: &str) -> Result<&'a BenchmarkApp, String> {
    apps.iter()
        .find(|a| a.name == name)
        .ok_or_else(|| format!("no bundled app `{name}`"))
}

fn edit(rng: &mut Rng, apps: &[BenchmarkApp]) -> Result<Plan, String> {
    let mut warmup = Vec::new();
    let mut pools = Vec::new();
    for name in ["eigen", "man", "straight", "hal"] {
        let a = app(apps, name)?;
        warmup.push(edit_line(a.source, a.area_budget));
        let mut edits = valid_edits(a.source);
        if edits.len() < 2 {
            return Err(format!("`{name}` has fewer than two valid operator swaps"));
        }
        rng.shuffle(&mut edits);
        pools.push((name, a.area_budget, edits.into_iter().cycle()));
    }
    let mut passes = Vec::with_capacity(EDIT_PASSES);
    for _ in 0..EDIT_PASSES {
        let mut pass = Vec::with_capacity(EDIT_MIX.len());
        for name in EDIT_MIX {
            let (_, gates, edits) = pools
                .iter_mut()
                .find(|(n, _, _)| *n == name)
                .expect("every mixed app has a pool");
            let edited = edits.next().expect("a cycled non-empty pool never ends");
            pass.push(edit_line(&edited, *gates));
        }
        rng.shuffle(&mut pass);
        passes.push(pass);
    }
    Ok(Plan {
        warmup,
        passes,
        fresh_connections: false,
        checks_per_verb: 6,
        expects_incremental: true,
    })
}

fn connect(rng: &mut Rng) -> Plan {
    let line = |name: &str| format!("table1 app={name} format=csv");
    let passes = (0..CONNECT_PASSES)
        .map(|_| {
            let mut pass: Vec<String> = CONNECT_MIX.iter().map(|n| line(n)).collect();
            rng.shuffle(&mut pass);
            pass
        })
        .collect();
    Plan {
        warmup: CONNECT_MIX.iter().map(|n| line(n)).collect(),
        passes,
        fresh_connections: true,
        checks_per_verb: 6,
        expects_incremental: false,
    }
}

/// The binary arithmetic operators an edit swaps between.
const OPERATORS: [u8; 4] = [b'+', b'-', b'*', b'/'];

/// Byte offsets of the binary `+ - * /` operators on assignment lines
/// (`name = expr;`) of `source`, comments excluded. An operator is
/// binary when the last non-blank byte before it closes an operand.
pub fn operator_sites(source: &str) -> Vec<usize> {
    let mut sites = Vec::new();
    let mut offset = 0;
    for line in source.split_inclusive('\n') {
        let code = line.split("//").next().unwrap_or("");
        let trimmed = code.trim_start();
        let is_assignment = trimmed.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            && trimmed.trim_end().ends_with(';')
            && code
                .find('=')
                .is_some_and(|eq| code.as_bytes().get(eq + 1) != Some(&b'='));
        if is_assignment {
            let eq = code.find('=').expect("checked above");
            let bytes = code.as_bytes();
            for i in eq + 1..bytes.len() {
                if !OPERATORS.contains(&bytes[i]) {
                    continue;
                }
                let before = bytes[eq + 1..i]
                    .iter()
                    .rev()
                    .find(|b| !b.is_ascii_whitespace());
                if before.is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b')') {
                    sites.push(offset + i);
                }
            }
        }
        offset += line.len();
    }
    sites
}

/// Every single-operator swap of `source` that still compiles, in
/// source order: the pool the edit generator draws from.
pub fn valid_edits(source: &str) -> Vec<String> {
    let mut edits = Vec::new();
    for at in operator_sites(source) {
        let old = source.as_bytes()[at];
        for new in OPERATORS.into_iter().filter(|&o| o != old) {
            let mut edited = source.to_owned();
            edited.replace_range(at..=at, std::str::from_utf8(&[new]).expect("ASCII"));
            if lycos::frontend::compile(&edited).is_ok() {
                edits.push(edited);
            }
        }
    }
    edits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_a_byte_identical_request_list() {
        let apps = lycos::apps::all();
        for workload in Workload::ALL {
            let a = build(workload, 7, &apps).unwrap();
            let b = build(workload, 7, &apps).unwrap();
            assert_eq!(a, b, "{workload:?}");
            let c = build(workload, 8, &apps).unwrap();
            assert_eq!(a.warmup, c.warmup, "warm-up is seed-free");
            assert_ne!(a.passes, c.passes, "{workload:?} ignores its seed");
        }
    }

    #[test]
    fn sweep_budgets_are_stratified_and_never_repeat() {
        let plan = build(Workload::Sweep, 1, &[]).unwrap();
        let mut budgets = HashSet::new();
        for pass in &plan.passes {
            let pareto = pass.iter().filter(|l| l.starts_with("pareto")).count();
            assert_eq!(pareto as u64, SWEEP_PARETO_PER_PASS);
            assert_eq!(
                pass.len() as u64,
                SWEEP_TABLE1_PER_PASS + SWEEP_PARETO_PER_PASS
            );
            for line in pass {
                let gates: u64 = line
                    .split(['@', ' '])
                    .nth(2)
                    .and_then(|g| g.parse().ok())
                    .unwrap();
                assert!(SWEEP_GATES.contains(&gates), "{line}");
                assert!(budgets.insert(gates), "budget {gates} repeats");
            }
        }
    }

    #[test]
    fn edits_swap_exactly_one_operator_and_compile() {
        let apps = lycos::apps::all();
        let plan = build(Workload::Edit, 3, &apps).unwrap();
        let lines: Vec<&String> = plan.passes.iter().flatten().collect();
        // The store holds 8 entries: no program may come back within
        // nine requests, or the store would answer it.
        for window in lines.windows(9) {
            let distinct: HashSet<&&String> = window.iter().collect();
            assert_eq!(distinct.len(), window.len(), "an edit repeats too soon");
        }
        for line in lines.iter().take(16) {
            let request = lycos_serve::Request::parse(line).unwrap();
            let lycos_serve::Request::Table1(t) = request else {
                panic!("not table1")
            };
            let lycos_serve::JobSource::Inline(src) = &t.jobs[0].source else {
                panic!("not inline")
            };
            let original = apps.iter().find(|a| a.source.len() == src.len()).unwrap();
            let diff = original
                .source
                .bytes()
                .zip(src.bytes())
                .filter(|(a, b)| a != b);
            assert_eq!(diff.count(), 1, "exactly one byte differs");
            assert_eq!(t.jobs[0].budget, Some(original.area_budget));
            assert!(lycos::frontend::compile(src).is_ok());
        }
    }

    #[test]
    fn operator_sites_skip_unary_minus_comments_and_comparisons() {
        let src =
            "app t;\n// a = b + c;\nx = -a * b;\nif p prob 0.5 test (a == b - c) { y = y - 1; }\n";
        let sites = operator_sites(src);
        let ops: Vec<char> = sites.iter().map(|&i| src.as_bytes()[i] as char).collect();
        assert_eq!(ops, ['*']);
    }
}
