//! Outside-in benchmark of the LYCOS allocation service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|edit|connect> --seed <n> --seconds <s> --trace <0|1> \
//!     [--repeat <runs>] [--wrong-reference]
//! ```
//!
//! Run from the repository root. The command builds `lycos` (the CLI)
//! from the checkout, starts `lycos serve` as a child process, drives
//! one seeded closed-loop workload from a single client, checks a
//! seeded sample of the answers against a cold in-process reference,
//! and prints a report followed by one JSON line. With `--trace 1` it
//! then replays the same requests in process, timing every call into
//! a layer, and reports per-layer figures instead of end-to-end ones.
//! `--repeat` runs the workload several times on consecutive seeds
//! and prints each metric's median and quartile spread.
//! `--wrong-reference` corrupts the reference, to show that a wrong
//! answer fails the run.

mod check;
mod drive;
mod plan;
mod replay;
mod server;
mod stats;

use drive::{Measured, Outcome};
use plan::{Plan, Rng, Workload};
use replay::{Replay, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    wrong_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut repeat = None;
    let mut wrong_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--wrong-reference" {
            wrong_reference = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                repeat = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 2)
                        .ok_or_else(bad)?,
                )
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (sweep, edit or connect)")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        repeat,
        wrong_reference,
    })
}

/// A request line cut to a readable length for messages.
pub fn shorten(line: &str) -> String {
    const KEEP: usize = 80;
    match line.char_indices().nth(KEEP) {
        Some((at, _)) => format!("{}…", &line[..at]),
        None => line.to_owned(),
    }
}

/// Cargo's target directory for builds started here.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the `lycos` CLI from the repository in the working directory
/// and returns the binary's path.
fn build_lycos() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "lycos_cli",
            "--bin",
            "lycos",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building lycos failed ({status}); run from the repository root"
        ));
    }
    let binary = target_dir().join("release").join("lycos");
    if !binary.is_file() {
        return Err(format!("no binary at {}", binary.display()));
    }
    Ok(binary)
}

/// One named figure with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one run.
struct RunResult {
    attempted: usize,
    failed: usize,
    /// Reported in the JSON line: end-to-end figures, or per-layer
    /// figures under `--trace 1`.
    metrics: Vec<Metric>,
}

/// Checks a seeded sample of the answers, `checks_per_verb` requests
/// of each verb, against the cold reference. Returns the number of
/// wrong answers.
fn check_answers(
    plan: &Plan,
    samples: &[drive::Sample],
    seed: u64,
    wrong_reference: bool,
) -> Result<usize, String> {
    let defaults = lycos_serve::ServeConfig::default().defaults;
    let apps = lycos::apps::all();
    let mut rng = Rng::new(seed ^ 0x6368_6563_6b73);
    let mut by_verb: BTreeMap<&str, Vec<&drive::Sample>> = BTreeMap::new();
    for s in samples {
        if matches!(s.outcome, Outcome::Ok(_)) {
            let verb = s.line.split(' ').next().unwrap_or("");
            by_verb.entry(verb).or_default().push(s);
        }
    }
    let mut wrong = 0;
    for (verb, mut group) in by_verb {
        rng.shuffle(&mut group);
        for s in group.iter().take(plan.checks_per_verb) {
            let Outcome::Ok(served) = &s.outcome else {
                unreachable!("only answered requests are grouped")
            };
            let mut expected = check::reference(&s.line, &defaults, &apps)?;
            if wrong_reference {
                // Corrupt the winner's speed-up cell (column 4 of both
                // the Table 1 and the Pareto CSV).
                if let Some(row) = expected.get_mut(1) {
                    let mut cells: Vec<&str> = row.split(',').collect();
                    cells[3] = "wrong";
                    *row = cells.join(",");
                }
            }
            match check::compare(&expected, served) {
                Ok(()) => println!("  check  {verb:<7} ok     {}", shorten(&s.line)),
                Err(why) => {
                    wrong += 1;
                    println!("  check  {verb:<7} WRONG  {}: {why}", shorten(&s.line));
                }
            }
        }
    }
    Ok(wrong)
}

/// Latencies of the answered requests among `samples`, in order.
fn answered_ms(samples: &[drive::Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| matches!(s.outcome, Outcome::Ok(_)))
        .map(|s| s.ms)
        .collect()
}

/// End-to-end figures of a measured run.
///
/// The p90 and the throughput are taken per window of
/// [`stats::WINDOW`] consecutive requests, and each reports the calm
/// quartile of its windows: the first of the p90s, the third of the
/// rates. Other tenants of the host slow the program down in bursts of
/// seconds, and a burst inflates the tail of every window it covers.
/// On a shared 2-vCPU VM bursts covered up to half of a 30-second
/// `edit` run, and its whole-run p90 spread by nearly a third of its
/// median between runs of the same code; the calm quartile spread by a
/// tenth. A slower program still shows, as it slows the calm windows
/// too. A run of one window (`sweep`) reports its whole-run figures.
fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    let answered = answered_ms(&m.samples);
    let p50 =
        stats::nearest_rank(&stats::sorted(&answered), 50.0).ok_or("no request was answered")?;
    let (mut p90s, mut rates) = (Vec::new(), Vec::new());
    for w in stats::windows(m.samples.len(), stats::WINDOW) {
        let window = &m.samples[w.clone()];
        let ms = answered_ms(window);
        p90s.push(
            stats::tail_percentile(&stats::sorted(&ms), 90.0)
                .ok_or_else(|| format!("{} answers cannot support p90", ms.len()))?,
        );
        let opened = w.start.checked_sub(1).map_or(0.0, |i| m.samples[i].done_s);
        rates.push(ms.len() as f64 / (window[window.len() - 1].done_s - opened));
    }
    let (p90, _) = stats::window_quartiles(&p90s).ok_or("no request was measured")?;
    let (_, rate) = stats::window_quartiles(&rates).ok_or("no request was measured")?;
    let n = m.samples.len() as f64;
    Ok(vec![
        metric("setup_s", stats::median(&m.setup_s), "s"),
        metric("lat_ms_p50", p50, "ms"),
        metric("lat_ms_p90", p90, "ms"),
        metric("throughput_rps", rate, "1/s"),
        metric("cpu_ms_per_req", m.cpu_s * 1e3 / n, "ms"),
        metric("peak_rss_mb", m.peak_rss_mb, "MiB"),
    ])
}

/// Replays the warm-up and the first half of the measured passes in
/// process, untraced and traced on two separate server states, and
/// turns the traced spans into per-layer figures. Returns them with
/// the number of replayed answers that disagree with the served ones.
fn traced_replay(
    workload: Workload,
    seed: u64,
    plan: &Plan,
    m: &Measured,
) -> Result<(Vec<Metric>, usize), String> {
    let defaults = lycos_serve::ServeConfig::default().defaults;
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let mut untraced = Replay::new(defaults.clone(), &mut off);
    let mut traced = Replay::new(defaults, &mut on);
    let mut id = 1;
    for line in &plan.warmup {
        untraced.answer(id, line, &mut off)?;
        traced.answer(id, line, &mut on)?;
        id += 1;
    }
    let passes = m.passes.div_ceil(2);
    let replayed = &m.samples[..passes * plan.passes[0].len()];
    let (mut off_ms, mut on_ms) = (Vec::new(), Vec::new());
    let mut disagree = 0;
    for (i, s) in replayed.iter().enumerate() {
        // Alternate which side goes first so neither always runs on
        // the other's warm caches.
        let untraced_first = i % 2 == 0;
        for side in [untraced_first, !untraced_first] {
            let started = Instant::now();
            let wire = if side {
                untraced.answer(id, &s.line, &mut off)?
            } else {
                traced.answer(id, &s.line, &mut on)?
            };
            let ms = started.elapsed().as_secs_f64() * 1e3;
            if side {
                off_ms.push(ms);
            } else {
                on_ms.push(ms);
                let text = String::from_utf8(wire).map_err(|e| e.to_string())?;
                let lines: Vec<String> = text.lines().skip(1).map(str::to_owned).collect();
                if let Outcome::Ok(served) = &s.outcome {
                    if let Err(why) = check::compare(served, &lines) {
                        disagree += 1;
                        println!("  replay WRONG {}: {why}", shorten(&s.line));
                    }
                }
            }
        }
        id += 1;
    }

    let spans = on.spans();
    let dir = target_dir().join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{seed}.tsv", workload.name()));
    std::fs::write(&path, replay::spans_tsv(spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let own = replay::self_times_ns(spans);
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for (span, ns) in spans.iter().zip(&own) {
        *self_ns.entry(span.name).or_default() += ns;
    }
    let total_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(replay::Span::duration_ns)
        .sum();
    let served: Vec<f64> = replayed.iter().map(|s| s.ms).collect();
    let served_sum: f64 = served.iter().sum();
    let off_sum: f64 = off_ms.iter().sum();
    let on_sum: f64 = on_ms.iter().sum();
    // What a client waited beyond the in-process work: socket, accept,
    // dispatch. Negative differences are noise and count as none.
    let wire_total_ms = (served_sum - off_sum).max(0.0);
    let requests = (plan.warmup.len() + replayed.len()) as f64;
    let self_ms = |name| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let layer_ms = |name| self_ms(name) / requests;
    let share = |name| self_ms(name) / (total_ns as f64 / 1e6 + wire_total_ms);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let c = &traced.counts;
    println!(
        "  replay {} warm-up + {} measured requests ({} of {} passes); {} spans written to {}",
        plan.warmup.len(),
        replayed.len(),
        passes,
        m.passes,
        spans.len(),
        path.display()
    );
    println!(
        "  replay untraced {off_sum:.1} ms, traced {on_sum:.1} ms, served {served_sum:.1} ms \
         over the measured requests"
    );
    let metrics = vec![
        metric("serve.ms", layer_ms(replay::SERVE), "ms"),
        metric("frontend.ms", layer_ms(replay::FRONTEND), "ms"),
        metric("frontend.share", share(replay::FRONTEND), "ratio"),
        metric("ir.ms", layer_ms(replay::IR), "ms"),
        metric("core.ms", layer_ms(replay::CORE), "ms"),
        metric("pace.dp.ms", layer_ms(replay::DP), "ms"),
        metric("pace.artifacts.ms", layer_ms(replay::ARTIFACTS), "ms"),
        metric("pace.artifacts.share", share(replay::ARTIFACTS), "ratio"),
        metric(
            "pace.artifacts.hit_ratio",
            ratio(c.hits as f64, c.lookups as f64),
            "ratio",
        ),
        metric(
            "pace.artifacts.incremental_ratio",
            ratio(c.incremental as f64, c.lookups as f64),
            "ratio",
        ),
        metric(
            "pace.artifacts.reuse_ratio",
            ratio(
                c.blocks_reused as f64,
                (c.blocks_reused + c.blocks_rederived) as f64,
            ),
            "ratio",
        ),
        metric(
            "pace.artifacts.evictions",
            traced.store_stats().evictions as f64 / requests,
            "1/req",
        ),
        metric(
            "pace.artifacts.prepare_ms",
            ratio(c.cold_build_ns as f64 / 1e6, c.cold_builds as f64),
            "ms",
        ),
        metric("pace.search.ms", layer_ms(replay::SEARCH), "ms"),
        metric("pace.search.share", share(replay::SEARCH), "ratio"),
        metric(
            "pace.search.evaluated",
            ratio(c.evaluated as f64, c.searches as f64),
            "count",
        ),
        metric(
            "pace.search.evals_per_ms",
            ratio(c.evaluated as f64, self_ms(replay::SEARCH)),
            "1/ms",
        ),
        metric(
            "pace.search.prune_ratio",
            ratio(c.pruned as f64, c.space as f64),
            "ratio",
        ),
        metric(
            "pace.search.memo_hit_ratio",
            ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
            "ratio",
        ),
        metric(
            "pace.search.dirty_ratio",
            ratio(
                c.dirty_probes as f64,
                (c.dirty_probes + c.clean_reuses) as f64,
            ),
            "ratio",
        ),
        metric(
            "pace.search.reseeded_ratio",
            ratio(c.reseeded as f64, c.searches as f64),
            "ratio",
        ),
        metric("explore.ms", layer_ms(replay::EXPLORE), "ms"),
        metric(
            "wire.ms",
            stats::median(&served) - stats::median(&off_ms),
            "ms",
        ),
        metric(
            "replay.overhead_ratio",
            ratio(on_sum, off_sum) - 1.0,
            "ratio",
        ),
    ];
    Ok((metrics, disagree))
}

fn print_metrics(title: &str, metrics: &[Metric], note: impl Fn(&str) -> String) {
    println!("  {title}");
    for m in metrics {
        println!(
            "    {:<34} {:>14.4} {:<6} {}",
            m.name,
            m.value,
            m.unit,
            note(m.name)
        );
    }
}

/// One run of `args.workload` under `seed`.
fn run_once(lycos: &Path, args: &Args, seed: u64) -> Result<RunResult, String> {
    let apps = lycos::apps::all();
    let plan = plan::build(args.workload, seed, &apps)?;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench {} seed={seed} seconds={} workers={workers} ({})",
        args.workload.name(),
        args.seconds,
        if plan.fresh_connections {
            "one fresh connection per request"
        } else {
            "one keep-alive connection"
        }
    );
    let measured = drive::run(lycos, workers, &plan, args.seconds)?;
    let attempted = measured.samples.len();
    let mut failed = 0;
    for s in &measured.samples {
        if let Outcome::Failed(why) = &s.outcome {
            failed += 1;
            println!("  FAILED {}: {why}", shorten(&s.line));
        }
    }
    if plan.expects_incremental && measured.incremental_builds == 0 {
        failed += 1;
        println!("  FAILED: the server's stats show no incremental build");
    }
    failed += check_answers(&plan, &measured.samples, seed, args.wrong_reference)?;

    let e2e = end_to_end(&measured)?;
    let answered = attempted
        - measured
            .samples
            .iter()
            .filter(|s| matches!(s.outcome, Outcome::Failed(_)))
            .count();
    let windows = stats::windows(attempted, stats::WINDOW).len();
    print_metrics(
        "end to end (closed loop, one client)",
        &e2e,
        |name| match name {
            "setup_s" => format!("median of {} starts", measured.setup_s.len()),
            "lat_ms_p50" => format!("n={answered}"),
            "lat_ms_p90" => format!("n={answered}, first quartile of {windows} windows"),
            "throughput_rps" => format!(
                "{answered} answers in {:.2} s, third quartile of {windows} windows",
                measured.wall_s
            ),
            "cpu_ms_per_req" => {
                format!("{:.3} server CPU s / {attempted} requests", measured.cpu_s)
            }
            "peak_rss_mb" => "server VmHWM".to_owned(),
            _ => String::new(),
        },
    );
    println!(
        "    {:<34} {:>14.4} {:<6} {failed} of {attempted} failed",
        "fail_ratio",
        failed as f64 / attempted as f64,
        "ratio"
    );
    if !args.trace {
        return Ok(RunResult {
            attempted,
            failed,
            metrics: e2e,
        });
    }
    let (layers, disagree) = traced_replay(args.workload, seed, &plan, &measured)?;
    print_metrics("per layer (traced in-process replay)", &layers, |_| {
        String::new()
    });
    Ok(RunResult {
        attempted,
        failed: failed + disagree,
        metrics: layers,
    })
}

fn json_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// `--repeat`: the workload on consecutive seeds, then each metric's
/// median and interquartile spread relative to it.
fn steadiness(lycos: &Path, args: &Args, runs: usize) -> Result<bool, String> {
    let mut values: BTreeMap<&'static str, (Vec<f64>, &'static str)> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..runs as u64 {
        let result = run_once(lycos, args, args.seed + i)?;
        all_correct &= result.failed == 0;
        for m in result.metrics {
            values
                .entry(m.name)
                .or_insert((Vec::new(), m.unit))
                .0
                .push(m.value);
        }
    }
    println!(
        "steadiness of {} over seeds {}..={} ({} runs)",
        args.workload.name(),
        args.seed,
        args.seed + runs as u64 - 1,
        runs
    );
    println!(
        "  {:<34} {:>12} {:>12} {:>12} {:>8}  unit",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, (v, unit)) in &values {
        let (q1, q3) = stats::quartiles(v).expect("at least two runs");
        println!(
            "  {name:<34} {:>12.4} {q1:>12.4} {q3:>12.4} {:>8.4}  {unit}",
            stats::median(v),
            stats::relative_spread(v).unwrap_or(f64::NAN),
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = build_lycos().and_then(|lycos| match args.repeat {
        Some(runs) => steadiness(&lycos, &args, runs).map(|ok| (ok, None)),
        None => run_once(&lycos, &args, args.seed).map(|r| (r.failed == 0, Some(r))),
    });
    match outcome {
        Ok((correct, result)) => {
            if let Some(result) = result {
                println!("{}", json_line(&result));
            }
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
