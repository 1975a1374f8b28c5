//! `lycos` — command-line driver for the LYCOS reproduction.
//!
//! ```text
//! lycos inspect  <file.lyc>              show CDFG, BSBs and profiles
//! lycos allocate <file.lyc> <area>       run Algorithm 1
//! lycos partition <file.lyc> <area>      allocate, then PACE
//! lycos best     <file.lyc> <area>       exhaustive best allocation
//! lycos pareto   <file.lyc> <area>       whole time×area frontier, one sweep
//! lycos table1                            reproduce Table 1
//! lycos serve                             run the allocation service
//! lycos apps                              list bundled benchmarks
//! ```
//!
//! All commands drive the [`lycos::Pipeline`] facade; `best` drops to
//! the exploration layer for the exhaustive search, `serve` hands the
//! parsed knobs to `lycos_serve`.

use lycos::core::{AllocConfig, Restrictions};
use lycos::explore::{format_pareto, format_pareto_csv, format_table1, Table1Options};
use lycos::hwlib::{Area, HwLibrary};
use lycos::pace::{search_knob, KnobKind, KnobSetting, SearchKnob, SearchOptions, SEARCH_KNOBS};
use lycos::Pipeline;
use lycos_serve::{ServeConfig, Server};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("inspect") => inspect(&args[1..]),
        Some("allocate") => cmd_allocate(&args[1..]),
        Some("partition") => cmd_partition(&args[1..]),
        Some("best") => cmd_best(&args[1..]),
        Some("pareto") => cmd_pareto(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("table1") => cmd_table1(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("apps") => cmd_apps(),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lycos: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
lycos — hardware resource allocation for HW/SW partitioning (DATE 1998)

usage:
  lycos inspect   <file.lyc>          show the CDFG tree and BSB array
  lycos allocate  <file.lyc> <area>   run the allocation algorithm
  lycos partition <file.lyc> <area>   allocate, then partition with PACE
  lycos best      <file.lyc> <area>   search the space for the best allocation
  lycos pareto    <file.lyc> <area>   one sweep: the whole time×area Pareto
                                      frontier up to <area> (--csv for the
                                      machine-readable form)
  lycos explain   <file.lyc> <area>   step-by-step allocation trace
  lycos table1                        reproduce Table 1 on the bundled apps
  lycos serve                         run the batch allocation service
  lycos apps                          list the bundled benchmark apps

search knobs (best, pareto, table1; request defaults for serve):
  --threads <n>     sweep workers (0 = one per core; default 0)
  --limit <n>       cap on evaluated allocations (0 = unlimited;
                    best, table1 and serve default to 200000)
  --bound           branch-and-bound sweep: prune subtrees an
                    admissible lower bound proves hopeless, and
                    single candidates whose controller budget
                    cannot pay for their speed-up (a knapsack
                    bound checked before each DP); the winner is
                    field-exact, only the evaluated / bounded
                    effort split changes
  --store-cap <n>   applications the cross-request artifact store
                    keeps resident (default 8; LRU eviction past
                    the cap; the store backs `serve` and `best`)
  --no-warm         disable cross-request warm starts: answers
                    served from a stored Pareto staircase, exact
                    repeats served their recorded answer, and
                    incumbent reseeding from recorded winners
                    (default on; results are field-identical either
                    way — warm repeats are just faster)
  --deadline-ms <n> anytime search: stop each sweep after <n> ms
                    and answer with the best-so-far winner (or the
                    partial Pareto frontier); the CSV `completion`
                    column says `deadline` when the cap fired
                    (0 = no deadline, the default)

serve knobs:
  --addr <host:port>   listen address (default 127.0.0.1:7878)
  --workers <n>        search jobs run concurrently (default 4)
  --queue <n>          connections held open beyond --workers; past
                       workers + queue open connections the server
                       answers `busy` (default 8)

<file.lyc> may also be a bundled app name: straight, hal, man, eigen.
";

/// The command-line spelling of one engine knob, fixed by its
/// [`KnobKind`]: value knobs and default-off switches get their bare
/// positive form, default-on switches their `--no-` form.
fn knob_flag(knob: &SearchKnob) -> String {
    match knob.kind {
        KnobKind::Count | KnobKind::OptionalCount | KnobKind::EnabledBy => {
            format!("--{}", knob.name)
        }
        KnobKind::DisabledBy => format!("--no-{}", knob.name),
    }
}

/// Every search flag the CLI accepts, derived from the engine's own
/// knob table ([`SEARCH_KNOBS`]) so the parser and its did-you-mean
/// candidates cannot drift from the engine surface.
fn search_flags() -> Vec<String> {
    SEARCH_KNOBS.iter().map(knob_flag).collect()
}

/// The switch knob a bare flag stem drives, and the state it sets:
/// `bound` → (bound, true), `no-warm` → (warm, false). `None` for
/// value knobs, unknown names, and spellings the knob's kind does not
/// admit (`--warm`, `--no-bound`).
fn switch_for(stem: &str) -> Option<(&'static SearchKnob, bool)> {
    match stem.strip_prefix("no-") {
        Some(base) => {
            let knob = search_knob(base)?;
            (knob.kind == KnobKind::DisabledBy).then_some((knob, false))
        }
        None => {
            let knob = search_knob(stem)?;
            (knob.kind == KnobKind::EnabledBy).then_some((knob, true))
        }
    }
}

/// Smallest number of single-character edits turning `a` into `b` —
/// classic two-row Levenshtein, plenty for flag names.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            row.push(subst.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The closest known flag, when it is close enough to be a plausible
/// typo (distance ≤ 3 — `--threds` → `--threads`).
fn closest_flag<'a>(unknown: &str, known: &[&'a str]) -> Option<&'a str> {
    known
        .iter()
        .map(|&k| (edit_distance(unknown, k), k))
        .min()
        .filter(|&(d, _)| d <= 3)
        .map(|(_, k)| k)
}

/// What flag parsing yields: positionals, search options, and the
/// command-specific `(flag, value)` pairs in order of appearance.
type ParsedFlags = (Vec<String>, SearchOptions, Vec<(String, String)>);

/// Pulls every engine knob of [`SEARCH_KNOBS`] out of `args` — value
/// flags such as `--threads N` and switches such as `--bound` or
/// `--no-warm`, in the spelling each knob's kind admits — plus any
/// command-specific value flags named in `extra` (for
/// `serve`: `--addr`, `--workers`, `--queue`). Returns the remaining
/// positional arguments, the search options, and the `extra` pairs in
/// order of appearance.
///
/// Any other `--` token is rejected with a "did you mean" hint
/// instead of being passed through as a bogus positional — a typo
/// like `--threds 4` must fail here, not resurface later as a
/// confusing missing-file error. `--flag=value` is accepted as a
/// synonym for `--flag value`.
fn parse_search_flags(
    args: &[String],
    default_limit: Option<usize>,
    extra: &[&'static str],
) -> Result<ParsedFlags, String> {
    let mut options = SearchOptions::new().limit(default_limit);
    let mut rest = Vec::new();
    let mut extras = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            rest.push(arg.clone());
            continue;
        }
        // `--flag=value` and `--flag value` are equivalent.
        let (flag, inline_value) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_owned())),
            None => (arg.as_str(), None),
        };
        let mut value = |flag: &str| -> Result<String, String> {
            match &inline_value {
                Some(v) => Ok(v.clone()),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value")),
            }
        };
        let number = |flag: &str, text: String| -> Result<usize, String> {
            text.parse::<usize>()
                .map_err(|_| format!("invalid {flag} value `{text}`"))
        };
        // Resolve the flag against the engine's knob table: value
        // knobs first (`--limit 0` = unlimited, per the knob's kind),
        // then the bare switches in the spelling their kind admits.
        let stem = flag.strip_prefix("--").expect("guarded by starts_with");
        if let Some(knob) = search_knob(stem).filter(|k| k.takes_value()) {
            let n = number(flag, value(flag)?)?;
            knob.apply(&mut options, knob.setting_from_count(n));
        } else if let Some((knob, on)) = switch_for(stem) {
            if inline_value.is_some() {
                return Err(format!("{flag} takes no value"));
            }
            knob.apply(&mut options, KnobSetting::Switch(on));
        } else if extra.contains(&flag) {
            let v = value(flag)?;
            extras.push((flag.to_owned(), v));
        } else {
            let flags = search_flags();
            let known: Vec<&str> = flags
                .iter()
                .map(String::as_str)
                .chain(extra.iter().copied())
                .collect();
            let hint = match closest_flag(flag, &known) {
                Some(suggestion) => format!(" (did you mean `{suggestion}`?)"),
                None => String::new(),
            };
            return Err(format!("unknown flag `{flag}`{hint}"));
        }
    }
    Ok((rest, options, extras))
}

/// Builds a pipeline over a bundled app name or a `.lyc` file path.
fn pipeline_for(path: &str) -> Result<Pipeline, String> {
    match path {
        "straight" | "hal" | "man" | "eigen" => {
            let app = lycos::apps::all()
                .into_iter()
                .find(|a| a.name == path)
                .expect("bundled app names are fixed");
            Ok(Pipeline::for_app(&app))
        }
        _ => {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Ok(Pipeline::new(source))
        }
    }
}

fn parse_area(args: &[String], at: usize) -> Result<Area, String> {
    let text = args
        .get(at)
        .ok_or_else(|| "missing <area> argument (gate equivalents)".to_owned())?;
    text.parse::<u64>()
        .map(Area::new)
        .map_err(|_| format!("invalid area `{text}`"))
}

fn inspect(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <file.lyc> argument")?;
    let compiled = pipeline_for(path)?.compile().map_err(|e| e.to_string())?;
    println!("{}", compiled.cdfg);
    println!("leaf BSB array ({} blocks):", compiled.bsbs.len());
    for b in &compiled.bsbs {
        println!(
            "  {}: {} ops, profile {}, reads {:?}, writes {:?}",
            b.name,
            b.op_count(),
            b.profile,
            b.reads.iter().collect::<Vec<_>>(),
            b.writes.iter().collect::<Vec<_>>()
        );
    }
    println!();
    print!("{}", lycos::ir::AppStats::of(&compiled.bsbs));
    Ok(())
}

fn cmd_allocate(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <file.lyc> argument")?;
    let area = parse_area(args, 1)?;
    let allocated = pipeline_for(path)?
        .with_budget(area)
        .allocate()
        .map_err(|e| e.to_string())?;
    let lib = allocated.library();
    println!(
        "restrictions : {}",
        allocated.restrictions.display_with(lib)
    );
    println!(
        "allocation   : {}",
        allocated.allocation().display_with(lib)
    );
    println!("data path    : {}", allocated.allocation().area(lib));
    println!(
        "controllers  : {} (pseudo partition)",
        allocated.outcome.controller_area
    );
    println!("remaining    : {}", allocated.outcome.remaining);
    println!(
        "pseudo HW    : {} of {} blocks",
        allocated.outcome.hw_bsbs().len(),
        allocated.bsbs.len()
    );
    Ok(())
}

fn cmd_partition(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <file.lyc> argument")?;
    let area = parse_area(args, 1)?;
    let allocated = pipeline_for(path)?
        .with_budget(area)
        .allocate()
        .map_err(|e| e.to_string())?;
    let part = allocated.partition().map_err(|e| e.to_string())?;
    let p = &part.partition;
    println!(
        "allocation : {}",
        part.allocation.display_with(allocated.library())
    );
    println!("speed-up   : {:.0}%", p.speedup_pct());
    println!("all-SW time: {}", p.all_sw_time);
    println!("hybrid time: {} (comm {})", p.total_time, p.comm_time);
    println!(
        "area       : datapath {} + controllers {}",
        p.datapath_area, p.controller_area
    );
    for (i, b) in allocated.bsbs.iter().enumerate() {
        println!("  [{}] {}", if p.in_hw[i] { "HW" } else { "sw" }, b.name);
    }
    Ok(())
}

fn cmd_best(args: &[String]) -> Result<(), String> {
    let (rest, options, _) = parse_search_flags(args, Some(200_000), &[])?;
    let path = rest.first().ok_or("missing <file.lyc> argument")?;
    let area = parse_area(&rest, 1)?;
    if let Some(extra) = rest.get(2) {
        return Err(format!("unexpected argument `{extra}`\n{USAGE}"));
    }
    // The search baseline needs only the compiled BSBs and the
    // restriction caps — no heuristic allocation.
    let compiled = pipeline_for(path)?.compile().map_err(|e| e.to_string())?;
    let lib = HwLibrary::standard();
    let pace = lycos::pace::PaceConfig::standard();
    let restr = Restrictions::from_asap(&compiled.bsbs, &lib).map_err(|e| e.to_string())?;
    // Route through the artifact seam with a one-shot store so the
    // engine line below reports live store telemetry (a single
    // invocation always builds cold: 1 miss, 0 hits, no reseed).
    let store = lycos::pace::ArtifactStore::new(options.store_cap);
    let res = lycos::explore::flow::search(
        &compiled.bsbs,
        &lib,
        area,
        &restr,
        &pace,
        &options,
        Some(&store),
        &lycos::pace::StopSignal::never(),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "space      : {} allocations ({} evaluated, {} skipped{}{})",
        res.space_size,
        res.evaluated,
        res.skipped,
        if res.stats.bounded > 0 {
            format!(
                ", {} bound-pruned ({} by the controller budget)",
                res.stats.bounded, res.stats.budget_pruned
            )
        } else {
            String::new()
        },
        if res.truncated { ", truncated" } else { "" }
    );
    // An anytime stop leaves part of the window unvisited; say so
    // rather than letting the space line quietly stop adding up.
    if !res.stats.completion.is_complete() {
        println!(
            "stopped    : {} after {} of {} points ({} unvisited)",
            res.stats.completion,
            res.space_size - res.stats.unvisited,
            res.space_size,
            res.stats.unvisited,
        );
    }
    println!("best       : {}", res.best_allocation.display_with(&lib));
    println!("speed-up   : {:.0}%", res.best_partition.speedup_pct());
    println!(
        "engine     : {} thread(s), {:.0} evals/s, cache hit rate {:.1}% ({} hits / {} misses), \
         dirty ratio {:.3}, {:.3}s",
        res.stats.threads,
        res.eval_rate(),
        res.stats.hit_rate() * 100.0,
        res.stats.cache_hits,
        res.stats.cache_misses,
        res.stats.dirty_ratio(),
        res.stats.elapsed.as_secs_f64(),
    );
    println!(
        "artifacts  : {} store hit(s) / {} miss(es), warm reseed {}",
        res.stats.artifact_hits,
        res.stats.artifact_misses,
        if res.stats.warm_reseeded { "on" } else { "off" },
    );
    println!(
        "incremental: {} diff build(s), {} block(s) reused / {} re-derived",
        res.stats.incremental_hits, res.stats.blocks_reused, res.stats.blocks_rederived,
    );
    Ok(())
}

fn cmd_pareto(args: &[String]) -> Result<(), String> {
    // `--csv` is pareto-specific and bare; strip it before the shared
    // search-flag parse, whose extras only cover value-taking flags.
    let mut csv = false;
    let mut filtered = Vec::new();
    for arg in args {
        if arg == "--csv" {
            csv = true;
        } else if arg.starts_with("--csv=") {
            return Err("--csv takes no value".to_owned());
        } else {
            filtered.push(arg.clone());
        }
    }
    let (rest, options, _) = parse_search_flags(&filtered, Some(200_000), &[])?;
    let path = rest.first().ok_or("missing <file.lyc> argument")?;
    let area = parse_area(&rest, 1)?;
    if let Some(extra) = rest.get(2) {
        return Err(format!("unexpected argument `{extra}`\n{USAGE}"));
    }
    // Like `best`: only the compiled BSBs and the restriction caps —
    // one sweep covers every budget up to <area>.
    let compiled = pipeline_for(path)?.compile().map_err(|e| e.to_string())?;
    let lib = HwLibrary::standard();
    let pace = lycos::pace::PaceConfig::standard();
    let restr = Restrictions::from_asap(&compiled.bsbs, &lib).map_err(|e| e.to_string())?;
    let front = lycos::explore::flow::pareto(
        &compiled.bsbs,
        &lib,
        area,
        &restr,
        &pace,
        &options,
        None,
        &lycos::pace::StopSignal::never(),
    )
    .map_err(|e| e.to_string())?;
    if csv {
        print!("{}", format_pareto_csv(path, &front));
    } else {
        print!("{}", format_pareto(path, &front));
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    use lycos::core::TraceEvent;
    let path = args.first().ok_or("missing <file.lyc> argument")?;
    let area = parse_area(args, 1)?;
    let allocated = pipeline_for(path)?
        .with_budget(area)
        .with_alloc_config(AllocConfig {
            record_trace: true,
            ..Default::default()
        })
        .allocate()
        .map_err(|e| e.to_string())?;
    let lib = allocated.library();
    let bsbs = &allocated.bsbs;
    let out = &allocated.outcome;
    println!(
        "allocation trace ({} steps, {} passes):",
        out.steps, out.passes
    );
    for event in &out.trace {
        match event {
            TraceEvent::Moved { bsb, req, cost } => println!(
                "  move {} to hardware: +{} (cost {cost})",
                bsbs.bsb(*bsb).name,
                req.display_with(lib)
            ),
            TraceEvent::Augmented { bsb, fu } => println!(
                "  {} is urgent: allocate one more {}",
                bsbs.bsb(*bsb).name,
                lib.fu(*fu).name
            ),
            TraceEvent::Skipped { bsb } => {
                println!("  skip {}", bsbs.bsb(*bsb).name)
            }
            TraceEvent::Restarted => println!("  -- urgencies changed, rescan --"),
        }
    }
    println!("final allocation: {}", out.allocation.display_with(lib));
    Ok(())
}

fn cmd_table1(args: &[String]) -> Result<(), String> {
    let (rest, search, _) = parse_search_flags(args, Some(200_000), &[])?;
    if let Some(extra) = rest.first() {
        return Err(format!("table1 takes no positional argument `{extra}`"));
    }
    let options = Table1Options::from_search_options(&search);
    let pipelines: Vec<Pipeline> = lycos::apps::all().iter().map(Pipeline::for_app).collect();
    let rows = Pipeline::table1_batch(&pipelines, &options).map_err(|e| e.to_string())?;
    print!("{}", format_table1(&rows));
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (rest, defaults, extras) =
        parse_search_flags(args, Some(200_000), &["--addr", "--workers", "--queue"])?;
    if let Some(extra) = rest.first() {
        return Err(format!("serve takes no positional argument `{extra}`"));
    }
    let mut config = ServeConfig {
        defaults,
        ..ServeConfig::default()
    };
    for (flag, value) in extras {
        match flag.as_str() {
            "--addr" => config.addr = value,
            "--workers" => {
                config.workers = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid --workers value `{value}`"))?;
            }
            "--queue" => {
                config.queue = value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --queue value `{value}`"))?;
            }
            _ => unreachable!("extras are limited to the declared flags"),
        }
    }
    let server = Server::bind(config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "lycos serve: listening on {addr} ({} workers, queue {}); send `shutdown` to stop",
        server.config().workers,
        server.config().queue,
    );
    server.run().map_err(|e| e.to_string())
}

fn cmd_apps() -> Result<(), String> {
    for app in lycos::apps::all() {
        println!(
            "{:<10} {:>4} lines, {:>2} BSBs, budget {} GE{}",
            app.name,
            app.lines,
            app.bsbs().len(),
            app.area_budget,
            match app.iteration {
                Some(_) => "  (design iteration in §5)",
                None => "",
            }
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_pass_through_untouched() {
        let (rest, opts, extras) =
            parse_search_flags(&args(&["hal", "7500"]), Some(200_000), &[]).unwrap();
        assert_eq!(rest, args(&["hal", "7500"]));
        assert_eq!(opts.limit, Some(200_000));
        assert_eq!(opts.threads, 0);
        assert!(!opts.bound, "branch-and-bound is opt-in");
        assert!(opts.warm, "warm starts are default-on");
        assert!(extras.is_empty());
    }

    #[test]
    fn default_on_switches_clear_with_their_no_form() {
        let (rest, opts, _) = parse_search_flags(&args(&["--no-warm", "hal"]), None, &[]).unwrap();
        assert_eq!(rest, args(&["hal"]));
        assert!(!opts.warm);
        // Bare switches: `=value` is rejected.
        let err = parse_search_flags(&args(&["--no-warm=on"]), None, &[]).unwrap_err();
        assert_eq!(err, "--no-warm takes no value");
        // And typos get did-you-mean hints.
        let err = parse_search_flags(&args(&["--no-wram"]), None, &[]).unwrap_err();
        assert!(err.contains("did you mean `--no-warm`?"), "{err}");
    }

    #[test]
    fn bound_flag_is_a_bare_switch() {
        let (rest, opts, _) =
            parse_search_flags(&args(&["--bound", "eigen", "12000"]), None, &[]).unwrap();
        assert_eq!(rest, args(&["eigen", "12000"]));
        assert!(opts.bound);
        let err = parse_search_flags(&args(&["--bound=yes"]), None, &[]).unwrap_err();
        assert_eq!(err, "--bound takes no value");
        let err = parse_search_flags(&args(&["--buond"]), None, &[]).unwrap_err();
        assert!(err.contains("did you mean `--bound`?"), "{err}");
    }

    #[test]
    fn flags_interleave_with_positionals() {
        let (rest, opts, _) = parse_search_flags(
            &args(&[
                "--threads",
                "4",
                "hal",
                "--limit",
                "50",
                "7500",
                "--no-warm",
            ]),
            None,
            &[],
        )
        .unwrap();
        assert_eq!(rest, args(&["hal", "7500"]));
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.limit, Some(50));
        assert!(!opts.warm);
    }

    #[test]
    fn limit_zero_means_unlimited() {
        let (_, opts, _) =
            parse_search_flags(&args(&["--limit", "0"]), Some(200_000), &[]).unwrap();
        assert_eq!(opts.limit, None);
    }

    #[test]
    fn equals_form_is_accepted() {
        let (rest, opts, extras) = parse_search_flags(
            &args(&["--threads=2", "--limit=7", "--addr=0.0.0.0:9"]),
            None,
            &["--addr"],
        )
        .unwrap();
        assert!(rest.is_empty());
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.limit, Some(7));
        assert_eq!(extras, vec![("--addr".to_owned(), "0.0.0.0:9".to_owned())]);
    }

    #[test]
    fn unknown_flags_are_rejected_with_a_suggestion() {
        // The motivating bug: `--threds 4` used to become a bogus
        // positional and die later as a missing-file error.
        let err = parse_search_flags(&args(&["--threds", "4"]), None, &[]).unwrap_err();
        assert!(err.contains("unknown flag `--threds`"), "{err}");
        assert!(err.contains("did you mean `--threads`?"), "{err}");

        let err = parse_search_flags(&args(&["--warm"]), None, &[]).unwrap_err();
        assert!(err.contains("did you mean `--no-warm`?"), "{err}");

        // Retired engine levers fail through the same generic path.
        for flag in [
            "--steal",
            "--no-steal",
            "--simd",
            "--no-simd",
            "--bound-comm",
            "--no-bound-comm",
            "--no-cache",
            "--no-incremental",
        ] {
            let err = parse_search_flags(&args(&[flag]), None, &[]).unwrap_err();
            assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        }
        for input in [&["--dp-threads", "2"][..], &["--dp-threads=0"]] {
            let err = parse_search_flags(&args(input), None, &[]).unwrap_err();
            assert!(err.contains("unknown flag `--dp-threads`"), "{err}");
        }

        // Far-off garbage gets no misleading suggestion.
        let err = parse_search_flags(&args(&["--frobnicate-now"]), None, &[]).unwrap_err();
        assert!(err.contains("unknown flag `--frobnicate-now`"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn suggestions_cover_command_specific_flags() {
        let err = parse_search_flags(&args(&["--adr", "x"]), None, &["--addr"]).unwrap_err();
        assert!(err.contains("did you mean `--addr`?"), "{err}");
        // The same flag without the extras declaration is unknown for
        // other commands — serve knobs don't leak into `best`.
        let err = parse_search_flags(&args(&["--addr", "x"]), None, &[]).unwrap_err();
        assert!(err.contains("unknown flag `--addr`"), "{err}");
    }

    #[test]
    fn missing_and_malformed_values_error_cleanly() {
        let err = parse_search_flags(&args(&["--threads"]), None, &[]).unwrap_err();
        assert_eq!(err, "--threads needs a value");
        let err = parse_search_flags(&args(&["--limit", "many"]), None, &[]).unwrap_err();
        assert_eq!(err, "invalid --limit value `many`");
        let err = parse_search_flags(&args(&["--no-warm=yes"]), None, &[]).unwrap_err();
        assert_eq!(err, "--no-warm takes no value");
        let err = parse_search_flags(&args(&["--addr"]), None, &["--addr"]).unwrap_err();
        assert_eq!(err, "--addr needs a value");
    }

    #[test]
    fn extras_preserve_order_and_repeats() {
        let (_, _, extras) = parse_search_flags(
            &args(&["--addr", "a:1", "--workers", "2", "--addr", "b:2"]),
            None,
            &["--addr", "--workers"],
        )
        .unwrap();
        assert_eq!(
            extras,
            vec![
                ("--addr".to_owned(), "a:1".to_owned()),
                ("--workers".to_owned(), "2".to_owned()),
                ("--addr".to_owned(), "b:2".to_owned()),
            ]
        );
    }

    #[test]
    fn edit_distance_grounds_the_suggestions() {
        assert_eq!(edit_distance("--threds", "--threads"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
        let flags = search_flags();
        let known: Vec<&str> = flags.iter().map(String::as_str).collect();
        assert_eq!(closest_flag("--thread", &known), Some("--threads"));
        assert_eq!(closest_flag("--zzzzzzzzz", &known), None);
    }

    #[test]
    fn flag_list_is_derived_from_the_knob_table() {
        // Pin of the full flag surface, generated from SEARCH_KNOBS.
        // A knob added to the engine table shows up here (and in the
        // did-you-mean candidates) without any CLI edit.
        assert_eq!(
            search_flags(),
            [
                "--threads",
                "--limit",
                "--bound",
                "--store-cap",
                "--no-warm",
                "--deadline-ms",
            ]
        );
        // The spellings a kind does not admit stay rejected.
        assert!(switch_for("no-bound").is_none(), "--no-bound never existed");
        assert!(switch_for("warm").is_none(), "--warm never existed");
        assert!(
            switch_for("incremental").is_none(),
            "--incremental never existed"
        );
        assert!(
            switch_for("threads").is_none(),
            "value knobs are not switches"
        );
        assert!(switch_for("no-nonsense").is_none());
    }
}
