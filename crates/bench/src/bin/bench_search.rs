//! Machine-readable allocation-search perf snapshot — the
//! `BENCH_search.json` artifact CI archives on every run, and the
//! search-engine acceptance gates.
//!
//! For each bundled benchmark it runs the *full-sweep* `search_best`
//! end to end twice: the unbounded memoised engine (the baseline),
//! then the default engine with branch-and-bound on — the
//! communication-floored bound, the lane-chunked DP kernel and the
//! work-stealing scheduler, all unconditional. It reports wall time,
//! candidates visited vs space size, the prune ratio and the steal
//! count, and verifies on the spot that the bounded engine returns the
//! field-exact same winner.
//!
//! It then runs one [`search_pareto`] sweep per app and replays a
//! bounded `search_best` at every frontier budget, failing unless each
//! replay reproduces its frontier point field-exactly. Under
//! `--check-speedup` the eigen sweep must also beat the total replay
//! time — the one-sweep-vs-N-budgets claim.
//!
//! ```text
//! cargo run --release -p lycos_bench --bin bench_search \
//!     [-- --check-speedup 3] > BENCH_search.json
//! ```
//!
//! `--check-speedup X` exits non-zero when the `eigen` full-sweep
//! speedup of the bounded engine over the unbounded baseline falls
//! below `X` — the gate CI runs at 3. `LYCOS_BENCH_QUICK` drops to
//! one timing repetition per engine (CI's perf-smoke mode); the
//! sweeps themselves always run the full space, since the full eigen
//! sweep *is* the gated workload.

use lycos::core::Restrictions;
use lycos::hwlib::{Area, HwLibrary};
use lycos::pace::{search_best, search_pareto, PaceConfig, SearchOptions};
use std::time::Instant;

/// Runs `f` `reps` times, returning the fastest wall time and the last
/// result (identical across reps — the engines are deterministic in
/// everything the report keeps).
fn best_of<T, F: FnMut() -> T>(reps: usize, mut f: F) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let res = f();
        best = best.min(started.elapsed().as_secs_f64());
        last = Some(res);
    }
    (best, last.expect("at least one rep"))
}

/// JSON number that degrades to `null` for non-finite values.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_owned()
    }
}

/// The default engine with branch-and-bound on.
struct BoundedReport {
    seconds: f64,
    evaluated: usize,
    bounded: u128,
    /// The part of `bounded` the controller-budget relaxation pruned
    /// one candidate at a time.
    budget_pruned: u64,
    prune_ratio: f64,
    steals: u64,
}

/// One frontier sweep vs replaying a bounded single-budget search at
/// every frontier budget.
struct ParetoReport {
    seconds: f64,
    points: usize,
    evaluated: usize,
    budget_pruned: u64,
    replay_seconds: f64,
    /// `replay_seconds / seconds` — above 1.0 means the single sweep
    /// beats the N-budget replay.
    speedup_vs_replay: f64,
}

struct AppReport {
    name: &'static str,
    space: u128,
    baseline_seconds: f64,
    baseline_evaluated: usize,
    baseline_skipped: usize,
    bounded: BoundedReport,
    dirty_ratio: f64,
    /// Bounded engine vs the unbounded one — the gated number.
    speedup_vs_baseline: f64,
    pareto: ParetoReport,
}

fn main() {
    let mut check_speedup: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check-speedup" => {
                let v = args.next().and_then(|s| s.parse::<f64>().ok());
                match v {
                    Some(v) => check_speedup = Some(v),
                    None => {
                        eprintln!("bench_search: --check-speedup needs a number");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "bench_search: unknown argument `{other}` (expected --check-speedup <x>)"
                );
                std::process::exit(2);
            }
        }
    }

    let reps = if std::env::var_os("LYCOS_BENCH_QUICK").is_some() {
        1
    } else {
        2
    };
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let mut reports = Vec::new();

    for app in lycos::apps::all() {
        let bsbs = app.bsbs();
        let area = Area::new(app.area_budget);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        // Full sweeps: no evaluation limit — the whole point of the
        // bound is surviving the space the paper calls impossible.
        let baseline_opts = SearchOptions::new().limit(None);
        let (baseline_seconds, baseline) = best_of(reps, || {
            search_best(&bsbs, &lib, area, &restr, &pace, &baseline_opts).unwrap()
        });

        let bounded_opts = SearchOptions::new().limit(None).bound(true);
        let (bounded_seconds, result) = best_of(reps, || {
            search_best(&bsbs, &lib, area, &restr, &pace, &bounded_opts).unwrap()
        });
        // The bound is only a speedup if it is invisible in the result.
        if result.best_allocation != baseline.best_allocation
            || result.best_partition != baseline.best_partition
        {
            eprintln!(
                "bench_search: {}/bounded: winner diverged from the baseline engine",
                app.name
            );
            std::process::exit(1);
        }
        let accounted = result.points_accounted();
        if accounted != result.space_size {
            eprintln!(
                "bench_search: {}/bounded: accounting hole ({} of {} points)",
                app.name, accounted, result.space_size
            );
            std::process::exit(1);
        }
        let bounded = BoundedReport {
            seconds: bounded_seconds,
            evaluated: result.evaluated,
            bounded: result.stats.bounded,
            budget_pruned: result.stats.budget_pruned,
            prune_ratio: result.stats.bounded as f64 / result.space_size.max(1) as f64,
            steals: result.stats.steals,
        };

        // One Pareto sweep under the bounded engine, then a bounded
        // single-budget replay at every frontier area. Each replay
        // must land on its frontier point field-exactly — the
        // sweep-equals-N-runs claim, checked on every app.
        let (pareto_seconds, front) = best_of(reps, || {
            search_pareto(&bsbs, &lib, area, &restr, &pace, &bounded_opts).unwrap()
        });
        if front.points_accounted() != front.space_size {
            eprintln!(
                "bench_search: {}/pareto: accounting hole ({} of {} points)",
                app.name,
                front.points_accounted(),
                front.space_size
            );
            std::process::exit(1);
        }
        let mut replay_seconds = 0.0;
        for point in &front.points {
            let started = Instant::now();
            let replay = search_best(
                &bsbs,
                &lib,
                Area::new(point.area.gates()),
                &restr,
                &pace,
                &bounded_opts,
            )
            .unwrap();
            replay_seconds += started.elapsed().as_secs_f64();
            if replay.best_allocation != point.allocation
                || replay.best_partition != point.partition
            {
                eprintln!(
                    "bench_search: {}/pareto: replay at {} gates diverged from the frontier",
                    app.name,
                    point.area.gates()
                );
                std::process::exit(1);
            }
        }
        let pareto = ParetoReport {
            seconds: pareto_seconds,
            points: front.points.len(),
            evaluated: front.evaluated,
            budget_pruned: front.stats.budget_pruned,
            replay_seconds,
            speedup_vs_replay: replay_seconds / pareto_seconds.max(f64::EPSILON),
        };

        let report = AppReport {
            name: app.name,
            space: baseline.space_size,
            baseline_seconds,
            baseline_evaluated: baseline.evaluated,
            baseline_skipped: baseline.skipped,
            dirty_ratio: result.stats.dirty_ratio(),
            speedup_vs_baseline: baseline_seconds / bounded.seconds.max(f64::EPSILON),
            bounded,
            pareto,
        };
        eprintln!(
            "[bench_search] {}: space {} | baseline {:.3}s ({} evals) | bounded {:.3}s \
             ({} evals, {:.1}% pruned, {} by the controller budget) → {:.2}x vs baseline",
            report.name,
            report.space,
            report.baseline_seconds,
            report.baseline_evaluated,
            report.bounded.seconds,
            report.bounded.evaluated,
            report.bounded.prune_ratio * 100.0,
            report.bounded.budget_pruned,
            report.speedup_vs_baseline,
        );
        eprintln!(
            "[bench_search] {}: pareto {:.3}s for {} points vs {:.3}s replaying each budget \
             → {:.2}x",
            report.name,
            report.pareto.seconds,
            report.pareto.points,
            report.pareto.replay_seconds,
            report.pareto.speedup_vs_replay
        );
        reports.push(report);
    }

    let mut json = String::from("{\n  \"schema\": \"lycos-bench-search/5\",\n  \"apps\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"space_size\": {},\n      \
             \"baseline\": {{\n        \"seconds\": {},\n        \"evaluated\": {},\n        \
             \"skipped\": {}\n      }},\n      \"bounded\": {{\n        \"seconds\": {},\n        \
             \"evaluated\": {},\n        \"bounded\": {},\n        \"budget_pruned\": {},\n        \
             \"prune_ratio\": {},\n        \"steals\": {}\n      }},\n      \"dirty_ratio\": {},\n      \
             \"speedup_vs_baseline\": {},\n      \"pareto\": {{\n        \"seconds\": {},\n        \
             \"points\": {},\n        \"evaluated\": {},\n        \"budget_pruned\": {},\n        \
             \"replay_seconds\": {},\n        \
             \"speedup_vs_replay\": {}\n      }}\n    }}{}\n",
            r.name,
            r.space,
            json_num(r.baseline_seconds),
            r.baseline_evaluated,
            r.baseline_skipped,
            json_num(r.bounded.seconds),
            r.bounded.evaluated,
            r.bounded.bounded,
            r.bounded.budget_pruned,
            json_num(r.bounded.prune_ratio),
            r.bounded.steals,
            json_num(r.dirty_ratio),
            json_num(r.speedup_vs_baseline),
            json_num(r.pareto.seconds),
            r.pareto.points,
            r.pareto.evaluated,
            r.pareto.budget_pruned,
            json_num(r.pareto.replay_seconds),
            json_num(r.pareto.speedup_vs_replay),
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    print!("{json}");

    if let Some(min) = check_speedup {
        let eigen = reports
            .iter()
            .find(|r| r.name == "eigen")
            .expect("eigen is bundled");
        if eigen.speedup_vs_baseline < min {
            eprintln!(
                "bench_search: eigen full-sweep bounded speedup {:.2}x is below the \
                 {min:.2}x gate",
                eigen.speedup_vs_baseline
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_search: eigen full-sweep bounded speedup {:.2}x meets the {min:.2}x gate",
            eigen.speedup_vs_baseline
        );
        // The Pareto claim rides the same flag: one frontier sweep
        // must beat replaying a bounded search per frontier budget.
        if eigen.pareto.speedup_vs_replay < 1.0 {
            eprintln!(
                "bench_search: eigen pareto sweep {:.2}x is slower than the per-budget replay",
                eigen.pareto.speedup_vs_replay
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_search: eigen pareto sweep beats the {}-budget replay {:.2}x",
            eigen.pareto.points, eigen.pareto.speedup_vs_replay
        );
    }
}
