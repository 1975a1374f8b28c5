//! Machine-readable PACE perf snapshot — the `BENCH_pace.json`
//! artifact CI archives on every run so the perf trajectory is
//! comparable across PRs.
//!
//! For each bundled benchmark it measures the DP core per candidate
//! exactly as a cached sweep pays for it (metrics precomputed, every
//! run priced): the retained PR 3 baseline
//! (`reference_partition_from_metrics`) against the allocation-free
//! scratch core (`partition_from_metrics`), reporting candidates/sec
//! for both, the speedup ratio, and the shape of the DP: its level
//! count and the mean number of staircase steps a row of the scratch
//! core stores (a dense row holds `levels + 1` cells). It also runs
//! the memoised search engine once per app and reports its
//! `eval_rate`, cache hit rate and key-allocation saving. A `comm_table` row times `eigen`'s full
//! run-traffic table both ways: the one-pass `CommCosts::priced` build
//! against pricing every run through `run_traffic`.
//!
//! ```text
//! cargo run --release -p lycos_bench --bin bench_pace \
//!     [-- --check-speedup 5] [--check-comm-speedup 10] > BENCH_pace.json
//! ```
//!
//! `--check-speedup X` exits non-zero when the `eigen` DP speedup
//! falls below `X` — the acceptance gate CI runs at 5, which the
//! staircase rows clear (13–17× on a 2-vCPU container) and a
//! dense-grid kernel (3–4×) does not.
//! `--check-comm-speedup X` exits non-zero when the one-pass table
//! build is less than `X` times faster than the per-run pricing; both
//! timings run in one process, so host noise moves them together.
//! `LYCOS_BENCH_QUICK` shortens the timing windows and the search
//! limit (CI's perf-smoke mode).

use lycos::core::{allocate, AllocConfig, Restrictions};
use lycos::hwlib::{Area, HwLibrary};
use lycos::pace::{
    compute_metrics, partition_from_metrics, reference_partition_from_metrics, run_traffic,
    search_best, CommCosts, DpScratch, PaceConfig, SearchOptions,
};
use lycos_bench::{check_flags, gate, json_num, time_per_call};
use std::time::Duration;

struct AppReport {
    name: &'static str,
    blocks: usize,
    baseline_per_sec: f64,
    scratch_per_sec: f64,
    speedup: f64,
    levels: u64,
    steps_per_row: f64,
    evaluated: usize,
    eval_rate: f64,
    hit_rate: f64,
    cache_hits: u64,
    cache_misses: u64,
    key_allocs: u64,
    search_seconds: f64,
}

fn main() {
    let [check_speedup, check_comm_speedup] =
        check_flags("bench_pace", ["--check-speedup", "--check-comm-speedup"]);

    let quick = std::env::var_os("LYCOS_BENCH_QUICK").is_some();
    let window = if quick {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(400)
    };
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let mut reports = Vec::new();

    for app in lycos::apps::all() {
        let bsbs = app.bsbs();
        let area = Area::new(app.area_budget);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let out = allocate(
            &bsbs,
            &lib,
            &pace.eca,
            area,
            &restr,
            &AllocConfig::default(),
        )
        .unwrap();
        let datapath = out.allocation.area(&lib);
        let ctl = area.checked_sub(datapath).unwrap();
        let metrics = compute_metrics(&bsbs, &lib, &out.allocation, &pace).unwrap();

        // DP core, per candidate, metrics cached and every run priced —
        // the steady state of a memoised sweep.
        let comm = CommCosts::priced(&bsbs, &pace.comm);
        let baseline_secs = time_per_call(window, || {
            std::hint::black_box(reference_partition_from_metrics(
                &bsbs, &metrics, &comm, datapath, ctl, &pace,
            ));
        });
        let mut scratch = DpScratch::new();
        let scratch_secs = time_per_call(window, || {
            std::hint::black_box(partition_from_metrics(
                &metrics,
                &comm,
                &mut scratch,
                datapath,
                ctl,
                &pace,
            ));
        });
        let steps_per_row = scratch.stored_steps() as f64 / bsbs.len() as f64;

        // One full engine run for the sweep-level telemetry.
        let limit = match app.name {
            "eigen" => Some(if quick { 500 } else { 1_500 }),
            _ => None,
        };
        let res = search_best(
            &bsbs,
            &lib,
            area,
            &restr,
            &pace,
            &SearchOptions {
                limit,
                ..SearchOptions::sequential()
            },
        )
        .unwrap();

        let report = AppReport {
            name: app.name,
            blocks: bsbs.len(),
            baseline_per_sec: 1.0 / baseline_secs,
            scratch_per_sec: 1.0 / scratch_secs,
            speedup: baseline_secs / scratch_secs,
            levels: ctl.gates() / pace.quantum,
            steps_per_row,
            evaluated: res.evaluated,
            eval_rate: res.eval_rate(),
            hit_rate: res.stats.hit_rate(),
            cache_hits: res.stats.cache_hits,
            cache_misses: res.stats.cache_misses,
            key_allocs: res.stats.key_allocs,
            search_seconds: res.stats.elapsed.as_secs_f64(),
        };
        eprintln!(
            "[bench_pace] {}: DP {:.0}/s baseline vs {:.0}/s scratch ({:.2}x), \
             {:.1} steps per row of {} levels; search {} evals, hit rate {:.1}%",
            report.name,
            report.baseline_per_sec,
            report.scratch_per_sec,
            report.speedup,
            report.steps_per_row,
            report.levels,
            report.evaluated,
            report.hit_rate * 100.0,
        );
        reports.push(report);
    }

    // The run-traffic table layer: eigen's every run, one pass against
    // one `run_traffic` call per run.
    let eigen_bsbs = lycos::apps::eigen().bsbs();
    let n = eigen_bsbs.len();
    let one_pass_secs = time_per_call(window, || {
        std::hint::black_box(CommCosts::priced(&eigen_bsbs, &pace.comm));
    });
    let per_run_secs = time_per_call(window, || {
        for j in 0..n {
            for k in j..n {
                std::hint::black_box(run_traffic(&eigen_bsbs, j, k).cost(&pace.comm));
            }
        }
    });
    let comm_speedup = per_run_secs / one_pass_secs;
    eprintln!(
        "[bench_pace] eigen comm table: {} runs, one pass {:.3} ms vs per run {:.3} ms ({:.1}x)",
        n * (n + 1) / 2,
        one_pass_secs * 1e3,
        per_run_secs * 1e3,
        comm_speedup,
    );

    let mut json = String::from("{\n  \"schema\": \"lycos-bench-pace/3\",\n");
    json.push_str(&format!(
        "  \"comm_table\": {{\n    \"app\": \"eigen\",\n    \"runs\": {},\n    \
         \"one_pass_ms\": {},\n    \"per_run_ms\": {},\n    \"speedup\": {}\n  }},\n",
        n * (n + 1) / 2,
        json_num(one_pass_secs * 1e3),
        json_num(per_run_secs * 1e3),
        json_num(comm_speedup),
    ));
    json.push_str("  \"apps\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"blocks\": {},\n      \"dp\": {{\n        \
             \"baseline_candidates_per_sec\": {},\n        \
             \"scratch_candidates_per_sec\": {},\n        \"speedup\": {},\n        \
             \"levels\": {},\n        \"steps_per_row\": {}\n      }},\n      \
             \"search\": {{\n        \"evaluated\": {},\n        \"eval_rate\": {},\n        \
             \"cache_hit_rate\": {},\n        \"cache_hits\": {},\n        \
             \"cache_misses\": {},\n        \"key_allocs\": {},\n        \
             \"elapsed_seconds\": {}\n      }}\n    }}{}\n",
            r.name,
            r.blocks,
            json_num(r.baseline_per_sec),
            json_num(r.scratch_per_sec),
            json_num(r.speedup),
            r.levels,
            json_num(r.steps_per_row),
            r.evaluated,
            json_num(r.eval_rate),
            json_num(r.hit_rate),
            r.cache_hits,
            r.cache_misses,
            r.key_allocs,
            json_num(r.search_seconds),
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    print!("{json}");

    let eigen = reports
        .iter()
        .find(|r| r.name == "eigen")
        .expect("eigen is bundled");
    gate("bench_pace", "eigen DP", eigen.speedup, check_speedup);
    gate(
        "bench_pace",
        "one-pass comm table",
        comm_speedup,
        check_comm_speedup,
    );
}
