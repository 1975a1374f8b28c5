//! Machine-readable serve-path snapshot — the `BENCH_serve.json`
//! artifact CI archives on every run, and the ISSUE 8 / ISSUE 9
//! acceptance gates.
//!
//! It spawns the allocation service in-process on an ephemeral port
//! and times the same bounded eigen `table1` request end to end over
//! the wire, in three regimes:
//!
//! * **cold** — first request against a fresh server builds the
//!   content-addressed `SearchArtifacts` and searches with no
//!   incumbent;
//! * **warm** — every repeat hits the cross-request store and is
//!   served the first request's recorded answer without a sweep; the
//!   `stats` verb must count every repeat in `front_hits`;
//! * **edited** — one computation in eigen's output-packing block is
//!   reworked and the mutated source re-sent to a server that holds
//!   the original: the store diffs the block fingerprints, clones
//!   every clean block's artifacts, re-derives only the dirty one and
//!   re-evaluates the donor's recorded winners as seeds. The *scratch*
//!   baseline sends the same mutated source to an empty server. Both
//!   sides use the interactive request shape — a truncated bounded
//!   sweep — because the edit loop is exactly where prepare cost
//!   dominates the round trip.
//!
//! Two robustness phases ride along (the ISSUE 10 acceptance gates):
//!
//! * **deadline** — a bounded eigen *full* sweep at a 16 000 GE budget
//!   issued in-process with a 25 ms deadline must return within 2× the
//!   deadline, truncated, with a feasible winner and exhaustive
//!   accounting; the same sweep over the wire (a 25 ms tiny deadline,
//!   primed store and warm reseeding off so the bound cannot finish
//!   the sweep early) must answer within 2× with the `deadline`
//!   completion marker and a non-empty incumbent;
//! * **soak** — a cancelled, a panicking and a deadline-truncated
//!   request run concurrently, after which the `stats` verb must
//!   count the caught panic and a clean batch must stay byte-identical
//!   to the in-process sequential CSV — the pool never shrank and the
//!   chaos left no residue.
//!
//! A frontier phase rides along:
//!
//! * **front** — a fresh server sweeps `pareto app=eigen@13000` once,
//!   which keeps its staircase on the store entry; the same bounded
//!   `table1` request as the cold phase, at eigen's lower Table 1
//!   budget, is then answered from the staircase without a sweep. Its
//!   winner columns must equal the cold response's, and the `stats`
//!   verb must count every repeat in `front_hits`.
//!
//! A connection phase rides along too:
//!
//! * **connect** — pings, each on a fresh connection (connect
//!   included), against a server with no other clients, then again
//!   with `4 × workers` idle keep-alive sockets held open (the queue
//!   sized to admit them). Idle sockets cost readers, never workers,
//!   so they must not move the tail. Both samples alternate over
//!   several rounds and each reported percentile is the median of the
//!   rounds' percentiles: a burst from another tenant of the host
//!   inflates one round's tail, not the gate.
//!
//! The run fails on the spot if a warm response's winner columns
//! diverge from the cold response, or an edited response's from the
//! scratch response — the reuse-is-invisible claims, checked over the
//! real protocol — and reports the store's hit ratio and incremental
//! reuse counters from the `stats` verb.
//!
//! ```text
//! cargo run --release -p lycos_bench --bin bench_serve \
//!     [-- --check-speedup 2 --check-edited 1.5 --check-front 5 \
//!         --check-connect-p99-ms 5 --check-idle-slack-ms 1] > BENCH_serve.json
//! ```
//!
//! `--check-speedup X` exits non-zero when the warm request is not at
//! least `X` times faster than the cold one (CI gates at 2);
//! `--check-edited X` does the same for the edited request against
//! the from-scratch build of the same mutated program (CI gates at
//! 1.5); `--check-front X` for the frontier-served request against the
//! cold one (CI gates at 5). `--check-connect-p99-ms X` exits non-zero when the
//! fresh-connection ping p99 exceeds `X` ms (CI gates at 5);
//! `--check-idle-slack-ms X` when the p99 with idle sockets held open
//! exceeds the p99 without them by more than `X` ms (CI gates at 1).
//! Both p99s are medians over the connection phase's rounds.
//! `LYCOS_BENCH_QUICK` drops to one cold trial and fewer warm
//! repeats (CI's perf-smoke mode); the edited gate keeps the best of
//! [`EDITED_TRIALS`] samples per side in every mode, so one host stall
//! cannot decide it. The requests themselves are never
//! reduced — the cold/warm phases always run the full bounded eigen
//! sweep and the edited phases its truncated interactive variant,
//! since those *are* the gated workloads.

use lycos::explore::TABLE1_CSV_HEADER;
use lycos::pace::SearchOptions;
use lycos_bench::{check_flags, gate, json_num, median, quantile};
use lycos_serve::protocol::encode;
use lycos_serve::{Client, Request, Response, ServeConfig, Server, STATS_CSV_HEADER};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const CONNECT_DEADLINE: Duration = Duration::from_secs(10);

/// Samples per side of the edited-vs-scratch comparison. Each sample
/// is one tens-of-ms request on a fresh server, so a single stall on
/// a busy host can triple it; the best of several sheds that.
const EDITED_TRIALS: usize = 5;
const REQUEST_LINE: &str = "table1 app=eigen bound format=csv";

/// The sweep whose stored staircase serves [`REQUEST_LINE`] in the
/// frontier phase: a cap above eigen's Table 1 budget.
const FRONT_LINE: &str = "pareto app=eigen@13000 bound format=csv";

/// The anytime gate's wall-clock budget for the bare search stage.
/// The gate sweeps eigen at [`DEADLINE_SWEEP_GATES`]: at eigen's Table
/// 1 budget the bounded sweep over fresh artifacts takes only ~21–25 ms
/// on a 2-vCPU container and sometimes completed inside the deadline.
const DEADLINE_MS: u64 = 25;

/// The budget both deadline gates sweep eigen at: its bounded sweep
/// takes several deadlines (~95–160 ms over the wire on a 2-vCPU
/// container), so a working deadline always truncates it.
const DEADLINE_SWEEP_GATES: u64 = 16_000;

/// The tiny deadline of the over-the-wire anytime gate. It must stay
/// well below the whole `no-warm` sweep over a primed store, or the
/// request completes instead of truncating. Since the DP rows became
/// staircases, the sweep at eigen's Table 1 budget takes ~25–45 ms on
/// a 2-vCPU container — within reach of the deadline — so the gate
/// sweeps at [`DEADLINE_SWEEP_GATES`]. The 2× wall budget also
/// covers the fixed pipeline cost (frontend compile, allocation,
/// partition replays, the wire), which the in-process gate excludes.
const WIRE_DEADLINE_MS: u64 = 25;

/// Fresh connections per ping sample of the connection phase — the
/// p99 then has ten samples beyond it.
const CONNECT_PINGS: usize = 1_000;

/// Rounds of the connection phase, each one sample without and one
/// with the idle sockets; the gated p99s are medians over rounds.
const CONNECT_ROUNDS: usize = 5;

/// Workers of the connection phase's server; it holds
/// `4 × CONNECT_WORKERS` idle sockets open in its second sample.
const CONNECT_WORKERS: usize = 2;

/// CSV columns that identify the winner (name, budget, times, speedup
/// fractions, space size, truncated) as opposed to effort telemetry
/// (seconds, evaluated/skipped/bounded, eval rate, store and reuse
/// counters), which legitimately shrinks when an incumbent prunes
/// harder.
const WINNER_COLUMNS: [usize; 9] = [0, 1, 2, 3, 4, 5, 6, 12, 13];

fn spawn_server(defaults: SearchOptions) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue: 4,
        defaults,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// Sends one request line and returns (wall seconds, body lines).
fn timed_request(client: &mut Client, line: &str) -> (f64, Vec<String>) {
    let request = Request::parse(line).expect("parse request");
    let started = Instant::now();
    let response = client.send(&request).expect("send request");
    let seconds = started.elapsed().as_secs_f64();
    match response {
        Response::Ok(lines) => (seconds, lines),
        other => panic!("unexpected response {other:?}"),
    }
}

/// The named cell of the first data row of a CSV response.
fn csv_cell<'a>(lines: &'a [String], column: &str) -> &'a str {
    let at = TABLE1_CSV_HEADER
        .split(',')
        .position(|c| c == column)
        .expect("header names the column");
    lines
        .get(1)
        .and_then(|row| row.split(',').nth(at))
        .unwrap_or("")
}

fn winner_fields(lines: &[String]) -> Vec<String> {
    // Header + one eigen row; compare the row's winner columns only.
    let row = lines.get(1).expect("csv row");
    let cells: Vec<&str> = row.split(',').collect();
    WINNER_COLUMNS
        .iter()
        .map(|&i| cells.get(i).copied().unwrap_or("").to_owned())
        .collect()
}

/// The `stats` verb row, parsed into counters by header name.
fn store_stats(client: &mut Client) -> HashMap<String, u64> {
    let response = client.send(&Request::Stats).expect("send stats");
    let Response::Ok(lines) = response else {
        panic!("unexpected stats response");
    };
    assert_eq!(lines[0], STATS_CSV_HEADER, "stats header drifted");
    lines[0]
        .split(',')
        .zip(lines[1].split(','))
        .map(|(name, c)| (name.to_owned(), c.parse().unwrap()))
        .collect()
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let mut client = Client::connect_with_retry(addr, CONNECT_DEADLINE).expect("connect");
    assert_eq!(
        client.send(&Request::Shutdown).expect("send shutdown"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

/// Times `n` pings, each on a fresh connection (connect included),
/// and returns the milliseconds sorted ascending.
fn fresh_pings(addr: &str, n: usize) -> Vec<f64> {
    let mut ms: Vec<f64> = (0..n)
        .map(|_| {
            let started = Instant::now();
            let mut client = Client::connect(addr).expect("connect");
            let response = client.send(&Request::Ping).expect("send ping");
            let elapsed = started.elapsed().as_secs_f64() * 1e3;
            if response != Response::Pong {
                eprintln!("bench_serve: a fresh-connection ping answered {response:?}");
                std::process::exit(1);
            }
            elapsed
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Exits non-zero when `actual_ms` exceeds the `max_ms` gate.
fn gate_ms(label: &str, actual_ms: f64, max_ms: Option<f64>) {
    let Some(max_ms) = max_ms else { return };
    if actual_ms > max_ms {
        eprintln!("bench_serve: {label} {actual_ms:.3}ms exceeds the {max_ms:.3}ms gate");
        std::process::exit(1);
    }
    eprintln!("bench_serve: {label} {actual_ms:.3}ms meets the {max_ms:.3}ms gate");
}

fn main() {
    let [check_speedup, check_edited, check_front, check_connect_p99_ms, check_idle_slack_ms] =
        check_flags(
            "bench_serve",
            [
                "--check-speedup",
                "--check-edited",
                "--check-front",
                "--check-connect-p99-ms",
                "--check-idle-slack-ms",
            ],
        );

    let quick = std::env::var_os("LYCOS_BENCH_QUICK").is_some();
    let (trials, warm_reps) = if quick { (1, 3) } else { (2, 5) };
    // Full bounded sweep — the store pays off where the search hurts.
    let defaults = SearchOptions {
        limit: None,
        ..SearchOptions::default()
    };

    // The edit: rework one computation in eigen's output-packing block
    // (the classic editor tweak — same variables in and out, different
    // data path). Every other block keeps its content fingerprint, so
    // the store diffs the request down to a single dirty block.
    let eigen = lycos::apps::eigen();
    let edited_source = eigen
        .source
        .replace("lamq = lam >> 2;", "lamq = lam + lam;");
    assert_ne!(edited_source, eigen.source, "the mutation target drifted");
    let budget = eigen.area_budget;
    // The edit-loop request is the interactive shape: a truncated
    // bounded sweep (the designer iterates inside a window, not over
    // the exhaustive space), which is exactly where prepare cost —
    // the thing the diff path removes — dominates the round trip.
    let original_line = format!(
        "table1 src={}@{budget} bound limit=1024 format=csv",
        encode(eigen.source)
    );
    let edited_line = format!(
        "table1 src={}@{budget} bound limit=1024 format=csv",
        encode(&edited_source)
    );

    // Cold: first request against a fresh server (and so a fresh
    // store) each trial; keep the fastest to shed scheduler noise.
    let mut cold_seconds = f64::INFINITY;
    let mut cold_lines = Vec::new();
    for _ in 0..trials {
        let (addr, handle) = spawn_server(defaults.clone());
        let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
        let (seconds, lines) = timed_request(&mut client, REQUEST_LINE);
        cold_seconds = cold_seconds.min(seconds);
        cold_lines = lines;
        drop(client);
        shutdown(&addr, handle);
    }
    let cold_winner = winner_fields(&cold_lines);
    eprintln!("[bench_serve] eigen cold: {cold_seconds:.3}s over {trials} fresh server(s)");

    // Warm: one server, prime the store once, then time repeats.
    let (addr, handle) = spawn_server(defaults.clone());
    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    let (_prime_seconds, _) = timed_request(&mut client, REQUEST_LINE);
    let mut warm_seconds = f64::INFINITY;
    for _ in 0..warm_reps {
        let (seconds, lines) = timed_request(&mut client, REQUEST_LINE);
        warm_seconds = warm_seconds.min(seconds);
        let warm_winner = winner_fields(&lines);
        if warm_winner != cold_winner {
            eprintln!(
                "bench_serve: warm winner columns diverged from cold \
                 ({warm_winner:?} vs {cold_winner:?})"
            );
            std::process::exit(1);
        }
    }
    let warm_stats = store_stats(&mut client);
    let (hits, misses, evictions) = (
        warm_stats["hits"],
        warm_stats["misses"],
        warm_stats["evictions"],
    );
    // A repeat that silently fell back to walking would still pass the
    // speed-up gate on a fast host; the served count does not.
    if warm_stats["front_hits"] != warm_reps as u64 {
        eprintln!(
            "bench_serve: {warm_reps} exact repeat(s) were served {} time(s)",
            warm_stats["front_hits"]
        );
        std::process::exit(1);
    }
    drop(client);
    shutdown(&addr, handle);

    // Scratch: the mutated program against an empty server — the
    // from-scratch baseline the edited phase must beat.
    let mut scratch_seconds = f64::INFINITY;
    let mut scratch_lines = Vec::new();
    for _ in 0..EDITED_TRIALS {
        let (addr, handle) = spawn_server(defaults.clone());
        let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
        let (seconds, lines) = timed_request(&mut client, &edited_line);
        scratch_seconds = scratch_seconds.min(seconds);
        scratch_lines = lines;
        drop(client);
        shutdown(&addr, handle);
    }
    let scratch_winner = winner_fields(&scratch_lines);
    eprintln!("[bench_serve] eigen edited from scratch: {scratch_seconds:.3}s");

    // Edited: prime a fresh server with the original, then time the
    // mutated request riding the incremental diff path. Each trial
    // needs its own server — a repeat would be a plain store hit.
    let mut edited_seconds = f64::INFINITY;
    let mut reuse = HashMap::new();
    for _ in 0..EDITED_TRIALS {
        let (addr, handle) = spawn_server(defaults.clone());
        let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
        let (_prime_seconds, _) = timed_request(&mut client, &original_line);
        let (seconds, lines) = timed_request(&mut client, &edited_line);
        edited_seconds = edited_seconds.min(seconds);
        let edited_winner = winner_fields(&lines);
        if edited_winner != scratch_winner {
            eprintln!(
                "bench_serve: edited winner columns diverged from scratch \
                 ({edited_winner:?} vs {scratch_winner:?})"
            );
            std::process::exit(1);
        }
        reuse = store_stats(&mut client);
        drop(client);
        shutdown(&addr, handle);
    }
    let (incremental, reused, rederived) =
        (reuse["incremental"], reuse["reused"], reuse["rederived"]);
    if incremental != 1 || reused == 0 {
        eprintln!(
            "bench_serve: the edited request did not ride the diff path \
             (incremental {incremental}, reused {reused}, rederived {rederived})"
        );
        std::process::exit(1);
    }

    // Front: one Pareto sweep above eigen's budget, then the cold
    // phase's own request, answered from the stored staircase.
    let (addr, handle) = spawn_server(defaults.clone());
    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    let (front_build_seconds, _) = timed_request(&mut client, FRONT_LINE);
    let mut front_seconds = f64::INFINITY;
    for _ in 0..warm_reps {
        let (seconds, lines) = timed_request(&mut client, REQUEST_LINE);
        front_seconds = front_seconds.min(seconds);
        let front_winner = winner_fields(&lines);
        if front_winner != cold_winner {
            eprintln!(
                "bench_serve: frontier-served winner columns diverged from cold \
                 ({front_winner:?} vs {cold_winner:?})"
            );
            std::process::exit(1);
        }
    }
    let front_hits = store_stats(&mut client)["front_hits"];
    if front_hits != warm_reps as u64 {
        eprintln!(
            "bench_serve: {warm_reps} request(s) under the stored staircase's cap \
             were served {front_hits} time(s)"
        );
        std::process::exit(1);
    }
    drop(client);
    shutdown(&addr, handle);
    eprintln!(
        "[bench_serve] eigen front: sweep {front_build_seconds:.3}s, then \
         {front_seconds:.4}s best of {warm_reps} served repeat(s)"
    );

    // Deadline, in process: the anytime gate on the bare search stage.
    // A bounded eigen *full* sweep at `DEADLINE_SWEEP_GATES`, issued
    // with a 25 ms deadline, must return within 2× the deadline, marked
    // `DeadlineTruncated`, with a feasible best-so-far winner and
    // accounting that sums to the space size.
    let search_wall = {
        use lycos::pace::{
            search_best_with_stop, Completion, PaceConfig, SearchArtifacts, StopSignal,
        };
        let bsbs = eigen.bsbs();
        let lib = lycos::hwlib::HwLibrary::standard();
        let pace = PaceConfig::standard();
        let area = lycos::hwlib::Area::new(DEADLINE_SWEEP_GATES);
        let restr = lycos::core::Restrictions::from_asap(&bsbs, &lib).expect("restrictions");
        let artifacts =
            SearchArtifacts::prepare(&bsbs, &lib, &restr, &pace).expect("prepare artifacts");
        let options = SearchOptions {
            threads: 1,
            limit: None,
            bound: true,
            deadline_ms: Some(DEADLINE_MS),
            ..SearchOptions::default()
        };
        let started = Instant::now();
        let res = search_best_with_stop(
            &bsbs,
            &lib,
            area,
            &pace,
            &options,
            &artifacts,
            &[],
            &StopSignal::never(),
        )
        .expect("deadline search");
        let wall = started.elapsed().as_secs_f64();
        let budget = 2.0 * DEADLINE_MS as f64 / 1_000.0;
        if res.stats.completion != Completion::DeadlineTruncated
            || res.best_gates > area.gates()
            || res.points_accounted() != res.space_size
            || wall > budget
        {
            eprintln!(
                "bench_serve: in-process {DEADLINE_MS}ms deadline gate failed \
                 (wall {wall:.3}s vs {budget:.3}s, completion {:?}, \
                 accounted {} of {})",
                res.stats.completion,
                res.points_accounted(),
                res.space_size
            );
            std::process::exit(1);
        }
        eprintln!(
            "[bench_serve] eigen {DEADLINE_MS}ms search deadline: {wall:.3}s wall, \
             {} of {} points accounted",
            res.points_accounted(),
            res.space_size
        );
        wall
    };

    // Deadline, over the wire. Against a primed store the round trip
    // is search-dominated — but with warm reseeding *off*, or the
    // recorded winner would let the bound finish the whole sweep
    // inside the deadline, and at a budget whose bounded sweep takes
    // several deadlines (see `WIRE_DEADLINE_MS`). The tiny deadline
    // must answer within 2×, marked `deadline`, with a non-empty
    // best-so-far incumbent.
    let deadline_line = format!(
        "table1 app=eigen@{DEADLINE_SWEEP_GATES} bound no-warm limit=0 threads=1 \
         deadline-ms={WIRE_DEADLINE_MS} timing format=csv"
    );
    let (addr, handle) = spawn_server(defaults.clone());
    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    let (_prime_seconds, _) = timed_request(&mut client, REQUEST_LINE);
    let mut deadline_wall = f64::INFINITY;
    let mut deadline_lines = Vec::new();
    for _ in 0..3 {
        let (seconds, lines) = timed_request(&mut client, &deadline_line);
        if seconds < deadline_wall {
            deadline_wall = seconds;
            deadline_lines = lines;
        }
    }
    drop(client);
    shutdown(&addr, handle);
    let completion = csv_cell(&deadline_lines, "completion");
    let incumbent = csv_cell(&deadline_lines, "best_su_pct");
    if completion != "deadline" || incumbent.is_empty() {
        eprintln!(
            "bench_serve: deadline request did not truncate with an incumbent \
             (completion `{completion}`, best_su_pct `{incumbent}`)"
        );
        std::process::exit(1);
    }
    let deadline_budget = 2.0 * WIRE_DEADLINE_MS as f64 / 1_000.0;
    if deadline_wall > deadline_budget {
        eprintln!(
            "bench_serve: deadline request took {deadline_wall:.3}s, \
             over the 2x budget of {deadline_budget:.3}s\n{deadline_lines:?}"
        );
        std::process::exit(1);
    }
    eprintln!(
        "[bench_serve] eigen {WIRE_DEADLINE_MS}ms request deadline: {deadline_wall:.3}s wall, \
         completion `{completion}`, incumbent {incumbent}%"
    );

    // Soak: a cancelled, a panicking and a deadline-truncated request
    // run concurrently; afterwards the `stats` verb must count the
    // caught panic and a clean batch must match the in-process
    // sequential CSV byte for byte — twice.
    let soak_panics;
    {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue: 8,
            defaults: defaults.clone(),
            fault_injection: true,
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port");
        let addr = server.local_addr().expect("bound address").to_string();
        let handle = std::thread::spawn(move || server.run().expect("server run"));

        let hog = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
                timed_request(
                    &mut client,
                    "table1 app=eigen bound limit=0 threads=1 timing format=csv job=91",
                )
                .1
            })
        };
        let faulty = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
                let request = Request::parse("table1 app=__panic").expect("parse request");
                client.send(&request).expect("send request")
            })
        };
        let truncated = {
            let addr = addr.clone();
            let deadline_line = deadline_line.clone();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
                timed_request(&mut client, &deadline_line).1
            })
        };
        let mut control = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
        loop {
            match control.send_line("cancel 91").expect("send cancel") {
                Response::Ok(_) => break,
                Response::Error(_) => std::thread::sleep(Duration::from_millis(10)),
                other => panic!("unexpected cancel response {other:?}"),
            }
        }
        let cancelled = hog.join().expect("cancelled request");
        if csv_cell(&cancelled, "completion") != "cancelled" {
            eprintln!("bench_serve: soak hog did not report `cancelled`: {cancelled:?}");
            std::process::exit(1);
        }
        match faulty.join().expect("panicking request") {
            Response::Error(msg) if msg.contains("panic") => {}
            other => {
                eprintln!("bench_serve: soak panic answered {other:?}");
                std::process::exit(1);
            }
        }
        let truncated = truncated.join().expect("deadlined request");
        if csv_cell(&truncated, "completion") != "deadline" {
            eprintln!("bench_serve: soak deadline did not report `deadline`: {truncated:?}");
            std::process::exit(1);
        }
        soak_panics = store_stats(&mut control)["panics"];
        if soak_panics == 0 {
            eprintln!("bench_serve: soak stats did not count the caught panic");
            std::process::exit(1);
        }

        // The clean batch, against the same resolved knobs the server
        // applies: request overrides on top of the server defaults.
        let resolved = SearchOptions {
            limit: Some(400),
            threads: 1,
            ..defaults.clone()
        };
        let options = lycos::explore::Table1Options::from_search_options(&resolved);
        let rows: Vec<_> = [lycos::apps::straight(), lycos::apps::hal()]
            .iter()
            .map(|app| {
                lycos::explore::table1_row(
                    app,
                    &lycos::hwlib::HwLibrary::standard(),
                    &lycos::pace::PaceConfig::standard(),
                    &options,
                )
                .expect("reference row")
            })
            .collect();
        let reference = lycos::explore::format_table1_csv(&rows, false);
        for round in 1..=2 {
            let (_seconds, lines) = timed_request(
                &mut control,
                "table1 apps=straight,hal limit=400 threads=1 format=csv",
            );
            let body = lines.join("\n") + "\n";
            if body != reference {
                eprintln!(
                    "bench_serve: soak batch {round} diverged from the \
                     sequential CSV:\n{body}---\n{reference}"
                );
                std::process::exit(1);
            }
        }
        drop(control);
        shutdown(&addr, handle);
    }
    eprintln!(
        "[bench_serve] soak: cancelled + panicked ({soak_panics}) + deadlined concurrently; \
         clean batches stayed byte-identical"
    );

    // Connect: fresh-connection pings against a server with no other
    // clients, then with 4 × workers idle keep-alive sockets held open
    // on the same server. The queue admits the idle sockets plus
    // `workers` more, so the sampling connection (and a reader still
    // exiting from the previous one) always fits under the cap.
    let idle_sockets = 4 * CONNECT_WORKERS;
    // Per round: (base p50, base p99, idle p50, idle p99).
    let rounds: Vec<[f64; 4]> = {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: CONNECT_WORKERS,
            queue: idle_sockets + CONNECT_WORKERS,
            defaults: defaults.clone(),
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port");
        let addr = server.local_addr().expect("bound address").to_string();
        let handle = std::thread::spawn(move || server.run().expect("server run"));
        let _warm_up = fresh_pings(&addr, CONNECT_PINGS / 10);
        let rounds = (0..CONNECT_ROUNDS)
            .map(|_| {
                let base = fresh_pings(&addr, CONNECT_PINGS);
                let idle: Vec<Client> = (0..idle_sockets)
                    .map(|_| {
                        let mut client = Client::connect(&addr).expect("connect");
                        assert_eq!(client.send(&Request::Ping).expect("ping"), Response::Pong);
                        client
                    })
                    .collect();
                let loaded = fresh_pings(&addr, CONNECT_PINGS);
                drop(idle);
                [
                    quantile(&base, 0.5),
                    quantile(&base, 0.99),
                    quantile(&loaded, 0.5),
                    quantile(&loaded, 0.99),
                ]
            })
            .collect();
        shutdown(&addr, handle);
        rounds
    };
    let [ping_p50, ping_p99, idle_p50, idle_p99] =
        [0, 1, 2, 3].map(|k| median(rounds.iter().map(|r| r[k]).collect()));
    eprintln!(
        "[bench_serve] fresh-connection ping, median over {CONNECT_ROUNDS} rounds of \
         {CONNECT_PINGS} connections: p50 {ping_p50:.3}ms, p99 {ping_p99:.3}ms; with \
         {idle_sockets} idle sockets: p50 {idle_p50:.3}ms, p99 {idle_p99:.3}ms"
    );

    let speedup = cold_seconds / warm_seconds.max(f64::EPSILON);
    let edited_speedup = scratch_seconds / edited_seconds.max(f64::EPSILON);
    let front_speedup = cold_seconds / front_seconds.max(f64::EPSILON);
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    eprintln!(
        "[bench_serve] eigen warm: {warm_seconds:.3}s best of {warm_reps} repeat(s) \
         → {speedup:.2}x vs cold; store {hits} hit(s) / {misses} miss(es)"
    );
    eprintln!(
        "[bench_serve] eigen edited: {edited_seconds:.3}s → {edited_speedup:.2}x vs scratch; \
         {reused} block(s) reused / {rederived} re-derived"
    );

    print!(
        "{{\n  \"schema\": \"lycos-bench-serve/6\",\n  \"app\": \"eigen\",\n  \
         \"request\": \"{REQUEST_LINE}\",\n  \"cold_seconds\": {},\n  \
         \"warm_seconds\": {},\n  \"speedup\": {},\n  \"edited\": {{\n    \
         \"scratch_seconds\": {},\n    \"edited_seconds\": {},\n    \
         \"speedup\": {},\n    \"blocks_reused\": {reused},\n    \
         \"blocks_rederived\": {rederived}\n  }},\n  \"front\": {{\n    \
         \"sweep\": \"{FRONT_LINE}\",\n    \"sweep_seconds\": {},\n    \
         \"served_seconds\": {},\n    \"speedup\": {},\n    \
         \"front_hits\": {front_hits}\n  }},\n  \"deadline\": {{\n    \
         \"search_deadline_ms\": {DEADLINE_MS},\n    \"search_wall_seconds\": {},\n    \
         \"wire_deadline_ms\": {WIRE_DEADLINE_MS},\n    \"wire_wall_seconds\": {},\n    \
         \"completion\": \"{completion}\"\n  }},\n  \"soak\": {{\n    \
         \"panics\": {soak_panics}\n  }},\n  \"store\": {{\n    \
         \"hits\": {hits},\n    \"misses\": {misses},\n    \"evictions\": {evictions},\n    \
         \"hit_ratio\": {}\n  }},\n  \"connect\": {{\n    \
         \"connections\": {CONNECT_PINGS},\n    \"rounds\": {CONNECT_ROUNDS},\n    \
         \"ping_p50_ms\": {},\n    \
         \"ping_p99_ms\": {},\n    \"idle_sockets\": {idle_sockets},\n    \
         \"idle_ping_p50_ms\": {},\n    \"idle_ping_p99_ms\": {}\n  }}\n}}\n",
        json_num(cold_seconds),
        json_num(warm_seconds),
        json_num(speedup),
        json_num(scratch_seconds),
        json_num(edited_seconds),
        json_num(edited_speedup),
        json_num(front_build_seconds),
        json_num(front_seconds),
        json_num(front_speedup),
        json_num(search_wall),
        json_num(deadline_wall),
        json_num(hit_ratio),
        json_num(ping_p50),
        json_num(ping_p99),
        json_num(idle_p50),
        json_num(idle_p99),
    );

    gate("bench_serve", "eigen warm request", speedup, check_speedup);
    gate(
        "bench_serve",
        "eigen edited request",
        edited_speedup,
        check_edited,
    );
    gate(
        "bench_serve",
        "eigen frontier-served request",
        front_speedup,
        check_front,
    );
    gate_ms("fresh-connection ping p99", ping_p99, check_connect_p99_ms);
    gate_ms(
        "ping p99 with idle sockets",
        idle_p99,
        check_idle_slack_ms.map(|slack| ping_p99 + slack),
    );
}
