//! End-to-end smoke tests of the allocation service: concurrent batch
//! requests must reproduce the sequential `table1 --csv` path
//! byte-for-byte, backpressure must answer `busy`, and shutdown must
//! drain gracefully.

use lycos::explore::{format_table1_csv, Table1Options};
use lycos::pace::SearchOptions;
use lycos::Pipeline;
use lycos_serve::{Client, Request, Response, ServeConfig, Server};
use std::collections::HashMap;
use std::time::Duration;

const CONNECT_DEADLINE: Duration = Duration::from_secs(10);

/// Binds an ephemeral port and runs the server on a plain OS thread,
/// returning the address and the join handle for the shutdown check.
fn spawn_server(config: ServeConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

#[test]
fn concurrent_batches_match_the_sequential_csv_byte_for_byte() {
    // Small spaces + a tight evaluation cap keep this debug-friendly;
    // the CI smoke step runs the full four-app batch in release mode.
    let options = Table1Options {
        search_limit: Some(400),
        threads: 1,
        ..Table1Options::default()
    };
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 4,
        queue: 8,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(400),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });

    // The sequential reference: the exact seam the `table1` bin uses.
    let apps = [lycos::apps::straight(), lycos::apps::hal()];
    let pipelines: Vec<Pipeline> = apps.iter().map(Pipeline::for_app).collect();
    let rows = Pipeline::table1_batch(&pipelines, &options).expect("sequential batch");
    let expected = format_table1_csv(&rows, false);

    // ≥4 concurrent batch requests, each on its own connection. The
    // request relies on the server defaults for threads/limit, so it
    // also proves the CLI-routed defaults reach the engine.
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
                let request = Request::parse("table1 apps=straight,hal format=csv").expect("parse");
                match client.send(&request).expect("send") {
                    Response::Ok(lines) => (i, lines),
                    other => panic!("client {i}: unexpected response {other:?}"),
                }
            })
        })
        .collect();
    for handle in clients {
        let (i, lines) = handle.join().expect("client thread");
        let got = lines.join("\n") + "\n";
        assert_eq!(got, expected, "client {i} drifted from the sequential CSV");
    }

    // Graceful shutdown: the run() thread returns once asked.
    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    assert_eq!(
        client.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

#[test]
fn per_request_options_and_budgets_are_honoured() {
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 2,
        queue: 2,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(50),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });
    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");

    // An inline source with an explicit budget, overriding the
    // request defaults; text format exercises the other emitter.
    let src = lycos_serve::protocol::encode(
        "app hot;\nloop l times 500 {\n  y = y + u * dx;\n  u = u - 3 * y * dx;\n}",
    );
    let line = format!("table1 src={src}@6000 threads=1 limit=400 format=text");
    match client.send_line(&line).expect("send") {
        Response::Ok(lines) => {
            assert!(lines[0].starts_with("Example"), "text header: {lines:?}");
            assert!(
                lines.iter().any(|l| l.starts_with("hot")),
                "row named after the app declaration: {lines:?}"
            );
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Pipelined on the same connection: bad requests answer `err`
    // without poisoning the session.
    match client.send_line("table1 app=nosuch").expect("send") {
        Response::Error(msg) => assert!(msg.contains("unknown app"), "{msg}"),
        other => panic!("unexpected response {other:?}"),
    }
    match client.send_line("table1").expect("send") {
        Response::Error(msg) => assert!(msg.contains("no jobs"), "{msg}"),
        other => panic!("unexpected response {other:?}"),
    }
    // The store is sized once, at start-up: a per-request cap is
    // refused, never silently ignored.
    match client
        .send_line("table1 app=hal store-cap=1")
        .expect("send")
    {
        Response::Error(msg) => assert!(msg.contains("store-cap"), "{msg}"),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(client.send(&Request::Ping).expect("send"), Response::Pong);

    assert_eq!(
        client.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

#[test]
fn pareto_verb_matches_the_facade_frontier_byte_for_byte() {
    let defaults = SearchOptions {
        threads: 1,
        limit: Some(400),
        ..SearchOptions::default()
    };
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 2,
        queue: 2,
        defaults: defaults.clone(),
        ..ServeConfig::default()
    });

    // The reference: the same facade stages the server drives, with
    // the same knob merge (`bound` over the server defaults).
    let options = SearchOptions {
        bound: true,
        ..defaults
    };
    let app = lycos::apps::straight();
    let front = Pipeline::for_app(&app)
        .with_search_options(options)
        .allocate()
        .expect("allocate")
        .pareto()
        .expect("pareto sweep");
    let mut expected = vec![lycos::explore::PARETO_CSV_HEADER.to_owned()];
    for point in &front.points {
        expected.push(lycos::explore::pareto_csv_row("straight", point));
    }

    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    match client.send_line("pareto app=straight bound").expect("send") {
        Response::Ok(lines) => assert_eq!(lines, expected),
        other => panic!("unexpected response {other:?}"),
    }
    // The text emitter answers on the same connection.
    match client
        .send_line("pareto app=straight bound format=text")
        .expect("send")
    {
        Response::Ok(lines) => {
            assert!(lines[0].starts_with("straight:"), "{lines:?}");
        }
        other => panic!("unexpected response {other:?}"),
    }

    assert_eq!(
        client.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

/// The `stats` verb's two-line CSV, parsed into counters by header
/// name (columns only ever append).
fn stats_row(client: &mut Client) -> HashMap<String, u64> {
    match client.send(&Request::Stats).expect("send stats") {
        Response::Ok(lines) => {
            assert_eq!(lines[0], lycos_serve::STATS_CSV_HEADER);
            lines[0]
                .split(',')
                .zip(lines[1].split(','))
                .map(|(name, n)| (name.to_owned(), n.parse().unwrap()))
                .collect()
        }
        other => panic!("unexpected stats response {other:?}"),
    }
}

/// One counter of the `stats` verb, by header name.
fn stat(client: &mut Client, name: &str) -> u64 {
    stats_row(client)[name]
}

/// `(hits, misses, evictions, entries)` from the `stats` verb.
fn store_stats(client: &mut Client) -> (u64, u64, u64, u64) {
    let v = stats_row(client);
    (v["hits"], v["misses"], v["evictions"], v["entries"])
}

/// `(incremental, reused, rederived)` — the edit-loop reuse counters
/// of the `stats` verb.
fn reuse_stats(client: &mut Client) -> (u64, u64, u64) {
    let v = stats_row(client);
    (v["incremental"], v["reused"], v["rederived"])
}

#[test]
fn repeat_requests_hit_the_artifact_store_and_stay_byte_identical() {
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 2,
        queue: 2,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(400),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });
    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    assert_eq!(store_stats(&mut client), (0, 0, 0, 0), "store starts cold");

    // The same request twice — the `bound` + `no-warm` pair proves the
    // warm knob reaches the engine (no reseed: the effort columns stay
    // deterministic), so the two responses must be byte-identical.
    let line = "table1 app=hal bound no-warm format=csv";
    let first = match client.send_line(line).expect("send") {
        Response::Ok(lines) => lines,
        other => panic!("unexpected response {other:?}"),
    };
    let second = match client.send_line(line).expect("send") {
        Response::Ok(lines) => lines,
        other => panic!("unexpected response {other:?}"),
    };
    assert_eq!(first, second, "hit response drifted from the miss response");
    assert_eq!(store_stats(&mut client), (1, 1, 0, 1));
    assert_eq!(reuse_stats(&mut client), (0, 0, 0), "no edits yet");

    // An inline source misses, repeats hit, and a one-token mutation
    // of the program is a different fingerprint — a fresh miss. The
    // second loop's trip-count edit leaves the first loop's block
    // content-clean, so the miss builds incrementally from the
    // resident original: one block cloned, one re-derived.
    let original = lycos_serve::protocol::encode(
        "app hot;\nloop a times 300 {\n  y = y + u * dx;\n}\n\
         loop b times 500 {\n  u = u - 3 * y * dx;\n}",
    );
    let mutated = lycos_serve::protocol::encode(
        "app hot;\nloop a times 300 {\n  y = y + u * dx;\n}\n\
         loop b times 501 {\n  u = u - 3 * y * dx;\n}",
    );
    for (src, expected_stats) in [
        (&original, (1, 2, 0, 2)),
        (&original, (2, 2, 0, 2)),
        (&mutated, (2, 3, 0, 3)),
    ] {
        match client
            .send_line(&format!("table1 src={src}@6000"))
            .expect("send")
        {
            Response::Ok(_) => {}
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(store_stats(&mut client), expected_stats);
    }
    assert_eq!(
        reuse_stats(&mut client),
        (1, 1, 1),
        "the edited program reused its clean block from the donor"
    );

    assert_eq!(
        client.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

#[test]
fn eviction_at_cap_one_keeps_alternating_apps_correct() {
    // A store that can hold exactly one application: two alternating
    // apps evict each other on every request, and every response must
    // still match the storeless sequential reference byte-for-byte.
    let options = Table1Options {
        search_limit: Some(400),
        threads: 1,
        ..Table1Options::default()
    };
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 1,
        queue: 2,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(400),
            store_cap: 1,
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });
    let apps = [lycos::apps::straight(), lycos::apps::hal()];
    let expected: Vec<String> = apps
        .iter()
        .map(|app| {
            let rows =
                Pipeline::table1_batch(std::slice::from_ref(&Pipeline::for_app(app)), &options)
                    .expect("sequential reference");
            format_table1_csv(&rows, false)
        })
        .collect();

    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    for round in 0..2 {
        for (app, want) in ["straight", "hal"].iter().zip(&expected) {
            match client
                .send_line(&format!("table1 app={app}"))
                .expect("send")
            {
                Response::Ok(lines) => {
                    let got = lines.join("\n") + "\n";
                    assert_eq!(&got, want, "round {round}, app {app}");
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
    // Every request after the first evicted its predecessor: four
    // misses, three evictions, never more than one resident entry.
    assert_eq!(store_stats(&mut client), (0, 4, 3, 1));

    assert_eq!(
        client.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

/// The `completion` column of one timed Table 1 CSV row.
fn completion_of(row: &str) -> String {
    let idx = lycos::explore::TABLE1_CSV_HEADER
        .split(',')
        .position(|c| c == "completion")
        .expect("header names the completion column");
    row.split(',')
        .nth(idx)
        .expect("row has the column")
        .to_owned()
}

#[test]
fn cancel_verb_stops_a_running_job_which_still_answers() {
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 2,
        queue: 2,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(400),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });

    // An effectively-unbounded eigen sweep (the paper's footnote-1
    // space), tagged job=5 so another connection can reach it.
    let runner = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
            client
                .send_line("table1 app=eigen limit=0 threads=1 timing job=5")
                .expect("send")
        })
    };

    // Cancel from a second connection: retry until the job has
    // registered (before that the verb answers `err no running job`).
    let mut killer = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "job 5 never became cancellable"
        );
        match killer.send_line("cancel 5").expect("send cancel") {
            Response::Ok(lines) => {
                assert_eq!(lines, vec!["cancelled 5".to_owned()]);
                break;
            }
            Response::Error(msg) => {
                assert!(msg.contains("no running job 5"), "{msg}");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected cancel response {other:?}"),
        }
    }

    // The cancelled sweep still answers — with its best-so-far row
    // and the `cancelled` marker in the timed CSV.
    match runner.join().expect("runner thread") {
        Response::Ok(lines) => {
            assert_eq!(lines[0], lycos::explore::TABLE1_CSV_HEADER);
            assert_eq!(completion_of(&lines[1]), "cancelled", "{lines:?}");
        }
        other => panic!("unexpected table1 response {other:?}"),
    }

    // The registry entry is gone with the job.
    match killer.send_line("cancel 5").expect("send cancel") {
        Response::Error(msg) => assert!(msg.contains("no running job 5"), "{msg}"),
        other => panic!("unexpected response {other:?}"),
    }

    assert_eq!(
        killer.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

#[test]
fn disconnecting_mid_search_releases_the_worker() {
    // One worker, held by a `__hold` job that only a cancel releases:
    // if the disconnect did not cancel it, the follow-up search could
    // never be served and this test would time out. (A ping would not
    // prove it — the connection's reader answers pings itself.)
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 1,
        queue: 2,
        fault_injection: true,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(400),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });

    {
        let mut doomed = std::net::TcpStream::connect(&addr).expect("connect raw");
        std::io::Write::write_all(&mut doomed, b"table1 app=__hold\n")
            .expect("send the doomed request");
        // Dropping the stream closes the socket: the connection's
        // reader sees EOF and flips the job's cancel flag.
    }

    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    match client.send_line("table1 app=hal").expect("send") {
        Response::Ok(lines) => assert_eq!(lines[0], lycos::explore::TABLE1_CSV_HEADER),
        other => panic!("unexpected response {other:?}"),
    }

    assert_eq!(
        client.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

#[test]
fn stalled_partial_line_answers_slow_request_but_idle_peers_keep_alive() {
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 2,
        queue: 2,
        read_timeout: Duration::from_millis(200),
        defaults: SearchOptions {
            threads: 1,
            limit: Some(10),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });

    // An idle peer (no bytes at all) is normal keep-alive: well past
    // the read timeout it can still ask and be answered.
    let mut idle = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(idle.send(&Request::Ping).expect("send"), Response::Pong);

    // A peer that goes silent mid-line gets `err slow-request` and
    // the connection closed instead of pinning the worker forever.
    let mut stalled = std::net::TcpStream::connect(&addr).expect("connect raw");
    std::io::Write::write_all(&mut stalled, b"table1 app=hal").expect("send a partial line");
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("bound the test read");
    let mut reply = String::new();
    std::io::Read::read_to_string(&mut std::io::BufReader::new(&stalled), &mut reply)
        .expect("read until the server closes");
    assert!(reply.starts_with("err "), "{reply:?}");
    assert!(reply.contains("slow-request"), "{reply:?}");

    assert_eq!(idle.send(&Request::Shutdown).expect("send"), Response::Bye);
    handle.join().expect("server thread");
}

#[test]
fn panicking_jobs_answer_err_and_the_pool_survives() {
    // One worker: if a panic killed it, nothing would ever answer
    // again. Fault injection arms the deliberate `__panic` app.
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 1,
        queue: 2,
        fault_injection: true,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(400),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });

    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    for round in 1..=2u64 {
        match client.send_line("table1 app=__panic").expect("send") {
            Response::Error(msg) => {
                assert!(msg.contains("panic"), "round {round}: {msg}")
            }
            other => panic!("round {round}: unexpected response {other:?}"),
        }
        // The same connection keeps answering: the worker caught the
        // panic instead of dying with it.
        assert_eq!(client.send(&Request::Ping).expect("send"), Response::Pong);
        assert_eq!(
            stat(&mut client, "panics"),
            round,
            "the stats verb counts caught panics"
        );
    }

    // A fresh connection is served too — the pool never shrank.
    drop(client);
    let mut fresh = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    match fresh.send_line("table1 app=hal").expect("send") {
        Response::Ok(lines) => assert_eq!(lines[0], lycos::explore::TABLE1_CSV_HEADER),
        other => panic!("unexpected response {other:?}"),
    }

    assert_eq!(fresh.send(&Request::Shutdown).expect("send"), Response::Bye);
    handle.join().expect("server thread");
}

#[test]
fn big_jobs_queue_on_the_admission_gate_while_small_jobs_flow() {
    // Threshold 0 marks every job big; one explicit big-job slot.
    // Job 1 (a `__hold` job, parked until cancelled) takes it; job 2
    // must park in
    // the gate — proven by cancelling job 2 *while parked*: its sweep
    // then stops at the very first check, so its timed CSV says
    // `cancelled` even though the tiny hal space would complete in
    // microseconds once running. Job 1 holds one worker and job 2
    // parks another in the gate; the control client needs none.
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 3,
        queue: 4,
        big_job_threshold: 0,
        big_jobs: 1,
        fault_injection: true,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(400),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });

    let hog = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
            client
                .send_line("table1 app=__hold limit=0 threads=1 timing job=1")
                .expect("send")
        })
    };
    // Give job 1 a generous head start to register and take the only
    // big-job slot before job 2 is even sent. (There is no
    // non-destructive registry probe: `cancel 1` would release it.)
    let mut control = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    std::thread::sleep(Duration::from_secs(2));

    let parked = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
            client
                .send_line("table1 app=hal timing job=2")
                .expect("send")
        })
    };
    // Give job 2 time to reach the gate, then cancel it while parked.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "job 2 never became cancellable"
        );
        match control.send_line("cancel 2").expect("send cancel") {
            Response::Ok(_) => break,
            Response::Error(msg) => {
                assert!(msg.contains("no running job"), "{msg}");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    // Release the slot; job 2 then runs — and stops immediately.
    match control.send_line("cancel 1").expect("send cancel") {
        Response::Ok(_) => {}
        other => panic!("unexpected response {other:?}"),
    }
    match hog.join().expect("hog thread") {
        Response::Ok(lines) => assert_eq!(completion_of(&lines[1]), "cancelled", "{lines:?}"),
        other => panic!("unexpected response {other:?}"),
    }
    match parked.join().expect("parked thread") {
        Response::Ok(lines) => assert_eq!(
            completion_of(&lines[1]),
            "cancelled",
            "job 2 was cancelled while parked in the gate: {lines:?}"
        ),
        other => panic!("unexpected response {other:?}"),
    }

    assert_eq!(
        control.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

#[test]
fn a_job_cancelled_while_parked_at_the_gate_answers_before_the_slot_frees() {
    // As above, job 1 (a `__hold` job) takes the only big-job slot and
    // job 2 parks in the gate. Cancelling job 2 must let it skip the
    // gate and answer `cancelled` while job 1 still holds the slot —
    // not once some other big job finishes.
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 3,
        queue: 4,
        big_job_threshold: 0,
        big_jobs: 1,
        fault_injection: true,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(400),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });

    let hog = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
            client
                .send_line("table1 app=__hold limit=0 threads=1 timing job=1")
                .expect("send")
        })
    };
    let mut control = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    std::thread::sleep(Duration::from_secs(2));

    let (answered, answer) = std::sync::mpsc::channel();
    {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
            let response = client
                .send_line("table1 app=hal timing job=2")
                .expect("send");
            answered.send(response).expect("the test waits for job 2");
        });
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "job 2 never became cancellable"
        );
        match control.send_line("cancel 2").expect("send cancel") {
            Response::Ok(_) => break,
            Response::Error(msg) => {
                assert!(msg.contains("no running job"), "{msg}");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    // Job 1 still holds the slot: job 2 must answer on its own.
    let parked = answer.recv_timeout(Duration::from_secs(20));
    match control.send_line("cancel 1").expect("send cancel") {
        Response::Ok(_) => {}
        other => panic!("unexpected response {other:?}"),
    }
    match parked.expect("job 2 answered while job 1 still held the slot") {
        Response::Ok(lines) => assert_eq!(completion_of(&lines[1]), "cancelled", "{lines:?}"),
        other => panic!("unexpected response {other:?}"),
    }
    match hog.join().expect("hog thread") {
        Response::Ok(lines) => assert_eq!(completion_of(&lines[1]), "cancelled", "{lines:?}"),
        other => panic!("unexpected response {other:?}"),
    }

    assert_eq!(
        control.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

#[test]
fn soak_cancelled_panicked_and_deadlined_jobs_then_a_clean_deterministic_batch() {
    let options = Table1Options {
        search_limit: Some(400),
        threads: 1,
        ..Table1Options::default()
    };
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 4,
        queue: 8,
        fault_injection: true,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(400),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });

    // Concurrent mayhem: panicking jobs, tiny-deadline sweeps, and a
    // cancelled unbounded sweep, all in flight together.
    let mut mayhem = Vec::new();
    for _ in 0..2 {
        let addr = addr.clone();
        mayhem.push(std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
            match client.send_line("table1 app=__panic").expect("send") {
                Response::Error(msg) => assert!(msg.contains("panic"), "{msg}"),
                other => panic!("unexpected response {other:?}"),
            }
        }));
    }
    for _ in 0..2 {
        let addr = addr.clone();
        mayhem.push(std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
            match client
                .send_line("table1 app=eigen limit=0 threads=1 deadline-ms=25 timing")
                .expect("send")
            {
                Response::Ok(lines) => {
                    assert_eq!(completion_of(&lines[1]), "deadline", "{lines:?}")
                }
                other => panic!("unexpected response {other:?}"),
            }
        }));
    }
    let cancelled = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
            client
                .send_line("table1 app=eigen limit=0 threads=1 timing job=77")
                .expect("send")
        })
    };
    let mut control = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        assert!(std::time::Instant::now() < deadline, "job 77 never started");
        match control.send_line("cancel 77").expect("send cancel") {
            Response::Ok(_) => break,
            Response::Error(_) => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("unexpected response {other:?}"),
        }
    }
    for thread in mayhem {
        thread.join().expect("mayhem thread");
    }
    match cancelled.join().expect("cancelled thread") {
        Response::Ok(lines) => assert_eq!(completion_of(&lines[1]), "cancelled", "{lines:?}"),
        other => panic!("unexpected response {other:?}"),
    }

    // After the soak: the panics were counted, and a clean batch is
    // byte-identical to the sequential `table1 --csv --stable` seam —
    // no lingering cancel flag, no shrunken pool, no drifted store.
    assert_eq!(stat(&mut control, "panics"), 2);
    let apps = [lycos::apps::straight(), lycos::apps::hal()];
    let pipelines: Vec<Pipeline> = apps.iter().map(Pipeline::for_app).collect();
    let rows = Pipeline::table1_batch(&pipelines, &options).expect("sequential batch");
    let expected = format_table1_csv(&rows, false);
    for round in 0..2 {
        match control
            .send_line("table1 apps=straight,hal format=csv")
            .expect("send")
        {
            Response::Ok(lines) => {
                let got = lines.join("\n") + "\n";
                assert_eq!(got, expected, "round {round} drifted after the soak");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    assert_eq!(
        control.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

#[test]
fn peers_still_sending_cannot_stall_shutdown() {
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 2,
        queue: 2,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(10),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });

    // A chatty peer on one worker…
    let mut chatty = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    assert_eq!(chatty.send(&Request::Ping).expect("send"), Response::Pong);
    // …while another connection asks for shutdown.
    let mut killer = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    assert_eq!(
        killer.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );

    // The chatty peer keeps sending; the server must answer `busy
    // server shutting down` or close the connection within a bounded
    // time instead of serving it forever.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "a streaming peer kept the draining server alive"
        );
        match chatty.send(&Request::Ping) {
            // Requests in flight before the flag propagated may still
            // be answered; keep pushing.
            Ok(Response::Pong) => std::thread::sleep(Duration::from_millis(10)),
            Ok(Response::Busy(msg)) => {
                assert!(msg.contains("shutting down"), "{msg}");
                break;
            }
            Err(_) => break, // connection closed: also fine
            Ok(other) => panic!("unexpected response {other:?}"),
        }
    }
    // And run() itself returns — the scope joined every worker.
    handle.join().expect("server thread");
}

#[test]
fn full_pool_answers_busy_instead_of_queueing() {
    // One worker, zero queue slots: a cap of one open connection, so
    // the second connection must be rejected with backpressure status
    // while the first stays open.
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 1,
        queue: 0,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(10),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });

    // Take the only connection slot: after the pong this connection's
    // reader is alive. A slot freed by an earlier connection is only
    // released when its reader exits — retry until we hold it.
    let mut holder = loop {
        let mut candidate = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
        match candidate.send(&Request::Ping).expect("send") {
            Response::Pong => break candidate,
            Response::Busy(_) => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("unexpected response {other:?}"),
        }
    };

    let mut second = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    match second.send(&Request::Ping) {
        Ok(Response::Busy(msg)) => {
            assert!(msg.contains("queue full"), "{msg}");
            assert!(msg.contains("1 workers"), "{msg}");
        }
        other => panic!("expected busy, got {other:?}"),
    }

    assert_eq!(
        holder.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

#[test]
fn reconnecting_after_a_close_is_never_answered_busy() {
    // A cap of one open connection. Each cycle closes its connection
    // before the next one opens, so the cap is never really exceeded:
    // the acceptor must wait for the closed connection's reader to
    // free its slot instead of rejecting the next one.
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 1,
        queue: 0,
        ..ServeConfig::default()
    });
    for cycle in 0..200 {
        let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
        match client.send(&Request::Ping).expect("send") {
            Response::Pong => {}
            other => panic!("cycle {cycle}: expected pong, got {other:?}"),
        }
    }
    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    assert_eq!(
        client.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

#[test]
fn busy_rejections_past_the_cap_never_reset_the_connection() {
    // A cap of one open connection, held: every other fresh connection
    // must read its `busy` answer. Closing a rejected socket before its
    // request line arrived would reset it, and the client's write or
    // read would fail with a transport error instead.
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 1,
        queue: 0,
        ..ServeConfig::default()
    });
    let mut holder = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    assert_eq!(holder.send(&Request::Ping).expect("send"), Response::Pong);

    let rejected: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for _ in 0..16 {
                    let mut client = Client::connect(&addr).expect("connect");
                    match client.send(&Request::Ping) {
                        Ok(Response::Busy(msg)) => assert!(msg.contains("queue full"), "{msg}"),
                        other => panic!("expected busy, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for thread in rejected {
        thread.join().expect("rejected client thread");
    }

    assert_eq!(
        holder.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

#[test]
fn idle_keep_alive_sockets_do_not_starve_other_clients() {
    // One worker and a cap of five connections: four idle keep-alive
    // peers hold a connection each, yet a fifth client's ping and
    // search are served — idle sockets cost readers, never workers.
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 1,
        queue: 4,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(400),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });
    let idle: Vec<Client> = (0..4)
        .map(|_| {
            let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
            assert_eq!(client.send(&Request::Ping).expect("send"), Response::Pong);
            client
        })
        .collect();

    let mut active = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    assert_eq!(active.send(&Request::Ping).expect("send"), Response::Pong);
    match active.send_line("table1 app=hal").expect("send") {
        Response::Ok(lines) => assert_eq!(lines[0], lycos::explore::TABLE1_CSV_HEADER),
        other => panic!("unexpected response {other:?}"),
    }

    // Shutdown does not wait for the idle peers to hang up.
    assert_eq!(
        active.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
    drop(idle);
}

#[test]
fn run_returns_promptly_after_shutdown_on_every_interface() {
    // `shutdown` wakes the acceptor blocked in accept() by connecting
    // to the server's own address; a listener on the unspecified
    // address is woken through the loopback.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::bind(ServeConfig {
            addr: bind.into(),
            workers: 2,
            queue: 2,
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port");
        let port = server.local_addr().expect("bound address").port();
        let (returned, run_done) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            server.run().expect("server run");
            returned.send(()).expect("report the return");
        });

        let addr = format!("127.0.0.1:{port}");
        // An idle keep-alive peer stays connected throughout.
        let mut idle = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
        assert_eq!(idle.send(&Request::Ping).expect("send"), Response::Pong);
        let mut killer = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
        assert_eq!(
            killer.send(&Request::Shutdown).expect("send"),
            Response::Bye
        );
        run_done
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("run() on {bind} did not return after shutdown"));
        handle.join().expect("server thread");
    }
}

#[test]
fn cancel_reaches_a_job_queued_behind_a_busy_pool() {
    // One worker, held by job 1. Job 2 queues behind it, and `cancel 2`
    // must reach it there: a job is registered when its connection
    // submits it, not when a worker picks it up.
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 1,
        queue: 4,
        fault_injection: true,
        defaults: SearchOptions {
            threads: 1,
            limit: Some(400),
            ..SearchOptions::default()
        },
        ..ServeConfig::default()
    });

    let holder = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
            client
                .send_line("table1 app=__hold timing job=1")
                .expect("send")
        })
    };
    // Give job 1 a head start to take the worker before job 2 is sent
    // (there is no non-destructive probe: `cancel 1` would release it).
    let mut control = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    std::thread::sleep(Duration::from_millis(300));
    let queued = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
            client
                .send_line("table1 app=hal timing job=2")
                .expect("send")
        })
    };

    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "queued job 2 never became cancellable"
        );
        match control.send_line("cancel 2").expect("send cancel") {
            Response::Ok(lines) => {
                assert_eq!(lines, vec!["cancelled 2".to_owned()]);
                break;
            }
            Response::Error(msg) => {
                assert!(msg.contains("no running job 2"), "{msg}");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected cancel response {other:?}"),
        }
    }
    // Release the worker: job 1 answers, then job 2 runs under its
    // already-flipped flag and stops at the first check.
    match control.send_line("cancel 1").expect("send cancel") {
        Response::Ok(_) => {}
        other => panic!("unexpected response {other:?}"),
    }
    for (job, thread) in [(1, holder), (2, queued)] {
        match thread.join().expect("job thread") {
            Response::Ok(lines) => {
                assert_eq!(
                    completion_of(&lines[1]),
                    "cancelled",
                    "job {job}: {lines:?}"
                )
            }
            other => panic!("job {job}: unexpected response {other:?}"),
        }
    }

    assert_eq!(
        control.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

/// Winner columns of a Table 1 CSV row: name, lines, the speed-up
/// columns, the size fractions, space size and truncation — not the
/// effort telemetry, which a served answer legitimately changes.
fn winner_columns(row: &str) -> Vec<String> {
    let cells: Vec<&str> = row.split(',').collect();
    [0, 1, 2, 3, 4, 5, 6, 12, 13]
        .iter()
        .map(|&i| cells[i].to_owned())
        .collect()
}

#[test]
fn a_stored_pareto_staircase_serves_lower_budgets_exactly() {
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 2,
        queue: 4,
        ..ServeConfig::default()
    });
    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    let send = |client: &mut Client, line: &str| match client.send_line(line).expect("send") {
        Response::Ok(lines) => lines,
        other => panic!("`{line}`: unexpected response {other:?}"),
    };

    // Sweeps that must store nothing: no-warm, limited, truncated. The
    // hal table1 after them, and the full eigen sweep itself, would be
    // served if any had stored its staircase.
    send(
        &mut client,
        "pareto app=hal bound limit=0 no-warm format=csv",
    );
    send(&mut client, "pareto app=hal bound limit=1024 format=csv");
    send(
        &mut client,
        "pareto app=eigen@13000 bound limit=0 deadline-ms=1 format=csv",
    );
    send(&mut client, "table1 app=hal bound limit=0 format=csv");
    assert_eq!(stat(&mut client, "front_hits"), 0);

    // One full sweep stores eigen's staircase at cap 13 000 ...
    send(
        &mut client,
        "pareto app=eigen@13000 bound limit=0 format=csv",
    );
    assert_eq!(stat(&mut client, "front_hits"), 0, "the sweep itself walks");

    // ... and answers every budget under it exactly as a storeless
    // pipeline's full bounded search does.
    let eigen = lycos::apps::eigen();
    let options = Table1Options::from_search_options(&SearchOptions::new().bound(true));
    let budgets = [6_500u64, 9_100, 11_700, 13_000];
    for &b in &budgets {
        let lines = send(
            &mut client,
            &format!("table1 app=eigen@{b} bound limit=0 format=csv"),
        );
        let reference = Pipeline::for_app(&eigen)
            .with_budget(lycos::hwlib::Area::new(b))
            .table1_row(&options)
            .expect("storeless row");
        let expected = format_table1_csv(&[reference], false);
        let expected_row = expected.lines().nth(1).expect("row");
        assert_eq!(
            winner_columns(&lines[1]),
            winner_columns(expected_row),
            "eigen@{b}"
        );
    }
    assert_eq!(stat(&mut client, "front_hits"), budgets.len() as u64);

    // Requests that must not be served: no-warm and limited.
    send(
        &mut client,
        "table1 app=eigen@9000 bound limit=1024 format=csv",
    );
    send(
        &mut client,
        "table1 app=eigen@9000 bound limit=0 no-warm format=csv",
    );
    assert_eq!(stat(&mut client, "front_hits"), budgets.len() as u64);

    assert_eq!(
        client.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}

#[test]
fn resident_stages_answer_exactly_like_cold_storeless_pipelines() {
    // Every row below must equal the stable CSV of a cold, storeless
    // facade pipeline: the bundled apps run over the server's resident
    // stages (and its store), the inline source over a fresh stage.
    // `no-warm` keeps the effort columns comparable too: a warm
    // reseed or a served answer legitimately changes them.
    let knobs = "bound no-warm limit=5000 threads=1";
    let options = SearchOptions::sequential().bound(true).limit(Some(5000));
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 2,
        queue: 4,
        ..ServeConfig::default()
    });
    let src = "app hot;\nloop l times 500 {\n  y = y + u * dx;\n  u = u - 3 * y * dx;\n}";
    let eigen = lycos::apps::eigen();
    let hal = lycos::apps::hal();

    let table1_ref = |pipeline: Pipeline| {
        let row = pipeline
            .table1_row(&Table1Options::from_search_options(&options))
            .expect("storeless row");
        format_table1_csv(&[row], false)
            .lines()
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    let pareto_ref = |pipeline: Pipeline, name: &str| {
        let front = pipeline
            .with_search_options(options.clone())
            .allocate()
            .expect("allocate")
            .pareto()
            .expect("pareto sweep");
        let mut lines = vec![lycos::explore::PARETO_CSV_HEADER.to_owned()];
        lines.extend(
            front
                .points
                .iter()
                .map(|p| lycos::explore::pareto_csv_row(name, p)),
        );
        lines
    };

    // (request, expected answer), interleaved: eigen at eight budgets
    // through both verbs, with hal and the inline source between them.
    let mut exchanges = Vec::new();
    for (i, budget) in (7_000u64..=12_250).step_by(750).enumerate() {
        let at = || Pipeline::for_app(&eigen).with_budget(lycos::hwlib::Area::new(budget));
        exchanges.push((
            format!("table1 app=eigen@{budget} {knobs} format=csv"),
            table1_ref(at()),
        ));
        exchanges.push((
            format!("pareto app=eigen@{budget} {knobs} format=csv"),
            pareto_ref(at(), "eigen"),
        ));
        exchanges.push(match i % 3 {
            0 => (
                format!("table1 app=hal {knobs} format=csv"),
                table1_ref(Pipeline::for_app(&hal)),
            ),
            1 => (
                format!("pareto app=hal {knobs} format=csv"),
                pareto_ref(Pipeline::for_app(&hal), "hal"),
            ),
            _ => (
                format!(
                    "table1 src={}@6000 {knobs} format=csv",
                    lycos_serve::protocol::encode(src)
                ),
                table1_ref(Pipeline::new(src).with_budget(lycos::hwlib::Area::new(6_000))),
            ),
        });
    }

    // Two connections walk the list in opposite orders, so the first
    // requests for each app race to build its stage.
    let exchanges = std::sync::Arc::new(exchanges);
    let clients: Vec<_> = [false, true]
        .into_iter()
        .map(|reversed| {
            let (addr, exchanges) = (addr.clone(), exchanges.clone());
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
                let mut order: Vec<_> = exchanges.iter().collect();
                if reversed {
                    order.reverse();
                }
                for (line, expected) in order {
                    match client.send_line(line).expect("send") {
                        Response::Ok(lines) => assert_eq!(&lines, expected, "`{line}`"),
                        other => panic!("`{line}`: unexpected response {other:?}"),
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    let mut client = Client::connect_with_retry(&addr, CONNECT_DEADLINE).expect("connect");
    assert_eq!(
        client.send(&Request::Shutdown).expect("send"),
        Response::Bye
    );
    handle.join().expect("server thread");
}
