//! The client side of a run: timed server starts with their warm-up
//! requests, then the closed-loop measured phase.

use crate::plan::Plan;
use crate::server::{Connection, ServerProcess};
use crate::stats::MIN_BEYOND_TAIL;
use lycos_serve::Response;
use std::path::Path;
use std::time::{Duration, Instant};

/// Server starts per run; `setup_s` is their median.
pub const SETUP_STARTS: usize = 5;

/// Pause between the server's `listening on` line and the first
/// connection. `lycos serve` announces its address before its acceptor
/// first polls the listener; a connection that lands before that poll
/// is accepted at once, one that lands after it waits out the poll's
/// 50 ms sleep. Left to chance, `setup_s` is bimodal; after this pause
/// the first connection always meets the sleeping acceptor.
const FIRST_CONNECT_DELAY: Duration = Duration::from_millis(5);

/// Fewest measured requests: enough that ten lie beyond the p90 rank.
pub const MIN_REQUESTS: usize = 10 * MIN_BEYOND_TAIL;

/// The measured phase stops at the first pass boundary after this
/// long, whatever it has gathered.
const MAX_MEASURE: Duration = Duration::from_secs(100);

/// How one measured request ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// `ok` with its body lines.
    Ok(Vec<String>),
    /// `err`, `busy`, another answer, or a transport failure or
    /// timeout, described.
    Failed(String),
}

/// One measured request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The request line.
    pub line: String,
    /// Client-side latency in milliseconds, connection set-up included
    /// for fresh-connection plans.
    pub ms: f64,
    /// Seconds from the start of the measured phase to the answer.
    pub done_s: f64,
    /// The answer.
    pub outcome: Outcome,
}

/// What the client saw of one run against a live server.
pub struct Measured {
    /// Seconds from spawn through the warm-up answers, one per start.
    pub setup_s: Vec<f64>,
    /// The measured requests, in order.
    pub samples: Vec<Sample>,
    /// Whole passes the measured phase sent.
    pub passes: usize,
    /// Wall-clock seconds of the measured phase.
    pub wall_s: f64,
    /// Server CPU seconds (user + system) over the measured phase.
    pub cpu_s: f64,
    /// The server's peak resident set after the measured phase, MiB.
    pub peak_rss_mb: f64,
    /// The `stats` verb's `incremental` counter after the phase.
    pub incremental_builds: u64,
}

fn send(conn: &mut Connection, line: &str) -> Outcome {
    match conn.send(line) {
        Ok(Response::Ok(lines)) => Outcome::Ok(lines),
        Ok(other) => Outcome::Failed(format!("answered {other:?}")),
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Sends `line` on `conn`, or on a fresh connection to `addr` when
/// `conn` is `None`, and times it.
fn timed(addr: &str, conn: Option<&mut Connection>, line: &str) -> (f64, Outcome) {
    let started = Instant::now();
    let outcome = match conn {
        Some(conn) => send(conn, line),
        None => match Connection::open(addr) {
            Ok(mut fresh) => send(&mut fresh, line),
            Err(e) => Outcome::Failed(e.to_string()),
        },
    };
    (started.elapsed().as_secs_f64() * 1e3, outcome)
}

/// Starts a server and sends the plan's warm-up, returning it with
/// the elapsed seconds and the keep-alive connection (if the plan
/// keeps one).
fn start(
    lycos: &Path,
    workers: usize,
    plan: &Plan,
) -> Result<(ServerProcess, Option<Connection>, f64), String> {
    let started = Instant::now();
    let server = ServerProcess::spawn(lycos, workers)?;
    std::thread::sleep(FIRST_CONNECT_DELAY);
    let mut conn = if plan.fresh_connections {
        None
    } else {
        Some(Connection::open(server.addr()).map_err(|e| format!("connect: {e}"))?)
    };
    for line in &plan.warmup {
        if let (_, Outcome::Failed(why)) = timed(server.addr(), conn.as_mut(), line) {
            return Err(format!("warm-up `{}`: {why}", crate::shorten(line)));
        }
    }
    Ok((server, conn, started.elapsed().as_secs_f64()))
}

/// Runs one workload against `lycos serve`: [`SETUP_STARTS`] timed
/// starts (all but the last shut down again), then whole passes of the
/// plan, closed loop, until `seconds` have passed and at least
/// [`MIN_REQUESTS`] requests were measured.
///
/// # Errors
///
/// When the server cannot be started, warmed up, observed or stopped.
/// Failed measured requests are samples, not errors.
pub fn run(lycos: &Path, workers: usize, plan: &Plan, seconds: f64) -> Result<Measured, String> {
    let mut setup_s = Vec::with_capacity(SETUP_STARTS);
    for _ in 1..SETUP_STARTS {
        let (server, conn, elapsed) = start(lycos, workers, plan)?;
        setup_s.push(elapsed);
        drop(conn);
        server.shutdown()?;
    }
    let (server, mut conn, elapsed) = start(lycos, workers, plan)?;
    setup_s.push(elapsed);

    let cpu_before = server.cpu_seconds()?;
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut passes = 0;
    'measure: loop {
        for pass in &plan.passes {
            for line in pass {
                let (ms, outcome) = timed(server.addr(), conn.as_mut(), line);
                if matches!(outcome, Outcome::Failed(_)) && conn.is_some() {
                    // A failed keep-alive connection is replaced so one
                    // broken request does not fail the rest.
                    conn = Connection::open(server.addr()).ok();
                }
                samples.push(Sample {
                    line: line.clone(),
                    ms,
                    done_s: started.elapsed().as_secs_f64(),
                    outcome,
                });
            }
            passes += 1;
            let elapsed = started.elapsed();
            if (elapsed.as_secs_f64() >= seconds && samples.len() >= MIN_REQUESTS)
                || elapsed >= MAX_MEASURE
            {
                break 'measure;
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = server.cpu_seconds()? - cpu_before;
    let peak_rss_mb = server.peak_rss_mb()?;
    let mut probe = Connection::open(server.addr()).map_err(|e| format!("stats: {e}"))?;
    let incremental_builds = crate::server::store_counter(&mut probe, "incremental")?;
    drop(probe);
    drop(conn);
    server.shutdown()?;
    Ok(Measured {
        setup_s,
        samples,
        passes,
        wall_s,
        cpu_s,
        peak_rss_mb,
        incremental_builds,
    })
}
