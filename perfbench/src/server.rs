//! A `lycos serve` child process and the client connections that
//! drive it.
//!
//! Readiness is read from the server's own `listening on <addr>`
//! stderr line, so start-up is timed without a sleep-and-retry loop.
//! Server CPU time and peak memory come from `/proc`.

use lycos_serve::protocol::read_response;
use lycos_serve::{Response, ServeError};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest a request may take before it counts as timed out.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const TICKS_PER_SECOND: f64 = 100.0;

/// A running `lycos serve`. Dropping it kills and reaps the process;
/// [`ServerProcess::shutdown`] stops it gracefully.
pub struct ServerProcess {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl ServerProcess {
    /// Spawns `lycos serve` on an ephemeral loopback port with
    /// `workers` workers and waits for its `listening on` line.
    ///
    /// # Errors
    ///
    /// When the binary does not start, or exits before listening.
    pub fn spawn(lycos: &Path, workers: usize) -> Result<ServerProcess, String> {
        let mut child = Command::new(lycos)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", lycos.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("lycos serve exited before listening".to_owned());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_owned();
            }
        };
        // Keep draining stderr so a chatty server never blocks on a
        // full pipe; the thread ends when the process exits.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(ServerProcess {
            child,
            addr,
            stderr: Some(drain),
        })
    }

    /// The `host:port` the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// User plus system CPU seconds the server has used so far, all
    /// threads included.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/stat` cannot be read or parsed.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let field = |i: usize| -> Result<f64, String> {
            rest.split_whitespace()
                .nth(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("{path}: no field {}", i + 3))
        };
        Ok((field(11)? + field(12)?) / TICKS_PER_SECOND)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/status` cannot be read or has no `VmHWM`.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// Sends `shutdown`, then waits for the process and its stderr
    /// reader to end.
    ///
    /// # Errors
    ///
    /// When the server does not answer `bye` or exits unsuccessfully.
    pub fn shutdown(mut self) -> Result<(), String> {
        let answer = Connection::open(&self.addr)
            .and_then(|mut c| c.send("shutdown"))
            .map_err(|e| format!("shutdown: {e}"))?;
        if answer != Response::Bye {
            return Err(format!("shutdown answered {answer:?}"));
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
        if !status.success() {
            return Err(format!("lycos serve exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

/// One client connection speaking the line protocol: what
/// `lycos_serve::Client::connect` opens, plus a read timeout, so a hung
/// server fails one request instead of stalling the run.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// Connects to `addr` once (the server is already listening).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection fails.
    pub fn open(addr: &str) -> Result<Connection, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads its whole response.
    ///
    /// # Errors
    ///
    /// [`ServeError`] on transport failure, timeout or a malformed
    /// response.
    pub fn send(&mut self, line: &str) -> Result<Response, ServeError> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        read_response(&mut self.reader)
    }
}

/// The store counters of the `stats` verb, by column name.
///
/// # Errors
///
/// When the answer is not the two-line stats CSV.
pub fn store_counter(conn: &mut Connection, column: &str) -> Result<u64, String> {
    let answer = conn.send("stats").map_err(|e| e.to_string())?;
    let Response::Ok(lines) = answer else {
        return Err(format!("stats answered {answer:?}"));
    };
    let at = lines
        .first()
        .and_then(|h| h.split(',').position(|c| c == column))
        .ok_or_else(|| format!("stats has no `{column}` column"))?;
    lines
        .get(1)
        .and_then(|row| row.split(',').nth(at))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("stats row has no `{column}` value"))
}
