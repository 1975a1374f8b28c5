//! The allocation server: one reader thread per connection over a
//! blocking [`TcpListener`], and a fixed pool of worker threads that
//! run the search jobs the readers hand them.
//!
//! Architecture — readers own sockets, workers own jobs:
//!
//! * the **acceptor** (the thread that called [`Server::run`]) blocks
//!   in `accept()`, so a fresh connection is served the moment it
//!   arrives. It gives each connection a scoped **reader** thread while
//!   fewer than `workers + queue` connections are open; at that cap it
//!   waits a few milliseconds for a closing connection's reader to
//!   free its slot, then answers [`Response::Busy`] and closes —
//!   **backpressure** instead of unbounded growth;
//! * a reader frames request lines and answers `ping`, `stats`,
//!   `cancel`, `shutdown` and malformed requests itself. It hands each
//!   `table1`/`pareto` job — with its cancel flag and the connection's
//!   writer — to the pool over a bounded channel, and keeps reading
//!   while the job runs, so a peer that hangs up cancels its job on
//!   the spot. One job is in flight per connection: responses stay in
//!   order, and pipelined lines wait in the reader's buffer;
//! * `workers` **scoped threads** run jobs and write their answers.
//!   Every job builds fresh [`lycos::Pipeline`] values; the only state
//!   jobs share is the server's [`ArtifactStore`] (one per server,
//!   thread-safe), which caches per-application search precompute
//!   across requests and connections and warm-starts repeat `bound`
//!   searches. Results are field-identical warm or cold; the `stats`
//!   verb reports the store's hit/miss/eviction counters;
//! * idle keep-alive connections cost a reader each, never a worker,
//!   so one client's open sockets cannot starve another client's jobs;
//! * a `shutdown` request flips one flag and wakes the acceptor by
//!   connecting to the server's own address: the acceptor stops,
//!   readers finish their in-flight jobs and exit at their next read
//!   tick, workers drain the channel and join — **graceful shutdown**
//!   with no request dropped mid-flight.

use crate::protocol::{
    Format, Job, JobSource, ParetoRequest, Request, Response, Table1Request, DEFAULT_ADDR,
};
use crate::ServeError;
use lycos::explore::{
    format_pareto, format_table1, format_table1_csv, pareto_csv_row, Table1Options,
    PARETO_CSV_HEADER,
};
use lycos::hwlib::Area;
use lycos::pace::{ArtifactStore, KnobOverrides, SearchOptions, StopSignal};
use lycos::{Pipeline, Restricted};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How often blocked reads and admission waits re-check the shutdown
/// flag — the clock of draining and of the slow-request timeout. No
/// request ever waits on it: a reader blocks in `read` only when it
/// has no complete request line to act on.
const POLL: Duration = Duration::from_millis(50);

/// Upper bound on one blocking response write. A peer that stops
/// reading its responses hits this, fails the connection, and frees
/// the worker — instead of pinning it (and stalling shutdown) forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a connection rejected with `busy` may take to deliver its
/// first request line before the acceptor closes it anyway. Closing a
/// socket with that line still unread (or yet to arrive) resets the
/// connection, and the peer's write or read fails instead of showing
/// it the `busy` answer; the bound caps what a silent peer can cost
/// the acceptor.
const BUSY_LINGER: Duration = Duration::from_millis(100);

/// How long the acceptor waits at the connection cap for a slot to
/// free before it answers `busy`. A client that closes and reconnects
/// at once would otherwise find its old slot still held: the slot is
/// released by the old reader, which may not have woken to see EOF.
const ADMIT_WAIT: Duration = Duration::from_millis(10);

/// Configuration of one [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` picks a free port).
    pub addr: String,
    /// Worker threads — the number of search jobs (`table1`, `pareto`)
    /// that run concurrently. `ping`, `stats`, `cancel` and `shutdown`
    /// never need a worker.
    pub workers: usize,
    /// Connections the server holds open beyond `workers`: at most
    /// `workers + queue` connections are served at once (each by its
    /// own reader thread), and a connection past that cap is answered
    /// `busy` and closed once 10 ms pass without a slot
    /// freeing.
    pub queue: usize,
    /// Search knobs applied when a request leaves them unset.
    pub defaults: SearchOptions,
    /// How long a *partial* request line may stall before the server
    /// answers `err slow-request` and closes. An idle peer between
    /// requests is normal keep-alive and never times out; a peer that
    /// goes silent mid-line would otherwise hold its connection slot
    /// forever.
    pub read_timeout: Duration,
    /// Allocation-space size (pre-walk, [`lycos::pace::space_size`])
    /// above which a job is *big* for admission control. At most
    /// [`big_jobs`](ServeConfig::big_jobs) big jobs run concurrently,
    /// so a worker always stays free for small jobs (the fast lane).
    pub big_job_threshold: u128,
    /// Concurrent big-job slots on the admission gate. `0` (the
    /// default) means *auto*: `workers - 1`, floored at one, so one
    /// worker always stays free for the fast lane.
    pub big_jobs: usize,
    /// Test hook: when set, a job naming the app `__panic` panics
    /// inside the worker, exercising the panic-isolation path, and a
    /// job naming `__hold` parks its worker until the job is cancelled
    /// (or the server drains), then answers a `cancelled` row.
    pub fault_injection: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: DEFAULT_ADDR.to_owned(),
            workers: 4,
            queue: 8,
            // eigen's space cannot be exhausted (paper footnote 1);
            // the same default cap the CLI and the table1 bin use.
            // Bounding stays off by default so batch responses are
            // byte-diffable against the sequential CSV path.
            defaults: SearchOptions::new().limit(Some(200_000)),
            read_timeout: Duration::from_secs(10),
            // Well above every bundled benchmark except the eigen-scale
            // spaces the paper's footnote calls un-exhaustible.
            big_job_threshold: 1_000_000,
            big_jobs: 0,
            fault_injection: false,
        }
    }
}

/// A bound listener, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
}

impl Server {
    /// Binds the configured address. The listener stays blocking: the
    /// acceptor waits in `accept()`, and `shutdown` wakes it with a
    /// connection of its own.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the address cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server { listener, config })
    }

    /// The actually-bound address (resolves port `0`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] from the socket.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// The configuration this server runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Serves until a `shutdown` request arrives, then lets every
    /// in-flight and queued job answer, joins every reader and worker
    /// and returns.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on a non-transient accept failure. Per-
    /// connection I/O errors only drop that connection.
    pub fn run(self) -> Result<(), ServeError> {
        let Server { listener, config } = self;
        let workers = config.workers.max(1);
        let max_conns = workers + config.queue;
        let wake = wake_address(listener.local_addr()?);
        let shutdown = AtomicBool::new(false);
        // One artifact store per server, shared by every worker and
        // connection: the cross-request cache the seam exists for.
        let store = Arc::new(ArtifactStore::new(config.defaults.store_cap));
        let panics = AtomicU64::new(0);
        let registry = JobRegistry::default();
        let big_jobs = match config.big_jobs {
            0 => workers.saturating_sub(1).max(1),
            n => n,
        };
        let gate = Slots::new(big_jobs);
        let slots = Slots::new(max_conns);
        // Each open connection has at most one job queued or running,
        // so a channel as deep as the connection cap never blocks.
        let (jobs_tx, jobs_rx) = mpsc::sync_channel::<Ticket<'_>>(max_conns);
        let jobs_rx = Mutex::new(jobs_rx);

        std::thread::scope(|scope| {
            let ctx = ServerCtx {
                config: &config,
                store: &store,
                shutdown: &shutdown,
                wake,
                panics: &panics,
                registry: &registry,
                gate: &gate,
            };
            let jobs_rx = &jobs_rx;
            for _ in 0..workers {
                scope.spawn(move || worker_loop(jobs_rx, ctx));
            }
            let outcome = loop {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    // Transient per-connection failures (reset during
                    // accept) are not fatal to the server.
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::ConnectionAborted
                                | std::io::ErrorKind::ConnectionReset
                                | std::io::ErrorKind::Interrupted
                        ) =>
                    {
                        continue
                    }
                    Err(e) => {
                        shutdown.store(true, Ordering::Release);
                        break Err(ServeError::Io(e));
                    }
                };
                // The wake-up connection of `shutdown` lands here.
                if shutdown.load(Ordering::Acquire) {
                    break Ok(());
                }
                // Responses are written line-wise; let them go out as
                // produced instead of parking behind Nagle for the
                // client's delayed ACK.
                let _ = stream.set_nodelay(true);
                let Some(slot) = slots.take(ADMIT_WAIT) else {
                    reject_busy(&stream, workers, config.queue);
                    continue;
                };
                let jobs = jobs_tx.clone();
                // A failed spawn drops the closure, and with it the
                // connection and its slot.
                let _ = std::thread::Builder::new().spawn_scoped(scope, move || {
                    let _slot = slot;
                    // A broken connection is the client's problem, not
                    // the server's; same for a panic in the reader.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let _ = serve_connection(stream, &jobs, ctx);
                    }));
                    if outcome.is_err() {
                        ctx.panics.fetch_add(1, Ordering::Relaxed);
                    }
                });
            };
            // Close the acceptor's end of the channel: once every
            // reader has exited, workers finish the queued jobs, their
            // recv() errors and they exit; the scope joins them all.
            drop(jobs_tx);
            outcome
        })
    }
}

/// Where `shutdown` connects to wake the acceptor blocked in
/// `accept()`: the bound address, with an unspecified IP (a listener
/// on every interface) mapped to the loopback of the same family.
fn wake_address(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// A counting cap with RAII release: the `workers + queue` cap on
/// open connections, and the cap on concurrent big jobs.
struct Slots {
    taken: Mutex<usize>,
    freed: Condvar,
    cap: usize,
}

impl Slots {
    fn new(cap: usize) -> Slots {
        Slots {
            taken: Mutex::new(0),
            freed: Condvar::new(),
            cap,
        }
    }

    /// Claims a slot, waiting at most `wait` for one to free; `None`
    /// if the cap still holds after that.
    fn take(&self, wait: Duration) -> Option<Slot<'_>> {
        let taken = self.taken.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut taken, _) = self
            .freed
            .wait_timeout_while(taken, wait, |taken| *taken >= self.cap)
            .unwrap_or_else(PoisonError::into_inner);
        if *taken >= self.cap {
            return None;
        }
        *taken += 1;
        Some(Slot { slots: self })
    }
}

/// One claim on a [`Slots`] cap, released on drop — panic or not.
struct Slot<'a> {
    slots: &'a Slots,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut taken = self
            .slots
            .taken
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *taken = taken.saturating_sub(1);
        self.slots.freed.notify_one();
    }
}

/// The per-server state every reader and worker shares: configuration,
/// the artifact store, the shutdown flag and the address that wakes
/// the acceptor, the panic counter, the job registry the `cancel` verb
/// consults, and the big-job admission gate (at most
/// [`ServeConfig::big_jobs`] big jobs run at once, so small jobs
/// always find a worker promptly).
#[derive(Clone, Copy)]
struct ServerCtx<'a> {
    config: &'a ServeConfig,
    store: &'a Arc<ArtifactStore>,
    shutdown: &'a AtomicBool,
    wake: SocketAddr,
    panics: &'a AtomicU64,
    registry: &'a JobRegistry,
    gate: &'a Slots,
}

/// The submitted jobs a `cancel <id>` can reach, keyed by the client-
/// chosen `job=` id — queued or running alike. Entries are
/// RAII-removed when the job answers, so a stale id cancels nothing.
#[derive(Default)]
struct JobRegistry {
    jobs: Mutex<HashMap<u64, Arc<AtomicBool>>>,
}

impl JobRegistry {
    /// Claims `id` for the duration of the returned guard; `Err` if a
    /// job with the same id is already submitted.
    fn register(&self, id: u64, flag: Arc<AtomicBool>) -> Result<JobGuard<'_>, ()> {
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        match jobs.entry(id) {
            Entry::Occupied(_) => Err(()),
            Entry::Vacant(slot) => {
                slot.insert(flag);
                Ok(JobGuard { registry: self, id })
            }
        }
    }

    /// Flips the cancel flag of the submitted job `id`, if any.
    fn cancel(&self, id: u64) -> bool {
        let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        match jobs.get(&id) {
            Some(flag) => {
                flag.store(true, Ordering::Release);
                true
            }
            None => false,
        }
    }
}

/// Removes its job from the registry on drop — panic or not.
struct JobGuard<'a> {
    registry: &'a JobRegistry,
    id: u64,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        self.registry
            .jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.id);
    }
}

/// A search job's body: runs under the job's cancel flag and returns
/// the response to write.
type JobBody<'a> = Box<dyn FnOnce(&Arc<AtomicBool>) -> Response + Send + 'a>;

/// The connection's writer on its way back to the reader, once the
/// job's answer is written (`Err` if writing it failed).
type Written = std::io::Result<BufWriter<TcpStream>>;

/// One search job, handed from a connection's reader to the pool.
struct Ticket<'a> {
    body: JobBody<'a>,
    cancel: Arc<AtomicBool>,
    /// The job's `job=` id claim, released before the answer is
    /// written, so a `cancel` racing the answer finds no job.
    claim: Option<JobGuard<'a>>,
    writer: BufWriter<TcpStream>,
    done: Sender<Written>,
}

/// Runs jobs until the channel closes — after every reader has exited,
/// so queued jobs are still answered once shutdown flips. Each job
/// body runs under `catch_unwind`: a panic answers `err` and bumps the
/// `panics` counter instead of killing the worker, so the pool never
/// shrinks.
fn worker_loop<'a>(jobs: &Mutex<Receiver<Ticket<'a>>>, ctx: ServerCtx<'a>) {
    loop {
        // Holding the lock while blocked in recv() is deliberate: the
        // channel hands one job to exactly one worker, and the others
        // queue on the mutex, which drops the moment a job arrives. A
        // poisoned lock (a worker panicked mid-recv) is still a valid
        // receiver — take it and keep serving.
        let ticket = match jobs.lock().unwrap_or_else(PoisonError::into_inner).recv() {
            Ok(ticket) => ticket,
            Err(_) => return,
        };
        let Ticket {
            body,
            cancel,
            claim,
            mut writer,
            done,
        } = ticket;
        let response = match catch_unwind(AssertUnwindSafe(|| body(&cancel))) {
            Ok(response) => response,
            Err(payload) => {
                ctx.panics.fetch_add(1, Ordering::Relaxed);
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic payload".to_owned());
                Response::Error(format!("internal panic while serving request: {what}"))
            }
        };
        drop(claim);
        let written = response.write_to(&mut writer).and_then(|()| writer.flush());
        // The reader waits for this before it reads on or exits; if it
        // is gone (its thread panicked) there is no one left to tell.
        let _ = done.send(written.map(|()| writer));
    }
}

/// Answers `busy` on a connection past the cap, then closes it
/// lingering: the write side is shut, and the peer's first request
/// line is drained (for at most [`BUSY_LINGER`]) so the close does not
/// reset the connection under the peer's feet.
fn reject_busy(mut stream: &TcpStream, workers: usize, queue: usize) {
    let _ = stream.set_write_timeout(Some(BUSY_LINGER));
    let mut w = BufWriter::new(stream);
    let msg = format!(
        "queue full: {} connections open ({workers} workers + queue depth {queue}); retry later",
        workers + queue
    );
    let _ = Response::Busy(msg).write_to(&mut w);
    let _ = w.flush();
    drop(w);
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + BUSY_LINGER;
    let mut chunk = [0u8; 1024];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 && !chunk[..n].contains(&b'\n') => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // The line, EOF, a timeout or a hard error: done waiting.
            _ => return,
        }
    }
}

/// Longest accepted request line, in bytes. Generous for any real
/// batch (inline sources travel percent-encoded, so this admits
/// megabyte-scale programs) while bounding what one peer can make the
/// server buffer.
const MAX_LINE: usize = 4 << 20;

/// Reads one connection: request lines in, responses out, in order,
/// until the peer closes, `shutdown`/`bye` ends the session, or the
/// server starts draining. Control verbs are answered here; search
/// jobs go to the pool one at a time. Malformed framing (overlong
/// line, not UTF-8) and a partial line that stalls past
/// [`ServeConfig::read_timeout`] answer one `err` and close instead of
/// silently dropping (or holding the connection forever).
fn serve_connection<'a>(
    stream: TcpStream,
    jobs: &SyncSender<Ticket<'a>>,
    ctx: ServerCtx<'a>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = stream.try_clone()?;
    let mut writer = BufWriter::new(stream);
    let mut pending = Vec::new();
    loop {
        let line = match next_line(
            &mut reader,
            &mut pending,
            ctx.shutdown,
            ctx.config.read_timeout,
        ) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(e)
                if e.kind() == std::io::ErrorKind::InvalidData
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let _ = Response::Error(e.to_string()).write_to(&mut writer);
                let _ = writer.flush();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        // Once the server is draining, stop serving new requests even
        // on connections that keep streaming — otherwise one chatty
        // peer could stall shutdown forever.
        if ctx.shutdown.load(Ordering::Acquire) {
            let _ = Response::Busy("server shutting down".to_owned()).write_to(&mut writer);
            let _ = writer.flush();
            return Ok(());
        }
        let line = line.trim();
        if line.is_empty() {
            continue; // stray blank lines are forgiven, not answered
        }
        let (id, body) = match route(line, ctx) {
            Routed::Job(id, body) => (id, body),
            Routed::Answer(response) => {
                response.write_to(&mut writer)?;
                writer.flush()?;
                if matches!(response, Response::Bye) {
                    return Ok(());
                }
                continue;
            }
        };
        // Claimed on submission, so `cancel <id>` also reaches a job
        // still queued behind a busy pool.
        let cancel = Arc::new(AtomicBool::new(false));
        let claim = match id {
            Some(id) => match ctx.registry.register(id, cancel.clone()) {
                Ok(guard) => Some(guard),
                Err(()) => {
                    Response::Error(format!("job id {id} is already running"))
                        .write_to(&mut writer)?;
                    writer.flush()?;
                    continue;
                }
            },
            None => None,
        };
        let (done, answered) = mpsc::channel();
        let ticket = Ticket {
            body,
            cancel: cancel.clone(),
            claim,
            writer,
            done,
        };
        // Never blocks: the channel holds one job per open connection.
        if jobs.send(ticket).is_err() {
            return Ok(()); // the pool is gone: the server is failing
        }
        writer = match await_job(&mut reader, &mut pending, &cancel, &answered) {
            Some(writer) => writer,
            None => return Ok(()),
        };
    }
}

/// Waits for the connection's in-flight job to answer and takes back
/// the writer it borrowed; `None` once the connection is finished (the
/// peer hung up, or the answer could not be written). Until a complete
/// pipelined line is buffered it keeps reading, so end-of-stream (or a
/// hard socket error) flips the job's cancel flag and releases its
/// worker at the next stop-signal poll instead of burning the rest of
/// the sweep. Pipelined bytes stay in `pending` for [`next_line`].
fn await_job(
    reader: &mut TcpStream,
    pending: &mut Vec<u8>,
    cancel: &AtomicBool,
    answered: &Receiver<Written>,
) -> Option<BufWriter<TcpStream>> {
    let mut chunk = [0u8; 4096];
    while !pending.contains(&b'\n') && pending.len() <= MAX_LINE {
        match answered.try_recv() {
            Ok(written) => return written.ok(),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => {}
        }
        match reader.read(&mut chunk) {
            Ok(n) if n > 0 => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            _ => {
                cancel.store(true, Ordering::Release);
                // Wait for the answer anyway: a reader outlives its
                // job, so the channel never holds more jobs than there
                // are open connections.
                let _ = answered.recv();
                return None;
            }
        }
    }
    answered.recv().ok().and_then(Result::ok)
}

/// Reads one `\n`-terminated line, buffering partial reads across the
/// read timeout so a slow sender never corrupts framing. Returns
/// `None` on EOF, or — once shutdown has flipped — on an idle peer,
/// so draining readers cannot be pinned forever. A line growing past
/// [`MAX_LINE`] without a newline is `InvalidData`, bounding what one
/// peer can make the server hold. A *partial* line making no progress
/// for `read_timeout` is `TimedOut` (`err slow-request` upstream):
/// an idle peer *between* requests is normal keep-alive and may stay
/// connected indefinitely, but a peer that goes silent mid-line holds
/// its connection slot, so it gets a deadline.
fn next_line(
    stream: &mut TcpStream,
    pending: &mut Vec<u8>,
    shutdown: &AtomicBool,
    read_timeout: Duration,
) -> std::io::Result<Option<String>> {
    let mut stalled_since: Option<Instant> = None;
    let take = |bytes: Vec<u8>| {
        String::from_utf8(bytes).map(Some).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "request is not UTF-8")
        })
    };
    loop {
        if let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            return take(line);
        }
        if pending.len() > MAX_LINE {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("request line exceeds {MAX_LINE} bytes"),
            ));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                if pending.is_empty() {
                    return Ok(None);
                }
                // A final line without its newline still counts.
                return take(std::mem::take(pending));
            }
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                stalled_since = None; // progress restarts the clock
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(None);
                }
                if !pending.is_empty() {
                    let since = *stalled_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= read_timeout {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!(
                                "slow-request: partial request line stalled for {}ms",
                                read_timeout.as_millis()
                            ),
                        ));
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// What a reader does with one request line.
enum Routed<'a> {
    /// Answer at once: a control verb or a request that failed to
    /// parse.
    Answer(Response),
    /// Hand a search job, with its optional `job=` id, to the pool.
    Job(Option<u64>, JobBody<'a>),
}

/// Maps one request line to its answer or its search job. Never
/// panics: every failure becomes [`Response::Error`] — a panic inside
/// a search job is caught by [`worker_loop`], counted, and answered as
/// `err` too.
fn route<'a>(line: &str, ctx: ServerCtx<'a>) -> Routed<'a> {
    let response = match Request::parse(line) {
        Err(e) => Response::Error(e.to_string()),
        Ok(Request::Ping) => Response::Pong,
        Ok(Request::Shutdown) => {
            ctx.shutdown.store(true, Ordering::Release);
            // Wake the acceptor out of `accept()`; it sees the flag on
            // this connection and stops.
            let _ = TcpStream::connect_timeout(&ctx.wake, WRITE_TIMEOUT);
            Response::Bye
        }
        Ok(Request::Stats) => run_stats(ctx),
        Ok(Request::Cancel(id)) => {
            if ctx.registry.cancel(id) {
                Response::Ok(vec![format!("cancelled {id}")])
            } else {
                Response::Error(format!("no running job {id}"))
            }
        }
        Ok(Request::Table1(req)) => {
            return Routed::Job(
                req.job,
                Box::new(move |cancel| run_table1(&req, ctx, cancel)),
            )
        }
        Ok(Request::Pareto(req)) => {
            return Routed::Job(
                req.job,
                Box::new(move |cancel| run_pareto(&req, ctx, cancel)),
            )
        }
    };
    Routed::Answer(response)
}

/// Header of the `stats` verb's two-line CSV body. `front_hits` counts
/// searches answered without a sweep: from a stored Pareto staircase,
/// or an exact repeat from its recorded answer.
pub const STATS_CSV_HEADER: &str =
    "hits,misses,evictions,entries,cap,incremental,reused,rederived,panics,front_hits";

/// Answers the `stats` verb: the artifact store's counters plus the
/// server's caught-panic count as a two-line CSV (header + values),
/// so clients can watch hit ratios, residency, edit-loop reuse rates
/// (incremental builds, blocks reused vs re-derived), fault
/// containment and searches answered without a sweep, without
/// scraping logs. Columns only ever append; read them by
/// header name.
fn run_stats(ctx: ServerCtx<'_>) -> Response {
    let s = ctx.store.stats();
    Response::Ok(vec![
        STATS_CSV_HEADER.to_owned(),
        format!(
            "{},{},{},{},{},{},{},{},{},{}",
            s.hits,
            s.misses,
            s.evictions,
            s.entries,
            s.cap,
            s.incremental,
            s.reused,
            s.rederived,
            ctx.panics.load(Ordering::Relaxed),
            s.front_hits
        ),
    ])
}

/// The bundled benchmarks, compiled once per process: `apps::all()`
/// runs the frontend over every bundled source, far too costly for a
/// long-running service's per-request hot path.
fn bundled_apps() -> &'static [lycos::apps::BenchmarkApp] {
    static APPS: std::sync::OnceLock<Vec<lycos::apps::BenchmarkApp>> = std::sync::OnceLock::new();
    APPS.get_or_init(lycos::apps::all)
}

/// Builds one pipeline per job — each wired to the server's shared
/// artifact store — or the error response naming the first bad job.
/// Shared by the `table1` and `pareto` verbs.
fn pipelines_for(
    verb: &str,
    jobs: &[Job],
    store: &Arc<ArtifactStore>,
    fault_injection: bool,
) -> Result<Vec<Pipeline>, Response> {
    if jobs.is_empty() {
        return Err(Response::Error(format!(
            "{verb} request names no jobs (add app=<name> or src=<encoded-lyc>)"
        )));
    }
    let mut pipelines = Vec::with_capacity(jobs.len());
    for job in jobs {
        let mut pipeline = match &job.source {
            JobSource::App(name) if fault_injection && name == "__panic" => {
                panic!("injected fault: job `__panic`")
            }
            JobSource::App(name) if fault_injection && name == HOLD_APP => {
                Pipeline::for_app(&lycos::apps::straight())
            }
            JobSource::App(name) => match bundled_apps().iter().find(|a| a.name == *name) {
                Some(app) => Pipeline::for_app(app),
                None => {
                    return Err(Response::Error(format!(
                        "unknown app `{name}` (bundled: straight, hal, man, eigen)"
                    )))
                }
            },
            JobSource::Inline(source) => Pipeline::new(source.clone()),
        };
        if let Some(gates) = job.budget {
            pipeline = pipeline.with_budget(Area::new(gates));
        }
        pipelines.push(pipeline.with_artifact_store(store.clone()));
    }
    Ok(pipelines)
}

/// The fault-injection app that holds its worker: see
/// [`hold_if_asked`].
const HOLD_APP: &str = "__hold";

/// Parks a request naming the `__hold` app (fault injection only)
/// until its cancel flag flips, after admission so it also holds its
/// big-job slot. The job then searches `straight` under the flipped
/// flag and answers a `cancelled` row. A draining server flips the
/// flag itself, so a held job never stalls shutdown.
fn hold_if_asked(jobs: &[Job], ctx: ServerCtx<'_>, cancel: &AtomicBool) {
    let held = ctx.config.fault_injection
        && jobs
            .iter()
            .any(|job| matches!(&job.source, JobSource::App(name) if name == HOLD_APP));
    if !held {
        return;
    }
    while !cancel.load(Ordering::Acquire) {
        if ctx.shutdown.load(Ordering::Acquire) {
            cancel.store(true, Ordering::Release);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs each job's frontend and restriction pass once: the admission
/// probe sizes the space from the same [`Restricted`] stage the row or
/// frontier then runs over.
fn compile_all(pipelines: Vec<Pipeline>) -> Result<Vec<(Pipeline, Restricted)>, Response> {
    pipelines
        .into_iter()
        .map(|pipeline| match pipeline.compile_restricted() {
            Ok(job) => Ok((pipeline, job)),
            Err(e) => Err(Response::Error(e.to_string())),
        })
        .collect()
}

/// Pre-walk admission: jobs whose widest allocation space (from the
/// ASAP restrictions alone — Algorithm 1 does not change the space)
/// crosses [`ServeConfig::big_job_threshold`] take a big-job slot from
/// the admission gate before searching, waiting for one [`POLL`] at a
/// time; everything else rides the fast lane untouched. `Err(busy)`
/// only if the server starts draining while the job is queued for a
/// slot.
fn admit<'a>(
    ctx: ServerCtx<'a>,
    jobs: &[(Pipeline, Restricted)],
) -> Result<Option<Slot<'a>>, Response> {
    let widest = jobs
        .iter()
        .map(|(_, job)| job.space_size())
        .max()
        .unwrap_or(0);
    if widest <= ctx.config.big_job_threshold {
        return Ok(None);
    }
    loop {
        if let Some(slot) = ctx.gate.take(POLL) {
            return Ok(Some(slot));
        }
        if ctx.shutdown.load(Ordering::Acquire) {
            return Err(Response::Busy("server shutting down".to_owned()));
        }
    }
}

/// A search request past its shared prologue: merged options, one
/// compiled pipeline per job, the big-job slot admission took (if
/// any, released on drop) and the cancel flag as a stop signal.
struct Admitted<'a> {
    options: SearchOptions,
    jobs: Vec<(Pipeline, Restricted)>,
    stop: StopSignal,
    _permit: Option<Slot<'a>>,
}

/// The prologue of every search verb: the knob overrides fold over the
/// configured defaults ([`lycos::pace::KnobOverrides::apply_to`]), with
/// `store-cap` refused — the one store is sized at start-up, so a
/// per-request cap could only be silently ignored. Each job is then
/// compiled, admitted ([`admit`]) and held if it asks
/// ([`hold_if_asked`]). The `deadline-ms` knob merges with the cancel
/// flag inside the engine.
fn admitted<'a>(
    verb: &str,
    jobs: &[Job],
    knobs: &KnobOverrides,
    ctx: ServerCtx<'a>,
    cancel: &Arc<AtomicBool>,
) -> Result<Admitted<'a>, Response> {
    if knobs.get("store-cap").is_some() {
        return Err(Response::Error(
            "store-cap is fixed at start-up (lycos serve --store-cap)".to_owned(),
        ));
    }
    let options = knobs.apply_to(&ctx.config.defaults);
    let pipelines = pipelines_for(verb, jobs, ctx.store, ctx.config.fault_injection)?;
    let compiled = compile_all(pipelines)?;
    let permit = admit(ctx, &compiled)?;
    hold_if_asked(jobs, ctx, cancel);
    Ok(Admitted {
        options,
        jobs: compiled,
        stop: StopSignal::never().with_cancel(cancel.clone()),
        _permit: permit,
    })
}

/// Runs one Table 1 batch through [`Pipeline::table1_row_restricted`],
/// the seam behind [`Pipeline::table1_batch`] and the `table1`
/// bin, so the service's rows are byte-identical to theirs.
fn run_table1(req: &Table1Request, ctx: ServerCtx<'_>, cancel: &Arc<AtomicBool>) -> Response {
    let run = match admitted("table1", &req.jobs, &req.knobs, ctx, cancel) {
        Ok(run) => run,
        Err(response) => return response,
    };
    let options = Table1Options::from_search_options(&run.options);
    let rows: Result<Vec<_>, _> = run
        .jobs
        .iter()
        .map(|(pipeline, job)| pipeline.table1_row_restricted(job, &options, &run.stop))
        .collect();
    match rows {
        Err(e) => Response::Error(e.to_string()),
        Ok(rows) => {
            let body = match req.format {
                Format::Csv => format_table1_csv(&rows, req.timing),
                Format::Text => format_table1(&rows),
            };
            Response::Ok(body.lines().map(str::to_owned).collect())
        }
    }
}

/// Runs one Pareto batch: each job's whole time×area frontier from a
/// single [`lycos::pace::search_pareto`] sweep, straight from the
/// restricted stage ([`Pipeline::pareto_restricted`], no Algorithm 1) and
/// after the same prologue as `table1`.
/// Cancellation or an expired deadline still answers — with the
/// partial frontier over whatever the sweep had visited.
fn run_pareto(req: &ParetoRequest, ctx: ServerCtx<'_>, cancel: &Arc<AtomicBool>) -> Response {
    let run = match admitted("pareto", &req.jobs, &req.knobs, ctx, cancel) {
        Ok(run) => run,
        Err(response) => return response,
    };
    let mut body = String::new();
    if req.format == Format::Csv {
        body.push_str(PARETO_CSV_HEADER);
        body.push('\n');
    }
    for (pipeline, job) in &run.jobs {
        let front = match pipeline.pareto_restricted(job, &run.options, &run.stop) {
            Ok(front) => front,
            Err(e) => return Response::Error(e.to_string()),
        };
        let name = job.compiled.cdfg.name();
        match req.format {
            Format::Csv => {
                for point in &front.points {
                    body.push_str(&pareto_csv_row(name, point));
                    body.push('\n');
                }
            }
            Format::Text => body.push_str(&format_pareto(name, &front)),
        }
    }
    Response::Ok(body.lines().map(str::to_owned).collect())
}

#[cfg(test)]
mod tests {
    use super::wake_address;
    use std::net::SocketAddr;

    #[test]
    fn wake_address_maps_unspecified_ips_to_loopback() {
        let wake = |addr: &str| wake_address(addr.parse::<SocketAddr>().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7878"), "127.0.0.1:7878");
        assert_eq!(wake("[::]:7878"), "[::1]:7878");
        assert_eq!(wake("10.1.2.3:7878"), "10.1.2.3:7878");
        assert_eq!(wake("[fe80::1]:7878"), "[fe80::1]:7878");
    }
}
