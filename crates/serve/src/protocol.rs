//! The newline-delimited wire protocol of the allocation service.
//!
//! One request per line, one response per request, in order. A
//! request is a verb followed by space-separated `key=value` fields
//! (or bare flags); free-form text — inline LYC sources, error
//! messages — travels percent-encoded so it can never contain a space
//! or a newline on the wire.
//!
//! ```text
//! C: table1 app=hal threads=1 limit=400 format=csv
//! S: ok 2
//! S: name,lines,heuristic_su_pct,…
//! S: hal,61,…
//! C: shutdown
//! S: bye
//! ```
//!
//! Every type round-trips: [`Request::parse`] inverts
//! [`Request::to_line`], and [`read_response`] inverts
//! [`Response::write_to`] — both pinned by unit tests, so client and
//! server cannot drift.

use crate::ServeError;
use lycos::pace::{search_knob_by_wire, KnobKind, KnobOverrides, KnobSetting};
use std::fmt;
use std::io::{BufRead, Write};

/// Default listen address of `lycos serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// Bytes that travel unencoded: everything else becomes `%XX`.
fn is_safe(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'~' | b'-')
}

/// Percent-encodes arbitrary text into a single space-free,
/// newline-free token.
pub fn encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for b in text.bytes() {
        if is_safe(b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Decodes a token produced by [`encode`].
///
/// # Errors
///
/// [`ProtocolError::BadEncoding`] on a truncated or non-hex escape,
/// on invalid UTF-8, or on a byte that should have been escaped.
pub fn decode(token: &str) -> Result<String, ProtocolError> {
    let bad = || ProtocolError::BadEncoding(token.to_owned());
    let mut bytes = Vec::with_capacity(token.len());
    let mut it = token.bytes();
    while let Some(b) = it.next() {
        if b == b'%' {
            let hi = it.next().ok_or_else(bad)?;
            let lo = it.next().ok_or_else(bad)?;
            let hex = |c: u8| (c as char).to_digit(16).ok_or_else(bad);
            bytes.push((hex(hi)? * 16 + hex(lo)?) as u8);
        } else if is_safe(b) {
            bytes.push(b);
        } else {
            return Err(bad());
        }
    }
    String::from_utf8(bytes).map_err(|_| bad())
}

/// A malformed request or response.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolError {
    /// The line held no verb at all.
    Empty,
    /// The verb is not one of `ping`, `shutdown`, `table1`, `pareto`,
    /// `stats`, `cancel`.
    UnknownVerb(String),
    /// A request field key is not recognised.
    UnknownField(String),
    /// A field value failed to parse.
    BadValue {
        /// The field name.
        field: &'static str,
        /// The offending value, verbatim.
        value: String,
    },
    /// A percent-encoded token could not be decoded.
    BadEncoding(String),
    /// A response status line is malformed.
    BadResponse(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Empty => write!(f, "empty request"),
            ProtocolError::UnknownVerb(v) => {
                write!(
                    f,
                    "unknown verb `{v}` (expected ping, shutdown, table1, pareto, stats or cancel)"
                )
            }
            ProtocolError::UnknownField(k) => write!(f, "unknown request field `{k}`"),
            ProtocolError::BadValue { field, value } => {
                write!(f, "invalid {field} value `{value}`")
            }
            ProtocolError::BadEncoding(t) => write!(f, "malformed percent-encoding `{t}`"),
            ProtocolError::BadResponse(l) => write!(f, "malformed response line `{l}`"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Output shape of a `table1` request.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Format {
    /// The canonical machine CSV (header + one line per row),
    /// byte-identical to `table1 --csv --stable`.
    #[default]
    Csv,
    /// The paper-layout text table.
    Text,
}

/// Where one job's LYC program comes from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JobSource {
    /// A bundled benchmark, by name (`straight`, `hal`, `man`, `eigen`).
    App(String),
    /// An inline LYC source text.
    Inline(String),
}

/// One application to push through the Table 1 flow.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Job {
    /// The program.
    pub source: JobSource,
    /// Area budget in gate equivalents; `None` = the app's bundled
    /// budget, or the pipeline default (10 000 GE) for inline sources.
    pub budget: Option<u64>,
}

/// A batch of Table 1 jobs plus per-request search knobs.
///
/// The knob fields this struct used to spell out one by one
/// (`threads`, `limit`, `bound`, …) now travel as a single
/// [`KnobOverrides`] derived from the engine's own knob table — both
/// [`Request::parse`] and [`Request::to_line`] walk
/// [`lycos::pace::SEARCH_KNOBS`], so a knob added to the engine is a
/// wire field with no protocol edit.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Table1Request {
    /// The applications to evaluate, in response order.
    pub jobs: Vec<Job>,
    /// Per-request knob overrides, applied over the server's
    /// configured defaults ([`KnobOverrides::apply_to`]). Only the
    /// knobs the client actually said; `limit=0` travels as
    /// `Limit(None)` (unlimited), exactly the CLI's reading.
    pub knobs: KnobOverrides,
    /// Response body shape.
    pub format: Format,
    /// Include the measured allocator wall clock in CSV rows
    /// (off by default, keeping responses byte-deterministic).
    pub timing: bool,
    /// Client-chosen job id (`job=<n>`), the handle a later
    /// [`Request::Cancel`] names. `None` — the default — makes the
    /// request uncancellable by verb (disconnect still cancels it).
    pub job: Option<u64>,
}

/// A Pareto-frontier sweep: the same jobs and knobs as
/// [`Table1Request`], but each job answers with its whole time×area
/// frontier from one [`lycos::pace::search_pareto`] sweep instead of
/// one best-under-budget row. There is no `timing` field — every
/// Pareto column is a pure function of the search outcome, so
/// responses are always byte-deterministic.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ParetoRequest {
    /// The applications to sweep, in response order.
    pub jobs: Vec<Job>,
    /// Per-request knob overrides, as in [`Table1Request::knobs`].
    pub knobs: KnobOverrides,
    /// Response body shape.
    pub format: Format,
    /// Client-chosen job id, as in [`Table1Request::job`].
    pub job: Option<u64>,
}

/// One parsed request line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Health probe; answered with [`Response::Pong`].
    Ping,
    /// Graceful shutdown: drain queued work, then stop.
    Shutdown,
    /// A Table 1 batch.
    Table1(Table1Request),
    /// A Pareto-frontier batch.
    Pareto(ParetoRequest),
    /// Artifact-store counters (hits, misses, evictions, residency) —
    /// the observability verb for the server's cross-request cache.
    Stats,
    /// Cancel the submitted job — running, or still queued for a
    /// worker — with this client-chosen id (the `job=` field of an
    /// earlier `table1`/`pareto` sent on another connection). The
    /// cancelled request still answers — with whatever the search had
    /// visited when the flag landed.
    Cancel(u64),
}

/// Splits a job token into its payload and optional `@budget` suffix.
fn split_budget(field: &'static str, token: &str) -> Result<(String, Option<u64>), ProtocolError> {
    match token.rsplit_once('@') {
        None => Ok((token.to_owned(), None)),
        Some((payload, budget)) => {
            let gates = budget.parse::<u64>().map_err(|_| ProtocolError::BadValue {
                field,
                value: token.to_owned(),
            })?;
            Ok((payload.to_owned(), Some(gates)))
        }
    }
}

/// The fields the search-driven verbs share: jobs, knob overrides,
/// output format, and — where the verb admits it — `timing`.
#[derive(Default)]
struct SearchFields {
    jobs: Vec<Job>,
    knobs: KnobOverrides,
    format: Format,
    timing: bool,
    job: Option<u64>,
}

/// Parses the `key=value` / bare-flag tokens after a search-driven
/// verb. Knob tokens are resolved against the engine's own table
/// ([`lycos::pace::SEARCH_KNOBS`]) by their wire spelling; bare flags
/// reject `=value` forms instead of silently enabling what
/// `timing=false` tried to turn off. `allow_timing` is off for verbs
/// whose responses carry no wall-clock column (`pareto`).
fn parse_search_fields<'a>(
    tokens: impl Iterator<Item = &'a str>,
    allow_timing: bool,
) -> Result<SearchFields, ProtocolError> {
    let mut out = SearchFields::default();
    for token in tokens {
        let (key, value) = match token.split_once('=') {
            Some((k, v)) => (k, v),
            None => (token, ""),
        };
        match key {
            "app" => {
                let (name, budget) = split_budget("app", value)?;
                out.jobs.push(Job {
                    source: JobSource::App(name),
                    budget,
                });
            }
            "apps" => {
                for name in value.split(',').filter(|n| !n.is_empty()) {
                    out.jobs.push(Job {
                        source: JobSource::App(name.to_owned()),
                        budget: None,
                    });
                }
            }
            "src" => {
                let (enc, budget) = split_budget("src", value)?;
                out.jobs.push(Job {
                    source: JobSource::Inline(decode(&enc)?),
                    budget,
                });
            }
            "job" => {
                let id = value.parse::<u64>().map_err(|_| ProtocolError::BadValue {
                    field: "job",
                    value: value.to_owned(),
                })?;
                out.job = Some(id);
            }
            "timing" if allow_timing => {
                if token.contains('=') {
                    return Err(ProtocolError::BadValue {
                        field: "timing",
                        value: value.to_owned(),
                    });
                }
                out.timing = true;
            }
            "format" => {
                out.format = match value {
                    "csv" => Format::Csv,
                    "text" => Format::Text,
                    _ => {
                        return Err(ProtocolError::BadValue {
                            field: "format",
                            value: value.to_owned(),
                        })
                    }
                };
            }
            _ => match search_knob_by_wire(key) {
                Some(knob) if knob.takes_value() => {
                    let n: usize = value.parse().map_err(|_| ProtocolError::BadValue {
                        field: knob.wire,
                        value: value.to_owned(),
                    })?;
                    out.knobs.set(knob.name, knob.setting_from_count(n));
                }
                Some(knob) => {
                    if token.contains('=') {
                        return Err(ProtocolError::BadValue {
                            field: knob.wire,
                            value: value.to_owned(),
                        });
                    }
                    // The wire carries only the non-default direction:
                    // `bound` turns on, the `no-` spellings turn off.
                    let on = matches!(knob.kind, KnobKind::EnabledBy);
                    out.knobs.set(knob.name, KnobSetting::Switch(on));
                }
                None => return Err(ProtocolError::UnknownField(key.to_owned())),
            },
        }
    }
    Ok(out)
}

/// Emits the shared fields in the canonical order: jobs first, then
/// knob overrides in [`lycos::pace::SEARCH_KNOBS`] table order, then
/// `format`. The inverse of [`parse_search_fields`] for everything
/// the wire can say.
fn push_search_fields(out: &mut String, jobs: &[Job], knobs: &KnobOverrides, format: Format) {
    for job in jobs {
        let budget = job.budget.map(|b| format!("@{b}")).unwrap_or_default();
        match &job.source {
            JobSource::App(name) => {
                out.push_str(&format!(" app={name}{budget}"));
            }
            JobSource::Inline(src) => {
                out.push_str(&format!(" src={}{budget}", encode(src)));
            }
        }
    }
    for (knob, setting) in knobs.iter() {
        match setting {
            KnobSetting::Count(n) => out.push_str(&format!(" {}={n}", knob.wire)),
            KnobSetting::Limit(v) => {
                // Unlimited travels as the CLI's `0` spelling.
                out.push_str(&format!(" {}={}", knob.wire, v.unwrap_or(0)));
            }
            KnobSetting::Switch(on) => {
                // A switch override the wire cannot spell (warm back on
                // when the server default is off) is dropped: absent
                // means "server default", the closest the protocol has
                // ever been able to say.
                let spoken = match knob.kind {
                    KnobKind::EnabledBy => on,
                    _ => !on,
                };
                if spoken {
                    out.push_str(&format!(" {}", knob.wire));
                }
            }
        }
    }
    if format == Format::Text {
        out.push_str(" format=text");
    }
}

impl Request {
    /// Parses one wire line (already stripped of its newline).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] describing the first malformed token.
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let mut tokens = line.split_ascii_whitespace();
        let verb = tokens.next().ok_or(ProtocolError::Empty)?;
        match verb {
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "stats" => Ok(Request::Stats),
            "cancel" => {
                let token = tokens.next().unwrap_or("");
                let id = token.parse::<u64>().map_err(|_| ProtocolError::BadValue {
                    field: "cancel",
                    value: token.to_owned(),
                })?;
                Ok(Request::Cancel(id))
            }
            "table1" => {
                let fields = parse_search_fields(tokens, true)?;
                Ok(Request::Table1(Table1Request {
                    jobs: fields.jobs,
                    knobs: fields.knobs,
                    format: fields.format,
                    timing: fields.timing,
                    job: fields.job,
                }))
            }
            "pareto" => {
                let fields = parse_search_fields(tokens, false)?;
                Ok(Request::Pareto(ParetoRequest {
                    jobs: fields.jobs,
                    knobs: fields.knobs,
                    format: fields.format,
                    job: fields.job,
                }))
            }
            other => Err(ProtocolError::UnknownVerb(other.to_owned())),
        }
    }

    /// Renders the canonical wire line (no trailing newline).
    /// [`Request::parse`] inverts this exactly.
    pub fn to_line(&self) -> String {
        match self {
            Request::Ping => "ping".to_owned(),
            Request::Shutdown => "shutdown".to_owned(),
            Request::Stats => "stats".to_owned(),
            Request::Cancel(id) => format!("cancel {id}"),
            Request::Table1(req) => {
                let mut out = String::from("table1");
                push_search_fields(&mut out, &req.jobs, &req.knobs, req.format);
                if req.timing {
                    out.push_str(" timing");
                }
                // `job=` goes last so every pre-cancellation line stays
                // byte-identical to what older clients emitted.
                if let Some(id) = req.job {
                    out.push_str(&format!(" job={id}"));
                }
                out
            }
            Request::Pareto(req) => {
                let mut out = String::from("pareto");
                push_search_fields(&mut out, &req.jobs, &req.knobs, req.format);
                if let Some(id) = req.job {
                    out.push_str(&format!(" job={id}"));
                }
                out
            }
        }
    }
}

/// One response, possibly multi-line on the wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// Success: the body lines (`ok <n>` followed by `n` lines).
    Ok(Vec<String>),
    /// The request failed; the message travels percent-encoded.
    Error(String),
    /// Backpressure: the server holds as many connections as it
    /// admits (or is shutting down); retry later.
    Busy(String),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Shutdown`]; the connection closes after.
    Bye,
}

impl Response {
    /// Writes the wire form, newline-terminated.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        match self {
            Response::Ok(lines) => {
                writeln!(w, "ok {}", lines.len())?;
                for line in lines {
                    debug_assert!(!line.contains('\n'), "body lines are single lines");
                    writeln!(w, "{line}")?;
                }
                Ok(())
            }
            Response::Error(msg) => writeln!(w, "err {}", encode(msg)),
            Response::Busy(msg) => writeln!(w, "busy {}", encode(msg)),
            Response::Pong => writeln!(w, "pong"),
            Response::Bye => writeln!(w, "bye"),
        }
    }
}

/// Reads one complete response from `r` — the inverse of
/// [`Response::write_to`].
///
/// # Errors
///
/// [`ServeError::Io`] on transport failure or premature EOF,
/// [`ServeError::Protocol`] on a malformed status line.
pub fn read_response(r: &mut impl BufRead) -> Result<Response, ServeError> {
    let status = read_wire_line(r)?;
    let (kind, rest) = match status.split_once(' ') {
        Some((k, rest)) => (k, rest),
        None => (status.as_str(), ""),
    };
    match kind {
        "ok" => {
            let n: usize = rest
                .parse()
                .map_err(|_| ServeError::Protocol(ProtocolError::BadResponse(status.clone())))?;
            let mut lines = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                lines.push(read_wire_line(r)?);
            }
            Ok(Response::Ok(lines))
        }
        "err" => Ok(Response::Error(decode(rest).map_err(ServeError::Protocol)?)),
        "busy" => Ok(Response::Busy(decode(rest).map_err(ServeError::Protocol)?)),
        "pong" => Ok(Response::Pong),
        "bye" => Ok(Response::Bye),
        _ => Err(ServeError::Protocol(ProtocolError::BadResponse(status))),
    }
}

/// One `\n`-terminated line, stripped; EOF is an error (responses are
/// never silently cut short).
fn read_wire_line(r: &mut impl BufRead) -> Result<String, ServeError> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        )));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_round_trips_arbitrary_text() {
        for text in [
            "",
            "plain-token_1.2~ok",
            "app demo;\nloop l times 500 {\n  y = y + u * dx;\n}",
            "spaces, = signs, @ ats, % percents, 100%",
            "unicode: λύκος → LYCOS",
        ] {
            let enc = encode(text);
            assert!(!enc.contains(' ') && !enc.contains('\n'), "{enc}");
            assert_eq!(decode(&enc).unwrap(), text);
        }
    }

    #[test]
    fn decode_rejects_malformed_tokens() {
        for bad in ["%", "%2", "%GG", "has space", "new\nline", "at@sign"] {
            assert!(decode(bad).is_err(), "{bad:?} must not decode");
        }
    }

    /// Every knob the wire can say, as overrides.
    fn all_knobs() -> KnobOverrides {
        let mut knobs = KnobOverrides::new();
        knobs.set("threads", KnobSetting::Count(2));
        knobs.set("limit", KnobSetting::Limit(None)); // `limit=0` on the wire
        knobs.set("bound", KnobSetting::Switch(true));
        knobs.set("store-cap", KnobSetting::Count(1));
        knobs.set("warm", KnobSetting::Switch(false));
        knobs
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Shutdown,
            Request::Stats,
            Request::Table1(Table1Request::default()),
            Request::Table1(Table1Request {
                jobs: vec![
                    Job {
                        source: JobSource::App("hal".into()),
                        budget: None,
                    },
                    Job {
                        source: JobSource::App("man".into()),
                        budget: Some(6_900),
                    },
                    Job {
                        source: JobSource::Inline("app t;\ny = a * b;".into()),
                        budget: Some(6_000),
                    },
                ],
                knobs: all_knobs(),
                format: Format::Text,
                timing: true,
                job: Some(7),
            }),
            Request::Pareto(ParetoRequest::default()),
            Request::Pareto(ParetoRequest {
                jobs: vec![Job {
                    source: JobSource::App("eigen".into()),
                    budget: Some(12_000),
                }],
                knobs: all_knobs(),
                format: Format::Text,
                job: Some(41),
            }),
            Request::Cancel(7),
        ]
    }

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        for req in sample_requests() {
            let line = req.to_line();
            assert!(!line.contains('\n'), "one request = one line: {line}");
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn parse_accepts_the_apps_shorthand() {
        let req = Request::parse("table1 apps=straight,hal,man,eigen threads=1").unwrap();
        let Request::Table1(t) = req else {
            panic!("not a table1 request")
        };
        assert_eq!(t.jobs.len(), 4);
        assert!(t
            .jobs
            .iter()
            .all(|j| matches!(j.source, JobSource::App(_)) && j.budget.is_none()));
        assert_eq!(t.knobs.get("threads"), Some(KnobSetting::Count(1)));
        assert_eq!(
            t.knobs.get("limit"),
            None,
            "unsaid knobs stay server-default"
        );
    }

    #[test]
    fn to_line_keeps_the_historical_token_order() {
        // The byte-pinned canonical line: jobs, then knobs in engine
        // table order, then format, then timing — exactly what the
        // hand-rolled emitter produced before the knob-table refactor.
        let line = "table1 app=hal threads=2 limit=0 bound store-cap=1 no-warm format=text timing";
        let req = Request::parse(line).unwrap();
        assert_eq!(req.to_line(), line);
        // Scrambled client input still renders the canonical order.
        let scrambled = Request::parse(
            "table1 bound app=hal limit=0 timing threads=2 store-cap=1 no-warm format=text",
        )
        .unwrap();
        assert_eq!(scrambled.to_line(), line);
        // And the pareto verb shares the emitter (minus `timing`).
        let pareto =
            "pareto app=eigen@12000 threads=2 limit=0 bound store-cap=1 no-warm format=text";
        assert_eq!(Request::parse(pareto).unwrap().to_line(), pareto);
    }

    #[test]
    fn pareto_requests_round_trip_and_reject_timing() {
        let req = Request::parse("pareto app=hal@7500 bound threads=1").unwrap();
        let Request::Pareto(p) = &req else {
            panic!("not a pareto request")
        };
        assert_eq!(p.jobs.len(), 1);
        assert_eq!(p.knobs.get("bound"), Some(KnobSetting::Switch(true)));
        assert_eq!(p.knobs.get("threads"), Some(KnobSetting::Count(1)));
        assert_eq!(p.format, Format::Csv);
        assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
        // No wall-clock column in a pareto response, so no `timing`.
        assert_eq!(
            Request::parse("pareto app=hal timing"),
            Err(ProtocolError::UnknownField("timing".into()))
        );
    }

    #[test]
    fn parse_reports_the_offending_token() {
        assert_eq!(Request::parse("  "), Err(ProtocolError::Empty));
        assert_eq!(
            Request::parse("frobnicate"),
            Err(ProtocolError::UnknownVerb("frobnicate".into()))
        );
        // Unknown fields — including the retired engine-lever tokens
        // — fail through the one generic path.
        for (token, field) in [
            ("speed=11", "speed"),
            ("no-cache", "no-cache"),
            ("no-bound-comm", "no-bound-comm"),
            ("no-simd", "no-simd"),
            ("no-steal", "no-steal"),
            ("dp-threads=2", "dp-threads"),
            ("no-incremental", "no-incremental"),
        ] {
            assert_eq!(
                Request::parse(&format!("table1 app=hal {token}")),
                Err(ProtocolError::UnknownField(field.into())),
                "{token}"
            );
        }
        assert_eq!(
            Request::parse("table1 threads=many"),
            Err(ProtocolError::BadValue {
                field: "threads",
                value: "many".into()
            })
        );
        assert_eq!(
            Request::parse("table1 app=hal store-cap=lots"),
            Err(ProtocolError::BadValue {
                field: "store-cap",
                value: "lots".into()
            })
        );
        assert_eq!(
            Request::parse("table1 app=hal@lots"),
            Err(ProtocolError::BadValue {
                field: "app",
                value: "hal@lots".into()
            })
        );
        // Bare flags must not silently swallow a value: `timing=false`
        // enabling timing would break byte-for-byte diffs downstream.
        assert_eq!(
            Request::parse("table1 app=hal timing=false"),
            Err(ProtocolError::BadValue {
                field: "timing",
                value: "false".into()
            })
        );
        assert_eq!(
            Request::parse("table1 app=hal no-warm=0"),
            Err(ProtocolError::BadValue {
                field: "no-warm",
                value: "0".into()
            })
        );
        assert_eq!(
            Request::parse("table1 app=hal bound=false"),
            Err(ProtocolError::BadValue {
                field: "bound",
                value: "false".into()
            })
        );
    }

    #[test]
    fn cancel_and_job_fields_round_trip() {
        assert_eq!(Request::parse("cancel 12").unwrap(), Request::Cancel(12));
        assert_eq!(Request::Cancel(12).to_line(), "cancel 12");
        for bad in ["cancel", "cancel x", "cancel -1"] {
            assert!(
                matches!(
                    Request::parse(bad),
                    Err(ProtocolError::BadValue {
                        field: "cancel",
                        ..
                    })
                ),
                "{bad:?}"
            );
        }
        // `job=` tags a search request and is emitted last, after the
        // historical token order.
        let req = Request::parse("table1 app=hal bound timing job=9").unwrap();
        let Request::Table1(t) = &req else {
            panic!("not a table1 request")
        };
        assert_eq!(t.job, Some(9));
        assert_eq!(req.to_line(), "table1 app=hal bound timing job=9");
        assert!(matches!(
            Request::parse("table1 app=hal job=soon"),
            Err(ProtocolError::BadValue { field: "job", .. })
        ));
    }

    #[test]
    fn bound_flag_round_trips_bare() {
        let req = Request::parse("table1 app=hal bound").unwrap();
        let Request::Table1(t) = &req else {
            panic!("not a table1 request")
        };
        assert_eq!(t.knobs.get("bound"), Some(KnobSetting::Switch(true)));
        assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
    }

    #[test]
    fn default_on_flags_round_trip_bare() {
        let req = Request::parse("table1 app=hal no-warm").unwrap();
        let Request::Table1(t) = &req else {
            panic!("not a table1 request")
        };
        assert_eq!(t.knobs.get("warm"), Some(KnobSetting::Switch(false)));
        for name in ["threads", "bound"] {
            assert_eq!(
                t.knobs.get(name),
                None,
                "unrelated knob {name} stays unsaid"
            );
        }
        assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
    }

    #[test]
    fn responses_round_trip_through_the_wire_form() {
        let samples = vec![
            Response::Ok(vec![]),
            Response::Ok(vec!["a,b,c".into(), "1,2,3".into()]),
            Response::Error("unknown app `x` (bundled: straight, hal, man, eigen)".into()),
            Response::Busy("queue full (4 workers busy, queue depth 8)".into()),
            Response::Pong,
            Response::Bye,
        ];
        for resp in samples {
            let mut wire = Vec::new();
            resp.write_to(&mut wire).unwrap();
            let text = String::from_utf8(wire.clone()).unwrap();
            assert!(text.ends_with('\n'), "{text:?}");
            let mut reader = std::io::BufReader::new(&wire[..]);
            assert_eq!(read_response(&mut reader).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_responses_error_instead_of_hanging() {
        let mut reader = std::io::BufReader::new(&b"ok 3\nonly-one\n"[..]);
        assert!(matches!(read_response(&mut reader), Err(ServeError::Io(_))));
        let mut reader = std::io::BufReader::new(&b"ok lots\n"[..]);
        assert!(matches!(
            read_response(&mut reader),
            Err(ServeError::Protocol(ProtocolError::BadResponse(_)))
        ));
    }
}
