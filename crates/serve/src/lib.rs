//! # lycos_serve — the allocation service
//!
//! A long-running server over the [`lycos::Pipeline`] facade: batch
//! LYC programs in, Table 1 rows out, over a newline-delimited TCP
//! protocol (see [`protocol`]). Responses are produced by the same
//! [`lycos::Pipeline::table1_batch`] seam and CSV emitters the
//! `table1` bin uses, so service output is byte-identical to
//! `table1 --csv --stable` for the same jobs and search options.
//!
//! The server is std-only: a blocking [`std::net::TcpListener`]
//! accept loop, one scoped reader thread per open connection, and a
//! fixed scoped-thread worker pool fed search jobs over a bounded
//! [`std::sync::mpsc::sync_channel`]. Readers own sockets and workers
//! own jobs, so idle keep-alive connections never hold a worker. Past
//! `workers + queue` open connections the server answers `busy`
//! instead of growing without bound; a `shutdown` request lets every
//! submitted job answer and joins every thread before [`Server::run`]
//! returns.
//!
//! ```no_run
//! use lycos_serve::{Client, Request, ServeConfig, Server};
//! use std::time::Duration;
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServeConfig::default()
//! })?;
//! let addr = server.local_addr()?.to_string();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect_with_retry(&addr, Duration::from_secs(5))?;
//! let _rows = client.send(&Request::parse("table1 app=hal threads=1")?)?;
//! client.send(&Request::Shutdown)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
pub mod protocol;
mod server;

pub use client::Client;
pub use protocol::{
    Format, Job, JobSource, ProtocolError, Request, Response, Table1Request, DEFAULT_ADDR,
};
pub use server::{ServeConfig, Server, STATS_CSV_HEADER};

use std::fmt;

/// Any failure of the service layer: transport or protocol.
#[derive(Debug)]
pub enum ServeError {
    /// A socket-level failure.
    Io(std::io::Error),
    /// A malformed request or response.
    Protocol(ProtocolError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o: {e}"),
            ServeError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}
