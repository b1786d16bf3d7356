//! A minimal std-only HTTP/1.1 front for the metrics registry, so a
//! stock Prometheus (or plain `GET`) scrapes a live process without
//! speaking the fleet's frame protocol.
//!
//! [`MetricsServer`] serves exactly two paths:
//!
//! * `GET /metrics` — the Prometheus text exposition of one
//!   [`Registry::snapshot`]. Handling a scrape performs **no mutation**
//!   of the served registry (the server's own traffic counters are
//!   standalone, deliberately unregistered), so in a quiescent process
//!   an HTTP scrape and a wire scrape of the same registry return
//!   byte-identical text — the equality the fleet's integration tests
//!   pin.
//! * `GET /healthz` — a small JSON liveness body. This is the one
//!   handler that touches the registry: it refreshes the
//!   `twm_obs_http_uptime_seconds` gauge registered at bind time next
//!   to the `twm_build_info{package,version}` constant gauge.
//!
//! Anything else is answered with a typed error: `405` (with `Allow:
//! GET`) for a wrong method on a known path, `404` for an unknown
//! path, `400` for an oversized, non-UTF-8 or malformed request head.
//! Connections are HTTP/1.1 `Connection: close` — one request each,
//! answered by a single write of head and body on a no-delay stream —
//! and served either serially ([`MetricsServer::run`]) or
//! thread-per-connection ([`MetricsServer::run_concurrent`]), the same
//! split the fleet's TCP front uses.
//!
//! This module retires wholesale once the workspace can depend on a
//! real HTTP stack again (see `vendor/README.md`).

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{Counter, Gauge, Registry};

/// Upper bound on the request head (request line + headers) in bytes;
/// more is answered with `400`.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// How long a connection may dribble its request head before the
/// server gives up on it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The exposition content type Prometheus expects.
const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Which registry a server renders on `/metrics`.
#[derive(Debug)]
enum Served {
    /// The process-wide registry ([`crate::metrics::global`]).
    Global,
    /// A caller-owned registry (isolated tests).
    Owned(Arc<Registry>),
}

impl Served {
    fn registry(&self) -> &Registry {
        match self {
            Served::Global => crate::metrics::global(),
            Served::Owned(registry) => registry,
        }
    }
}

/// Point-in-time counts of one server's HTTP traffic, from
/// [`MetricsServer::stats`]. These live outside the served registry so
/// scrapes never observe themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Successful `GET /metrics` responses.
    pub scrapes: u64,
    /// Successful `GET /healthz` responses.
    pub health_checks: u64,
    /// `404` responses.
    pub not_found: u64,
    /// `405` responses.
    pub method_not_allowed: u64,
    /// `400` responses.
    pub bad_requests: u64,
}

/// A blocking HTTP/1.1 listener exposing a [`Registry`] on `/metrics`
/// and liveness on `/healthz`. See the [module docs](self) for the
/// exact contract.
#[derive(Debug)]
pub struct MetricsServer {
    listener: TcpListener,
    served: Served,
    started: Instant,
    uptime: Gauge,
    connections: Counter,
    scrapes: Counter,
    health_checks: Counter,
    not_found: Counter,
    method_not_allowed: Counter,
    bad_requests: Counter,
}

impl MetricsServer {
    /// Binds a server over the process-wide registry. Use port `0` to
    /// let the OS pick (read it back with [`MetricsServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::bind_served(addr, Served::Global)
    }

    /// Binds a server over a caller-owned registry — isolated tests,
    /// or serving a snapshot domain other than the process's.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_registry(addr: impl ToSocketAddrs, registry: Arc<Registry>) -> io::Result<Self> {
        Self::bind_served(addr, Served::Owned(registry))
    }

    fn bind_served(addr: impl ToSocketAddrs, served: Served) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        // The two gauges the endpoint owns, registered once at bind:
        // build info is constant, uptime refreshes on each /healthz
        // (never on /metrics — scrapes stay pure).
        let registry = served.registry();
        let uptime = registry.gauge("twm_obs_http_uptime_seconds", &[]);
        registry
            .gauge(
                "twm_build_info",
                &[
                    ("package", env!("CARGO_PKG_NAME")),
                    ("version", env!("CARGO_PKG_VERSION")),
                ],
            )
            .set(1);
        Ok(Self {
            listener,
            served,
            started: Instant::now(),
            uptime,
            connections: Counter::new(),
            scrapes: Counter::new(),
            health_checks: Counter::new(),
            not_found: Counter::new(),
            method_not_allowed: Counter::new(),
            bad_requests: Counter::new(),
        })
    }

    /// The bound address (resolves port `0` binds).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// This server's own traffic counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.get(),
            scrapes: self.scrapes.get(),
            health_checks: self.health_checks.get(),
            not_found: self.not_found.get(),
            method_not_allowed: self.method_not_allowed.get(),
            bad_requests: self.bad_requests.get(),
        }
    }

    /// Accepts and serves exactly one connection (tests, manual loops).
    ///
    /// # Errors
    ///
    /// Propagates the accept failure; errors on an accepted connection
    /// are absorbed (the client is gone — there is nobody to tell).
    pub fn accept_one(&self) -> io::Result<()> {
        let (stream, _peer) = self.listener.accept()?;
        self.serve_connection(stream);
        Ok(())
    }

    /// Serves connections forever, one at a time.
    ///
    /// # Errors
    ///
    /// Returns the first accept failure.
    pub fn run(&self) -> io::Result<()> {
        loop {
            self.accept_one()?;
        }
    }

    /// Serves connections forever, one scoped thread per connection —
    /// the same shape as the fleet TCP front's concurrent dispatcher.
    ///
    /// # Errors
    ///
    /// Returns the first accept failure (after live connection threads
    /// finish).
    pub fn run_concurrent(&self) -> io::Result<()> {
        std::thread::scope(|scope| loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    scope.spawn(move || self.serve_connection(stream));
                }
                Err(error) => return Err(error),
            }
        })
    }

    /// Serves one already-accepted connection: reads a single request,
    /// writes a single `Connection: close` response. I/O failures are
    /// absorbed — the peer has hung up, and a metrics endpoint never
    /// takes the process down with it.
    pub fn serve_connection(&self, stream: TcpStream) {
        self.connections.incr();
        let _ = self.try_serve(stream);
    }

    fn try_serve(&self, mut stream: TcpStream) -> io::Result<()> {
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let _ = stream.set_nodelay(true);
        let head = match read_head(&mut stream) {
            Ok(head) => head,
            Err(HeadError::Io(error)) => return Err(error),
            Err(HeadError::TooLarge) => {
                self.bad_requests.incr();
                let result = respond(
                    &mut stream,
                    400,
                    "Bad Request",
                    b"request head too large\n",
                    &[],
                );
                // Unread request bytes at close would turn the FIN into
                // an RST and could destroy the 400 in the peer's
                // receive buffer; briefly drain what the client already
                // sent so the refusal actually arrives.
                drain(&mut stream);
                return result;
            }
            Err(HeadError::NotUtf8) => {
                self.bad_requests.incr();
                return respond(
                    &mut stream,
                    400,
                    "Bad Request",
                    b"request head is not valid UTF-8\n",
                    &[],
                );
            }
        };
        let Some((method, target)) = parse_request_line(&head) else {
            self.bad_requests.incr();
            return respond(
                &mut stream,
                400,
                "Bad Request",
                b"malformed request line\n",
                &[],
            );
        };
        let path = target.split('?').next().unwrap_or("");
        match (path, method) {
            ("/metrics", "GET") => {
                self.scrapes.incr();
                let body = self.served.registry().snapshot().expose();
                respond_with_type(
                    &mut stream,
                    200,
                    "OK",
                    EXPOSITION_CONTENT_TYPE,
                    body.as_bytes(),
                    &[],
                )
            }
            ("/healthz", "GET") => {
                self.health_checks.incr();
                let uptime_seconds = self.started.elapsed().as_secs();
                self.uptime
                    .set(i64::try_from(uptime_seconds).unwrap_or(i64::MAX));
                let body = format!(
                    "{{\"status\":\"ok\",\"package\":\"{}\",\"version\":\"{}\",\"uptime_seconds\":{uptime_seconds}}}\n",
                    env!("CARGO_PKG_NAME"),
                    env!("CARGO_PKG_VERSION"),
                );
                respond_with_type(
                    &mut stream,
                    200,
                    "OK",
                    "application/json",
                    body.as_bytes(),
                    &[],
                )
            }
            ("/metrics" | "/healthz", _) => {
                self.method_not_allowed.incr();
                respond(
                    &mut stream,
                    405,
                    "Method Not Allowed",
                    b"only GET is supported\n",
                    &[("Allow", "GET")],
                )
            }
            _ => {
                self.not_found.incr();
                respond(
                    &mut stream,
                    404,
                    "Not Found",
                    b"unknown path; try /metrics or /healthz\n",
                    &[],
                )
            }
        }
    }
}

enum HeadError {
    Io(io::Error),
    TooLarge,
    NotUtf8,
}

/// Discards whatever the peer is still sending, bounded in both bytes
/// and time, so closing the socket sends a clean FIN instead of an RST.
fn drain(stream: &mut TcpStream) {
    const DRAIN_CAP_BYTES: usize = 1 << 20;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut discarded = 0usize;
    let mut chunk = [0u8; 4096];
    while discarded < DRAIN_CAP_BYTES {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(read) => discarded += read,
        }
    }
}

/// Reads the request head (through the blank line). Stops early if the
/// client closes; the cap keeps a hostile peer from ballooning memory.
fn read_head(stream: &mut TcpStream) -> Result<String, HeadError> {
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    while !head.windows(4).any(|window| window == b"\r\n\r\n") {
        if head.len() > MAX_HEAD_BYTES {
            return Err(HeadError::TooLarge);
        }
        let read = stream.read(&mut chunk).map_err(HeadError::Io)?;
        if read == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..read]);
    }
    String::from_utf8(head).map_err(|_| HeadError::NotUtf8)
}

/// `"GET /metrics HTTP/1.1" -> ("GET", "/metrics")`, or `None` for
/// anything that is not a three-token HTTP/1.x request line with an
/// origin-form target.
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    let well_formed = parts.next().is_none()
        && version.starts_with("HTTP/1.")
        && !method.is_empty()
        && target.starts_with('/');
    well_formed.then_some((method, target))
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    respond_with_type(
        stream,
        status,
        reason,
        "text/plain; charset=utf-8",
        body,
        extra_headers,
    )
}

/// Writes a complete `Connection: close` response — status line,
/// headers, blank line and body — with one `write_all` from one buffer,
/// so the body never waits behind the head for the peer's delayed
/// acknowledgement (the accepted stream has no-delay set as well).
fn respond_with_type(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len(),
    );
    for (name, value) in extra_headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    let mut response = head.into_bytes();
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_strictly() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(
            parse_request_line("POST /healthz?probe=1 HTTP/1.0\r\n\r\n"),
            Some(("POST", "/healthz?probe=1"))
        );
        for bad in [
            "",
            "GARBAGE",
            "GET /metrics",
            "GET /metrics HTTP/2",
            "GET metrics HTTP/1.1",
            "GET /metrics HTTP/1.1 extra",
            " /metrics HTTP/1.1",
        ] {
            assert_eq!(parse_request_line(bad), None, "accepted: {bad:?}");
        }
    }
}
