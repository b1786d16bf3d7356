//! A length-prefixed blocking TCP transport for the fleet service.
//!
//! The service core is transport-agnostic ([`FleetService::handle`] takes
//! decoded [`Request`] values); this module is the thinnest wire that
//! makes it remote: every frame is a `u32` little-endian byte length
//! followed by that many bytes of [`crate::wire`] payload. A connection
//! carries any number of request frames, each answered by exactly one
//! response frame, in order; the peer closing between frames ends the
//! conversation cleanly.
//!
//! Deliberately std-only and blocking. [`TcpFront::run`] serves one
//! connection at a time; [`TcpFront::run_concurrent`] serves each live
//! connection on a lightweight thread of its own, with a
//! [`crate::Dispatcher`] bounding how many requests run at once, so
//! multiple connections are served simultaneously. The framing guards
//! both sides with [`MAX_FRAME`], and [`read_frame`] grows its buffer only
//! as payload bytes arrive, so a corrupt or hostile length prefix cannot
//! drive an unbounded allocation.
//!
//! The front is instrumented as an access log: a connection gauge
//! (`twm_fleet_connections`) plus frame/byte/error counters in the
//! [`twm_obs::global`] registry, and — with the trace gate on —
//! per-connection spans carrying per-frame events with byte counts and
//! error outcomes.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, OnceLock};

use twm_obs::{Counter, Gauge};

use crate::dispatch::Dispatcher;
use crate::service::{FleetService, Request, Response};
use crate::{wire, FleetError};

/// Process-wide access-log counters for the TCP front.
struct FrontObs {
    /// Connections currently being served.
    connections: Gauge,
    /// Connections accepted since process start.
    connections_total: Counter,
    /// Request frames decoded and answered.
    frames: Counter,
    /// Payload bytes read off accepted streams.
    bytes_in: Counter,
    /// Payload bytes written back.
    bytes_out: Counter,
    /// Frames whose payload failed to decode as a [`Request`].
    frame_errors: Counter,
}

fn front_obs() -> &'static FrontObs {
    static OBS: OnceLock<FrontObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let registry = twm_obs::global();
        FrontObs {
            connections: registry.gauge("twm_fleet_connections", &[]),
            connections_total: registry.counter("twm_fleet_connections_total", &[]),
            frames: registry.counter("twm_fleet_frames_total", &[]),
            bytes_in: registry.counter("twm_fleet_frame_bytes_in_total", &[]),
            bytes_out: registry.counter("twm_fleet_frame_bytes_out_total", &[]),
            frame_errors: registry.counter("twm_fleet_frame_errors_total", &[]),
        }
    })
}

/// Upper bound on a frame's payload bytes (1 GiB). Dictionaries export
/// whole in one frame, so the bound is generous; a length prefix beyond
/// it is treated as a malformed stream, not an allocation request.
pub const MAX_FRAME: usize = 1 << 30;

/// The most payload bytes [`read_frame`] reserves ahead of their arrival.
const READ_CHUNK: usize = 64 * 1024;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// [`FleetError::Io`] when the writer fails, [`FleetError::Wire`] when
/// the payload exceeds [`MAX_FRAME`].
pub fn write_frame<W: Write + ?Sized>(writer: &mut W, payload: &[u8]) -> Result<(), FleetError> {
    if payload.len() > MAX_FRAME {
        return Err(FleetError::Wire(format!(
            "frame of {} bytes exceeds the {MAX_FRAME}-byte bound",
            payload.len()
        )));
    }
    let len = u32::try_from(payload.len()).expect("MAX_FRAME fits u32");
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame; `Ok(None)` on a clean end-of-stream
/// (the peer closed between frames).
///
/// # Errors
///
/// [`FleetError::Wire`] when the stream ends inside a frame or the
/// length prefix exceeds [`MAX_FRAME`]; [`FleetError::Io`] for other
/// read failures.
pub fn read_frame<R: Read + ?Sized>(reader: &mut R) -> Result<Option<Vec<u8>>, FleetError> {
    let ended_inside = |part| FleetError::Wire(format!("stream ended inside a frame's {part}"));
    let mut prefix = [0u8; 4];
    match fill(reader, &mut prefix)? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(ended_inside("length prefix")),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(FleetError::Wire(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte bound"
        )));
    }
    // Grow the buffer as bytes arrive: a length prefix alone reserves at
    // most one chunk, however large it claims the frame is.
    let mut payload = Vec::new();
    while payload.len() < len {
        let start = payload.len();
        payload.resize(len.min(start + READ_CHUNK), 0);
        if fill(reader, &mut payload[start..])? < payload.len() - start {
            return Err(ended_inside("payload"));
        }
    }
    Ok(Some(payload))
}

/// Reads until `buf` is full or the stream ends; returns the bytes read.
fn fill<R: Read + ?Sized>(reader: &mut R, buf: &mut [u8]) -> Result<usize, FleetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(count) => filled += count,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FleetError::Io(e)),
        }
    }
    Ok(filled)
}

/// A blocking TCP front over a shared [`FleetService`].
#[derive(Debug)]
pub struct TcpFront {
    listener: TcpListener,
    service: Arc<FleetService>,
}

impl TcpFront {
    /// Binds a listener (use port 0 for an ephemeral test port).
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the bind fails.
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<FleetService>) -> Result<Self, FleetError> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            service,
        })
    }

    /// The bound address (where clients connect).
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the socket cannot report it.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, FleetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Accepts one connection and serves it to completion.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] / [`FleetError::Wire`] from the accept or the
    /// conversation. Malformed *requests inside* a healthy stream do not
    /// error here — they are answered with [`Response::Error`] frames.
    pub fn accept_one(&self) -> Result<(), FleetError> {
        let (stream, _) = self.listener.accept()?;
        self.serve_connection(stream)
    }

    /// Serves request frames on an accepted stream until the peer closes.
    ///
    /// # Errors
    ///
    /// As [`TcpFront::accept_one`].
    pub fn serve_connection(&self, stream: TcpStream) -> Result<(), FleetError> {
        self.serve_stream(stream, None)
    }

    /// The shared conversation loop: decode, handle (directly or through
    /// a dispatcher's admission limit), respond — logging every frame.
    fn serve_stream(
        &self,
        mut stream: TcpStream,
        dispatcher: Option<&Dispatcher>,
    ) -> Result<(), FleetError> {
        let obs = front_obs();
        obs.connections.incr();
        obs.connections_total.incr();
        let mut span = twm_obs::span("fleet.connection");
        if let Ok(peer) = stream.peer_addr() {
            span.field("peer", peer);
        }
        let mut frames = 0u64;
        let result = (|| {
            while let Some(payload) = read_frame(&mut stream)? {
                obs.frames.incr();
                obs.bytes_in.add(payload.len() as u64);
                let (response, outcome) = match wire::from_bytes::<Request>(&payload) {
                    Ok(request) => {
                        let response = match dispatcher {
                            Some(dispatcher) => dispatcher.submit(request).wait(),
                            None => self.service.handle(request),
                        };
                        (response, "ok")
                    }
                    Err(error) => {
                        obs.frame_errors.incr();
                        (
                            Response::Error {
                                message: error.to_string(),
                            },
                            "bad_request",
                        )
                    }
                };
                let encoded = wire::to_bytes(&response);
                obs.bytes_out.add(encoded.len() as u64);
                twm_obs::event(
                    "fleet.frame",
                    &[
                        ("bytes_in", &payload.len().to_string()),
                        ("bytes_out", &encoded.len().to_string()),
                        ("outcome", outcome),
                    ],
                );
                frames += 1;
                write_frame(&mut stream, &encoded)?;
            }
            Ok(())
        })();
        span.field("frames", frames);
        span.field(
            "outcome",
            match &result {
                Ok(()) => "closed",
                Err(_) => "error",
            },
        );
        obs.connections.decr();
        result
    }

    /// Accepts and serves connections forever (one at a time).
    ///
    /// # Errors
    ///
    /// The first accept or conversation failure — a supervisor loop
    /// owns the restart policy.
    pub fn run(&self) -> Result<(), FleetError> {
        loop {
            self.accept_one()?;
        }
    }

    /// Accepts and serves connections forever, **concurrently**: one
    /// lightweight thread per live connection owns its stream's framing
    /// and handles its requests, at most `workers` at a time through a
    /// [`Dispatcher`], so slow or held-open peers never block each other.
    ///
    /// # Errors
    ///
    /// The first accept failure (after every live connection drains).
    /// Per-connection conversation failures end only that connection.
    pub fn run_concurrent(&self, workers: usize) -> Result<(), FleetError> {
        let dispatcher = Dispatcher::new(Arc::clone(&self.service), workers);
        std::thread::scope(|scope| loop {
            let (stream, _) = self.listener.accept()?;
            let dispatcher = &dispatcher;
            scope.spawn(move || {
                // A peer hanging up mid-frame is that peer's problem.
                let _ = self.serve_stream(stream, Some(dispatcher));
            });
        })
    }

    /// Accepts exactly `connections` connections and serves them
    /// concurrently through `dispatcher`, returning when all have
    /// closed — [`TcpFront::run_concurrent`] with a deterministic
    /// endpoint, for tests and drains.
    ///
    /// # Errors
    ///
    /// The first accept failure, or the first conversation failure
    /// among the accepted connections (all are joined first).
    pub fn accept_pooled(
        &self,
        dispatcher: &Dispatcher,
        connections: usize,
    ) -> Result<(), FleetError> {
        std::thread::scope(|scope| {
            let mut served = Vec::with_capacity(connections);
            let mut accepting = Ok(());
            for _ in 0..connections {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        served
                            .push(scope.spawn(move || self.serve_stream(stream, Some(dispatcher))));
                    }
                    Err(error) => {
                        accepting = Err(FleetError::Io(error));
                        break;
                    }
                }
            }
            let mut result = accepting;
            for connection in served {
                let outcome = connection.join().expect("connection thread panicked");
                result = result.and(outcome);
            }
            result
        })
    }
}

/// A blocking client for a [`TcpFront`].
#[derive(Debug)]
pub struct FleetClient {
    stream: TcpStream,
}

impl FleetClient {
    /// Connects to a front.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] when the connect fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, FleetError> {
        Ok(Self {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// [`FleetError::Io`] / [`FleetError::Wire`] on transport failures —
    /// including the server closing before responding.
    pub fn request(&mut self, request: &Request) -> Result<Response, FleetError> {
        write_frame(&mut self.stream, &wire::to_bytes(request))?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| FleetError::Wire("server closed before responding".into()))?;
        wire::from_bytes(&payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        // A frame longer than the read chunk arrives whole, too.
        let long: Vec<u8> = (0..3 * READ_CHUNK + 5).map(|i| i as u8).collect();
        let mut stream = Vec::new();
        write_frame(&mut stream, b"hello").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, &long).unwrap();
        let mut reader = stream.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), long);
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn truncated_frames_and_giant_prefixes_are_typed() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"hello").unwrap();
        let mut reader = &stream[..3]; // inside the prefix
        assert!(matches!(read_frame(&mut reader), Err(FleetError::Wire(_))));
        let mut reader = &stream[..6]; // inside the payload
        assert!(matches!(read_frame(&mut reader), Err(FleetError::Wire(_))));
        let giant = (u32::try_from(MAX_FRAME).unwrap() + 1).to_le_bytes();
        let mut reader = &giant[..];
        assert!(matches!(read_frame(&mut reader), Err(FleetError::Wire(_))));
    }

    /// A reader over `.0` that records the largest buffer it is asked to
    /// fill in `.1`.
    struct Recording<'a>(&'a [u8], usize);

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 = self.1.max(buf.len());
            self.0.read(buf)
        }
    }

    #[test]
    fn a_maximal_prefix_reserves_one_chunk_before_any_payload() {
        let prefix = u32::try_from(MAX_FRAME).unwrap().to_le_bytes();
        let mut reader = Recording(&prefix, 0);
        assert!(matches!(read_frame(&mut reader), Err(FleetError::Wire(_))));
        assert!(reader.1 <= READ_CHUNK, "asked to fill {} bytes", reader.1);
    }
}
