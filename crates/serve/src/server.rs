//! The socket front-end: accepts TCP and/or Unix-socket connections and
//! pumps each one's NDJSON lines through the shared [`Engine`].
//!
//! Each connection gets its own thread that reads one line, parses it and
//! either answers inline (`ping`-class ops that touch no kernels, `stats`,
//! `shutdown`) or submits to the engine and waits for the reply. A single
//! connection is therefore sequential — request pipelining happens
//! *across* connections, which is exactly where the engine's micro-batches
//! form: N concurrent clients produce batches of up to N.
//!
//! Shutdown is cooperative: any client sending `{"op":"shutdown"}` flips
//! the shared stop flag; the accept loops (non-blocking, polling the flag)
//! wind down, connection threads notice via their read timeout, and
//! [`Server::wait`] finishes with a graceful engine drain so every
//! accepted request is answered before the process moves on.

use crate::engine::{self, Engine, EngineConfig, EngineStats};
use crate::protocol::{self, Op};
use kcb_core::snapshot::Snapshot;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest line a connection may send, newline included. 64 KiB is far
/// above any request in [`protocol`]; a peer that sends more without a
/// newline gets a `too_large` error and is disconnected, so it cannot
/// grow the daemon's memory without limit.
pub const MAX_LINE: usize = 64 * 1024;

/// `read_line` that never grows `line` past [`MAX_LINE`] bytes; see
/// [`overflowed`].
fn read_capped<R: Read>(reader: &mut BufReader<R>, line: &mut String) -> std::io::Result<usize> {
    let room = MAX_LINE.saturating_sub(line.len()) as u64;
    reader.by_ref().take(room).read_line(line)
}

/// True when `line` reached [`MAX_LINE`] bytes without a newline.
fn overflowed(line: &str) -> bool {
    line.len() >= MAX_LINE && !line.ends_with('\n')
}

/// How a [`Server`] listens.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// TCP bind address, e.g. `"127.0.0.1:7878"` (port 0 picks one).
    pub tcp: Option<String>,
    /// Unix-socket path (unix only; ignored elsewhere).
    pub socket: Option<std::path::PathBuf>,
    /// Engine sizing. `workers` is clamped to at least 1 — a server with
    /// no drain would deadlock its own clients.
    pub engine: EngineConfig,
}

/// A running server; hold it and call [`Server::wait`].
pub struct Server {
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    acceptors: Vec<JoinHandle<()>>,
    /// Bound TCP address when a TCP listener was requested.
    pub tcp_addr: Option<SocketAddr>,
    socket_path: Option<std::path::PathBuf>,
}

impl Server {
    /// Binds the configured listeners and starts serving `snap`.
    pub fn start(snap: Arc<Snapshot>, cfg: &ServerConfig) -> std::io::Result<Self> {
        let mut engine_cfg = cfg.engine.clone();
        engine_cfg.workers = engine_cfg.workers.max(1);
        let engine = Arc::new(Engine::start(snap, &engine_cfg));
        let stop = Arc::new(AtomicBool::new(false));
        let mut acceptors = Vec::new();
        let mut tcp_addr = None;

        if let Some(addr) = &cfg.tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            let (engine, stop) = (Arc::clone(&engine), Arc::clone(&stop));
            acceptors.push(
                std::thread::Builder::new()
                    .name("kcb-serve-tcp".into())
                    .spawn(move || {
                        accept_loop(|| listener.accept().map(|(s, _)| s), handle_tcp, &engine, &stop)
                    })
                    .expect("spawn acceptor"),
            );
        }

        #[cfg(unix)]
        if let Some(path) = &cfg.socket {
            // A stale socket file from a previous run would fail the bind.
            let _ = std::fs::remove_file(path);
            let listener = std::os::unix::net::UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            let (engine, stop) = (Arc::clone(&engine), Arc::clone(&stop));
            acceptors.push(
                std::thread::Builder::new()
                    .name("kcb-serve-unix".into())
                    .spawn(move || {
                        accept_loop(|| listener.accept().map(|(s, _)| s), handle_unix, &engine, &stop)
                    })
                    .expect("spawn acceptor"),
            );
        }

        if acceptors.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "server needs a tcp address or a unix socket path",
            ));
        }
        Ok(Self { engine, stop, acceptors, tcp_addr, socket_path: cfg.socket.clone() })
    }

    /// Whether a shutdown request has been received.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests a stop without a client (used by tests and harnesses).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Live engine counters.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Drained-batch size distribution from the engine.
    pub fn batch_histogram(&self) -> kcb_obs::live::HistSnapshot {
        self.engine.batch_histogram()
    }

    /// The engine's live telemetry plane.
    pub fn metrics(&self) -> &crate::metrics::Metrics {
        self.engine.metrics()
    }

    /// Blocks until shutdown, then joins the acceptors (which join their
    /// connection threads) and drains the engine. Returns final counters.
    pub fn wait(self) -> EngineStats {
        for a in self.acceptors {
            let _ = a.join();
        }
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
        match Arc::try_unwrap(self.engine) {
            Ok(engine) => engine.shutdown(),
            // A connection thread still holds a clone for a few more
            // milliseconds; report counters without the drain join.
            Err(engine) => engine.stats(),
        }
    }
}

const POLL: Duration = Duration::from_millis(10);

/// One listener's accept loop: a thread per connection running `handle`.
///
/// Finished connections are joined as the loop goes, so a closed
/// connection's thread stack is released at once rather than kept until
/// shutdown. A connection whose thread cannot be spawned is dropped (the
/// peer sees it close) and the loop keeps accepting. On stop, the live
/// connections are joined.
fn accept_loop<S: Send + 'static>(
    accept: impl Fn() -> std::io::Result<S>,
    handle: fn(S, &Engine, &AtomicBool),
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let (done, live): (Vec<_>, Vec<_>) = conns.into_iter().partition(|c| c.is_finished());
        for c in done {
            let _ = c.join();
        }
        conns = live;
        match accept() {
            Ok(stream) => {
                let (engine, stop) = (Arc::clone(engine), Arc::clone(stop));
                let spawned = std::thread::Builder::new()
                    .name("kcb-serve-conn".into())
                    .spawn(move || handle(stream, &engine, &stop));
                conns.extend(spawned.ok());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => break,
        }
    }
    for c in conns {
        let _ = c.join();
    }
}

fn handle_tcp(stream: TcpStream, engine: &Engine, stop: &AtomicBool) {
    // One request/reply round trip per line: Nagle + delayed ACK would
    // add tens of milliseconds to every exchange.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(reader) = stream.try_clone() else { return };
    pump_lines(BufReader::new(reader), stream, engine, stop);
}

#[cfg(unix)]
fn handle_unix(stream: std::os::unix::net::UnixStream, engine: &Engine, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(reader) = stream.try_clone() else { return };
    pump_lines(BufReader::new(reader), stream, engine, stop);
}

/// A reply slot for one request line of a drained group, kept in arrival
/// order so pipelined clients read replies in the order they sent.
enum Slot {
    /// Answered inline (parse error, ping-class, stats, shutdown).
    Ready(String),
    /// Waiting on the engine; the id backs the error reply if the engine
    /// stops first.
    Queued(mpsc::Receiver<String>, u64),
    /// Blank line — no reply.
    Blank,
}

/// One connection's request/reply loop.
///
/// Blocks for the first complete line, then drains every further line the
/// client has already pipelined into the read buffer *without another
/// syscall* and submits the whole group to the engine before collecting
/// any reply — that is how deep micro-batches form even from a single
/// connection. All of the group's replies go out in one write.
///
/// The read side carries a timeout so the stop flag is honoured on idle
/// connections; a timeout mid-line is safe because `read_line` appends —
/// partial bytes stay buffered until the newline arrives. A line longer
/// than [`MAX_LINE`] gets a `too_large` reply and closes the connection.
fn pump_lines<R: std::io::Read, W: Write>(
    mut reader: BufReader<R>,
    mut writer: W,
    engine: &Engine,
    stop: &AtomicBool,
) {
    let mut line = String::new();
    let mut out = String::new();
    let mut first = true;
    loop {
        match read_capped(&mut reader, &mut line) {
            Ok(0) => break,
            Ok(_) => {
                if overflowed(&line) {
                    let msg = format!("request line exceeds {MAX_LINE} bytes");
                    let reply = protocol::render_error(0, "too_large", &msg);
                    let _ = writer.write_all(format!("{reply}\n").as_bytes());
                    let _ = writer.flush();
                    break;
                }
                if !line.ends_with('\n') {
                    // Timeout split the line; keep accumulating.
                    continue;
                }
                if first && line.starts_with("GET ") {
                    // An HTTP scrape on the NDJSON port: answer one
                    // request and close, plain-text browsers welcome.
                    handle_http(&line, &mut reader, &mut writer, engine, stop);
                    break;
                }
                first = false;
                let mut slots = vec![submit_line(line.trim(), engine, stop)];
                line.clear();
                // Everything already buffered is a pipelined request the
                // client sent before reading replies; submit it all now.
                while reader.buffer().contains(&b'\n') {
                    match reader.read_line(&mut line) {
                        Ok(n) if n > 0 && line.ends_with('\n') => {
                            slots.push(submit_line(line.trim(), engine, stop));
                            line.clear();
                        }
                        _ => break,
                    }
                }
                out.clear();
                for slot in slots {
                    match slot {
                        Slot::Blank => {}
                        Slot::Ready(reply) => {
                            out.push_str(&reply);
                            out.push('\n');
                        }
                        Slot::Queued(rx, id) => {
                            let reply = rx.recv().unwrap_or_else(|_| {
                                protocol::render_error(
                                    id,
                                    "unavailable",
                                    "engine stopped before reply",
                                )
                            });
                            out.push_str(&reply);
                            out.push('\n');
                        }
                    }
                }
                if !out.is_empty()
                    && (writer.write_all(out.as_bytes()).is_err() || writer.flush().is_err())
                {
                    break;
                }
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Parses one line and either answers it inline or submits it to the
/// engine, returning the slot its reply will come from. Inline verbs bump
/// their per-verb counters here; queued ones are counted inside
/// [`Engine::submit`].
fn submit_line(line: &str, engine: &Engine, stop: &AtomicBool) -> Slot {
    if line.is_empty() {
        return Slot::Blank;
    }
    let req = match protocol::parse_request(line) {
        Ok(req) => req,
        Err((id, msg)) => return Slot::Ready(protocol::render_error(id, "bad_request", &msg)),
    };
    match req.op {
        Op::Shutdown
        | Op::Stats
        | Op::Health
        | Op::Flight
        | Op::Ping
        | Op::Artifacts
        | Op::Artifact { .. } => engine.metrics().count_verb(&req.op),
        _ => {}
    }
    match req.op {
        Op::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            Slot::Ready(protocol::render_shutdown(req.id))
        }
        Op::Stats => Slot::Ready(protocol::render_stats(req.id, &engine.stats_reply())),
        Op::Health => {
            let m = engine.metrics();
            Slot::Ready(protocol::render_health(
                req.id,
                m.uptime_s(),
                m.queue_depth.get(),
            ))
        }
        Op::Flight => {
            let (recent, slow) = engine.flight().dump();
            Slot::Ready(protocol::render_flight(
                req.id,
                recent.iter().map(crate::flight::FlightRecord::to_json).collect(),
                slow.iter().map(crate::flight::FlightRecord::to_json).collect(),
                engine.flight().slow_us(),
            ))
        }
        Op::Ping | Op::Artifacts | Op::Artifact { .. } => {
            Slot::Ready(engine::answer_simple(engine.snapshot(), &req))
        }
        _ => {
            let id = req.id;
            let (tx, rx) = mpsc::channel();
            engine.submit(req, tx);
            Slot::Queued(rx, id)
        }
    }
}

// ---------------------------------------------------------------------------
// The HTTP slice: GET-only, two routes, zero dependencies.
// ---------------------------------------------------------------------------

/// Answers one HTTP/1.0-or-1.1 GET on the NDJSON listener: `/metrics`
/// serves the Prometheus text exposition of the live registry, `/health`
/// a JSON liveness document; anything else is a 404. The connection
/// closes after the response (`Connection: close`), which every scraper
/// understands and keeps the server's threading model untouched.
fn handle_http<R: std::io::Read, W: Write>(
    request_line: &str,
    reader: &mut BufReader<R>,
    writer: &mut W,
    engine: &Engine,
    stop: &AtomicBool,
) {
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    // Drain the header block so the peer's send buffer is empty before we
    // write (some clients treat an early response + close as an error).
    // A header line over [`MAX_LINE`] closes the connection unanswered.
    let mut line = String::new();
    loop {
        line.clear();
        match read_capped(reader, &mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) if overflowed(&line) => return,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            engine.metrics().render_prometheus(),
        ),
        "/health" => {
            let m = engine.metrics();
            let body = format!(
                "{{\"status\":\"ok\",\"uptime_s\":{:.3},\"queue_depth\":{}}}\n",
                m.uptime_s(),
                m.queue_depth.get(),
            );
            ("200 OK", "application/json", body)
        }
        _ => ("404 Not Found", "text/plain; charset=utf-8", format!("no route {path}\n")),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = writer.write_all(response.as_bytes());
    let _ = writer.flush();
}
