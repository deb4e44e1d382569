//! `repro serve-bench` — the load generator and qps/latency harness.
//!
//! Starts an in-process [`Server`] on an ephemeral TCP port, connects
//! `clients` real socket connections, and replays a deterministic
//! per-client workload (seeded `Rng::seed_stream(seed, client)`) of the
//! hot operations: f32/int8 nearest-neighbour, forest classification,
//! BERT scoring and embedding lookups. Client-side latency is measured
//! per request; reply bytes fold into a per-client FNV-64 checksum.
//!
//! The same workload is then replayed *serially* — one thread, one request
//! at a time through [`engine::answer_serial`] and the identical renderers
//! — and the checksum comparison turns the throughput claim into a
//! byte-identity proof: batching, micro-batch grouping and N worker
//! threads changed wall-clock only, never a single reply byte.
//!
//! The result document (`results/bench_serve.json`, written by the
//! binary) carries qps and qps/core for both paths, the speedup ratio,
//! client latency percentiles, the engine's drained-batch-size histogram,
//! a time-series of queue depth and shed counts sampled while the load
//! ran, the server-side live telemetry snapshot, and both checksums.
//!
//! Latencies are folded into [`kcb_obs::live::LiveHistogram`]s (one per
//! client, merged at the end) instead of a sort over a `Vec` of every
//! sample: memory per client is a fixed 64-bucket table (~0.5 KiB)
//! regardless of request count, and the percentile math is the same code
//! the `stats` verb and `serve-top` use.

use crate::engine::{self, EngineConfig};
use crate::protocol::{self, Op, Request};
use crate::server::{Server, ServerConfig};
use kcb_core::snapshot::Snapshot;
use kcb_obs::live::{HistSnapshot, LiveHistogram};
use kcb_ontology::Relation;
use kcb_util::rng::Rng;
use serde_json::{json, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version of the `bench_serve.json` shape.
///
/// - v2 — latency percentiles come from the shared live histograms
///   (integer µs); `batch_histogram` became a bucketed snapshot object
///   whose `sum` is the total batched requests; added `timeseries` and
///   `live`.
pub const SCHEMA_VERSION: u64 = 2;

/// Harness knobs.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests issued per client.
    pub requests: usize,
    /// Engine worker threads.
    pub threads: usize,
    /// Bounded queue capacity (defaults high enough that the synchronous
    /// clients never shed — sheds would be measured, not hidden).
    pub queue_cap: usize,
    /// Largest micro-batch.
    pub batch_max: usize,
    /// Requests each client keeps in flight: it writes `pipeline` rendered
    /// lines in one syscall, then reads that many replies. The server
    /// drains the whole window from its read buffer into one engine
    /// submission, so this is also what feeds the micro-batches.
    pub pipeline: usize,
    /// Workload seed.
    pub seed: u64,
    /// Tiny smoke-test sizing.
    pub fast: bool,
}

impl BenchConfig {
    /// Default sizing for the given mode.
    pub fn sized(threads: usize, seed: u64, fast: bool) -> Self {
        let (clients, requests) = if fast { (4, 64) } else { (8, 256) };
        Self { clients, requests, threads, queue_cap: 4096, batch_max: 32, pipeline: 16, seed, fast }
    }
}

/// The reply checksums fold FNV-1a over each reply, continuing from the
/// previous state (seed with [`FNV_OFFSET`]).
pub use kcb_util::{fnv1a_from as fnv64, FNV_OFFSET};

/// The deterministic request stream for one client: a fixed mix of the
/// hot operations over seeded tokens and triples. Pure function of
/// `(seed, client, n)` — the served and serial phases replay the same
/// stream.
pub fn client_workload(snap: &Snapshot, seed: u64, client: usize, n: usize) -> Vec<Request> {
    let mut rng = Rng::seed_stream(seed, client as u64 + 1);
    let vocab_len = snap.table().vocab().len();
    let n_ent = snap.n_entities();
    let with_bert = snap.bert().is_some();
    (0..n)
        .map(|i| {
            let id = ((client as u64) << 32) | i as u64;
            let triple = |rng: &mut Rng| {
                (
                    rng.below(n_ent) as u32,
                    rng.below(Relation::ALL.len()) as u8,
                    rng.below(n_ent) as u32,
                )
            };
            let token =
                |rng: &mut Rng| snap.table().vocab().token(rng.below(vocab_len) as u32).to_string();
            let op = match rng.below(10) {
                0..=2 => Op::Nn { token: token(&mut rng), k: 10, int8: false },
                3..=4 => Op::Nn { token: token(&mut rng), k: 10, int8: true },
                5..=7 => {
                    let (s, r, o) = triple(&mut rng);
                    Op::Classify { s, r, o }
                }
                8 if with_bert => {
                    let (s, r, o) = triple(&mut rng);
                    Op::Bert { s, r, o }
                }
                8 => {
                    let (s, r, o) = triple(&mut rng);
                    Op::Classify { s, r, o }
                }
                _ => Op::Embed { token: token(&mut rng) },
            };
            Request { id, op }
        })
        .collect()
}

struct ClientResult {
    latencies: HistSnapshot,
    checksum: u64,
}

/// Renders a [`HistSnapshot`] for the result document: summary fields
/// plus the non-zero buckets as `[lo, hi, count]` rows.
fn hist_json(h: &HistSnapshot) -> Value {
    json!({
        "count": h.count(),
        "sum": h.sum,
        "max": h.max,
        "mean": h.mean(),
        "buckets": h.nonzero().iter().map(|&(lo, hi, c)| json!([lo, hi, c])).collect::<Vec<_>>(),
    })
}

/// Connects with bounded exponential backoff (10ms, 40ms between tries).
/// When all `attempts` client threads start at once, the listener's
/// accept backlog can momentarily refuse a connection; one refused
/// connect is startup noise, not a result — but persistent failure still
/// surfaces as the last error rather than hanging the harness.
fn connect_with_backoff(
    addr: std::net::SocketAddr,
    attempts: u32,
) -> std::io::Result<TcpStream> {
    let mut delay = Duration::from_millis(10);
    let mut last_err = None;
    for attempt in 0..attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = Some(e),
        }
        if attempt + 1 < attempts.max(1) {
            std::thread::sleep(delay);
            delay *= 4;
        }
    }
    Err(last_err.expect("at least one attempt"))
}

/// One client connection replaying its workload: `pipeline` requests go
/// out in a single write, then that window's replies are read back (the
/// server preserves per-connection order). Latency is measured from the
/// window's send to each reply's arrival — the honest pipelined number,
/// which includes queueing behind the rest of the window.
fn run_client(
    addr: std::net::SocketAddr,
    reqs: &[Request],
    pipeline: usize,
) -> std::io::Result<ClientResult> {
    let stream = connect_with_backoff(addr, 3)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let hist = LiveHistogram::new();
    let mut checksum = FNV_OFFSET;
    let mut reply = String::new();
    let mut buf = String::new();
    for window in reqs.chunks(pipeline.max(1)) {
        buf.clear();
        for req in window {
            buf.push_str(&protocol::render_request(req));
            buf.push('\n');
        }
        let t0 = Instant::now();
        stream.write_all(buf.as_bytes())?;
        for _ in window {
            reply.clear();
            reader.read_line(&mut reply)?;
            hist.record(t0.elapsed().as_micros() as u64);
            checksum = fnv64(checksum, reply.as_bytes());
        }
    }
    Ok(ClientResult { latencies: hist.snapshot(), checksum })
}

/// Combines per-client checksums (in client order) into one digest.
fn combine(checksums: &[u64]) -> String {
    let mut h = FNV_OFFSET;
    for &c in checksums {
        h = fnv64(h, &c.to_be_bytes());
    }
    format!("{h:016x}")
}

/// Runs the full harness against `snap` and returns the
/// `bench_serve.json` document. Owns the telemetry recorder for the
/// duration (reset, enable, drain, restore), like `bench-query`.
pub fn run(snap: Arc<Snapshot>, cfg: &BenchConfig) -> Value {
    let was_enabled = kcb_obs::enabled();
    kcb_obs::reset();
    kcb_obs::set_enabled(true);

    let workloads: Vec<Vec<Request>> = (0..cfg.clients)
        .map(|c| client_workload(&snap, cfg.seed, c, cfg.requests))
        .collect();
    let total_requests = cfg.clients * cfg.requests;

    // --- Served phase: real sockets, concurrent clients, batching engine.
    let server = Server::start(
        Arc::clone(&snap),
        &ServerConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            socket: None,
            engine: EngineConfig {
                workers: cfg.threads.max(1),
                queue_cap: cfg.queue_cap,
                batch_max: cfg.batch_max,
                flight: Default::default(),
            },
        },
    )
    .expect("bind bench server");
    let addr = server.tcp_addr.expect("tcp listener bound");

    // A sampler thread rides alongside the clients, reading queue depth
    // and the shed counter every few milliseconds — the time-series that
    // shows *when* backpressure built, not just that it did.
    let sample_every = Duration::from_millis(if cfg.fast { 2 } else { 5 });
    let sampling = AtomicBool::new(true);
    let t0 = Instant::now();
    let (results, timeseries): (Vec<ClientResult>, Vec<Value>) = std::thread::scope(|s| {
        let sampler = {
            let (server, sampling, t0) = (&server, &sampling, t0);
            s.spawn(move || {
                let mut samples = Vec::new();
                while sampling.load(Ordering::Relaxed) {
                    let st = server.stats();
                    samples.push(json!({
                        "t_ms": t0.elapsed().as_secs_f64() * 1e3,
                        "queue_depth": st.queue_depth,
                        "shed": st.shed,
                        "served": st.served,
                    }));
                    std::thread::sleep(sample_every);
                }
                samples
            })
        };
        let handles: Vec<_> = workloads
            .iter()
            .map(|reqs| {
                s.spawn(move || run_client(addr, reqs, cfg.pipeline).expect("bench client io"))
            })
            .collect();
        let results =
            handles.into_iter().map(|h| h.join().expect("bench client panicked")).collect();
        sampling.store(false, Ordering::Relaxed);
        (results, sampler.join().expect("sampler panicked"))
    });
    let served_wall = t0.elapsed().as_secs_f64();

    let histogram = server.batch_histogram();
    let stats = server.stats();
    let live = server.metrics().snapshot();
    let server_e2e = server.metrics().e2e_us.snapshot();
    server.stop();
    // An empty connection nudges the accept loop in case it is between
    // polls; then wait for the graceful drain.
    let _ = TcpStream::connect(addr);
    let final_stats = server.wait();

    let mut latencies = HistSnapshot::default();
    for r in &results {
        latencies.merge(&r.latencies);
    }
    let served_checksum = combine(&results.iter().map(|r| r.checksum).collect::<Vec<_>>());

    // --- Serial phase: same workload, one thread, single-query paths.
    let bert = snap.bert().map(kcb_core::snapshot::BertWeights::instantiate);
    let serial_hist = LiveHistogram::new();
    let mut serial_checksums = Vec::with_capacity(cfg.clients);
    let t0 = Instant::now();
    for reqs in &workloads {
        let mut h = FNV_OFFSET;
        for req in reqs {
            let q0 = Instant::now();
            let reply = engine::answer_serial(&snap, bert.as_ref(), req);
            serial_hist.record(q0.elapsed().as_micros() as u64);
            h = fnv64(h, reply.as_bytes());
            h = fnv64(h, b"\n");
        }
        serial_checksums.push(h);
    }
    let serial_wall = t0.elapsed().as_secs_f64();
    let serial_latencies = serial_hist.snapshot();
    let serial_checksum = combine(&serial_checksums);

    let telemetry = kcb_obs::drain();
    kcb_obs::set_enabled(was_enabled);
    let span_stats = Value::Object(
        kcb_obs::profile::span_stats(&telemetry)
            .into_iter()
            .filter(|(k, _)| k.starts_with("serve."))
            .map(|(k, s)| {
                let row = json!({
                    "count": s.count,
                    "total_s": s.total_s,
                    "p50_s": s.p50_s,
                    "p95_s": s.p95_s,
                    "p99_s": s.p99_s,
                    "max_s": s.max_s,
                });
                (k, row)
            })
            .collect(),
    );

    let served_qps = total_requests as f64 / served_wall.max(1e-9);
    let serial_qps = total_requests as f64 / serial_wall.max(1e-9);
    let config = json!({
        "clients": cfg.clients,
        "requests_per_client": cfg.requests,
        "threads": cfg.threads,
        "queue_cap": cfg.queue_cap,
        "batch_max": cfg.batch_max,
        "pipeline": cfg.pipeline,
        "seed": cfg.seed,
        "fast": cfg.fast,
    });
    let served = json!({
        "requests": total_requests,
        "served": final_stats.served,
        "shed": stats.shed,
        "wall_s": served_wall,
        "qps": served_qps,
        "qps_per_core": served_qps / cfg.threads.max(1) as f64,
        "p50_us": latencies.percentile(50.0),
        "p95_us": latencies.percentile(95.0),
        "p99_us": latencies.percentile(99.0),
        "max_us": latencies.max,
        "checksum": served_checksum.clone(),
    });
    let serial = json!({
        "requests": total_requests,
        "wall_s": serial_wall,
        "qps": serial_qps,
        "p50_us": serial_latencies.percentile(50.0),
        "p99_us": serial_latencies.percentile(99.0),
        "checksum": serial_checksum.clone(),
    });
    // Server-side view: the engine's own end-to-end histogram plus the
    // full live-registry counters, so the doc shows both vantage points.
    let live_doc = json!({
        "e2e": hist_json(&server_e2e),
        "counters": Value::Object(
            live.counters.iter().map(|(k, &v)| (k.clone(), json!(v))).collect(),
        ),
    });
    json!({
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "served": served,
        "serial": serial,
        "speedup_vs_serial": served_qps / serial_qps.max(1e-9),
        "byte_identical": served_checksum == serial_checksum,
        "batch_histogram": hist_json(&histogram),
        "timeseries": timeseries,
        "live": live_doc,
        "span_stats": span_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_backoff_succeeds_against_a_live_listener() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        assert!(connect_with_backoff(addr, 3).is_ok());
    }

    #[test]
    fn connect_backoff_gives_up_with_the_last_error() {
        // Bind then drop: the port existed a moment ago but nobody
        // listens now, so every attempt is refused.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let t0 = Instant::now();
        assert!(connect_with_backoff(addr, 3).is_err());
        // Two sleeps happened between the three attempts (10ms + 40ms).
        assert!(t0.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn connect_backoff_retries_until_the_listener_appears() {
        // The listener comes up mid-backoff: attempt 1 is refused, a
        // later one lands — the serve-bench startup race in miniature.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            std::net::TcpListener::bind(addr)
        });
        let got = connect_with_backoff(addr, 3);
        let listener = handle.join().unwrap();
        assert!(listener.is_ok(), "rebind failed; can't assess retry");
        assert!(got.is_ok(), "late listener should be reached by a retry");
    }
}
