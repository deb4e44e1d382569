//! The batching engine: a bounded request queue drained by worker threads
//! into micro-batches.
//!
//! Admission control is the queue bound: [`Engine::submit`] on a full
//! queue replies `overloaded` immediately (typed shed, counted) instead of
//! queueing unboundedly — memory stays bounded no matter how fast clients
//! push. Accepted requests wait on a condvar'd `VecDeque`; each worker
//! drains up to `batch_max` at a time and groups the slice by operation so
//! the hot kinds run through the batched kernels:
//!
//! - `nn` → [`Snapshot::nearest_batch`] — one pass over the vocabulary
//!   serves the whole group (grouped further by `(int8, k)`);
//! - `classify` → [`Snapshot::classify_batch`] — one scratch vector, no
//!   per-request allocation;
//! - `bert` → a *thread-local* [`MiniBert`] (rebuilt per worker from the
//!   sealed weights, since the model itself is `!Send`) scoring the whole
//!   group through `predict_proba_batch`'s packed-minibatch kernels.
//!
//! Every kind is byte-identical to its serial reference path (snapshot
//! contract), so batching and multi-threading never change reply bytes —
//! `serve-bench` asserts this with a checksum, not a hope. The live
//! telemetry plane ([`Metrics`], [`FlightRecorder`]) observes the request
//! flow but never touches reply rendering, keeping that contract intact.
//!
//! [`Engine::shutdown`] performs a graceful drain: workers finish the
//! queued backlog before exiting, then the flight recorder flushes its
//! rings so the last moments of traffic survive the process.
//!
//! `workers: 0` is a legal configuration — nothing drains, which is how
//! the backpressure tests fill a tiny queue deterministically.

use crate::flight::{FlightConfig, FlightRecord, FlightRecorder};
use crate::metrics::Metrics;
use crate::protocol::{self, Op, Request, StatsReply};
use kcb_core::snapshot::Snapshot;
use kcb_lm::MiniBert;
use kcb_obs::live::HistSnapshot;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Engine sizing knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads draining the queue (0 = drain never, for tests).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_cap: usize,
    /// Largest micro-batch one worker drains at once.
    pub batch_max: usize,
    /// Flight-recorder sizing and flush destination.
    pub flight: FlightConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { workers: 4, queue_cap: 4096, batch_max: 32, flight: FlightConfig::default() }
    }
}

/// Monotonic engine counters, readable at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests answered by workers.
    pub served: u64,
    /// Requests shed with an `overloaded` reply.
    pub shed: u64,
    /// Requests currently queued.
    pub queue_depth: usize,
}

struct Job {
    req: Request,
    tx: Sender<String>,
    /// When `submit` admitted the request.
    arrival: Instant,
}

struct Inner {
    snap: Arc<Snapshot>,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    stop: AtomicBool,
    queue_cap: usize,
    batch_max: usize,
    metrics: Metrics,
    flight: FlightRecorder,
    /// Next drained-batch id (1-based; 0 marks "never batched" records).
    batch_seq: AtomicU64,
    /// Latched on while the queue is shedding; the off→on transition
    /// flushes the flight recorder so the lead-up to overload is on disk.
    in_overload: AtomicBool,
}

/// The running engine; dropping it without [`Engine::shutdown`] detaches
/// the workers (they exit once told to stop), so call `shutdown` for a
/// graceful drain.
pub struct Engine {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Starts `cfg.workers` draining threads over `snap`.
    pub fn start(snap: Arc<Snapshot>, cfg: &EngineConfig) -> Self {
        let inner = Arc::new(Inner {
            snap,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            queue_cap: cfg.queue_cap.max(1),
            batch_max: cfg.batch_max.max(1),
            metrics: Metrics::new(),
            flight: FlightRecorder::new(cfg.flight.clone()),
            batch_seq: AtomicU64::new(0),
            in_overload: AtomicBool::new(false),
        });
        let workers = (0..cfg.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("kcb-serve-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// Admits `req` or sheds it. A shed request still gets a reply — the
    /// typed `overloaded` line — through `tx`, so clients never hang on a
    /// full server.
    pub fn submit(&self, req: Request, tx: Sender<String>) {
        let m = &self.inner.metrics;
        m.count_verb(&req.op);
        let arrival = Instant::now();
        {
            let mut q = self.inner.queue.lock().expect("queue lock");
            if q.len() < self.inner.queue_cap {
                q.push_back(Job { req, tx, arrival });
                m.queue_depth.set(q.len() as i64);
                drop(q);
                self.inner.ready.notify_one();
                if self.inner.in_overload.load(Ordering::Relaxed) {
                    // Capacity is back; re-arm the transition flush.
                    self.inner.in_overload.store(false, Ordering::Relaxed);
                }
                return;
            }
        }
        m.shed.add(1);
        kcb_obs::counter("serve.shed", 1);
        self.inner.flight.record(FlightRecord {
            id: req.id,
            op: req.op.name(),
            arrival_us: m.since_us(arrival),
            queue_us: 0,
            batch: 0,
            batch_size: 0,
            latency_us: 0,
            outcome: "shed",
        });
        if !self.inner.in_overload.swap(true, Ordering::Relaxed) {
            // First shed of this overload episode: preserve the lead-up.
            let _ = self.inner.flight.flush("overload");
        }
        let _ = tx.send(protocol::render_overloaded(req.id));
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            served: self.inner.metrics.served.get(),
            shed: self.inner.metrics.shed.get(),
            queue_depth: self.inner.queue.lock().expect("queue lock").len(),
        }
    }

    /// Everything the `stats` admin verb reports, read live.
    pub fn stats_reply(&self) -> StatsReply {
        let m = &self.inner.metrics;
        let e2e = m.e2e_us.snapshot();
        StatsReply {
            served: m.served.get(),
            shed: m.shed.get(),
            errors: m.errors.get(),
            queue_depth: self.inner.queue.lock().expect("queue lock").len() as i64,
            in_flight: m.in_flight.get(),
            uptime_s: m.uptime_s(),
            p50_us: e2e.percentile(50.0),
            p95_us: e2e.percentile(95.0),
            p99_us: e2e.percentile(99.0),
            max_us: e2e.max,
            verbs: m.verb_counts(),
        }
    }

    /// The live telemetry plane.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// The snapshot this engine serves.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.inner.snap
    }

    /// Drained-batch size distribution. Its `sum` is the total number of
    /// batched requests served; its `count` the number of drained batches.
    pub fn batch_histogram(&self) -> HistSnapshot {
        self.inner.metrics.batch_size.snapshot()
    }

    /// Graceful drain: workers finish every queued request, then exit and
    /// the flight recorder flushes. With zero workers any still-queued job
    /// is dropped (its client sees a closed channel). Returns the final
    /// counters.
    pub fn shutdown(self) -> EngineStats {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.ready.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
        let _ = self.inner.flight.flush("shutdown");
        let stats = EngineStats {
            served: self.inner.metrics.served.get(),
            shed: self.inner.metrics.shed.get(),
            queue_depth: 0,
        };
        self.inner.queue.lock().expect("queue lock").clear();
        self.inner.metrics.queue_depth.set(0);
        stats
    }
}

fn worker_loop(inner: &Inner) {
    // The sealed weights rebuild a thread-local model once per worker;
    // scoring through it is byte-identical to the driver-thread model.
    let bert = inner.snap.bert().map(kcb_core::snapshot::BertWeights::instantiate);
    let m = &inner.metrics;
    loop {
        let batch: Vec<Job> = {
            let mut q = inner.queue.lock().expect("queue lock");
            loop {
                if !q.is_empty() {
                    break;
                }
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                q = inner.ready.wait(q).expect("queue lock");
            }
            let n = q.len().min(inner.batch_max);
            let batch: Vec<Job> = q.drain(..n).collect();
            m.queue_depth.set(q.len() as i64);
            batch
        };
        let n = batch.len();
        let batch_id = inner.batch_seq.fetch_add(1, Ordering::Relaxed) + 1;
        m.batch_size.record(n as u64);
        m.in_flight.add(n as i64);
        kcb_obs::series("serve.batch_size", n as f64);
        kcb_obs::counter("serve.requests", n as u64);
        let t0 = Instant::now();
        let (outcomes, replies) = serve_batch(&inner.snap, bert.as_ref(), &batch);
        m.batch_service_us.record(t0.elapsed().as_micros() as u64);
        for (job, outcome) in batch.iter().zip(&outcomes) {
            let queue_us = t0.duration_since(job.arrival).as_micros() as u64;
            let latency_us = job.arrival.elapsed().as_micros() as u64;
            m.queue_wait_us.record(queue_us);
            m.e2e_us.record(latency_us);
            if *outcome == "error" {
                m.errors.add(1);
            }
            inner.flight.record(FlightRecord {
                id: job.req.id,
                op: job.req.op.name(),
                arrival_us: m.since_us(job.arrival),
                queue_us,
                batch: batch_id,
                batch_size: n as u32,
                latency_us,
                outcome,
            });
        }
        m.in_flight.add(-(n as i64));
        m.served.add(n as u64);
        // Replies go out only after every counter for this batch has
        // landed: a client holding its reply can scrape /metrics (or call
        // `stats`) and always observe totals that include that request.
        for (job, reply) in batch.iter().zip(replies) {
            let _ = job.tx.send(reply);
        }
    }
}

/// Answers one drained micro-batch, grouping by operation so the hot
/// kinds go through the batched kernels. Returns one outcome (`"ok"` /
/// `"error"`) and one rendered reply line per job, both index-aligned
/// with `batch`. Replies are *returned*, not sent — `worker_loop`
/// transmits them only after the batch's counters have landed, so a
/// client that holds a reply never observes metrics that predate it.
fn serve_batch(
    snap: &Snapshot,
    bert: Option<&MiniBert>,
    batch: &[Job],
) -> (Vec<&'static str>, Vec<String>) {
    let mut outcomes: Vec<&'static str> = vec!["ok"; batch.len()];
    let mut replies: Vec<String> = vec![String::new(); batch.len()];
    // Group indices by kind. `nn` additionally groups by (int8, k) since
    // the batched scan shares one cutoff.
    let mut nn_groups: Vec<((bool, usize), Vec<usize>)> = Vec::new();
    let mut cls: Vec<usize> = Vec::new();
    let mut brt: Vec<usize> = Vec::new();
    let mut rest: Vec<usize> = Vec::new();
    for (i, job) in batch.iter().enumerate() {
        match &job.req.op {
            Op::Nn { int8, k, .. } => {
                let key = (*int8, *k);
                match nn_groups.iter_mut().find(|(g, _)| *g == key) {
                    Some((_, idx)) => idx.push(i),
                    None => nn_groups.push((key, vec![i])),
                }
            }
            Op::Classify { .. } => cls.push(i),
            Op::Bert { .. } => brt.push(i),
            _ => rest.push(i),
        }
    }

    for ((int8, k), idx) in &nn_groups {
        let _span = kcb_obs::span("serve", "serve.nn");
        let tokens: Vec<&str> = idx
            .iter()
            .map(|&i| match &batch[i].req.op {
                Op::Nn { token, .. } => token.as_str(),
                _ => unreachable!("nn group holds nn ops"),
            })
            .collect();
        let results = snap.nearest_batch(&tokens, *k, *int8);
        for (&i, neighbours) in idx.iter().zip(&results) {
            replies[i] = protocol::render_nn(batch[i].req.id, neighbours);
        }
    }

    if !cls.is_empty() {
        let _span = kcb_obs::span("serve", "serve.classify");
        let triples: Vec<(u32, u8, u32)> = cls
            .iter()
            .map(|&i| match batch[i].req.op {
                Op::Classify { s, r, o } => (s, r, o),
                _ => unreachable!("classify group holds classify ops"),
            })
            .collect();
        for (&i, p) in cls.iter().zip(snap.classify_batch(&triples)) {
            let id = batch[i].req.id;
            replies[i] = match p {
                Some(p) => protocol::render_proba(id, p),
                None => {
                    outcomes[i] = "error";
                    protocol::render_error(id, "bad_request", "invalid triple")
                }
            };
        }
    }

    if !brt.is_empty() {
        let _span = kcb_obs::span("serve", "serve.bert");
        // Requests that can't be scored (no sealed model, bad ids) get
        // their error replies; the rest score as one packed minibatch.
        let mut seqs: Vec<Vec<u32>> = Vec::new();
        let mut scored: Vec<usize> = Vec::new();
        for &i in &brt {
            let job = &batch[i];
            let Op::Bert { s, r, o } = job.req.op else {
                unreachable!("bert group holds bert ops")
            };
            if bert.is_none() {
                outcomes[i] = "error";
                replies[i] = protocol::render_error(
                    job.req.id,
                    "unavailable",
                    "snapshot was frozen without bert",
                );
            } else if let Some(ids) = snap.bert_token_ids(s, r, o) {
                seqs.push(ids);
                scored.push(i);
            } else {
                outcomes[i] = "error";
                replies[i] = protocol::render_error(job.req.id, "bad_request", "invalid triple");
            }
        }
        if let (Some(bert), false) = (bert, scored.is_empty()) {
            let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
            for (&i, p) in scored.iter().zip(bert.predict_proba_batch(&refs)) {
                replies[i] = protocol::render_proba(batch[i].req.id, p);
            }
        }
    }

    for &i in &rest {
        let reply = answer_simple(snap, &batch[i].req);
        if reply.contains(r#""ok":false"#) {
            outcomes[i] = "error";
        }
        replies[i] = reply;
    }
    (outcomes, replies)
}

/// Answers the non-batched operations (and is the per-op half of the
/// serial reference path). `stats`, `health`, `flight` and `shutdown` are
/// connection-level concerns and render as `unavailable` here.
pub fn answer_simple(snap: &Snapshot, req: &Request) -> String {
    match &req.op {
        Op::Ping => {
            let _span = kcb_obs::span("serve", "serve.ping");
            protocol::render_pong(req.id)
        }
        Op::Artifacts => {
            let _span = kcb_obs::span("serve", "serve.artifact");
            protocol::render_artifact_ids(req.id, &snap.artifact_ids())
        }
        Op::Artifact { name } => {
            let _span = kcb_obs::span("serve", "serve.artifact");
            match snap.artifact(name) {
                Some(payload) => protocol::render_artifact(req.id, payload),
                None => protocol::render_error(
                    req.id,
                    "not_found",
                    &format!("no artifact `{name}` preloaded"),
                ),
            }
        }
        Op::Embed { token } => {
            let _span = kcb_obs::span("serve", "serve.embed");
            let (vector, in_vocab) = snap.embed(token);
            protocol::render_embed(req.id, &vector, in_vocab)
        }
        Op::Stats | Op::Health | Op::Flight | Op::Shutdown => {
            protocol::render_error(req.id, "unavailable", "connection-level op")
        }
        Op::Nn { .. } | Op::Classify { .. } | Op::Bert { .. } => {
            unreachable!("batched ops are served by serve_batch")
        }
    }
}

/// The serial reference: answers one request at a time through the
/// single-query snapshot paths and the *same* renderers as the batched
/// engine. `serve-bench` replays identical workloads through both and
/// checks the reply byte streams are equal.
pub fn answer_serial(snap: &Snapshot, bert: Option<&MiniBert>, req: &Request) -> String {
    match &req.op {
        Op::Nn { token, k, int8 } => {
            let neighbours =
                if *int8 { snap.nearest_int8(token, *k) } else { snap.nearest(token, *k) };
            protocol::render_nn(req.id, &neighbours)
        }
        Op::Classify { s, r, o } => match snap.classify(*s, *r, *o) {
            Some(p) => protocol::render_proba(req.id, p),
            None => protocol::render_error(req.id, "bad_request", "invalid triple"),
        },
        Op::Bert { s, r, o } => match (bert, snap.bert_token_ids(*s, *r, *o)) {
            (None, _) => protocol::render_error(
                req.id,
                "unavailable",
                "snapshot was frozen without bert",
            ),
            (Some(_), None) => {
                protocol::render_error(req.id, "bad_request", "invalid triple")
            }
            (Some(bert), Some(ids)) => {
                protocol::render_proba(req.id, bert.predict_proba(&ids))
            }
        },
        _ => answer_simple(snap, req),
    }
}
