//! The load generator: seeded request streams, a closed loop of pipelined
//! connections, a fixed-rate open loop, and `GET /metrics` scrapes.
//!
//! Every reply is compared with the in-process serial answer to the same
//! request, and both sides fold into FNV-64 checksums. Latency is kept as
//! one exact sample per request, timed from the moment the request was due.

use kcb_core::snapshot::Snapshot;
use kcb_lm::MiniBert;
use kcb_serve::bench::{client_workload, fnv64, FNV_OFFSET};
use kcb_serve::engine::answer_serial;
use kcb_serve::protocol::{render_request, Op, Request};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Requests a closed-loop client writes before it reads their replies:
/// twice the engine's default `batch_max`, so a second micro-batch is
/// queued while the worker serves the first. On a 2-vCPU host this depth
/// halved the rate's spread between repetitions against a depth of 32.
pub const PIPELINE: usize = 64;

/// Socket read timeout: a daemon that stops answering fails the phase
/// instead of hanging the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One request of a stream and the reply the serial path gives it, both
/// newline-terminated as they travel on the wire.
pub struct Item {
    /// The request line.
    pub line: String,
    /// The expected reply line.
    pub expected: String,
}

/// Stream `stream` of workload seed `seed`: `kcb_serve::bench`'s client
/// mix, with each BERT request sent as `classify` on the same triple when
/// `keep_bert` is off.
pub fn requests(
    snap: &Snapshot,
    seed: u64,
    stream: usize,
    n: usize,
    keep_bert: bool,
) -> Vec<Request> {
    let mut reqs = client_workload(snap, seed, stream, n);
    for req in reqs.iter_mut().filter(|_| !keep_bert) {
        if let Op::Bert { s, r, o } = req.op {
            req.op = Op::Classify { s, r, o };
        }
    }
    reqs
}

/// The wire lines of `reqs` and the serial path's replies to them.
pub fn items(snap: &Snapshot, bert: Option<&MiniBert>, reqs: &[Request]) -> Vec<Item> {
    reqs.iter()
        .map(|req| Item {
            line: format!("{}\n", render_request(req)),
            expected: format!("{}\n", answer_serial(snap, bert, req)),
        })
        .collect()
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    let r = BufReader::new(s.try_clone()?);
    Ok((s, r))
}

fn read_reply(r: &mut BufReader<TcpStream>, into: &mut String) -> std::io::Result<()> {
    into.clear();
    if r.read_line(into)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "daemon closed",
        ));
    }
    Ok(())
}

/// Served and expected reply checksums plus the mismatch count of one
/// connection. An error or `overloaded` reply never equals the serial
/// answer, so it counts as failed.
#[derive(Default, Clone, Copy)]
struct Tally {
    served: u64,
    expected: u64,
    sent: u64,
    failed: u64,
}

impl Tally {
    fn new() -> Self {
        Tally {
            served: FNV_OFFSET,
            expected: FNV_OFFSET,
            ..Default::default()
        }
    }

    fn record(&mut self, reply: &str, item: &Item) {
        self.served = fnv64(self.served, reply.as_bytes());
        self.expected = fnv64(self.expected, item.expected.as_bytes());
        self.sent += 1;
        self.failed += u64::from(reply != item.expected);
    }
}

/// What the closed loop measured.
pub struct ClosedLoop {
    /// Seconds from the loop's start to its last completed reply.
    pub elapsed_s: f64,
    /// Requests sent and failed.
    pub sent: u64,
    /// See `sent`.
    pub failed: u64,
    /// Served reply checksums equal the serial ones on every connection.
    pub checksum_ok: bool,
    /// Round trip of each `GET /metrics` scrape, ms.
    pub scrape_ms: Vec<f64>,
    /// Scrapes that did not return `200 OK`.
    pub scrape_failed: u64,
}

/// One connection per stream, each keeping [`PIPELINE`] requests in
/// flight for `dur`. The first connection scrapes `/metrics` every
/// `scrape_every` pipeline windows.
pub fn closed_loop(
    addr: SocketAddr,
    streams: &[Vec<Item>],
    dur: Duration,
    scrape_every: Option<usize>,
) -> std::io::Result<ClosedLoop> {
    let start = Instant::now();
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, items)| {
                let scrape_every = if c == 0 { scrape_every } else { None };
                s.spawn(move || -> std::io::Result<_> {
                    let (mut w, mut r) = connect(addr)?;
                    let (mut tally, mut windows, mut scrapes, mut scrape_failed) =
                        (Tally::new(), 0usize, Vec::new(), 0);
                    let (mut buf, mut reply, mut next) = (String::new(), String::new(), 0usize);
                    while start.elapsed() < dur {
                        let batch: Vec<&Item> = (0..PIPELINE)
                            .map(|k| &items[(next + k) % items.len()])
                            .collect();
                        next += PIPELINE;
                        buf.clear();
                        batch.iter().for_each(|it| buf.push_str(&it.line));
                        w.write_all(buf.as_bytes())?;
                        for it in batch {
                            read_reply(&mut r, &mut reply)?;
                            tally.record(&reply, it);
                        }
                        windows += 1;
                        if scrape_every.is_some_and(|e| windows % e == 0) {
                            match scrape(addr) {
                                Ok((ms, _)) => scrapes.push(ms),
                                Err(_) => scrape_failed += 1,
                            }
                        }
                    }
                    Ok((start.elapsed().as_secs_f64(), tally, scrapes, scrape_failed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })?;
    let mut out = ClosedLoop {
        elapsed_s: 0.0,
        sent: 0,
        failed: 0,
        checksum_ok: true,
        scrape_ms: Vec::new(),
        scrape_failed: 0,
    };
    for (elapsed_s, tally, scrapes, scrape_failed) in per_client {
        out.elapsed_s = out.elapsed_s.max(elapsed_s);
        out.sent += tally.sent;
        out.failed += tally.failed;
        out.checksum_ok &= tally.served == tally.expected;
        out.scrape_ms.extend(scrapes);
        out.scrape_failed += scrape_failed;
    }
    Ok(out)
}

/// What the open loop measured.
pub struct OpenLoop {
    /// Per-request latency from its due time to its reply, ms.
    pub latency_ms: Vec<f64>,
    /// Per-request lateness of the generator (actual send − due), ms.
    pub late_ms: Vec<f64>,
    /// Requests sent and failed.
    pub sent: u64,
    /// See `sent`.
    pub failed: u64,
    /// Served reply checksum equals the serial one.
    pub checksum_ok: bool,
}

/// Sends `items` (cycled) at `rate` req/s for `dur` on one connection: one
/// writer thread keeps the schedule, one reader thread times the replies.
pub fn open_loop(
    addr: SocketAddr,
    items: &[Item],
    rate: f64,
    dur: Duration,
) -> std::io::Result<OpenLoop> {
    let n = (rate * dur.as_secs_f64()).round() as usize;
    let (mut w, mut r) = connect(addr)?;
    // Both threads share one schedule, anchored a little ahead so the
    // first request is not already late.
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    std::thread::scope(|s| {
        let writer = s.spawn(move || -> std::io::Result<Vec<f64>> {
            let mut late = Vec::with_capacity(n);
            for i in 0..n {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
                w.write_all(items[i % items.len()].line.as_bytes())?;
            }
            Ok(late)
        });
        let mut latency_ms = Vec::with_capacity(n);
        let (mut tally, mut reply) = (Tally::new(), String::new());
        let read = (0..n).try_for_each(|i| {
            read_reply(&mut r, &mut reply)?;
            latency_ms.push(
                Instant::now()
                    .saturating_duration_since(due(i))
                    .as_secs_f64()
                    * 1e3,
            );
            tally.record(&reply, &items[i % items.len()]);
            Ok::<_, std::io::Error>(())
        });
        if read.is_err() {
            // Unblock a writer stuck on a full socket.
            let _ = r.get_ref().shutdown(std::net::Shutdown::Both);
        }
        let late_ms = writer.join().expect("open-loop writer panicked")?;
        read?;
        Ok(OpenLoop {
            latency_ms,
            late_ms,
            sent: tally.sent,
            failed: tally.failed,
            checksum_ok: tally.served == tally.expected,
        })
    })
}

/// One `GET /metrics` round trip on a fresh connection: `(ms, body)`.
pub fn scrape(addr: SocketAddr) -> std::io::Result<(f64, String)> {
    let t0 = Instant::now();
    let (mut w, mut r) = connect(addr)?;
    w.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")?;
    let mut resp = String::new();
    r.read_to_string(&mut resp)?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match (
        resp.starts_with("HTTP/1.1 200"),
        resp.split_once("\r\n\r\n"),
    ) {
        (true, Some((_, body))) => Ok((ms, body.to_string())),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "scrape not 200 OK",
        )),
    }
}

/// `sum ÷ count` of histogram `name` in a Prometheus text exposition.
pub fn hist_mean(body: &str, name: &str) -> Option<f64> {
    let value = |suffix: &str| -> Option<f64> {
        let key = format!("{name}{suffix} ");
        body.lines()
            .find_map(|l| l.strip_prefix(key.as_str()))
            .and_then(|v| v.trim().parse().ok())
    };
    let (sum, count) = (value("_sum")?, value("_count")?);
    (count > 0.0).then(|| sum / count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_from_prometheus_text() {
        let body = "# TYPE serve_queue_wait_us histogram\n\
                    serve_queue_wait_us_bucket{le=\"+Inf\"} 4\n\
                    serve_queue_wait_us_sum 100\n\
                    serve_queue_wait_us_count 4\n\
                    serve_batch_size_sum 30\nserve_batch_size_count 0\n";
        assert_eq!(hist_mean(body, "serve_queue_wait_us"), Some(25.0));
        assert_eq!(hist_mean(body, "serve_batch_size"), None);
        assert_eq!(hist_mean(body, "serve_missing"), None);
    }
}
