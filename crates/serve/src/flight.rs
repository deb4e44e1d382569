//! The flight recorder: a fixed-capacity ring of recent per-request
//! evidence, kept so an incident has context *after* it happened.
//!
//! Aggregates (counters, histograms) answer "how is the daemon doing";
//! they cannot answer "what were the last hundred requests before the
//! shed storm". The recorder keeps two bounded rings:
//!
//! * **recent** — every completed (or shed) request: arrival time, queue
//!   wait, batch id/size, end-to-end latency, outcome;
//! * **slow** — requests whose latency crossed the configured threshold,
//!   retained separately so a burst of fast traffic cannot evict the
//!   interesting outliers.
//!
//! Both are dumpable at any time through the `flight` admin verb, and the
//! engine flushes them to `results/serve_flight.jsonl` (append-only, one
//! JSON object per line with a `flush` marker first) on graceful shutdown
//! and on each entry into overload — the two moments a post-mortem will
//! ask about. Recording takes a short mutex over a `VecDeque`; unlike the
//! histograms it is not lock-free, but the critical section is a push +
//! possible pop, far below the kernel work per request.

use serde_json::{json, Value};
use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

/// One request's evidence. Times are µs; `arrival_us` counts from the
/// engine's start epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Client correlation id.
    pub id: u64,
    /// Operation name (`"nn"`, `"classify"`, …).
    pub op: &'static str,
    /// Arrival at the engine, µs since engine start.
    pub arrival_us: u64,
    /// Time spent queued before a worker drained it, µs.
    pub queue_us: u64,
    /// Which drained batch served it (0 for shed requests).
    pub batch: u64,
    /// Size of that batch (0 for shed requests).
    pub batch_size: u32,
    /// End-to-end latency (arrival → reply sent), µs.
    pub latency_us: u64,
    /// `"ok"`, `"error"` (typed error reply) or `"shed"`.
    pub outcome: &'static str,
}

impl FlightRecord {
    /// Renders one record as a JSON object.
    pub fn to_json(&self) -> Value {
        json!({
            "id": self.id,
            "op": self.op,
            "arrival_us": self.arrival_us,
            "queue_us": self.queue_us,
            "batch": self.batch,
            "batch_size": self.batch_size,
            "latency_us": self.latency_us,
            "outcome": self.outcome,
        })
    }
}

/// Recorder sizing.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Capacity of the recent-requests ring.
    pub cap: usize,
    /// Capacity of the slow-requests ring.
    pub slow_cap: usize,
    /// Latency threshold (µs) above which a request is also kept in the
    /// slow ring.
    pub slow_us: u64,
    /// Where flushes append JSONL (`None` disables flushing; the rings
    /// and the `flight` verb still work).
    pub path: Option<PathBuf>,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self { cap: 1024, slow_cap: 256, slow_us: 10_000, path: None }
    }
}

struct Rings {
    recent: VecDeque<FlightRecord>,
    slow: VecDeque<FlightRecord>,
    /// Requests seen since the last flush (so a flush line can say how
    /// many fell off the ring unrecorded).
    since_flush: u64,
}

/// The recorder itself; share it behind the engine's `Arc`.
pub struct FlightRecorder {
    cfg: FlightConfig,
    rings: Mutex<Rings>,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new(cfg: FlightConfig) -> Self {
        let cap = cfg.cap.max(1);
        let slow_cap = cfg.slow_cap.max(1);
        Self {
            cfg: FlightConfig { cap, slow_cap, ..cfg },
            rings: Mutex::new(Rings {
                recent: VecDeque::with_capacity(cap),
                slow: VecDeque::with_capacity(slow_cap),
                since_flush: 0,
            }),
        }
    }

    /// The slow-request threshold, µs.
    pub fn slow_us(&self) -> u64 {
        self.cfg.slow_us
    }

    /// Appends one record, evicting the oldest once a ring is full.
    pub fn record(&self, rec: FlightRecord) {
        let mut r = self.rings.lock().expect("flight rings poisoned");
        r.since_flush += 1;
        if r.recent.len() == self.cfg.cap {
            r.recent.pop_front();
        }
        if rec.latency_us >= self.cfg.slow_us {
            if r.slow.len() == self.cfg.slow_cap {
                r.slow.pop_front();
            }
            r.slow.push_back(rec.clone());
        }
        r.recent.push_back(rec);
    }

    /// Copies both rings, oldest first: `(recent, slow)`.
    pub fn dump(&self) -> (Vec<FlightRecord>, Vec<FlightRecord>) {
        let r = self.rings.lock().expect("flight rings poisoned");
        (r.recent.iter().cloned().collect(), r.slow.iter().cloned().collect())
    }

    /// Appends both rings to the configured JSONL path, preceded by a
    /// `{"flush":…}` marker naming the reason. Returns the number of
    /// request records written (0 when no path is configured). The rings
    /// are kept — a later `flight` verb still sees them.
    pub fn flush(&self, reason: &str) -> std::io::Result<usize> {
        let Some(path) = &self.cfg.path else { return Ok(0) };
        let (recent, slow, seen) = {
            let mut r = self.rings.lock().expect("flight rings poisoned");
            let seen = r.since_flush;
            r.since_flush = 0;
            (
                r.recent.iter().map(FlightRecord::to_json).collect::<Vec<_>>(),
                r.slow.iter().map(FlightRecord::to_json).collect::<Vec<_>>(),
                seen,
            )
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut out = String::new();
        let marker = json!({
            "flush": json!({
                "reason": reason,
                "seen_since_last": seen,
                "recent": recent.len(),
                "slow": slow.len(),
            }),
        });
        out.push_str(&serde_json::to_string(&marker).expect("serializable"));
        out.push('\n');
        let mut written = 0usize;
        for (ring, recs) in [("recent", &recent), ("slow", &slow)] {
            for rec in recs {
                let line = json!({"ring": ring, "req": rec.clone()});
                out.push_str(&serde_json::to_string(&line).expect("serializable"));
                out.push('\n');
                written += 1;
            }
        }
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(out.as_bytes())?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, latency_us: u64) -> FlightRecord {
        FlightRecord {
            id,
            op: "nn",
            arrival_us: 10 * id,
            queue_us: 3,
            batch: id / 4,
            batch_size: 4,
            latency_us,
            outcome: "ok",
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_cap_records() {
        let fr = FlightRecorder::new(FlightConfig { cap: 4, ..FlightConfig::default() });
        for i in 0..10 {
            fr.record(rec(i, 100));
        }
        let (recent, slow) = fr.dump();
        assert_eq!(recent.iter().map(|r| r.id).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert!(slow.is_empty(), "nothing crossed the slow threshold");
    }

    #[test]
    fn slow_ring_survives_fast_traffic() {
        let fr = FlightRecorder::new(FlightConfig {
            cap: 4,
            slow_cap: 2,
            slow_us: 1_000,
            path: None,
        });
        fr.record(rec(1, 5_000)); // slow
        for i in 2..20 {
            fr.record(rec(i, 10)); // fast traffic evicts it from `recent`
        }
        fr.record(rec(99, 2_000)); // slow
        let (recent, slow) = fr.dump();
        assert!(!recent.iter().any(|r| r.id == 1), "evicted from the recent ring");
        assert_eq!(slow.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 99]);
    }

    #[test]
    fn flush_appends_jsonl_with_a_reason_marker() {
        let path = std::env::temp_dir().join(format!("kcb-flight-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fr = FlightRecorder::new(FlightConfig {
            cap: 8,
            slow_cap: 8,
            slow_us: 1_000,
            path: Some(path.clone()),
        });
        fr.record(rec(1, 10));
        fr.record(rec(2, 5_000));
        assert_eq!(fr.flush("overload").unwrap(), 3, "2 recent + 1 slow");
        assert_eq!(fr.flush("shutdown").unwrap(), 3, "rings survive a flush");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8, "2 markers + 2x3 records");
        for line in &lines {
            kcb_util::json::parse_value(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(lines[0].contains(r#""reason":"overload""#), "{}", lines[0]);
        assert!(lines[4].contains(r#""reason":"shutdown""#), "{}", lines[4]);
        assert!(lines[2].contains(r#""latency_us":5000"#), "{}", lines[2]);
        assert!(text.contains(r#""ring":"slow""#));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_without_a_path_is_a_noop() {
        let fr = FlightRecorder::new(FlightConfig::default());
        fr.record(rec(1, 10));
        assert_eq!(fr.flush("shutdown").unwrap(), 0);
        assert_eq!(fr.dump().0.len(), 1);
    }
}
