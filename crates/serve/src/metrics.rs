//! Pre-resolved handles into the live telemetry registry.
//!
//! The [`kcb_obs::live::LiveRegistry`] hands out `Arc`s keyed by name, but
//! name lookup takes the registry mutex — far too much for the request
//! path. [`Metrics`] resolves every handle the engine will ever touch
//! *once* at startup (including one counter per protocol verb, indexed by
//! [`Op::index`]), so the hot path is pure relaxed atomics: no locks, no
//! hashing, no allocation.

use crate::protocol::Op;
use kcb_obs::live::{LiveCounter, LiveGauge, LiveHistogram, LiveRegistry, LiveSnapshot};
use std::sync::Arc;
use std::time::Instant;

/// Every live instrument the serving engine records into.
pub struct Metrics {
    registry: LiveRegistry,
    start: Instant,
    /// Requests answered by workers.
    pub served: Arc<LiveCounter>,
    /// Requests shed with an `overloaded` reply.
    pub shed: Arc<LiveCounter>,
    /// Error replies sent from worker batches.
    pub errors: Arc<LiveCounter>,
    /// Requests currently queued (exact: set under the queue lock).
    pub queue_depth: Arc<LiveGauge>,
    /// Requests currently inside a worker's batch.
    pub in_flight: Arc<LiveGauge>,
    /// End-to-end latency (arrival → replies sent), µs.
    pub e2e_us: Arc<LiveHistogram>,
    /// Time spent queued before a worker drained the request, µs.
    pub queue_wait_us: Arc<LiveHistogram>,
    /// Wall time one worker spent serving one drained batch, µs.
    pub batch_service_us: Arc<LiveHistogram>,
    /// Drained micro-batch sizes (so `sum` is total batched requests).
    pub batch_size: Arc<LiveHistogram>,
    verbs: Vec<Arc<LiveCounter>>,
}

impl Metrics {
    /// Resolves every handle against a fresh registry.
    pub fn new() -> Self {
        let registry = LiveRegistry::new();
        let verbs = Op::NAMES
            .iter()
            .map(|n| registry.counter(&format!("serve.requests.{n}")))
            .collect();
        Self {
            start: Instant::now(),
            served: registry.counter("serve.served"),
            shed: registry.counter("serve.shed"),
            errors: registry.counter("serve.errors"),
            queue_depth: registry.gauge("serve.queue_depth"),
            in_flight: registry.gauge("serve.in_flight"),
            e2e_us: registry.histogram("serve.e2e_us"),
            queue_wait_us: registry.histogram("serve.queue_wait_us"),
            batch_service_us: registry.histogram("serve.batch_service_us"),
            batch_size: registry.histogram("serve.batch_size"),
            verbs,
            registry,
        }
    }

    /// Seconds since the engine started.
    pub fn uptime_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// µs from the engine epoch to `at`.
    pub fn since_us(&self, at: Instant) -> u64 {
        at.duration_since(self.start).as_micros() as u64
    }

    /// Bumps the request counter for `op`'s verb.
    pub fn count_verb(&self, op: &Op) {
        self.verbs[op.index()].add(1);
    }

    /// Per-verb request counts in [`Op::index`] order, zero rows skipped.
    pub fn verb_counts(&self) -> Vec<(&'static str, u64)> {
        Op::NAMES
            .iter()
            .zip(&self.verbs)
            .map(|(&name, c)| (name, c.get()))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// A point-in-time copy of every instrument in the registry.
    pub fn snapshot(&self) -> LiveSnapshot {
        self.registry.snapshot()
    }

    /// The registry snapshot in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        kcb_obs::live::render_prometheus(&self.snapshot())
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_counters_index_by_op_and_report_nonzero_rows() {
        let m = Metrics::new();
        m.count_verb(&Op::Nn { token: "x".into(), k: 3, int8: false });
        m.count_verb(&Op::Nn { token: "y".into(), k: 9, int8: true });
        m.count_verb(&Op::Ping);
        assert_eq!(m.verb_counts(), vec![("ping", 1), ("nn", 2)]);
        let snap = m.snapshot();
        assert_eq!(snap.counters.get("serve.requests.nn"), Some(&2));
        assert_eq!(snap.counters.get("serve.requests.ping"), Some(&1));
    }

    #[test]
    fn prometheus_rendering_includes_the_pre_resolved_instruments() {
        let m = Metrics::new();
        m.served.add(5);
        m.queue_depth.set(3);
        m.e2e_us.record(120);
        let text = m.render_prometheus();
        assert!(text.contains("serve_served_total 5"), "{text}");
        assert!(text.contains("serve_queue_depth 3"), "{text}");
        assert!(text.contains("serve_e2e_us_count 1"), "{text}");
    }
}
