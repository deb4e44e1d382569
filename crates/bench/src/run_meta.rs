//! The versioned `results/run_meta.json` document written by
//! `repro --metrics`.
//!
//! One file captures everything needed to interpret (and re-run) a
//! reproduction: a **manifest** (seed, scale, threads, git revision,
//! config digest), the scheduler / cache statistics from the
//! [`PlanReport`], the telemetry counters and training series from the
//! drained [`Telemetry`], per-group span statistics, and per-job timings
//! grouped by artifact / cell / provider. It subsumes the old
//! hand-rolled `bench_repro.json` (same timing groups, plus provenance
//! and telemetry), and `schema_version` is bumped on any breaking shape
//! change so downstream tooling can refuse files it does not understand.

use kcb_core::experiment::plan::PlanReport;
use kcb_obs::Telemetry;
use serde_json::{json, Value};

/// Version of the `run_meta.json` shape.
///
/// v2: `cache` gained `ckpt_hits` / `ckpt_misses`, and a top-level
/// `checkpoints` group lists every persistent checkpoint lookup.
///
/// v3: `span_stats` rows gained `p99_s`, and `cache` gained
/// `provider_skips` (provider jobs that skipped eager materialization
/// because their checkpoint was known-fresh).
///
/// v4: `manifest` gained `mode` naming the run flavour (`"artifacts"`,
/// `"bench-query"`, `"serve"`, `"serve-bench"`), matching the serving
/// subcommands added alongside `results/bench_serve.json`.
///
/// v5: a top-level `journal` group records what the run journal did —
/// `enabled`, records `appended` (fsynced this run), targets `replayed`
/// (read from the checkpoint store instead of assembled, with or without
/// a journal), whether this was a `resume`, and damaged-suffix
/// `warnings` — matching the journaled runs under `results/runs/`.
///
/// v6: a top-level `serve` group (null outside serving modes) carries
/// the live-telemetry summary of a `serve` / `serve-bench` run: request
/// counters (`served` / `shed` / `errors`), the per-verb mix, and the
/// end-to-end latency snapshot from the daemon's lock-free histograms.
///
/// v7: `manifest.mode` gained `"sweep"`, and a top-level `sweep` group
/// (null outside sweep mode) summarises the variant grid: the normalised
/// grid spec, variant / lab counts, total vs shared vs unique job counts
/// from the dedup plan, variants read from the store, and — when
/// `--baseline` measured K sequential runs — the speedup ratio.
pub const SCHEMA_VERSION: u64 = 7;

/// Everything `run_meta.json` is built from.
pub struct RunMetaInputs<'a> {
    /// Master seed of the run.
    pub seed: u64,
    /// Ontology scale of the run.
    pub scale: f64,
    /// Scheduler worker threads requested.
    pub threads: usize,
    /// Whether the tiny `--fast` configuration was used.
    pub fast: bool,
    /// Run flavour: `"artifacts"`, `"bench-query"`, `"serve"` or
    /// `"serve-bench"`.
    pub mode: &'a str,
    /// End-to-end wall-clock seconds (lab construction through export).
    pub total_seconds: f64,
    /// FNV-64 digest of the full lab configuration (hex).
    pub config_digest: String,
    /// Git revision the binary ran from (`"unknown"` outside a checkout).
    pub git_rev: String,
    /// Scheduler + cache report from the run.
    pub report: &'a PlanReport,
    /// Drained telemetry (empty when recording was off).
    pub telemetry: &'a Telemetry,
    /// Serving-mode live-telemetry summary (`None` → emitted as `null`):
    /// counters, verb mix and latency snapshot from the daemon's
    /// `kcb-obs::live` registry.
    pub serve: Option<Value>,
    /// Sweep-mode grid summary (`None` → emitted as `null`): grid spec,
    /// variant / lab counts, shared-vs-unique job counts and speedup.
    pub sweep: Option<Value>,
}

/// The current checkout's short revision, or `"unknown"`.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Per-job timing rows for labels under `prefix` (prefix stripped).
fn job_group(report: &PlanReport, prefix: &str) -> Vec<Value> {
    report
        .scheduler
        .jobs
        .iter()
        .filter(|j| j.label.starts_with(prefix))
        .map(|j| {
            json!({
                "label": j.label.strip_prefix(prefix).unwrap_or(&j.label),
                "kind": j.kind,
                "seconds": j.seconds,
                "start": j.start,
                "end": j.end,
                "worker": j.worker,
            })
        })
        .collect()
}

/// Builds the full `run_meta.json` document.
///
/// (The vendored `json!` macro takes expressions, not nested object
/// literals, so each sub-object is built separately.)
pub fn run_meta_json(inp: &RunMetaInputs<'_>) -> Value {
    let r = inp.report;
    let t = inp.telemetry;
    let counters =
        Value::Object(t.counters.iter().map(|(k, &v)| (k.clone(), json!(v))).collect());
    let series =
        Value::Object(t.series.iter().map(|(k, v)| (k.clone(), json!(v))).collect());
    let span_stats = Value::Object(
        kcb_obs::profile::span_stats(t)
            .into_iter()
            .map(|(k, s)| {
                let row = json!({
                    "count": s.count,
                    "total_s": s.total_s,
                    "self_s": s.self_s,
                    "p50_s": s.p50_s,
                    "p95_s": s.p95_s,
                    "p99_s": s.p99_s,
                    "max_s": s.max_s,
                });
                (k, row)
            })
            .collect(),
    );
    let manifest = json!({
        "seed": inp.seed,
        "scale": inp.scale,
        "threads": inp.threads,
        "hardware_threads": kcb_lm::pool::hardware_threads(),
        "fast": inp.fast,
        "mode": inp.mode,
        "git_rev": inp.git_rev,
        "config_digest": inp.config_digest,
    });
    let scheduler = json!({
        "workers": r.scheduler.workers,
        "jobs": r.scheduler.jobs.len(),
        "steals": r.scheduler.steals,
        "wall_seconds": r.scheduler.wall_seconds,
    });
    let encoding_cache = json!({
        "hits": r.encoding_hits,
        "misses": r.encoding_misses,
        "entries": r.encoding_entries,
        "contended": r.encoding_contended,
    });
    let checkpoints: Vec<Value> = r
        .checkpoints
        .iter()
        .map(|e| {
            json!({
                "provider": e.provider,
                "key": e.key,
                "hit": e.hit,
                "bytes": e.bytes,
            })
        })
        .collect();
    let journal = json!({
        "enabled": r.journal.enabled,
        "appended": r.journal.appended,
        "replayed": r.journal.replayed,
        "resume": r.journal.resume,
        "warnings": r.journal.warnings,
    });
    let serve = inp.serve.clone().unwrap_or(Value::Null);
    let sweep = inp.sweep.clone().unwrap_or(Value::Null);
    json!({
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest,
        "total_seconds": inp.total_seconds,
        "scheduler": scheduler,
        "cache": r.cache,
        "encoding_cache": encoding_cache,
        "journal": journal,
        "serve": serve,
        "sweep": sweep,
        "checkpoints": checkpoints,
        "counters": counters,
        "series": series,
        "span_stats": span_stats,
        "artifacts": job_group(r, "artifact:"),
        "cells": job_group(r, "cell:"),
        "providers": job_group(r, "provider:"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcb_core::sched::{JobReport, RunReport};
    use kcb_util::fnv1a_hex;

    fn sample_inputs(report: &PlanReport, telemetry: &Telemetry) -> Value {
        run_meta_json(&RunMetaInputs {
            seed: 42,
            scale: 0.01,
            threads: 4,
            fast: true,
            mode: "artifacts",
            total_seconds: 1.25,
            config_digest: fnv1a_hex(b"cfg"),
            git_rev: "abc1234".to_string(),
            report,
            telemetry,
            serve: None,
            sweep: None,
        })
    }

    fn sample_report() -> PlanReport {
        let job = |label: &str, kind: &'static str, start: f64, end: f64, worker: usize| {
            JobReport { label: label.to_string(), kind, seconds: end - start, start, end, worker }
        };
        PlanReport {
            scheduler: RunReport {
                workers: 4,
                jobs: vec![
                    job("provider:ontology", "par", 0.0, 0.1, 1),
                    job("cell:rf|1|0.5", "par", 0.1, 0.4, 2),
                    job("artifact:fig3", "driver", 0.4, 0.5, 0),
                ],
                steals: 3,
                wall_seconds: 0.5,
            },
            cache: Default::default(),
            encoding_hits: 10,
            encoding_misses: 2,
            encoding_entries: 2,
            encoding_contended: 1,
            checkpoints: vec![kcb_core::ckpt::CkptEvent {
                provider: "embed-glove".to_string(),
                key: "00ff00ff00ff00ff".to_string(),
                hit: true,
                bytes: 1024,
            }],
            journal: kcb_core::experiment::plan::JournalStats {
                enabled: true,
                appended: 3,
                replayed: 2,
                resume: true,
                warnings: 0,
            },
        }
    }

    #[test]
    fn document_has_the_versioned_shape() {
        let mut t = Telemetry::default();
        t.counters.insert("dbscan.probes".into(), 7);
        t.series.insert("lm.bert.pretrain.loss".into(), vec![2.0, 1.5]);
        t.spans.push(kcb_obs::SpanEvent {
            cat: "cell",
            name: "cell:rf|1|0.5".into(),
            tid: 1,
            start_us: 100_000,
            dur_us: 300_000,
            args: Vec::new(),
        });
        let doc = sample_inputs(&sample_report(), &t);

        assert_eq!(doc["schema_version"], json!(SCHEMA_VERSION));
        assert_eq!(doc["manifest"]["seed"], json!(42));
        assert_eq!(doc["manifest"]["git_rev"], json!("abc1234"));
        assert_eq!(doc["manifest"]["mode"], json!("artifacts"));
        assert_eq!(doc["manifest"]["config_digest"], json!(fnv1a_hex(b"cfg")));
        assert_eq!(doc["scheduler"]["steals"], json!(3));
        assert_eq!(doc["encoding_cache"]["contended"], json!(1));
        assert_eq!(doc["cache"]["ckpt_hits"], json!(0));
        assert_eq!(doc["cache"]["provider_skips"], json!(0));
        assert_eq!(doc["span_stats"]["cell:rf"]["p99_s"], doc["span_stats"]["cell:rf"]["max_s"]);
        assert_eq!(doc["journal"]["enabled"], json!(true));
        assert_eq!(doc["journal"]["appended"], json!(3));
        assert_eq!(doc["journal"]["replayed"], json!(2));
        assert_eq!(doc["journal"]["resume"], json!(true));
        assert_eq!(doc["journal"]["warnings"], json!(0));
        assert_eq!(doc["serve"], Value::Null, "non-serving runs carry a null serve group");
        assert_eq!(doc["sweep"], Value::Null, "non-sweep runs carry a null sweep group");
        assert_eq!(doc["checkpoints"][0]["provider"], json!("embed-glove"));
        assert_eq!(doc["checkpoints"][0]["hit"], json!(true));
        assert_eq!(doc["counters"]["dbscan.probes"], json!(7));
        assert_eq!(doc["series"]["lm.bert.pretrain.loss"], json!([2.0, 1.5]));
        assert_eq!(doc["span_stats"]["cell:rf"]["count"], json!(1));
        // Groups strip their prefix and carry the placement fields.
        assert_eq!(doc["artifacts"][0]["label"], json!("fig3"));
        assert_eq!(doc["artifacts"][0]["worker"], json!(0));
        assert_eq!(doc["cells"][0]["start"], json!(0.1));
        assert_eq!(doc["providers"][0]["label"], json!("ontology"));
        // The document must round-trip the zero-dependency validator.
        let text = serde_json::to_string_pretty(&doc).unwrap();
        kcb_util::json::parse_value(&text).unwrap();
    }

    #[test]
    fn serving_runs_embed_their_live_summary() {
        let t = Telemetry::default();
        let report = sample_report();
        let summary = json!({
            "served": 120,
            "shed": 4,
            "errors": 1,
            "p99_us": 2100,
        });
        let doc = run_meta_json(&RunMetaInputs {
            seed: 42,
            scale: 0.01,
            threads: 4,
            fast: true,
            mode: "serve",
            total_seconds: 9.0,
            config_digest: fnv1a_hex(b"cfg"),
            git_rev: "abc1234".to_string(),
            report: &report,
            telemetry: &t,
            serve: Some(summary),
            sweep: None,
        });
        assert_eq!(doc["schema_version"], json!(7));
        assert_eq!(doc["manifest"]["mode"], json!("serve"));
        assert_eq!(doc["serve"]["served"], json!(120));
        assert_eq!(doc["serve"]["p99_us"], json!(2100));
        let text = serde_json::to_string(&doc).unwrap();
        kcb_util::json::parse_value(&text).unwrap();
    }

    #[test]
    fn sweep_runs_embed_their_grid_summary() {
        let t = Telemetry::default();
        let report = sample_report();
        let summary = json!({
            "grid": "scenarios=0;paradigms=sup,icl;model=random;adapt=naive",
            "variants": 4,
            "labs": 2,
            "total_jobs": 30,
            "shared_jobs": 12,
            "unique_jobs": 18,
            "replayed_variants": 0,
            "speedup_vs_sequential": 2.5,
        });
        let doc = run_meta_json(&RunMetaInputs {
            seed: 42,
            scale: 0.01,
            threads: 4,
            fast: true,
            mode: "sweep",
            total_seconds: 9.0,
            config_digest: fnv1a_hex(b"cfg"),
            git_rev: "abc1234".to_string(),
            report: &report,
            telemetry: &t,
            serve: None,
            sweep: Some(summary),
        });
        assert_eq!(doc["manifest"]["mode"], json!("sweep"));
        assert_eq!(doc["sweep"]["variants"], json!(4));
        assert_eq!(doc["sweep"]["shared_jobs"], json!(12));
        assert_eq!(doc["serve"], Value::Null);
        let text = serde_json::to_string(&doc).unwrap();
        kcb_util::json::parse_value(&text).unwrap();
    }

    #[test]
    fn empty_telemetry_still_yields_a_valid_document() {
        let doc = sample_inputs(&sample_report(), &Telemetry::default());
        assert_eq!(doc["counters"], json!({}));
        assert_eq!(doc["span_stats"], json!({}));
        let text = serde_json::to_string(&doc).unwrap();
        kcb_util::json::parse_value(&text).unwrap();
    }
}
