//! The warm-cache contract, driven through the built `repro` binary.
//!
//! A cold `repro table4 tableA6 --fast --metrics` fills a checkpoint
//! store; a warm rerun in the same workspace, journaled and then with
//! `--no-journal`, must
//!
//! * write `--out` JSON byte-identical to the cold run's;
//! * serve every checkpoint lookup from the store (`cache.ckpt_misses`
//!   is 0 and every `checkpoints` event is a hit);
//! * skip at least one provider job by freshness probe;
//! * neither read nor rewrite a derived-result entry: both artifacts are
//!   read from their store entries, so no `derived` lookup happens and
//!   every `derived-*.ckpt` keeps its bytes and its mtime.
//!
//! A flipped byte in an artifact entry then costs one warning naming the
//! file; the target is reassembled to the same bytes, the entry is
//! rewritten, and the run after that hits it again.
//!
//! The cold leg also records `--trace` and `--profile`, and its trace and
//! `run_meta.json` must have the telemetry shape `repro` documents: the
//! trace is JSON with complete spans and thread names, `run_meta` carries
//! schema 7 with every group, and every job row names a traced span.

use kcb_util::json::parse_value;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, SystemTime};

/// Runs `repro table4 tableA6 --fast --metrics` with its working, cache,
/// runs and `--out` directories under `root`, and returns the run's
/// `results/run_meta.json` and its stderr.
fn repro(root: &Path, out: &str, extra: &[&str]) -> (Value, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(root)
        .args(["table4", "tableA6", "--fast", "--metrics"])
        .arg("--cache-dir")
        .arg(root.join("cache"))
        .arg("--runs-dir")
        .arg(root.join("runs"))
        .arg("--out")
        .arg(root.join(out))
        .args(extra)
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "repro ({out}) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(root.join("results").join("run_meta.json"))
        .expect("run_meta.json written");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (parse_value(&text).expect("run_meta.json parses"), stderr)
}

/// Every file directly under `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("readable")
        .map(|e| {
            let p = e.expect("entry").path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("read"))
        })
        .collect()
}

/// The store's entries whose file name starts with `prefix`, sorted.
fn entries(cache: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(cache)
        .expect("store exists")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with(prefix))
        .collect();
    v.sort();
    v
}

/// Bytes and mtime of every derived-result entry in the store.
fn derived_entries(cache: &Path) -> BTreeMap<PathBuf, (Vec<u8>, SystemTime)> {
    entries(cache, "derived-")
        .into_iter()
        .map(|p| {
            let mtime = std::fs::metadata(&p).and_then(|m| m.modified()).expect("mtime");
            (p.clone(), (std::fs::read(&p).expect("read"), mtime))
        })
        .collect()
}

/// The telemetry shape of a cold, non-serving, non-sweep run: its Chrome
/// trace and its `run_meta.json`.
fn assert_telemetry(trace: &Value, meta: &Value) {
    let events = trace["traceEvents"].as_array().expect("traceEvents list");
    let spans: Vec<&str> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X"))
        .map(|e| e["name"].as_str().expect("span name"))
        .collect();
    assert!(!spans.is_empty(), "trace has no spans");
    assert!(events.iter().any(|e| e["ph"].as_str() == Some("M")), "trace has no thread names");

    assert_eq!(meta["schema_version"].as_u64(), Some(7), "run_meta schema");
    for group in [
        "manifest",
        "scheduler",
        "cache",
        "encoding_cache",
        "journal",
        "serve",
        "sweep",
        "checkpoints",
        "counters",
        "series",
        "span_stats",
        "artifacts",
        "cells",
        "providers",
    ] {
        assert!(meta.get(group).is_some(), "run_meta is missing {group}");
    }
    // A run that neither serves nor sweeps carries explicit null groups.
    assert!(meta["serve"].is_null() && meta["sweep"].is_null(), "serve/sweep must be null");
    for key in ["enabled", "appended", "replayed", "resume", "warnings"] {
        assert!(meta["journal"].get(key).is_some(), "journal is missing {key}");
    }
    for key in ["seed", "scale", "threads", "git_rev", "config_digest", "mode"] {
        assert!(meta["manifest"].get(key).is_some(), "manifest is missing {key}");
    }
    assert_eq!(meta["manifest"]["mode"].as_str(), Some("artifacts"));
    assert!(meta["cache"].get("provider_skips").is_some(), "cache is missing provider_skips");
    for (name, row) in meta["span_stats"].as_object().expect("span_stats object") {
        assert!(row.get("p99_s").is_some(), "span_stats row {name} has no p99_s");
    }
    for (group, prefix) in [("artifacts", "artifact:"), ("cells", "cell:"), ("providers", "provider:")] {
        let rows = meta[group].as_array().expect("job rows");
        assert!(!rows.is_empty(), "run_meta has no {group} rows");
        for row in rows {
            let label = format!("{prefix}{}", row["label"].as_str().expect("label"));
            assert!(spans.contains(&label.as_str()), "{group} job {label} missing from the trace");
        }
    }
}

/// The warm-run invariants on one run's `run_meta.json`.
fn assert_warm(meta: &Value, leg: &str) {
    let events = meta["checkpoints"].as_array().expect("checkpoints list");
    assert!(!events.is_empty(), "{leg}: no checkpoint lookups recorded");
    for e in events {
        let provider = e["provider"].as_str().expect("provider");
        assert_eq!(e["hit"].as_bool(), Some(true), "{leg}: {provider} missed");
        assert_ne!(provider, "derived", "{leg}: a warm run looked up a derived result");
    }
    assert_eq!(meta["cache"]["ckpt_misses"].as_u64(), Some(0), "{leg}: {:?}", meta["cache"]);
    let skips = meta["cache"]["provider_skips"].as_u64().expect("provider_skips");
    assert!(skips > 0, "{leg}: no provider job skipped by freshness probe");
}

#[test]
fn warm_reruns_hit_every_checkpoint_and_repeat_the_bytes() {
    let root = std::env::temp_dir().join(format!("kcb-warm-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("temp root");

    let trace = root.join("trace.json");
    let (cold, _) = repro(&root, "out-cold", &["--trace", trace.to_str().unwrap(), "--profile"]);
    let trace = std::fs::read_to_string(&trace).expect("trace written");
    assert_telemetry(&parse_value(&trace).expect("trace parses"), &cold);
    let cold_derived = cold["checkpoints"]
        .as_array()
        .expect("checkpoints list")
        .iter()
        .filter(|e| e["provider"].as_str() == Some("derived"))
        .count();
    assert!(cold_derived > 0, "the cold run computed no derived result");
    // Backdate every derived entry, so a read (which touches) or a rewrite
    // on a warm run would show as a changed mtime.
    let past = SystemTime::now() - Duration::from_secs(3600);
    for path in derived_entries(&root.join("cache")).keys() {
        let f = std::fs::File::options().append(true).open(path).expect("open entry");
        f.set_modified(past).expect("set mtime");
    }
    let before = derived_entries(&root.join("cache"));
    assert_eq!(before.len(), cold_derived, "one entry per derived result");

    let reference = files(&root.join("out-cold"));
    assert!(!reference.is_empty(), "the cold run wrote no artifacts");
    for (leg, extra) in [("warm", &[][..]), ("no-journal", &["--no-journal"][..])] {
        let (warm, _) = repro(&root, &format!("out-{leg}"), extra);
        assert_warm(&warm, leg);
        let out = files(&root.join(format!("out-{leg}")));
        assert_eq!(out, reference, "out-{leg} differs from out-cold");
        assert_eq!(
            derived_entries(&root.join("cache")),
            before,
            "{leg}: a warm rerun must leave every derived entry byte- and mtime-identical"
        );
    }

    // Corrupt one artifact entry: one warning naming it, the target is
    // reassembled to the same bytes and the entry rewritten as it was.
    let artifacts = entries(&root.join("cache"), "artifact-");
    assert_eq!(artifacts.len(), reference.len(), "one entry per artifact");
    let entry = &artifacts[0];
    let good = std::fs::read(entry).expect("read entry");
    let mut bad = good.clone();
    bad[good.len() / 2] ^= 0x01;
    std::fs::write(entry, &bad).expect("corrupt entry");
    let (_, stderr) = repro(&root, "out-repair", &[]);
    let warnings: Vec<&str> = stderr.lines().filter(|l| l.contains("warning")).collect();
    assert_eq!(warnings.len(), 1, "one warning for one corrupt entry:\n{stderr}");
    assert!(warnings[0].contains(&entry.display().to_string()), "{}", warnings[0]);
    assert_eq!(files(&root.join("out-repair")), reference, "out-repair differs from out-cold");
    assert!(std::fs::read(entry).expect("read entry") == good, "the entry was not rewritten");

    let (rehit, _) = repro(&root, "out-rehit", &[]);
    assert_warm(&rehit, "rehit");
    let key = entry.file_stem().unwrap().to_string_lossy().replace("artifact-", "");
    assert!(
        rehit["checkpoints"].as_array().expect("checkpoints list").iter().any(|e| {
            e["provider"].as_str() == Some("artifact") && e["key"].as_str() == Some(key.as_str())
        }),
        "the repaired entry was not read"
    );
    assert_eq!(files(&root.join("out-rehit")), reference, "out-rehit differs from out-cold");
    let _ = std::fs::remove_dir_all(&root);
}
