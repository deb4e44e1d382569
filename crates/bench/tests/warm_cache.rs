//! The warm-cache contract, driven through the built `repro` binary.
//!
//! A cold `repro table4 tableA6 --fast --metrics` fills a checkpoint
//! store; a warm rerun in the same workspace, then a warm rerun with
//! `--no-mmap`, must
//!
//! * write `--out` JSON byte-identical to the cold run's;
//! * serve every checkpoint lookup from the store (`cache.ckpt_misses`
//!   is 0 and every `checkpoints` event is a hit);
//! * skip at least one provider job by freshness probe;
//! * neither read nor rewrite a derived-result entry: the journal replays
//!   both artifacts, so no `derived` lookup happens and every
//!   `derived-*.ckpt` keeps its bytes and its mtime.

use kcb_util::json::parse_value;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, SystemTime};

/// Runs `repro table4 tableA6 --fast --metrics` with its working, cache,
/// runs and `--out` directories under `root`, and returns the run's
/// `results/run_meta.json`.
fn repro(root: &Path, out: &str, extra: &[&str]) -> Value {
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
    parse_value(&text).expect("run_meta.json parses")
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

/// Bytes and mtime of every derived-result entry in the store.
fn derived_entries(cache: &Path) -> BTreeMap<PathBuf, (Vec<u8>, SystemTime)> {
    std::fs::read_dir(cache)
        .expect("store exists")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("derived-"))
        .map(|p| {
            let mtime = std::fs::metadata(&p).and_then(|m| m.modified()).expect("mtime");
            (p.clone(), (std::fs::read(&p).expect("read"), mtime))
        })
        .collect()
}

/// The warm-run invariants on one run's `run_meta.json`.
fn assert_warm(meta: &Value, leg: &str) {
    let events = meta["checkpoints"].as_array().expect("checkpoints list");
    assert!(!events.is_empty(), "{leg}: no checkpoint lookups recorded");
    for e in events {
        let provider = e["provider"].as_str().expect("provider");
        assert_eq!(e["hit"].as_bool(), Some(true), "{leg}: {provider} missed");
        assert_ne!(provider, "derived", "{leg}: a replayed run looked up a derived result");
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

    let cold = repro(&root, "out-cold", &[]);
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

    let warm = repro(&root, "out-warm", &[]);
    assert_warm(&warm, "warm");
    let warm_nommap = repro(&root, "out-warm-nommap", &["--no-mmap"]);
    assert_warm(&warm_nommap, "warm --no-mmap");

    let reference = files(&root.join("out-cold"));
    assert!(!reference.is_empty(), "the cold run wrote no artifacts");
    for out in ["out-warm", "out-warm-nommap"] {
        assert_eq!(files(&root.join(out)), reference, "{out} differs from out-cold");
    }
    assert_eq!(
        derived_entries(&root.join("cache")),
        before,
        "warm reruns must leave every derived entry byte- and mtime-identical"
    );
    let _ = std::fs::remove_dir_all(&root);
}
