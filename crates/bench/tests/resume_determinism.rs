//! Crash and resume, driven through the built `repro` binary.
//!
//! `repro table2 table3a tableA6 fig3 --fast --seed 7 --threads 2` runs
//! uninterrupted as the reference. Two crash legs, each in its own
//! workspace, kill the same command with `KCB_FAULT=abort_after_job:N` and
//! then rerun it without the fault:
//!
//! * **Early** (`N` = 7): the killed run exits unsuccessfully and leaves
//!   exactly 7 journal lines. The rerun says it resumed an interrupted run
//!   and writes the reference's `--out`. Its run index holds only framed
//!   version-1 manifests, which fold to one `running` run and one
//!   `complete` run that resumed and wrote 4 artifacts, and `repro runs
//!   list` shows both.
//! * **Late** (`N` = the reference's journal length − 1): at most one job
//!   is left, so at most one artifact is missing from the store. The
//!   rerun reads the others (`jobs_replayed` ≥ 1) and writes the
//!   reference's `--out`.

use kcb_util::json::parse_value;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The keys of a run-index manifest.
const MANIFEST_KEYS: [&str; 16] = [
    "v",
    "run_id",
    "config_digest",
    "seed",
    "scale",
    "threads",
    "fast",
    "ids",
    "started_unix_ms",
    "updated_unix_ms",
    "outcome",
    "jobs_run",
    "jobs_replayed",
    "resume",
    "wall_s",
    "artifacts",
];

/// Runs `repro` with `args` in `root`, with its cache and runs directories
/// under `root`, and `KCB_FAULT=abort_after_job:N` when `fault` is set.
fn repro(root: &Path, args: &[&str], fault: Option<u64>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.current_dir(root)
        .args(args)
        .arg("--runs-dir")
        .arg(root.join("runs"));
    match fault {
        Some(n) => cmd.env("KCB_FAULT", format!("abort_after_job:{n}")),
        None => cmd.env_remove("KCB_FAULT"),
    };
    cmd.output().expect("spawn repro")
}

/// Runs the four artifacts into `--out <root>/<out>` and returns the run.
fn run(root: &Path, out: &str, fault: Option<u64>) -> Output {
    let (cache, out) = (root.join("cache"), root.join(out));
    let mut args = vec![
        "table2",
        "table3a",
        "tableA6",
        "fig3",
        "--fast",
        "--seed",
        "7",
        "--threads",
        "2",
    ];
    args.extend([
        "--cache-dir",
        cache.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    repro(root, &args, fault)
}

/// Runs to completion, or fails the test with the run's stderr.
fn run_ok(root: &Path, out: &str) -> String {
    let output = run(root, out, None);
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "repro ({out}) failed:\n{stderr}");
    stderr
}

/// Runs with the fault armed; the run must die at it.
fn crash(root: &Path, after_jobs: u64) {
    let output = run(root, "out", Some(after_jobs));
    assert!(
        !output.status.success(),
        "the fault after job {after_jobs} did not fire"
    );
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

/// Lines of the one journal under `<root>/runs`.
fn journal_lines(root: &Path) -> u64 {
    let dirs: Vec<PathBuf> = std::fs::read_dir(root.join("runs"))
        .expect("runs directory")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.is_dir())
        .collect();
    assert_eq!(dirs.len(), 1, "one run directory: {dirs:?}");
    let text = std::fs::read_to_string(dirs[0].join("journal.jsonl")).expect("journal");
    text.lines().count() as u64
}

/// The run index under `<root>/runs`, folded to the latest manifest per
/// run. Every line must be a `{rec, fnv}` frame around a version-1
/// manifest with exactly the manifest keys.
fn folded_index(root: &Path) -> Vec<Value> {
    let text = std::fs::read_to_string(root.join("runs").join("index.jsonl")).expect("index");
    let mut folded: Vec<Value> = Vec::new();
    for line in text.lines() {
        let row = parse_value(line).expect("index line parses");
        let frame: Vec<&str> = row
            .as_object()
            .expect("frame")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(frame, ["rec", "fnv"], "index framing");
        let rec = row["rec"].clone();
        let mut keys: Vec<&str> = rec
            .as_object()
            .expect("manifest")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        keys.sort_unstable();
        let mut want = MANIFEST_KEYS.to_vec();
        want.sort_unstable();
        assert_eq!(keys, want, "manifest keys");
        assert_eq!(rec["v"].as_u64(), Some(1), "manifest version");
        match folded.iter_mut().find(|m| m["run_id"] == rec["run_id"]) {
            Some(m) => *m = rec,
            None => folded.push(rec),
        }
    }
    folded
}

fn workspace(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("kcb-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("temp root");
    root
}

#[test]
fn crashed_runs_resume_to_the_reference_bytes() {
    let reference = workspace("ref");
    run_ok(&reference, "out");
    let want = files(&reference.join("out"));
    assert_eq!(
        want.len(),
        4,
        "one JSON file per artifact: {:?}",
        want.keys()
    );
    let jobs = journal_lines(&reference);

    // Early crash: nothing had been assembled yet.
    let early = workspace("early");
    crash(&early, 7);
    assert_eq!(
        journal_lines(&early),
        7,
        "exactly the pre-fault jobs were fsync'd"
    );
    let stderr = run_ok(&early, "out");
    assert!(stderr.contains("resumed an interrupted run"), "{stderr}");
    assert_eq!(
        files(&early.join("out")),
        want,
        "the early resume changed --out"
    );
    let runs = folded_index(&early);
    let mut outcomes: Vec<&str> = runs
        .iter()
        .map(|m| m["outcome"].as_str().unwrap())
        .collect();
    outcomes.sort_unstable();
    assert_eq!(
        outcomes,
        ["complete", "running"],
        "the crashed run stays running"
    );
    let done = runs
        .iter()
        .find(|m| m["outcome"].as_str() == Some("complete"))
        .unwrap();
    assert_eq!(
        done["resume"].as_bool(),
        Some(true),
        "the rerun resumed the journal"
    );
    assert_eq!(done["artifacts"].as_array().map(Vec::len), Some(4));
    let list = repro(&early, &["runs", "list"], None);
    let list = String::from_utf8_lossy(&list.stdout);
    assert!(
        list.contains("running") && list.contains("complete (resumed)"),
        "{list}"
    );

    // Late crash: one job short of the reference, so every artifact but
    // at most one is already in the store.
    let late = workspace("late");
    crash(&late, jobs - 1);
    assert_eq!(journal_lines(&late), jobs - 1);
    run_ok(&late, "out");
    assert_eq!(
        files(&late.join("out")),
        want,
        "the late resume changed --out"
    );
    let runs = folded_index(&late);
    let done = runs
        .iter()
        .find(|m| m["outcome"].as_str() == Some("complete"))
        .unwrap();
    let replayed = done["jobs_replayed"].as_u64().expect("jobs_replayed");
    assert!(
        replayed >= 1,
        "the late resume read no artifact from the store: {done:?}"
    );

    for root in [reference, early, late] {
        let _ = std::fs::remove_dir_all(root);
    }
}
