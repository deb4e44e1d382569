//! Append-only, self-verifying run journal + run index.
//!
//! Every scheduled run owns a directory `results/runs/<config-digest>/`
//! holding a line-framed `journal.jsonl`: after each provider / cell /
//! artifact job commits, the scheduler's completion hook appends one
//! checksummed [`JobRecord`] with its input provenance and fsyncs the
//! line. A crash — OOM, SIGKILL, power loss, `KCB_FAULT` — can therefore
//! lose at most a torn final line, and the framing detects and drops it
//! on load, never trusting it.
//!
//! The journal records; it does not decide what a rerun skips. Every
//! assembly saves its artifact and the results its cells computed to the
//! checkpoint store before its record is appended, and the next run reads
//! whatever the store holds ([`crate::experiment::exec`]). What [`load`]
//! feeds back is the resume flag (the journal holds records but not every
//! requested artifact) and [`Replay::holds`], which keeps a rerun from
//! appending a record the journal already has.
//!
//! Record framing: each line is `{"rec":<body>,"fnv":"<hex>"}` where
//! `<hex>` is the FNV-64 of the rendered `<body>` text. Verification
//! re-renders the parsed body through the same writer — the parser
//! ([`kcb_util::json`]) is the exact inverse of the renderer, so any bit
//! flip that changes the record's meaning changes the re-rendered bytes
//! and fails the check. Loading stops at the first damaged record, with
//! one warning.
//!
//! The run **index** (`results/runs/index.jsonl`, same framing) gets one
//! manifest appended when a run starts (`outcome: "running"`) and one
//! when it ends (`"complete"` / `"failed"`), so a crashed run is visible
//! as a fold whose latest record still says `running`. `repro runs
//! [list|show|diff]` queries it.
//!
//! Fault injection: [`FaultPlan`] (from `KCB_FAULT=abort_after_job:N`, or
//! injected directly in tests as `panic_after_job:N`) kills the run at an
//! exact job boundary — after the Nth record of this run is journaled and
//! fsynced — which is how the resume path is proven by tests rather than
//! assumed.

use kcb_util::fnv1a_hex;
use kcb_util::json::parse_value;
use serde_json::Value;
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Version of the journal / index record shapes.
pub const JOURNAL_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Records and the line codec.
// ---------------------------------------------------------------------------

/// One job-completion record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Position in this journal (0-based, monotonically increasing across
    /// resumes).
    pub seq: u64,
    /// Scheduler job label (`provider:…`, `cell:…`, `artifact:…`).
    pub label: String,
    /// `"par"` or `"driver"`.
    pub kind: String,
    /// FNV-64 hex digest of the job's durable output (the compact replay
    /// JSON an assembly saves as its artifact entry; empty for provider
    /// and cell jobs).
    pub digest: String,
    /// Wall-clock seconds inside the job closure.
    pub seconds: f64,
    /// Worker that executed the job (0 = driver thread).
    pub worker: u64,
    /// Input provenance entries, `name=content-key` (the config digest
    /// plus, per dependency, its content-addressed checkpoint key), so
    /// `repro runs diff` can say *which* inputs changed between two runs
    /// rather than only which outputs differ. Journals written before
    /// this field load with an empty list — the framing checksum covers
    /// whatever shape was actually written, so old records stay valid.
    pub inputs: Vec<String>,
}

impl JobRecord {
    fn body(&self) -> Value {
        let inputs =
            Value::Array(self.inputs.iter().map(|s| Value::String(s.clone())).collect());
        Value::Object(vec![
            ("v".to_string(), serde_json::json!(JOURNAL_VERSION)),
            ("seq".to_string(), serde_json::json!(self.seq)),
            ("label".to_string(), Value::String(self.label.clone())),
            ("kind".to_string(), Value::String(self.kind.clone())),
            ("digest".to_string(), Value::String(self.digest.clone())),
            ("seconds".to_string(), serde_json::json!(self.seconds)),
            ("worker".to_string(), serde_json::json!(self.worker)),
            ("inputs".to_string(), inputs),
        ])
    }

    fn from_body(v: &Value) -> Option<Self> {
        if v.get("v")?.as_u64()? != JOURNAL_VERSION {
            return None;
        }
        let inputs = match v.get("inputs") {
            None => Vec::new(),
            Some(arr) => arr
                .as_array()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
        };
        Some(Self {
            seq: v.get("seq")?.as_u64()?,
            label: v.get("label")?.as_str()?.to_string(),
            kind: v.get("kind")?.as_str()?.to_string(),
            digest: v.get("digest")?.as_str()?.to_string(),
            seconds: v.get("seconds")?.as_f64()?,
            worker: v.get("worker")?.as_u64()?,
            inputs,
        })
    }
}

/// Frames `body` as one self-verifying journal line (without newline).
pub fn encode_line(body: &Value) -> String {
    let text = body.render_json(None);
    let fnv = fnv1a_hex(text.as_bytes());
    format!("{{\"rec\":{text},\"fnv\":\"{fnv}\"}}")
}

/// Unframes and verifies one line: parses, re-renders the body through
/// the deterministic writer, and compares the FNV-64. Any parse failure
/// or checksum mismatch is a damaged record.
pub fn decode_line(line: &str) -> Result<Value, String> {
    let v = parse_value(line)?;
    let body = v.get("rec").ok_or("missing rec field")?;
    let fnv = v.get("fnv").and_then(Value::as_str).ok_or("missing fnv field")?;
    let text = body.render_json(None);
    if fnv1a_hex(text.as_bytes()) != fnv {
        return Err("checksum mismatch".to_string());
    }
    Ok(body.clone())
}

/// Encodes a [`JobRecord`] as one journal line (without newline).
pub fn encode_record(rec: &JobRecord) -> String {
    encode_line(&rec.body())
}

/// Decodes and verifies one journal line.
pub fn decode_record(line: &str) -> Result<JobRecord, String> {
    let body = decode_line(line)?;
    JobRecord::from_body(&body).ok_or_else(|| "malformed record body".to_string())
}

// ---------------------------------------------------------------------------
// The per-run journal: layout, replay, writer.
// ---------------------------------------------------------------------------

/// Directory of one run's journal state: `<runs>/<config-digest>/`.
pub fn run_dir(runs_root: &Path, config_digest: &str) -> PathBuf {
    runs_root.join(config_digest)
}

/// Path of the journal file inside a run directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.jsonl")
}

/// What replaying a journal found.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Every valid record, in sequence order.
    pub records: Vec<JobRecord>,
    /// One warning when a damaged suffix was dropped (torn final line
    /// after a crash, truncation, bit flips). Everything before the first
    /// damaged record is still trusted.
    pub warning: Option<String>,
}

impl Replay {
    /// Labels of all journaled (completed) jobs.
    pub fn completed(&self) -> HashSet<String> {
        self.records.iter().map(|r| r.label.clone()).collect()
    }

    /// Whether a record of `label` with this output digest and these
    /// inputs is already journaled — appending it again would add
    /// nothing the journal does not already say.
    pub fn holds(&self, label: &str, digest: &str, inputs: &[String]) -> bool {
        self.records.iter().any(|r| r.label == label && r.digest == digest && r.inputs == inputs)
    }
}

/// Loads and verifies a journal file. A missing file is an empty replay.
/// Reading stops at the first damaged record: a crash can only tear the
/// tail, so everything after the first bad line is untrusted, and its
/// jobs are journaled again when they next run.
pub fn load(path: &Path) -> Replay {
    let Ok(bytes) = std::fs::read(path) else { return Replay::default() };
    let mut out = Replay::default();
    let mut dropped = 0usize;
    let mut first_err = String::new();
    // Decode line by line from raw bytes — a bit flip can make a line
    // invalid UTF-8, which must damage *that record*, not the whole file.
    // A file not ending in '\n' has a torn final line; iterate complete
    // lines only and count the remainder as damage.
    let complete_len = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let mut lines = bytes[..complete_len].split_inclusive(|&b| b == b'\n');
    for chunk in &mut lines {
        let decoded = std::str::from_utf8(&chunk[..chunk.len() - 1])
            .map_err(|_| "invalid utf-8".to_string())
            .and_then(decode_record);
        match decoded {
            Ok(rec) => out.records.push(rec),
            Err(e) => {
                dropped += 1;
                first_err = e;
                break;
            }
        }
    }
    dropped += lines.count();
    if complete_len < bytes.len() && first_err.is_empty() {
        dropped += 1;
        first_err = "torn final line (no newline)".to_string();
    }
    if dropped > 0 {
        out.warning = Some(format!(
            "journal {}: dropped {} damaged record(s) ({}); re-executing that suffix",
            path.display(),
            dropped,
            first_err
        ));
    }
    kcb_obs::counter("journal.records_loaded", out.records.len() as u64);
    out
}

/// Appends checksummed, fsync'd records to a journal file.
pub struct Writer {
    file: Mutex<std::fs::File>,
    path: PathBuf,
    next_seq: AtomicU64,
    appended: AtomicU64,
}

impl Writer {
    /// Opens (creating directories as needed) in append mode, continuing
    /// sequence numbers after `existing` replayed records.
    pub fn open(path: &Path, existing: u64) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            next_seq: AtomicU64::new(existing),
            appended: AtomicU64::new(0),
        })
    }

    /// Appends one completion record and fsyncs the line so a crash
    /// immediately after cannot lose it. Returns the records appended by
    /// this writer so far (the fault-injection counter). Write errors
    /// warn and are swallowed: journaling is a durability aid, never a
    /// reason to fail the run itself.
    pub fn append(
        &self,
        label: &str,
        kind: &str,
        digest: &str,
        seconds: f64,
        worker: usize,
        inputs: &[String],
    ) -> u64 {
        let rec = JobRecord {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            label: label.to_string(),
            kind: kind.to_string(),
            digest: digest.to_string(),
            seconds,
            worker: worker as u64,
            inputs: inputs.to_vec(),
        };
        let mut line = encode_record(&rec);
        line.push('\n');
        {
            let mut f = self.file.lock().expect("journal file lock");
            let wrote = f
                .write_all(line.as_bytes())
                .and_then(|()| f.flush())
                .and_then(|()| f.sync_data());
            if let Err(e) = wrote {
                eprintln!("warning: journal append failed ({}): {e}", self.path.display());
            }
        }
        kcb_obs::counter("journal.appends", 1);
        self.appended.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records appended by this writer (this run, excluding replays).
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

/// How an injected fault kills the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// `std::process::abort()` — the real crash, used by CI through
    /// `KCB_FAULT`. No destructors, no flushing beyond what the journal
    /// already fsynced.
    Abort,
    /// `panic!` — the in-process stand-in for tests, which catch the
    /// unwind and then exercise the same resume path.
    Panic,
}

/// Kills the run at an exact job boundary: after `after_jobs` completion
/// records have been appended (and fsynced) by this run's writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Records this run may append before the fault fires.
    pub after_jobs: u64,
    /// Abort (CI) or panic (tests).
    pub action: FaultAction,
}

impl FaultPlan {
    /// Parses `KCB_FAULT` (`abort_after_job:N` / `panic_after_job:N`).
    /// Unset means no fault; a malformed value is rejected loudly rather
    /// than silently ignored — a fault plan that does not fire would make
    /// a CI crash test pass vacuously.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var("KCB_FAULT") {
            Err(_) => Ok(None),
            Ok(spec) => Self::parse(&spec).map(Some),
        }
    }

    /// Parses a fault spec string.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (action, n) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad KCB_FAULT `{spec}` (want kind_after_job:N)"))?;
        let action = match action {
            "abort_after_job" => FaultAction::Abort,
            "panic_after_job" => FaultAction::Panic,
            other => return Err(format!("bad KCB_FAULT kind `{other}`")),
        };
        let after_jobs: u64 =
            n.parse().map_err(|_| format!("bad KCB_FAULT job count `{n}`"))?;
        if after_jobs == 0 {
            return Err("KCB_FAULT job count must be at least 1".to_string());
        }
        Ok(Self { after_jobs, action })
    }

    /// Fires the fault if `appended_this_run` has reached the boundary.
    pub fn check(&self, appended_this_run: u64) {
        if appended_this_run < self.after_jobs {
            return;
        }
        match self.action {
            FaultAction::Abort => {
                eprintln!("# KCB_FAULT: aborting after {} journaled jobs", appended_this_run);
                std::process::abort();
            }
            FaultAction::Panic => {
                panic!("KCB_FAULT: injected fault after {appended_this_run} journaled jobs")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The run index and its manifests.
// ---------------------------------------------------------------------------

/// One run manifest, as appended to `results/runs/index.jsonl`. A run
/// appends one with `outcome: "running"` at start and one terminal record
/// (`"complete"` / `"failed"`) at exit; folding by `run_id` and keeping
/// the last therefore shows crashed runs as still-`running`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Unique id: `<config-digest>-<start-unix-millis>`.
    pub run_id: String,
    /// FNV-64 hex digest of the full lab configuration.
    pub config_digest: String,
    /// Master seed.
    pub seed: u64,
    /// Ontology scale.
    pub scale: f64,
    /// Scheduler worker threads.
    pub threads: u64,
    /// Tiny `--fast` configuration?
    pub fast: bool,
    /// Requested artifact ids, in request order.
    pub ids: Vec<String>,
    /// Unix milliseconds when the run started.
    pub started_unix_ms: u64,
    /// Unix milliseconds when this record was written.
    pub updated_unix_ms: u64,
    /// `"running"`, `"complete"` or `"failed"`.
    pub outcome: String,
    /// Scheduler jobs executed this run (0 in the start record).
    pub jobs_run: u64,
    /// Targets read from the checkpoint store instead of assembled.
    pub jobs_replayed: u64,
    /// Whether this run resumed an interrupted journal.
    pub resume: bool,
    /// End-to-end wall seconds (0 in the start record).
    pub wall_s: f64,
    /// `(artifact id, FNV-64 hex of its compact replay JSON)` per
    /// artifact, in request order.
    pub artifacts: Vec<(String, String)>,
}

impl RunManifest {
    /// Structural JSON body (order fixed so the framing checksum is
    /// deterministic).
    pub fn to_json(&self) -> Value {
        let ids = Value::Array(self.ids.iter().map(|s| Value::String(s.clone())).collect());
        let artifacts = Value::Array(
            self.artifacts
                .iter()
                .map(|(id, fnv)| {
                    Value::Object(vec![
                        ("id".to_string(), Value::String(id.clone())),
                        ("fnv".to_string(), Value::String(fnv.clone())),
                    ])
                })
                .collect(),
        );
        Value::Object(vec![
            ("v".to_string(), serde_json::json!(JOURNAL_VERSION)),
            ("run_id".to_string(), Value::String(self.run_id.clone())),
            ("config_digest".to_string(), Value::String(self.config_digest.clone())),
            ("seed".to_string(), serde_json::json!(self.seed)),
            ("scale".to_string(), serde_json::json!(self.scale)),
            ("threads".to_string(), serde_json::json!(self.threads)),
            ("fast".to_string(), serde_json::json!(self.fast)),
            ("ids".to_string(), ids),
            ("started_unix_ms".to_string(), serde_json::json!(self.started_unix_ms)),
            ("updated_unix_ms".to_string(), serde_json::json!(self.updated_unix_ms)),
            ("outcome".to_string(), Value::String(self.outcome.clone())),
            ("jobs_run".to_string(), serde_json::json!(self.jobs_run)),
            ("jobs_replayed".to_string(), serde_json::json!(self.jobs_replayed)),
            ("resume".to_string(), serde_json::json!(self.resume)),
            ("wall_s".to_string(), serde_json::json!(self.wall_s)),
            ("artifacts".to_string(), artifacts),
        ])
    }

    /// Inverse of [`RunManifest::to_json`].
    pub fn from_json(v: &Value) -> Option<Self> {
        if v.get("v")?.as_u64()? != JOURNAL_VERSION {
            return None;
        }
        let ids = v
            .get("ids")?
            .as_array()?
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?;
        let artifacts = v
            .get("artifacts")?
            .as_array()?
            .iter()
            .map(|a| {
                Some((
                    a.get("id")?.as_str()?.to_string(),
                    a.get("fnv")?.as_str()?.to_string(),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            run_id: v.get("run_id")?.as_str()?.to_string(),
            config_digest: v.get("config_digest")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            scale: v.get("scale")?.as_f64()?,
            threads: v.get("threads")?.as_u64()?,
            fast: v.get("fast")?.as_bool()?,
            ids,
            started_unix_ms: v.get("started_unix_ms")?.as_u64()?,
            updated_unix_ms: v.get("updated_unix_ms")?.as_u64()?,
            outcome: v.get("outcome")?.as_str()?.to_string(),
            jobs_run: v.get("jobs_run")?.as_u64()?,
            jobs_replayed: v.get("jobs_replayed")?.as_u64()?,
            resume: v.get("resume")?.as_bool()?,
            wall_s: v.get("wall_s")?.as_f64()?,
            artifacts,
        })
    }
}

/// Path of the run index under a runs root.
pub fn index_path(runs_root: &Path) -> PathBuf {
    runs_root.join("index.jsonl")
}

/// Appends one manifest record to the index (same framing as the
/// journal). Errors warn and are swallowed.
pub fn index_append(runs_root: &Path, m: &RunManifest) {
    let path = index_path(runs_root);
    let append = || -> std::io::Result<()> {
        std::fs::create_dir_all(runs_root)?;
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        let mut line = encode_line(&m.to_json());
        line.push('\n');
        f.write_all(line.as_bytes())?;
        f.flush()?;
        f.sync_data()
    };
    if let Err(e) = append() {
        eprintln!("warning: run-index append failed ({}): {e}", path.display());
    }
    kcb_obs::counter("journal.index_appends", 1);
}

/// Loads every valid manifest from the index, in file order, silently
/// skipping damaged lines (the index is advisory; the journal is the
/// durable record).
pub fn index_load(runs_root: &Path) -> Vec<RunManifest> {
    let Ok(text) = std::fs::read_to_string(index_path(runs_root)) else { return Vec::new() };
    text.lines()
        .filter_map(|l| decode_line(l).ok())
        .filter_map(|b| RunManifest::from_json(&b))
        .collect()
}

/// Folds index records by `run_id`, keeping the latest per run, newest
/// first — the `repro runs list` view.
pub fn index_fold(records: Vec<RunManifest>) -> Vec<RunManifest> {
    let mut folded: Vec<RunManifest> = Vec::new();
    for m in records {
        if let Some(slot) = folded.iter_mut().find(|f| f.run_id == m.run_id) {
            *slot = m;
        } else {
            folded.push(m);
        }
    }
    folded.sort_by_key(|m| std::cmp::Reverse(m.started_unix_ms));
    folded
}

/// Field-by-field diff of two manifests: `(field, a, b)` rows for every
/// field that differs, including per-artifact checksum mismatches.
pub fn diff_manifests(a: &RunManifest, b: &RunManifest) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    let mut field = |name: &str, va: String, vb: String| {
        if va != vb {
            out.push((name.to_string(), va, vb));
        }
    };
    field("config_digest", a.config_digest.clone(), b.config_digest.clone());
    field("seed", a.seed.to_string(), b.seed.to_string());
    field("scale", a.scale.to_string(), b.scale.to_string());
    field("threads", a.threads.to_string(), b.threads.to_string());
    field("fast", a.fast.to_string(), b.fast.to_string());
    field("ids", a.ids.join(" "), b.ids.join(" "));
    field("outcome", a.outcome.clone(), b.outcome.clone());
    field("jobs_run", a.jobs_run.to_string(), b.jobs_run.to_string());
    field("jobs_replayed", a.jobs_replayed.to_string(), b.jobs_replayed.to_string());
    field("resume", a.resume.to_string(), b.resume.to_string());
    let ids: Vec<&str> = a
        .artifacts
        .iter()
        .map(|(id, _)| id.as_str())
        .chain(b.artifacts.iter().map(|(id, _)| id.as_str()))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for id in ids {
        let find = |m: &RunManifest| {
            m.artifacts
                .iter()
                .find(|(i, _)| i == id)
                .map(|(_, f)| f.clone())
                .unwrap_or_else(|| "absent".to_string())
        };
        let (fa, fb) = (find(a), find(b));
        if fa != fb {
            out.push((format!("artifact:{id}"), fa, fb));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, label: &str) -> JobRecord {
        JobRecord {
            seq,
            label: label.to_string(),
            kind: "par".to_string(),
            digest: String::new(),
            seconds: 0.125,
            worker: 1,
            inputs: Vec::new(),
        }
    }

    #[test]
    fn records_round_trip_the_line_codec() {
        let r = JobRecord {
            seq: 7,
            label: "artifact:fig3".to_string(),
            digest: "00ff00ff00ff00ff".to_string(),
            kind: "driver".to_string(),
            seconds: 1.5,
            worker: 0,
            inputs: vec!["cfg=aa".to_string(), "provider:bert=bb".to_string()],
        };
        let line = encode_record(&r);
        assert_eq!(decode_record(&line).unwrap(), r);
        kcb_util::json::parse_value(&line).unwrap();
    }

    #[test]
    fn pre_provenance_records_load_with_empty_inputs() {
        // A record body as written before the `inputs` field existed: the
        // framing checksum covers the rendered body, not a fixed schema,
        // so old journals must keep loading (with no provenance).
        let mut old = rec(2, "cell:lstm|glove");
        old.inputs = vec!["x=y".to_string()];
        let body = old.body();
        let Value::Object(fields) = body else { panic!("object body") };
        let trimmed =
            Value::Object(fields.into_iter().filter(|(k, _)| k != "inputs").collect());
        let line = encode_line(&trimmed);
        let back = decode_record(&line).unwrap();
        assert_eq!(back.label, "cell:lstm|glove");
        assert!(back.inputs.is_empty());
    }

    #[test]
    fn any_bit_flip_is_detected() {
        let line = encode_record(&rec(3, "cell:rf|1|0.5|glove|naive"));
        let bytes = line.as_bytes();
        for i in 0..bytes.len() {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 0x01;
            let Ok(s) = std::str::from_utf8(&flipped) else { continue };
            if let Ok(r2) = decode_record(s) {
                // The only undetectable flips are those the canonical
                // re-render absorbs (e.g. whitespace) — the decoded record
                // must then be semantically identical.
                assert_eq!(r2, rec(3, "cell:rf|1|0.5|glove|naive"), "flip at byte {i}");
            }
        }
    }

    #[test]
    fn torn_tail_is_dropped_with_one_warning() {
        let dir = std::env::temp_dir().join(format!("kcb-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let mut text = String::new();
        for i in 0..4 {
            text.push_str(&encode_record(&rec(i, &format!("cell:{i}"))));
            text.push('\n');
        }
        // Torn final line: a fifth record cut mid-way, no newline.
        let torn = encode_record(&rec(4, "cell:4"));
        text.push_str(&torn[..torn.len() / 2]);
        std::fs::write(&path, &text).unwrap();
        let replay = load(&path);
        assert_eq!(replay.records.len(), 4);
        assert!(replay.warning.as_deref().unwrap().contains("1 damaged"), "{replay:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_stops_replay_at_the_damaged_suffix() {
        let dir = std::env::temp_dir().join(format!("kcb-journal-c-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.jsonl");
        let mut lines: Vec<String> =
            (0..6).map(|i| encode_record(&rec(i, &format!("cell:{i}")))).collect();
        // Flip a digit inside record 4's checksum field.
        lines[4] = lines[4].replace("\"fnv\":\"", "\"fnv\":\"x");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let replay = load(&path);
        // Records 0..4 survive; 4 and 5 are the re-executed suffix.
        assert_eq!(replay.records.len(), 4);
        assert!(replay.warning.as_deref().unwrap().contains("2 damaged"), "{replay:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_appends_are_loadable_and_sequenced() {
        let dir = std::env::temp_dir().join(format!("kcb-journal-w-{}", std::process::id()));
        let path = dir.join("w.jsonl");
        std::fs::remove_file(&path).ok();
        let w = Writer::open(&path, 0).unwrap();
        let inputs = vec!["cfg=00".to_string()];
        assert_eq!(w.append("provider:ontology", "par", "", 0.5, 1, &inputs), 1);
        assert_eq!(w.append("artifact:table2", "driver", "abcd", 0.25, 0, &[]), 2);
        assert_eq!(w.appended(), 2);
        let replay = load(&path);
        assert!(replay.warning.is_none());
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].seq, 1);
        assert_eq!(replay.records[0].inputs, inputs);
        assert_eq!(replay.records[1].digest, "abcd");
        // A resumed writer continues the sequence.
        let w2 = Writer::open(&path, replay.records.len() as u64).unwrap();
        w2.append("artifact:fig3", "driver", "ef", 0.1, 0, &[]);
        let replay = load(&path);
        assert_eq!(replay.records[2].seq, 2);
        assert_eq!(replay.completed().len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_plan_parses_and_fires_as_panic() {
        assert_eq!(
            FaultPlan::parse("abort_after_job:7").unwrap(),
            FaultPlan { after_jobs: 7, action: FaultAction::Abort }
        );
        for bad in ["", "abort_after_job", "abort_after_job:0", "abort_after_job:x", "zap:3"] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
        let plan = FaultPlan::parse("panic_after_job:2").unwrap();
        plan.check(1); // below the boundary: no fire
        let err = std::panic::catch_unwind(|| plan.check(2)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault"), "{msg}");
    }

    #[test]
    fn manifests_round_trip_and_fold() {
        let m = RunManifest {
            run_id: "deadbeef-100".to_string(),
            config_digest: "deadbeef".to_string(),
            seed: 42,
            scale: 0.03,
            threads: 4,
            fast: true,
            ids: vec!["table2".to_string(), "fig3".to_string()],
            started_unix_ms: 100,
            updated_unix_ms: 100,
            outcome: "running".to_string(),
            jobs_run: 0,
            jobs_replayed: 0,
            resume: false,
            wall_s: 0.0,
            artifacts: Vec::new(),
        };
        let line = encode_line(&m.to_json());
        let back = RunManifest::from_json(&decode_line(&line).unwrap()).unwrap();
        assert_eq!(back, m);

        let dir = std::env::temp_dir().join(format!("kcb-runs-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        index_append(&dir, &m);
        let mut done = m.clone();
        done.outcome = "complete".to_string();
        done.jobs_run = 9;
        done.artifacts = vec![("table2".to_string(), "aa".to_string())];
        index_append(&dir, &done);
        let mut other = m.clone();
        other.run_id = "deadbeef-200".to_string();
        other.started_unix_ms = 200;
        index_append(&dir, &other);

        let folded = index_fold(index_load(&dir));
        assert_eq!(folded.len(), 2);
        // Newest run first; the older one folded to its terminal record.
        assert_eq!(folded[0].run_id, "deadbeef-200");
        assert_eq!(folded[1].outcome, "complete");
        assert_eq!(folded[1].jobs_run, 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_diff_names_differing_fields() {
        let mk = |seed: u64, fnv: &str| RunManifest {
            run_id: format!("r{seed}"),
            config_digest: "d".to_string(),
            seed,
            scale: 0.03,
            threads: 1,
            fast: false,
            ids: vec!["table2".to_string()],
            started_unix_ms: 0,
            updated_unix_ms: 0,
            outcome: "complete".to_string(),
            jobs_run: 3,
            jobs_replayed: 0,
            resume: false,
            wall_s: 1.0,
            artifacts: vec![("table2".to_string(), fnv.to_string())],
        };
        assert!(diff_manifests(&mk(1, "aa"), &mk(1, "aa")).is_empty());
        let d = diff_manifests(&mk(1, "aa"), &mk(2, "bb"));
        let fields: Vec<&str> = d.iter().map(|(f, _, _)| f.as_str()).collect();
        assert!(fields.contains(&"seed"), "{fields:?}");
        assert!(fields.contains(&"artifact:table2"), "{fields:?}");
        assert!(!fields.contains(&"scale"), "{fields:?}");
    }
}
