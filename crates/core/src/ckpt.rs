//! Persistent content-addressed checkpoint store.
//!
//! Training the lab's providers (embedding tables, the WordPiece
//! vocabulary, the two mini language models) and the derived experiment
//! results (forest runs, memoised cell scores) dominates a `repro` run's
//! wall clock, yet every one of them is a pure function of [`LabConfig`].
//! This module caches them on disk between runs, addressed by content key:
//!
//! * **Key derivation** — each artifact's key is the FNV-64 digest of its
//!   full determinant string: the provider's schema-version constant, the
//!   `Debug` rendering of every config that feeds its training, and the
//!   fingerprints of its input corpora (themselves config-derived). Change
//!   any input — seed, scale, trainer hyperparameter, corpus size — and the
//!   key changes, so a stale checkpoint is simply never *addressed*. Bump
//!   the provider's `SCHEMA_*` constant when the trainer's byte output or
//!   the on-disk format changes.
//! * **On-disk layout** — one file per artifact under the cache directory,
//!   named `<provider>-<key16>.ckpt`, in the one container layout described
//!   at [`CONTAINER_VERSION`]: a header naming the provider and key, a
//!   checksummed metadata blob, and an aligned raw section of packed `f32`s
//!   with one checksum per 4096-byte stripe. A byte-only artifact (the
//!   WordPiece vocabulary, the fastText model, every derived result) is its
//!   metadata plus an empty raw section. Writes go through a temp file
//!   unique to the writing process and call, then a rename, so a crashed
//!   run never leaves a half-written checkpoint under the final name and
//!   two processes sharing a store never share a temp file.
//! * **Reads** — [`CkptStore::take`] memory-maps the file, so embedding
//!   tables and LM weights borrow the raw section in place, and reads the
//!   file into memory only where mapping fails (non-Unix targets, a failed
//!   `mmap`). Either way the decoded bits are the same.
//! * **Derived results** — every memoised score or row, forest run and
//!   LSTM run is its own `derived-<key16>.ckpt` entry, read on first use
//!   and written once, by the lab's result table.
//! * **Artifacts** — every assembled table, figure or sweep variant is an
//!   `artifact-<key16>.ckpt` entry holding its compact replay JSON, keyed
//!   like a derived result by the config fingerprint and a target key.
//!   The executor probes it when it builds a run's graph: a fresh entry is
//!   read in place of scheduling the target's cells and assembly, which is
//!   how a warm or resumed run skips work. Bump [`SCHEMA_DERIVED`] when a
//!   runner's output bytes change.
//! * **Fallback** — a missing, truncated, corrupt or foreign checkpoint is
//!   treated as a miss: one warning line on stderr, then the artifact
//!   retrains exactly as if the cache were empty. The store can slow a run
//!   down; it can never change results or make one fail.
//!
//! The contract `kcb-bench`'s `warm_cache` test drives through the built
//! `repro`: cache state (cold, warm, corrupt) is a wall-clock knob, never
//! a results knob — a warm run must produce byte-identical artifact JSON
//! to a cold one.

use kcb_util::bin::{Reader, Writer};
use kcb_util::mmap::{pack_f32s, Mmap, RawSection};
use kcb_util::{fnv1a, fnv1a_hex, Result};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Schema version of the W2V-Chem embedding checkpoint.
pub const SCHEMA_W2V: u32 = 1;
/// Schema version of the generic-GloVe embedding checkpoint.
pub const SCHEMA_GLOVE: u32 = 1;
/// Schema version of the GloVe-Chem (warm-started) embedding checkpoint.
pub const SCHEMA_GLOVE_CHEM: u32 = 1;
/// Schema version of the BioWordVec (fastText) checkpoint.
pub const SCHEMA_BIOWORDVEC: u32 = 2;
/// Schema version of the WordPiece vocabulary checkpoint.
pub const SCHEMA_WORDPIECE: u32 = 1;
/// Schema version of the mini-BERT weight checkpoint.
pub const SCHEMA_BERT: u32 = 1;
/// Schema version of the BioGPT-mini weight checkpoint.
pub const SCHEMA_BIOGPT: u32 = 1;
/// Schema version of the derived-result and artifact entries.
pub const SCHEMA_DERIVED: u32 = 3;

/// Minimum file age before [`CkptStore::gc`] may evict: anything younger
/// may still be mid-write (tmp+rename from a concurrent `repro` sharing
/// the store) or just-read by a process that is about to use it.
pub const GC_GRACE: std::time::Duration = std::time::Duration::from_secs(60);

const CONTAINER_MAGIC: &[u8; 4] = b"KCBC";
/// The container layout (little-endian):
///
/// ```text
/// magic "KCBC" | version u32 = 2 | raw_off u64 | raw_len u64
/// provider str | key str | meta fnv-64 | meta_len u64 | meta bytes
/// stripe count u32 | stripe fnv-64 × count      (one per 4096-byte stripe)
/// zero padding to raw_off (the next multiple of 64)
/// raw payload: packed little-endian f32 elements (possibly none)
/// ```
///
/// `raw_off`/`raw_len` sit at fixed offsets 8/16 so a mapped reader can
/// locate the payload before parsing anything variable-length. A reader
/// accepts exactly what [`CkptStore::put`] writes: the provider and key
/// echo, the metadata checksum, a `raw_off` right after the header with
/// all-zero padding, and a file that ends with the raw section. The
/// metadata checksum is verified eagerly (it is small); the payload is
/// verified lazily, stripe by stripe, on first access.
const CONTAINER_VERSION: u32 = 2;
/// Raw payloads start on a 64-byte boundary: enough for any f32 SIMD lane
/// width, and page-aligned mappings keep the property at runtime.
const RAW_ALIGN: usize = 64;

/// Derives an artifact's content key: FNV-64 over the schema version and
/// every determinant part, rendered as 16 hex chars (the file-name stem).
pub fn digest_key(schema: u32, parts: &[&str]) -> String {
    let mut joined = format!("v{schema}");
    for p in parts {
        joined.push('|');
        joined.push_str(p);
    }
    fnv1a_hex(joined.as_bytes())
}

/// One checkpoint lookup or write, reported through `run_meta.json`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CkptEvent {
    /// Provider name (`embed-w2v-chem`, `lm-bert`, `derived`, ...).
    pub provider: String,
    /// Content key (16 hex chars).
    pub key: String,
    /// True when the artifact was served from disk.
    pub hit: bool,
    /// File size in bytes (0 for a miss without a file).
    pub bytes: u64,
}

/// A persistent content-addressed checkpoint store rooted at one directory.
pub struct CkptStore {
    dir: PathBuf,
    cold: bool,
    hits: AtomicUsize,
    misses: AtomicUsize,
    events: Mutex<Vec<CkptEvent>>,
}

impl CkptStore {
    /// Opens (and lazily creates) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            cold: false,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Opens a store in *cold* mode: every lookup misses (forcing a fresh
    /// train) but results are still written, overwriting stale entries.
    pub fn cold(dir: impl Into<PathBuf>) -> Self {
        Self { cold: true, ..Self::open(dir) }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True when opened with [`CkptStore::cold`].
    pub fn is_cold(&self) -> bool {
        self.cold
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (usize, usize) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Every lookup so far, in order.
    pub fn events(&self) -> Vec<CkptEvent> {
        self.events.lock().clone()
    }

    fn file_path(&self, provider: &str, key: &str) -> PathBuf {
        self.dir.join(format!("{provider}-{key}.ckpt"))
    }

    /// Marks a checkpoint as just-used by bumping its mtime. Plain reads
    /// (and mmap reads in particular) never touch mtime on their own, so
    /// without this a hot serving table would look idle to [`CkptStore::gc`]
    /// and could be evicted out from under a long-lived daemon. Best-effort:
    /// a read-only store directory simply keeps the old timestamp.
    fn touch(path: &Path) {
        let _ = std::fs::File::options()
            .append(true)
            .open(path)
            .and_then(|f| f.set_modified(std::time::SystemTime::now()));
    }

    fn record(&self, provider: &str, key: &str, hit: bool, bytes: u64) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            kcb_obs::counter("ckpt.hits", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            kcb_obs::counter("ckpt.misses", 1);
        }
        self.events.lock().push(CkptEvent {
            provider: provider.to_string(),
            key: key.to_string(),
            hit,
            bytes,
        });
    }

    /// Tries to load `provider`'s artifact under `key`, handing `decode`
    /// the metadata and the raw section. The file is memory-mapped, so the
    /// raw section is borrowed in place; it is read into memory only where
    /// mapping fails. Returns `None` (recording a miss) when the file is
    /// absent, the store is cold, or the checkpoint is unusable for any
    /// reason — the latter with a single warning line.
    pub fn take<T>(
        &self,
        provider: &str,
        key: &str,
        decode: impl FnOnce(&[u8], &RawSection) -> Result<T>,
    ) -> Option<T> {
        if self.cold {
            self.record(provider, key, false, 0);
            return None;
        }
        let path = self.file_path(provider, key);
        let _span = kcb_obs::span("ckpt", "ckpt.read").arg("provider", provider);
        let map = Mmap::open(&path).ok().map(Arc::new);
        let owned = match &map {
            Some(_) => Vec::new(),
            None => match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(_) => {
                    self.record(provider, key, false, 0);
                    return None;
                }
            },
        };
        let bytes = map.as_deref().map_or(owned.as_slice(), Mmap::bytes);
        let len = bytes.len() as u64;
        match Self::parse(provider, key, bytes, map.as_ref())
            .and_then(|(meta, section)| decode(meta, &section))
        {
            Ok(v) => {
                Self::touch(&path);
                self.record(provider, key, true, len);
                Some(v)
            }
            Err(e) => {
                eprintln!(
                    "warning: checkpoint {} unusable ({e}); recomputing {provider}",
                    path.display()
                );
                self.record(provider, key, false, len);
                None
            }
        }
    }

    /// Parses a container, returning `(meta, section)`. The metadata
    /// checksum is verified here; stripe checksums verify lazily inside the
    /// returned [`RawSection`], which borrows `map` when given and
    /// otherwise owns a copy of the raw bytes.
    fn parse<'a>(
        provider: &str,
        key: &str,
        bytes: &'a [u8],
        map: Option<&Arc<Mmap>>,
    ) -> Result<(&'a [u8], RawSection)> {
        let bad = |msg: String| kcb_util::Error::parse("checkpoint", msg);
        let mut r = Reader::new(bytes, "checkpoint");
        r.magic(CONTAINER_MAGIC)?;
        r.version(CONTAINER_VERSION)?;
        let raw_off = r.u64()? as usize;
        let raw_len = r.u64()? as usize;
        let stored_provider = r.str()?;
        let stored_key = r.str()?;
        if stored_provider != provider || stored_key != key {
            return Err(bad(format!(
                "header names {stored_provider}/{stored_key}, expected {provider}/{key}"
            )));
        }
        let meta_sum = r.u64()?;
        let meta_len = r.u64()? as usize;
        let meta = r.bytes(meta_len)?;
        if fnv1a(meta) != meta_sum {
            return Err(bad("metadata checksum mismatch".into()));
        }
        let n_stripes = r.u32()? as usize;
        r.sized(n_stripes, 8)?;
        let stripe_sums = (0..n_stripes).map(|_| r.u64()).collect::<Result<Vec<_>>>()?;
        let header_end = bytes.len() - r.remaining();
        if raw_off != header_end.div_ceil(RAW_ALIGN) * RAW_ALIGN {
            return Err(bad(format!("raw offset {raw_off} does not follow the header")));
        }
        if raw_off.saturating_add(raw_len) != bytes.len() {
            return Err(bad(format!("raw section {raw_off}+{raw_len} != file size {}", bytes.len())));
        }
        if bytes[header_end..raw_off].iter().any(|&b| b != 0) {
            return Err(bad("non-zero padding before the raw section".into()));
        }
        let section = match map {
            Some(m) => RawSection::from_map(Arc::clone(m), raw_off, raw_len, stripe_sums)?,
            None => RawSection::from_owned(bytes[raw_off..].to_vec(), 0, raw_len, stripe_sums)?,
        };
        Ok((meta, section))
    }

    /// Persists `meta` plus the concatenated f32 `parts` (none for a
    /// byte-only artifact) as `provider`'s artifact under `key`, through a
    /// temp file and a rename. Write failures warn and are otherwise
    /// ignored — caching is never allowed to fail a run.
    pub fn put(&self, provider: &str, key: &str, meta: &[u8], parts: &[&[f32]]) {
        let (raw, stripe_sums) = pack_f32s(parts);
        let _span = kcb_obs::span("ckpt", "ckpt.write")
            .arg("provider", provider)
            .arg("bytes", raw.len() + meta.len());
        let mut w = Writer::new();
        w.raw(CONTAINER_MAGIC);
        w.u32(CONTAINER_VERSION);
        w.u64(0); // raw_off placeholder, patched below
        w.u64(raw.len() as u64);
        w.str(provider);
        w.str(key);
        w.u64(fnv1a(meta));
        w.u64(meta.len() as u64);
        w.raw(meta);
        w.u32(stripe_sums.len() as u32);
        for &s in &stripe_sums {
            w.u64(s);
        }
        let mut bytes = w.into_bytes();
        let raw_off = bytes.len().div_ceil(RAW_ALIGN) * RAW_ALIGN;
        bytes[8..16].copy_from_slice(&(raw_off as u64).to_le_bytes());
        bytes.resize(raw_off, 0);
        bytes.extend_from_slice(&raw);

        let path = self.file_path(provider, key);
        let tmp = self.tmp_path(provider, key);
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            std::fs::write(&tmp, &bytes)?;
            std::fs::rename(&tmp, &path)
        };
        if let Err(e) = write() {
            eprintln!("warning: could not write checkpoint {} ({e})", path.display());
            std::fs::remove_file(&tmp).ok();
        } else {
            kcb_obs::counter("ckpt.writes", 1);
        }
    }

    /// A temp path no other write shares: the pid tells processes sharing
    /// the store apart, the counter tells apart writes within one process.
    fn tmp_path(&self, provider: &str, key: &str) -> PathBuf {
        static WRITES: AtomicUsize = AtomicUsize::new(0);
        let n = WRITES.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!(".{provider}-{key}.{}-{n}.tmp", std::process::id()))
    }

    /// Cheap freshness probe: true when a plausible checkpoint file exists
    /// for `key` and the store is warm. No decode, no checksum, no event —
    /// providers use this to skip eager materialization, trusting the
    /// getter's full verify-or-retrain path to handle a file that turns out
    /// to be corrupt.
    pub fn is_fresh(&self, provider: &str, key: &str) -> bool {
        if self.cold {
            return false;
        }
        std::fs::metadata(self.file_path(provider, key))
            .map(|m| m.is_file() && m.len() > 24)
            .unwrap_or(false)
    }

    /// Evicts least-recently-used first until the store's total `.ckpt`
    /// size is at most `cap_bytes`. Returns a one-line report.
    ///
    /// Files younger than [`GC_GRACE`] are never evicted: another `repro`
    /// process sharing the store (e.g. the interrupted and resumed legs of
    /// a journaled run, or a concurrent CI matrix) may have just written
    /// them — and an mtime this recent also means "in active use", so
    /// deleting such a file could race its writer's rename or its reader's
    /// first open. They still count toward `kept_bytes`, so a store full of
    /// young files simply stays over cap until the next sweep.
    pub fn gc(&self, cap_bytes: u64) -> GcReport {
        self.gc_with_grace(cap_bytes, GC_GRACE)
    }

    /// [`CkptStore::gc`] with an explicit grace window (tests use zero).
    ///
    /// "Recently used" is the file mtime, which every successful
    /// [`CkptStore::take`] refreshes — so entries a long-lived process
    /// keeps reading (including zero-copy mmap reads, which the filesystem
    /// would otherwise never reflect in mtime) stay resident, and only
    /// genuinely idle checkpoints are evicted.
    pub fn gc_with_grace(&self, cap_bytes: u64, grace: std::time::Duration) -> GcReport {
        let now = std::time::SystemTime::now();
        let mut entries: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
        if let Ok(dir) = std::fs::read_dir(&self.dir) {
            for e in dir.flatten() {
                let path = e.path();
                if path.extension().map(|x| x == "ckpt") != Some(true) {
                    continue;
                }
                if let Ok(m) = e.metadata() {
                    let mtime = m.modified().unwrap_or(std::time::UNIX_EPOCH);
                    entries.push((path, m.len(), mtime));
                }
            }
        }
        let scanned = entries.len();
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        entries.sort_by_key(|(_, _, mtime)| *mtime);
        let mut evicted = 0usize;
        let mut freed = 0u64;
        for (path, len, mtime) in &entries {
            if total <= cap_bytes {
                break;
            }
            // Grace window: too young to be sure nobody is mid-write or
            // mid-read; a concurrent writer's tmp+rename refreshes mtime.
            if now.duration_since(*mtime).map(|age| age < grace).unwrap_or(true) {
                continue;
            }
            if std::fs::remove_file(path).is_ok() {
                total -= len;
                freed += len;
                evicted += 1;
            }
        }
        GcReport { scanned, evicted, freed_bytes: freed, kept_bytes: total, cap_bytes }
    }
}

/// Result of a [`CkptStore::gc`] sweep.
#[derive(Debug, Clone)]
pub struct GcReport {
    /// `.ckpt` files found in the store.
    pub scanned: usize,
    /// Files deleted this sweep.
    pub evicted: usize,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Bytes remaining after the sweep.
    pub kept_bytes: u64,
    /// The cap that drove eviction.
    pub cap_bytes: u64,
}

impl std::fmt::Display for GcReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ckpt gc: {} of {} files evicted ({} freed, {} kept, cap {})",
            self.evicted,
            self.scanned,
            kcb_util::fmt::bytes(self.freed_bytes),
            kcb_util::fmt::bytes(self.kept_bytes),
            kcb_util::fmt::bytes(self.cap_bytes),
        )
    }
}

/// Load-or-train against an optional store: [`CkptStore::take`], falling
/// back to `make` + [`CkptStore::put`] of what `encode` splits the artifact
/// into (metadata plus the f32 parts of its raw section). With no store
/// attached the artifact is simply built (the `Lab::new` path used by unit
/// tests).
pub(crate) fn cached<T>(
    store: Option<&CkptStore>,
    provider: &str,
    key: &str,
    decode: impl FnOnce(&[u8], &RawSection) -> Result<T>,
    encode: impl for<'t> FnOnce(&'t T) -> (Vec<u8>, Vec<&'t [f32]>),
    make: impl FnOnce() -> T,
) -> T {
    let Some(store) = store else { return make() };
    if let Some(v) = store.take(provider, key, decode) {
        return v;
    }
    let v = make();
    let (meta, parts) = encode(&v);
    store.put(provider, key, &meta, &parts);
    v
}

/// Config-derived fingerprint of the domain corpus (and, transitively, the
/// ontology it is generated from).
pub(crate) fn domain_fp(cfg: &crate::lab::LabConfig) -> String {
    format!("domain(n={},seed={},scale={})", cfg.n_domain_docs, cfg.seed, cfg.scale)
}

/// Config-derived fingerprint of the generic corpus.
pub(crate) fn generic_fp(cfg: &crate::lab::LabConfig) -> String {
    format!("generic(n={},seed={})", cfg.n_generic_docs, cfg.seed ^ 0x9e37)
}

// ---------------------------------------------------------------------------
// Derived results: one entry per memoised score or row, forest run or LSTM
// run, keyed by the config fingerprint, the result kind and the memo key.
// ---------------------------------------------------------------------------

/// One derived result, as the lab's result table holds it and as its
/// `derived-<key16>.ckpt` entry stores it.
#[derive(Clone)]
pub(crate) enum Derived {
    /// A memoised scalar score (`Shared::memo_score`).
    Score(f64),
    /// A memoised row vector (`Shared::memo_vec`).
    Row(Arc<Vec<f64>>),
    /// A forest run by `(task, model, adaptation)` key.
    Forest(Arc<crate::paradigm::ml::ForestRun>),
    /// An LSTM run by model name.
    Lstm(Arc<crate::paradigm::ml::LstmRun>),
}

/// The kind of a [`Derived`] result: part of its entry key, and the
/// codec its entry decodes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DerivedKind {
    Score,
    Row,
    Forest,
    Lstm,
}

/// Content key of one derived entry: the schema, the config fingerprint
/// (thread knobs normalised out), the result kind and the memo key.
pub(crate) fn derived_key(config_fp: &str, kind: DerivedKind, key: &str) -> String {
    digest_key(SCHEMA_DERIVED, &[config_fp, &format!("{kind:?}"), key])
}

/// Content key of one artifact entry: the schema, the config fingerprint
/// and the target key (a lower-cased artifact id, or every field of a
/// sweep variant).
pub(crate) fn artifact_key(config_fp: &str, target: &str) -> String {
    digest_key(SCHEMA_DERIVED, &[config_fp, "Artifact", target])
}

impl Derived {
    /// The entry payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Self::Score(v) => w.f64(*v),
            Self::Row(v) => w.f64s(v),
            Self::Forest(run) => encode_forest_run(run, &mut w),
            Self::Lstm(run) => {
                w.str(&run.model_name);
                encode_metrics(&run.metrics, &mut w);
            }
        }
        w.into_bytes()
    }

    /// Decodes a `kind` entry payload. Strict: whatever decodes re-encodes
    /// to the same bytes, and a decoded forest predicts without panicking.
    pub fn from_bytes(kind: DerivedKind, bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes, "derived entry");
        let v = match kind {
            DerivedKind::Score => Self::Score(r.f64()?),
            DerivedKind::Row => Self::Row(Arc::new(r.f64s()?)),
            DerivedKind::Forest => Self::Forest(Arc::new(decode_forest_run(&mut r)?)),
            DerivedKind::Lstm => Self::Lstm(Arc::new(crate::paradigm::ml::LstmRun {
                model_name: r.str()?,
                metrics: decode_metrics(&mut r)?,
            })),
        };
        r.finish()?;
        Ok(v)
    }
}

fn encode_metrics(m: &kcb_ml::metrics::BinaryMetrics, w: &mut Writer) {
    w.f64(m.accuracy);
    w.f64(m.precision);
    w.f64(m.recall);
    w.f64(m.f1);
}

fn decode_metrics(r: &mut Reader<'_>) -> Result<kcb_ml::metrics::BinaryMetrics> {
    Ok(kcb_ml::metrics::BinaryMetrics {
        accuracy: r.f64()?,
        precision: r.f64()?,
        recall: r.f64()?,
        f1: r.f64()?,
    })
}

fn encode_forest_run(run: &crate::paradigm::ml::ForestRun, w: &mut Writer) {
    w.str(&run.encoder_name);
    encode_metrics(&run.metrics, w);
    run.forest.encode(w);
    w.f32s(&run.test_probs);
    w.u32(run.test_labels.len() as u32);
    for &b in &run.test_labels {
        w.u8(b as u8);
    }
    w.u32(run.test_relations.len() as u32);
    for &rel in &run.test_relations {
        w.u8(rel.code());
    }
    w.f64s(&run.importances);
}

fn decode_forest_run(r: &mut Reader<'_>) -> Result<crate::paradigm::ml::ForestRun> {
    let err = |m: &str| kcb_util::Error::parse("derived entry", m.to_string());
    let encoder_name = r.str()?;
    let metrics = decode_metrics(r)?;
    let forest = kcb_ml::RandomForest::decode(r)?;
    let test_probs = r.f32s()?;
    let n = r.u32()? as usize;
    r.sized(n, 1)?;
    let test_labels = (0..n)
        .map(|_| match r.u8()? {
            b @ (0 | 1) => Ok(b == 1),
            _ => Err(err("label byte is neither 0 nor 1")),
        })
        .collect::<Result<Vec<_>>>()?;
    let n = r.u32()? as usize;
    r.sized(n, 1)?;
    let test_relations = (0..n)
        .map(|_| {
            let code = r.u8()?;
            if code as usize >= kcb_ontology::Relation::ALL.len() {
                return Err(err("relation code out of range"));
            }
            Ok(kcb_ontology::Relation::from_code(code))
        })
        .collect::<Result<Vec<_>>>()?;
    let importances = r.f64s()?;
    if test_probs.len() != test_labels.len() || test_labels.len() != test_relations.len() {
        return Err(err("test-set column lengths disagree"));
    }
    Ok(crate::paradigm::ml::ForestRun {
        encoder_name,
        metrics,
        forest,
        test_probs,
        test_labels,
        test_relations,
        importances,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_key_is_stable_and_sensitive() {
        let a = digest_key(1, &["cfg", "corpus"]);
        assert_eq!(a, digest_key(1, &["cfg", "corpus"]));
        assert_eq!(a.len(), 16);
        assert_ne!(a, digest_key(2, &["cfg", "corpus"]), "schema bump must change the key");
        assert_ne!(a, digest_key(1, &["cfg2", "corpus"]));
        assert_ne!(a, digest_key(1, &["cfg", "corpus2"]));
        // A derived entry's key separates config, result kind and memo key.
        let k = derived_key("cfg", DerivedKind::Score, "rf|1");
        assert_ne!(k, derived_key("cfg2", DerivedKind::Score, "rf|1"));
        assert_ne!(k, derived_key("cfg", DerivedKind::Row, "rf|1"));
        assert_ne!(k, derived_key("cfg", DerivedKind::Score, "rf|2"));
    }

    fn temp_store(name: &str) -> CkptStore {
        let dir = std::env::temp_dir().join(format!("kcb-ckpt-test-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        CkptStore::open(dir)
    }

    fn u64_bytes(v: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(v);
        w.into_bytes()
    }

    /// Writes `v` as a byte-only entry.
    fn put_u64(store: &CkptStore, provider: &str, key: &str, v: u64) {
        store.put(provider, key, &u64_bytes(v), &[]);
    }

    fn encode_u64(v: &u64) -> (Vec<u8>, Vec<&[f32]>) {
        (u64_bytes(*v), vec![])
    }

    fn decode_u64(meta: &[u8], _: &RawSection) -> Result<u64> {
        let mut r = Reader::new(meta, "test");
        let v = r.u64()?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn cached_round_trips_and_counts() {
        let store = temp_store("roundtrip");
        let mut made = 0;
        let v = cached(Some(&store), "unit", "k1", decode_u64, encode_u64, || {
            made += 1;
            99
        });
        assert_eq!((v, made), (99, 1));
        let v = cached(Some(&store), "unit", "k1", decode_u64, encode_u64, || {
            made += 1;
            0
        });
        assert_eq!((v, made), (99, 1), "second lookup must hit");
        assert_eq!(store.stats(), (1, 1));
        let events = store.events();
        assert_eq!(events.len(), 2);
        assert!(!events[0].hit && events[1].hit);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn cold_store_ignores_existing_but_still_writes() {
        let store = temp_store("cold");
        put_u64(&store, "unit", "k", 7);
        let cold = CkptStore::cold(store.dir().to_path_buf());
        let v = cached(Some(&cold), "unit", "k", decode_u64, encode_u64, || 8);
        assert_eq!(v, 8, "cold mode must retrain");
        // The rewritten entry is visible to a subsequent warm store.
        let warm = CkptStore::open(store.dir().to_path_buf());
        assert_eq!(warm.take("unit", "k", decode_u64), Some(8));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn truncated_checkpoint_falls_back_to_retraining() {
        let store = temp_store("trunc");
        put_u64(&store, "unit", "k", 1234);
        // Truncate the real file.
        let path = store.dir().join("unit-k.ckpt");
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(store.take("unit", "k", decode_u64), None);
        // A fresh write repairs the entry.
        put_u64(&store, "unit", "k", 5678);
        assert_eq!(store.take("unit", "k", decode_u64), Some(5678));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn version_flip_and_bit_flip_fall_back() {
        let store = temp_store("flip");
        put_u64(&store, "unit", "k", 42);
        let path = store.dir().join("unit-k.ckpt");
        let good = std::fs::read(&path).unwrap();

        // Container-version byte flipped.
        let mut bad = good.clone();
        bad[4] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(store.take("unit", "k", decode_u64), None);

        // Last byte flipped: of a byte-only entry that is padding before
        // the empty raw section, which must be all zero.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(store.take("unit", "k", decode_u64), None);
        let event = store.events().pop().unwrap();
        assert!(!event.hit);
        assert_eq!(event.bytes, good.len() as u64, "an unusable entry records the file's size");

        // Payload bit flipped — caught by the metadata checksum.
        let mut bad = good.clone();
        let payload = good.windows(8).position(|w| w == 42u64.to_le_bytes()).unwrap();
        bad[payload] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(store.take("unit", "k", decode_u64), None);

        // Pristine bytes restored — hit again.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(store.take("unit", "k", decode_u64), Some(42));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn wrong_provider_name_is_rejected() {
        let store = temp_store("name");
        put_u64(&store, "unit-a", "k", 1);
        // Copy the file under another provider's name: header mismatch.
        std::fs::copy(store.dir().join("unit-a-k.ckpt"), store.dir().join("unit-b-k.ckpt"))
            .unwrap();
        assert_eq!(store.take("unit-b", "k", decode_u64), None);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    fn raw_decode(meta: &[u8], raw: &RawSection) -> Result<(Vec<u8>, Vec<f32>)> {
        let n = raw.len() / 4;
        Ok((meta.to_vec(), raw.f32s(0, n)?.as_slice().to_vec()))
    }

    #[test]
    fn raw_container_round_trips_mapped_and_owned() {
        let store = temp_store("raw");
        let meta = b"shape:3x500".to_vec();
        let data: Vec<f32> = (0..1500).map(|i| (i as f32 * 0.11).cos()).collect();
        store.put("unit", "k", &meta, &[&data[..700], &data[700..]]);

        let mapped = store.take("unit", "k", |m, raw| {
            assert_eq!(raw.is_mapped(), cfg!(unix), "take maps the file where it can");
            raw_decode(m, raw)
        });
        let (m, d) = mapped.expect("mapped hit");
        assert_eq!(m, meta);
        assert_eq!(d.len(), data.len());
        assert!(d.iter().zip(&data).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(store.stats(), (1, 0));

        // The owned fallback: the same container read into memory.
        let bytes = std::fs::read(store.dir().join("unit-k.ckpt")).unwrap();
        let (m2, section) = CkptStore::parse("unit", "k", &bytes, None).expect("owned parse");
        assert!(!section.is_mapped());
        let (m2, d2) = raw_decode(m2, &section).expect("owned decode");
        assert_eq!(m2, meta);
        assert!(d2.iter().zip(&d).all(|(a, b)| a.to_bits() == b.to_bits()));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn raw_container_corruption_falls_back() {
        let store = temp_store("raw-corrupt");
        let data: Vec<f32> = (0..2000).map(|i| i as f32).collect();
        store.put("unit", "k", b"m", &[&data]);
        let path = store.dir().join("unit-k.ckpt");
        let good = std::fs::read(&path).unwrap();

        // Flip a payload bit: caught by the stripe checksum on access.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(store.take("unit", "k", raw_decode).is_none());

        // Flip a metadata byte: caught eagerly by the meta checksum.
        let mut bad = good.clone();
        bad[40] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(store.take("unit", "k", raw_decode).is_none());

        // Truncations never panic.
        for cut in [0usize, 7, 20, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(store.take("unit", "k", raw_decode).is_none(), "cut {cut}");
        }

        std::fs::write(&path, &good).unwrap();
        assert!(store.take("unit", "k", raw_decode).is_some());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn only_the_exact_written_container_is_accepted() {
        // A byte-only entry and one with a two-stripe raw section: every
        // truncation, every trailing byte and every single-bit flip is
        // rejected by a decoder that reads the whole raw section.
        let data: Vec<f32> = (0..1100).map(|i| (i as f32).sqrt()).collect();
        for parts in [vec![], vec![&data[..]]] {
            let store = temp_store("exact");
            store.put("unit", "k", b"meta", &parts);
            let good = std::fs::read(store.dir().join("unit-k.ckpt")).unwrap();
            let accepts = |bytes: &[u8]| {
                CkptStore::parse("unit", "k", bytes, None).and_then(|(m, s)| raw_decode(m, &s)).is_ok()
            };
            assert!(accepts(&good));
            for cut in 0..good.len() {
                assert!(!accepts(&good[..cut]), "cut {cut}");
            }
            let mut long = good.clone();
            long.push(0);
            assert!(!accepts(&long), "trailing byte");
            for i in 0..good.len() {
                for bit in 0..8 {
                    let mut flipped = good.clone();
                    flipped[i] ^= 1 << bit;
                    assert!(!accepts(&flipped), "flip of bit {bit} in byte {i}");
                }
            }
            std::fs::remove_dir_all(store.dir()).ok();
        }
    }

    #[test]
    fn freshness_probe_is_quiet_and_cold_aware() {
        let store = temp_store("fresh");
        assert!(!store.is_fresh("unit", "k"));
        put_u64(&store, "unit", "k", 1);
        assert!(store.is_fresh("unit", "k"));
        assert!(store.events().is_empty(), "probe must not record events");
        let cold = CkptStore::cold(store.dir().to_path_buf());
        assert!(!cold.is_fresh("unit", "k"));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn gc_evicts_oldest_first_until_under_cap() {
        let store = temp_store("gc");
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            put_u64(&store, "unit", name, i as u64);
            // Distinct mtimes, oldest = "a".
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + i as u64 * 100);
            let f = std::fs::File::options()
                .append(true)
                .open(store.dir().join(format!("unit-{name}.ckpt")))
                .unwrap();
            f.set_modified(t).unwrap();
        }
        let one = std::fs::metadata(store.dir().join("unit-a.ckpt")).unwrap().len();
        let report = store.gc(2 * one);
        assert_eq!((report.scanned, report.evicted), (3, 1));
        assert_eq!(report.freed_bytes, one);
        assert!(!store.dir().join("unit-a.ckpt").exists(), "oldest must go first");
        assert!(store.dir().join("unit-c.ckpt").exists());
        assert!(format!("{report}").contains("1 of 3 files evicted"));
        // A generous cap is a no-op.
        let report = store.gc(u64::MAX);
        assert_eq!(report.evicted, 0);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn gc_spares_files_younger_than_the_grace_window() {
        let store = temp_store("gc-grace");
        // "old" predates the grace window; "young" was written just now —
        // exactly what a concurrent writer's fresh checkpoint looks like.
        for name in ["old", "young"] {
            put_u64(&store, "unit", name, 7);
        }
        let old = store.dir().join("unit-old.ckpt");
        let t = std::time::SystemTime::now() - 10 * GC_GRACE;
        std::fs::File::options().append(true).open(&old).unwrap().set_modified(t).unwrap();
        // Cap 0 would evict everything; the young file must survive.
        let report = store.gc(0);
        assert_eq!((report.scanned, report.evicted), (2, 1));
        assert!(!old.exists(), "aged-out file is evicted");
        assert!(store.dir().join("unit-young.ckpt").exists(), "young file survives");
        assert!(report.kept_bytes > 0, "survivors still count toward kept bytes");
        // With the window forced to zero, age no longer protects it.
        let report = store.gc_with_grace(0, std::time::Duration::ZERO);
        assert_eq!(report.evicted, 1);
        assert!(!store.dir().join("unit-young.ckpt").exists());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn reads_refresh_eviction_order() {
        let store = temp_store("gc-touch");
        for (i, name) in ["hot", "idle"].iter().enumerate() {
            put_u64(&store, "unit", name, i as u64);
            // Both entries start equally ancient; "hot" is older.
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + i as u64 * 100);
            let f = std::fs::File::options()
                .append(true)
                .open(store.dir().join(format!("unit-{name}.ckpt")))
                .unwrap();
            f.set_modified(t).unwrap();
        }
        // A serving process keeps reading "hot": the hit bumps its
        // last-touch stamp past "idle".
        assert!(store.take("unit", "hot", decode_u64).is_some());
        let one = std::fs::metadata(store.dir().join("unit-hot.ckpt")).unwrap().len();
        let report = store.gc(one);
        assert_eq!(report.evicted, 1);
        assert!(store.dir().join("unit-hot.ckpt").exists(), "recently read entry must survive");
        assert!(!store.dir().join("unit-idle.ckpt").exists(), "idle entry is evicted");
        std::fs::remove_dir_all(store.dir()).ok();
    }

    /// One valid entry of each kind: a score, a row, a small fitted forest
    /// run and an LSTM run.
    fn sample_entries() -> Vec<(DerivedKind, Derived)> {
        use crate::paradigm::ml::{ForestRun, LstmRun};
        use kcb_ml::linalg::Matrix;
        use kcb_ml::metrics::BinaryMetrics;
        let x = Matrix::from_rows((0..30).map(|i| vec![i as f32, (i % 3) as f32]).collect::<Vec<_>>());
        let y: Vec<bool> = (0..30).map(|i| i % 2 == 0).collect();
        let forest = kcb_ml::RandomForest::fit(
            &x,
            &y,
            &kcb_ml::RandomForestConfig { n_trees: 3, n_threads: 1, ..Default::default() },
        );
        let run = ForestRun {
            encoder_name: "enc".into(),
            metrics: BinaryMetrics { accuracy: 0.5, precision: 0.25, recall: 0.75, f1: 0.375 },
            forest,
            test_probs: vec![0.1, 0.9],
            test_labels: vec![false, true],
            test_relations: vec![kcb_ontology::Relation::IsA, kcb_ontology::Relation::HasRole],
            importances: vec![0.5, 0.5],
        };
        let lstm = LstmRun {
            model_name: "random".into(),
            metrics: BinaryMetrics { accuracy: 1.0, precision: 1.0, recall: 0.0, f1: 0.0 },
        };
        vec![
            (DerivedKind::Score, Derived::Score(0.125)),
            (DerivedKind::Row, Derived::Row(Arc::new(vec![1.0, -2.5]))),
            (DerivedKind::Forest, Derived::Forest(Arc::new(run))),
            (DerivedKind::Lstm, Derived::Lstm(Arc::new(lstm))),
        ]
    }

    #[test]
    fn derived_entries_round_trip_per_kind() {
        for (kind, d) in sample_entries() {
            let bytes = d.to_bytes();
            let back = Derived::from_bytes(kind, &bytes).expect("decode");
            assert_eq!(back.to_bytes(), bytes, "{kind:?} must re-encode to its input");
            match (&d, &back) {
                (Derived::Score(a), Derived::Score(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (Derived::Row(a), Derived::Row(b)) => assert_eq!(a, b),
                (Derived::Forest(a), Derived::Forest(b)) => {
                    assert_eq!(b.encoder_name, "enc");
                    assert_eq!(b.metrics.f1, 0.375);
                    assert_eq!(b.test_probs, a.test_probs);
                    assert_eq!(b.test_relations, a.test_relations);
                    assert_eq!(
                        b.forest.predict_proba(&[3.0, 1.0]).to_bits(),
                        a.forest.predict_proba(&[3.0, 1.0]).to_bits()
                    );
                }
                (Derived::Lstm(a), Derived::Lstm(b)) => {
                    assert_eq!(b.model_name, a.model_name);
                    assert_eq!(b.metrics.accuracy, a.metrics.accuracy);
                }
                _ => panic!("{kind:?} decoded into another kind"),
            }
            // Truncations and trailing bytes error cleanly.
            for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
                assert!(Derived::from_bytes(kind, &bytes[..cut]).is_err(), "{kind:?} cut {cut}");
            }
            let mut long = bytes.clone();
            long.push(0);
            assert!(Derived::from_bytes(kind, &long).is_err(), "{kind:?} trailing byte");
        }
    }

    /// Decoding `bytes` as a `kind` entry must not panic; when it succeeds
    /// the entry must re-encode to `bytes`, and a forest must predict on a
    /// zero row of its own width.
    fn decodes_strictly(kind: DerivedKind, bytes: &[u8]) -> std::result::Result<(), proptest::TestCaseError> {
        if let Ok(d) = Derived::from_bytes(kind, bytes) {
            proptest::prop_assert_eq!(d.to_bytes(), bytes.to_vec(), "{:?} is not canonical", kind);
            if let Derived::Forest(run) = &d {
                // Any leaf value is possible; the walk must simply return.
                std::hint::black_box(run.forest.predict_proba(&vec![0.0; run.forest.n_features()]));
            }
        }
        Ok(())
    }

    #[test]
    fn every_cut_and_bit_flip_of_a_derived_entry_decodes_strictly() {
        for (kind, d) in sample_entries() {
            let bytes = d.to_bytes();
            for cut in 0..bytes.len() {
                decodes_strictly(kind, &bytes[..cut]).unwrap();
            }
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[i] ^= 1 << bit;
                    decodes_strictly(kind, &flipped).unwrap();
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn derived_entries_decode_strictly(
            kind_ix in 0usize..4,
            noise in proptest::prop::collection::vec(proptest::any::<u8>(), 0..300),
            frac in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let entries = sample_entries();
            let (kind, valid) = (entries[kind_ix].0, entries[kind_ix].1.to_bytes());
            let at = ((frac * valid.len() as f64) as usize).min(valid.len() - 1);
            // Arbitrary bytes, on their own and after a valid prefix.
            decodes_strictly(kind, &noise)?;
            let mut spliced = valid[..at].to_vec();
            spliced.extend(&noise);
            decodes_strictly(kind, &spliced)?;
            // A truncation and a single-bit flip of a valid entry.
            decodes_strictly(kind, &valid[..at])?;
            let mut flipped = valid.clone();
            flipped[at] ^= 1 << bit;
            decodes_strictly(kind, &flipped)?;
        }
    }

    #[test]
    fn two_writes_of_one_key_use_distinct_temp_files() {
        let store = temp_store("tmpname");
        assert_ne!(store.tmp_path("unit", "k"), store.tmp_path("unit", "k"));
        for v in [1u64, 2] {
            put_u64(&store, "unit", "k", v);
        }
        store.put("unit", "r", b"m", &[&[1.0f32, 2.0]]);
        assert_eq!(store.take("unit", "k", decode_u64), Some(2));
        let names: Vec<String> = std::fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().all(|n| !n.ends_with(".tmp")), "temp file left behind: {names:?}");
        assert_eq!(names.len(), 2);
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
