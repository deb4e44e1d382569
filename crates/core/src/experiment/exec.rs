//! The one journaled executor behind `repro <ids>` and `repro sweep`.
//!
//! Both paths lower their request to the same shape: one or more labs,
//! each with a label prefix and a [`ProviderNeed`], and one [`Target`]
//! per artifact or sweep variant. [`execute`] alone owns what follows —
//! journal open and replay, replay-or-assemble for every target, the
//! completion hook that appends one fsync'd record per executed job, the
//! scheduler run, and the [`PlanReport`] summed over labs.
//! [`super::plan::run_scheduled_with`] is the one-lab lowering (artifact
//! ids through `Cells::deps_for`); [`super::sweep::run_sweep`] groups
//! variants into labs and lowers each variant to its cells.

use super::plan::{
    providers, Cells, JournalSpec, JournalStats, PlanReport, Provenance, ProviderNeed,
};
use crate::ckpt::CkptStore;
use crate::compose::EncodingCache;
use crate::journal;
use crate::lab::Lab;
use crate::report::Artifact;
use crate::sched::{Graph, JobDone, JobId};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::rc::Rc;
use std::sync::Mutex;

/// One lab of a graph.
pub(crate) struct LabPlan<'a> {
    /// The lab its providers, cells and assemblies run against.
    pub lab: &'a Lab,
    /// Label namespace (empty for single runs, `<digest8>/` per sweep lab).
    pub prefix: String,
    /// The providers its targets reach.
    pub need: ProviderNeed,
}

/// Schedules a target's cells through the shared builder and returns
/// its assembly's dependencies.
pub(crate) type DepsFn = Box<dyn FnOnce(&mut Cells<'_, '_>) -> Vec<JobId>>;

/// Assembles a target's artifact from its warmed lab, on the driver thread.
pub(crate) type AssembleFn = Box<dyn FnOnce(&Lab) -> Option<Artifact>>;

/// One graph target: an artifact id or a sweep variant, journaled as
/// `artifact:<id>`.
pub(crate) struct Target {
    /// The artifact id: label suffix and replay payload name.
    pub id: String,
    /// Index of the owning lab.
    pub lab: usize,
    /// Its cells and dependencies.
    pub deps: DepsFn,
    /// Its assembly.
    pub assemble: AssembleFn,
}

/// What [`execute`] produced.
pub(crate) struct Executed {
    /// `(id, artifact)` in target order; targets that assembled nothing
    /// are left out.
    pub artifacts: Vec<(String, Artifact)>,
    /// Labels satisfied from the journal instead of executed.
    pub replayed: HashSet<String>,
    /// Scheduler, caches and journal, summed over labs.
    pub report: PlanReport,
}

/// Builds one graph over `labs` (providers first, lab by lab, then each
/// target's cells and assembly in target order) and runs it with
/// `workers` threads. With a journal attached, completed jobs from an
/// earlier run are marked satisfied at graph-build time — cells become
/// no-ops, artifacts replay byte-for-byte from persisted payloads — and
/// every job this run completes is appended to the journal, fsynced
/// before its dependents can observe its result, so the next
/// interruption loses at most the job in flight.
pub(crate) fn execute(
    labs: &[LabPlan<'_>],
    targets: Vec<Target>,
    workers: usize,
    spec: Option<&JournalSpec>,
) -> Executed {
    let (mut jstats, writer, replay) = open_journal(spec);
    let completed = replay.completed();
    jstats.resume = !replay.records.is_empty()
        && targets.iter().any(|t| !completed.contains(&format!("artifact:{}", t.id)));

    // Digests of artifacts assembled *this* run, filled by the assembly
    // closures (driver thread) and read by the completion hook right
    // after — so the journal records each artifact's payload checksum.
    let digests: Mutex<HashMap<String, String>> = Mutex::default();
    let mut replayed: HashSet<String> = HashSet::new();

    let mut g = Graph::new();
    let mut provenance = Provenance::default();
    let provs: Vec<_> = labs
        .iter()
        .map(|l| providers(&mut g, l.lab, &l.prefix, &l.need, &mut provenance))
        .collect();
    let cfg_digests: Vec<String> = labs.iter().map(|l| l.lab.shared().config_digest()).collect();
    let mut keyed: Vec<HashMap<String, JobId>> = vec![HashMap::new(); labs.len()];

    let mut slots = Vec::with_capacity(targets.len());
    for t in targets {
        let label = format!("artifact:{}", t.id);
        let slot: Rc<RefCell<Option<Artifact>>> = Rc::default();
        let out = Rc::clone(&slot);
        slots.push((t.id.clone(), slot));

        // Journal replay: an artifact whose assembly already committed is
        // re-emitted from its persisted payload, verified against the
        // journaled digest. Verification failure (deleted / corrupted
        // payload) falls back to ordinary reassembly.
        let replayed_artifact = spec.filter(|_| completed.contains(&label)).and_then(|s| {
            replay.digest_of(&label).and_then(|want| load_artifact(&s.dir, &t.id, want))
        });
        if let Some(a) = replayed_artifact {
            replayed.insert(label.clone());
            let mut a = Some(a);
            g.add_driver(label, &[], move || {
                *out.borrow_mut() = a.take();
            });
            continue;
        }

        let l = &labs[t.lab];
        let mut deps = (t.deps)(&mut Cells {
            g: &mut g,
            keyed: &mut keyed[t.lab],
            lab: l.lab,
            shared: l.lab.shared(),
            prov: &provs[t.lab],
            completed: &completed,
            replayed: &mut replayed,
            prefix: &l.prefix,
            provenance: &mut provenance,
            cfg_digest: &cfg_digests[t.lab],
        });
        deps.sort_unstable();
        deps.dedup();
        let dep_labels: Vec<String> = deps.iter().map(|&d| g.label_of(d).to_string()).collect();
        provenance.job(&label, &cfg_digests[t.lab], &dep_labels);
        let (lab, id, assemble, digests) = (l.lab, t.id, t.assemble, &digests);
        g.add_driver(label.clone(), &deps, move || {
            let art = assemble(lab);
            if let Some(s) = spec {
                if let Some(a) = &art {
                    match persist_artifact(&s.dir, &id, a) {
                        Ok(fnv) => {
                            digests.lock().expect("digest table").insert(label, fnv);
                        }
                        Err(e) => eprintln!("warning: artifact payload persist failed: {e}"),
                    }
                }
                // Save the results computed since the last assembly, so a
                // resumed run reads back what its no-op cells computed.
                lab.save_checkpoints();
            }
            *out.borrow_mut() = art;
        });
    }

    // The completion hook: journal every job executed this run (replayed
    // no-ops are already in the journal) together with its input
    // provenance, unless the journal already holds that exact record — a
    // provider re-run over a finished journal — then give the injected
    // fault a chance to kill the process at this exact boundary.
    let provenance = provenance; // frozen: the hook only reads it
    let hook = |d: &JobDone<'_>| {
        let Some(w) = &writer else { return };
        if replayed.contains(d.label) {
            return;
        }
        let digest =
            digests.lock().expect("digest table").get(d.label).cloned().unwrap_or_default();
        let inputs = provenance.inputs_of(d.label);
        if replay.holds(d.label, &digest, inputs) {
            return;
        }
        let n = w.append(d.label, d.kind, &digest, d.seconds, d.worker, inputs);
        if let Some(f) = spec.and_then(|s| s.fault) {
            f.check(n);
        }
    };

    let run_span = kcb_obs::span("sched", "graph:run")
        .arg("jobs", g.len())
        .arg("targets", slots.len())
        .arg("workers", workers);
    let scheduler = g.run_hooked(workers, writer.is_some().then_some(&hook as _));
    run_span.end();
    jstats.appended = writer.as_ref().map(journal::Writer::appended).unwrap_or(0);
    jstats.replayed = replayed.len() as u64;

    let artifacts: Vec<(String, Artifact)> =
        slots.into_iter().filter_map(|(id, slot)| slot.take().map(|a| (id, a))).collect();
    let encodings =
        |f: fn(&EncodingCache) -> usize| labs.iter().map(|l| f(l.lab.encodings())).sum::<usize>();
    let report = PlanReport {
        scheduler,
        cache: labs.iter().map(|l| l.lab.cache_stats()).sum(),
        encoding_hits: encodings(|e| e.hit_miss().0),
        encoding_misses: encodings(|e| e.hit_miss().1),
        encoding_entries: encodings(EncodingCache::len),
        encoding_contended: encodings(EncodingCache::contended),
        // Every lab shares one store, so the first lab's events are all.
        checkpoints: labs
            .first()
            .and_then(|l| l.lab.checkpoint_store())
            .map(CkptStore::events)
            .unwrap_or_default(),
        journal: jstats,
    };
    record_counters(&report);
    Executed { artifacts, replayed, report }
}

/// Opens the run journal named by `spec` and loads its replay state:
/// `(stats, writer, replay)`. A `None` spec (journaling off) and an
/// unopenable journal file both degrade to a disabled writer.
fn open_journal(
    spec: Option<&JournalSpec>,
) -> (JournalStats, Option<journal::Writer>, journal::Replay) {
    let mut jstats = JournalStats::default();
    let Some(spec) = spec else { return (jstats, None, journal::Replay::default()) };
    jstats.enabled = true;
    let path = journal::journal_path(&spec.dir);
    let replay = journal::load(&path);
    if let Some(w) = &replay.warning {
        eprintln!("warning: {w}");
        jstats.warnings += 1;
    }
    let writer = match journal::Writer::open(&path, replay.records.len() as u64) {
        Ok(w) => Some(w),
        Err(e) => {
            eprintln!("warning: cannot open journal {} ({e}); journaling off", path.display());
            jstats.enabled = false;
            None
        }
    };
    (jstats, writer, replay)
}

/// Persists one assembled artifact's replay payload under the run
/// directory (tmp + rename, so a crash mid-write can never leave a
/// payload that passes the digest check) and returns its FNV-64.
fn persist_artifact(dir: &Path, id: &str, a: &Artifact) -> std::io::Result<String> {
    let path = journal::artifact_path(dir, id);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let body = a.to_replay_json().render_json(None);
    let fnv = kcb_util::fnv1a_hex(body.as_bytes());
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &body)?;
    std::fs::rename(&tmp, &path)?;
    Ok(fnv)
}

/// Loads a persisted artifact payload when its bytes still match the
/// journaled digest `want`; otherwise `None` (caller reassembles).
fn load_artifact(dir: &Path, id: &str, want: &str) -> Option<Artifact> {
    let path = journal::artifact_path(dir, id);
    let text = std::fs::read_to_string(&path).ok()?;
    if kcb_util::fnv1a_hex(text.as_bytes()) != want {
        eprintln!(
            "warning: journal replay: {} no longer matches its journaled digest; reassembling",
            path.display()
        );
        return None;
    }
    Artifact::from_replay_json(&kcb_util::json::parse_value(&text).ok()?)
}

/// Publishes the run's cache counters to the telemetry recorder so they
/// land in the exported trace / run metadata alongside the span timeline.
fn record_counters(r: &PlanReport) {
    if !kcb_obs::enabled() {
        return;
    }
    for (name, v) in [
        ("encoding.hits", r.encoding_hits),
        ("encoding.misses", r.encoding_misses),
        ("encoding.entries", r.encoding_entries),
        ("encoding.contended", r.encoding_contended),
        ("memo.hits", r.cache.memo_hits),
        ("memo.misses", r.cache.memo_misses),
        ("forest_cache.hits", r.cache.forest_hits),
        ("forest_cache.misses", r.cache.forest_misses),
        ("provider.skips", r.cache.provider_skips),
    ] {
        kcb_obs::counter(name, v as u64);
    }
    if r.journal.enabled {
        kcb_obs::counter("journal.replayed", r.journal.replayed);
    }
}
