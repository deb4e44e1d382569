//! The one journaled executor behind `repro <ids>` and `repro sweep`.
//!
//! Both paths lower their request to the same shape: one or more labs,
//! each with a label prefix and a [`ProviderNeed`], and one [`Target`]
//! per artifact or sweep variant. [`execute`] alone owns what follows —
//! journal open, read-or-assemble for every target against the
//! checkpoint store, the completion hook that appends one fsync'd record
//! per executed job, the scheduler run, and the [`PlanReport`] summed
//! over labs. [`super::plan::run_scheduled_with`] is the one-lab lowering
//! (artifact ids through `Cells::deps_for`); [`super::sweep::run_sweep`]
//! groups variants into labs and lowers each variant to its cells.

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
    /// The artifact id: the label suffix.
    pub id: String,
    /// What its artifact entry is keyed by within its lab's config: the
    /// lower-cased artifact id, or every field of a sweep variant.
    pub key: String,
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
    /// Labels of the targets read from the checkpoint store.
    pub replayed: HashSet<String>,
    /// Scheduler, caches and journal, summed over labs.
    pub report: PlanReport,
}

/// Builds one graph over `labs` (providers first, lab by lab, then each
/// target in target order) and runs it with `workers` threads. Each
/// target's artifact entry is probed at graph-build time: a fresh one
/// becomes a single dependency-free job that reads it, and any other
/// target schedules its cells and then an assembly that saves the
/// artifact and every result the lab computed. With a journal attached,
/// every job this run executes is appended to it, fsynced before its
/// dependents can observe its result, so the next interruption loses at
/// most the job in flight, and every assembly the journal records is
/// already in the store.
pub(crate) fn execute(
    labs: &[LabPlan<'_>],
    targets: Vec<Target>,
    workers: usize,
    spec: Option<&JournalSpec>,
) -> Executed {
    let (mut jstats, writer, replay) = open_journal(spec);
    let completed = replay.completed();

    // Filled by the target jobs (driver thread) and read by the completion
    // hook right after each: the payload digest of every artifact
    // assembled this run, and the labels read from the store instead.
    let digests: Mutex<HashMap<String, String>> = Mutex::default();
    let read: Mutex<HashSet<String>> = Mutex::default();

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
        slots.push((t.id, slot));
        let (l, key, assemble) = (&labs[t.lab], t.key, t.assemble);
        let lab = l.lab;

        // The store probe: a target whose entry is fresh is one
        // dependency-free job that reads it; any other schedules its cells
        // first. Either job assembles when there is nothing usable to read
        // (an unusable entry costs one warning; the runners compute
        // whatever no cell warmed, to the same bytes) and then saves.
        let fresh = lab.artifact_fresh(&key);
        // A run resumes when its journal holds records but neither the
        // journal nor the store holds a target it asks for.
        jstats.resume |= !fresh && !replay.records.is_empty() && !completed.contains(&label);
        let mut deps = if fresh {
            Vec::new()
        } else {
            (t.deps)(&mut Cells {
                g: &mut g,
                keyed: &mut keyed[t.lab],
                lab,
                shared: lab.shared(),
                prov: &provs[t.lab],
                prefix: &l.prefix,
                provenance: &mut provenance,
                cfg_digest: &cfg_digests[t.lab],
            })
        };
        deps.sort_unstable();
        deps.dedup();
        let dep_labels: Vec<String> = deps.iter().map(|&d| g.label_of(d).to_string()).collect();
        provenance.job(&label, &cfg_digests[t.lab], &dep_labels);
        let (digests, read) = (&digests, &read);
        g.add_driver(label.clone(), &deps, move || {
            if let Some(a) = fresh.then(|| lab.read_artifact(&key)).flatten() {
                read.lock().expect("read set").insert(label);
                *out.borrow_mut() = Some(a);
                return;
            }
            let art = assemble(lab);
            if let Some(a) = &art {
                let fnv = lab.save_artifact(&key, a);
                digests.lock().expect("digest table").insert(label, fnv);
            }
            // The results this assembly's cells computed, so a later run
            // that must assemble a target sharing them reads them back.
            lab.save_checkpoints();
            *out.borrow_mut() = art;
        });
    }

    // The completion hook: journal every job executed this run together
    // with its input provenance, unless it was a store read or the
    // journal already holds that exact record — a rerun over a finished
    // journal — then give the injected fault a chance to kill the process
    // at this exact boundary.
    let provenance = provenance; // frozen: the hook only reads it
    let hook = |d: &JobDone<'_>| {
        let Some(w) = &writer else { return };
        if read.lock().expect("read set").contains(d.label) {
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
    let replayed = read.into_inner().expect("read set");
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
