//! The run journal's crash-safety contract, attacked from three sides:
//!
//! 1. a proptest round-trip of the self-verifying line codec (arbitrary
//!    labels, digests and timings survive encode → decode unchanged, and
//!    any single-bit flip is rejected), and of the `KCB_FAULT` spec;
//! 2. a crash matrix over a journal file — truncation at every byte
//!    offset, a bit flip in every tail position and a tail line nested far
//!    past the JSON reader's bound — asserting that replay always yields a
//!    clean *prefix* of the original records and warns (once) exactly when
//!    something was dropped;
//! 3. an end-to-end resume, for a scheduled run and for a sweep: killed
//!    mid-DAG by an injected panic fault and rerun over its journal and
//!    checkpoint store, it must produce byte-identical artifacts to an
//!    uninterrupted run — with at least one target read from the store
//!    rather than reassembled, and, for the scheduled run, derived results
//!    saved before the fault read back — and a rerun of the finished run
//!    must append nothing and look up no derived result.

use kcb_core::ckpt::{CkptEvent, CkptStore};
use kcb_core::experiment::plan::{run_scheduled_with, JournalSpec};
use kcb_core::experiment::sweep::{run_sweep, GridSpec, SweepSpec};
use kcb_core::journal::{
    self, decode_record, encode_record, FaultAction, FaultPlan, JobRecord,
};
use kcb_core::lab::{Lab, LabConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn record(seq: u64, label: &str) -> JobRecord {
    JobRecord {
        seq,
        label: label.to_string(),
        kind: "par".to_string(),
        digest: kcb_util::fnv1a_hex(label.as_bytes()),
        seconds: 0.125 * (seq + 1) as f64,
        worker: seq % 3,
        inputs: vec![format!("cfg={seq:x}"), format!("dep-{seq}=-")],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn line_codec_round_trips_arbitrary_records(
        seq in any::<u64>(),
        label in "[a-zA-Z0-9:_|./\\\\\" -]{0,48}",
        kind_driver in any::<bool>(),
        digest in "[0-9a-f]{0,16}",
        seconds in 0.0f64..1e6,
        worker in any::<u64>(),
        inputs in prop::collection::vec("[a-zA-Z0-9:_|./\\\\\" =-]{0,24}", 0..4),
    ) {
        let rec = JobRecord {
            seq,
            label,
            kind: if kind_driver { "driver" } else { "par" }.to_string(),
            digest,
            seconds,
            worker,
            inputs,
        };
        let line = encode_record(&rec);
        prop_assert!(!line.contains('\n'), "framing must stay single-line");
        let back = decode_record(&line).expect("undamaged line decodes");
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn any_single_bit_flip_is_rejected(
        seq in any::<u64>(),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let rec = record(seq, "cell:forest|w2v-chem|d4");
        let mut bytes = encode_record(&rec).into_bytes();
        let idx = ((byte_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[idx] ^= 1 << bit;
        // The flipped line either fails to parse or fails its checksum —
        // it must never decode into a *different* valid record.
        if let Ok(s) = String::from_utf8(bytes) {
            if let Ok(back) = decode_record(&s) {
                prop_assert_eq!(back, rec, "a decodable flip must be semantically inert");
            }
        }
    }

    #[test]
    fn fault_specs_parse_strictly(
        noise in "[a-z_:0-9+ -]{0,24}",
        panic in any::<bool>(),
        after_jobs in 1u64..u64::MAX,
    ) {
        let _ = FaultPlan::parse(&noise);
        let (kind, action) =
            if panic { ("panic", FaultAction::Panic) } else { ("abort", FaultAction::Abort) };
        let plan = FaultPlan::parse(&format!("{kind}_after_job:{after_jobs}"));
        prop_assert_eq!(plan, Ok(FaultPlan { after_jobs, action }));
    }
}

/// A journal of `n` records written through the real [`journal::Writer`],
/// returned as raw bytes alongside the records.
fn written_journal(name: &str, n: u64) -> (std::path::PathBuf, Vec<u8>, Vec<JobRecord>) {
    let dir = std::env::temp_dir()
        .join(format!("kcb-journal-matrix-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = journal::journal_path(&dir);
    let w = journal::Writer::open(&path, 0).expect("open journal");
    let mut recs = Vec::new();
    for i in 0..n {
        let r = record(i, &format!("cell:rf|job{i}"));
        w.append(&r.label, &r.kind, &r.digest, r.seconds, r.worker as usize, &r.inputs);
        recs.push(r);
    }
    let bytes = std::fs::read(&path).expect("journal bytes");
    (path, bytes, recs)
}

/// Replay of damaged bytes must yield a clean prefix of the written
/// labels (never reordered, never invented) and warn iff data was lost.
fn assert_prefix(path: &std::path::Path, damaged: &[u8], originals: &[JobRecord], ctx: &str) {
    std::fs::write(path, damaged).expect("write damaged journal");
    let replay = journal::load(path);
    assert!(
        replay.records.len() <= originals.len(),
        "{ctx}: replay invented records ({} > {})",
        replay.records.len(),
        originals.len()
    );
    for (got, want) in replay.records.iter().zip(originals) {
        assert_eq!(got.label, want.label, "{ctx}: replay is not a prefix");
        assert_eq!(got.digest, want.digest, "{ctx}: digest changed in replay");
    }
    // Warning expectations depend on the damage type (a truncation at a
    // line boundary is a legitimate shorter journal), so the callers
    // assert those.
}

#[test]
fn truncation_at_every_offset_keeps_a_clean_prefix() {
    let (path, bytes, recs) = written_journal("trunc", 5);
    // Line boundaries: truncating exactly there is a shorter valid
    // journal (an fsync'd crash point), anywhere else is a torn line.
    let boundaries: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
        .collect();
    assert_eq!(boundaries.len(), 5, "writer frames one line per record");
    for cut in 0..bytes.len() {
        assert_prefix(&path, &bytes[..cut], &recs, &format!("truncate@{cut}"));
        let replay = journal::load(&path);
        let whole_lines = boundaries.iter().filter(|&&b| b <= cut).count();
        assert_eq!(
            replay.records.len(),
            whole_lines,
            "truncate@{cut}: every fsync'd line before the cut must survive"
        );
        if cut > 0 && !boundaries.contains(&cut) {
            assert!(replay.warning.is_some(), "truncate@{cut}: torn tail must warn");
        }
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn bit_flips_anywhere_in_the_tail_stop_replay_at_the_damage() {
    let (path, bytes, recs) = written_journal("flip", 4);
    let first_line_end = bytes.iter().position(|&b| b == b'\n').unwrap();
    // Flip one bit at every byte of the final two records; replay must
    // keep at most the records before the damaged line, and always at
    // least the untouched first line.
    let tail_start = bytes.len() / 2;
    for idx in tail_start..bytes.len() {
        for bit in [0u8, 3, 7] {
            let mut damaged = bytes.clone();
            damaged[idx] ^= 1 << bit;
            if damaged[idx] == b'\n' || bytes[idx] == b'\n' {
                continue; // splitting/merging lines is the truncation case
            }
            assert_prefix(&path, &damaged, &recs, &format!("flip@{idx}.{bit}"));
            let replay = journal::load(&path);
            assert!(
                !replay.records.is_empty() || first_line_end >= tail_start,
                "flip@{idx}.{bit}: damage in the tail must not kill the head"
            );
        }
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn a_deeply_nested_tail_line_warns_and_keeps_the_clean_prefix() {
    let (path, mut bytes, recs) = written_journal("nested", 3);
    bytes.extend(std::iter::repeat_n(b'[', 2_000_000));
    bytes.push(b'\n');
    assert_prefix(&path, &bytes, &recs, "nested tail");
    let replay = journal::load(&path);
    assert_eq!(replay.records.len(), recs.len(), "every record before the tail survives");
    let warning = replay.warning.expect("the damaged tail warns");
    assert!(warning.contains("1 damaged") && warning.contains("nesting"), "{warning}");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// Compact replay-JSON bytes of every artifact — what an artifact entry
/// holds — the strongest equality a resume promises across a crash.
fn artifact_bytes(arts: &[(String, kcb_core::report::Artifact)]) -> Vec<(String, String)> {
    arts.iter()
        .map(|(id, a)| (id.clone(), a.to_replay_json().render_json(None)))
        .collect()
}

#[test]
fn interrupted_run_resumes_to_byte_identical_artifacts() {
    // Figure A1 reads a subset of Table 3a's forests and adds no cells of
    // its own, so its assembly is the last job and runs right after
    // Table 3a's, which saves those forests to the store.
    const IDS: [&str; 3] = ["table2", "table3a", "figa1"];
    let root = std::env::temp_dir()
        .join(format!("kcb-journal-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let _g = kcb_util::pool::ThreadsGuard::new(1);

    // Reference: an uninterrupted journaled run.
    let lab = Lab::new(LabConfig::tiny());
    let cold_spec = JournalSpec { dir: root.join("cold"), fault: None };
    let (cold, cold_report) = run_scheduled_with(&lab, &IDS, 1, Some(&cold_spec));
    assert!(cold_report.journal.enabled && !cold_report.journal.resume);
    assert!(cold_report.journal.appended > 4, "reference run journals its jobs");

    // Crash leg: same config, fresh journal dir, killed one job short of
    // the finish line by the in-process fault action (the `panic` twin of
    // CI's `abort`) — after every cell and Table 3a's assembly committed,
    // before Figure A1's. It and the legs after it share one checkpoint
    // store, each through its own handle, as processes would.
    let after_jobs = cold_report.journal.appended - 1;
    let crash_spec = JournalSpec {
        dir: root.join("crash"),
        fault: Some(FaultPlan { after_jobs, action: FaultAction::Panic }),
    };
    let stored_lab =
        || Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(root.join("ckpt"))));
    let derived = |events: &[CkptEvent]| -> Vec<CkptEvent> {
        events.iter().filter(|e| e.provider == "derived").cloned().collect()
    };
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let lab = stored_lab();
        run_scheduled_with(&lab, &IDS, 1, Some(&crash_spec));
    }));
    assert!(crashed.is_err(), "the injected fault must actually fire");
    let journaled = journal::load(&journal::journal_path(&crash_spec.dir));
    assert_eq!(
        journaled.records.len() as u64,
        after_jobs,
        "exactly the pre-fault jobs were fsync'd"
    );
    assert!(journaled.warning.is_none(), "a clean crash leaves no torn line");

    // Resume: a fresh process image (new lab, cold in-memory caches) over
    // the same journal and store reads the artifacts assembled before the
    // fault and assembles the rest, reading back the derived results
    // those assemblies saved.
    let resume_spec = JournalSpec { dir: crash_spec.dir.clone(), fault: None };
    let lab = stored_lab();
    let (resumed, report) = run_scheduled_with(&lab, &IDS, 1, Some(&resume_spec));
    assert!(report.journal.resume, "resume must be detected");
    assert!(report.journal.replayed > 0, "stored artifacts must be read, not reassembled");
    assert_eq!(report.journal.warnings, 0);
    assert!(
        derived(&report.checkpoints).iter().any(|e| e.hit),
        "the resumed leg must hit derived entries written before the fault"
    );

    assert_eq!(
        artifact_bytes(&cold),
        artifact_bytes(&resumed),
        "resumed artifacts must be byte-identical to the uninterrupted run"
    );
    for ((id_c, a_c), (id_r, a_r)) in cold.iter().zip(&resumed) {
        assert_eq!(id_c, id_r);
        assert_eq!(a_c.render(), a_r.render(), "rendered text differs for {id_c}");
    }

    // A second resume over the now-complete journal reads every artifact
    // from the store, and neither re-appends what the journal already
    // holds nor calls itself a resume.
    let lab = stored_lab();
    let (warm, warm_report) = run_scheduled_with(&lab, &IDS, 1, Some(&resume_spec));
    assert_eq!(artifact_bytes(&cold), artifact_bytes(&warm));
    assert_eq!(
        derived(&warm_report.checkpoints).len(),
        0,
        "a fully replayed run looks up no derived result"
    );
    assert!(
        warm_report.journal.replayed >= IDS.len() as u64,
        "a finished run should read every artifact from the store"
    );
    assert_eq!(warm_report.journal.appended, 0, "a finished journal gains no records");
    assert!(!warm_report.journal.resume, "a finished journal is not resumed");

    // A new journal over the filled store records no artifact, since every
    // one is read; a rerun over it has nothing to resume either.
    let fresh_spec = JournalSpec { dir: root.join("fresh"), fault: None };
    for _ in 0..2 {
        let lab = stored_lab();
        let (again, report) = run_scheduled_with(&lab, &IDS, 1, Some(&fresh_spec));
        assert_eq!(artifact_bytes(&cold), artifact_bytes(&again));
        assert!(!report.journal.resume, "a journal that only saw store reads was resumed");
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn interrupted_sweep_resumes_to_byte_identical_artifacts() {
    const GRID: &str = "seeds=7;scenarios=0,1;paradigms=sup,icl;model=random;adapt=naive";
    let root = std::env::temp_dir()
        .join(format!("kcb-journal-sweep-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let _g = kcb_util::pool::ThreadsGuard::new(1);
    let base = LabConfig::tiny();
    let grid = GridSpec::parse(GRID).expect("valid grid");
    // Every `run_sweep` builds fresh labs and opens the store anew, so
    // each leg below starts from cold in-memory caches, like a new
    // process. The legs over one journal share that journal's store.
    let sweep = |dir: &str, fault: Option<FaultPlan>| {
        let journal = Some(JournalSpec { dir: root.join(dir), fault });
        let store = Some(Arc::new(CkptStore::open(root.join(format!("{dir}-ckpt")))));
        run_sweep(&base, &grid, &SweepSpec { workers: 1, journal, store })
    };

    let cold = sweep("cold", None);
    assert!(cold.report.journal.enabled && !cold.report.journal.resume);
    assert_eq!(cold.artifacts.len(), 4);

    // Crash leg: killed two jobs short of the end, so some variant
    // artifacts have committed and some have not.
    let after_jobs = cold.report.journal.appended - 2;
    let fault = FaultPlan { after_jobs, action: FaultAction::Panic };
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sweep("crash", Some(fault));
    }));
    assert!(crashed.is_err(), "the injected fault must actually fire");
    let journaled = journal::load(&journal::journal_path(&root.join("crash")));
    assert_eq!(journaled.records.len() as u64, after_jobs);

    let resumed = sweep("crash", None);
    assert!(resumed.report.journal.resume, "resume must be detected");
    assert!(resumed.report.journal.replayed > 0, "stored variants must be read, not reassembled");
    assert_eq!(
        artifact_bytes(&cold.artifacts),
        artifact_bytes(&resumed.artifacts),
        "resumed variant artifacts must be byte-identical to the uninterrupted sweep"
    );

    // Rerunning the finished sweep reads every variant from the store and
    // appends nothing.
    let warm = sweep("crash", None);
    assert_eq!(artifact_bytes(&cold.artifacts), artifact_bytes(&warm.artifacts));
    assert!(warm.variants.iter().all(|v| v.replayed));
    assert_eq!(warm.report.journal.appended, 0);
    assert!(!warm.report.journal.resume);

    let _ = std::fs::remove_dir_all(&root);
}
