//! The scheduler's determinism contract: artifacts produced through the
//! cell DAG are byte-identical at any worker count — cell values are pure
//! functions of the lab seed, never of scheduling — and warm cells are
//! deduplicated so the assembly pass runs against hot caches.
//!
//! The 4-worker leg runs with `kcb_obs` recording enabled while the
//! 1-worker leg runs with it off, so the byte-for-byte comparison also
//! proves telemetry is strictly out-of-band: turning the recorder on
//! must never change artifact bytes.

use kcb_core::experiment::plan::run_scheduled;
use kcb_core::lab::{Lab, LabConfig};

/// Ids chosen to cover every job flavour: dataset statistics
/// (provider-only), the Task-1 forest grid (parallel + PubmedBERT driver
/// cells), the LSTM row (parallel cells), and the scenario sweep
/// (parallel forest cells, driver fine-tuning cells, GPT-4 reference).
const IDS: [&str; 4] = ["table2", "table3a", "tablea6", "fig3"];

#[test]
fn artifacts_are_byte_identical_across_worker_counts() {
    // Telemetry off: the baseline bytes. The sharded embedding trainers
    // read the same pool size as the kernels, so pin it per leg.
    let lab1 = Lab::new(LabConfig::tiny());
    let (seq, r1) = {
        let _g = kcb_util::pool::ThreadsGuard::new(1);
        run_scheduled(&lab1, &IDS, 1)
    };

    // Telemetry on for the parallel leg — recording must be invisible to
    // the artifact pipeline.
    kcb_obs::reset();
    kcb_obs::set_enabled(true);
    let lab4 = Lab::new(LabConfig::tiny());
    let (par, r4) = {
        let _g = kcb_util::pool::ThreadsGuard::new(4);
        run_scheduled(&lab4, &IDS, 4)
    };
    kcb_obs::set_enabled(false);
    let telemetry = kcb_obs::drain();

    // The trained embedding *stores* — not just the artifacts computed
    // from them — are byte-identical across thread counts: the sharded
    // trainers fix their shard structure independently of the pool size.
    for (name, t1, t4) in [
        ("w2v-chem", lab1.w2v_chem(), lab4.w2v_chem()),
        ("glove", lab1.glove(), lab4.glove()),
        ("glove-chem", lab1.glove_chem(), lab4.glove_chem()),
    ] {
        let bits = |t| {
            let (meta, vectors) = kcb_embed::store::raw_parts(t);
            (meta, vectors.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(t1), bits(t4), "{name} store bytes differ across thread counts");
    }
    assert_eq!(
        kcb_embed::store::fasttext_to_bytes(lab1.biowordvec()),
        kcb_embed::store::fasttext_to_bytes(lab4.biowordvec()),
        "biowordvec store bytes differ across thread counts"
    );

    assert_eq!(r1.scheduler.workers, 1);
    assert_eq!(r4.scheduler.workers, 4);
    assert_eq!(seq.len(), IDS.len(), "all artifacts produced sequentially");
    assert_eq!(par.len(), IDS.len(), "all artifacts produced in parallel");

    for ((id1, a1), (id4, a4)) in seq.iter().zip(&par) {
        assert_eq!(id1, id4, "artifact order is canonical");
        assert_eq!(a1.render(), a4.render(), "rendered text differs for {id1}");
        assert_eq!(
            serde_json::to_string_pretty(&a1.json).expect("serializable"),
            serde_json::to_string_pretty(&a4.json).expect("serializable"),
            "json payload differs for {id1}"
        );
    }

    for report in [&r1, &r4] {
        // Every job ran and was timed; labels are unique (cells shared by
        // several artifacts exist once).
        let labels: Vec<&str> =
            report.scheduler.jobs.iter().map(|j| j.label.as_str()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len(), "duplicate job labels");
        assert!(labels.iter().any(|l| l.starts_with("provider:")));
        assert!(labels.iter().any(|l| l.starts_with("cell:forest|")));
        assert!(labels.iter().any(|l| l.starts_with("cell:rf|")));
        assert!(labels.iter().any(|l| l.starts_with("cell:ft|")));
        assert!(labels.iter().any(|l| l.starts_with("artifact:")));
        // The assembly pass re-queried the warmed caches.
        assert!(report.cache.memo_hits > 0, "assembly must hit the memo cache");
        assert!(report.encoding_hits > 0, "assembly must hit the encoding cache");
        assert!(report.scheduler.wall_seconds > 0.0);
    }
    assert_eq!(
        r1.scheduler.jobs.len(),
        r4.scheduler.jobs.len(),
        "same DAG regardless of worker count"
    );

    // The recording that ran alongside the parallel leg covered every
    // scheduled job: one span per job label, tagged with its category.
    let span_names: Vec<&str> = telemetry.spans.iter().map(|s| s.name.as_str()).collect();
    for j in &r4.scheduler.jobs {
        assert!(
            span_names.contains(&j.label.as_str()),
            "job {} has no telemetry span",
            j.label
        );
    }
    assert!(
        telemetry.spans.iter().all(|s| !s.cat.is_empty()),
        "every span carries a category"
    );
    // The training loops inside the cells published their loss series.
    assert!(
        telemetry.series.keys().any(|k| k.starts_with("lm.")),
        "LM training series missing: {:?}",
        telemetry.series.keys().collect::<Vec<_>>()
    );
}
