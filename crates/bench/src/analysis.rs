//! Sweep analysis tables: renders a [`SweepOutcome`] into the
//! `analysis/` directory (per-variant tables, seed-repeat aggregates
//! with Fleiss-κ, pairwise Welch t-tests) plus the dedup-plan dry-run
//! text and `results/bench_sweep.json`.
//!
//! Everything written under `analysis/` is **timing-free** by design:
//! the files are pure functions of the variant configs, so a sweep at
//! `--threads 1` and `--threads 4` — or an interrupted sweep resumed
//! from its journal — produces byte-identical directories (CI diffs
//! them). Wall-clock and speedup measurements go to
//! `results/bench_sweep.json` and `run_meta.json` instead.

use kcb_core::experiment::sweep::{
    GridSpec, GroupAggregate, PairTest, SweepOutcome, SweepPlan, TaskRow,
};
use kcb_core::dataset::SCENARIOS;
use kcb_util::fmt::{metric, Table};
use serde_json::{json, Value};
use std::io;
use std::path::Path;

/// Renders the `--plan` dry run: what the grid compiles to and which
/// jobs are shared, before anything is trained.
pub fn render_plan(grid: &GridSpec, plan: &SweepPlan) -> String {
    let mut out = String::new();
    out.push_str(&format!("grid      {}\n", grid.render()));
    out.push_str(&format!(
        "variants  {}   labs {}   jobs {} (shared {}, unique {})\n",
        plan.variant_ids.len(),
        plan.labs,
        plan.total_jobs,
        plan.shared_jobs,
        plan.unique_jobs
    ));
    let naive: usize = plan.jobs.iter().map(|j| j.refs).sum();
    out.push_str(&format!(
        "dedup     {naive} variant-job references collapse into {} scheduled jobs\n\n",
        plan.total_jobs
    ));
    let mut t = Table::new("Variants", &["variant", "jobs", "shared"]).numeric_after(1);
    for vid in &plan.variant_ids {
        let mine = plan.variant_jobs.get(vid).map(Vec::as_slice).unwrap_or(&[]);
        let shared = mine
            .iter()
            .filter(|l| {
                plan.jobs.iter().any(|j| &j.label == *l && j.refs >= 2)
            })
            .count();
        t.row(vec![vid.clone(), mine.len().to_string(), shared.to_string()]);
    }
    out.push_str(&t.render());
    let mut s = Table::new("Shared jobs (refs >= 2)", &["label", "kind", "refs"])
        .numeric_after(2);
    for j in plan.jobs.iter().filter(|j| j.refs >= 2) {
        s.row(vec![j.label.clone(), j.kind.to_string(), j.refs.to_string()]);
    }
    out.push('\n');
    out.push_str(&s.render());
    out
}

/// The per-variant results table (timing-free; cost attribution lives in
/// `bench_sweep.json`).
pub fn render_variants(o: &SweepOutcome) -> String {
    let mut t = Table::new(
        "Sweep variants — positive-class F1 by task",
        &["variant", "series", "scenario", "Task 1", "Task 2", "Task 3", "jobs", "shared"],
    )
    .numeric_after(3);
    for v in &o.variants {
        let f1 = |i: usize| v.rows.get(i).map(|r| metric(r.f1)).unwrap_or_else(|| "-".into());
        t.row(vec![
            v.id.clone(),
            v.series.clone(),
            SCENARIOS[v.scenario].label(),
            f1(0),
            f1(1),
            f1(2),
            v.jobs.to_string(),
            v.shared_jobs.to_string(),
        ]);
    }
    t.render()
}

/// The seed-repeat aggregate table: mean ± sd per task and Fleiss-κ
/// agreement across seeds.
pub fn render_aggregates(aggs: &[GroupAggregate]) -> String {
    let mut t = Table::new(
        "Seed-repeat aggregates — mean F1 (sd) per task, Fleiss-kappa across seeds",
        &["scale", "scenario", "series", "seeds", "Task 1", "Task 2", "Task 3", "kappa"],
    )
    .numeric_after(4);
    for a in aggs {
        let cell = |i: usize| match (a.f1_mean.get(i), a.f1_sd.get(i)) {
            (Some(m), Some(Some(sd))) => format!("{} ({})", metric(*m), metric(*sd)),
            (Some(m), _) => metric(*m),
            _ => "-".to_string(),
        };
        t.row(vec![
            a.scale.to_string(),
            SCENARIOS[a.scenario].label(),
            a.series.clone(),
            a.n_seeds.to_string(),
            cell(0),
            cell(1),
            cell(2),
            a.fleiss_kappa.map(metric).unwrap_or_else(|| "-".to_string()),
        ]);
    }
    t.render()
}

/// The pairwise significance table (Welch t-tests between series within
/// one scale × scenario, over per-seed-per-task F1 samples).
pub fn render_significance(tests: &[PairTest]) -> String {
    let mut t = Table::new(
        "Pairwise Welch t-tests — per-(seed, task) F1 samples",
        &["scale", "scenario", "A", "B", "n", "t", "df", "p"],
    )
    .numeric_after(4);
    for x in tests {
        t.row(vec![
            x.scale.to_string(),
            SCENARIOS[x.scenario].label(),
            x.a.clone(),
            x.b.clone(),
            x.n.to_string(),
            metric(x.t),
            metric(x.df),
            metric(x.p_value),
        ]);
    }
    if tests.is_empty() {
        t.row(vec!["-".into(), "-".into(), "-".into(), "-".into(), "0".into(),
            "-".into(), "-".into(), "-".into()]);
    }
    t.render()
}

/// Writes the full timing-free `analysis/` directory: `variants.txt`,
/// `aggregates.{txt,json}`, `significance.{txt,json}` and one replay
/// payload per variant under `variants/` (the same bytes the run journal
/// persists, so a variant's file is byte-identical to a single-variant
/// sweep of the same config).
pub fn write_analysis(dir: &Path, o: &SweepOutcome) -> io::Result<()> {
    std::fs::create_dir_all(dir.join("variants"))?;
    std::fs::write(dir.join("variants.txt"), render_variants(o))?;
    std::fs::write(dir.join("aggregates.txt"), render_aggregates(&o.aggregates))?;
    std::fs::write(
        dir.join("aggregates.json"),
        serde_json::to_string_pretty(&serde_json::to_value(&o.aggregates).expect("serializable"))
            .expect("renderable"),
    )?;
    std::fs::write(dir.join("significance.txt"), render_significance(&o.tests))?;
    std::fs::write(
        dir.join("significance.json"),
        serde_json::to_string_pretty(&serde_json::to_value(&o.tests).expect("serializable"))
            .expect("renderable"),
    )?;
    for (vid, a) in &o.artifacts {
        std::fs::write(
            dir.join("variants").join(format!("{vid}.json")),
            a.to_replay_json().render_json(None),
        )?;
    }
    Ok(())
}

/// The measured sequential baseline: per-variant rows and seconds from
/// [`kcb_core::experiment::sweep::run_sequential`], plus total wall.
pub struct SeqBaseline {
    /// `(variant id, rows, seconds)` per variant, in grid order.
    pub per_variant: Vec<(String, Vec<TaskRow>, f64)>,
    /// Total sequential wall-clock seconds.
    pub wall_s: f64,
}

impl SeqBaseline {
    /// Whether every sequential variant's rows match the sweep's bit for
    /// bit — the correctness half of the speedup claim.
    pub fn rows_match(&self, o: &SweepOutcome) -> bool {
        self.per_variant.len() == o.variants.len()
            && self
                .per_variant
                .iter()
                .all(|(id, rows, _)| o.variants.iter().any(|v| &v.id == id && &v.rows == rows))
    }
}

/// Builds `results/bench_sweep.json`: the dedup counts, wall-clock, the
/// per-variant efficiency columns (exclusive vs amortized seconds), and
/// — when the sequential baseline ran — the measured speedup.
pub fn bench_sweep_json(grid: &GridSpec, o: &SweepOutcome, seq: Option<&SeqBaseline>) -> Value {
    let variants: Vec<Value> = o
        .variants
        .iter()
        .map(|v| {
            let seq_s = seq.and_then(|s| {
                s.per_variant.iter().find(|(id, _, _)| id == &v.id).map(|(_, _, secs)| *secs)
            });
            json!({
                "id": v.id,
                "series": v.series,
                "seed": v.seed,
                "scale": v.scale,
                "scenario": v.scenario,
                "jobs": v.jobs,
                "shared_jobs": v.shared_jobs,
                "exclusive_s": v.exclusive_s,
                "amortized_s": v.amortized_s,
                "replayed": v.replayed,
                "sequential_s": seq_s,
            })
        })
        .collect();
    let sweep = json!({
        "grid": grid.render(),
        "variants": o.variants.len(),
        "labs": o.labs,
        "total_jobs": o.plan.total_jobs,
        "shared_jobs": o.plan.shared_jobs,
        "unique_jobs": o.plan.unique_jobs,
        "wall_s": o.wall_s,
        "replayed_variants": o.variants.iter().filter(|v| v.replayed).count(),
    });
    let sequential = seq.map(|s| {
        json!({
            "wall_s": s.wall_s,
            "speedup": if o.wall_s > 0.0 { s.wall_s / o.wall_s } else { 0.0 },
            "rows_match": s.rows_match(o),
        })
    });
    json!({
        "sweep": sweep,
        "sequential": sequential,
        "per_variant": Value::Array(variants),
    })
}

/// The `sweep` group for `run_meta.json` (schema v7).
pub fn sweep_meta(grid: &GridSpec, o: &SweepOutcome, seq: Option<&SeqBaseline>) -> Value {
    json!({
        "grid": grid.render(),
        "variants": o.variants.len(),
        "labs": o.labs,
        "total_jobs": o.plan.total_jobs,
        "shared_jobs": o.plan.shared_jobs,
        "unique_jobs": o.plan.unique_jobs,
        "replayed_variants": o.variants.iter().filter(|v| v.replayed).count(),
        "sequential_wall_s": seq.map(|s| s.wall_s),
        "speedup_vs_sequential": seq
            .filter(|_| o.wall_s > 0.0)
            .map(|s| s.wall_s / o.wall_s),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcb_core::experiment::sweep::{plan, run_sweep, GridSpec, SweepSpec};
    use kcb_core::lab::LabConfig;

    fn tiny_outcome() -> (GridSpec, SweepOutcome) {
        let base = LabConfig::tiny();
        let grid =
            GridSpec::parse("seeds=7;scenarios=0,1;paradigms=sup,icl;model=random").unwrap();
        let spec = SweepSpec { workers: 2, journal: None, store: None };
        let outcome = run_sweep(&base, &grid, &spec);
        (grid, outcome)
    }

    #[test]
    fn plan_render_counts_the_dedup() {
        let base = LabConfig::tiny();
        let grid =
            GridSpec::parse("seeds=7;scenarios=0,1;paradigms=sup,icl;model=random").unwrap();
        let p = plan(&base, &grid);
        let text = render_plan(&grid, &p);
        assert!(text.contains("variants  4"), "{text}");
        assert!(text.contains("labs 1"), "{text}");
        assert!(text.contains("Shared jobs"), "{text}");
        // Every variant row appears.
        for vid in &p.variant_ids {
            assert!(text.contains(vid.as_str()), "missing {vid} in:\n{text}");
        }
    }

    #[test]
    fn analysis_dir_is_complete_and_timing_free() {
        let (_, outcome) = tiny_outcome();
        let dir = std::env::temp_dir()
            .join(format!("kcb-analysis-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_analysis(&dir, &outcome).unwrap();
        for f in ["variants.txt", "aggregates.txt", "aggregates.json", "significance.txt",
            "significance.json"]
        {
            assert!(dir.join(f).is_file(), "missing {f}");
        }
        for v in &outcome.variants {
            assert!(dir.join("variants").join(format!("{}.json", v.id)).is_file());
        }
        // Timing-free: no wall-clock or seconds fields anywhere.
        for f in ["variants.txt", "aggregates.json", "significance.json"] {
            let text = std::fs::read_to_string(dir.join(f)).unwrap();
            assert!(
                !text.contains("seconds") && !text.contains("wall"),
                "{f} leaks timing:\n{text}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_sweep_json_has_the_efficiency_columns() {
        let (grid, outcome) = tiny_outcome();
        let doc = bench_sweep_json(&grid, &outcome, None);
        assert_eq!(doc["sweep"]["variants"], json!(4));
        assert!(doc["sweep"]["shared_jobs"].as_u64().unwrap() > 0);
        assert_eq!(doc["sequential"], Value::Null);
        assert_eq!(doc["per_variant"][0]["jobs"], json!(outcome.variants[0].jobs));
        assert!(doc["per_variant"][0]["amortized_s"].as_f64().unwrap() >= 0.0);
        // With a (synthetic) baseline the speedup fields appear.
        let seq = SeqBaseline {
            per_variant: outcome
                .variants
                .iter()
                .map(|v| (v.id.clone(), v.rows.clone(), 0.5))
                .collect(),
            wall_s: 2.0,
        };
        assert!(seq.rows_match(&outcome));
        let doc = bench_sweep_json(&grid, &outcome, Some(&seq));
        assert_eq!(doc["sequential"]["wall_s"], json!(2.0));
        assert!(doc["sequential"]["speedup"].as_f64().unwrap() > 0.0);
        assert_eq!(doc["sequential"]["rows_match"], json!(true));
        let meta = sweep_meta(&grid, &outcome, Some(&seq));
        assert_eq!(meta["variants"], json!(4));
        assert_eq!(meta["sequential_wall_s"], json!(2.0));
        assert!(meta["speedup_vs_sequential"].as_f64().unwrap() > 0.0);
        let text = serde_json::to_string(&doc).unwrap();
        kcb_util::json::parse_value(&text).unwrap();
    }

    #[test]
    fn mismatched_rows_fail_the_baseline_check() {
        let (_, outcome) = tiny_outcome();
        let mut per_variant: Vec<_> = outcome
            .variants
            .iter()
            .map(|v| (v.id.clone(), v.rows.clone(), 0.1))
            .collect();
        per_variant[0].1[0].f1 += 0.25;
        let seq = SeqBaseline { per_variant, wall_s: 1.0 };
        assert!(!seq.rows_match(&outcome));
    }
}
