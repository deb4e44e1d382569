//! The traced pass: the lifecycle's set-up, warm rerun and sweep run again
//! in-process on one thread, with the benchmark's own spans around the
//! layers' public calls, plus per-request timings of the serving layers.
//!
//! In each phase the parts plus a residual add up to the traced wall time.
//! Parts are either spans placed here or the `JobReport`s that
//! `run_scheduled_with` and `run_sweep` return, grouped by label. A figure
//! measured on its own call outside the phase wall (`core.journal.load_s`,
//! `core.sweep.plan_s`) is a sub-part of a part and is not summed again.

use crate::lifecycle::{restore_dir, Workspace};
use crate::stats;
use kcb_core::ckpt::CkptStore;
use kcb_core::experiment::plan::{run_scheduled_with, JournalSpec};
use kcb_core::experiment::sweep::{self, GridSpec, SweepSpec};
use kcb_core::journal;
use kcb_core::lab::{Lab, LabConfig};
use kcb_core::sched::JobReport;
use kcb_core::snapshot::{Snapshot, SnapshotSpec};
use kcb_core::TaskKind;
use kcb_lm::MiniBert;
use kcb_serve::engine::answer_serial;
use kcb_serve::protocol::{self, Op, Request};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The lab `repro --fast --threads 1 --seed S` builds.
pub fn lab_config(seed: u64) -> LabConfig {
    let mut cfg = LabConfig::tiny();
    cfg.reseed(seed);
    cfg.rf.n_threads = 1;
    cfg
}

/// The token-embedding tables trained from the corpora; fastText
/// (`biowordvec`) is timed on its own.
const TRAINED_TABLES: [&str; 4] = ["random", "glove", "w2v-chem", "glove-chem"];

/// One recorded span: which phase, which part, and when (seconds from the
/// tracer's epoch).
#[derive(Debug, Clone)]
pub struct Span {
    /// Lifecycle phase.
    pub phase: &'static str,
    /// Part name (the per-layer metric it feeds).
    pub name: &'static str,
    /// Start, seconds from the epoch.
    pub start_s: f64,
    /// End, seconds from the epoch.
    pub end_s: f64,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` under a span.
    pub fn span<T>(&mut self, phase: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_s = self.epoch.elapsed().as_secs_f64();
        let out = f();
        self.spans.push(Span {
            phase,
            name,
            start_s,
            end_s: self.epoch.elapsed().as_secs_f64(),
        });
        out
    }

    /// Summed duration of the spans named `name` in `phase`.
    pub fn total(&self, phase: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.phase == phase && s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    serde_json::json!({
                        "phase": s.phase, "name": s.name, "start_s": s.start_s, "end_s": s.end_s,
                    })
                })
                .collect(),
        )
    }
}

/// A phase's wall time and its parts; the residual closes the sum.
pub struct Breakdown {
    /// Phase name.
    pub phase: &'static str,
    /// Traced wall seconds.
    pub wall_s: f64,
    /// `(per-layer metric, seconds)`; these sum with the residual to the
    /// wall.
    pub parts: Vec<(&'static str, f64)>,
}

impl Breakdown {
    /// Wall minus the parts.
    pub fn residual_s(&self) -> f64 {
        stats::residual(
            self.wall_s,
            &self.parts.iter().map(|p| p.1).collect::<Vec<_>>(),
        )
    }
}

/// The layer a scheduled job's time belongs to, from its label
/// (`cell:<kind>|…`, `cell:<lab>/<kind>|…`, `artifact:<id>`,
/// `provider:…`).
pub fn job_layer(label: &str) -> &'static str {
    if let Some(cell) = label.strip_prefix("cell:") {
        // Sweep labs namespace their cells as `<digest8>/<key>`.
        let key = match (cell.find('/'), cell.find('|')) {
            (Some(slash), Some(bar)) if slash < bar => &cell[slash + 1..],
            _ => cell,
        };
        return match key.split('|').next().unwrap_or(key) {
            "ft" => "finetune",
            "icl" | "gpt4" => "icl",
            "forest" | "rf" => "forest",
            "lstm" => "lstm",
            _ => "cell",
        };
    }
    match label {
        "artifact:table4" => "finetune",
        "artifact:table5" => "icl",
        l if l.starts_with("artifact:") => "assembly",
        l if l.starts_with("provider:") => "provider",
        _ => "other",
    }
}

fn job_seconds(jobs: &[JobReport], pred: impl Fn(&str) -> bool) -> (f64, usize) {
    jobs.iter()
        .filter(|j| pred(&j.label))
        .fold((0.0, 0), |(s, n), j| (s + j.seconds, n + 1))
}

fn layer_seconds(jobs: &[JobReport], layer: &str) -> (f64, usize) {
    job_seconds(jobs, |l| job_layer(l) == layer)
}

/// What the traced set-up measured besides its breakdown.
pub struct SetupTrace {
    /// Parts and residual.
    pub breakdown: Breakdown,
    /// Forest and random-forest cells fitted.
    pub forest_fits: usize,
    /// Memoised-score hits ÷ lookups.
    pub memo_hit_ratio: f64,
    /// Triple-encoding cache hits ÷ lookups.
    pub encoding_hit_ratio: f64,
    /// Journal records appended.
    pub appends: u64,
    /// The lab's run directory under the workspace's runs root.
    pub run_dir: PathBuf,
}

/// The cold reproduction plus the snapshot freeze, into the empty `ws`.
pub fn setup(t: &mut Tracer, cfg: &LabConfig, ids: &[&str], ws: &Workspace) -> SetupTrace {
    const P: &str = "setup";
    let t0 = Instant::now();
    let lab = Lab::with_checkpoints(cfg.clone(), Arc::new(CkptStore::open(ws.cache())));
    t.span(P, "ontology.build_s", || {
        lab.ontology();
        for k in TaskKind::ALL {
            lab.task(k);
            lab.split(k);
        }
    });
    t.span(P, "text.corpus_s", || {
        lab.domain_sentences();
        lab.generic_sentences();
    });
    t.span(P, "text.wordpiece_s", || {
        lab.wordpiece();
    });
    t.span(P, "embed.train_s", || {
        for name in TRAINED_TABLES {
            lab.embedding(name);
        }
    });
    t.span(P, "embed.biowordvec_s", || {
        lab.biowordvec();
    });
    t.span(P, "lm.pretrain_s", || {
        lab.bert();
        lab.biogpt();
    });
    let run_dir = journal::run_dir(&ws.runs(), &lab.config_digest());
    let spec = JournalSpec {
        dir: run_dir.clone(),
        fault: None,
    };
    let (artifacts, report) = t.span(P, "scheduled", || {
        run_scheduled_with(&lab, ids, 1, Some(&spec))
    });
    black_box(artifacts);
    t.span(P, "core.ckpt.save_s", || lab.save_checkpoints());
    let snap = t.span(P, "core.snapshot.freeze_s", || {
        Snapshot::freeze(&lab, SnapshotSpec::default())
    });
    let wall_s = t0.elapsed().as_secs_f64();
    drop(snap);

    let jobs = &report.scheduler.jobs;
    let (forest_s, forest_fits) = layer_seconds(jobs, "forest");
    let mut parts: Vec<(&'static str, f64)> = [
        "ontology.build_s",
        "text.corpus_s",
        "text.wordpiece_s",
        "embed.train_s",
        "embed.biowordvec_s",
        "lm.pretrain_s",
    ]
    .iter()
    .map(|&n| (n, t.total(P, n)))
    .collect();
    parts.extend([
        ("lm.finetune_s", layer_seconds(jobs, "finetune").0),
        ("icl.prompt_s", layer_seconds(jobs, "icl").0),
        ("ml.forest_s", forest_s),
        ("ml.lstm_s", layer_seconds(jobs, "lstm").0),
        ("core.plan.assembly_s", layer_seconds(jobs, "assembly").0),
        ("core.ckpt.save_s", t.total(P, "core.ckpt.save_s")),
        (
            "core.snapshot.freeze_s",
            t.total(P, "core.snapshot.freeze_s"),
        ),
    ]);
    let ratio = |hits: usize, misses: usize| hits as f64 / (hits + misses).max(1) as f64;
    SetupTrace {
        breakdown: Breakdown {
            phase: P,
            wall_s,
            parts,
        },
        forest_fits,
        memo_hit_ratio: ratio(report.cache.memo_hits, report.cache.memo_misses),
        encoding_hit_ratio: ratio(report.encoding_hits, report.encoding_misses),
        appends: report.journal.appended,
        run_dir,
    }
}

/// Median µs of one fsync'd `journal::Writer::append` on a throwaway journal.
pub fn journal_append_us(dir: &Path, n: usize) -> std::io::Result<f64> {
    let path = journal::journal_path(dir);
    let w = journal::Writer::open(&path, 0)?;
    let inputs = vec!["cfg=0000000000000000".to_string()];
    let us: Vec<f64> = (0..n)
        .map(|i| {
            let t0 = Instant::now();
            w.append(&format!("cell:bench|{i}"), "par", "", 0.001, 0, &inputs);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Ok(stats::median(&us))
}

/// What the traced warm reruns measured besides their breakdown.
pub struct WarmTrace {
    /// Mean parts and residual over the repetitions.
    pub breakdown: Breakdown,
    /// Median `journal::load` of the post-set-up journal (a sub-part of
    /// `core.plan.replay_s`).
    pub load_s: f64,
}

/// Warm reruns on the filled cache, each from the post-set-up runs
/// directory `post_runs`: `repro --list` for process start, then
/// `Lab::with_checkpoints`, `run_scheduled_with` and the final save.
#[allow(clippy::too_many_arguments)]
pub fn warm(
    t: &mut Tracer,
    repro_bin: &Path,
    cfg: &LabConfig,
    ids: &[&str],
    ws: &Workspace,
    post_runs: &Path,
    run_dir: &Path,
    reps: usize,
) -> std::io::Result<WarmTrace> {
    const P: &str = "warm";
    let (mut walls, mut loads) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        restore_dir(post_runs, &ws.runs())?;
        let t_load = Instant::now();
        black_box(journal::load(&journal::journal_path(run_dir)));
        loads.push(t_load.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let spawned = t.span(P, "bench.spawn_ms", || {
            std::process::Command::new(repro_bin)
                .arg("--list")
                .stdout(std::process::Stdio::null())
                .status()
        })?;
        if !spawned.success() {
            return Err(std::io::Error::other("repro --list failed"));
        }
        let lab = t.span(P, "core.ckpt.open_s", || {
            Lab::with_checkpoints(cfg.clone(), Arc::new(CkptStore::open(ws.cache())))
        });
        let spec = JournalSpec {
            dir: run_dir.to_path_buf(),
            fault: None,
        };
        let out = t.span(P, "core.plan.replay_s", || {
            run_scheduled_with(&lab, ids, 1, Some(&spec))
        });
        t.span(P, "core.ckpt.warm_save_s", || lab.save_checkpoints());
        walls.push(t0.elapsed().as_secs_f64());
        drop((out, lab));
    }
    restore_dir(post_runs, &ws.runs())?;
    let n = reps as f64;
    let parts = [
        "bench.spawn_ms",
        "core.ckpt.open_s",
        "core.plan.replay_s",
        "core.ckpt.warm_save_s",
    ]
    .iter()
    .map(|&name| (name, t.total(P, name) / n))
    .collect();
    Ok(WarmTrace {
        breakdown: Breakdown {
            phase: P,
            wall_s: stats::mean(&walls),
            parts,
        },
        load_s: stats::median(&loads),
    })
}

/// What the traced sweep measured besides its breakdown.
pub struct SweepTrace {
    /// Parts and residual.
    pub breakdown: Breakdown,
    /// `sweep::plan` on its own call (a sub-part of the run).
    pub plan_s: f64,
    /// Shared ÷ total jobs of the plan.
    pub shared_ratio: f64,
    /// Forest and random-forest cell seconds within `core.sweep.cell_s`.
    pub forest_s: f64,
    /// Forest and random-forest cells fitted.
    pub forest_fits: usize,
    /// Fine-tuning cell seconds within `core.sweep.cell_s`.
    pub finetune_s: f64,
    /// In-context-learning cell seconds within `core.sweep.cell_s`.
    pub icl_s: f64,
    /// The analysis tables were written.
    pub tables_ok: bool,
}

/// The cold sweep of `grid` into the empty `ws`, with its analysis tables.
pub fn sweep(t: &mut Tracer, cfg: &LabConfig, grid: &str, ws: &Workspace) -> SweepTrace {
    const P: &str = "sweep";
    let grid = GridSpec::parse(grid).expect("workload grids are valid");
    let t_plan = Instant::now();
    let splan = black_box(sweep::plan(cfg, &grid));
    let plan_s = t_plan.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let gdigest = format!("sweep-{}", sweep::grid_digest(cfg, &grid));
    let spec = SweepSpec {
        workers: 1,
        journal: Some(JournalSpec {
            dir: journal::run_dir(&ws.runs(), &gdigest),
            fault: None,
        }),
        store: Some(Arc::new(CkptStore::open(ws.cache()))),
    };
    let outcome = t.span(P, "run_sweep", || sweep::run_sweep(cfg, &grid, &spec));
    let tables = ws.root.join("results").join("analysis");
    let tables_ok = t.span(P, "analysis", || {
        kcb_bench::analysis::write_analysis(&tables, &outcome).is_ok()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let jobs = &outcome.report.scheduler.jobs;
    let (forest_s, forest_fits) = layer_seconds(jobs, "forest");
    let parts = vec![
        ("core.sweep.provider_s", layer_seconds(jobs, "provider").0),
        (
            "core.sweep.cell_s",
            job_seconds(jobs, |l| l.starts_with("cell:")).0,
        ),
    ];
    SweepTrace {
        breakdown: Breakdown {
            phase: P,
            wall_s,
            parts,
        },
        plan_s,
        shared_ratio: splan.shared_jobs as f64 / splan.total_jobs.max(1) as f64,
        forest_s,
        forest_fits,
        finetune_s: layer_seconds(jobs, "finetune").0,
        icl_s: layer_seconds(jobs, "icl").0,
        tables_ok: tables_ok && crate::lifecycle::sweep_tables_written(&ws.root),
    }
}

/// Requests per kernel call in [`serve_layers`]: the engine's default
/// `batch_max`, the largest micro-batch a worker drains.
const KERNEL_BATCH: usize = 32;

/// Per-request cost of each serving layer over one request stream, µs.
pub struct ServeLayers {
    /// `protocol::parse_request`.
    pub parse_us: f64,
    /// The reply renderers.
    pub render_us: f64,
    /// `nearest_batch` over f32 rows.
    pub nn_f32_us: f64,
    /// `nearest_batch` over int8 rows.
    pub nn_int8_us: f64,
    /// `classify_batch`.
    pub classify_us: f64,
    /// `Snapshot::embed`.
    pub embed_us: f64,
    /// `bert_token_ids` + `predict_proba_batch`; 0 for a stream without
    /// BERT requests.
    pub bert_us: f64,
    /// Median of `engine::answer_serial`, one request at a time.
    pub serial_p50_us: f64,
}

fn per_request_us<T>(items: &[T], chunk: usize, mut f: impl FnMut(&[T])) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    items.chunks(chunk).for_each(&mut f);
    t0.elapsed().as_secs_f64() * 1e6 / items.len() as f64
}

/// Times the serving layers over `reqs`, in batches of [`KERNEL_BATCH`]
/// requests.
pub fn serve_layers(snap: &Snapshot, bert: Option<&MiniBert>, reqs: &[Request]) -> ServeLayers {
    let lines: Vec<String> = reqs.iter().map(protocol::render_request).collect();
    let parse_us = per_request_us(&lines, KERNEL_BATCH, |ls| {
        for l in ls {
            black_box(protocol::parse_request(l).is_ok());
        }
    });

    let (mut nn_f32, mut nn_int8, mut triples, mut bert_triples, mut tokens) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in reqs {
        match &r.op {
            Op::Nn {
                token, int8: false, ..
            } => nn_f32.push(token.as_str()),
            Op::Nn {
                token, int8: true, ..
            } => nn_int8.push(token.as_str()),
            Op::Classify { s, r, o } => triples.push((*s, *r, *o)),
            Op::Bert { s, r, o } => bert_triples.push((*s, *r, *o)),
            Op::Embed { token } => tokens.push(token.as_str()),
            _ => {}
        }
    }
    const K: usize = 10;
    let nn_f32_us = per_request_us(&nn_f32, KERNEL_BATCH, |ts| {
        black_box(snap.nearest_batch(ts, K, false));
    });
    let nn_int8_us = per_request_us(&nn_int8, KERNEL_BATCH, |ts| {
        black_box(snap.nearest_batch(ts, K, true));
    });
    let classify_us = per_request_us(&triples, KERNEL_BATCH, |ts| {
        black_box(snap.classify_batch(ts));
    });
    let embed_us = per_request_us(&tokens, KERNEL_BATCH, |ts| {
        for t in ts {
            black_box(snap.embed(t));
        }
    });
    let bert_us = match bert {
        Some(model) => per_request_us(&bert_triples, KERNEL_BATCH, |ts| {
            let seqs: Vec<Vec<u32>> = ts
                .iter()
                .filter_map(|&(s, r, o)| snap.bert_token_ids(s, r, o))
                .collect();
            let refs: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
            black_box(model.predict_proba_batch(&refs));
        }),
        None => 0.0,
    };

    // Renderers, fed the answers computed outside the timed loop.
    let answers: Vec<(u64, Answer)> = reqs
        .iter()
        .map(|r| {
            let a = match &r.op {
                Op::Nn { token, k, int8 } => Answer::Nn(if *int8 {
                    snap.nearest_int8(token, *k)
                } else {
                    snap.nearest(token, *k)
                }),
                Op::Classify { s, r, o } => Answer::Proba(snap.classify(*s, *r, *o).unwrap_or(0.0)),
                Op::Bert { s, r, o } => Answer::Proba(
                    bert.zip(snap.bert_token_ids(*s, *r, *o))
                        .map_or(0.0, |(m, ids)| m.predict_proba(&ids)),
                ),
                Op::Embed { token } => {
                    let (v, known) = snap.embed(token);
                    Answer::Embed(v, known)
                }
                _ => Answer::Other,
            };
            (r.id, a)
        })
        .collect();
    let render_us = per_request_us(&answers, KERNEL_BATCH, |xs| {
        for (id, a) in xs {
            black_box(match a {
                Answer::Nn(n) => protocol::render_nn(*id, n),
                Answer::Proba(p) => protocol::render_proba(*id, *p),
                Answer::Embed(v, known) => protocol::render_embed(*id, v, *known),
                Answer::Other => String::new(),
            });
        }
    });

    let serial: Vec<f64> = reqs
        .iter()
        .map(|r| {
            let t0 = Instant::now();
            black_box(answer_serial(snap, bert, r));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    ServeLayers {
        parse_us,
        render_us,
        nn_f32_us,
        nn_int8_us,
        classify_us,
        embed_us,
        bert_us,
        serial_p50_us: stats::percentile(&serial, 50.0),
    }
}

enum Answer {
    Nn(Vec<(String, f32)>),
    Proba(f32),
    Embed(Vec<f32>, bool),
    Other,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_group_into_layers_by_label() {
        assert_eq!(job_layer("cell:ft|1|0.9|0.5"), "finetune");
        assert_eq!(job_layer("cell:0a1b2c3d/ft|1|0.9|0.5"), "finetune");
        assert_eq!(job_layer("cell:gpt4|2"), "icl");
        assert_eq!(job_layer("cell:0a1b2c3d/icl|1|biogpt-mini"), "icl");
        assert_eq!(job_layer("cell:rf|1|0.9|0.5|glove-chem|naive"), "forest");
        assert_eq!(job_layer("cell:forest|3|w2v-chem|none"), "forest");
        assert_eq!(job_layer("cell:lstm|glove"), "lstm");
        assert_eq!(job_layer("artifact:table4"), "finetune");
        assert_eq!(job_layer("artifact:table5"), "icl");
        assert_eq!(job_layer("artifact:fig2"), "assembly");
        assert_eq!(job_layer("provider:0a1b2c3d/bert"), "provider");
        assert_eq!(job_layer("cell:other|x"), "cell");
    }

    #[test]
    fn breakdown_residual_closes_the_wall() {
        let b = Breakdown {
            phase: "setup",
            wall_s: 10.0,
            parts: vec![("a", 6.0), ("b", 3.5)],
        };
        assert_eq!(b.residual_s(), 0.5);
        let sum: f64 = b.parts.iter().map(|p| p.1).sum();
        assert_eq!(sum + b.residual_s(), b.wall_s);
    }

    #[test]
    fn tracer_totals_spans_by_phase_and_name() {
        let mut t = Tracer::new();
        t.span("setup", "x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("setup", "x", || ());
        t.span("warm", "x", || ());
        assert!(t.total("setup", "x") >= 0.002);
        assert!(t.total("setup", "x") > t.total("warm", "x"));
        assert_eq!(t.total("sweep", "x"), 0.0);
        assert_eq!(t.spans.len(), 3);
    }
}
