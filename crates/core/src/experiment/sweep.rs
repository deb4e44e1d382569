//! The sweep compiler: lowers a declarative variant grid (seed × scale ×
//! scenario × paradigm × oracle) through the [`super::plan`] cell
//! decomposition into **one** structure-shared DAG, so a K-variant sweep
//! costs far less than K single runs.
//!
//! Sharing falls out of content addressing: variants with the same
//! `(seed, scale)` share a [`Lab`] (providers are scheduled once per lab,
//! gated to the union of what its variants actually need), and within a
//! lab, cells are deduplicated by the same memo keys the single-run path
//! uses — the PR 5 checkpoint keys normalise thread count, so equal keys
//! mean identical bytes and a variant's artifact is byte-identical to a
//! single-variant sweep of the same config. Scenario-independent cells
//! (the paper draws ICL as a horizontal reference line because in-context
//! learning consumes no training data) are shared by *every* scenario
//! variant of an oracle.
//!
//! On top of the per-variant tables the sweep emits the paper's
//! seed-repeat statistics: Fleiss-κ agreement across seeds and Welch
//! t-tests between paradigms within one (scale, scenario) — plus
//! ChemTEB-style efficiency accounting (shared vs unique jobs, exclusive
//! vs amortized seconds per variant).

use super::exec::{execute, LabPlan, Target};
use super::plan::{ft_key, icl_key, rf_key, Cells, JournalSpec, PlanReport, ProviderNeed};
use super::{scenarios, supervised};
use crate::dataset::SCENARIOS;
use crate::lab::{Lab, LabConfig, EMBEDDING_NAMES};
use crate::report::Artifact;
use crate::sched::JobId;
use crate::task::TaskKind;
use kcb_ml::kappa::{fleiss_kappa, ratings_from_answers};
use kcb_ml::stats::welch_t_test;
use kcb_util::fmt::metric;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The three NLP paradigms of the paper's central comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Paradigm {
    /// Random-forest over (adapted) embeddings — §2.5.
    Supervised,
    /// Fine-tuned mini-BERT — §2.6.
    FineTune,
    /// In-context learning against an oracle — §2.4.
    Icl,
}

impl Paradigm {
    /// All paradigms, in paper order.
    pub const ALL: [Paradigm; 3] = [Paradigm::Supervised, Paradigm::FineTune, Paradigm::Icl];

    /// Short code used in variant ids.
    pub fn code(self) -> &'static str {
        match self {
            Paradigm::Supervised => "sup",
            Paradigm::FineTune => "ft",
            Paradigm::Icl => "icl",
        }
    }

    /// Human-facing label used in analysis tables.
    pub fn label(self) -> &'static str {
        match self {
            Paradigm::Supervised => "supervised",
            Paradigm::FineTune => "fine-tuning",
            Paradigm::Icl => "icl",
        }
    }

    fn parse(s: &str) -> Result<Paradigm, String> {
        Ok(match s {
            "sup" | "supervised" => Paradigm::Supervised,
            "ft" | "finetune" | "fine-tuning" => Paradigm::FineTune,
            "icl" => Paradigm::Icl,
            other => return Err(format!("unknown paradigm '{other}' (supervised|ft|icl)")),
        })
    }
}

fn parse_oracle(s: &str) -> Result<&'static str, String> {
    Ok(match s {
        "gpt4" | "gpt-4" | "gpt-4-sim" => "gpt-4-sim",
        "gpt35" | "gpt-3.5" | "gpt-3.5-sim" => "gpt-3.5-sim",
        "llama2" | "llama2-sim" => "llama2-sim",
        "biogpt" | "biogpt-mini" => "biogpt-mini",
        other => return Err(format!("unknown oracle '{other}' (gpt4|gpt35|llama2|biogpt)")),
    })
}

/// Rejects a grid list that names one value twice (`sup,supervised`,
/// `0.5,0.50`): it would expand into two variants with one id.
fn distinct<T: PartialEq>(key: &str, vals: Vec<T>) -> Result<Vec<T>, String> {
    if vals.iter().enumerate().any(|(i, v)| vals[..i].contains(v)) {
        return Err(format!("duplicate {key} in grid"));
    }
    Ok(vals)
}

fn parse_model(s: &str) -> Result<&'static str, String> {
    if s == "pubmedbert" {
        return Ok("pubmedbert");
    }
    EMBEDDING_NAMES
        .iter()
        .find(|&&m| m == s)
        .copied()
        .ok_or_else(|| format!("unknown model '{s}' (see repro --list models: embeddings or pubmedbert)"))
}

/// A declarative variant grid: `repro sweep --grid
/// "seeds=7,8;scenarios=0,2;paradigms=supervised,icl"`. Empty `seeds` /
/// `scales` inherit the base config at expansion time.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Master seeds (empty = the base config's seed).
    pub seeds: Vec<u64>,
    /// Ontology scales (empty = the base config's scale).
    pub scales: Vec<f64>,
    /// Scenario indices into [`SCENARIOS`].
    pub scenarios: Vec<usize>,
    /// Paradigms to cross with the scenarios.
    pub paradigms: Vec<Paradigm>,
    /// Oracles for ICL variants (ignored unless `paradigms` contains ICL).
    pub oracles: Vec<&'static str>,
    /// Embedding model (or `pubmedbert`) for supervised variants.
    pub model: &'static str,
    /// Vocabulary adaptation for supervised variants.
    pub adapt: &'static str,
}

impl Default for GridSpec {
    fn default() -> Self {
        Self {
            seeds: Vec::new(),
            scales: Vec::new(),
            scenarios: vec![0],
            paradigms: Paradigm::ALL.to_vec(),
            oracles: vec!["gpt-4-sim"],
            model: "glove-chem",
            adapt: "task-oriented",
        }
    }
}

impl GridSpec {
    /// Parses a `key=v1,v2;key=...` grid spec. Keys: `seeds`, `scales`,
    /// `scenarios`, `paradigms`, `oracles`, `model`, `adapt` (singular
    /// forms accepted). Every value is validated here so a bad grid fails
    /// before any work starts.
    pub fn parse(s: &str) -> Result<GridSpec, String> {
        let mut g = GridSpec::default();
        let mut adapt_set = false;
        for part in s.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, vals) =
                part.split_once('=').ok_or_else(|| format!("grid term '{part}' is not key=value"))?;
            let vals: Vec<&str> = vals.split(',').map(str::trim).filter(|v| !v.is_empty()).collect();
            if vals.is_empty() {
                return Err(format!("grid key '{key}' has no values"));
            }
            match key.trim() {
                "seed" | "seeds" => {
                    g.seeds = distinct(
                        "seeds",
                        vals.iter()
                            .map(|v| v.parse().map_err(|_| format!("bad seed {v}")))
                            .collect::<Result<_, _>>()?,
                    )?;
                }
                "scale" | "scales" => {
                    let scales = vals
                        .iter()
                        .map(|v| {
                            let s: f64 = v.parse().map_err(|_| format!("bad scale {v}"))?;
                            // Mirrors the CLI's `--scale` range.
                            if !(s > 0.0 && s <= 4.0) {
                                return Err(format!("scale must be in (0, 4], got {v}"));
                            }
                            Ok(s)
                        })
                        .collect::<Result<_, _>>()?;
                    g.scales = distinct("scales", scales)?;
                }
                "scenario" | "scenarios" => {
                    let scenarios = vals
                        .iter()
                        .map(|v| {
                            let i: usize = v.parse().map_err(|_| format!("bad scenario {v}"))?;
                            if i >= SCENARIOS.len() {
                                return Err(format!(
                                    "scenario {i} out of range (0..{})",
                                    SCENARIOS.len() - 1
                                ));
                            }
                            Ok(i)
                        })
                        .collect::<Result<_, _>>()?;
                    g.scenarios = distinct("scenarios", scenarios)?;
                }
                "paradigm" | "paradigms" => {
                    g.paradigms = if vals == ["all"] {
                        Paradigm::ALL.to_vec()
                    } else {
                        let paradigms = vals.iter().map(|v| Paradigm::parse(v));
                        distinct("paradigms", paradigms.collect::<Result<_, _>>()?)?
                    };
                }
                "oracle" | "oracles" => {
                    let oracles = vals.iter().map(|v| parse_oracle(v));
                    g.oracles = distinct("oracles", oracles.collect::<Result<_, _>>()?)?;
                }
                "model" => g.model = parse_model(vals[0])?,
                "adapt" => {
                    g.adapt = match vals[0] {
                        "none" => "none",
                        "naive" => "naive",
                        "task-oriented" => "task-oriented",
                        other => return Err(format!("unknown adapt '{other}'")),
                    };
                    adapt_set = true;
                }
                other => return Err(format!("unknown grid key '{other}'")),
            }
        }
        // The paper computes task-oriented adaptation only for semantic
        // token embeddings; default the others to their natural setting.
        if !adapt_set {
            g.adapt = match g.model {
                "pubmedbert" => "none",
                "random" => "naive",
                _ => "task-oriented",
            };
        }
        if !supervised::adaptations_for(g.model).contains(&g.adapt) {
            return Err(format!("model {} does not support adapt {}", g.model, g.adapt));
        }
        Ok(g)
    }

    /// The normalised spec string (round-trips through [`GridSpec::parse`]).
    pub fn render(&self) -> String {
        let join =
            |v: Vec<String>| v.join(",");
        let mut parts = Vec::new();
        if !self.seeds.is_empty() {
            parts.push(format!("seeds={}", join(self.seeds.iter().map(|s| s.to_string()).collect())));
        }
        if !self.scales.is_empty() {
            parts.push(format!("scales={}", join(self.scales.iter().map(|s| s.to_string()).collect())));
        }
        parts.push(format!(
            "scenarios={}",
            join(self.scenarios.iter().map(|s| s.to_string()).collect())
        ));
        parts.push(format!(
            "paradigms={}",
            join(self.paradigms.iter().map(|p| p.code().to_string()).collect())
        ));
        if self.paradigms.contains(&Paradigm::Icl) {
            parts.push(format!(
                "oracles={}",
                join(self.oracles.iter().map(|o| o.to_string()).collect())
            ));
        }
        parts.push(format!("model={}", self.model));
        parts.push(format!("adapt={}", self.adapt));
        parts.join(";")
    }

    /// Expands the grid into concrete variants, in deterministic
    /// seed-major order.
    pub fn expand(&self, base: &LabConfig) -> Vec<Variant> {
        let seeds: Vec<u64> = if self.seeds.is_empty() { vec![base.seed] } else { self.seeds.clone() };
        let scales: Vec<f64> =
            if self.scales.is_empty() { vec![base.scale] } else { self.scales.clone() };
        let mut out = Vec::new();
        for &seed in &seeds {
            for &scale in &scales {
                for &scenario in &self.scenarios {
                    for &paradigm in &self.paradigms {
                        if paradigm == Paradigm::Icl {
                            for &oracle in &self.oracles {
                                out.push(Variant {
                                    seed,
                                    scale,
                                    scenario,
                                    paradigm,
                                    oracle: Some(oracle),
                                    model: self.model,
                                    adapt: self.adapt,
                                });
                            }
                        } else {
                            out.push(Variant {
                                seed,
                                scale,
                                scenario,
                                paradigm,
                                oracle: None,
                                model: self.model,
                                adapt: self.adapt,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// One concrete grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Master seed ([`LabConfig::reseed`]).
    pub seed: u64,
    /// Ontology scale.
    pub scale: f64,
    /// Scenario index into [`SCENARIOS`].
    pub scenario: usize,
    /// Which paradigm this variant evaluates.
    pub paradigm: Paradigm,
    /// The oracle, for ICL variants.
    pub oracle: Option<&'static str>,
    /// Embedding model (supervised variants).
    pub model: &'static str,
    /// Vocabulary adaptation (supervised variants).
    pub adapt: &'static str,
}

impl Variant {
    /// Stable human-readable id, e.g. `s7-x0.006-sc0-icl-gpt-4-sim`.
    pub fn id(&self) -> String {
        let mut id = format!("s{}-x{}-sc{}-{}", self.seed, self.scale, self.scenario, self.paradigm.code());
        if let Some(o) = self.oracle {
            id.push('-');
            id.push_str(&o.replace('.', ""));
        }
        id
    }

    /// The full lab config for this variant.
    pub fn config(&self, base: &LabConfig) -> LabConfig {
        let mut cfg = base.clone();
        cfg.scale = self.scale;
        cfg.reseed(self.seed);
        cfg
    }

    /// The series label used in aggregate / significance tables.
    pub fn series(&self) -> String {
        match self.paradigm {
            Paradigm::Supervised => format!("supervised({}/{})", self.model, self.adapt),
            Paradigm::FineTune => "fine-tuning".to_string(),
            Paradigm::Icl => format!("icl({})", self.oracle.unwrap_or("gpt-4-sim")),
        }
    }

    /// Which providers this variant's cells reach (the per-lab union of
    /// these gates provider scheduling).
    fn need(&self) -> ProviderNeed {
        let mut n = ProviderNeed::default();
        match self.paradigm {
            Paradigm::Supervised => {
                if self.model == "pubmedbert" {
                    n.bert = true;
                    n.wordpiece = true;
                } else {
                    n.embeds = vec![self.model];
                }
            }
            Paradigm::FineTune => {
                n.bert = true;
                n.wordpiece = true;
            }
            Paradigm::Icl => {
                if self.oracle == Some("biogpt-mini") {
                    n.biogpt = true;
                    n.wordpiece = true;
                }
            }
        }
        n
    }

    /// The memo keys of this variant's cells (exactly what
    /// [`variant_cells`] schedules, without scheduling anything).
    fn cell_keys(&self) -> Vec<String> {
        let sc = SCENARIOS[self.scenario];
        TaskKind::ALL
            .iter()
            .map(|&t| match self.paradigm {
                Paradigm::Supervised => rf_key(t, sc, self.model, self.adapt),
                Paradigm::FineTune => ft_key(t, sc),
                Paradigm::Icl => icl_key(t, self.oracle.unwrap_or("gpt-4-sim")),
            })
            .collect()
    }

    /// Provider labels this variant's closure reaches under `prefix`
    /// (must mirror [`plan::providers`] label generation).
    fn provider_labels(&self, prefix: &str) -> Vec<String> {
        let need = self.need();
        let mut labels = vec![
            format!("provider:{prefix}ontology"),
            format!("provider:{prefix}corpus-domain"),
            format!("provider:{prefix}corpus-generic"),
        ];
        for t in TaskKind::ALL {
            labels.push(format!("provider:{prefix}task{}", t.number()));
        }
        for m in &need.embeds {
            labels.push(format!("provider:{prefix}embed-{m}"));
        }
        if need.wordpiece || need.bert || need.biogpt {
            labels.push(format!("provider:{prefix}wordpiece"));
        }
        if need.bert {
            labels.push(format!("provider:{prefix}bert"));
        }
        if need.biogpt {
            labels.push(format!("provider:{prefix}biogpt"));
        }
        labels
    }
}

/// One planned job with its cross-variant reference count.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PlannedJob {
    /// Graph label (`provider:…`, `cell:…`, `artifact:…`).
    pub label: String,
    /// Job family: `provider` / `cell` / `artifact`.
    pub kind: &'static str,
    /// How many variants reference this job.
    pub refs: usize,
}

/// The dedup plan: every job the unified graph will contain, with
/// reference counts — computed without building labs' data or running
/// anything, so the `--plan` dry-run and the Criterion plan bench are
/// cheap.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Variant ids, in grid order.
    pub variant_ids: Vec<String>,
    /// Distinct labs ((seed, scale) groups).
    pub labs: usize,
    /// All jobs, in first-reference order.
    pub jobs: Vec<PlannedJob>,
    /// `jobs.len()`.
    pub total_jobs: usize,
    /// Jobs referenced by ≥ 2 variants.
    pub shared_jobs: usize,
    /// Jobs referenced by exactly 1 variant.
    pub unique_jobs: usize,
    /// Variant id → the labels it references (providers + cells + its
    /// artifact), for per-variant cost attribution.
    pub variant_jobs: HashMap<String, Vec<String>>,
}

/// Groups variants into labs by `(seed, scale)`, preserving first-seen
/// order: `(lab key, config, variant indices)`.
fn lab_groups(base: &LabConfig, variants: &[Variant]) -> Vec<(String, LabConfig, Vec<usize>)> {
    let mut groups: Vec<(String, LabConfig, Vec<usize>)> = Vec::new();
    for (i, v) in variants.iter().enumerate() {
        let key = format!("s{}-x{}", v.seed, v.scale);
        match groups.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, _, idxs)) => idxs.push(i),
            None => groups.push((key, v.config(base), vec![i])),
        }
    }
    groups
}

/// The label namespace for one sweep lab: the first 8 hex digits of its
/// config digest plus `/`. Content-derived, so it is stable across
/// resumes (journal labels match) and across sweeps containing the same
/// config.
fn lab_prefix(cfg: &LabConfig) -> String {
    let mut digest = Lab::new(cfg.clone()).shared().config_digest();
    digest.truncate(8);
    digest.push('/');
    digest
}

/// Compiles the dedup plan for a grid. Pure: no training, no I/O.
pub fn plan(base: &LabConfig, grid: &GridSpec) -> SweepPlan {
    let variants = grid.expand(base);
    let groups = lab_groups(base, &variants);
    let mut jobs: Vec<PlannedJob> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut variant_jobs: HashMap<String, Vec<String>> = HashMap::new();
    let mut reference = |jobs: &mut Vec<PlannedJob>, label: String, kind: &'static str| {
        match index.get(&label) {
            Some(&i) => jobs[i].refs += 1,
            None => {
                index.insert(label.clone(), jobs.len());
                jobs.push(PlannedJob { label, kind, refs: 1 });
            }
        }
    };
    for (_, cfg, idxs) in &groups {
        let prefix = lab_prefix(cfg);
        for &vi in idxs {
            let v = &variants[vi];
            let mut mine = Vec::new();
            for label in v.provider_labels(&prefix) {
                reference(&mut jobs, label.clone(), "provider");
                mine.push(label);
            }
            for key in v.cell_keys() {
                let label = format!("cell:{prefix}{key}");
                reference(&mut jobs, label.clone(), "cell");
                mine.push(label);
            }
            let alabel = format!("artifact:{}", v.id());
            reference(&mut jobs, alabel.clone(), "artifact");
            mine.push(alabel);
            variant_jobs.insert(v.id(), mine);
        }
    }
    let total_jobs = jobs.len();
    let shared_jobs = jobs.iter().filter(|j| j.refs >= 2).count();
    let unique_jobs = jobs.iter().filter(|j| j.refs == 1).count();
    SweepPlan {
        variant_ids: variants.iter().map(Variant::id).collect(),
        labs: groups.len(),
        jobs,
        total_jobs,
        shared_jobs,
        unique_jobs,
        variant_jobs,
    }
}

/// A content-addressed digest of the whole sweep (base config + grid),
/// naming the journal run directory — stable across resumes and thread
/// counts.
pub fn grid_digest(base: &LabConfig, grid: &GridSpec) -> String {
    let groups = lab_groups(base, &grid.expand(base));
    let mut text = grid.render();
    for (_, cfg, _) in &groups {
        text.push('\x1f');
        text.push_str(&Lab::new(cfg.clone()).shared().config_digest());
    }
    kcb_util::fnv1a_hex(text.as_bytes())
}

/// One per-task metric row of a variant.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TaskRow {
    /// Task number (1..=3).
    pub task: usize,
    /// Positive-class F1 (ICL: mean across prompt repeats).
    pub f1: f64,
    /// SD of F1 across prompt repeats (ICL only).
    pub f1_sd: Option<f64>,
    /// Fleiss-κ across prompt repeats (ICL only).
    pub kappa: Option<f64>,
}

/// Computes a variant's rows from (warm) lab caches. Runs on the driver
/// thread — the BERT/BioGPT paradigms need the `!Send` checkpoints.
fn compute_rows(lab: &Lab, v: &Variant) -> Vec<TaskRow> {
    let sc = SCENARIOS[v.scenario];
    TaskKind::ALL
        .iter()
        .map(|&t| match v.paradigm {
            Paradigm::Supervised => TaskRow {
                task: t.number(),
                f1: scenarios::scenario_cell(lab, t, sc, v.model, v.adapt),
                f1_sd: None,
                kappa: None,
            },
            Paradigm::FineTune => {
                TaskRow { task: t.number(), f1: scenarios::ft_f1(lab, t, sc), f1_sd: None, kappa: None }
            }
            Paradigm::Icl => {
                let oracle = v.oracle.unwrap_or("gpt-4-sim");
                let stats = if oracle == "biogpt-mini" {
                    scenarios::icl_stats_biogpt(lab, t)
                } else {
                    scenarios::icl_stats_warm(lab.shared(), t, oracle)
                };
                TaskRow { task: t.number(), f1: stats[0], f1_sd: Some(stats[1]), kappa: Some(stats[2]) }
            }
        })
        .collect()
}

/// Assembles the per-variant artifact. Depends only on the variant's own
/// config — never on sweep composition — so a K-variant sweep's artifact
/// is byte-identical to a 1-variant sweep of the same config.
fn variant_artifact(lab: &Lab, v: &Variant) -> Artifact {
    let rows = compute_rows(lab, v);
    let sc = SCENARIOS[v.scenario];
    let mut a = Artifact::new(
        v.id(),
        format!("Sweep variant {} — {} @ scenario {}", v.id(), v.series(), sc.label()),
    );
    let mut t = kcb_util::fmt::Table::new(
        format!("{} — F1 by task", v.series()),
        &["Task", "F1", "F1 sd", "kappa"],
    )
    .numeric_after(1);
    for r in &rows {
        t.row(vec![
            format!("Task {}", r.task),
            metric(r.f1),
            r.f1_sd.map(metric).unwrap_or_else(|| "-".to_string()),
            r.kappa.map(metric).unwrap_or_else(|| "-".to_string()),
        ]);
    }
    a.push_table(t);
    let json_rows: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "task": r.task,
                "f1": r.f1,
                "f1_sd": r.f1_sd,
                "kappa": r.kappa,
            })
        })
        .collect();
    let variant = serde_json::json!({
        "id": v.id(),
        "seed": v.seed,
        "scale": v.scale,
        "scenario": v.scenario,
        "series": v.series(),
    });
    a.set_json(serde_json::json!({
        "variant": variant,
        "rows": serde_json::Value::Array(json_rows),
    }));
    a
}

/// Parses the rows back out of a variant artifact (assembled, or read
/// from the store).
fn rows_from_artifact(a: &Artifact) -> Option<Vec<TaskRow>> {
    let rows = a.json.get("rows")?.as_array()?;
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        out.push(TaskRow {
            task: r.get("task")?.as_u64()? as usize,
            f1: r.get("f1")?.as_f64()?,
            f1_sd: r.get("f1_sd").and_then(|v| v.as_f64()),
            kappa: r.get("kappa").and_then(|v| v.as_f64()),
        });
    }
    Some(out)
}

/// What one variant cost inside the sweep.
#[derive(Debug, Clone, serde::Serialize)]
pub struct VariantOutcome {
    /// The variant id.
    pub id: String,
    /// Series label (paradigm + model/oracle).
    pub series: String,
    /// Master seed.
    pub seed: u64,
    /// Ontology scale.
    pub scale: f64,
    /// Scenario index.
    pub scenario: usize,
    /// Per-task metric rows.
    pub rows: Vec<TaskRow>,
    /// Whether the artifact was read from the checkpoint store instead
    /// of assembled.
    pub replayed: bool,
    /// Jobs this variant references in the unified graph.
    pub jobs: usize,
    /// Of those, jobs shared with at least one other variant.
    pub shared_jobs: usize,
    /// Seconds spent in jobs only this variant references.
    pub exclusive_s: f64,
    /// Seconds attributed by splitting each shared job's time across its
    /// referencing variants (`Σ seconds / refs`).
    pub amortized_s: f64,
}

/// Seed-repeat aggregate for one (scale, scenario, series) group.
#[derive(Debug, Clone, serde::Serialize)]
pub struct GroupAggregate {
    /// Ontology scale.
    pub scale: f64,
    /// Scenario index.
    pub scenario: usize,
    /// Series label.
    pub series: String,
    /// Distinct seeds aggregated.
    pub n_seeds: usize,
    /// Mean F1 per task (1..=3), in task order.
    pub f1_mean: Vec<f64>,
    /// Sample SD of F1 per task across seeds (`None` with one seed).
    pub f1_sd: Vec<Option<f64>>,
    /// Fleiss-κ agreement of decile-quantised F1 across seeds (subjects =
    /// tasks, raters = seeds; `None` with fewer than 2 seeds or
    /// non-finite scores).
    pub fleiss_kappa: Option<f64>,
}

/// Welch t-test between two series within one (scale, scenario).
#[derive(Debug, Clone, serde::Serialize)]
pub struct PairTest {
    /// Ontology scale.
    pub scale: f64,
    /// Scenario index.
    pub scenario: usize,
    /// First series.
    pub a: String,
    /// Second series.
    pub b: String,
    /// Per-(seed, task) samples per side.
    pub n: usize,
    /// Welch t statistic.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Everything a sweep run produced.
pub struct SweepOutcome {
    /// The dedup plan the graph was compiled from.
    pub plan: SweepPlan,
    /// Per-variant outcomes, in grid order.
    pub variants: Vec<VariantOutcome>,
    /// Seed-repeat aggregates (Fleiss-κ), in first-seen group order.
    pub aggregates: Vec<GroupAggregate>,
    /// Pairwise Welch t-tests between series.
    pub tests: Vec<PairTest>,
    /// Distinct labs instantiated.
    pub labs: usize,
    /// End-to-end scheduler wall-clock seconds.
    pub wall_s: f64,
    /// Run report (scheduler + caches summed across labs + journal).
    pub report: PlanReport,
    /// `(variant id, artifact)` in grid order.
    pub artifacts: Vec<(String, Artifact)>,
}

/// Execution knobs for [`run_sweep`].
pub struct SweepSpec {
    /// Scheduler worker threads.
    pub workers: usize,
    /// Run journal (resumable mid-sweep when set).
    pub journal: Option<JournalSpec>,
    /// Persistent checkpoint store shared by every lab.
    pub store: Option<Arc<crate::ckpt::CkptStore>>,
}

/// Schedules a variant's cells through the shared [`Cells`] builder.
fn variant_cells(cells: &mut Cells<'_, '_>, v: &Variant) -> Vec<JobId> {
    TaskKind::ALL
        .iter()
        .map(|&t| match v.paradigm {
            Paradigm::Supervised => cells.scenario_rf(t, v.scenario, v.model, v.adapt),
            Paradigm::FineTune => cells.scenario_ft(t, v.scenario),
            Paradigm::Icl => cells.icl(t, v.oracle.unwrap_or("gpt-4-sim")),
        })
        .collect()
}

/// Compiles the grid into one structure-shared DAG and runs it: the
/// sweep lowering of the shared journaled executor (`experiment::exec`).
/// Variants group into labs by `(seed, scale)`, each lab schedules the
/// union of its variants' provider needs under its digest prefix, and
/// every variant is one target whose cells come from [`variant_cells`].
pub fn run_sweep(base: &LabConfig, grid: &GridSpec, spec: &SweepSpec) -> SweepOutcome {
    let splan = plan(base, grid);
    let variants = grid.expand(base);
    let groups = lab_groups(base, &variants);
    // Lab index per variant, and one lab per (seed, scale) group. Every
    // lab shares the content-addressed store — keys fold seed/scale, so
    // entries never collide across labs.
    let mut owner = vec![0usize; variants.len()];
    for (li, (_, _, idxs)) in groups.iter().enumerate() {
        for &vi in idxs {
            owner[vi] = li;
        }
    }
    let labs: Vec<Lab> = groups
        .iter()
        .map(|(_, cfg, _)| match &spec.store {
            Some(s) => Lab::with_checkpoints(cfg.clone(), Arc::clone(s)),
            None => Lab::new(cfg.clone()),
        })
        .collect();
    let lab_plans: Vec<LabPlan<'_>> = groups
        .iter()
        .zip(&labs)
        .map(|((_, cfg, idxs), lab)| {
            let mut need = ProviderNeed::default();
            for &vi in idxs {
                need.union(&variants[vi].need());
            }
            LabPlan { lab, prefix: lab_prefix(cfg), need }
        })
        .collect();
    let targets = variants
        .iter()
        .zip(&owner)
        .map(|(v, &lab)| {
            let (cells_v, art_v) = (v.clone(), v.clone());
            Target {
                id: v.id(),
                // The id leaves out `model` and `adapt`; the entry key
                // must not.
                key: format!("{v:?}"),
                lab,
                deps: Box::new(move |cells| variant_cells(cells, &cells_v)),
                assemble: Box::new(move |lab| Some(variant_artifact(lab, &art_v))),
            }
        })
        .collect();
    let run = execute(&lab_plans, targets, spec.workers, spec.journal.as_ref());

    // Per-variant outcomes: rows parse back out of the artifact (ones read
    // from the store byte-for-byte), cost attribution splits measured job
    // seconds by the plan's reference counts.
    let report = run.report;
    let seconds: HashMap<&str, f64> =
        report.scheduler.jobs.iter().map(|j| (j.label.as_str(), j.seconds)).collect();
    let refs: HashMap<&str, usize> =
        splan.jobs.iter().map(|j| (j.label.as_str(), j.refs)).collect();
    let outcomes: Vec<VariantOutcome> = variants
        .iter()
        .zip(&owner)
        .map(|(v, &li)| {
            let vid = v.id();
            let rows = run
                .artifacts
                .iter()
                .find(|(id, _)| *id == vid)
                .and_then(|(_, a)| rows_from_artifact(a))
                .unwrap_or_else(|| compute_rows(&labs[li], v));
            let mine = splan.variant_jobs.get(&vid).cloned().unwrap_or_default();
            let (mut exclusive_s, mut amortized_s, mut shared) = (0.0, 0.0, 0usize);
            for label in &mine {
                let r = refs.get(label.as_str()).copied().unwrap_or(1);
                let s = seconds.get(label.as_str()).copied().unwrap_or(0.0);
                if r >= 2 {
                    shared += 1;
                    amortized_s += s / r as f64;
                } else {
                    exclusive_s += s;
                    amortized_s += s;
                }
            }
            VariantOutcome {
                id: vid.clone(),
                series: v.series(),
                seed: v.seed,
                scale: v.scale,
                scenario: v.scenario,
                rows,
                replayed: run.replayed.contains(&format!("artifact:{vid}")),
                jobs: mine.len(),
                shared_jobs: shared,
                exclusive_s,
                amortized_s,
            }
        })
        .collect();

    let aggregates = aggregate(&outcomes);
    let tests = significance(&outcomes);
    SweepOutcome {
        plan: splan,
        variants: outcomes,
        aggregates,
        tests,
        labs: labs.len(),
        wall_s: report.scheduler.wall_seconds,
        report,
        artifacts: run.artifacts,
    }
}

/// Quantises an F1 into one of 11 decile categories for Fleiss-κ.
fn decile(f1: f64) -> usize {
    (f1.clamp(0.0, 1.0) * 10.0).round() as usize
}

fn sample_sd(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    Some(var.sqrt())
}

/// Aggregates variant outcomes across seeds: mean/SD per task plus the
/// paper's Fleiss-κ agreement (subjects = tasks, raters = seeds,
/// categories = decile-quantised F1).
pub fn aggregate(outcomes: &[VariantOutcome]) -> Vec<GroupAggregate> {
    // Group key in first-seen order: (scale, scenario, series).
    let mut order: Vec<(f64, usize, String)> = Vec::new();
    let mut by_group: HashMap<String, Vec<&VariantOutcome>> = HashMap::new();
    for o in outcomes {
        let key = format!("{}|{}|{}", o.scale, o.scenario, o.series);
        if !by_group.contains_key(&key) {
            order.push((o.scale, o.scenario, o.series.clone()));
        }
        by_group.entry(key).or_default().push(o);
    }
    order
        .into_iter()
        .map(|(scale, scenario, series)| {
            let key = format!("{scale}|{scenario}|{series}");
            let members = &by_group[&key];
            let seeds: HashSet<u64> = members.iter().map(|o| o.seed).collect();
            let n_tasks = members[0].rows.len();
            let mut f1_mean = Vec::with_capacity(n_tasks);
            let mut f1_sd = Vec::with_capacity(n_tasks);
            // answers[task] = one decile rating per seed (rater).
            let mut answers: Vec<Vec<usize>> = vec![Vec::new(); n_tasks];
            let mut finite = true;
            for ti in 0..n_tasks {
                let xs: Vec<f64> = members.iter().map(|o| o.rows[ti].f1).collect();
                finite &= xs.iter().all(|x| x.is_finite());
                f1_mean.push(xs.iter().sum::<f64>() / xs.len() as f64);
                f1_sd.push(sample_sd(&xs));
                answers[ti] = xs.iter().map(|&x| decile(x)).collect();
            }
            let fleiss = (seeds.len() >= 2 && members.len() == seeds.len() && finite)
                .then(|| fleiss_kappa(&ratings_from_answers(&answers, 11)));
            GroupAggregate {
                scale,
                scenario,
                series,
                n_seeds: seeds.len(),
                f1_mean,
                f1_sd,
                fleiss_kappa: fleiss,
            }
        })
        .collect()
}

/// Welch t-tests between every pair of series within one (scale,
/// scenario), over per-(seed, task) F1 samples. Pairs without enough
/// samples (or zero variance) are skipped — `welch_t_test` returns
/// `None` there.
pub fn significance(outcomes: &[VariantOutcome]) -> Vec<PairTest> {
    /// Per-series F1 samples, keyed by series name.
    type SeriesSamples = Vec<(String, Vec<f64>)>;
    let mut cells: Vec<((f64, usize), SeriesSamples)> = Vec::new();
    for o in outcomes {
        let ck = (o.scale, o.scenario);
        let samples: Vec<f64> = o.rows.iter().map(|r| r.f1).collect();
        let slot = match cells.iter_mut().find(|(k, _)| *k == ck) {
            Some((_, s)) => s,
            None => {
                cells.push((ck, Vec::new()));
                &mut cells.last_mut().expect("just pushed").1
            }
        };
        match slot.iter_mut().find(|(series, _)| *series == o.series) {
            Some((_, xs)) => xs.extend(samples),
            None => slot.push((o.series.clone(), samples)),
        }
    }
    let mut out = Vec::new();
    for ((scale, scenario), series) in &cells {
        for i in 0..series.len() {
            for j in (i + 1)..series.len() {
                let (ref a, ref xa) = series[i];
                let (ref b, ref xb) = series[j];
                if let Some(t) = welch_t_test(xa, xb) {
                    out.push(PairTest {
                        scale: *scale,
                        scenario: *scenario,
                        a: a.clone(),
                        b: b.clone(),
                        n: xa.len().min(xb.len()),
                        t: t.t,
                        df: t.df,
                        p_value: t.p_value,
                    });
                }
            }
        }
    }
    out
}

/// Sequential baseline: runs every variant in its own fresh lab (no
/// store, no journal, no cross-variant sharing) and returns per-variant
/// `(id, rows, seconds)` plus the total wall. This is exactly the cost a
/// user pays today for K single runs — the denominator of the sweep's
/// speedup claim.
pub fn run_sequential(base: &LabConfig, grid: &GridSpec) -> (Vec<(String, Vec<TaskRow>, f64)>, f64) {
    let variants = grid.expand(base);
    let t0 = std::time::Instant::now();
    let mut out = Vec::with_capacity(variants.len());
    for v in &variants {
        let vt0 = std::time::Instant::now();
        let lab = Lab::new(v.config(base));
        let rows = compute_rows(&lab, v);
        out.push((v.id(), rows, vt0.elapsed().as_secs_f64()));
    }
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LabConfig {
        LabConfig::tiny()
    }

    #[test]
    fn grid_spec_parses_and_round_trips() {
        let g = GridSpec::parse("seeds=7,8;scenarios=0,2;paradigms=supervised,icl;oracles=gpt4;model=random")
            .unwrap();
        assert_eq!(g.seeds, vec![7, 8]);
        assert_eq!(g.scenarios, vec![0, 2]);
        assert_eq!(g.paradigms, vec![Paradigm::Supervised, Paradigm::Icl]);
        assert_eq!(g.oracles, vec!["gpt-4-sim"]);
        assert_eq!(g.model, "random");
        // model=random defaults adapt to naive.
        assert_eq!(g.adapt, "naive");
        let again = GridSpec::parse(&g.render()).unwrap();
        assert_eq!(again, g);
    }

    #[test]
    fn grid_spec_rejects_bad_terms() {
        for bad in [
            "seeds=x",
            "scales=0",
            "scales=9",
            "scenarios=5",
            "paradigms=zen",
            "oracles=claude",
            "model=elmo",
            "adapt=frob",
            "model=pubmedbert;adapt=task-oriented",
            "frobnicate=1",
            "seeds",
            "seeds=7,7",
            "scales=0.5,0.50",
            "scenarios=0,0;paradigms=sup",
            "paradigms=sup,supervised",
            "paradigms=icl;oracles=gpt4,gpt-4",
        ] {
            assert!(GridSpec::parse(bad).is_err(), "accepted {bad}");
        }
        // pubmedbert without explicit adapt defaults to none.
        assert_eq!(GridSpec::parse("model=pubmedbert").unwrap().adapt, "none");
    }

    /// Candidate values per grid key, valid and not, with aliases and
    /// spellings that parse to one value.
    const GRID_TERMS: &[(&str, &[&str])] = &[
        ("seeds", &["0", "1", "7", "42", "18446744073709551615", "x", "-1"]),
        ("seed", &["3", "3"]),
        ("scales", &["0.006", "0.5", "0.50", "1", "1.0", "4", "4.5", "0", "nan"]),
        ("scenarios", &["0", "1", "2", "3", "4", "5", "01"]),
        ("paradigms", &["sup", "supervised", "ft", "finetune", "icl", "all", "zen"]),
        ("oracles", &["gpt4", "gpt-4", "gpt35", "llama2", "biogpt", "palm"]),
        ("model", &["random", "glove", "w2v-chem", "pubmedbert", "elmo"]),
        ("adapt", &["none", "naive", "task-oriented", "frob"]),
        ("frob", &["1"]),
    ];

    /// A grid spec from `(key, value picks)` terms.
    fn grid_text(terms: &[(usize, Vec<usize>)]) -> String {
        let terms = terms.iter().map(|(k, picks)| {
            let (key, vals) = GRID_TERMS[k % GRID_TERMS.len()];
            let vals: Vec<&str> = picks.iter().map(|p| vals[p % vals.len()]).collect();
            format!("{key}={}", vals.join(","))
        });
        terms.collect::<Vec<_>>().join(";")
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn grid_specs_parse_strictly_and_expand_to_distinct_ids(
            terms in proptest::prop::collection::vec(
                (0usize..64, proptest::prop::collection::vec(0usize..64, 1..4)),
                0..6,
            ),
            noise in "[a-z0-9=;,. -]{0,40}",
        ) {
            let _ = GridSpec::parse(&noise);
            let Ok(g) = GridSpec::parse(&grid_text(&terms)) else { return Ok(()) };
            proptest::prop_assert_eq!(GridSpec::parse(&g.render()), Ok(g.clone()));
            let ids: Vec<String> = g.expand(&tiny()).iter().map(Variant::id).collect();
            let distinct: HashSet<&String> = ids.iter().collect();
            proptest::prop_assert_eq!(distinct.len(), ids.len(), "repeated variant ids: {:?}", ids);
        }
    }

    #[test]
    fn expansion_crosses_the_axes_in_order() {
        let g = GridSpec::parse("seeds=1,2;scenarios=0,1;paradigms=sup,icl;oracles=gpt4,biogpt")
            .unwrap();
        let vs = g.expand(&tiny());
        // 2 seeds × 2 scenarios × (1 supervised + 2 icl oracles) = 12.
        assert_eq!(vs.len(), 12);
        assert_eq!(vs[0].id(), "s1-x0.006-sc0-sup");
        assert_eq!(vs[1].id(), "s1-x0.006-sc0-icl-gpt-4-sim");
        assert_eq!(vs[2].id(), "s1-x0.006-sc0-icl-biogpt-mini");
        let ids: HashSet<String> = vs.iter().map(Variant::id).collect();
        assert_eq!(ids.len(), 12, "variant ids must be unique");
    }

    #[test]
    fn plan_shares_providers_and_scenario_independent_icl_cells() {
        let base = tiny();
        let g = GridSpec::parse("seeds=7;scenarios=0,1;paradigms=sup,icl;model=random").unwrap();
        let p = plan(&base, &g);
        assert_eq!(p.variant_ids.len(), 4);
        assert_eq!(p.labs, 1, "one (seed, scale) group = one lab");
        // Providers are referenced by all 4 variants; the ICL cells are
        // scenario-independent, so both ICL variants share all 3.
        let ontology = p.jobs.iter().find(|j| j.label.ends_with("ontology")).unwrap();
        assert_eq!(ontology.refs, 4);
        let icl_cells: Vec<_> = p.jobs.iter().filter(|j| j.label.contains("cell:") && j.label.contains("icl|")).collect();
        assert_eq!(icl_cells.len(), 3);
        assert!(icl_cells.iter().all(|j| j.refs == 2));
        assert!(p.shared_jobs > 0);
        assert_eq!(p.shared_jobs + p.unique_jobs, p.total_jobs);
        // Two labs when seeds differ; their jobs are disjoint by prefix.
        let g2 = GridSpec::parse("seeds=7,8;scenarios=0;paradigms=sup;model=random").unwrap();
        let p2 = plan(&base, &g2);
        assert_eq!(p2.labs, 2);
        assert_eq!(p2.shared_jobs, 0, "different seeds share nothing");
    }

    #[test]
    fn grid_digest_is_stable_and_thread_independent() {
        let g = GridSpec::parse("seeds=7;paradigms=sup;model=random").unwrap();
        let mut a = tiny();
        let mut b = tiny();
        a.rf.n_threads = 1;
        b.rf.n_threads = 8;
        assert_eq!(grid_digest(&a, &g), grid_digest(&b, &g));
        let g2 = GridSpec::parse("seeds=8;paradigms=sup;model=random").unwrap();
        assert_ne!(grid_digest(&a, &g), grid_digest(&a, &g2));
    }

    #[test]
    fn sweep_runs_and_matches_sequential_rows() {
        let base = tiny();
        let g = GridSpec::parse("seeds=7;scenarios=0,1;paradigms=sup,icl;model=random").unwrap();
        let spec = SweepSpec { workers: 2, journal: None, store: None };
        let outcome = run_sweep(&base, &g, &spec);
        assert_eq!(outcome.variants.len(), 4);
        assert_eq!(outcome.artifacts.len(), 4);
        // The executed graph must contain exactly the planned labels.
        let planned: HashSet<&str> = outcome.plan.jobs.iter().map(|j| j.label.as_str()).collect();
        let executed: HashSet<&str> =
            outcome.report.scheduler.jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(planned, executed);
        // Rows match K fresh sequential runs bit-for-bit.
        let (seq, _) = run_sequential(&base, &g);
        for (o, (sid, srows, _)) in outcome.variants.iter().zip(&seq) {
            assert_eq!(&o.id, sid);
            assert_eq!(&o.rows, srows, "sweep rows diverge for {sid}");
        }
        // Attribution: every variant touches at least one shared job
        // (providers), and the sums are finite.
        for o in &outcome.variants {
            assert!(o.shared_jobs > 0, "{} shares nothing", o.id);
            assert!(o.exclusive_s.is_finite() && o.amortized_s >= 0.0);
        }
        // ICL cells are scenario-independent: both scenarios' ICL
        // variants carry identical rows.
        let icl: Vec<_> =
            outcome.variants.iter().filter(|o| o.series.starts_with("icl")).collect();
        assert_eq!(icl.len(), 2);
        assert_eq!(icl[0].rows, icl[1].rows);
    }

    #[test]
    fn unjournaled_sweep_saves_derived_results_for_the_next_run() {
        let dir = std::env::temp_dir().join(format!("kcb-sweep-nojournal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = GridSpec::parse("seeds=7;scenarios=0,1;paradigms=sup;model=random;adapt=naive")
            .unwrap();
        // A fresh store handle per run, as two processes would open it.
        let run = || {
            let store = Arc::new(crate::ckpt::CkptStore::open(&dir));
            run_sweep(&tiny(), &g, &SweepSpec { workers: 1, journal: None, store: Some(store) })
        };
        let cold = run();
        assert!(cold.report.cache.memo_misses > 0);
        let warm = run();
        assert!(warm.variants.iter().all(|v| v.replayed), "every variant entry was saved");
        // Without the variant entries, the derived results saved by the
        // unjournaled assemblies still spare every recompute.
        for e in std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()) {
            if e.file_name().unwrap().to_string_lossy().starts_with("artifact-") {
                std::fs::remove_file(e).unwrap();
            }
        }
        let reassembled = run();
        assert_eq!(reassembled.report.cache.memo_misses, 0, "second unjournaled sweep recomputed");
        for ((c, w), r) in cold.variants.iter().zip(&warm.variants).zip(&reassembled.variants) {
            assert_eq!(c.rows, w.rows);
            assert_eq!(c.rows, r.rows);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn variant_entries_are_keyed_by_model() {
        // Two grids that differ only in `model`: their variant ids
        // coincide, so an entry keyed by the id would hand the first
        // sweep's rows to the second.
        let root = std::env::temp_dir().join(format!("kcb-sweep-model-key-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let run = |store: &str, model: &str| {
            let spec = format!("seeds=7;scenarios=0;paradigms=sup;adapt=naive;model={model}");
            let store = Arc::new(crate::ckpt::CkptStore::open(root.join(store)));
            let g = GridSpec::parse(&spec).unwrap();
            run_sweep(&tiny(), &g, &SweepSpec { workers: 1, journal: None, store: Some(store) })
        };
        let first = run("shared", "random");
        let second = run("shared", "glove");
        let fresh = run("fresh", "glove");
        assert_eq!(first.variants[0].id, second.variants[0].id);
        assert!(!second.variants[0].replayed, "the glove variant read the random one's entry");
        assert_eq!(second.variants[0].rows, fresh.variants[0].rows);
        assert_ne!(second.variants[0].rows, first.variants[0].rows);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn aggregates_and_significance_over_seed_repeats() {
        let mk = |seed: u64, series: &str, f1: &[f64]| VariantOutcome {
            id: format!("s{seed}-{series}"),
            series: series.to_string(),
            seed,
            scale: 0.006,
            scenario: 0,
            rows: f1
                .iter()
                .enumerate()
                .map(|(i, &x)| TaskRow { task: i + 1, f1: x, f1_sd: None, kappa: None })
                .collect(),
            replayed: false,
            jobs: 0,
            shared_jobs: 0,
            exclusive_s: 0.0,
            amortized_s: 0.0,
        };
        let outcomes = vec![
            mk(1, "supervised(random/naive)", &[0.8, 0.7, 0.6]),
            mk(2, "supervised(random/naive)", &[0.82, 0.71, 0.62]),
            mk(1, "icl(gpt-4-sim)", &[0.9, 0.88, 0.91]),
            mk(2, "icl(gpt-4-sim)", &[0.89, 0.9, 0.92]),
        ];
        let aggs = aggregate(&outcomes);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].n_seeds, 2);
        assert!((aggs[0].f1_mean[0] - 0.81).abs() < 1e-12);
        assert!(aggs[0].f1_sd[0].unwrap() > 0.0);
        // Near-identical deciles across seeds → high agreement.
        let k = aggs[0].fleiss_kappa.expect("two seeds give kappa");
        assert!(k.is_finite());
        let tests = significance(&outcomes);
        assert_eq!(tests.len(), 1);
        assert_eq!(tests[0].n, 6);
        assert!(tests[0].p_value < 0.05, "clearly separated groups: {}", tests[0].p_value);
    }

    #[test]
    fn single_seed_groups_get_no_kappa_or_tests_with_flat_variance() {
        let o = VariantOutcome {
            id: "x".into(),
            series: "fine-tuning".into(),
            seed: 1,
            scale: 0.006,
            scenario: 0,
            rows: vec![TaskRow { task: 1, f1: 0.5, f1_sd: None, kappa: None }],
            replayed: false,
            jobs: 0,
            shared_jobs: 0,
            exclusive_s: 0.0,
            amortized_s: 0.0,
        };
        let aggs = aggregate(std::slice::from_ref(&o));
        assert_eq!(aggs[0].n_seeds, 1);
        assert!(aggs[0].fleiss_kappa.is_none());
        assert!(aggs[0].f1_sd[0].is_none());
        assert!(significance(std::slice::from_ref(&o)).is_empty());
    }
}
