//! The artifact cell DAG: decomposes the requested tables/figures into
//! provider jobs (ontology, datasets, corpora, embeddings, LM
//! checkpoints), warm cells keyed by `(artifact-family, paradigm, task,
//! scenario, model, adaptation)`, and one driver-side assembly job per
//! artifact. [`run_scheduled_with`] is the one-lab lowering of the shared
//! journaled executor (`experiment::exec`), which runs the graph on the
//! [`crate::sched`] work-stealing scheduler.
//!
//! Warm cells populate the [`crate::lab::Shared`] memo caches (forest
//! runs, LSTM runs, scenario scores, the triple-encoding cache); the
//! assembly jobs then re-run the ordinary [`crate::experiment::run`]
//! runners, which hit those caches and emit artifacts in the *same
//! canonical order and bytes* at any worker count — every cached value is
//! a pure function of the lab seed, never of scheduling. Cells shared by
//! several artifacts (e.g. the fine-tuned-BERT series of Figures 3/A2, or
//! the Task-1 forest grid reused by Tables 3a/A7 and Figures 2/A1) are
//! deduplicated by key, so requesting `all` runs each cell exactly once.
//!
//! Anything touching the `Rc`-autograd MiniBERT/BioGPT checkpoints
//! (PubmedBERT forest cells, fine-tuning, BioGPT prompting) is pushed as
//! a driver-only job; everything else fans out to worker threads.

use super::exec::{execute, LabPlan, Target};
use super::{scenarios, supervised};
use crate::dataset::{Scenario, SCENARIOS};
use crate::journal;
use crate::lab::{Lab, Shared, EMBEDDING_NAMES};
use crate::report::Artifact;
use crate::sched::{Graph, JobId, RunReport};
use crate::task::TaskKind;
use std::collections::HashMap;
use std::path::PathBuf;

/// What a scheduled run did, for `results/run_meta.json`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PlanReport {
    /// Scheduler execution record (per-job timings, steals, wall time).
    pub scheduler: RunReport,
    /// Lab memo-cache counters (memoised scores and forest runs).
    pub cache: crate::lab::CacheStats,
    /// Triple-encoding cache: `(hits, misses)` row lookups.
    pub encoding_hits: usize,
    /// See `encoding_hits`.
    pub encoding_misses: usize,
    /// Distinct triple vectors cached across all encoders.
    pub encoding_entries: usize,
    /// Encoding-cache shard-lock acquisitions that found the lock held.
    pub encoding_contended: usize,
    /// Persistent checkpoint lookups this run, in order (empty when the
    /// lab has no store attached).
    pub checkpoints: Vec<crate::ckpt::CkptEvent>,
    /// What the run journal did, plus the targets read from the store
    /// (`replayed`, counted with or without a journal).
    pub journal: JournalStats,
}

/// Journal activity of one scheduled run, for `run_meta.json` and the
/// run-index manifest.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct JournalStats {
    /// Whether a journal was attached to this run.
    pub enabled: bool,
    /// Completion records appended (and fsynced) by this run.
    pub appended: u64,
    /// Targets read from the checkpoint store instead of assembled: an
    /// artifact or sweep variant whose entry an earlier run saved, and
    /// none of whose cells this run schedules.
    pub replayed: u64,
    /// Whether this run resumed an unfinished journal: it held records,
    /// and at least one requested artifact was neither committed in it
    /// nor stored.
    pub resume: bool,
    /// Damaged-suffix warnings emitted while loading the journal.
    pub warnings: u64,
}

/// Journal attachment for a scheduled run.
pub struct JournalSpec {
    /// The run directory, `results/runs/<config-digest>/`.
    pub dir: PathBuf,
    /// Injected fault, checked after each journaled completion.
    pub fault: Option<journal::FaultPlan>,
}

/// Which providers one graph instantiation actually schedules. The full
/// artifact path wants everything ([`ProviderNeed::all`]); the sweep
/// compiler unions the (much smaller) per-variant needs so a lab whose
/// variants never touch an LM never schedules its training job.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProviderNeed {
    /// Embedding providers to schedule, by table name.
    pub embeds: Vec<&'static str>,
    /// Schedule the canonical 9:1 split providers?
    pub splits: bool,
    /// Schedule the WordPiece provider?
    pub wordpiece: bool,
    /// Schedule mini-BERT pretraining (implies `wordpiece`)?
    pub bert: bool,
    /// Schedule BioGPT-mini pretraining (implies `wordpiece`)?
    pub biogpt: bool,
}

impl ProviderNeed {
    /// Everything — the single-run artifact path.
    pub fn all() -> Self {
        Self {
            embeds: EMBEDDING_NAMES.to_vec(),
            splits: true,
            wordpiece: true,
            bert: true,
            biogpt: true,
        }
    }

    /// Folds another need into this one (sweep labs union their variants).
    pub fn union(&mut self, other: &ProviderNeed) {
        for e in &other.embeds {
            if !self.embeds.contains(e) {
                self.embeds.push(e);
            }
        }
        self.splits |= other.splits;
        self.wordpiece |= other.wordpiece || other.bert || other.biogpt;
        self.bert |= other.bert;
        self.biogpt |= other.biogpt;
    }
}

/// Per-job input provenance, collected while the graph is built and
/// written into each journal completion record: providers record their
/// own content-addressed checkpoint key, cells and assemblies record the
/// config digest plus each dependency's content key. `repro runs diff`
/// reads these back to say *which* inputs changed between two runs.
#[derive(Debug, Default)]
pub(crate) struct Provenance {
    /// Provider label → its own content key.
    content: HashMap<String, String>,
    /// Job label → journal input entries (`name=key`).
    inputs: HashMap<String, Vec<String>>,
}

impl Provenance {
    /// Records a provider job: its content key (falling back to the
    /// config digest for providers without one) is both its own input
    /// entry and what consumers fold into theirs.
    fn provider(&mut self, label: &str, key: Option<String>, cfg_digest: &str) {
        let key = key.unwrap_or_else(|| cfg_digest.to_string());
        self.inputs.insert(label.to_string(), vec![format!("self={key}")]);
        self.content.insert(label.to_string(), key);
    }

    /// Records a cell or assembly job: the config digest plus one entry
    /// per dependency (`dep-label=content-key`; `-` for dependencies that
    /// have no content key of their own, e.g. other cells).
    pub(crate) fn job<S: AsRef<str>>(&mut self, label: &str, cfg_digest: &str, dep_labels: &[S]) {
        let mut v = vec![format!("cfg={cfg_digest}")];
        for d in dep_labels {
            let d = d.as_ref();
            let key = self.content.get(d).map(String::as_str).unwrap_or("-");
            v.push(format!("{d}={key}"));
        }
        self.inputs.insert(label.to_string(), v);
    }

    /// The journal input entries for a label (empty when unrecorded).
    pub fn inputs_of(&self, label: &str) -> &[String] {
        self.inputs.get(label).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Provider job ids shared by every artifact. Providers outside the
/// instantiating [`ProviderNeed`] are `None`; the accessors panic if a
/// cell asks for a provider its need never declared.
pub(crate) struct Providers {
    ontology: JobId,
    task: [JobId; 3],
    split: Option<[JobId; 3]>,
    embed: HashMap<&'static str, JobId>,
    wordpiece: Option<JobId>,
    bert: Option<JobId>,
    biogpt: Option<JobId>,
}

impl Providers {
    fn ontology(&self) -> JobId {
        self.ontology
    }

    fn task(&self, i: usize) -> JobId {
        self.task[i]
    }

    fn split(&self, i: usize) -> JobId {
        self.split.expect("split providers not planned")[i]
    }

    fn splits(&self) -> Vec<JobId> {
        self.split.expect("split providers not planned").to_vec()
    }

    fn embed(&self, name: &str) -> JobId {
        *self.embed.get(name).unwrap_or_else(|| panic!("embed provider {name} not planned"))
    }

    fn embeds(&self) -> Vec<JobId> {
        self.embed.values().copied().collect()
    }

    fn wordpiece(&self) -> JobId {
        self.wordpiece.expect("wordpiece provider not planned")
    }

    fn bert(&self) -> JobId {
        self.bert.expect("bert provider not planned")
    }

    fn biogpt(&self) -> JobId {
        self.biogpt.expect("biogpt provider not planned")
    }
}

/// Schedules the provider jobs a need declares, labelled
/// `provider:<prefix><name>`. The ontology, corpora and task datasets are
/// always present (corpora degrade to no-op jobs when nothing trains);
/// splits, embeddings and the LMs appear only when needed. The empty
/// prefix reproduces the single-run graph byte-for-byte; the sweep
/// compiler namespaces each lab's providers by a config-digest prefix so
/// journal labels stay stable across resumes.
pub(crate) fn providers<'a>(
    g: &mut Graph<'a>,
    lab: &'a Lab,
    prefix: &str,
    need: &ProviderNeed,
    provenance: &mut Provenance,
) -> Providers {
    let shared: &'a Shared = lab.shared();
    let cfg_digest = shared.config_digest();

    // Cache-aware DAG pruning: freshness is probed *once, at graph-build
    // time*. A provider whose checkpoint is known-fresh becomes a
    // dependency-free no-op job (kept in the graph so timelines and
    // run_meta keep their labels) that only counts the skip; the first
    // consumer decodes lazily — with the raw mmap containers that decode
    // is a borrow, and artifact subsets that never touch the provider pay
    // nothing at all. Pruning the edges (not just the job bodies) also
    // lets the corpus generators be skipped whenever every trained
    // consumer is fresh, which is every warm run — not just `--fast`.
    let wp_fresh = shared.provider_fresh("wordpiece");
    // The LM keys fold in the WordPiece vocabulary size, so probing them
    // materialises WordPiece. Only probe when that materialisation is a
    // cheap checkpoint decode — a cold run must never train WordPiece
    // serially at plan time.
    let bert_fresh = wp_fresh && lab.provider_fresh("lm-bert");
    let biogpt_fresh = wp_fresh && lab.provider_fresh("lm-biogpt");
    let embed_fresh: HashMap<&'static str, bool> = need
        .embeds
        .iter()
        .map(|&n| (n, n != "random" && shared.provider_fresh(&format!("embed-{n}"))))
        .collect();
    let any_embed_training = need.embeds.iter().any(|&n| n != "random" && !embed_fresh[n]);
    // The corpora exist only to feed trainers; when every trainer that
    // reads them is fresh (or out of scope for this need), generating
    // them eagerly is pure waste.
    let wp_training = need.wordpiece && !wp_fresh;
    let bert_training = need.bert && !bert_fresh;
    let biogpt_training = need.biogpt && !biogpt_fresh;
    let domain_needed = any_embed_training || wp_training || bert_training || biogpt_training;
    let generic_needed = any_embed_training || bert_training;

    let record = |provenance: &mut Provenance, label: &str, name: &str| {
        provenance.provider(label, shared.provider_input_key(name), &cfg_digest);
    };

    let olabel = format!("provider:{prefix}ontology");
    record(provenance, &olabel, "ontology");
    let ontology = g.add_par(olabel, &[], move || {
        shared.ontology();
    });
    let dlabel = format!("provider:{prefix}corpus-domain");
    record(provenance, &dlabel, "corpus-domain");
    let domain = if domain_needed {
        g.add_par(dlabel, &[ontology], move || {
            shared.domain_sentences();
        })
    } else {
        g.add_par(dlabel, &[], move || {
            shared.note_provider_skip();
        })
    };
    let glabel = format!("provider:{prefix}corpus-generic");
    record(provenance, &glabel, "corpus-generic");
    let generic = if generic_needed {
        g.add_par(glabel, &[], move || {
            shared.generic_sentences();
        })
    } else {
        g.add_par(glabel, &[], move || {
            shared.note_provider_skip();
        })
    };
    let task: [JobId; 3] = TaskKind::ALL.map(|t| {
        let label = format!("provider:{prefix}task{}", t.number());
        record(provenance, &label, &format!("task{}", t.number()));
        g.add_par(label, &[ontology], move || {
            shared.task(t);
        })
    });
    let split: Option<[JobId; 3]> = need.splits.then(|| {
        [0, 1, 2].map(|i| {
            let t = TaskKind::ALL[i];
            let label = format!("provider:{prefix}split{}", t.number());
            record(provenance, &label, &format!("split{}", t.number()));
            g.add_par(label, &[task[i]], move || {
                shared.split(t);
            })
        })
    });
    let mut embed = HashMap::new();
    for name in need.embeds.iter().copied() {
        let fresh = embed_fresh[name];
        let deps: &[JobId] =
            if name == "random" || fresh { &[] } else { &[domain, generic] };
        let label = format!("provider:{prefix}embed-{name}");
        record(provenance, &label, &format!("embed-{name}"));
        let id = g.add_par(label, deps, move || {
            if fresh {
                shared.note_provider_skip();
            } else {
                shared.embedding(name);
            }
        });
        embed.insert(name, id);
    }
    let wordpiece = (need.wordpiece || need.bert || need.biogpt).then(|| {
        let wp_deps: &[JobId] = if wp_fresh { &[] } else { &[domain] };
        let label = format!("provider:{prefix}wordpiece");
        record(provenance, &label, "wordpiece");
        g.add_par(label, wp_deps, move || {
            if wp_fresh {
                shared.note_provider_skip();
            } else {
                shared.wordpiece();
            }
        })
    });
    let bert = need.bert.then(|| {
        let wp = wordpiece.expect("bert implies wordpiece");
        let bert_deps: &[JobId] = if bert_fresh { &[] } else { &[wp, domain, generic] };
        let label = format!("provider:{prefix}bert");
        record(provenance, &label, "bert");
        g.add_driver(label, bert_deps, move || {
            if bert_fresh {
                lab.shared().note_provider_skip();
            } else {
                lab.bert();
            }
        })
    });
    let biogpt = need.biogpt.then(|| {
        let wp = wordpiece.expect("biogpt implies wordpiece");
        let biogpt_deps: &[JobId] = if biogpt_fresh { &[] } else { &[wp, domain] };
        let label = format!("provider:{prefix}biogpt");
        record(provenance, &label, "biogpt");
        g.add_driver(label, biogpt_deps, move || {
            if biogpt_fresh {
                lab.shared().note_provider_skip();
            } else {
                lab.biogpt();
            }
        })
    });
    Providers { ontology, task, split, embed, wordpiece, bert, biogpt }
}

/// Builds warm cells for one artifact id and returns the assembly deps.
/// Cells are deduplicated across artifacts through `keyed`.
pub(crate) struct Cells<'g, 'a> {
    pub g: &'g mut Graph<'a>,
    pub keyed: &'g mut HashMap<String, JobId>,
    pub lab: &'a Lab,
    pub shared: &'a Shared,
    pub prov: &'g Providers,
    /// Label namespace (empty for single runs, `<digest8>/` per sweep lab).
    pub prefix: &'g str,
    /// Input-provenance collector for journal records.
    pub provenance: &'g mut Provenance,
    /// The lab's config digest, folded into every cell's provenance.
    pub cfg_digest: &'g str,
}

impl<'a> Cells<'_, 'a> {
    fn dedup(&mut self, key: String, deps: &[JobId], f: CellClosure<'a>) -> JobId {
        if let Some(&id) = self.keyed.get(&key) {
            return id;
        }
        let label = format!("cell:{}{key}", self.prefix);
        let dep_labels: Vec<String> =
            deps.iter().map(|&d| self.g.label_of(d).to_string()).collect();
        self.provenance.job(&label, self.cfg_digest, &dep_labels);
        let id = match f {
            CellClosure::Par(f) => self.g.add_par(label, deps, f),
            CellClosure::Driver(f) => self.g.add_driver(label, deps, f),
        };
        self.keyed.insert(key, id);
        id
    }

    fn forest(&mut self, task: TaskKind, model: &'static str, adapt: &'static str) -> JobId {
        let key = format!("forest|{}|{model}|{adapt}", task.number());
        if model == "pubmedbert" {
            let lab = self.lab;
            let deps = [self.prov.split(task.number() - 1), self.prov.bert()];
            self.dedup(key, &deps, CellClosure::Driver(Box::new(move || {
                lab.forest_run(task, model, adapt);
            })))
        } else {
            let shared = self.shared;
            let deps = [self.prov.split(task.number() - 1), self.prov.embed(model)];
            self.dedup(key, &deps, CellClosure::Par(Box::new(move || {
                shared.forest_run(task, model, adapt);
            })))
        }
    }

    fn lstm(&mut self, model: &'static str) -> JobId {
        let shared = self.shared;
        let deps = [self.prov.split(0), self.prov.embed(model)];
        self.dedup(format!("lstm|{model}"), &deps, CellClosure::Par(Box::new(move || {
            shared.lstm_run(model);
        })))
    }

    pub(crate) fn scenario_rf(
        &mut self,
        task: TaskKind,
        sc_index: usize,
        model: &'static str,
        adapt: &'static str,
    ) -> JobId {
        let sc = SCENARIOS[sc_index];
        let key = rf_key(task, sc, model, adapt);
        if model == "pubmedbert" {
            let lab = self.lab;
            let deps = [self.prov.task(task.number() - 1), self.prov.bert()];
            self.dedup(key, &deps, CellClosure::Driver(Box::new(move || {
                scenarios::rf_f1_pubmedbert(lab, task, sc);
            })))
        } else {
            let shared = self.shared;
            let deps = [self.prov.task(task.number() - 1), self.prov.embed(model)];
            self.dedup(key, &deps, CellClosure::Par(Box::new(move || {
                scenarios::rf_f1_warm(shared, task, sc, model, adapt);
            })))
        }
    }

    pub(crate) fn scenario_ft(&mut self, task: TaskKind, sc_index: usize) -> JobId {
        let sc = SCENARIOS[sc_index];
        let key = ft_key(task, sc);
        let lab = self.lab;
        let deps = [self.prov.task(task.number() - 1), self.prov.bert()];
        self.dedup(key, &deps, CellClosure::Driver(Box::new(move || {
            scenarios::ft_f1(lab, task, sc);
        })))
    }

    /// An ICL paradigm cell: scenario-independent by construction (the
    /// paper's horizontal reference line — in-context learning consumes
    /// no training data), so every scenario variant of an oracle shares
    /// one cell. Simulated oracles are pure `Send` state and fan out;
    /// BioGPT-mini needs the `!Send` checkpoint and stays on the driver.
    pub(crate) fn icl(&mut self, task: TaskKind, oracle: &'static str) -> JobId {
        let key = icl_key(task, oracle);
        if oracle == "biogpt-mini" {
            let lab = self.lab;
            let deps = [self.prov.task(task.number() - 1), self.prov.biogpt()];
            self.dedup(key, &deps, CellClosure::Driver(Box::new(move || {
                scenarios::icl_stats_biogpt(lab, task);
            })))
        } else {
            let shared = self.shared;
            let deps = [self.prov.task(task.number() - 1)];
            self.dedup(key, &deps, CellClosure::Par(Box::new(move || {
                scenarios::icl_stats_warm(shared, task, oracle);
            })))
        }
    }

    fn gpt4(&mut self, task: TaskKind) -> JobId {
        let shared = self.shared;
        let deps = [self.prov.task(task.number() - 1)];
        self.dedup(format!("gpt4|{}", task.number()), &deps, CellClosure::Par(Box::new(
            move || {
                scenarios::gpt4_f1_warm(shared, task);
            },
        )))
    }

    /// The dependency set for one artifact id: warm cells where the
    /// artifact has them, otherwise the providers its runner touches.
    fn deps_for(&mut self, id: &str) -> Vec<JobId> {
        let p_all_embeds: Vec<JobId> = self.prov.embeds();
        let supervised_models =
            || EMBEDDING_NAMES.iter().copied().chain(["pubmedbert"]).collect::<Vec<_>>();
        match id {
            "table2" | "tablea2" | "tablea3" => self.prov.splits(),
            "tablea1" => vec![self.prov.ontology()],
            // Corpus / OOV statistics touch the tokenizer and embeddings.
            "tablea4" | "tablea5" => {
                let mut d = vec![self.prov.wordpiece()];
                d.extend(p_all_embeds);
                d
            }
            "table3a" => {
                let mut d = Vec::new();
                for adapt in ["none", "naive", "task-oriented"] {
                    for model in supervised_models() {
                        if supervised::adaptations_for(model).contains(&adapt) {
                            d.push(self.forest(TaskKind::RandomNegatives, model, adapt));
                        }
                    }
                }
                d
            }
            "table3b" => {
                let mut d = Vec::new();
                for task in [TaskKind::FlippedNegatives, TaskKind::SiblingNegatives] {
                    for model in supervised_models() {
                        let adapt = if model == "pubmedbert" { "none" } else { "naive" };
                        d.push(self.forest(task, model, adapt));
                    }
                }
                d
            }
            "tablea7" => {
                let mut d = Vec::new();
                for task in [TaskKind::FlippedNegatives, TaskKind::SiblingNegatives] {
                    for adapt in ["naive", "task-oriented"] {
                        for model in supervised_models() {
                            if supervised::adaptations_for(model).contains(&adapt) {
                                d.push(self.forest(task, model, adapt));
                            }
                        }
                    }
                }
                d
            }
            "tablea6" => EMBEDDING_NAMES.iter().map(|m| self.lstm(m)).collect(),
            "fig2" => {
                let mut d = Vec::new();
                for task in TaskKind::ALL {
                    for model in EMBEDDING_NAMES {
                        d.push(self.forest(task, model, "naive"));
                    }
                }
                d
            }
            "figa1" => {
                let mut d = Vec::new();
                for model in ["random", "biowordvec", "glove-chem"] {
                    for adapt in supervised::adaptations_for(model) {
                        d.push(self.forest(TaskKind::RandomNegatives, model, adapt));
                    }
                }
                d
            }
            "fig3" | "figa2" => {
                let models: Vec<(&'static str, &'static str)> = if id == "fig3" {
                    vec![("random", "naive"), ("glove-chem", "task-oriented"), ("pubmedbert", "none")]
                } else {
                    EMBEDDING_NAMES
                        .iter()
                        .map(|&m| (m, "naive"))
                        .chain([("pubmedbert", "none")])
                        .collect()
                };
                let mut d = Vec::new();
                for task in TaskKind::ALL {
                    d.push(self.gpt4(task));
                    for s in 0..SCENARIOS.len() {
                        for &(model, adapt) in &models {
                            d.push(self.scenario_rf(task, s, model, adapt));
                        }
                        d.push(self.scenario_ft(task, s));
                    }
                }
                d
            }
            "table4" => {
                let mut d = self.prov.splits();
                d.push(self.prov.bert());
                d
            }
            "table5" => {
                let mut d = self.prov.splits();
                d.push(self.prov.biogpt());
                d
            }
            "table6" => {
                let mut d = Vec::new();
                for task in TaskKind::ALL {
                    for (model, adapt) in
                        [("glove-chem", "naive"), ("w2v-chem", "naive"), ("pubmedbert", "none")]
                    {
                        d.push(self.forest(task, model, adapt));
                    }
                }
                d.push(self.prov.bert());
                d
            }
            "summary" => {
                let mut d = vec![
                    self.forest(TaskKind::RandomNegatives, "random", "none"),
                    self.forest(TaskKind::RandomNegatives, "glove", "none"),
                    self.forest(TaskKind::RandomNegatives, "glove", "naive"),
                    self.scenario_rf(TaskKind::RandomNegatives, 0, "random", "naive"),
                    self.scenario_rf(TaskKind::RandomNegatives, 4, "random", "naive"),
                    self.scenario_rf(TaskKind::RandomNegatives, 4, "glove-chem", "naive"),
                    self.scenario_rf(TaskKind::SiblingNegatives, 4, "random", "naive"),
                    self.prov.bert(),
                    self.prov.biogpt(),
                ];
                for task in TaskKind::ALL {
                    d.push(self.forest(task, "w2v-chem", "naive"));
                }
                d
            }
            // Ablations rebuild their own corpora/forests; they only share
            // the base providers.
            id if id.starts_with("ablation-") => {
                let mut d = vec![self.prov.ontology(), self.prov.split(0)];
                d.extend(p_all_embeds);
                d
            }
            // Extensions and anything not modelled above: all providers, so the
            // runner only does its own novel work on the driver.
            _ => {
                let mut d = self.prov.splits();
                d.push(self.prov.bert());
                d.push(self.prov.biogpt());
                d
            }
        }
    }
}

/// Memo key of a §2.8 supervised scenario cell.
pub(crate) fn rf_key(task: TaskKind, sc: Scenario, model: &str, adapt: &str) -> String {
    format!("rf|{}|{}|{}|{model}|{adapt}", task.number(), sc.split, sc.pos_ratio)
}

/// Memo key of a §2.8 fine-tuning scenario cell.
pub(crate) fn ft_key(task: TaskKind, sc: Scenario) -> String {
    format!("ft|{}|{}|{}", task.number(), sc.split, sc.pos_ratio)
}

/// Memo key of an in-context-learning cell (scenario-independent).
pub(crate) fn icl_key(task: TaskKind, oracle: &str) -> String {
    format!("icl|{}|{oracle}", task.number())
}

enum CellClosure<'a> {
    Par(Box<dyn FnOnce() + Send + 'a>),
    Driver(Box<dyn FnOnce() + 'a>),
}

/// Runs the given artifact ids through the cell scheduler with `workers`
/// threads and returns `(artifacts in request order, run report)`.
/// Unknown ids are skipped (mirroring [`crate::experiment::run`]).
pub fn run_scheduled(
    lab: &Lab,
    ids: &[&str],
    workers: usize,
) -> (Vec<(String, Artifact)>, PlanReport) {
    run_scheduled_with(lab, ids, workers, None)
}

/// [`run_scheduled`] with an optional run journal attached (see
/// `experiment::exec`). The one-lab lowering: every provider under the
/// empty prefix, and one target per artifact id, keyed in the lab's
/// checkpoint store by that id, whose cells come from `Cells::deps_for`
/// and whose assembly is [`super::run`].
pub fn run_scheduled_with(
    lab: &Lab,
    ids: &[&str],
    workers: usize,
    spec: Option<&JournalSpec>,
) -> (Vec<(String, Artifact)>, PlanReport) {
    let labs = [LabPlan { lab, prefix: String::new(), need: ProviderNeed::all() }];
    let targets = ids
        .iter()
        .map(|id| {
            let id = id.to_ascii_lowercase();
            let (deps_id, run_id) = (id.clone(), id.clone());
            Target {
                key: id.clone(),
                id,
                lab: 0,
                deps: Box::new(move |cells| cells.deps_for(&deps_id)),
                assemble: Box::new(move |lab| super::run(lab, &run_id)),
            }
        })
        .collect();
    let run = execute(&labs, targets, workers, spec);
    (run.artifacts, run.report)
}
