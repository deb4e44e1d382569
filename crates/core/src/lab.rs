//! The shared experiment environment.
//!
//! Every table/figure runner needs the same expensive components: the
//! synthetic ontology, the three task datasets, the two corpora, five
//! trained embedding models, the WordPiece vocabulary, a pre-trained
//! mini-BERT (with a weight snapshot so fine-tuning runs can restart from
//! the same checkpoint) and the domain-pre-trained BioGPT-mini. [`Lab`]
//! builds each lazily, exactly once, as a deterministic function of
//! [`LabConfig`].
//!
//! Since PR 2 the environment is split along the `Send`/`Sync` boundary:
//!
//! * [`Shared`] holds everything that is plain data once built — ontology,
//!   datasets, corpora, embeddings, WordPiece, the result table of memoised
//!   scores, rows, forest and LSTM runs, and the
//!   [`crate::compose::EncodingCache`]. All of its caches are thread-safe
//!   (`OnceLock` / mutex-guarded slot maps), so the cell scheduler's worker
//!   threads can warm them concurrently; a slot that is being computed
//!   blocks later requesters instead of recomputing.
//! * [`Lab`] wraps a [`Shared`] and adds the two language models. Their
//!   autograd tensors are `Rc<RefCell<…>>`-based (`!Send`), so BERT and
//!   BioGPT live only on the thread that owns the `Lab` — the scheduler's
//!   *driver* thread. `Lab` derefs to [`Shared`], so existing call sites
//!   are oblivious to the split.

use crate::adapt::{task_oriented_stopwords, Adaptation, TaskOrientedConfig};
use crate::ckpt::{self, CkptStore, Derived, DerivedKind};
use crate::dataset::Split;
use crate::paradigm::ml::{run_lstm, ForestRun, LstmRun};
use crate::report::Artifact;
use crate::task::{positive_triples, TaskDataset, TaskKind};
use kcb_embed::{
    fasttext, glove, word2vec, EmbeddingModel, EmbeddingTable, FastText, RandomEmbedding,
};
use kcb_icl::BioGptMini;
use kcb_lm::{MiniBert, MiniBertConfig, MiniGpt, MiniGptConfig, TrainConfig, TransformerConfig};
use kcb_ml::linalg::Matrix;
use kcb_ml::{LstmConfig, RandomForestConfig};
use kcb_ontology::{Ontology, SyntheticConfig, SyntheticGenerator};
use kcb_text::{
    corpus::tokenize_corpus, ChemTokenizer, CorpusConfig, DomainCorpusGenerator,
    GenericCorpusGenerator, WordPiece, WordPieceTrainer,
};
use kcb_util::mmap::RawSection;
use kcb_util::Rng;
use parking_lot::Mutex;
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Everything tunable about an experiment environment.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Ontology scale relative to real ChEBI (see `kcb-ontology`).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Word-embedding width (the paper uses 300; mini default 48).
    pub embed_dim: usize,
    /// Domain-corpus documents (the paper's 7,201 papers stand-in).
    pub n_domain_docs: usize,
    /// Generic-corpus documents (the GloVe Common-Crawl stand-in).
    pub n_generic_docs: usize,
    /// Epochs for the embedding trainers.
    pub embed_epochs: usize,
    /// WordPiece vocabulary size.
    pub wp_vocab: usize,
    /// Mini-BERT architecture (`vocab_size` is filled from the trained
    /// WordPiece).
    pub bert_arch: TransformerConfig,
    /// Mini-BERT MLM pre-training schedule.
    pub bert_pretrain: TrainConfig,
    /// Cap on MLM pre-training sequences.
    pub bert_pretrain_cap: usize,
    /// BioGPT-mini architecture.
    pub gpt_arch: TransformerConfig,
    /// BioGPT-mini CLM pre-training schedule.
    pub gpt_pretrain: TrainConfig,
    /// Cap on CLM pre-training sequences.
    pub gpt_pretrain_cap: usize,
    /// Random-forest hyperparameters.
    pub rf: RandomForestConfig,
    /// LSTM hyperparameters.
    pub lstm: LstmConfig,
    /// Algorithm 2 parameters.
    pub task_oriented: TaskOrientedConfig,
    /// Cap on random-forest training rows per experiment run (keeps the
    /// full table sweeps tractable; the paper's full-data runs are
    /// reproduced by raising this together with `scale`).
    pub train_cap: usize,
    /// Cap on fine-tuning sequences per run.
    pub ft_train_cap: usize,
    /// Fine-tuning schedule (the paper: 3 epochs, Adam).
    pub ft_schedule: TrainConfig,
    /// Fraction of the full dataset forming the §2.8 scenario pool.
    pub scenario_fraction: f64,
    /// Queries per class in ICL experiments (paper: 50).
    pub icl_queries: usize,
    /// Prompt repeats in ICL experiments (paper: 5).
    pub icl_repeats: usize,
}

impl Default for LabConfig {
    fn default() -> Self {
        let seed = 42;
        Self {
            scale: 0.03,
            seed,
            embed_dim: 48,
            n_domain_docs: 700,
            n_generic_docs: 500,
            embed_epochs: 4,
            wp_vocab: 1_200,
            bert_arch: TransformerConfig {
                vocab_size: 0,
                d_model: 48,
                n_heads: 4,
                n_layers: 2,
                d_ff: 96,
                max_len: 48,
                seed,
            },
            bert_pretrain: TrainConfig { epochs: 2, lr: 1e-3, batch_size: 16, seed },
            bert_pretrain_cap: 2_500,
            gpt_arch: TransformerConfig {
                vocab_size: 0,
                d_model: 48,
                n_heads: 4,
                n_layers: 2,
                d_ff: 96,
                max_len: 48,
                seed,
            },
            gpt_pretrain: TrainConfig { epochs: 2, lr: 1e-3, batch_size: 16, seed },
            gpt_pretrain_cap: 1_500,
            rf: RandomForestConfig { n_trees: 40, max_depth: 18, ..RandomForestConfig::default() },
            lstm: LstmConfig { hidden: 32, epochs: 3, ..LstmConfig::default() },
            task_oriented: TaskOrientedConfig {
                n_entities: 1_500,
                iterations: 8,
                n_pairs: 800,
                ..TaskOrientedConfig::default()
            },
            train_cap: 20_000,
            ft_train_cap: 3_000,
            ft_schedule: TrainConfig { epochs: 3, lr: 1e-3, batch_size: 16, seed },
            scenario_fraction: 0.25,
            icl_queries: 50,
            icl_repeats: 5,
        }
    }
}

impl LabConfig {
    /// A very small configuration for unit/integration tests.
    pub fn tiny() -> Self {
        Self {
            scale: 0.006,
            n_domain_docs: 120,
            n_generic_docs: 80,
            embed_epochs: 2,
            wp_vocab: 500,
            bert_arch: TransformerConfig {
                vocab_size: 0,
                d_model: 24,
                n_heads: 2,
                n_layers: 1,
                d_ff: 48,
                max_len: 32,
                seed: 42,
            },
            bert_pretrain: TrainConfig { epochs: 1, lr: 2e-3, batch_size: 16, seed: 42 },
            bert_pretrain_cap: 300,
            gpt_arch: TransformerConfig {
                vocab_size: 0,
                d_model: 24,
                n_heads: 2,
                n_layers: 1,
                d_ff: 48,
                max_len: 32,
                seed: 42,
            },
            gpt_pretrain: TrainConfig { epochs: 3, lr: 2e-3, batch_size: 16, seed: 42 },
            gpt_pretrain_cap: 200,
            rf: RandomForestConfig { n_trees: 16, max_depth: 14, ..RandomForestConfig::default() },
            lstm: LstmConfig { hidden: 16, epochs: 2, ..LstmConfig::default() },
            task_oriented: TaskOrientedConfig {
                n_entities: 300,
                iterations: 4,
                n_pairs: 300,
                ..TaskOrientedConfig::default()
            },
            train_cap: 1_200,
            ft_train_cap: 400,
            ft_schedule: TrainConfig { epochs: 2, lr: 2e-3, batch_size: 16, seed: 42 },
            scenario_fraction: 0.5,
            icl_queries: 20,
            icl_repeats: 3,
            ..Self::default()
        }
    }
}

impl LabConfig {
    /// Propagates one master seed into every nested seeded component
    /// (ontology, learners, LM init and training schedules) so `--seed`
    /// really reseeds the whole experiment.
    pub fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.rf.seed = seed;
        self.lstm.seed = seed;
        self.bert_arch.seed = seed;
        self.gpt_arch.seed = seed;
        self.bert_pretrain.seed = seed;
        self.gpt_pretrain.seed = seed;
        self.ft_schedule.seed = seed;
        self.task_oriented.seed = seed;
    }
}

/// Names of the token-level embedding models, in the paper's table order.
pub const EMBEDDING_NAMES: [&str; 5] = ["random", "glove", "w2v-chem", "glove-chem", "biowordvec"];

/// A keyed once-cell: the slot map hands out `Arc`s under a short lock,
/// then `OnceLock` serialises the (potentially long) computation per key
/// without holding the map — concurrent requests for *different* keys
/// proceed in parallel, concurrent requests for the *same* key compute
/// once and share.
type SlotMap<K, T> = Mutex<HashMap<K, Arc<OnceLock<T>>>>;

fn slot<K: std::hash::Hash + Eq, T>(map: &SlotMap<K, T>, key: K) -> Arc<OnceLock<T>> {
    map.lock().entry(key).or_default().clone()
}

/// Hit/miss counters for the lab's memo caches, reported by the scheduler.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct CacheStats {
    /// Memoised scalar scores served without recompute.
    pub memo_hits: usize,
    /// Memoised scalar scores computed.
    pub memo_misses: usize,
    /// Forest runs served from the `(task, model, adaptation)` cache.
    pub forest_hits: usize,
    /// Forest runs computed.
    pub forest_misses: usize,
    /// Persistent checkpoints served from disk ([`crate::ckpt`]).
    pub ckpt_hits: usize,
    /// Persistent checkpoint lookups that fell back to training.
    pub ckpt_misses: usize,
    /// Provider jobs that skipped eager materialization because their
    /// checkpoint was known-fresh within the run.
    pub provider_skips: usize,
}

/// Field-wise totals, for a run report summed over several labs.
impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, c| Self {
            memo_hits: a.memo_hits + c.memo_hits,
            memo_misses: a.memo_misses + c.memo_misses,
            forest_hits: a.forest_hits + c.forest_hits,
            forest_misses: a.forest_misses + c.forest_misses,
            ckpt_hits: a.ckpt_hits + c.ckpt_hits,
            ckpt_misses: a.ckpt_misses + c.ckpt_misses,
            provider_skips: a.provider_skips + c.provider_skips,
        })
    }
}

/// The thread-safe core of the experiment environment: every component
/// that is plain data once built. See the module docs for the split.
pub struct Shared {
    cfg: LabConfig,
    /// The config's `Debug` rendering with the forest thread knob
    /// normalised out: thread count is a wall-clock knob, never a results
    /// knob.
    config_fp: String,
    ckpt: Option<Arc<CkptStore>>,
    ontology: OnceLock<Ontology>,
    tasks: [OnceLock<TaskDataset>; 3],
    splits: [OnceLock<Split>; 3],
    domain_sentences: OnceLock<Vec<Vec<String>>>,
    generic_sentences: OnceLock<Vec<Vec<String>>>,
    random: RandomEmbedding,
    w2v_chem: OnceLock<EmbeddingTable>,
    glove: OnceLock<EmbeddingTable>,
    glove_chem: OnceLock<EmbeddingTable>,
    biowordvec: OnceLock<FastText>,
    wordpiece: OnceLock<WordPiece>,
    stopwords: SlotMap<String, HashSet<String>>,
    /// Every derived result by kind and memo key; see [`Shared::result`].
    results: SlotMap<(DerivedKind, String), Derived>,
    /// Results computed since the last [`Shared::save_checkpoints`], by
    /// entry key.
    unsaved: Mutex<Vec<(String, Derived)>>,
    encodings: crate::compose::EncodingCache,
    memo_hits: AtomicUsize,
    memo_misses: AtomicUsize,
    forest_hits: AtomicUsize,
    forest_misses: AtomicUsize,
    provider_skips: AtomicUsize,
}

impl Shared {
    fn new(cfg: LabConfig, ckpt: Option<Arc<CkptStore>>) -> Self {
        let random = RandomEmbedding::with_dim(cfg.embed_dim);
        let mut c = cfg.clone();
        c.rf.n_threads = 0;
        Self {
            cfg,
            config_fp: format!("{c:?}"),
            ckpt,
            ontology: OnceLock::new(),
            tasks: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
            splits: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
            domain_sentences: OnceLock::new(),
            generic_sentences: OnceLock::new(),
            random,
            w2v_chem: OnceLock::new(),
            glove: OnceLock::new(),
            glove_chem: OnceLock::new(),
            biowordvec: OnceLock::new(),
            wordpiece: OnceLock::new(),
            stopwords: Mutex::new(HashMap::new()),
            results: Mutex::new(HashMap::new()),
            unsaved: Mutex::new(Vec::new()),
            encodings: crate::compose::EncodingCache::new(),
            memo_hits: AtomicUsize::new(0),
            memo_misses: AtomicUsize::new(0),
            forest_hits: AtomicUsize::new(0),
            forest_misses: AtomicUsize::new(0),
            provider_skips: AtomicUsize::new(0),
        }
    }

    /// The lab-wide triple-encoding cache (see
    /// [`crate::compose::EncodingCache`]). Every forest run through the lab
    /// encodes via this cache, so the canonical splits and the §2.8
    /// scenario sweeps share triple vectors per encoder identity.
    pub fn encodings(&self) -> &crate::compose::EncodingCache {
        &self.encodings
    }

    /// Memoises an expensive scalar score under a caller-chosen key.
    ///
    /// Figure runners use this for cells that several artifacts compute
    /// identically (a Figure 3 / Figure A2 scenario cell, a per-task GPT-4
    /// reference line): the first caller pays, later callers read. Safe
    /// from any thread; concurrent same-key calls compute once (the rest
    /// block on the slot), different keys run in parallel.
    pub fn memo_score(&self, key: String, compute: impl FnOnce() -> f64) -> f64 {
        let score = || Derived::Score(compute());
        let Derived::Score(v) = self.result(DerivedKind::Score, key, score) else {
            unreachable!("score slots hold scores")
        };
        v
    }

    /// Memoises an expensive result row (a fixed-width vector of numbers)
    /// under a caller-chosen key — the vector-valued sibling of
    /// [`Shared::memo_score`], sharing its hit/miss counters. Table runners
    /// use it for rows a derived checkpoint entry can replay (a Table 4
    /// fine-tuning row, a Table 5 ICL result).
    pub fn memo_vec(&self, key: String, compute: impl FnOnce() -> Vec<f64>) -> Arc<Vec<f64>> {
        let row = || Derived::Row(Arc::new(compute()));
        let Derived::Row(v) = self.result(DerivedKind::Row, key, row) else {
            unreachable!("row slots hold rows")
        };
        v
    }

    /// The result table's one lookup. A filled slot is a hit. An empty
    /// slot first reads its `derived` checkpoint entry, which also counts
    /// as a hit; failing that it computes the result, counts a miss and
    /// queues the result for [`Shared::save_checkpoints`]. Scores and rows
    /// count as memo hits/misses, forest runs as forest hits/misses, LSTM
    /// runs not at all.
    fn result(&self, kind: DerivedKind, key: String, compute: impl FnOnce() -> Derived) -> Derived {
        let counters = match kind {
            DerivedKind::Score | DerivedKind::Row => Some((&self.memo_hits, &self.memo_misses)),
            DerivedKind::Forest => Some((&self.forest_hits, &self.forest_misses)),
            DerivedKind::Lstm => None,
        };
        let count = |hit: bool| {
            if let Some((hits, misses)) = counters {
                (if hit { hits } else { misses }).fetch_add(1, Ordering::Relaxed);
            }
        };
        let s = slot(&self.results, (kind, key.clone()));
        if let Some(v) = s.get() {
            count(true);
            return v.clone();
        }
        s.get_or_init(|| {
            let store = self.ckpt.as_deref();
            let entry = ckpt::derived_key(&self.config_fp, kind, &key);
            let decode = |meta: &[u8], _: &RawSection| Derived::from_bytes(kind, meta);
            if let Some(v) = store.and_then(|st| st.take("derived", &entry, decode)) {
                count(true);
                return v;
            }
            count(false);
            let v = compute();
            if store.is_some() {
                self.unsaved.lock().push((entry, v.clone()));
            }
            v
        })
        .clone()
    }

    /// Memo-cache hit/miss counters (for the scheduler report).
    pub fn cache_stats(&self) -> CacheStats {
        let (ckpt_hits, ckpt_misses) =
            self.ckpt.as_deref().map(CkptStore::stats).unwrap_or((0, 0));
        CacheStats {
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
            forest_hits: self.forest_hits.load(Ordering::Relaxed),
            forest_misses: self.forest_misses.load(Ordering::Relaxed),
            ckpt_hits,
            ckpt_misses,
            provider_skips: self.provider_skips.load(Ordering::Relaxed),
        }
    }

    /// The attached persistent checkpoint store, if any.
    pub fn checkpoint_store(&self) -> Option<&CkptStore> {
        self.ckpt.as_deref()
    }

    /// FNV-64 hex digest of the configuration with the forest thread knob
    /// normalised out. Names the run-journal directory
    /// (`results/runs/<config-digest>/`), so re-running the same config
    /// resumes the same journal at any worker count.
    pub fn config_digest(&self) -> String {
        kcb_util::fnv1a_hex(self.config_fp.as_bytes())
    }

    /// Writes one `derived` checkpoint entry per result computed since the
    /// last save; results read from the store are never rewritten, so a
    /// second save writes nothing. No-op without a store.
    pub fn save_checkpoints(&self) {
        let Some(store) = self.ckpt.as_deref() else { return };
        let unsaved = std::mem::take(&mut *self.unsaved.lock());
        for (key, v) in unsaved {
            store.put("derived", &key, &v.to_bytes(), &[]);
        }
    }

    /// Whether `target`'s artifact entry is in the store: a probe like
    /// [`Shared::provider_fresh`], with no read and no event.
    pub(crate) fn artifact_fresh(&self, target: &str) -> bool {
        let key = ckpt::artifact_key(&self.config_fp, target);
        self.ckpt.as_deref().is_some_and(|s| s.is_fresh("artifact", &key))
    }

    /// Reads `target`'s artifact entry. `None` without a store, and after
    /// the store's one warning for an entry it cannot use.
    pub(crate) fn read_artifact(&self, target: &str) -> Option<Artifact> {
        let key = ckpt::artifact_key(&self.config_fp, target);
        self.ckpt.as_deref()?.take("artifact", &key, |meta, _| {
            let bad = |m: &str| kcb_util::Error::parse("artifact entry", m);
            let text = std::str::from_utf8(meta).map_err(|_| bad("payload is not UTF-8"))?;
            let v = kcb_util::json::parse_value(text).map_err(|e| bad(&e))?;
            Artifact::from_replay_json(&v).ok_or_else(|| bad("payload is not an artifact"))
        })
    }

    /// Writes `a` as `target`'s artifact entry (no-op without a store) and
    /// returns the FNV-64 of its compact replay JSON, the digest its
    /// journal record carries.
    pub(crate) fn save_artifact(&self, target: &str, a: &Artifact) -> String {
        let body = a.to_replay_json().render_json(None);
        if let Some(store) = self.ckpt.as_deref() {
            let key = ckpt::artifact_key(&self.config_fp, target);
            store.put("artifact", &key, body.as_bytes(), &[]);
        }
        kcb_util::fnv1a_hex(body.as_bytes())
    }

    /// The configuration.
    pub fn config(&self) -> &LabConfig {
        &self.cfg
    }

    /// The synthetic ontology.
    pub fn ontology(&self) -> &Ontology {
        self.ontology.get_or_init(|| {
            SyntheticGenerator::new(SyntheticConfig { scale: self.cfg.scale, seed: self.cfg.seed })
                .expect("valid synthetic config")
                .generate()
        })
    }

    /// The full dataset for a task.
    pub fn task(&self, task: TaskKind) -> &TaskDataset {
        self.tasks[task.number() - 1]
            .get_or_init(|| TaskDataset::generate(self.ontology(), task, self.cfg.seed))
    }

    /// The canonical 9:1 split for a task (the supervised-learning setup).
    pub fn split(&self, task: TaskKind) -> &Split {
        self.splits[task.number() - 1]
            .get_or_init(|| Split::nine_to_one(self.task(task), self.cfg.seed))
    }

    /// Tokenized domain-corpus sentences (the chemistry-papers stand-in).
    pub fn domain_sentences(&self) -> &Vec<Vec<String>> {
        self.domain_sentences.get_or_init(|| {
            let cfg = CorpusConfig {
                n_docs: self.cfg.n_domain_docs,
                seed: self.cfg.seed,
                ..CorpusConfig::default()
            };
            let docs = DomainCorpusGenerator::new(self.ontology(), cfg).generate();
            tokenize_corpus(&docs, &ChemTokenizer::new())
        })
    }

    /// Tokenized generic-corpus sentences (the Common-Crawl stand-in).
    pub fn generic_sentences(&self) -> &Vec<Vec<String>> {
        self.generic_sentences.get_or_init(|| {
            let cfg = CorpusConfig {
                n_docs: self.cfg.n_generic_docs,
                seed: self.cfg.seed ^ 0x9e37,
                ..CorpusConfig::default()
            };
            let docs = GenericCorpusGenerator::new(cfg).generate();
            tokenize_corpus(&docs, &ChemTokenizer::new())
        })
    }

    /// The random embedding model.
    pub fn random(&self) -> &RandomEmbedding {
        &self.random
    }

    /// The GloVe trainer configuration (shared by `glove` / `glove-chem`).
    fn glove_train_cfg(&self) -> glove::GloveConfig {
        glove::GloveConfig {
            dim: self.cfg.embed_dim,
            epochs: self.cfg.embed_epochs * 2,
            seed: self.cfg.seed,
            ..glove::GloveConfig::default()
        }
    }

    /// Content key of the generic-GloVe checkpoint (also a determinant of
    /// the warm-started GloVe-Chem key).
    fn glove_ckpt_key(&self) -> String {
        ckpt::digest_key(
            ckpt::SCHEMA_GLOVE,
            &[&format!("{:?}", self.glove_train_cfg()), &ckpt::generic_fp(&self.cfg)],
        )
    }

    /// Content key of the WordPiece checkpoint (also a determinant of both
    /// LM keys — the vocabulary fixes their token ids).
    fn wordpiece_ckpt_key(&self) -> String {
        ckpt::digest_key(
            ckpt::SCHEMA_WORDPIECE,
            &[&self.cfg.wp_vocab.to_string(), &ckpt::domain_fp(&self.cfg)],
        )
    }

    /// The word2vec trainer configuration for W2V-Chem.
    fn w2v_train_cfg(&self) -> word2vec::Word2VecConfig {
        word2vec::Word2VecConfig {
            dim: self.cfg.embed_dim,
            epochs: self.cfg.embed_epochs,
            seed: self.cfg.seed,
            ..word2vec::Word2VecConfig::default()
        }
    }

    /// Content key of the W2V-Chem checkpoint.
    fn w2v_ckpt_key(&self) -> String {
        ckpt::digest_key(
            ckpt::SCHEMA_W2V,
            &[&format!("{:?}", self.w2v_train_cfg()), &ckpt::domain_fp(&self.cfg)],
        )
    }

    /// Content key of the GloVe-Chem checkpoint. The warm-start parent is a
    /// training input, so its key is a determinant of this one.
    fn glove_chem_ckpt_key(&self) -> String {
        ckpt::digest_key(
            ckpt::SCHEMA_GLOVE_CHEM,
            &[
                &format!("{:?}", self.glove_train_cfg()),
                &self.glove_ckpt_key(),
                &ckpt::domain_fp(&self.cfg),
            ],
        )
    }

    /// The fastText trainer configuration for the BioWordVec stand-in.
    fn biowordvec_train_cfg(&self) -> fasttext::FastTextConfig {
        fasttext::FastTextConfig {
            dim: self.cfg.embed_dim,
            epochs: self.cfg.embed_epochs,
            buckets: 8_192,
            seed: self.cfg.seed,
            ..fasttext::FastTextConfig::default()
        }
    }

    /// Content key of the BioWordVec checkpoint.
    fn biowordvec_ckpt_key(&self) -> String {
        ckpt::digest_key(
            ckpt::SCHEMA_BIOWORDVEC,
            &[
                &format!("{:?}", self.biowordvec_train_cfg()),
                &ckpt::domain_fp(&self.cfg),
                &ckpt::generic_fp(&self.cfg),
            ],
        )
    }

    /// An embedding table through the store: its vocabulary as metadata,
    /// its vectors as the raw section (borrowed in place on a warm read).
    fn cached_table(
        &self,
        provider: &str,
        key: &str,
        train: impl FnOnce() -> EmbeddingTable,
    ) -> EmbeddingTable {
        ckpt::cached(
            self.ckpt.as_deref(),
            provider,
            key,
            kcb_embed::store::from_raw,
            |t| {
                let (meta, vectors) = kcb_embed::store::raw_parts(t);
                (meta, vec![vectors])
            },
            train,
        )
    }

    /// W2V-Chem: word2vec trained from scratch on the domain corpus.
    pub fn w2v_chem(&self) -> &EmbeddingTable {
        self.w2v_chem.get_or_init(|| {
            let cfg = self.w2v_train_cfg();
            self.cached_table("embed-w2v-chem", &self.w2v_ckpt_key(), || {
                word2vec::train("w2v-chem", self.domain_sentences(), &cfg)
            })
        })
    }

    /// Generic GloVe: trained on the generic corpus only.
    pub fn glove(&self) -> &EmbeddingTable {
        self.glove.get_or_init(|| {
            let cfg = self.glove_train_cfg();
            self.cached_table("embed-glove", &self.glove_ckpt_key(), || {
                glove::train("glove", self.generic_sentences(), &cfg)
            })
        })
    }

    /// GloVe-Chem: generic GloVe further trained on the domain corpus with
    /// a joined vocabulary.
    pub fn glove_chem(&self) -> &EmbeddingTable {
        self.glove_chem.get_or_init(|| {
            let cfg = self.glove_train_cfg();
            self.cached_table("embed-glove-chem", &self.glove_chem_ckpt_key(), || {
                glove::train_warm("glove-chem", self.domain_sentences(), &cfg, self.glove())
            })
        })
    }

    /// BioWordVec stand-in: fastText subword embeddings on domain +
    /// generic text. Stored as a byte-only entry: a fastText model is word
    /// table + n-gram buckets + composition parameters, not one flat
    /// matrix.
    pub fn biowordvec(&self) -> &FastText {
        self.biowordvec.get_or_init(|| {
            let cfg = self.biowordvec_train_cfg();
            ckpt::cached(
                self.ckpt.as_deref(),
                "embed-biowordvec",
                &self.biowordvec_ckpt_key(),
                |meta, _| kcb_embed::store::fasttext_from_bytes(meta),
                |m| (kcb_embed::store::fasttext_to_bytes(m), vec![]),
                || {
                    let mut corpus = self.domain_sentences().clone();
                    corpus.extend(self.generic_sentences().iter().cloned());
                    FastText::train("biowordvec", &corpus, &cfg)
                },
            )
        })
    }

    /// Freshness probe for a provider the experiment graph schedules
    /// eagerly: true when a warm checkpoint file plausibly covers it, in
    /// which case the provider job can skip materialization and let the
    /// first consumer decode lazily (the getter still verifies in full).
    /// Unknown names are never fresh.
    pub fn provider_fresh(&self, name: &str) -> bool {
        let Some(store) = self.ckpt.as_deref() else { return false };
        let key = match name {
            "embed-w2v-chem" => self.w2v_ckpt_key(),
            "embed-glove" => self.glove_ckpt_key(),
            "embed-glove-chem" => self.glove_chem_ckpt_key(),
            "embed-biowordvec" => self.biowordvec_ckpt_key(),
            "wordpiece" => self.wordpiece_ckpt_key(),
            _ => return false,
        };
        // glove-chem warm-starts from glove: its checkpoint replaces the
        // training, so a fresh child never needs the parent materialised.
        store.is_fresh(name, &key)
    }

    /// Counts one provider job that skipped eager materialization because
    /// its checkpoint was known-fresh (reported via `run_meta.json`).
    pub fn note_provider_skip(&self) {
        self.provider_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Content-addressed input key for a provider, by the unprefixed job
    /// label suffix (`"ontology"`, `"task1"`, `"embed-glove"`, `"bert"`,
    /// …). Used for the journal's per-job input provenance and by the
    /// sweep compiler's dedup plan: equal keys ⇒ identical provider
    /// content, so the jobs are shareable across variants. Every arm is
    /// cheap — the trained embeddings reuse their real checkpoint keys
    /// (pure string digests), while the LM entries digest the
    /// *determinants* of their checkpoint keys (architecture template,
    /// pretrain schedule, WordPiece determinants, corpus fingerprint)
    /// rather than the keys themselves, so nothing is materialised.
    /// Unknown names get `None`.
    pub fn provider_input_key(&self, name: &str) -> Option<String> {
        let fp = |parts: &[&str]| kcb_util::fnv1a_hex(parts.join("\x1f").as_bytes());
        let gen = |kind: &str| {
            fp(&[kind, &self.cfg.scale.to_string(), &self.cfg.seed.to_string()])
        };
        Some(match name {
            "ontology" => gen("ontology"),
            "corpus-domain" => ckpt::domain_fp(&self.cfg),
            "corpus-generic" => ckpt::generic_fp(&self.cfg),
            "task1" | "task2" | "task3" | "split1" | "split2" | "split3" => gen(name),
            "embed-random" => fp(&[
                "embed-random",
                &self.cfg.embed_dim.to_string(),
                &self.cfg.seed.to_string(),
            ]),
            "embed-glove" => self.glove_ckpt_key(),
            "embed-w2v-chem" => self.w2v_ckpt_key(),
            "embed-glove-chem" => self.glove_chem_ckpt_key(),
            "embed-biowordvec" => self.biowordvec_ckpt_key(),
            "wordpiece" => self.wordpiece_ckpt_key(),
            "bert" | "lm-bert" => fp(&[
                "lm-bert",
                &format!("{:?}", self.cfg.bert_arch),
                &format!("{:?}", self.cfg.bert_pretrain),
                &self.cfg.bert_pretrain_cap.to_string(),
                &self.wordpiece_ckpt_key(),
                &ckpt::domain_fp(&self.cfg),
            ]),
            "biogpt" | "lm-biogpt" => fp(&[
                "lm-biogpt",
                &format!("{:?}", self.cfg.gpt_arch),
                &format!("{:?}", self.cfg.gpt_pretrain),
                &self.cfg.gpt_pretrain_cap.to_string(),
                &self.wordpiece_ckpt_key(),
                &ckpt::domain_fp(&self.cfg),
            ]),
            _ => return None,
        })
    }

    /// Token-level embedding model by table name.
    pub fn embedding(&self, name: &str) -> &dyn EmbeddingModel {
        match name {
            "random" => self.random(),
            "glove" => self.glove(),
            "w2v-chem" => self.w2v_chem(),
            "glove-chem" => self.glove_chem(),
            "biowordvec" => self.biowordvec(),
            other => panic!("unknown embedding model {other}"),
        }
    }

    /// The WordPiece vocabulary (trained on entity names, relation phrases
    /// and the domain corpus).
    pub fn wordpiece(&self) -> &WordPiece {
        self.wordpiece.get_or_init(|| {
            ckpt::cached(
                self.ckpt.as_deref(),
                "wordpiece",
                &self.wordpiece_ckpt_key(),
                |meta, _| WordPiece::from_bytes(meta),
                |wp| (wp.to_bytes(), vec![]),
                || {
                    let mut counts: HashMap<String, u64> = HashMap::new();
                    let tk = ChemTokenizer::new();
                    for e in self.ontology().entities() {
                        for t in tk.tokenize(&e.name) {
                            *counts.entry(t).or_insert(0) += 1;
                        }
                    }
                    for r in kcb_ontology::Relation::ALL {
                        for t in tk.tokenize(r.phrase()) {
                            *counts.entry(t).or_insert(0) += 500;
                        }
                    }
                    for sent in self.domain_sentences().iter().take(2_000) {
                        for t in sent {
                            *counts.entry(t.clone()).or_insert(0) += 1;
                        }
                    }
                    for w in ["true", "false", "classify", "classification", "triple", "know"] {
                        *counts.entry(w.to_string()).or_insert(0) += 500;
                    }
                    WordPieceTrainer { target_vocab: self.cfg.wp_vocab, min_pair_count: 2 }
                        .train(&counts)
                },
            )
        })
    }

    fn encode_corpus_for_lm(&self, cap: usize) -> Vec<Vec<u32>> {
        let wp = self.wordpiece();
        self.domain_sentences()
            .iter()
            .take(cap)
            .map(|sent| wp.encode_words(sent.iter().map(String::as_str)))
            .filter(|ids| ids.len() >= 3)
            .collect()
    }

    /// A trained+evaluated random-forest run on a task's canonical split
    /// for a *token-embedding* model (anything in [`EMBEDDING_NAMES`]),
    /// cached by `(task, model, adaptation)`. Safe from any thread —
    /// scheduler warm cells call this concurrently. The `"pubmedbert"`
    /// model needs the driver-only BERT; use [`Lab::forest_run`] for it.
    pub fn forest_run(
        &self,
        task: TaskKind,
        model: &str,
        adapt_kind: &str,
    ) -> Arc<ForestRun> {
        assert_ne!(
            model, "pubmedbert",
            "pubmedbert forests need the driver-only BERT; call Lab::forest_run"
        );
        let key = format!("{}|{model}|{adapt_kind}", task.number());
        self.forest_result(key, || {
            let split = self.split(task);
            let train = &split.train[..split.train.len().min(self.cfg.train_cap)];
            let adaptation = self.adaptation(adapt_kind, model);
            let enc = crate::compose::TokenAvgEncoder::new(self.embedding(model), adaptation);
            crate::paradigm::ml::run_forest_cached(
                self.ontology(),
                train,
                &split.test,
                &enc,
                &self.cfg.rf,
                Some(&self.encodings),
            )
        })
    }

    /// The forest-run lookup shared by [`Shared::forest_run`] and, for the
    /// BERT-backed model, [`Lab::forest_run`]: one cache, one pair of
    /// hit/miss counters.
    fn forest_result(&self, key: String, fit: impl FnOnce() -> ForestRun) -> Arc<ForestRun> {
        let run = || Derived::Forest(Arc::new(fit()));
        let Derived::Forest(run) = self.result(DerivedKind::Forest, key, run) else {
            unreachable!("forest slots hold forest runs")
        };
        run
    }

    /// A trained+evaluated LSTM run on Task 1's canonical split (Table A6),
    /// cached per embedding model. Uses the table's historical caps: train
    /// capped at `train_cap / 4`, test at 1,500 rows, naive adaptation.
    pub fn lstm_run(&self, model: &str) -> Arc<LstmRun> {
        let Derived::Lstm(run) = self.result(DerivedKind::Lstm, model.to_string(), || {
            let split = self.split(TaskKind::RandomNegatives);
            let cap = (self.cfg.train_cap / 4).max(200).min(split.train.len());
            let test_cap = split.test.len().min(1_500);
            let adaptation = self.adaptation("naive", model);
            Derived::Lstm(Arc::new(run_lstm(
                self.ontology(),
                &split.train[..cap],
                &split.test[..test_cap],
                self.embedding(model),
                &adaptation,
                &self.cfg.lstm,
            )))
        }) else {
            unreachable!("LSTM slots hold LSTM runs")
        };
        run
    }

    /// The adaptation of the given kind (`"none"` / `"naive"` /
    /// `"task-oriented"`) for one embedding model. Task-oriented stop
    /// words (Algorithm 2) are computed once per model and cached;
    /// concurrent callers for the same model block on one computation.
    pub fn adaptation(&self, kind: &str, model_name: &str) -> Adaptation {
        match kind {
            "none" => Adaptation::None,
            "naive" => Adaptation::Naive,
            "task-oriented" => {
                let s = slot(&self.stopwords, model_name.to_string());
                let stop = s.get_or_init(|| {
                    let positives = positive_triples(self.ontology(), TaskKind::RandomNegatives);
                    task_oriented_stopwords(
                        self.ontology(),
                        &positives,
                        self.embedding(model_name),
                        &self.cfg.task_oriented,
                    )
                });
                Adaptation::TaskOriented(stop.clone())
            }
            other => panic!("unknown adaptation {other}"),
        }
    }
}

/// Lazily-built, cached experiment environment: an [`Arc`]-shared
/// [`Shared`] core plus the two driver-thread-only language models.
///
/// Holding the core behind an `Arc` lets long-lived consumers (the
/// `kcb-serve` snapshot, request worker threads) keep the providers alive
/// independently of the `Lab` that built them — [`Lab::shared_arc`] hands
/// out owned handles while [`Lab::shared`] and the `Deref` impl keep the
/// borrow-based call sites unchanged.
pub struct Lab {
    shared: Arc<Shared>,
    bert: OnceCell<(MiniBert, Vec<Matrix>)>,
    biogpt: OnceCell<BioGptMini>,
}

impl std::ops::Deref for Lab {
    type Target = Shared;

    fn deref(&self) -> &Shared {
        &self.shared
    }
}

impl Lab {
    /// Creates an environment (nothing is built yet).
    pub fn new(cfg: LabConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Creates an environment backed by a persistent checkpoint store:
    /// every provider loads from the store when a matching checkpoint
    /// exists and trains (then saves) otherwise, and each derived result
    /// (memo score or row, forest or LSTM run) is read from its own store
    /// entry on first use. Call [`Shared::save_checkpoints`] to persist
    /// the results computed since the last save.
    pub fn with_checkpoints(cfg: LabConfig, store: Arc<CkptStore>) -> Self {
        Self::build(cfg, Some(store))
    }

    fn build(cfg: LabConfig, store: Option<Arc<CkptStore>>) -> Self {
        let shared = Arc::new(Shared::new(cfg, store));
        Self { shared, bert: OnceCell::new(), biogpt: OnceCell::new() }
    }

    /// The thread-safe core, for handing to scheduler worker threads.
    pub fn shared(&self) -> &Shared {
        &self.shared
    }

    /// An owned handle on the thread-safe core. Snapshots and serving
    /// threads hold this so the providers outlive the `Lab` borrow.
    pub fn shared_arc(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Content key of a language-model checkpoint (`"lm-bert"` or
    /// `"lm-biogpt"`) and the architecture it trains: the schema, the
    /// architecture template sized to the WordPiece vocabulary, the
    /// pretraining schedule and cap, and the WordPiece and domain-corpus
    /// determinants. Forces the (cheap, checkpointed) WordPiece
    /// vocabulary, whose size fixes the architecture.
    fn lm_ckpt_key(&self, name: &str) -> (TransformerConfig, String) {
        let cfg = &self.shared.cfg;
        let (schema, template, pretrain, cap) = match name {
            "lm-bert" => (ckpt::SCHEMA_BERT, cfg.bert_arch, &cfg.bert_pretrain, cfg.bert_pretrain_cap),
            "lm-biogpt" => (ckpt::SCHEMA_BIOGPT, cfg.gpt_arch, &cfg.gpt_pretrain, cfg.gpt_pretrain_cap),
            other => unreachable!("no language model named {other}"),
        };
        let arch = TransformerConfig { vocab_size: self.wordpiece().vocab_size(), ..template };
        let key = ckpt::digest_key(
            schema,
            &[
                &format!("{arch:?}"),
                &format!("{pretrain:?}"),
                &cap.to_string(),
                &self.shared.wordpiece_ckpt_key(),
                &ckpt::domain_fp(cfg),
            ],
        );
        (arch, key)
    }

    /// Freshness probe covering the driver-thread LM providers as well as
    /// everything [`Shared::provider_fresh`] knows. The LM keys need the
    /// WordPiece vocabulary size, so probing them materialises that one
    /// (cheap, itself checkpointed) dependency.
    pub fn provider_fresh(&self, name: &str) -> bool {
        if self.shared.checkpoint_store().is_none() {
            return false;
        }
        match name {
            "lm-bert" | "lm-biogpt" => {
                let (_, key) = self.lm_ckpt_key(name);
                self.shared.checkpoint_store().is_some_and(|s| s.is_fresh(name, &key))
            }
            other => self.shared.provider_fresh(other),
        }
    }

    /// The MLM-pre-trained mini-BERT plus its pre-trained weight snapshot.
    /// Fine-tuning runs mutate the model in place; call
    /// [`kcb_lm::MiniBert::restore`] with the snapshot to reset it.
    /// Driver-thread only (the model is `!Send`).
    pub fn bert(&self) -> &(MiniBert, Vec<Matrix>) {
        self.bert.get_or_init(|| {
            let (arch, key) = self.lm_ckpt_key("lm-bert");
            let bert = MiniBert::new(MiniBertConfig { arch, mask_prob: 0.15 });
            // Freshly initialised weights double as the shape reference a
            // cached snapshot must match to be usable.
            let expect = bert.snapshot();
            let snapshot = ckpt::cached(
                self.shared.ckpt.as_deref(),
                "lm-bert",
                &key,
                |meta, raw| decode_snapshot(meta, raw, &expect),
                |w| kcb_lm::ckpt::weights_raw_parts(w),
                || {
                    let corpus = self.encode_corpus_for_lm(self.shared.cfg.bert_pretrain_cap);
                    bert.pretrain_mlm(&corpus, &self.shared.cfg.bert_pretrain);
                    bert.snapshot()
                },
            );
            // Both the trained and the loaded path land here, so cold and
            // warm labs hold byte-identical models.
            bert.restore(&snapshot);
            (bert, snapshot)
        })
    }

    /// The domain-pre-trained BioGPT-mini.
    ///
    /// Besides the literature corpus, a slice of classification-transcript
    /// text is mixed into pre-training — the mini-scale analogue of real
    /// BioGPT having seen statement/verdict patterns in 15M abstracts.
    /// Without it a model this small never emits `true`/`false` at all;
    /// with it, it answers at near-chance with the order bias the paper
    /// observed, which is exactly the behaviour Table 5 reports.
    pub fn biogpt(&self) -> &BioGptMini {
        self.biogpt.get_or_init(|| {
            let (arch, key) = self.lm_ckpt_key("lm-biogpt");
            let gpt = MiniGpt::new(MiniGptConfig { arch });
            let expect = gpt.snapshot();
            let snapshot = ckpt::cached(
                self.shared.ckpt.as_deref(),
                "lm-biogpt",
                &key,
                |meta, raw| decode_snapshot(meta, raw, &expect),
                |w| kcb_lm::ckpt::weights_raw_parts(w),
                || {
                    let mut corpus = self.encode_corpus_for_lm(self.shared.cfg.gpt_pretrain_cap);
                    let o = self.ontology();
                    let wp = self.wordpiece();
                    let tk = ChemTokenizer::new();
                    // Transcript sources must not overlap any task's test
                    // queries: positives are shared across tasks, so a
                    // task-2/3 test triple can sit in task-1's train split.
                    let mut test_keys: HashSet<(u32, u8, u32)> = HashSet::new();
                    for task in crate::task::TaskKind::ALL {
                        test_keys.extend(self.split(task).test.iter().map(|e| e.triple.key()));
                    }
                    let train: Vec<crate::task::LabeledTriple> = self
                        .split(crate::task::TaskKind::RandomNegatives)
                        .train
                        .iter()
                        .copied()
                        .filter(|e| !test_keys.contains(&e.triple.key()))
                        .collect();
                    let mut rng = Rng::seed_stream(self.shared.cfg.seed, 0xb109);
                    let n_transcripts = (corpus.len() * 2).max(400);
                    for _ in 0..n_transcripts {
                        // "triple <text> classification <verdict>" pairs —
                        // the ChemTokenizer-normalised surface of the
                        // Table 1 prompt.
                        let mut words: Vec<String> = Vec::new();
                        for _ in 0..2 {
                            let e = train[rng.below(train.len())];
                            words.push("triple".to_string());
                            words.extend(tk.tokenize(&o.render(e.triple)));
                            words.push("classification".to_string());
                            words.push(if e.label { "true" } else { "false" }.to_string());
                        }
                        corpus.push(wp.encode_words(words.iter().map(String::as_str)));
                    }
                    gpt.pretrain_clm(&corpus, &self.shared.cfg.gpt_pretrain);
                    gpt.snapshot()
                },
            );
            gpt.restore(&snapshot);
            BioGptMini::new(gpt, self.wordpiece().clone())
        })
    }

    /// A trained+evaluated random-forest run on a task's canonical split,
    /// cached by `(task, model, adaptation)`. `model` is an embedding name
    /// from [`EMBEDDING_NAMES`] or `"pubmedbert"` (frozen mini-BERT `[CLS]`
    /// embeddings). Training rows are capped at `train_cap`.
    pub fn forest_run(&self, task: TaskKind, model: &str, adapt_kind: &str) -> Arc<ForestRun> {
        if model != "pubmedbert" {
            return self.shared.forest_run(task, model, adapt_kind);
        }
        let key = format!("{}|{model}|{adapt_kind}", task.number());
        self.shared.forest_result(key, || {
            let split = self.split(task);
            let train = &split.train[..split.train.len().min(self.shared.cfg.train_cap)];
            let (bert, snapshot) = self.bert();
            bert.restore(snapshot); // guarantee the pre-trained state
            let enc = crate::compose::BertClsEncoder::new(bert, self.wordpiece());
            crate::paradigm::ml::run_forest_cached(
                self.ontology(),
                train,
                &split.test,
                &enc,
                &self.shared.cfg.rf,
                Some(&self.shared.encodings),
            )
        })
    }
}

/// Decodes an LM weight snapshot (weights borrow the mapped raw section
/// zero-copy), rejecting one whose parameter shapes don't match the
/// freshly initialised model — a stale snapshot must fall back to
/// retraining, never panic inside `restore`.
fn decode_snapshot(
    meta: &[u8],
    raw: &RawSection,
    expect: &[Matrix],
) -> kcb_util::Result<Vec<Matrix>> {
    let w = kcb_lm::ckpt::weights_from_raw(meta, raw)?;
    let ok = w.len() == expect.len()
        && w.iter().zip(expect).all(|(a, b)| a.rows() == b.rows() && a.cols() == b.cols());
    if !ok {
        return Err(kcb_util::Error::parse(
            "lm snapshot",
            "parameter shapes do not match the architecture".to_string(),
        ));
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builds_every_component_at_tiny_scale() {
        let lab = Lab::new(LabConfig::tiny());
        assert!(lab.ontology().n_triples() > 500);
        assert!(lab.task(TaskKind::RandomNegatives).len() > 1000);
        assert!(!lab.split(TaskKind::FlippedNegatives).test.is_empty());
        assert!(lab.domain_sentences().len() > 100);
        assert!(lab.w2v_chem().vocab_size() > 50);
        assert!(lab.glove().vocab_size() > 50);
        assert!(lab.glove_chem().vocab_size() >= lab.glove().vocab_size());
        assert!(lab.biowordvec().vocab_size() > 50);
        assert!(lab.wordpiece().vocab_size() > 100);
    }

    #[test]
    fn lab_components_are_cached() {
        let lab = Lab::new(LabConfig::tiny());
        let a = lab.ontology() as *const _;
        let b = lab.ontology() as *const _;
        assert_eq!(a, b, "ontology should be built once");
        let w1 = lab.w2v_chem() as *const _;
        let w2 = lab.w2v_chem() as *const _;
        assert_eq!(w1, w2);
    }

    #[test]
    fn shared_core_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<Shared>();
    }

    #[test]
    fn adaptations_resolve() {
        let lab = Lab::new(LabConfig::tiny());
        assert!(matches!(lab.adaptation("none", "random"), Adaptation::None));
        assert!(matches!(lab.adaptation("naive", "glove"), Adaptation::Naive));
        let a = lab.adaptation("task-oriented", "w2v-chem");
        let b = lab.adaptation("task-oriented", "w2v-chem"); // cached
        match (&a, &b) {
            (Adaptation::TaskOriented(x), Adaptation::TaskOriented(y)) => assert_eq!(x, y),
            _ => panic!("expected task-oriented adaptations"),
        }
    }

    #[test]
    fn memo_score_computes_once_per_key() {
        let lab = Lab::new(LabConfig::tiny());
        let a = lab.memo_score("k".to_string(), || 0.25);
        let b = lab.memo_score("k".to_string(), || panic!("must not recompute"));
        assert_eq!(a, 0.25);
        assert_eq!(b, 0.25);
        let c = lab.memo_score("other".to_string(), || 0.5);
        assert_eq!(c, 0.5);
        let stats = lab.cache_stats();
        assert_eq!(stats.memo_misses, 2);
        assert!(stats.memo_hits >= 1);
    }

    #[test]
    fn memo_score_is_safe_under_concurrent_same_key_calls() {
        let lab = Lab::new(LabConfig::tiny());
        let shared = lab.shared();
        let values: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        shared.memo_score("concurrent".to_string(), || {
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            1.5
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(values.iter().all(|&v| v == 1.5));
        assert_eq!(lab.cache_stats().memo_misses, 1, "one compute for 4 same-key callers");
    }

    fn temp_ckpt_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kcb-lab-ckpt-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn warm_lab_replays_every_provider_bit_identically() {
        let dir = temp_ckpt_dir("warm");
        let cold = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(&dir)));
        let baseline = Lab::new(LabConfig::tiny());
        // A store-backed cold lab trains exactly what a storeless lab does.
        assert_eq!(
            cold.w2v_chem().vectors().as_slice(),
            baseline.w2v_chem().vectors().as_slice()
        );
        cold.glove();
        cold.glove_chem();
        cold.biowordvec();
        cold.wordpiece();
        let (_, cold_snapshot) = cold.bert();
        let stats = cold.cache_stats();
        assert_eq!(stats.ckpt_hits, 0, "first run must train everything");
        assert_eq!(stats.ckpt_misses, 6, "4 embeddings + wordpiece + bert missed");

        let warm = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(&dir)));
        assert_eq!(
            warm.w2v_chem().vectors().as_slice(),
            cold.w2v_chem().vectors().as_slice()
        );
        assert_eq!(warm.glove().vectors().as_slice(), cold.glove().vectors().as_slice());
        assert_eq!(
            warm.glove_chem().vectors().as_slice(),
            cold.glove_chem().vectors().as_slice()
        );
        assert_eq!(warm.biowordvec().vocab_size(), cold.biowordvec().vocab_size());
        let (wp_w, wp_c) = (warm.wordpiece(), cold.wordpiece());
        assert_eq!(wp_w.vocab_size(), wp_c.vocab_size());
        assert!((0..wp_w.vocab_size() as u32).all(|i| wp_w.piece(i) == wp_c.piece(i)));
        let (_, warm_snapshot) = warm.bert();
        assert_eq!(warm_snapshot.len(), cold_snapshot.len());
        for (a, b) in warm_snapshot.iter().zip(cold_snapshot) {
            assert_eq!(a.as_slice(), b.as_slice(), "bert weights must replay bit-identically");
        }
        let stats = warm.cache_stats();
        assert_eq!(stats.ckpt_misses, 0, "building a lab reads no derived entry");
        assert_eq!(stats.ckpt_hits, 6, "4 embeddings + wordpiece + bert served from disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn derived_cache_replays_memo_and_forest_results() {
        let dir = temp_ckpt_dir("derived");
        let cold = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(&dir)));
        let score = cold.memo_score("cell".to_string(), || 0.75);
        let row = cold.memo_vec("row".to_string(), || vec![1.0, 2.0]);
        let run = cold.forest_run(TaskKind::RandomNegatives, "random", "naive");
        let lstm = cold.lstm_run("random");
        cold.save_checkpoints();

        let warm = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(&dir)));
        assert_eq!(warm.memo_score("cell".to_string(), || panic!("replayed")), score);
        assert_eq!(*warm.memo_vec("row".to_string(), || panic!("replayed")), *row);
        let warm_run = warm.forest_run(TaskKind::RandomNegatives, "random", "naive");
        assert_eq!(warm_run.metrics.f1, run.metrics.f1);
        assert_eq!(warm_run.test_probs, run.test_probs);
        assert_eq!(warm_run.importances, run.importances);
        let probe = vec![0.25f32; run.importances.len()];
        assert_eq!(
            warm_run.forest.predict_proba(&probe).to_bits(),
            run.forest.predict_proba(&probe).to_bits(),
            "the replayed forest must predict bit-identically"
        );
        assert_eq!(warm.lstm_run("random").metrics.accuracy, lstm.metrics.accuracy);
        let stats = warm.cache_stats();
        assert_eq!(stats.ckpt_hits, 4, "one derived entry per result");
        assert_eq!((stats.memo_hits, stats.memo_misses), (2, 0), "store hits count as memo hits");
        assert_eq!((stats.forest_hits, stats.forest_misses), (1, 0), "and as forest hits");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The `derived-*.ckpt` entries in a store directory.
    fn derived_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
        let mut files: Vec<_> = entries
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("derived-"))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn artifact_entries_round_trip_under_their_target_key() {
        let dir = temp_ckpt_dir("artifact");
        let lab = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(&dir)));
        let mut a = Artifact::new("Table 9", "demo");
        a.set_json(serde_json::json!({"f1": [0.5, 1.0], "n": 3}));
        let body = a.to_replay_json().render_json(None);
        assert!(!lab.artifact_fresh("table9"));
        assert_eq!(lab.save_artifact("table9", &a), kcb_util::fnv1a_hex(body.as_bytes()));
        assert!(lab.artifact_fresh("table9") && !lab.artifact_fresh("table8"));
        let back = lab.read_artifact("table9").expect("a stored artifact reads back");
        assert_eq!(back.to_replay_json().render_json(None), body);
        // Another config never addresses the entry.
        let mut cfg = LabConfig::tiny();
        cfg.reseed(9);
        let other = Lab::with_checkpoints(cfg, Arc::new(CkptStore::open(&dir)));
        assert!(!other.artifact_fresh("table9"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_writes_each_computed_result_once() {
        let dir = temp_ckpt_dir("save-once");
        let cold = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(&dir)));
        cold.memo_score("a".to_string(), || 0.25);
        cold.memo_vec("b".to_string(), || vec![1.0]);
        assert!(derived_files(&dir).is_empty(), "nothing is written before a save");
        cold.save_checkpoints();
        let written = derived_files(&dir);
        assert_eq!(written.len(), 2, "one entry per result");
        // Delete the entries: whatever a later save writes reappears.
        for f in &written {
            std::fs::remove_file(f).unwrap();
        }
        cold.save_checkpoints();
        assert!(derived_files(&dir).is_empty(), "a second save must write nothing");

        // Results read from the store are not rewritten either.
        cold.memo_score("c".to_string(), || 0.5);
        cold.save_checkpoints();
        let warm = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(&dir)));
        assert_eq!(warm.memo_score("c".to_string(), || panic!("must hit")), 0.5);
        std::fs::remove_file(&derived_files(&dir)[0]).unwrap();
        warm.save_checkpoints();
        assert!(derived_files(&dir).is_empty(), "a store hit is never written back");

        // A cold store recomputes every result and writes each one.
        let cold_store = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::cold(&dir)));
        let mut computed = false;
        cold_store.memo_score("c".to_string(), || {
            computed = true;
            0.5
        });
        assert!(computed, "--cold must recompute");
        cold_store.save_checkpoints();
        assert_eq!(derived_files(&dir).len(), 1, "--cold writes every computed result");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_derived_entry_recomputes_only_its_own_result() {
        let dir = temp_ckpt_dir("derived-corrupt");
        let cold = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(&dir)));
        cold.memo_score("a".to_string(), || 0.25);
        cold.memo_score("b".to_string(), || 0.5);
        cold.memo_vec("c".to_string(), || vec![1.0, 2.0]);
        cold.save_checkpoints();
        let key = ckpt::derived_key(&cold.config_fp, DerivedKind::Score, "a");
        let path = dir.join(format!("derived-{key}.ckpt"));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let warm = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(&dir)));
        let mut recomputed = 0;
        let a = warm.memo_score("a".to_string(), || {
            recomputed += 1;
            0.25
        });
        assert_eq!((a, recomputed), (0.25, 1), "the damaged result is recomputed");
        assert_eq!(warm.memo_score("b".to_string(), || panic!("b must hit")), 0.5);
        assert_eq!(*warm.memo_vec("c".to_string(), || panic!("c must hit")), vec![1.0, 2.0]);
        let events = warm.checkpoint_store().unwrap().events();
        let unusable: Vec<_> = events.iter().filter(|e| !e.hit).collect();
        assert_eq!(unusable.len(), 1, "one lookup falls back, with one warning");
        assert_eq!((unusable[0].key.as_str(), unusable[0].bytes), (key.as_str(), bytes.len() as u64));
        assert_eq!(events.iter().filter(|e| e.hit).count(), 2, "the other results still hit");
        assert_eq!((warm.cache_stats().memo_hits, warm.cache_stats().memo_misses), (2, 1));

        // The save repairs the damaged entry, and only that one.
        warm.save_checkpoints();
        let again = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(&dir)));
        assert_eq!(again.memo_score("a".to_string(), || panic!("repaired")), 0.25);
        assert_eq!(derived_files(&dir).len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_provider_checkpoint_falls_back_to_training() {
        let dir = temp_ckpt_dir("corrupt");
        let cold = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(&dir)));
        let reference = cold.w2v_chem().vectors().as_slice().to_vec();
        // Truncate the real w2v checkpoint mid-file.
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                    n.starts_with("embed-w2v-chem-")
                })
            })
            .expect("w2v checkpoint written");
        let bytes = std::fs::read(&file).unwrap();
        std::fs::write(&file, &bytes[..bytes.len() / 2]).unwrap();
        let warm = Lab::with_checkpoints(LabConfig::tiny(), Arc::new(CkptStore::open(&dir)));
        assert_eq!(
            warm.w2v_chem().vectors().as_slice(),
            reference.as_slice(),
            "fallback retraining must reproduce the same table"
        );
        // The lookup recorded a miss, and the rewrite repaired the file.
        let w2v_events: Vec<_> = warm
            .checkpoint_store()
            .unwrap()
            .events()
            .into_iter()
            .filter(|e| e.provider == "embed-w2v-chem")
            .collect();
        assert_eq!(w2v_events.len(), 1);
        assert!(!w2v_events[0].hit);
        assert!(std::fs::read(&file).unwrap().len() > bytes.len() / 2, "repaired on retrain");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bert_and_biogpt_pretrain_at_tiny_scale() {
        let lab = Lab::new(LabConfig::tiny());
        let (bert, snapshot) = lab.bert();
        assert!(!snapshot.is_empty());
        let p = bert.predict_proba(&[kcb_text::wordpiece::special::CLS, 10, 11]);
        assert!((0.0..=1.0).contains(&p));
        let gpt = lab.biogpt();
        let mut rng = kcb_util::Rng::seed(1);
        let ids = gpt.encode("acid is a compound");
        assert!(!ids.is_empty());
        let out = gpt.gpt_model().generate(&ids, 3, 0.0, &mut rng);
        assert_eq!(out.len(), 3);
    }
}
