//! Experiment runners — one per paper table/figure (see DESIGN.md §3 for
//! the full index). Each runner consumes a [`crate::Lab`] and returns a
//! [`crate::report::Artifact`].

pub mod ablation;
mod exec;
pub mod extension;
pub mod finetune;
pub mod head_to_head;
pub mod incontext;
pub mod plan;
pub mod quant;
pub mod scenarios;
pub mod summary;
pub mod supervised;
pub mod sweep;
pub mod tables;

use crate::lab::Lab;
use crate::report::Artifact;

/// All artifact ids, in paper order.
pub const ALL_IDS: &[&str] = &[
    "table2", "table3a", "table3b", "table4", "table5", "table6", "tableA1", "tableA2", "tableA3",
    "tableA4", "tableA5", "tableA6", "tableA7", "fig2", "fig3", "figA1", "figA2",
];

/// Ablation ids (run on demand; not part of `all`).
pub const ABLATION_IDS: &[&str] =
    &["ablation-corpus", "ablation-dim", "ablation-forest", "ablation-adapt"];

/// The scorecard id (run on demand).
pub const SUMMARY_ID: &str = "summary";

/// Extension-experiment ids (beyond the paper; run on demand).
pub const EXTENSION_IDS: &[&str] = &["ext-llama2"];

/// Runs one artifact by id (case-insensitive). Returns `None` for unknown
/// ids.
pub fn run(lab: &Lab, id: &str) -> Option<Artifact> {
    let artifact = match id.to_ascii_lowercase().as_str() {
        "table2" => tables::table2(lab),
        "table3a" => supervised::table3a(lab),
        "table3b" => supervised::table3b(lab),
        "table4" => finetune::table4(lab),
        "table5" => incontext::table5(lab),
        "table6" => head_to_head::table6(lab),
        "tablea1" => tables::table_a1(lab),
        "tablea2" => tables::table_a2(lab),
        "tablea3" => tables::table_a3(lab),
        "tablea4" => tables::table_a4(lab),
        "tablea5" => tables::table_a5(lab),
        "tablea6" => supervised::table_a6(lab),
        "tablea7" => supervised::table_a7(lab),
        "fig2" => supervised::fig2(lab),
        "fig3" => scenarios::fig3(lab),
        "figa1" => supervised::fig_a1(lab),
        "figa2" => scenarios::fig_a2(lab),
        "ablation-corpus" => ablation::ablation_corpus(lab),
        "ablation-dim" => ablation::ablation_dim(lab),
        "ablation-forest" => ablation::ablation_forest(lab),
        "ablation-adapt" => ablation::ablation_adaptation(lab),
        "summary" => summary::summary(lab),
        "ext-llama2" => extension::ext_llama2(lab),
        _ => return None,
    };
    Some(artifact)
}

/// One-line description of an artifact id (case-insensitive), for
/// `repro --list`. Returns `None` for unknown ids — the same id space as
/// [`run`].
pub fn describe(id: &str) -> Option<&'static str> {
    Some(match id.to_ascii_lowercase().as_str() {
        "table2" => "statistics of the generated datasets for the three curation tasks",
        "table3a" => "supervised F1 on Task 1 across embeddings and vocabulary adaptations",
        "table3b" => "supervised F1 on Tasks 2 and 3 (flipped / sibling negatives)",
        "table4" => "fine-tuned mini-BERT F1 on all three tasks",
        "table5" => "in-context learning with the BioGPT-mini oracle",
        "table6" => "head-to-head comparisons of the three NLP paradigms",
        "tablea1" => "included ChEBI sub-ontologies",
        "tablea2" => "included ChEBI relationship types",
        "tablea3" => "numbers of triples per relationship type",
        "tablea4" => "embedding model size and out-of-vocabulary statistics",
        "tablea5" => "most frequent tokens in head and tail entities",
        "tablea6" => "Task 1 results of the LSTM models",
        "tablea7" => "vocabulary-adaptation ablation on Tasks 2 and 3",
        "fig2" => "supervised F1 per relationship type across embeddings",
        "fig3" => "data-scarcity scenario sweeps: supervised vs fine-tuning vs ICL",
        "figa1" => "feature-importance mass by component on Task 1",
        "figa2" => "scenario sweeps for every embedding model",
        "ablation-corpus" => "ablation: domain vs generic pre-training corpus",
        "ablation-dim" => "ablation: embedding dimensionality",
        "ablation-forest" => "ablation: random-forest capacity",
        "ablation-adapt" => "ablation: vocabulary-adaptation strategies",
        "summary" => "machine-checked scorecard of the paper's key findings",
        "ext-llama2" => "extension: the paper's future-work open-weight oracle",
        _ => return None,
    })
}
