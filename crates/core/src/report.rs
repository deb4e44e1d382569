//! Experiment artifacts: a titled set of text tables plus a JSON payload,
//! printable to stdout and persistable for EXPERIMENTS.md bookkeeping.

use kcb_util::fmt::Table;
use serde_json::Value;

/// One reproduced paper artifact (a table or figure).
#[derive(Debug)]
pub struct Artifact {
    /// Paper reference, e.g. `"Table 3a"` or `"Figure 3"`.
    pub id: String,
    /// What the artifact shows.
    pub title: String,
    /// Rendered text tables (figures become series tables).
    pub tables: Vec<Table>,
    /// Structured payload of the same data.
    pub json: Value,
}

impl Artifact {
    /// Creates an artifact.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Self { id: id.into(), title: title.into(), tables: Vec::new(), json: Value::Null }
    }

    /// Adds a table.
    pub fn push_table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Sets the JSON payload.
    pub fn set_json(&mut self, json: Value) -> &mut Self {
        self.json = json;
        self
    }

    /// Renders the whole artifact as text.
    pub fn render(&self) -> String {
        let mut out = format!("=== {} — {} ===\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }

    /// Renders the artifact as a Markdown section (fenced tables keep the
    /// monospace alignment).
    pub fn render_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str("```text\n");
            out.push_str(&t.render());
            out.push_str("```\n\n");
        }
        out
    }

    /// Full structural projection — id, title, tables, payload — saved as
    /// the artifact's checkpoint entry, so a later run can return the
    /// artifact byte-for-byte without re-running its experiment.
    pub fn to_replay_json(&self) -> Value {
        Value::Object(vec![
            ("id".to_string(), Value::String(self.id.clone())),
            ("title".to_string(), Value::String(self.title.clone())),
            ("tables".to_string(), Value::Array(self.tables.iter().map(Table::to_json).collect())),
            ("json".to_string(), self.json.clone()),
        ])
    }

    /// Inverse of [`Artifact::to_replay_json`]. `None` when the value does
    /// not have the projected shape (the entry is then unusable and the
    /// artifact is reassembled).
    pub fn from_replay_json(v: &Value) -> Option<Self> {
        let tables = v
            .get("tables")?
            .as_array()?
            .iter()
            .map(Table::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            id: v.get("id")?.as_str()?.to_string(),
            title: v.get("title")?.as_str()?.to_string(),
            tables,
            json: v.get("json")?.clone(),
        })
    }

    /// Writes the JSON payload (wrapped with id/title) to a file.
    pub fn write_json(&self, dir: &std::path::Path) -> kcb_util::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let slug: String = self
            .id
            .to_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("{slug}.json"));
        let wrapped = serde_json::json!({
            "id": self.id,
            "title": self.title,
            "data": self.json,
        });
        std::fs::write(&path, serde_json::to_string_pretty(&wrapped).expect("serializable"))?;
        Ok(path)
    }
}

/// Formats a [`kcb_ml::metrics::BinaryMetrics`] row fragment
/// (`precision`, `recall`, `f1`) in the paper's 4-decimal style.
pub fn prf_cells(m: &kcb_ml::metrics::BinaryMetrics) -> Vec<String> {
    vec![
        kcb_util::fmt::metric(m.precision),
        kcb_util::fmt::metric(m.recall),
        kcb_util::fmt::metric(m.f1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_renders_and_persists() {
        let mut a = Artifact::new("Table 2", "Dataset statistics");
        let mut t = Table::new("demo", &["k", "v"]).numeric_after(1);
        t.row(vec!["size".into(), "620,386".into()]);
        a.push_table(t);
        a.set_json(serde_json::json!({"size": 620386}));
        let s = a.render();
        assert!(s.contains("Table 2"));
        assert!(s.contains("620,386"));

        let dir = std::env::temp_dir().join("kcb-report-test");
        let path = a.write_json(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"id\": \"Table 2\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replay_json_round_trips_render_bytes() {
        let mut a = Artifact::new("Table 3a", "Task 1 forests");
        let mut t = Table::new("demo", &["model", "f1"]).numeric_after(1);
        t.row(vec!["glove".into(), "0.9559".into()]);
        a.push_table(t);
        a.set_json(serde_json::json!({"f1": [0.9559, 1.0], "n": 3}));
        let payload = a.to_replay_json().render_json(None);
        let v = kcb_util::json::parse_value(&payload).unwrap();
        let b = Artifact::from_replay_json(&v).unwrap();
        // The replayed artifact must render the same text and persist the
        // same JSON — the byte-identity the resume path depends on.
        assert_eq!(b.render(), a.render());
        assert_eq!(
            serde_json::to_string_pretty(&b.json).unwrap(),
            serde_json::to_string_pretty(&a.json).unwrap()
        );
        assert_eq!(b.to_replay_json().render_json(None), payload);
    }

    #[test]
    fn markdown_rendering_fences_tables() {
        let mut a = Artifact::new("Figure 3", "Scenario sweep");
        let mut t = Table::new("demo", &["k", "v"]);
        t.row(vec!["a".into(), "1".into()]);
        a.push_table(t);
        let md = a.render_markdown();
        assert!(md.starts_with("## Figure 3 — Scenario sweep"));
        assert_eq!(md.matches("```").count(), 2);
        assert!(md.contains("demo"));
    }

    #[test]
    fn prf_cells_format() {
        let m = kcb_ml::metrics::BinaryMetrics {
            accuracy: 0.9,
            precision: 0.969,
            recall: 0.9690,
            f1: 0.96901,
        };
        assert_eq!(prf_cells(&m), vec!["0.9690", "0.9690", "0.9690"]);
    }
}
