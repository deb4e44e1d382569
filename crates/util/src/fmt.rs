//! Plain-text table formatting for experiment reports.
//!
//! Every `repro` subcommand prints its paper artifact as an aligned text
//! table built with [`Table`]; the same rows are serialized to JSON by
//! `kcb-core::report`. Keeping the writer here (dependency-free) lets unit
//! tests in any crate render small tables without pulling in the core crate.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// An aligned, monospace text table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers. All columns
    /// default to left alignment; numeric columns can be switched with
    /// [`Table::align`].
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            aligns: vec![Align::Left; headers.len()],
            rows: Vec::new(),
        }
    }

    /// Sets per-column alignment. Panics if the length differs from headers.
    pub fn align(mut self, aligns: &[Align]) -> Self {
        assert_eq!(aligns.len(), self.headers.len(), "alignment arity mismatch");
        self.aligns = aligns.to_vec();
        self
    }

    /// Marks all columns after the first `n` as right-aligned — the common
    /// "label columns then metric columns" layout.
    pub fn numeric_after(mut self, n: usize) -> Self {
        for (i, a) in self.aligns.iter_mut().enumerate() {
            *a = if i < n { Align::Left } else { Align::Right };
        }
        self
    }

    /// Appends a row. Panics if the arity differs from the headers.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a `String` (title, rule, header, rule, rows).
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let total: usize = widths.iter().sum::<usize>() + 3 * ncols.saturating_sub(1);
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let rule = "-".repeat(total.max(self.title.chars().count()));
        out.push_str(&rule);
        out.push('\n');
        out.push_str(&render_row(&self.headers, &widths, &self.aligns));
        out.push('\n');
        out.push_str(&rule);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths, &self.aligns));
            out.push('\n');
        }
        out.push_str(&rule);
        out.push('\n');
        out
    }

    /// Structural JSON projection (title, headers, one-letter alignment
    /// codes, rows) — the run journal persists assembled artifacts in this
    /// shape so an interrupted run can replay them byte-for-byte.
    pub fn to_json(&self) -> serde::Value {
        use serde::Value;
        let aligns: Vec<Value> = self
            .aligns
            .iter()
            .map(|a| Value::String(match a {
                Align::Left => "l".to_string(),
                Align::Right => "r".to_string(),
            }))
            .collect();
        let strs = |v: &[String]| {
            Value::Array(v.iter().map(|s| Value::String(s.clone())).collect())
        };
        Value::Object(vec![
            ("title".to_string(), Value::String(self.title.clone())),
            ("headers".to_string(), strs(&self.headers)),
            ("aligns".to_string(), Value::Array(aligns)),
            ("rows".to_string(), Value::Array(self.rows.iter().map(|r| strs(r)).collect())),
        ])
    }

    /// Inverse of [`Table::to_json`]. `None` when the value does not have
    /// the projected shape (a stored artifact is then unusable and is
    /// reassembled).
    pub fn from_json(v: &serde::Value) -> Option<Self> {
        let strs = |v: &serde::Value| -> Option<Vec<String>> {
            v.as_array()?.iter().map(|s| s.as_str().map(str::to_string)).collect()
        };
        let title = v.get("title")?.as_str()?.to_string();
        let headers = strs(v.get("headers")?)?;
        let aligns: Vec<Align> = v
            .get("aligns")?
            .as_array()?
            .iter()
            .map(|a| match a.as_str() {
                Some("l") => Some(Align::Left),
                Some("r") => Some(Align::Right),
                _ => None,
            })
            .collect::<Option<_>>()?;
        let rows: Vec<Vec<String>> =
            v.get("rows")?.as_array()?.iter().map(strs).collect::<Option<_>>()?;
        if aligns.len() != headers.len() || rows.iter().any(|r| r.len() != headers.len()) {
            return None;
        }
        Some(Self { title, headers, aligns, rows })
    }
}

fn render_row(cells: &[String], widths: &[usize], aligns: &[Align]) -> String {
    let mut line = String::new();
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            line.push_str("   ");
        }
        let pad = widths[i].saturating_sub(cell.chars().count());
        match aligns[i] {
            Align::Left => {
                line.push_str(cell);
                if i + 1 < cells.len() {
                    line.push_str(&" ".repeat(pad));
                }
            }
            Align::Right => {
                line.push_str(&" ".repeat(pad));
                line.push_str(cell);
            }
        }
    }
    line
}

/// Formats a metric to 4 decimal places, the paper's convention
/// (e.g. `0.9690`).
pub fn metric(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a metric as `mean (sd)` pairs like the paper's Table 5.
pub fn mean_sd(mean: f64, sd: f64) -> String {
    format!("{mean:.4} ({sd:.4})")
}

/// Formats a count with thousands separators (`620386` → `620,386`).
pub fn count(n: usize) -> String {
    let digits: Vec<u8> = n.to_string().into_bytes();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, d) in digits.iter().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(*d as char);
    }
    out
}

/// Formats a proportion as a percentage with one decimal (`0.873` → `87.3%`).
pub fn percent(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a byte count with a binary-unit suffix (`1536` → `1.5 KiB`).
pub fn bytes(n: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_separators() {
        assert_eq!(count(0), "0");
        assert_eq!(count(999), "999");
        assert_eq!(count(1000), "1,000");
        assert_eq!(count(620_386), "620,386");
        assert_eq!(count(1_234_567_890), "1,234,567,890");
    }

    #[test]
    fn metric_formats() {
        assert_eq!(metric(0.969), "0.9690");
        assert_eq!(mean_sd(0.916, 0.0055), "0.9160 (0.0055)");
        assert_eq!(percent(0.218), "21.8%");
    }

    #[test]
    fn bytes_units() {
        assert_eq!(bytes(0), "0 B");
        assert_eq!(bytes(512), "512 B");
        assert_eq!(bytes(1536), "1.5 KiB");
        assert_eq!(bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["model", "f1"]).numeric_after(1);
        t.row(vec!["random".into(), "0.9559".into()]);
        t.row(vec!["w2v-chem".into(), "0.9690".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        // Right-aligned numeric column: both metric cells end at same column.
        let lines: Vec<&str> = s.lines().collect();
        let data: Vec<&str> = lines.iter().filter(|l| l.contains("0.9")).copied().collect();
        assert_eq!(data.len(), 2);
        assert_eq!(data[0].len(), data[1].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_bad_arity() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new("Empty", &["a"]);
        assert!(t.is_empty());
        let s = t.render();
        assert!(s.contains("Empty"));
        assert!(s.contains('a'));
    }
}
