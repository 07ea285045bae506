//! Result tables for the experiment harness.
//!
//! Every experiment runner produces a [`Table`]: a header row plus data rows
//! of preformatted cells. Tables render as aligned plain text (what the
//! paper-style report shows) and as CSV (what EXPERIMENTS.md numbers are
//! regenerated from), and round-trip through JSON ([`Table::to_json`]),
//! the encoding of `results/*.json` and of `exp_all`'s checkpoint records.

use serde_json::{json, Value};

/// A simple column-aligned results table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row. Panics if the arity differs from the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row arity {} != column count {}",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Convenience: appends a row of `Display` values.
    pub fn row<D: std::fmt::Display>(&mut self, cells: &[D]) {
        self.push_row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table as `{"title", "columns", "rows"}`.
    pub fn to_json(&self) -> Value {
        json!({ "title": self.title(), "columns": self.columns(), "rows": self.rows() })
    }

    /// Decodes [`Table::to_json`]; `None` on a missing field or a row
    /// whose arity differs from the header.
    pub fn from_json(v: &Value) -> Option<Table> {
        let strings = |v: &Value| -> Option<Vec<String>> {
            v.as_array()?
                .iter()
                .map(|s| Some(s.as_str()?.to_string()))
                .collect()
        };
        let title = v.get("title")?.as_str()?.to_string();
        let columns = strings(v.get("columns")?)?;
        let rows: Vec<Vec<String>> = v
            .get("rows")?
            .as_array()?
            .iter()
            .map(strings)
            .collect::<Option<_>>()?;
        if rows.iter().any(|r| r.len() != columns.len()) {
            return None;
        }
        Some(Table {
            title,
            columns,
            rows,
        })
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str("== ");
        out.push_str(&self.title);
        out.push_str(" ==\n");
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>w$}", w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-style quoting for commas/quotes).
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Formats a float with a sensible fixed precision for table cells.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 || v.abs() < 1e-4 {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_render_aligns_columns() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(&["4", "0.25"]);
        t.row(&["100", "0.5"]);
        let text = t.to_text();
        assert!(text.contains("== demo =="));
        let lines: Vec<&str> = text.lines().collect();
        // header + rule + 2 rows + title line
        assert_eq!(lines.len(), 5);
        // right-aligned: "4" is padded to the width of "100".
        assert!(lines[2].starts_with('-'));
        assert!(lines[3].contains("  4"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("t", &["a,b", "c"]);
        t.push_row(vec!["x\"y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "\"a,b\",c\n\"x\"\"y\",plain\n");
    }

    #[test]
    fn accessors() {
        let mut t = Table::new("t", &["a"]);
        assert!(t.is_empty());
        t.row(&[1]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.columns(), &["a".to_string()]);
        assert_eq!(t.rows()[0], vec!["1".to_string()]);
        assert_eq!(t.title(), "t");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(0.25), "0.250000");
        assert!(fmt_f(12345.0).contains('e'));
        assert!(fmt_f(1e-7).contains('e'));
    }
}
