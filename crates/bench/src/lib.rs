//! # ccmm-bench — the experiment harness
//!
//! One binary per paper artifact (see DESIGN.md's experiment index):
//!
//! | binary            | artifact                                         |
//! |-------------------|--------------------------------------------------|
//! | `exp_fig1`        | Figure 1 — the model lattice (E1, E6, E7)        |
//! | `exp_witnesses`   | Figures 2 and 3 — separating pairs (E2, E3)      |
//! | `exp_fig4`        | Figure 4 — NN nonconstructibility (E4)           |
//! | `exp_properties`  | Theorem 19 — completeness/monotonicity/          |
//! |                   | constructibility of every model (E5)             |
//! | `exp_thm23`       | Theorem 23 — LC = NN* up to 4 nodes (E8)         |
//! | `exp_backer`      | BACKER maintains LC; faults violate it (E9)      |
//! | `exp_scaling`     | checker and protocol scaling (E10)               |
//!
//! Criterion benchmarks (in `benches/`) time the same machinery.
//! This library crate holds the shared table-formatting helpers.

#![warn(missing_docs)]

/// A plain-text table that renders aligned for the terminal and as
/// GitHub markdown for EXPERIMENTS.md.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.chars().count());
            }
        }
        w
    }

    /// Renders with aligned columns for terminal output.
    pub fn render(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let fmt_row = |cells: &[String], w: &[usize]| -> String {
            cells
                .iter()
                .zip(w)
                .map(|(c, &w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&fmt_row(&self.headers, &w));
        out.push('\n');
        out.push_str(&w.iter().map(|&n| "-".repeat(n)).collect::<Vec<_>>().join("  "));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &w));
            out.push('\n');
        }
        out
    }

    /// Renders as a GitHub markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", self.headers.iter().map(|_| "---|").collect::<String>()));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Renders a boolean as a check/cross for experiment tables.
pub fn mark(b: bool) -> &'static str {
    if b {
        "✓"
    } else {
        "✗"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["model", "result"]);
        t.row(["SC", "ok"]).row(["NN-dag", "violated"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("model"));
        assert!(lines[2].starts_with("SC"));
        // Columns aligned: "result"/"ok"/"violated" start at same offset.
        let col = lines[0].find("result").unwrap();
        assert_eq!(lines[2].find("ok").unwrap(), col);
        assert_eq!(lines[3].find("violated").unwrap(), col);
    }

    #[test]
    fn markdown_shape() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]);
        let md = t.render_markdown();
        assert!(md.starts_with("| a | b |\n|---|---|\n| 1 | 2 |\n"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Table::new(["a"]).row(["1", "2"]);
    }

    #[test]
    fn mark_values() {
        assert_eq!(mark(true), "✓");
        assert_eq!(mark(false), "✗");
    }
}
