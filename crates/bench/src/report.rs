//! Plain-text tables for the experiment harness.
//!
//! Every experiment of Section 7 is regenerated as a [`Table`] whose rows
//! mirror the series plotted in the corresponding figure, so the output can
//! be compared against the paper and pasted into EXPERIMENTS.md.

use std::fmt;

/// A printable experiment result table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Experiment title (e.g. "Fig. 8(a) — QMatch response time").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn table_renders_all_rows() {
        let mut t = Table::new("demo", &["dataset", "time (s)"]);
        t.push_row(vec!["pokec".into(), "1.234".into()]);
        t.push_row(vec!["yago2".into(), "0.5".into()]);
        let text = t.to_string();
        assert!(text.contains("demo"));
        assert!(text.contains("pokec"));
        assert!(text.contains("yago2"));
        let md = t.to_markdown();
        assert!(md.contains("| dataset | time (s) |"));
        assert!(md.lines().count() >= 5);
    }

    #[test]
    fn secs_formats_milliseconds() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(secs(Duration::from_micros(1234)), "0.001");
    }
}
