//! Plain-text rendering of experiment outputs: aligned tables and
//! series blocks matching the rows/series the paper's figures report.

use scdb_telemetry::Series;
use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Table {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with space-padded columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Renders measurement series as labelled `x y` blocks (one per series),
/// the gnuplot-friendly shape of a figure panel.
pub fn render_series(title: &str, series: &[Series]) -> String {
    let mut out = format!("# {title}\n");
    for s in series {
        let _ = writeln!(out, "## {}", s.label);
        for (x, y) in &s.points {
            let _ = writeln!(out, "{x:>10.3}  {y:>12.4}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(["size", "latency"]);
        t.row(["0.39", "0.104"]);
        t.row(["1.74", "66.43"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("size"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].trim_start().starts_with("1.74"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn series_block_shape() {
        let mut s = Series::new("SCDB BID");
        s.push(0.39, 0.104);
        s.push(1.74, 0.105);
        let out = render_series("Fig 7b", &[s]);
        assert!(out.starts_with("# Fig 7b"));
        assert!(out.contains("## SCDB BID"));
        assert_eq!(out.lines().count(), 4);
    }
}
