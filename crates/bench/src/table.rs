//! Plain-text table rendering in the paper's style.

use std::fmt::Write as _;
use std::io;

/// A fixed-width text table with a title, matching the look of the paper's
/// result tables.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn add_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row/header arity mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let total: usize = widths.iter().sum::<usize>() + 3 * cols + 1;
        let _ = writeln!(out, "{}", "=".repeat(total.min(120)));
        let mut header_line = String::from("|");
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(header_line, " {h:<w$} |");
        }
        let _ = writeln!(out, "{header_line}");
        let _ = writeln!(out, "{}", "-".repeat(header_line.len()));
        for row in &self.rows {
            let mut line = String::from("|");
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(line, " {c:<w$} |");
            }
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Renders the table into `out`, followed by a blank line.
    pub fn write(&self, out: &mut dyn io::Write) -> io::Result<()> {
        writeln!(out, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("Demo", &["Class", "Time (s)"]);
        t.add_row(["Hole", "231.1"]);
        t.add_row(["Fvp_unsat2.0", "6539.84"]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("| Hole         |"));
        assert!(s.contains("| Fvp_unsat2.0 |"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new("x", &["a", "b"]);
        t.add_row(["only-one"]);
    }
}
