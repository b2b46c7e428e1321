//! Plain-text table rendering.
//!
//! The paper's figures are tables; the `figures` binary and several
//! integration tests render ChronosDB state in the same tabular shape.
//! [`TextTable`] is a minimal, dependency-free column-aligned renderer
//! with support for the paper's double-bar separator between explicit
//! attributes and implicit temporal columns ("the double vertical bars
//! separate the non-temporal domains from the DBMS-maintained temporal
//! domains").

use std::fmt::{self, Write as _};

/// A column-aligned plain-text table.
///
/// Cells are formatted once, row-major, into one buffer — the header
/// row first — and [`render_into`](Self::render_into) lays them out in
/// one width pass, straight into the caller's buffer.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    /// Every cell's text, back to back.
    text: String,
    /// The end offset in `text` of each cell.
    ends: Vec<usize>,
    ncols: usize,
    /// Data rows finished so far.
    rows: usize,
    /// Column index before which the double bar `||` is drawn.
    double_bar_before: Option<usize>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: AsRef<str>, I: IntoIterator<Item = S>>(headers: I) -> TextTable {
        let headers: Vec<S> = headers.into_iter().collect();
        let mut table = TextTable::with_capacity(headers.len(), 0);
        for header in &headers {
            table.push_text(header.as_ref());
        }
        table
    }

    /// An empty table of `ncols` columns with room for `rows` data rows;
    /// its first `ncols` [`push_cell`](Self::push_cell)s are the header.
    pub fn with_capacity(ncols: usize, rows: usize) -> TextTable {
        /// Bytes reserved per cell; a longer cell grows the buffer.
        const CELL_BYTES: usize = 12;
        let cells = ncols * (rows + 1);
        TextTable {
            text: String::with_capacity(cells * CELL_BYTES),
            ends: Vec::with_capacity(cells),
            ncols,
            rows: 0,
            double_bar_before: None,
        }
    }

    /// Draws the paper's double bar before column `idx` (separating
    /// explicit attributes from implicit temporal columns).
    #[must_use]
    pub fn with_double_bar_before(mut self, idx: usize) -> TextTable {
        self.double_bar_before = Some(idx);
        self
    }

    /// Appends one cell, formatted from `value`, to the row being
    /// built (the header, until it has `ncols` cells); a cell past the
    /// row's last column is dropped.  [`end_row`](Self::end_row) closes
    /// the row.
    pub fn push_cell(&mut self, value: impl fmt::Display) {
        if !self.row_is_full() {
            let _ = write!(self.text, "{value}");
            self.ends.push(self.text.len());
        }
    }

    /// [`push_cell`](Self::push_cell) for text that needs no formatting.
    pub fn push_text(&mut self, text: &str) {
        if !self.row_is_full() {
            self.text.push_str(text);
            self.ends.push(self.text.len());
        }
    }

    fn row_is_full(&self) -> bool {
        self.ends.len() == self.ncols * (self.rows + 2)
    }

    /// Closes the row being built, padding it with empty cells.
    pub fn end_row(&mut self) {
        let full = self.ncols * (self.rows + 2);
        self.ends.resize(full, self.text.len());
        self.rows += 1;
    }

    /// Appends a row; short rows are padded with empty cells, and cells
    /// past the last column are dropped.
    pub fn push_row<S: AsRef<str>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        for cell in cells.into_iter().take(self.ncols) {
            self.push_text(cell.as_ref());
        }
        self.end_row();
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True iff the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Renders the table with one space of padding, a header rule, and
    /// `|` column separators (`||` at the double bar).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends [`render`](Self::render)'s text to `out`, growing it at
    /// most once (with room left for a one-line footer).
    pub fn render_into(&self, out: &mut String) {
        /// Spare bytes reserved for a caller's footer line (a row count).
        const FOOTER_BYTES: usize = 32;
        let ncols = self.ncols;
        let cells = ncols * (self.rows + 1);
        assert!(
            self.ends.len() >= cells,
            "the first {ncols} cells of a table are its header"
        );
        let mut widths = vec![0usize; ncols];
        let mut chars = 0;
        let mut start = 0;
        for (k, &end) in self.ends[..cells].iter().enumerate() {
            let w = display_width(&self.text[start..end]);
            widths[k % ncols] = widths[k % ncols].max(w);
            chars += w;
            start = end;
        }
        let sep = |i: usize| -> (&'static str, &'static str) {
            if self.double_bar_before == Some(i) {
                (" || ", "-++-")
            } else if i == 0 {
                ("", "")
            } else {
                (" | ", "-+-")
            }
        };
        // Every line is at most this long, plus the bytes by which the
        // cells' text outgrows their display width.
        let line: usize =
            widths.iter().sum::<usize>() + (0..ncols).map(|i| sep(i).0.len()).sum::<usize>() + 1;
        out.reserve((self.rows + 2) * line + (self.text.len() - chars) + FOOTER_BYTES);

        let mut start = 0;
        let mut write_row = |ends: &[usize], out: &mut String| {
            let row_start = out.len();
            for (i, &end) in ends.iter().enumerate() {
                let cell = &self.text[start..end];
                start = end;
                out.push_str(sep(i).0);
                out.push_str(cell);
                if i + 1 < ncols {
                    fill(out, SPACES, widths[i] - display_width(cell));
                }
            }
            let kept = out[row_start..].trim_end_matches(' ').len();
            out.truncate(row_start + kept);
            out.push('\n');
        };
        let mut rows = self.ends[..cells].chunks(ncols.max(1));
        match rows.next() {
            Some(header) => write_row(header, out),
            None => out.push('\n'),
        }
        // Header rule.
        for (i, &w) in widths.iter().enumerate() {
            out.push_str(sep(i).1);
            fill(out, DASHES, w);
        }
        out.push('\n');
        if ncols == 0 {
            // No cells: every data row is an empty line.
            fill(out, NEWLINES, self.rows);
        }
        for row in rows {
            write_row(row, out);
        }
    }
}

const SPACES: &str = "                                ";
const DASHES: &str = "--------------------------------";
const NEWLINES: &str = "\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n";

/// Appends `n` copies of the one ASCII character `run` repeats.
fn fill(out: &mut String, run: &str, mut n: usize) {
    while n > run.len() {
        out.push_str(run);
        n -= run.len();
    }
    out.push_str(&run[..n]);
}

/// Character count treating the multi-byte `∞` and `✓` glyphs as width 1.
fn display_width(s: &str) -> usize {
    s.chars().count()
}

/// Renders a check-mark cell the way the paper's Figures 11 and 13 do.
pub fn check(b: bool) -> &'static str {
    if b {
        "✓"
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["name", "rank"]);
        t.push_row(["Merrie", "full"]);
        t.push_row(["Tom", "associate"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-' || c == '+'));
        assert!(lines[2].starts_with("Merrie | full"));
        assert!(lines[3].starts_with("Tom"));
        // Columns align: the separator offset is identical in all rows.
        let bar = lines[2].find('|').unwrap();
        assert_eq!(lines[3].find('|').unwrap(), bar);
    }

    #[test]
    fn double_bar_between_attribute_groups() {
        let mut t =
            TextTable::new(["name", "rank", "tx start", "tx end"]).with_double_bar_before(2);
        t.push_row(["Merrie", "full", "12/15/82", "∞"]);
        let s = t.render();
        assert!(s.lines().nth(2).unwrap().contains("|| 12/15/82"));
        assert!(s.lines().nth(1).unwrap().contains("++"));
    }

    #[test]
    fn infinity_counts_one_column() {
        assert_eq!(display_width("∞"), 1);
        assert_eq!(display_width("12/15/82"), 8);
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.push_row(["x"]);
        assert_eq!(t.len(), 1);
        let s = t.render();
        assert!(s.lines().nth(2).unwrap().starts_with("x"));
    }

    #[test]
    fn check_marks() {
        assert_eq!(check(true), "✓");
        assert_eq!(check(false), "");
    }
}
