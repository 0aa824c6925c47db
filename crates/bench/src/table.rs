//! The one row schema and the one printer every experiment shares.
//!
//! An experiment returns a [`Table`]; `adlp-bench` prints it with
//! [`Table::render`] as a GitHub-markdown table, and the same bytes are
//! pasted into `EXPERIMENTS.md`. Tests read cells back by column name.

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label, verdict or `a / b` pair.
    Text(String),
    /// A count or byte size, printed with thousands separators.
    Int(u64),
    /// A measurement, printed with the given number of decimals (and
    /// thousands separators in its integer part).
    Float(f64, usize),
    /// The experiment's built-in check on this row, printed `OK` / `FAIL`.
    /// A `FAIL` anywhere makes `adlp-bench` exit non-zero.
    Check(bool),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Self {
        Cell::Int(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Int(n as u64)
    }
}

impl Cell {
    fn is_numeric(&self) -> bool {
        matches!(self, Cell::Int(_) | Cell::Float(..))
    }

    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(n) => thousands(&n.to_string()),
            Cell::Float(x, decimals) => thousands(&format!("{x:.decimals$}")),
            Cell::Check(ok) => if *ok { "OK" } else { "FAIL" }.to_string(),
        }
    }
}

/// Inserts thousands separators into the integer part of a printed
/// number (`-12345.67` → `-12,345.67`); `NaN` and `inf` pass through.
fn thousands(number: &str) -> String {
    let digits_from = number
        .find(|c: char| c.is_ascii_digit())
        .unwrap_or(number.len());
    let (sign, rest) = number.split_at(digits_from);
    let (int, fraction) = rest.split_at(rest.find('.').unwrap_or(rest.len()));
    let mut out = sign.to_string();
    for (i, c) in int.chars().enumerate() {
        if i > 0 && (int.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out + fraction
}

/// What one experiment measured: named columns over rows of [`Cell`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The heading: what was measured and at what size (key width, sample
    /// count, window).
    pub title: String,
    /// Column headings; every row is exactly this wide.
    pub columns: Vec<&'static str>,
    /// The measured rows.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table; `header` is the column headings as they print,
    /// `"Type | Size (B) | …"`.
    pub fn new(title: impl Into<String>, header: &'static str) -> Self {
        Table {
            title: title.into(),
            columns: header.split(" | ").collect(),
            rows: Vec::new(),
        }
    }

    /// The cell of `row` under the column named `column`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown column or row: lookups are written against a
    /// known experiment, so a miss is a bug in the caller.
    pub fn cell(&self, row: usize, column: &str) -> &Cell {
        let col = self
            .columns
            .iter()
            .position(|c| *c == column)
            .unwrap_or_else(|| panic!("no column {column:?} in {:?}", self.columns));
        &self.rows[row][col]
    }

    /// The numeric value of a cell (`Int` or `Float`).
    ///
    /// # Panics
    ///
    /// Panics if the cell is not numeric, or as [`Table::cell`] does.
    pub fn num(&self, row: usize, column: &str) -> f64 {
        match self.cell(row, column) {
            Cell::Int(n) => *n as f64,
            Cell::Float(x, _) => *x,
            other => panic!("{column:?} of row {row} is not numeric: {other:?}"),
        }
    }

    /// Every failed built-in check, as `row N (<first cell>): <column>`.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (r, row) in self.rows.iter().enumerate() {
            for (cell, column) in row.iter().zip(&self.columns) {
                if *cell == Cell::Check(false) {
                    let label = row.first().map(Cell::render).unwrap_or_default();
                    out.push(format!("row {} ({label}): {column}", r + 1));
                }
            }
        }
        out
    }

    /// Renders a `### title` heading and the table in GitHub markdown:
    /// columns padded to a common width so the raw text reads as a table
    /// too, numeric columns right-aligned.
    pub fn render(&self) -> String {
        let header: Vec<String> = self.columns.iter().map(|c| c.to_string()).collect();
        let body: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::render).collect())
            .collect();
        let numeric: Vec<bool> = (0..header.len())
            .map(|c| self.rows.first().is_some_and(|row| row[c].is_numeric()))
            .collect();
        let widths: Vec<usize> = (0..header.len())
            .map(|c| {
                let texts = std::iter::once(&header).chain(&body);
                texts.map(|row| row[c].chars().count()).fold(3, usize::max)
            })
            .collect();
        let rule: Vec<String> = (0..header.len())
            .map(|c| {
                if numeric[c] {
                    format!("{}:", "-".repeat(widths[c] - 1))
                } else {
                    "-".repeat(widths[c])
                }
            })
            .collect();

        let mut out = format!("### {}\n\n", self.title);
        for row in [&header, &rule].into_iter().chain(&body) {
            out.push('|');
            for (c, text) in row.iter().enumerate() {
                let w = widths[c];
                out.push_str(&if numeric[c] {
                    format!(" {text:>w$} |")
                } else {
                    format!(" {text:<w$} |")
                });
            }
            out.push('\n');
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "Golden (RSA-1024)",
            "Type | Size (B) | Hash (ms) | Subs | Match",
        );
        let row = |label: &str, size: usize, ms: f64, subs: u64, ok: bool| {
            vec![
                label.into(),
                size.into(),
                Cell::Float(ms, 3),
                subs.into(),
                Cell::Check(ok),
            ]
        };
        t.rows.push(row("Steering", 20, 0.0014, 1, true));
        t.rows.push(row("Scan", 8_705, 0.035, 2, true));
        t.rows.push(row("Image", 921_641, -3762.1499, 4, false));
        t
    }

    #[test]
    fn renders_exact_markdown() {
        let expected = "\
### Golden (RSA-1024)

| Type     | Size (B) |  Hash (ms) | Subs | Match |
| -------- | -------: | ---------: | ---: | ----- |
| Steering |       20 |      0.001 |    1 | OK    |
| Scan     |    8,705 |      0.035 |    2 | OK    |
| Image    |  921,641 | -3,762.150 |    4 | FAIL  |

";
        assert_eq!(sample().render(), expected);
    }

    #[test]
    fn failed_checks_name_row_and_column() {
        assert_eq!(sample().failures(), ["row 3 (Image): Match"]);
        let mut ok = sample();
        ok.rows.pop();
        assert!(ok.failures().is_empty());
    }
}
