//! Result tables: plain-text and Markdown rendering.

/// A simple result table with a title, column headers and string cells.
///
/// The experiment reports build their output exclusively through this type so
/// that every table has the same shape: a title naming the paper artifact
/// being reproduced, one row per parameter point, and columns holding
/// predicted and measured quantities.
///
/// # Example
///
/// ```
/// use churn_sim::Table;
///
/// let mut table = Table::new("E0 — demo", ["model", "n", "value"]);
/// table.push_row(["SDGR", "1024", "12.3 ± 0.4"]);
/// let markdown = table.to_markdown();
/// assert!(markdown.contains("| SDGR | 1024 | 12.3 ± 0.4 |"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    #[must_use]
    pub fn new<S: Into<String>>(
        title: impl Into<String>,
        columns: impl IntoIterator<Item = S>,
    ) -> Self {
        Table {
            title: title.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows added so far.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the number of columns.
    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Renders the table as GitHub-flavoured Markdown (title as a heading).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders the table as aligned plain text, suitable for terminal output.
    #[must_use]
    pub fn to_plain_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        out.push_str(&render_row(&self.columns));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the plain-text rendering to standard output.
    pub fn print(&self) {
        println!("{}", self.to_plain_text());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Sample", ["a", "b"]);
        t.push_row(["1", "x"]);
        t.push_row(["2", "y,z"]);
        t
    }

    #[test]
    fn markdown_contains_headers_and_rows() {
        let md = sample().to_markdown();
        assert!(md.contains("### Sample"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | x |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    fn plain_text_aligns_columns() {
        let text = sample().to_plain_text();
        assert!(text.starts_with("Sample\n"));
        assert!(text.contains("a  b"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "title, header, rule, two rows");
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_length_panics() {
        let mut t = Table::new("bad", ["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn accessors_expose_contents() {
        let t = sample();
        assert_eq!(t.title(), "Sample");
        assert_eq!(t.columns(), &["a".to_string(), "b".to_string()]);
        assert_eq!(t.rows().len(), 2);
    }
}
