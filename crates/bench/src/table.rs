//! Minimal ASCII table renderer for experiment output.

/// A simple left-aligned ASCII table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self.headers.len();
        // Widths in chars, the unit `{:<w$}` pads in (cells hold `µ`, `–`).
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let total: usize = widths.iter().sum::<usize>() + 3 * cols + 1;
        writeln!(f, "{}", self.title)?;
        writeln!(f, "{}", "=".repeat(total.min(100)))?;
        let write_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, " {cell:<w$} |", w = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        write_row(f, &sep)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        t.row(vec!["µ–".into(), "3".into()]);
        let s = t.to_string();
        assert!(s.contains("| name   | value |"), "{s}");
        assert!(s.contains("| longer | 22    |"), "{s}");
        assert!(s.contains("| µ–     | 3     |"), "{s}");
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["x".into()]);
    }
}
