//! Fixed-width table printing for experiment binaries.
//!
//! Every figure/table binary prints the same rows/series the paper reports;
//! this module keeps the formatting consistent and markdown-pasteable
//! (EXPERIMENTS.md embeds the output verbatim).

use std::time::Duration;

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header's.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    /// Renders as a markdown table. Widths are counted in chars, the unit
    /// `{:<w$}` pads by, so a `µs` cell lines up like an ASCII one.
    pub fn to_markdown(&self) -> String {
        let width = |c: &String| c.chars().count();
        let mut widths: Vec<usize> = self.header.iter().map(width).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(width(c));
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let body: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", body.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |", sep.join(" | ")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the markdown rendering to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }
}

/// Formats a duration the way the paper's tables do (seconds with a sane
/// precision for the magnitude).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 0.001 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.0} µs", s * 1e6)
    }
}

/// Formats a ratio like "48.3x".
pub fn fmt_speedup(x: f64) -> String {
    if x.is_infinite() {
        "∞".to_owned()
    } else if x >= 100.0 {
        format!("{x:.0}x")
    } else {
        format!("{x:.2}x")
    }
}

/// Formats a fraction as a percentage.
pub fn fmt_percent(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a byte count.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(["algo", "speedup"]);
        t.row(["Greedy", "5.9x"]).row(["RC", "4.9x"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| algo   | speedup |\n"));
        assert!(md.contains("| Greedy | 5.9x    |"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    fn pads_multi_byte_cells_by_chars() {
        let mut t = Table::new(["time (µs)", "n"]);
        t.row(["12.5", "3"]).row(["7 µs", "10"]);
        let md = t.to_markdown();
        assert_eq!(
            md,
            "| time (µs) | n  |\n\
             | --------- | -- |\n\
             | 12.5      | 3  |\n\
             | 7 µs      | 10 |\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn duration_formats_scale() {
        assert_eq!(fmt_duration(Duration::from_secs(150)), "150 s");
        assert_eq!(fmt_duration(Duration::from_millis(2500)), "2.50 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7 µs");
    }

    #[test]
    fn misc_formats() {
        assert_eq!(fmt_speedup(49.6), "49.60x");
        assert_eq!(fmt_speedup(f64::INFINITY), "∞");
        assert_eq!(fmt_percent(0.034), "3.4%");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(300 * 1024), "300.0 KB");
        assert_eq!(fmt_bytes(2 * 1024 * 1024), "2.00 MB");
    }
}
