//! Plain-text table rendering for experiment reports.

use serde::Serialize;

/// A rendered table: headers plus string rows.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Builds a table from headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn push_row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders as an aligned plain-text table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                // Left-align the first column, right-align the rest.
                let pad = widths[i].saturating_sub(c.chars().count());
                if i == 0 {
                    line.push_str(c);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(c);
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders as a GitHub-flavoured markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(&self.headers.join(" | "));
        out.push_str(" |\n|");
        for i in 0..self.headers.len() {
            out.push_str(if i == 0 { "---|" } else { "---:|" });
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(&row.join(" | "));
            out.push_str(" |\n");
        }
        out
    }
}

/// A complete experiment report.
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentReport {
    /// Short id (`"table4"`, `"fig6"`, …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// The regenerated table.
    pub table: Table,
    /// Comparison notes against the paper (anchors, deviations,
    /// explanations).
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Renders the full report as plain text.
    pub fn render(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        out.push_str(&self.table.render());
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str("  * ");
                out.push_str(n);
                out.push('\n');
            }
        }
        out
    }

    /// Renders the full report as markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push_str(&self.table.render_markdown());
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str("* ");
                out.push_str(n);
                out.push('\n');
            }
        }
        out
    }
}

impl ExperimentReport {
    /// Renders the report as a self-contained JSON object. The structure is
    /// emitted by hand (it is one flat object); string escaping is the
    /// local `json_str`, and the `serde` derives remain available for
    /// downstream serializers.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"id\":{},", json_str(&self.id)));
        out.push_str(&format!("\"title\":{},", json_str(&self.title)));
        out.push_str("\"headers\":[");
        out.push_str(
            &self
                .table
                .headers
                .iter()
                .map(|h| json_str(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("],\"rows\":[");
        out.push_str(
            &self
                .table
                .rows
                .iter()
                .map(|row| {
                    format!(
                        "[{}]",
                        row.iter()
                            .map(|c| json_str(c))
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                })
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("],\"notes\":[");
        out.push_str(
            &self
                .notes
                .iter()
                .map(|n| json_str(n))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("]}");
        out
    }
}

/// Escapes a string as a quoted JSON string literal (RFC 8259 §7): `"` and
/// `\` get a backslash, the common control characters get their short
/// escapes, and every other control byte below 0x20 becomes a lowercase
/// `\u00xx` sequence. Previously delegated to the vendored stub's
/// `escape_str`; the harness owns its escaping so report output does not
/// depend on a stub's implementation details.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float the way the paper's tables do: up to three significant
/// decimals for small values, no decimals for large ones.
pub fn fmt_pages(v: f64) -> String {
    if !v.is_finite() {
        "-".into()
    } else if v == 0.0 {
        "0".into()
    } else if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["MODEL", "Q1", "Q2"]);
        t.push_row(vec!["DSM", "4.00", "86.9"]);
        t.push_row(vec!["DASDBS-NSM", "5.00", "21.8"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("MODEL"));
        assert!(lines[2].starts_with("DSM"));
        // Right-aligned numeric columns line up.
        let c1 = lines[2].rfind("86.9").unwrap();
        let c2 = lines[3].rfind("21.8").unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["A", "B", "C"]);
        t.push_row(vec!["x"]);
        assert_eq!(t.rows[0].len(), 3);
    }

    #[test]
    fn markdown_renders() {
        let mut t = Table::new(vec!["A", "B"]);
        t.push_row(vec!["1", "2"]);
        let md = t.render_markdown();
        assert!(md.contains("| A | B |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut t = Table::new(vec!["A\"x", "B"]);
        t.push_row(vec!["line\nbreak", "tab\there"]);
        let r = ExperimentReport {
            id: "t".into(),
            title: "a \\ title".into(),
            table: t,
            notes: vec!["n1".into()],
        };
        let j = r.render_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"A\\\"x\""));
        assert!(j.contains("line\\nbreak"));
        assert!(j.contains("tab\\there"));
        assert!(j.contains("a \\\\ title"));
        assert!(j.contains("\"notes\":[\"n1\"]"));
        // Balanced brackets as a cheap well-formedness check.
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_str_escapes_every_special_class() {
        assert_eq!(json_str("plain"), r#""plain""#);
        assert_eq!(json_str(r#"a"b"#), r#""a\"b""#);
        assert_eq!(json_str(r"back\slash"), r#""back\\slash""#);
        assert_eq!(json_str("n\nl r\r t\t"), r#""n\nl r\r t\t""#);
        // Other control bytes become lowercase \u00xx.
        assert_eq!(json_str("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        // Non-ASCII passes through unescaped (JSON strings are UTF-8).
        assert_eq!(json_str("héllo"), r#""héllo""#);
        // Identical to the vendored stub's escaper on its own test vector,
        // so swapping the implementation changed no report byte.
        assert_eq!(json_str("a\"b"), serde_json::escape_str("a\"b"));
    }

    #[test]
    fn fmt_pages_scales() {
        assert_eq!(fmt_pages(4.0), "4.00");
        assert_eq!(fmt_pages(86.93), "86.93");
        assert_eq!(fmt_pages(154.23), "154.2");
        assert_eq!(fmt_pages(6000.2), "6000");
        assert_eq!(fmt_pages(0.0), "0");
        assert_eq!(fmt_pages(f64::NAN), "-");
    }
}
