//! Result rendering: stdout tables.

use std::fmt::Write as _;

/// Renders a two-column-plus table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(cell.len());
            let _ = write!(out, "{cell:<w$}  ");
        }
        out.push('\n');
    };
    write_row(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().map(|w| w + 2).sum();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// Formats a fraction as a percentage string (Figure 3a's y-axis).
pub fn pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["query", "cost"],
            &[
                vec!["1a".into(), "123.4".into()],
                vec!["22c".into(), "9.0".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].starts_with("query"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("1a"));
        assert!(lines[3].contains("22c"));
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(5.4), "540.0%");
        assert_eq!(pct(0.985), "98.5%");
    }
}
