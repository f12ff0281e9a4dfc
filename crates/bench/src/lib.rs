//! The operator binaries and what they share: `campaign` (the
//! failure/recovery campaign behind the ops endpoint), `fleet` (a stub
//! fleet on the fixed stub-host pool) and `workload` (trace-driven replay
//! over a fat-tree). The paper's claims are held by the tier-1 tests and
//! stackbench's metrics (DESIGN.md §4); these bins are check.sh's smokes.

#![forbid(unsafe_code)]

pub mod args;
pub mod workloads;

/// Print a results table to stderr.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    eprintln!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    eprintln!("{}", fmt_row(&header_cells));
    eprintln!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for r in rows {
        eprintln!("{}", fmt_row(r));
    }
    eprintln!();
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_printer_does_not_panic() {
        super::print_table(
            "smoke",
            &["col a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
