//! # rl-bench — the figure-regeneration and benchmark harness
//!
//! One binary per paper figure (see DESIGN.md's experiment index — run
//! e.g. `cargo run -p rl-bench --bin fig5_energy`), plus Criterion
//! micro-benchmarks under `benches/`. This library crate holds the
//! shared table-formatting helpers the binaries use so their output
//! lines up with the paper's tables and figure series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// A simple fixed-width text table with a title and column headers.
///
/// # Examples
///
/// ```
/// use rl_bench::Table;
/// let mut t = Table::new("demo", &["N", "value"]);
/// t.row(&[&10, &"x"]);
/// let s = t.render();
/// assert!(s.contains("demo") && s.contains("value"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of displayable cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float in compact engineering style (3 significant digits
/// with an SI-ish exponent), for log-scale figure series.
#[must_use]
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    format!("{v:.3e}")
}

/// The standard N sweep of the paper's linear-axis figures (Figs. 5a,b,
/// 9a,b): 1..=100 in steps of 5, plus the headline N = 20.
#[must_use]
pub fn linear_sweep() -> Vec<usize> {
    let mut ns: Vec<usize> = (1..=20).map(|k| k * 5).collect();
    ns.push(1);
    ns.push(20);
    ns.sort_unstable();
    ns.dedup();
    ns
}

/// The log N sweep of Fig. 5c/f: powers of 10 up to 10⁶.
#[must_use]
pub fn log_sweep() -> Vec<usize> {
    vec![1, 10, 100, 1_000, 10_000, 100_000, 1_000_000]
}

/// Box–Muller over the shim rng: one standard-normal draw. Shared by
/// the ragged-workload generators of the `batch_throughput` criterion
/// bench and the integration tests, so both draw from the identical
/// construction.
pub fn normal(rng: &mut impl rand::Rng) -> f64 {
    let u1 = rng.unit_f64().max(1e-12);
    let u2 = rng.unit_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Seed-pinned log-normal length: `exp(ln median + σ·z)`, rounded and
/// clamped to `[lo, hi]`.
pub fn lognormal_len(
    rng: &mut impl rand::Rng,
    median: f64,
    sigma: f64,
    lo: usize,
    hi: usize,
) -> usize {
    let len = (median.ln() + sigma * normal(rng)).exp().round() as i64;
    (len.max(lo as i64) as usize).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("t", &["a", "bbbb"]);
        t.row(&[&1, &2]);
        t.row(&[&100, &20000]);
        let s = t.render();
        assert!(s.contains("== t =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a"]);
        t.row(&[&1, &2]);
    }

    #[test]
    fn sweeps() {
        let lin = linear_sweep();
        assert!(lin.contains(&20) && lin.contains(&100) && lin.contains(&1));
        assert!(lin.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(log_sweep().len(), 7);
        assert_eq!(sci(0.0), "0");
        assert!(sci(12345.0).contains('e'));
    }
}
