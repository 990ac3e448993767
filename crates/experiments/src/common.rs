//! Shared infrastructure for the figure-regeneration binaries: dataset
//! construction, query workloads, timing, and the `Table` every figure
//! prints and writes its CSV from.

use datagen::{generate_chem, generate_synthetic, ChemParams, SyntheticParams};
use graph_core::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Experiment scale: `quick` keeps everything laptop-sized; `full` is the
/// paper's scale (expect long runtimes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Scaled ~1:8 from the paper.
    Quick,
    /// Paper scale.
    Full,
}

impl Scale {
    /// Scale a paper-sized count down for quick mode.
    pub fn n(&self, paper: usize) -> usize {
        match self {
            Scale::Quick => (paper / 8).max(100),
            Scale::Full => paper,
        }
    }

    /// Queries per query set (paper: 1000).
    pub fn queries(&self, paper: usize) -> usize {
        match self {
            Scale::Quick => (paper / 10).max(30),
            Scale::Full => paper,
        }
    }
}

/// Global experiment options parsed from the command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Opts {
    /// Scale selector.
    pub scale: Scale,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Output directory for CSV artifacts.
    pub out: PathBuf,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            scale: Scale::Quick,
            seed: 2007, // the paper's year
            out: PathBuf::from("results"),
        }
    }
}

/// Deterministic RNG for a named stage (stable across subcommand order).
pub fn rng_for(opts: &Opts, stage: &str) -> ChaCha8Rng {
    let mut h: u64 = opts.seed;
    for b in stage.bytes() {
        h = h.wrapping_mul(0x100000001b3).wrapping_add(b as u64);
    }
    ChaCha8Rng::seed_from_u64(h)
}

/// The AIDS-surrogate sample Γ_N (paper §6.1).
pub fn chem_db(opts: &Opts, n: usize) -> Vec<Graph> {
    generate_chem(&ChemParams::sized(n), &mut rng_for(opts, "chem"))
}

/// A synthetic dataset `D{n}I10T20S{s}L{l}` (paper §6.2). The seed pool is
/// the paper's S1k scaled once by the run's scale — *not* by `n` — so that
/// size sweeps (Figure 13a) vary only the database size, like the paper.
pub fn synthetic_db(opts: &Opts, n: usize, labels: u32) -> (Vec<Graph>, String) {
    let p = SyntheticParams {
        n_graphs: n,
        seed_size: 10.0,
        graph_size: 20.0,
        seed_count: opts.scale.n(1000),
        vertex_labels: labels,
        edge_labels: 2,
    };
    let name = p.name();
    (
        generate_synthetic(&p, &mut rng_for(opts, "synthetic")),
        name,
    )
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Milliseconds as f64 for CSV output.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One figure's table: the CSV it writes and the aligned view it prints,
/// both rendered from the same cells under the CSV's column names.
pub struct Table {
    file: String,
    columns: Vec<&'static str>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table written to `file` under `header`, the CSV's
    /// comma-separated column names.
    pub fn new(file: impl Into<String>, header: &'static str) -> Self {
        Self {
            file: file.into(),
            columns: header.split(',').collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Panics unless it has one cell per column.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "{}: row {cells:?} does not match the header",
            self.file
        );
        self.rows.push(cells);
    }

    /// The CSV record: header line, then one line per row.
    fn csv(&self) -> String {
        let mut s = self.columns.join(",") + "\n";
        for r in &self.rows {
            s += &(r.join(",") + "\n");
        }
        s
    }

    /// The same cells right-aligned in columns, with a rule under the header.
    fn aligned(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.chars().count());
            }
        }
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let header: Vec<String> = self.columns.iter().map(|c| c.to_string()).collect();
        let mut s = String::new();
        for cells in [&header, &rule].into_iter().chain(&self.rows) {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            s += &(line.join("  ") + "\n");
        }
        s
    }

    /// Print the aligned table and write the CSV under the output directory.
    pub fn emit(&self, opts: &Opts) {
        print!("{}", self.aligned());
        std::fs::create_dir_all(&opts.out).expect("create output directory");
        let path = opts.out.join(&self.file);
        std::fs::write(&path, self.csv()).expect("write CSV");
        println!("  -> wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t.csv", "n,treepi_ms,dq_lo");
        t.row(vec!["125".into(), "3.250".into(), "1".into()]);
        t.row(vec!["2500".into(), "12.000".into(), "10".into()]);
        t
    }

    #[test]
    fn printed_rows_are_the_csv_cells() {
        let t = sample();
        let csv: Vec<Vec<String>> = t
            .csv()
            .lines()
            .map(|l| l.split(',').map(String::from).collect())
            .collect();
        assert_eq!(csv[0], ["n", "treepi_ms", "dq_lo"]);
        assert_eq!(csv.len(), 3);
        let printed: Vec<Vec<String>> = t
            .aligned()
            .lines()
            .map(|l| l.split_whitespace().map(String::from).collect())
            .collect();
        assert_eq!(printed.len(), 4);
        assert!(printed[1].iter().all(|c| c.chars().all(|ch| ch == '-')));
        assert_eq!(printed[0], csv[0]);
        assert_eq!(printed[2..], csv[1..]);
    }

    #[test]
    fn columns_are_right_aligned_to_the_widest_cell() {
        let aligned = sample().aligned();
        let lines: Vec<&str> = aligned.lines().collect();
        assert_eq!(lines[0], "   n  treepi_ms  dq_lo");
        assert_eq!(lines[1], "----  ---------  -----");
        assert_eq!(lines[2], " 125      3.250      1");
    }

    #[test]
    fn emit_writes_the_csv_text() {
        let dir = std::env::temp_dir().join(format!("experiments-table-{}", std::process::id()));
        let opts = Opts {
            out: dir.clone(),
            ..Opts::default()
        };
        let t = sample();
        t.emit(&opts);
        assert_eq!(std::fs::read_to_string(dir.join("t.csv")).unwrap(), t.csv());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "does not match the header")]
    fn a_row_of_the_wrong_arity_panics() {
        let mut t = Table::new("t.csv", "a,b");
        t.row(vec!["1".into()]);
    }
}
