//! Markdown tables and JSON result files for the experiment binaries.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// A simple Markdown table builder.
///
/// # Examples
///
/// ```
/// let mut t = snia_bench::Table::new(vec!["size", "loss"]);
/// t.row(vec!["36".into(), "10.5".into()]);
/// let md = t.to_markdown();
/// assert!(md.contains("| size | loss |"));
/// assert!(md.contains("| 36 | 10.5 |"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Table {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(s, "| {} |", r.join(" | "));
        }
        s
    }

    /// Prints the table to stdout with a title.
    pub fn print(&self, title: &str) {
        println!("\n## {title}\n");
        print!("{}", self.to_markdown());
    }
}

/// The machine a `BENCH_*.json` was measured on: its core count, the SIMD
/// features the CPU reports, and the GEMM micro-kernel that ran.
#[derive(Debug, Clone, Serialize)]
pub struct HostInfo {
    /// Cores available to this process.
    pub nproc: usize,
    /// AVX2 support.
    pub avx2: bool,
    /// AVX-512F support.
    pub avx512f: bool,
    /// FMA support.
    pub fma: bool,
    /// [`snia_nn::gemm::kernel_name`].
    pub gemm_kernel: String,
}

/// Describes this machine for a benchmark record.
pub fn host_info() -> HostInfo {
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512f, fma) = (
        is_x86_feature_detected!("avx2"),
        is_x86_feature_detected!("avx512f"),
        is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512f, fma) = (false, false, false);
    HostInfo {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        avx2,
        avx512f,
        fma,
        gemm_kernel: snia_nn::gemm::kernel_name().into(),
    }
}

/// Resolves the `results/` directory (workspace root), creating it if
/// needed. `SNIA_RESULTS_DIR` overrides the location.
pub fn results_dir() -> PathBuf {
    // The binaries run from the workspace; prefer ./results relative to
    // the cargo manifest dir's workspace root.
    let dir = std::env::var("SNIA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    fs::create_dir_all(&dir).expect("cannot create results directory");
    dir
}

/// Serialises an experiment result to `results/<name>.json`.
///
/// # Panics
///
/// Panics if the file cannot be written (experiments should fail loudly).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialisable result");
    fs::write(&path, json).expect("cannot write result file");
    println!("\n[results written to {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        let md = t.to_markdown();
        assert_eq!(md.lines().count(), 4);
        assert!(md.lines().nth(1).unwrap().contains("---"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn write_json_creates_file() {
        std::env::set_var(
            "SNIA_RESULTS_DIR",
            std::env::temp_dir().join("snia_results_test"),
        );
        write_json("unit_test", &serde_json::json!({"x": 1}));
        let p = std::env::temp_dir().join("snia_results_test/unit_test.json");
        assert!(p.exists());
        std::fs::remove_file(p).ok();
        std::env::remove_var("SNIA_RESULTS_DIR");
    }
}
