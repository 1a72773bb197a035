//! Records build provenance for the result record: the compiler version,
//! the git commit when the sources sit in a git checkout, and a content
//! digest of the crates under test (which identifies the build even where
//! no git metadata exists).

use std::path::{Path, PathBuf};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|s| !s.is_empty())
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// FNV-1a over every file's relative path and bytes, in sorted path order.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(root, &mut files);
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        feed(rel.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

fn main() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    println!("cargo:rerun-if-changed={}", crates.display());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={commit}");
    println!(
        "cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={}",
        source_digest(&crates)
    );
}
