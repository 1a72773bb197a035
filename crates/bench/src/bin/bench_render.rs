//! Dataset-generation and render-cache benchmark.
//!
//! Times (1) parallel dataset generation at 1/4/8 threads — bit-identical
//! output by construction, so this is pure wall-clock — and (2) one
//! training epoch's worth of stamp rendering on the paper's 65×65
//! geometry, uncached vs. a cold cache fill vs. warm (memory) and warm
//! (disk) re-reads, plus the per-stamp cost of the cache key alone.
//! Writes `BENCH_render.json` at the workspace root, with the host's core
//! count, SIMD flags and GEMM micro-kernel. The `epochs` of the file it
//! replaces are kept as `previous_epochs` (and its `stamp_key_us` as
//! `previous_stamp_key_us`), so running it at a parent commit and then at
//! a change records before and after on one host.
//!
//! Run with `cargo run --release -p snia-bench --bin bench_render`.

use std::time::Instant;

use serde::{Serialize, Value};

use snia_bench::{host_info, progress, HostInfo, Table};
use snia_core::ExperimentConfig;
use snia_dataset::cache;
use snia_dataset::{Dataset, DatasetConfig};

/// The paper's flux-CNN crop (65 → 60).
const CROP: usize = 60;

#[derive(Serialize)]
struct GenTiming {
    threads: usize,
    seconds: f64,
    speedup_vs_1: f64,
}

#[derive(Serialize)]
struct EpochTiming {
    pass: String,
    ms: f64,
    speedup_vs_uncached: f64,
}

#[derive(Serialize)]
struct RenderBenchResult {
    host: HostInfo,
    samples: usize,
    stamps_per_epoch: usize,
    crop: usize,
    generation: Vec<GenTiming>,
    epochs: Vec<EpochTiming>,
    /// `epochs` of the `BENCH_render.json` this run replaced (null if none).
    previous_epochs: Value,
    /// Mean `cache::stamp_key` time per stamp, paid by every cached fetch.
    stamp_key_us: f64,
    /// `stamp_key_us` of the `BENCH_render.json` this run replaced.
    previous_stamp_key_us: Value,
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes_written: u64,
    note: String,
}

/// Renders every stamp of one epoch through `cache::stamp_pixels`,
/// returning wall-clock milliseconds and a checksum that keeps the work
/// observable (and lets us assert all four passes agree).
fn epoch_ms(ds: &Dataset, refs: &[(usize, usize)]) -> (f64, f64) {
    let t0 = Instant::now();
    let mut checksum = 0.0f64;
    for &(si, oi) in refs {
        let px = cache::stamp_pixels(&ds.samples[si], oi, CROP, true);
        checksum += f64::from(px[px.len() / 2]);
    }
    (t0.elapsed().as_secs_f64() * 1e3, checksum)
}

/// Mean microseconds of `cache::stamp_key` over the epoch's stamps.
fn stamp_key_us(ds: &Dataset, refs: &[(usize, usize)]) -> f64 {
    let t0 = Instant::now();
    let keys = refs.iter().fold(0u64, |acc, &(si, oi)| {
        acc ^ cache::stamp_key(&ds.samples[si], oi, CROP, true)
    });
    std::hint::black_box(keys);
    t0.elapsed().as_secs_f64() * 1e6 / refs.len() as f64
}

fn main() {
    let _telemetry = snia_bench::init_telemetry("bench_render");
    let cfg = ExperimentConfig::from_env();
    progress!("# Dataset generation + render cache benchmark");

    // --- parallel generation, 1/4/8 threads ---
    let gen_cfg = DatasetConfig {
        n_samples: cfg.dataset.n_samples.min(96),
        catalog_size: cfg.dataset.catalog_size.min(2000),
        seed: cfg.seed,
    };
    let host = host_info();
    let mut generation = Vec::new();
    let mut base_secs = 0.0;
    let mut gen_table = Table::new(vec!["threads", "seconds", "speedup"]);
    let mut reference: Option<Dataset> = None;
    for threads in [1usize, 4, 8] {
        let t0 = Instant::now();
        let ds = Dataset::generate_with_threads(&gen_cfg, threads);
        let secs = t0.elapsed().as_secs_f64();
        match &reference {
            None => reference = Some(ds),
            Some(r) => assert_eq!(&ds, r, "threads={threads} diverged from threads=1"),
        }
        if threads == 1 {
            base_secs = secs;
        }
        let speedup = base_secs / secs;
        gen_table.row(vec![
            threads.to_string(),
            format!("{secs:.3}"),
            format!("{speedup:.2}x"),
        ]);
        generation.push(GenTiming {
            threads,
            seconds: secs,
            speedup_vs_1: speedup,
        });
    }
    gen_table.print(&format!(
        "Dataset::generate_with_threads, {} samples ({} CPU core(s) available)",
        gen_cfg.n_samples, host.nproc
    ));

    // --- render cache: one epoch of flux-CNN stamps ---
    let ds = reference.expect("generated above");
    let n_render = ds.len().min(24);
    let refs: Vec<(usize, usize)> = (0..n_render)
        .flat_map(|si| (0..ds.samples[si].schedule.observations.len()).map(move |oi| (si, oi)))
        .collect();

    cache::configure(None).expect("disable cache");
    let (uncached_ms, sum_uncached) = epoch_ms(&ds, &refs);

    let dir = std::env::temp_dir().join(format!("snia-bench-render-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cache::configure(Some(&dir)).expect("create cache dir");
    let before = cache::stats();
    let (cold_ms, sum_cold) = epoch_ms(&ds, &refs);
    let (warm_mem_ms, sum_warm) = epoch_ms(&ds, &refs);
    cache::clear_memory();
    let (warm_disk_ms, sum_disk) = epoch_ms(&ds, &refs);
    let after = cache::stats();
    let key_us = stamp_key_us(&ds, &refs);
    cache::configure(None).expect("disable cache");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(sum_uncached, sum_cold, "cold fill changed the pixels");
    assert_eq!(sum_uncached, sum_warm, "memory hit changed the pixels");
    assert_eq!(sum_uncached, sum_disk, "disk hit changed the pixels");

    let mut epochs = Vec::new();
    let mut epoch_table = Table::new(vec!["pass", "ms", "speedup vs uncached"]);
    for (pass, ms) in [
        ("uncached", uncached_ms),
        ("cold_fill", cold_ms),
        ("warm_memory", warm_mem_ms),
        ("warm_disk", warm_disk_ms),
    ] {
        let speedup = uncached_ms / ms;
        epoch_table.row(vec![
            pass.to_string(),
            format!("{ms:.1}"),
            format!("{speedup:.2}x"),
        ]);
        epochs.push(EpochTiming {
            pass: pass.to_string(),
            ms,
            speedup_vs_uncached: speedup,
        });
    }
    epoch_table.print(&format!(
        "One epoch of {} stamps, 65×65 → crop {CROP} (bit-identical across all passes)",
        refs.len()
    ));
    progress!(
        "warm-memory epoch speedup {:.1}x, warm-disk {:.1}x; stamp_key {key_us:.1} µs/stamp",
        uncached_ms / warm_mem_ms,
        uncached_ms / warm_disk_ms
    );
    let previous = std::fs::read_to_string("BENCH_render.json")
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .unwrap_or(Value::Null);

    let result = RenderBenchResult {
        host,
        samples: gen_cfg.n_samples,
        stamps_per_epoch: refs.len(),
        crop: CROP,
        generation,
        epochs,
        previous_epochs: previous["epochs"].clone(),
        stamp_key_us: key_us,
        previous_stamp_key_us: previous["stamp_key_us"].clone(),
        cache_hits: after.hits - before.hits,
        cache_misses: after.misses - before.misses,
        cache_bytes_written: after.bytes_written - before.bytes_written,
        note: "generation speedups are bounded by the physical core count; warm-epoch \
               passes skip the PSF render entirely. A memory hit is the stamp_key field \
               hash plus a copy of the pixels, each about a microsecond, and the cache \
               lock; a disk hit adds one bounded file read and the table-driven CRC over \
               the stamp"
            .into(),
    };
    let json = serde_json::to_string_pretty(&result).expect("serialize");
    std::fs::write("BENCH_render.json", format!("{json}\n")).expect("write BENCH_render.json");
    progress!("wrote BENCH_render.json");
}
