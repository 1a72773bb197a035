//! `ingest-render`: preprocessed stamps fetched through
//! `cache::stamp_pixels`, first on a fresh cache directory (cold fill:
//! render, frame, atomic write; the throughput phase), then from that
//! filled directory after `cache::clear_memory()` (warm disk: read and
//! CRC-check; the latency phase). A seeded subset is also rendered with
//! the cache off, and all three paths must give the same pixels.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Value;
use snia_dataset::{cache, render_stamp, Dataset, DatasetConfig};

use crate::stats::{digest_f32, fnv1a, median, ms, FNV_OFFSET};
use crate::{Bench, Outcome, Phase};

#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Samples in the dataset; each contributes all of its observations.
    pub samples: usize,
    pub crop: usize,
    pub log_stretch: bool,
    /// Stamps also rendered with the cache off to check the cached pixels.
    pub checked: usize,
    /// Share of the run spent on cold-fill passes (the rest reads warm).
    pub cold_share: f64,
}

impl IngestConfig {
    pub fn render(smoke: bool) -> Self {
        IngestConfig {
            samples: if smoke { 2 } else { 100 },
            crop: 60,
            log_stretch: true,
            checked: if smoke { 4 } else { 32 },
            cold_share: 0.6,
        }
    }

    pub fn describe(&self) -> Value {
        serde_json::json!({
            "samples": (self.samples),
            "crop": (self.crop),
            "log_stretch": (self.log_stretch),
            "checked_against_uncached": (self.checked),
            "cold_share": (self.cold_share)
        })
    }
}

pub struct IngestBench {
    cfg: IngestConfig,
    ds: Dataset,
    /// `(sample, observation)` in a seeded order.
    stamps: Vec<(usize, usize)>,
    /// `(position in stamps, digest)` of each checked stamp rendered with
    /// the cache off.
    uncached: Vec<(usize, u64)>,
    dir: PathBuf,
    passes: u64,
}

pub fn setup(cfg: IngestConfig, seed: u64, dir: &Path) -> IngestBench {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: cfg.samples,
        catalog_size: 500,
        seed,
    });
    let mut stamps: Vec<(usize, usize)> = ds
        .samples
        .iter()
        .enumerate()
        .flat_map(|(si, s)| (0..s.schedule.observations.len()).map(move |oi| (si, oi)))
        .collect();
    stamps.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x1A6E));
    let step = stamps.len() / cfg.checked.min(stamps.len());
    let uncached = (0..stamps.len())
        .step_by(step)
        .take(cfg.checked)
        .map(|i| {
            let (si, oi) = stamps[i];
            let px = render_stamp(&ds.samples[si], oi, cfg.crop, cfg.log_stretch);
            (i, digest_f32(&px))
        })
        .collect();
    IngestBench {
        cfg,
        ds,
        stamps,
        uncached,
        dir: dir.to_path_buf(),
        passes: 0,
    }
}

/// One pass's fetch times and pixel digests, in stamp order.
struct PassResult {
    times: Vec<Duration>,
    digests: Vec<u64>,
}

impl PassResult {
    fn busy(&self) -> Duration {
        self.times.iter().sum()
    }

    fn checksum(&self) -> u64 {
        self.digests
            .iter()
            .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
    }
}

impl IngestBench {
    /// Fetches every stamp once through the cache, timing each fetch.
    fn pass(&self) -> PassResult {
        let mut digests = Vec::with_capacity(self.stamps.len());
        let mut times = Vec::with_capacity(self.stamps.len());
        for &(si, oi) in &self.stamps {
            let t0 = Instant::now();
            let px = cache::stamp_pixels(
                &self.ds.samples[si],
                oi,
                self.cfg.crop,
                self.cfg.log_stretch,
            );
            times.push(t0.elapsed());
            digests.push(digest_f32(&px));
        }
        PassResult { times, digests }
    }

    fn matches_uncached(&self, pass: &PassResult) -> bool {
        self.uncached.iter().all(|&(i, d)| pass.digests[i] == d)
    }
}

impl Bench for IngestBench {
    fn measure(&mut self, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let before = cache::stats();
        let n = self.stamps.len() as u64;
        let mut checksums = Vec::new();
        let mut uncached_ok = true;

        let mut cold = Phase::new("cold_fill");
        let cold_budget = Duration::from_secs_f64(seconds * self.cfg.cold_share);
        let mut busy = Duration::ZERO;
        let mut pass_dir = None;
        let mut pass_rates = Vec::new();
        while busy < cold_budget || cold.sent == 0 {
            let dir = self.dir.join(format!("pass-{}", self.passes));
            self.passes += 1;
            cache::configure(Some(&dir)).expect("render cache directory");
            if let Some(old) = pass_dir.replace(dir) {
                let _ = std::fs::remove_dir_all(old);
            }
            let pass = self.pass();
            busy += pass.busy();
            pass_rates.push(n as f64 / pass.busy().as_secs_f64());
            cold.sent += n;
            cold.answered += n;
            uncached_ok &= self.matches_uncached(&pass);
            checksums.push(pass.checksum());
        }
        out.throughput = median(&pass_rates);
        out.detail(
            "cold_overall_per_s",
            Value::F64(cold.answered as f64 / busy.as_secs_f64()),
        );
        let filled = cache::stats();

        let mut warm = Phase::new("warm_disk");
        let warm_budget = Duration::from_secs_f64(seconds * (1.0 - self.cfg.cold_share));
        let mut busy = Duration::ZERO;
        while busy < warm_budget || warm.sent == 0 {
            cache::clear_memory();
            let pass = self.pass();
            busy += pass.busy();
            out.latencies_ms.extend(pass.times.iter().map(|&t| ms(t)));
            warm.sent += n;
            warm.answered += n;
            uncached_ok &= self.matches_uncached(&pass);
            checksums.push(pass.checksum());
        }
        let after = cache::stats();
        cache::configure(None).expect("disable render cache");
        if let Some(dir) = pass_dir {
            let _ = std::fs::remove_dir_all(dir);
        }

        out.check("cached_pixels_match_uncached_render", uncached_ok);
        out.check(
            "cold_and_warm_passes_same_checksum",
            checksums.windows(2).all(|w| w[0] == w[1]),
        );
        out.check("no_corrupt_entries", after.corrupt == before.corrupt);
        out.check(
            "every_fetch_took_the_measured_path",
            filled.misses - before.misses == cold.answered
                && after.disk_hits - filled.disk_hits == warm.answered,
        );
        out.detail(
            "pixel_checksum",
            Value::Str(format!("{:016x}", checksums[0])),
        );
        out.detail(
            "bytes_written",
            Value::U64(filled.bytes_written - before.bytes_written),
        );
        out.phases.push(cold);
        out.phases.push(warm);
        out
    }
}
