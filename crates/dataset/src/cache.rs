//! Content-addressed render cache for preprocessed stamps.
//!
//! The training hot path renders every (reference, observation) pair from
//! its [`SampleSpec`] and preprocesses it (difference image → signed log
//! stretch → centred crop) on **every** epoch. Rendering is a pure
//! function of the spec, so the preprocessed pixels can be cached without
//! any risk of changing an answer: a hit returns exactly the bytes a miss
//! would have computed.
//!
//! Two layers, enabled together by [`configure`] (the `--render-cache
//! <dir>` flag or the `SNIA_RENDER_CACHE` environment variable):
//!
//! * an **in-memory stamp cache** (bounded by
//!   `SNIA_RENDER_CACHE_MEM_MB`, default 256 MiB) that skips the render
//!   and the disk read on later epochs. A hit still costs the
//!   [`stamp_key`] hash (the spec's JSON serialisation: `stamp_key_us`
//!   in `BENCH_render.json`, ~28 µs on a 2-vCPU AVX2 host) plus a ~1 µs
//!   copy of the pixels, so it is cheap, not free;
//! * an **on-disk content-addressed store**: one file per stamp named by
//!   the FNV-1a hash of the *full serialized spec* plus the render
//!   parameters (observation index, crop, log-stretch flag), CRC-framed
//!   via [`crate::framing`] (`SNIA-STAMP v1`). Because the key covers the
//!   complete generative description, two different specs can never
//!   collide on intent — a stale directory from another seed simply never
//!   hits. Once a dataset outgrows the memory budget this is the
//!   steady-state input path: a warm read is the key hash, one bounded
//!   file read and a table-driven CRC over the stamp.
//!
//! A corrupt entry (truncated or over-long file, flipped byte, wrong
//! pixel count) is detected before or by the CRC frame, counted in
//! `dataset.cache.corrupt`, and
//! silently re-rendered and rewritten — corruption can cost time, never
//! correctness.
//!
//! With the cache unconfigured every call renders directly; the train
//! loops are bit-identical with the cache off, cold, or warm (pinned by
//! `tests/golden.rs`).

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::framing::{decode_framed, encode_framed};
use crate::spec::SampleSpec;

/// Magic string of the on-disk stamp envelope.
pub const STAMP_MAGIC: &str = "SNIA-STAMP";

/// On-disk stamp format version.
pub const STAMP_VERSION: u32 = 1;

/// Default in-memory layer budget when `SNIA_RENDER_CACHE_MEM_MB` is unset.
const DEFAULT_MEM_CAP_BYTES: usize = 256 * 1024 * 1024;

struct CacheState {
    /// Whether [`configure`] or the environment has been consulted yet.
    initialized: bool,
    /// Disk store directory; `None` = cache disabled.
    dir: Option<PathBuf>,
    /// In-memory stamp layer, keyed by content hash.
    memory: HashMap<u64, Vec<f32>>,
    /// Bytes currently held by `memory`.
    memory_bytes: usize,
    /// Budget for `memory`; inserts stop (deterministically) once reached.
    memory_cap: usize,
}

fn state() -> &'static Mutex<CacheState> {
    static STATE: OnceLock<Mutex<CacheState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(CacheState {
            initialized: false,
            dir: None,
            memory: HashMap::new(),
            memory_bytes: 0,
            memory_cap: DEFAULT_MEM_CAP_BYTES,
        })
    })
}

static HITS: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static CORRUPT: AtomicU64 = AtomicU64::new(0);
static BYTES_WRITTEN: AtomicU64 = AtomicU64::new(0);
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the cache counters (cumulative since process start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the in-memory layer.
    pub hits: u64,
    /// Lookups served from the on-disk store (subset also counted as work
    /// the renderer did not repeat).
    pub disk_hits: u64,
    /// Lookups that fell through to a fresh render.
    pub misses: u64,
    /// Disk entries rejected by the CRC frame and re-rendered.
    pub corrupt: u64,
    /// Bytes written into the on-disk store.
    pub bytes_written: u64,
}

/// Reads the cumulative cache counters.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        disk_hits: DISK_HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        corrupt: CORRUPT.load(Ordering::Relaxed),
        bytes_written: BYTES_WRITTEN.load(Ordering::Relaxed),
    }
}

/// The memory-layer budget: `SNIA_RENDER_CACHE_MEM_MB` MiB, or
/// [`DEFAULT_MEM_CAP_BYTES`] when unset or unparsable.
fn mem_cap_from_env() -> usize {
    std::env::var("SNIA_RENDER_CACHE_MEM_MB")
        .ok()
        .and_then(|mb| mb.parse::<usize>().ok())
        .map_or(DEFAULT_MEM_CAP_BYTES, |mb| mb.saturating_mul(1024 * 1024))
}

fn ensure_initialized(st: &mut CacheState) {
    if st.initialized {
        return;
    }
    st.initialized = true;
    st.memory_cap = mem_cap_from_env();
    if let Ok(dir) = std::env::var("SNIA_RENDER_CACHE") {
        if !dir.is_empty() && fs::create_dir_all(&dir).is_ok() {
            st.dir = Some(PathBuf::from(dir));
        }
    }
}

/// Enables the cache with an on-disk store at `dir` (created if missing),
/// or disables it with `None`. Overrides any `SNIA_RENDER_CACHE`
/// environment setting. The in-memory layer is cleared either way and
/// its budget re-read from `SNIA_RENDER_CACHE_MEM_MB`.
///
/// # Errors
///
/// Returns the I/O error if the directory cannot be created.
pub fn configure(dir: Option<&Path>) -> io::Result<()> {
    let mut st = state().lock().expect("render cache lock");
    st.initialized = true;
    st.memory.clear();
    st.memory_bytes = 0;
    st.memory_cap = mem_cap_from_env();
    match dir {
        Some(d) => {
            fs::create_dir_all(d)?;
            st.dir = Some(d.to_path_buf());
        }
        None => st.dir = None,
    }
    Ok(())
}

/// Whether the cache is active (explicitly configured or via
/// `SNIA_RENDER_CACHE`).
pub fn enabled() -> bool {
    let mut st = state().lock().expect("render cache lock");
    ensure_initialized(&mut st);
    st.dir.is_some()
}

/// Drops the in-memory layer (the disk store is untouched). Used by the
/// benchmarks to measure disk-warm performance in-process.
pub fn clear_memory() {
    let mut st = state().lock().expect("render cache lock");
    st.memory.clear();
    st.memory_bytes = 0;
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Content-addressed key of one preprocessed stamp: FNV-1a over the
/// spec's full JSON serialization plus the render parameters. Hashing the
/// complete generative description (not just the sample id) means caches
/// from different seeds, crops or preprocessing settings can never serve
/// each other's pixels.
pub fn stamp_key(spec: &SampleSpec, obs_index: usize, crop: usize, log_stretch: bool) -> u64 {
    let json = serde_json::to_string(spec).expect("sample spec serializes");
    let mut h = fnv1a(0xCBF2_9CE4_8422_2325, json.as_bytes());
    h = fnv1a(h, &(obs_index as u64).to_le_bytes());
    h = fnv1a(h, &(crop as u64).to_le_bytes());
    fnv1a(h, &[u8::from(log_stretch)])
}

/// Renders and preprocesses one stamp directly (no cache): difference
/// image of the PSF-matched reference and the observation, optional
/// signed log stretch, centred crop. This is the single definition of the
/// paper's preprocessing used by both the cached and uncached paths, so a
/// cache hit cannot change an answer by construction.
///
/// # Panics
///
/// Panics if `obs_index` is out of range or `crop` exceeds the stamp.
pub fn render_stamp(
    spec: &SampleSpec,
    obs_index: usize,
    crop: usize,
    log_stretch: bool,
) -> Vec<f32> {
    let reference = spec.matched_reference_image(obs_index);
    let observation = spec.observation_image(obs_index);
    let diff = observation.subtract(&reference);
    let diff = if log_stretch {
        diff.log_stretch()
    } else {
        diff
    };
    diff.crop_center(crop).data().to_vec()
}

fn stamp_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.stamp"))
}

fn pixels_to_bytes(pixels: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pixels.len() * 4);
    for &p in pixels {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

fn bytes_to_pixels(bytes: &[u8], expect: usize) -> Option<Vec<f32>> {
    if bytes.len() != expect * 4 {
        return None;
    }
    Some(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect(),
    )
}

/// Writes a stamp entry atomically (unique temp file + rename), so a
/// concurrent or crashed writer can never leave a torn entry under the
/// final name.
fn write_entry(dir: &Path, key: u64, pixels: &[f32]) {
    let framed = encode_framed(STAMP_MAGIC, STAMP_VERSION, &pixels_to_bytes(pixels));
    let tmp = dir.join(format!(
        "{key:016x}.tmp{}-{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    // Cache writes are best-effort: a full disk degrades to re-rendering.
    if fs::write(&tmp, &framed).is_ok() && fs::rename(&tmp, stamp_path(dir, key)).is_ok() {
        BYTES_WRITTEN.fetch_add(framed.len() as u64, Ordering::Relaxed);
        snia_telemetry::counter_add("dataset.cache.bytes", framed.len() as u64);
    } else {
        let _ = fs::remove_file(&tmp);
    }
}

/// Length of the frame [`write_entry`] writes for `pixels` floats. No
/// entry this crate writes is longer, so anything longer is corrupt.
fn max_entry_len(pixels: usize) -> usize {
    let body = pixels * 4;
    format!("{STAMP_MAGIC} v{STAMP_VERSION} crc32=00000000 len={body}\n").len() + body
}

/// Reads and validates one entry; `None` on a miss or a corrupt entry.
/// At most [`max_entry_len`] + 1 bytes are read, so an over-long file
/// costs neither its size in memory nor the time to read it.
fn read_entry(dir: &Path, key: u64, expect: usize) -> Option<Vec<f32>> {
    let file = fs::File::open(stamp_path(dir, key)).ok()?;
    let max = max_entry_len(expect);
    let mut bytes = Vec::with_capacity(max);
    file.take(max as u64 + 1).read_to_end(&mut bytes).ok()?;
    let px = if bytes.len() > max {
        None
    } else {
        decode_framed(STAMP_MAGIC, STAMP_VERSION, &bytes)
            .ok()
            .and_then(|body| bytes_to_pixels(body, expect))
    };
    if px.is_none() {
        CORRUPT.fetch_add(1, Ordering::Relaxed);
        snia_telemetry::counter_add("dataset.cache.corrupt", 1);
    }
    px
}

fn memory_insert(st: &mut CacheState, key: u64, pixels: &[f32]) {
    let bytes = pixels.len() * 4;
    if st.memory_bytes + bytes > st.memory_cap || st.memory.contains_key(&key) {
        return;
    }
    st.memory.insert(key, pixels.to_vec());
    st.memory_bytes += bytes;
}

/// The preprocessed pixels of observation `obs_index` of `spec`, cropped
/// to `crop × crop`, through the cache when one is configured.
///
/// Cache disabled → renders directly. Cache enabled → memory layer, then
/// the disk store, then a fresh render that populates both. Every path
/// returns bit-identical pixels.
///
/// # Panics
///
/// Panics if `obs_index` is out of range or `crop` exceeds the stamp.
pub fn stamp_pixels(
    spec: &SampleSpec,
    obs_index: usize,
    crop: usize,
    log_stretch: bool,
) -> Vec<f32> {
    let dir = {
        let mut st = state().lock().expect("render cache lock");
        ensure_initialized(&mut st);
        match &st.dir {
            None => return render_stamp(spec, obs_index, crop, log_stretch),
            Some(d) => d.clone(),
        }
    };
    let key = stamp_key(spec, obs_index, crop, log_stretch);
    {
        let st = state().lock().expect("render cache lock");
        if let Some(px) = st.memory.get(&key) {
            let px = px.clone();
            drop(st);
            HITS.fetch_add(1, Ordering::Relaxed);
            snia_telemetry::counter_add("dataset.cache.hits", 1);
            return px;
        }
    }
    if let Some(px) = read_entry(&dir, key, crop * crop) {
        let mut st = state().lock().expect("render cache lock");
        memory_insert(&mut st, key, &px);
        drop(st);
        DISK_HITS.fetch_add(1, Ordering::Relaxed);
        HITS.fetch_add(1, Ordering::Relaxed);
        snia_telemetry::counter_add("dataset.cache.hits", 1);
        snia_telemetry::counter_add("dataset.cache.disk_hits", 1);
        return px;
    }
    let px = render_stamp(spec, obs_index, crop, log_stretch);
    write_entry(&dir, key, &px);
    {
        let mut st = state().lock().expect("render cache lock");
        memory_insert(&mut st, key, &px);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    snia_telemetry::counter_add("dataset.cache.misses", 1);
    px
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Dataset, DatasetConfig};

    fn tiny() -> Dataset {
        Dataset::generate(&DatasetConfig {
            n_samples: 2,
            catalog_size: 40,
            seed: 314,
        })
    }

    /// A scoped guard: configures the cache into a fresh temp dir and
    /// restores the disabled state on drop, so cache tests cannot leak
    /// into the rest of the (process-shared) suite. It holds a lock for
    /// its lifetime, so tests that configure the cache run one at a time.
    struct TempCache {
        dir: PathBuf,
        _serial: std::sync::MutexGuard<'static, ()>,
    }

    impl TempCache {
        fn new(tag: &str) -> Self {
            static SERIAL: Mutex<()> = Mutex::new(());
            let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            let dir =
                std::env::temp_dir().join(format!("snia-cache-test-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            configure(Some(&dir)).expect("create cache dir");
            TempCache {
                dir,
                _serial: serial,
            }
        }
    }

    impl Drop for TempCache {
        fn drop(&mut self) {
            configure(None).expect("disable cache");
            let _ = fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn keys_separate_specs_and_parameters() {
        let ds = tiny();
        let (a, b) = (&ds.samples[0], &ds.samples[1]);
        assert_ne!(stamp_key(a, 0, 36, true), stamp_key(b, 0, 36, true));
        assert_ne!(stamp_key(a, 0, 36, true), stamp_key(a, 1, 36, true));
        assert_ne!(stamp_key(a, 0, 36, true), stamp_key(a, 0, 44, true));
        assert_ne!(stamp_key(a, 0, 36, true), stamp_key(a, 0, 36, false));
        assert_eq!(stamp_key(a, 0, 36, true), stamp_key(a, 0, 36, true));
    }

    #[test]
    fn stamp_round_trips_through_disk_and_memory() {
        let ds = tiny();
        let s = &ds.samples[0];
        let direct = render_stamp(s, 3, 36, true);
        let guard = TempCache::new("roundtrip");
        let cold = stamp_pixels(s, 3, 36, true);
        assert_eq!(cold, direct, "cold fill must equal a direct render");
        let warm = stamp_pixels(s, 3, 36, true);
        assert_eq!(warm, direct, "memory hit must equal a direct render");
        clear_memory();
        let from_disk = stamp_pixels(s, 3, 36, true);
        assert_eq!(from_disk, direct, "disk hit must equal a direct render");
        let key = stamp_key(s, 3, 36, true);
        assert!(stamp_path(&guard.dir, key).exists());
    }

    #[test]
    fn corrupt_disk_entry_falls_back_to_rendering() {
        let ds = tiny();
        let s = &ds.samples[1];
        let direct = render_stamp(s, 0, 36, true);
        let guard = TempCache::new("corrupt");
        let _ = stamp_pixels(s, 0, 36, true);
        let key = stamp_key(s, 0, 36, true);
        let path = stamp_path(&guard.dir, key);
        let mut bytes = fs::read(&path).expect("entry written");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        fs::write(&path, &bytes).expect("corrupt entry");
        clear_memory();
        let before = stats().corrupt;
        let recovered = stamp_pixels(s, 0, 36, true);
        assert_eq!(recovered, direct, "fallback must re-render, not error");
        assert!(stats().corrupt > before, "corruption must be counted");
        // The rewritten entry is valid again.
        clear_memory();
        assert_eq!(stamp_pixels(s, 0, 36, true), direct);
    }

    #[test]
    fn configure_reads_the_memory_budget() {
        let ds = tiny();
        let s = &ds.samples[1];
        std::env::set_var("SNIA_RENDER_CACHE_MEM_MB", "0");
        let guard = TempCache::new("membudget");
        std::env::remove_var("SNIA_RENDER_CACHE_MEM_MB");
        let _ = stamp_pixels(s, 2, 36, true);
        let before = stats();
        let _ = stamp_pixels(s, 2, 36, true);
        let after = stats();
        assert_eq!(
            after.disk_hits,
            before.disk_hits + 1,
            "a zero budget sends every fetch to disk"
        );
        drop(guard);
        let _guard = TempCache::new("membudget-default");
        let _ = stamp_pixels(s, 2, 36, true);
        let before = stats();
        let _ = stamp_pixels(s, 2, 36, true);
        assert_eq!(
            stats().disk_hits,
            before.disk_hits,
            "default budget: memory hit"
        );
    }

    #[test]
    fn over_long_entry_is_re_rendered_without_reading_it() {
        let ds = tiny();
        let s = &ds.samples[0];
        let direct = render_stamp(s, 1, 36, true);
        let guard = TempCache::new("overlong");
        let _ = stamp_pixels(s, 1, 36, true);
        let path = stamp_path(&guard.dir, stamp_key(s, 1, 36, true));
        let written = fs::read(&path).expect("entry written");
        assert_eq!(
            written.len(),
            max_entry_len(36 * 36),
            "writer and bound agree"
        );

        // A frame that would decode (extra header whitespace) but is one
        // byte longer than the writer ever produces, and a sparse 64 MiB
        // file: both are corrupt and re-rendered.
        let padded = encode_framed(
            &format!("{STAMP_MAGIC} "),
            STAMP_VERSION,
            &pixels_to_bytes(&direct),
        );
        assert_eq!(padded.len(), written.len() + 1);
        assert!(decode_framed(STAMP_MAGIC, STAMP_VERSION, &padded).is_ok());
        let check = |name: &str| {
            clear_memory();
            let before = stats().corrupt;
            assert_eq!(stamp_pixels(s, 1, 36, true), direct, "{name}: re-render");
            assert_eq!(stats().corrupt, before + 1, "{name}: counted as corrupt");
            assert_eq!(
                fs::read(&path).expect("rewritten"),
                written,
                "{name}: rewritten"
            );
        };
        fs::write(&path, &padded).expect("padded entry");
        check("padded");
        fs::File::create(&path)
            .and_then(|f| f.set_len(64 << 20))
            .expect("sparse entry");
        check("sparse");
    }

    #[test]
    fn render_stamp_crop_keeps_the_stamp_centre_pixel() {
        // 65 → 60 is the paper's even-on-odd crop: the stamp centre pixel
        // (32, 32) must survive at (30, 30) = crop/2 (top-left-wins
        // parity, see `Image::crop_center`).
        let ds = Dataset::generate(&DatasetConfig {
            n_samples: 1,
            catalog_size: 30,
            seed: 33,
        });
        let s = &ds.samples[0];
        let full = s
            .observation_image(2)
            .subtract(&s.matched_reference_image(2))
            .log_stretch();
        let centre = snia_skysim::STAMP_SIZE / 2;
        for crop in [60, 61] {
            let px = render_stamp(s, 2, crop, true);
            let out = centre - (snia_skysim::STAMP_SIZE - crop) / 2;
            assert_eq!(
                px[out * crop + out],
                full.get(centre, centre),
                "crop {crop} lost the stamp centre pixel"
            );
            // 60 (even) keeps it at crop/2; 61 (odd) at (crop−1)/2.
            assert_eq!(
                out,
                if crop % 2 == 0 {
                    crop / 2
                } else {
                    (crop - 1) / 2
                }
            );
        }
    }

    #[test]
    fn render_stamp_output_is_log_compressed() {
        let ds = Dataset::generate(&DatasetConfig {
            n_samples: 1,
            catalog_size: 30,
            seed: 32,
        });
        let px = render_stamp(&ds.samples[0], 0, 60, true);
        // Raw difference pixels can reach hundreds of counts; after the log
        // stretch everything is within a few decades.
        assert!(px.iter().all(|&v| v < 4.0 && v > -4.0));
    }

    #[test]
    fn disabled_cache_renders_directly() {
        let ds = tiny();
        let s = &ds.samples[0];
        assert_eq!(stamp_pixels(s, 2, 30, false), render_stamp(s, 2, 30, false));
    }
}
