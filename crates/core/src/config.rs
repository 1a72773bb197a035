//! Experiment configuration with environment overrides.
//!
//! Every experiment binary in `snia-bench` builds its workload from an
//! [`ExperimentConfig`]:
//!
//! * `SNIA_FULL=1` — paper scale (12,000 samples, full training budgets);
//! * `SNIA_SCALE=<f64>` — multiplies dataset size and training epochs
//!   (default 1.0 ≙ the laptop-quick configuration);
//! * `SNIA_SEED=<u64>` — master seed (default 20170101);
//! * `SNIA_THREADS=<usize>` — data-parallel training threads (default 1);
//!   the `--threads N` CLI flag (see [`threads_from_args`]) wins over the
//!   environment.
//! * `SNIA_RENDER_CACHE=<dir>` — stamp render cache directory (see
//!   [`snia_dataset::cache`]); the `--render-cache <dir>` CLI flag (see
//!   [`render_cache_from_args`]) wins over the environment.

use snia_dataset::DatasetConfig;

/// Scaled experiment knobs derived from the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Dataset generation parameters.
    pub dataset: DatasetConfig,
    /// Multiplier applied to training budgets (epochs / step counts).
    pub train_scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Data-parallel training threads (see
    /// [`crate::parallel::BatchExecutor`]).
    pub threads: usize,
}

impl ExperimentConfig {
    /// Reads the configuration from the environment and the process's CLI
    /// arguments (see module docs).
    pub fn from_env() -> Self {
        let seed = std::env::var("SNIA_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(20170101u64);
        let full = std::env::var("SNIA_FULL")
            .map(|v| v == "1")
            .unwrap_or(false);
        let scale: f64 = std::env::var("SNIA_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        let mut cfg = Self::build(full, scale, seed);
        cfg.threads = threads_from_args(std::env::args().skip(1)).unwrap_or_else(|| {
            std::env::var("SNIA_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(1)
        });
        cfg
    }

    /// Builds a configuration explicitly (used by tests; `from_env` is the
    /// production path).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite `scale`; use [`Self::try_build`]
    /// for a fallible variant.
    pub fn build(full: bool, scale: f64, seed: u64) -> Self {
        match Self::try_build(full, scale, seed) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`Self::build`]: rejects non-positive or
    /// non-finite scales with a typed error instead of panicking.
    pub fn try_build(full: bool, scale: f64, seed: u64) -> Result<Self, ConfigError> {
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(ConfigError::InvalidScale(scale));
        }
        let mut dataset = if full {
            DatasetConfig::paper_scale()
        } else {
            DatasetConfig::default()
        };
        dataset.seed = seed;
        if !full {
            dataset.n_samples = ((dataset.n_samples as f64 * scale) as usize).max(40);
            dataset.catalog_size = ((dataset.catalog_size as f64 * scale) as usize).max(100);
        }
        Ok(ExperimentConfig {
            dataset,
            train_scale: if full { 4.0 } else { scale },
            seed,
            threads: 1,
        })
    }

    /// Scales an epoch/step budget, with a floor of 1.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.train_scale).round() as usize).max(1)
    }
}

/// Invalid experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The scale multiplier must be finite and strictly positive.
    InvalidScale(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidScale(s) => write!(f, "invalid scale {s}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parses `--resume <dir>` / `--resume=<dir>` from an argument stream;
/// `None` when absent or malformed.
pub fn resume_from_args<I: IntoIterator<Item = String>>(args: I) -> Option<std::path::PathBuf> {
    flag_value(args, "--resume")
        .filter(|v| !v.is_empty())
        .map(Into::into)
}

/// Resolves the checkpoint directory from CLI arguments (`--resume <dir>`,
/// which wins) or the `SNIA_RESUME` environment variable.
pub fn resume_from_env_args() -> Option<std::path::PathBuf> {
    resume_from_args(std::env::args().skip(1)).or_else(|| {
        std::env::var("SNIA_RESUME")
            .ok()
            .filter(|v| !v.is_empty())
            .map(Into::into)
    })
}

/// Parses `--render-cache <dir>` / `--render-cache=<dir>` from an
/// argument stream; `None` when absent or malformed.
pub fn render_cache_from_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Option<std::path::PathBuf> {
    flag_value(args, "--render-cache")
        .filter(|v| !v.is_empty())
        .map(Into::into)
}

/// Resolves the render-cache directory from CLI arguments
/// (`--render-cache <dir>`, which wins) or the `SNIA_RENDER_CACHE`
/// environment variable, and activates
/// [`snia_dataset::cache`] when one is present. Returns the directory in
/// use, `None` when the cache stays disabled or the directory cannot be
/// created (caching is an optimisation, never a hard failure).
pub fn render_cache_from_env_args() -> Option<std::path::PathBuf> {
    let dir = render_cache_from_args(std::env::args().skip(1)).or_else(|| {
        std::env::var("SNIA_RENDER_CACHE")
            .ok()
            .filter(|v| !v.is_empty())
            .map(Into::into)
    })?;
    match snia_dataset::cache::configure(Some(&dir)) {
        Ok(()) => Some(dir),
        Err(e) => {
            eprintln!("warning: render cache disabled ({}: {e})", dir.display());
            None
        }
    }
}

/// Parses `--threads N` / `--threads=N` from an argument stream; `None`
/// when absent or malformed.
pub fn threads_from_args<I: IntoIterator<Item = String>>(args: I) -> Option<usize> {
    flag_value(args, "--threads")?
        .parse()
        .ok()
        .filter(|&t| t > 0)
}

/// The value of the first `flag v` / `flag=v` in an argument stream;
/// `None` when the flag is absent or is the last argument.
fn flag_value<I: IntoIterator<Item = String>>(args: I, flag: &str) -> Option<String> {
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            return iter.next();
        }
        if let Some(v) = arg.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            return Some(v.to_owned());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_laptop_scale() {
        let c = ExperimentConfig::build(false, 1.0, 1);
        assert_eq!(c.dataset.n_samples, 1200);
        assert_eq!(c.scaled(3), 3);
    }

    #[test]
    fn full_is_paper_scale() {
        let c = ExperimentConfig::build(true, 1.0, 1);
        assert_eq!(c.dataset.n_samples, 12_000);
        assert!(c.train_scale > 1.0);
    }

    #[test]
    fn scale_shrinks_dataset_with_floor() {
        let c = ExperimentConfig::build(false, 0.01, 1);
        assert_eq!(c.dataset.n_samples, 40);
        assert_eq!(c.scaled(10), 1);
    }

    #[test]
    fn seed_propagates() {
        let c = ExperimentConfig::build(false, 1.0, 99);
        assert_eq!(c.dataset.seed, 99);
        assert_eq!(c.seed, 99);
    }

    #[test]
    #[should_panic(expected = "invalid scale")]
    fn bad_scale_panics() {
        ExperimentConfig::build(false, 0.0, 1);
    }

    #[test]
    fn try_build_returns_typed_errors() {
        assert_eq!(
            ExperimentConfig::try_build(false, 0.0, 1).unwrap_err(),
            ConfigError::InvalidScale(0.0)
        );
        assert!(ExperimentConfig::try_build(false, f64::NAN, 1).is_err());
        assert!(ExperimentConfig::try_build(false, f64::INFINITY, 1).is_err());
        let ok = ExperimentConfig::try_build(false, 1.0, 7).unwrap();
        assert_eq!(ok, ExperimentConfig::build(false, 1.0, 7));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn threads_flag_forms() {
        assert_eq!(threads_from_args(args(&["--threads", "4"])), Some(4));
        assert_eq!(threads_from_args(args(&["--threads=2"])), Some(2));
        assert_eq!(
            threads_from_args(args(&["--metrics-out", "m.jsonl", "--threads", "8"])),
            Some(8)
        );
        assert_eq!(threads_from_args(args(&[])), None);
        assert_eq!(threads_from_args(args(&["--threads"])), None);
        assert_eq!(threads_from_args(args(&["--threads", "zero"])), None);
        assert_eq!(threads_from_args(args(&["--threads", "0"])), None);
    }

    #[test]
    fn render_cache_flag_forms() {
        assert_eq!(
            render_cache_from_args(args(&["--render-cache", "cache/dir"])),
            Some(std::path::PathBuf::from("cache/dir"))
        );
        assert_eq!(
            render_cache_from_args(args(&["--threads", "2", "--render-cache=rc"])),
            Some(std::path::PathBuf::from("rc"))
        );
        assert_eq!(render_cache_from_args(args(&[])), None);
        assert_eq!(render_cache_from_args(args(&["--render-cache"])), None);
        assert_eq!(render_cache_from_args(args(&["--render-cache="])), None);
    }

    #[test]
    fn resume_flag_forms() {
        assert_eq!(
            resume_from_args(args(&["--resume", "ckpt/dir"])),
            Some(std::path::PathBuf::from("ckpt/dir"))
        );
        assert_eq!(
            resume_from_args(args(&["--threads", "2", "--resume=out"])),
            Some(std::path::PathBuf::from("out"))
        );
        assert_eq!(resume_from_args(args(&[])), None);
        assert_eq!(resume_from_args(args(&["--resume"])), None);
        assert_eq!(resume_from_args(args(&["--resume="])), None);
    }
}
