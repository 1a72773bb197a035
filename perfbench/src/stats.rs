//! Order statistics, digests and process measurements shared by every
//! workload.

use std::time::Duration;

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of the usual tail percentiles that leaves at least ten
/// samples beyond it; the median for small samples.
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// A latency sample summarised the way every workload reports it.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    pub count: usize,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// `tail_ms` is the `tail_pct` percentile, see [`tail_percentile`].
    pub tail_pct: f64,
    pub tail_ms: f64,
}

pub fn summarize_ms(latencies_ms: &[f64]) -> LatencySummary {
    let tail_pct = tail_percentile(latencies_ms.len());
    LatencySummary {
        count: latencies_ms.len(),
        mean_ms: latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64,
        p50_ms: median(latencies_ms),
        p90_ms: quantile(latencies_ms, 0.9),
        tail_pct,
        tail_ms: quantile(latencies_ms, tail_pct / 100.0),
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// FNV-1a, the digest used for pixel, score and loss checksums.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

pub fn digest_f32(values: &[f32]) -> u64 {
    values
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

pub fn digest_f64(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
    }
}
