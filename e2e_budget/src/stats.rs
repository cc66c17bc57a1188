//! Small numeric helpers: percentiles, the field hash, process memory.

use brainshift_imaging::DisplacementField;

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median as the mean of the two middle values for an even count, so
/// that a median of two set-ups is not simply the slower one.
pub fn median(v: Vec<f64>) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// FNV-1a taking one 64-bit word per step.
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hash of the bit patterns of a field's components. Equal hashes mean
/// bitwise-equal fields.
pub fn field_hash(field: &DisplacementField) -> u64 {
    fnv1a_words(
        field
            .data()
            .iter()
            .flat_map(|u| [u.x.to_bits(), u.y.to_bits(), u.z.to_bits()]),
    )
}

/// `VmHWM` of this process in MiB (0 where `/proc` has none).
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
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` to the current resident size, so that `--repeat` reads
/// a peak per run. Best effort: a kernel that refuses leaves the
/// process-wide peak, which only makes later runs read no lower.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Last-level cache size as the kernel reports it, for the roofline row.
pub fn llc_size() -> String {
    (0..=4)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
