//! Small measurement helpers: percentiles, the `SimStats` fingerprint,
//! peak resident memory and repeat-until-steady kernel timing.

use std::hint::black_box;
use std::time::Instant;

use noc_sim::SimStats;

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank method.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples strictly beyond the `p`-th percentile's rank. A tail
/// percentile is only as good as this count: the reports print it next to
/// every p90, and ten is the least that makes one trustworthy (so p90
/// wants 110 samples).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// FNV-1a 64 (the constants the repository's own content hashes use).
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds every field of `stats` into a running fingerprint. The `Debug`
/// encoding names every field (all are integers or integer vectors), so a
/// field added to `SimStats` later is covered without touching this file.
pub fn fold_stats(fnv: u64, stats: &SimStats) -> u64 {
    fnv1a64(fnv, format!("{stats:?}").as_bytes())
}

/// Peak resident set size of this process in KiB (`VmHWM`), read from
/// `/proc/self/status`; 0 where the file does not exist.
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Nanoseconds per call of `f`: five batches of at least 8 ms each, the
/// median batch. The closure is responsible for passing its inputs and
/// results through `black_box`.
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(5);
    let mut iters = 1u64;
    while per_call.len() < 5 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64;
        if ns < 8e6 {
            // Too short to trust: grow the batch (also serves as warm-up).
            iters = (iters * 2).max((iters as f64 * 1e7 / ns.max(1.0)) as u64);
            continue;
        }
        per_call.push(ns / iters as f64);
    }
    median(&per_call)
}

/// Wall time of `f` in nanoseconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = Instant::now();
    let r = black_box(f());
    (t0.elapsed().as_nanos() as u64, r)
}

/// A JSON number with all the digits of `v` (shortest round-trip form).
/// Non-finite values have no JSON form and mean a broken measurement.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value");
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!(median(&v), 55.0);
        assert_eq!(percentile(&v, 90.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 110.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 90.0), 99.0);
    }

    /// The "ten beyond" rule: 110 samples are the fewest whose p90 has more
    /// than ten samples beyond it; 90 samples support p85, not p90.
    #[test]
    fn ten_beyond_rule() {
        assert_eq!(samples_beyond(110, 90.0), 11);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(90, 90.0), 9);
        assert_eq!(samples_beyond(90, 85.0), 13);
        assert_eq!(samples_beyond(1, 90.0), 0);
    }

    #[test]
    fn stats_fingerprint_is_stable_and_field_sensitive() {
        let mut a = SimStats::new(3, 16, 48);
        a.delivered = 10;
        a.latencies = vec![3, 4, 5];
        let b = a.clone();
        assert_eq!(fold_stats(FNV_OFFSET, &a), fold_stats(FNV_OFFSET, &b));
        let mut c = a.clone();
        c.latencies[2] = 6;
        assert_ne!(fold_stats(FNV_OFFSET, &a), fold_stats(FNV_OFFSET, &c));
        let mut d = a.clone();
        d.watchdog_fires = 1;
        assert_ne!(fold_stats(FNV_OFFSET, &a), fold_stats(FNV_OFFSET, &d));
        // Chaining is order-sensitive.
        assert_ne!(
            fold_stats(fold_stats(FNV_OFFSET, &a), &c),
            fold_stats(fold_stats(FNV_OFFSET, &c), &a)
        );
        // Known FNV-1a vector, so the constants cannot drift.
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn json_numbers_round_trip() {
        for v in [1.0, 0.1 + 0.2, 60321.456789, 1e-9] {
            assert_eq!(json_num(v).parse::<f64>().unwrap(), v);
        }
    }
}
