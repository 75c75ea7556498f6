//! Order statistics and the block scheduler.
//!
//! Percentiles are nearest-rank on integer percents, so the index rule is
//! exact (no `0.95 * 200` rounding): `rank(200, 95) == 189`, leaving
//! exactly ten samples beyond it.

/// Samples a tail percentile must leave beyond itself before it is
/// reported (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of percentile `pct` among `n` sorted
/// samples: `ceil(n * pct / 100) - 1`, clamped to the slice.
pub fn rank(n: usize, pct: u32) -> usize {
    assert!(n > 0 && pct <= 100, "rank needs samples and a percent");
    ((n * pct as usize).div_ceil(100)).clamp(1, n) - 1
}

/// Percentile `pct` of an ascending slice.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    sorted[rank(sorted.len(), pct)]
}

/// Percentile `pct` of an ascending slice, refused (`None`) unless at
/// least [`MIN_BEYOND`] samples lie beyond it: p95 needs 200 samples.
pub fn tail_percentile(sorted: &[f64], pct: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank(sorted.len(), pct);
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50) of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values), 50)
    }
}

/// Round-robin block order: pass 1 runs block 0 of every workload, pass 2
/// block 1 of every workload, and so on, so a slow burst of the host
/// taints one block of each workload instead of every block of one.
pub fn schedule(workloads: usize, blocks: usize) -> Vec<(usize, usize)> {
    (0..blocks).flat_map(|b| (0..workloads).map(move |w| (b, w))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_indices_follow_nearest_rank() {
        assert_eq!(rank(200, 10), 19);
        assert_eq!(rank(200, 50), 99);
        assert_eq!(rank(200, 95), 189);
        assert_eq!(rank(1, 95), 0);
        assert_eq!(rank(7, 100), 6);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 10), 20.0);
        assert_eq!(percentile(&v, 50), 100.0);
        assert_eq!(percentile(&v, 95), 190.0);
    }

    #[test]
    fn p95_is_refused_under_200_samples() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95), Some(190.0));
        assert_eq!(tail_percentile(&v[..199], 95), None);
        assert_eq!(tail_percentile(&[], 95), None);
        // p50 only needs twenty.
        assert_eq!(tail_percentile(&v[..20], 50), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 50), None);
    }

    #[test]
    fn schedule_is_pass_major() {
        assert_eq!(schedule(3, 2), vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        assert_eq!(schedule(1, 3), vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn median_of_unsorted_values() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
