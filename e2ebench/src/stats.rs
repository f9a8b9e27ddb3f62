//! Order statistics for the benchmark's timings.

/// A tail percentile as reported: the percentile actually used, its
/// value, and how many samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile used, as a fraction in `(0, 1)`.
    pub q: f64,
    /// The sample at that percentile (nearest rank).
    pub value: u64,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `q`-quantile of `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q`-quantile of `sorted` when at least [`MIN_BEYOND`] samples lie
/// beyond it; otherwise the highest percentile that has that many, and
/// `None` when even the lowest sample has fewer behind it.
pub fn tail(sorted: &[u64], q: f64) -> Option<Tail> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let k = rank(n, q).min(n - 1 - MIN_BEYOND);
    Some(Tail {
        q: (k + 1) as f64 / n as f64,
        value: sorted[k],
        beyond: n - 1 - k,
    })
}

/// The median of `sorted` (nearest rank), 0 when empty.
pub fn median_u64(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), 0.5)]
}

/// Folds one replay's timings into `best`, element by element, keeping
/// the smaller; an empty `best` takes `sample` as it is. Element `i` of
/// every replay must time the same work, so replays of different
/// lengths are refused.
pub fn fold_min(best: &mut Vec<u64>, sample: &[u64]) -> Result<(), String> {
    if best.is_empty() {
        best.extend_from_slice(sample);
        return Ok(());
    }
    if best.len() != sample.len() {
        return Err(format!(
            "replays of one workload timed {} and {} steps",
            best.len(),
            sample.len()
        ));
    }
    for (b, &s) in best.iter_mut().zip(sample) {
        *b = (*b).min(s);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn p99_is_used_when_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000), 0.99).unwrap();
        assert_eq!(t.value, 990);
        assert_eq!(t.beyond, 10);
        assert!((t.q - 0.99).abs() < 1e-12);
    }

    #[test]
    fn short_series_falls_back_to_the_highest_percentile_with_ten_beyond() {
        let t = tail(&ramp(500), 0.99).unwrap();
        assert_eq!(t.beyond, MIN_BEYOND);
        assert_eq!(t.value, 490);
        assert!((t.q - 0.98).abs() < 1e-12);
        let t = tail(&ramp(11), 0.99).unwrap();
        assert_eq!((t.value, t.beyond), (1, 10));
    }

    #[test]
    fn too_few_samples_give_no_tail() {
        assert_eq!(tail(&ramp(10), 0.99), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn median_is_the_nearest_rank() {
        assert_eq!(median_u64(&ramp(5)), 3);
        assert_eq!(median_u64(&[]), 0);
    }

    #[test]
    fn fold_min_keeps_the_smaller_of_each_step() {
        let mut best = Vec::new();
        fold_min(&mut best, &[5, 1, 7]).unwrap();
        assert_eq!(best, [5, 1, 7]);
        fold_min(&mut best, &[3, 4, 7]).unwrap();
        assert_eq!(best, [3, 1, 7]);
        assert!(fold_min(&mut best, &[1, 1]).is_err());
        assert_eq!(best, [3, 1, 7]);
    }
}
