//! Order statistics over timing samples.

/// Nearest-rank percentile `q ∈ [0, 1]` of `values` (sorted or not).
/// Returns 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The epsilon keeps `0.95 * 200` from rounding up past rank 190.
    let rank = ((q * v.len() as f64 - 1e-9).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values` (the mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p99/p95/p90/p75/p50 that still has at least ten samples
/// beyond it, so a reported tail is never one or two outliers.
pub fn supported_tail(n: usize) -> Option<(f64, &'static str)> {
    [
        (0.99, "p99"),
        (0.95, "p95"),
        (0.90, "p90"),
        (0.75, "p75"),
        (0.50, "p50"),
    ]
    .into_iter()
    .find(|&(q, _)| n - ((q * n as f64 - 1e-9).ceil() as usize).min(n) >= 10)
}

/// One human-readable line for a timing sample: count, median, and the
/// highest percentile the sample supports.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let tail = match supported_tail(values.len()) {
        Some((q, label)) => format!("{label} {:.4} {unit}", percentile(values, q)),
        None => "no tail (fewer than 20 samples)".to_string(),
    };
    format!(
        "{name:<28} n={:<6} p50 {:.4} {unit}  {tail}",
        values.len(),
        median(values)
    )
}

/// Times `f` `reps` times and returns the fastest run in microseconds: the
/// in-process layer probes are short and deterministic, so the minimum is
/// the least disturbed reading.
pub fn best_of_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(1000).map(|t| t.1), Some("p99"));
        assert_eq!(supported_tail(200).map(|t| t.1), Some("p95"));
        assert_eq!(supported_tail(100).map(|t| t.1), Some("p90"));
        assert_eq!(supported_tail(19), None);
    }
}
