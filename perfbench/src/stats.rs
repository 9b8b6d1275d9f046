//! Order statistics over latency samples.

/// Samples a p90 needs: ten beyond it.
pub const FOR_P90: usize = 100;

/// 1-based nearest rank of the `q`-quantile among `n` samples (the
/// epsilon keeps `0.9 * 100` from rounding up to 91).
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The `q`-quantile (0 < q ≤ 1) of `v` by the nearest-rank rule. Sorts `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    v[rank(q, v.len()) - 1]
}

/// The median of `v`. Sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v`, refusing sample counts that leave fewer than
/// ten samples beyond it: a p99 needs 1 000 samples, a p90 100.
pub fn tail(v: &mut [f64], q: f64, what: &str) -> f64 {
    let beyond = v.len() - rank(q, v.len().max(1));
    assert!(
        beyond >= 10,
        "{what}: {} samples leave only {beyond} beyond the {q} quantile; run longer",
        v.len()
    );
    quantile(v, q)
}

/// Mean of `v` (0 for no samples).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
