//! Order statistics over timing samples.

/// Sorted copy (NaN-free input assumed).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method), so spreads computed here match the
/// ones a Python reader computes from the same values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// 1-based nearest rank of percentile `p` (0–100] among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64) / 100.0).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank percentile `p` (0–100].
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(p, s.len()) - 1]
}

/// The highest of the usual percentiles that has at least ten samples
/// beyond it, as `(percentile, value)`; `None` below twenty samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| !v.is_empty() && v.len() - rank(p, v.len()) >= 10)
        .map(|p| (p, percentile(v, p)))
}

/// Geometric mean of positive values; 0 for no samples.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Geometric mean over statement kinds of each kind's geometric mean, so
/// every kind weighs the same whatever its sample count.
pub fn geomean_of_kinds(kinds: &[Vec<f64>]) -> f64 {
    let per_kind: Vec<f64> = kinds.iter().filter(|k| !k.is_empty()).map(|k| geomean(k)).collect();
    geomean(&per_kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..19]), None);
    }
}
