//! Small statistics helpers shared by every phase.

/// Sorted copy of `xs` (NaN-free input assumed; infinities sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of `xs` by the nearest-rank rule (0.0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs`, reported only when at least ten samples
/// lie beyond it. `Err` names the shortfall.
pub fn tail(xs: &[f64], q: f64, what: &str) -> Result<f64, String> {
    let beyond = xs.len() - (q * xs.len() as f64).ceil() as usize;
    if beyond < 10 {
        return Err(format!(
            "{what}: {} samples leave {beyond} beyond the {q} quantile (need 10); run longer",
            xs.len()
        ));
    }
    Ok(quantile(xs, q))
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0.0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Quantile of a fixed-bucket histogram given as `(upper bound, count)`
/// pairs (the last bound may be `f64::INFINITY`), interpolating linearly
/// inside the bucket that holds the target rank — the rule `/metrics`
/// itself uses, applied here to a delta between two scrapes.
pub fn histogram_quantile(buckets: &[(f64, f64)], q: f64) -> f64 {
    let total: f64 = buckets.iter().map(|b| b.1).sum();
    if total == 0.0 {
        return 0.0;
    }
    let target = (q * total).max(1.0);
    let mut below = 0.0;
    let mut lower = 0.0;
    for &(upper, count) in buckets {
        if count > 0.0 && below + count >= target {
            if upper.is_infinite() {
                return lower;
            }
            return lower + (target - below) / count * (upper - lower);
        }
        below += count;
        lower = upper;
    }
    lower
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail(&few, 0.99, "x").is_err());
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&enough, 0.99, "x"), Ok(989.0));
        assert_eq!(tail(&few[..100], 0.9, "x"), Ok(89.0));
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let b = [(100.0, 0.0), (200.0, 10.0), (f64::INFINITY, 0.0)];
        assert_eq!(histogram_quantile(&b, 0.5), 150.0);
        let over = [(100.0, 0.0), (f64::INFINITY, 4.0)];
        assert_eq!(histogram_quantile(&over, 0.5), 100.0);
        assert_eq!(histogram_quantile(&[(1.0, 0.0)], 0.5), 0.0);
    }
}
