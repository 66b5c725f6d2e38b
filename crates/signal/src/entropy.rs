//! "Fast entropy" automatic threshold selection.
//!
//! The paper determines its shot-cut, group-boundary and merge thresholds
//! automatically with the "fast entropy technique" of Fan et al. \[10\],
//! which we reconstruct as histogram bi-partitioning: bucket the observed
//! values, split at the boundary maximising the between-class variance
//! (Otsu's rule — more robust than maximum-entropy splitting when the
//! two modes are unbalanced), then refine the threshold to the midpoint of
//! the gap between the two classes.

/// Number of histogram buckets used for threshold search.
const BUCKETS: usize = 64;

/// Selects an automatic bipartition threshold over `values`.
///
/// Splits at the histogram boundary maximising the between-class variance
/// and returns the midpoint of the gap between the two classes. Degenerate
/// inputs (empty, or all values identical) return the single value present
/// (or 0.0 for empty input).
pub fn entropy_threshold(values: &[f32]) -> f32 {
    let finite: Vec<f32> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return 0.0;
    }
    let min = finite.iter().copied().fold(f32::INFINITY, f32::min);
    let max = finite.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if (max - min) < 1e-9 {
        return min;
    }
    // Build the histogram.
    let mut hist = [0.0f64; BUCKETS];
    for &v in &finite {
        let b = (((v - min) / (max - min)) * BUCKETS as f32).min(BUCKETS as f32 - 1.0) as usize;
        hist[b] += 1.0;
    }
    let total: f64 = finite.len() as f64;
    for h in &mut hist {
        *h /= total;
    }
    // Bipartition by maximum between-class variance (Otsu). Kapur's
    // maximum-entropy split drifts into a wide low mode when the two
    // modes are unbalanced; Otsu splits the gap reliably and plays the same
    // role the fast-entropy technique of [10] plays in the paper.
    let mut best_t = 0usize;
    let mut best_sigma = f64::NEG_INFINITY;
    let total_mean: f64 = hist
        .iter()
        .enumerate()
        .map(|(i, &p)| i as f64 * p)
        .sum();
    let mut p_lo = 0.0f64;
    let mut mean_lo_acc = 0.0f64;
    for (t, &p) in hist.iter().enumerate().take(BUCKETS - 1) {
        p_lo += p;
        mean_lo_acc += t as f64 * p;
        let p_hi = 1.0 - p_lo;
        if p_lo <= 0.0 || p_hi <= 0.0 {
            continue;
        }
        let mu_lo = mean_lo_acc / p_lo;
        let mu_hi = (total_mean - mean_lo_acc) / p_hi;
        let sigma = p_lo * p_hi * (mu_lo - mu_hi) * (mu_lo - mu_hi);
        if sigma > best_sigma {
            best_sigma = sigma;
            best_t = t;
        }
    }
    // Place the threshold at the midpoint of the gap between the two
    // classes, not at the bucket edge: with strongly bimodal data the edge
    // sits flush against one mode and misclassifies its extreme members.
    let edge = min + (max - min) * (best_t as f32 + 1.0) / BUCKETS as f32;
    let lo_max = finite
        .iter()
        .copied()
        .filter(|&v| v <= edge)
        .fold(f32::NEG_INFINITY, f32::max);
    let hi_min = finite
        .iter()
        .copied()
        .filter(|&v| v > edge)
        .fold(f32::INFINITY, f32::min);
    if lo_max.is_finite() && hi_min.is_finite() {
        (lo_max + hi_min) / 2.0
    } else {
        edge
    }
}

/// Convenience: entropy threshold over `values` with a lower bound applied,
/// used where the paper guards thresholds against degenerate low-activity
/// windows.
pub fn entropy_threshold_with_floor(values: &[f32], floor: f32) -> f32 {
    entropy_threshold(values).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_data_split_between_modes() {
        let mut v = vec![0.1f32; 100];
        v.extend(vec![0.9f32; 20]);
        let t = entropy_threshold(&v);
        assert!(t > 0.1 && t < 0.9, "threshold {t} should separate modes");
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(entropy_threshold(&[]), 0.0);
    }

    #[test]
    fn constant_input_returns_that_value() {
        assert_eq!(entropy_threshold(&[0.5; 10]), 0.5);
    }

    #[test]
    fn threshold_within_data_range() {
        let v: Vec<f32> = (0..500).map(|i| (i as f32 * 0.137).fract()).collect();
        let t = entropy_threshold(&v);
        let min = v.iter().copied().fold(f32::INFINITY, f32::min);
        let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(t >= min && t <= max);
    }

    #[test]
    fn nan_values_ignored() {
        let v = vec![0.1, f32::NAN, 0.9, 0.1, 0.9, 0.1];
        let t = entropy_threshold(&v);
        assert!(t.is_finite());
        assert!(t > 0.1 && t < 0.9);
    }

    #[test]
    fn floor_is_applied() {
        let v = vec![0.01f32, 0.02, 0.03, 0.02];
        let t = entropy_threshold_with_floor(&v, 0.5);
        assert_eq!(t, 0.5);
    }

    #[test]
    fn wide_outlier_does_not_collapse_threshold() {
        // Mostly small frame differences with a handful of cuts.
        let mut v = vec![2.0f32; 300];
        for i in 0..10 {
            v[i * 30] = 80.0 + i as f32;
        }
        let t = entropy_threshold(&v);
        assert!(t > 2.0, "threshold {t} must exceed the noise mode");
        assert!(t < 80.0, "threshold {t} must admit the cut mode");
    }
}
