//! Order statistics and the comparison verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method), because that is what the acceptance driver
//! computes spreads with; a percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// A percentile is meaningful only with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `values` ascending (NaN-free inputs only).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    v
}

/// Median of an ascending slice (mean of the two middle values when the
/// length is even). `None` when empty.
pub fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

pub fn median(values: &[f64]) -> Option<f64> {
    median_sorted(&sorted(values))
}

/// Nearest-rank percentile of an ascending slice, with the number of
/// samples strictly beyond the chosen rank. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it — the caller must then report a
/// lower percentile (or none), never an extrapolated one.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| (sorted[rank - 1], beyond))
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// returns them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (0 for fewer than two
/// values or a zero median).
pub fn relative_iqr(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1).abs() / m.abs(),
        _ => 0.0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether `a` reads strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judges candidate runs `b` against parent runs `a` of one metric on
/// one workload.
///
/// * `regressed`: the candidate's median is worse than the parent's by
///   more than `bound` (a share of the parent's median), and the runs
///   resolve it (spread within the bound, or every parent run beats
///   every candidate run).
/// * `unresolved`: the run-to-run spread of either side is wider than
///   the bound, so "no worse than the bound" cannot be shown — unless
///   every candidate run beats every parent run.
/// * `improved`: there are at least ten pairs, the candidate
///   wins at least nine tenths of them (ties count for neither), and the
///   medians differ by more than the parent's own interquartile range.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    /// Fewer pairs than this cannot support a claimed gain: three runs
    /// of the same code beat three others one time in eight.
    const MIN_PAIRS: usize = 10;
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let scale = ma.abs();
    if scale == 0.0 {
        return if mb == ma {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match better {
        Better::Lower => (mb - ma) / scale,
        Better::Higher => (ma - mb) / scale,
    };
    let all = |x: &[f64], y: &[f64]| x.iter().all(|&xi| y.iter().all(|&yi| better.beats(xi, yi)));
    let spread = relative_iqr(a).max(relative_iqr(b));

    if worse_by > bound && (spread <= bound || all(a, b)) {
        return Verdict::Regressed;
    }
    if spread > bound && !all(b, a) {
        return Verdict::Unresolved;
    }
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better.beats(b[i], a[i])).count();
    let gain = -worse_by;
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > relative_iqr(a) && gain > 0.0 {
        return Verdict::Improved;
    }
    Verdict::Unchanged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond() {
        // 200 samples: rank 190, exactly ten beyond — the smallest run
        // that supports a p95.
        let (v, beyond) = percentile_sorted(&ramp(200), 0.95).expect("supported");
        assert_eq!((v, beyond), (190.0, 10));
        assert!(percentile_sorted(&ramp(199), 0.95).is_none());
        // The same 199 samples do support a p90.
        assert_eq!(percentile_sorted(&ramp(199), 0.90), Some((180.0, 19)));
        assert!(percentile_sorted(&[], 0.5).is_none());
        assert!(percentile_sorted(&ramp(500), 1.0).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let r = relative_iqr(&ramp(10));
        assert!((r - 5.5 / 5.5).abs() < 1e-12, "{r}");
        assert_eq!(relative_iqr(&[7.0]), 0.0);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn verdict_regressed_when_worse_than_the_bound() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 10.0, 10.1, 9.9, 10.0, 10.05];
        let b = [11.5, 11.6, 11.4, 11.5, 11.55, 11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.05), Verdict::Regressed);
        // Same numbers, higher-is-better: the candidate improved.
        assert_eq!(verdict(&a, &b, Better::Higher, 0.05), Verdict::Improved);
        // Fewer than ten pairs never support a gain.
        assert_eq!(
            verdict(&a[..5], &b[..5], Better::Higher, 0.05),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a[..5], &b[..5], Better::Lower, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn verdict_unresolved_when_spread_exceeds_the_bound() {
        // Medians equal, but the runs scatter by far more than 3 %.
        let a = [8.0, 12.0, 10.0, 9.0, 11.0];
        let b = [11.0, 9.0, 10.0, 12.0, 8.0];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.03), Verdict::Unresolved);
        // With a bound wider than the spread the same data is unchanged.
        assert_eq!(verdict(&a, &b, Better::Lower, 0.5), Verdict::Unchanged);
    }

    #[test]
    fn verdict_noisy_but_dominating_candidate_still_improves() {
        let a = [10.0, 14.0, 12.0, 11.0, 13.0, 10.0, 14.0, 12.0, 11.0, 13.0];
        let b = [5.0, 7.0, 6.0, 5.5, 6.5, 5.0, 7.0, 6.0, 5.5, 6.5];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.03), Verdict::Improved);
    }

    #[test]
    fn verdict_small_shift_inside_the_parent_iqr_is_unchanged() {
        let a = [10.0, 10.2, 9.8, 10.1, 9.9];
        let b = [9.95, 10.15, 9.75, 10.05, 9.85];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.05), Verdict::Unchanged);
    }

    #[test]
    fn verdict_identical_constant_runs_are_unchanged() {
        let a = [1.0; 5];
        assert_eq!(verdict(&a, &a, Better::Higher, 0.001), Verdict::Unchanged);
        assert_eq!(verdict(&[], &a, Better::Higher, 0.1), Verdict::Unresolved);
    }
}
