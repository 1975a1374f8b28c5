//! Order statistics: nearest-rank percentiles for latency samples and
//! the quartile spread the steadiness report judges bounds by.

use std::ops::Range;

/// Samples that must lie strictly beyond a tail percentile before it
/// is reported: fewer, and the figure is one or two unlucky requests.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the value at
/// rank `ceil(p / 100 * n)` (1-based). `None` on an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`nearest_rank`] for a tail percentile, refused (`None`) unless at
/// least [`MIN_BEYOND_TAIL`] samples lie beyond its rank — p90 needs
/// 100 samples.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    if sorted.len().saturating_sub(rank) < MIN_BEYOND_TAIL {
        return None;
    }
    nearest_rank(sorted, p)
}

/// Requests per window of the windowed figures (`lat_ms_p90`,
/// `throughput_rps`). A window this long holds twenty samples beyond
/// its p90 rank.
pub const WINDOW: usize = 200;

/// Cuts `0..n` into `max(1, n / size)` consecutive ranges of near-equal
/// length. Every range is at least `size` long when `n >= size`.
pub fn windows(n: usize, size: usize) -> Vec<Range<usize>> {
    let k = (n / size).max(1);
    (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The midpoint median (mean of the two middle values on an even
/// count), as Python's `statistics.median`. `NaN` on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method), so spreads printed here match what an external check
/// computes from the same values. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// First and third quartiles of per-window figures, as [`quartiles`];
/// a run of one window gives its figure for both. `None` on no window.
pub fn window_quartiles(values: &[f64]) -> Option<(f64, f64)> {
    match values {
        [] => None,
        [only] => Some((*only, *only)),
        _ => quartiles(values),
    }
}

/// Interquartile range as a share of the median — the run-to-run
/// spread a metric's bound must cover.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 50.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn p90_is_refused_with_fewer_than_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        // Rank 90 of 99 leaves nine samples beyond it.
        assert_eq!(tail_percentile(&s, 90.0), None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&[], 90.0), None);
    }

    #[test]
    fn windows_cover_every_sample_once_and_hold_at_least_size() {
        for n in [0, 1, 199, 200, 399, 400, 401, 1234] {
            let w = windows(n, 200);
            assert_eq!(w.first().map(|r| r.start), Some(0), "n={n}");
            assert_eq!(w.last().map(|r| r.end), Some(n), "n={n}");
            assert!(w.windows(2).all(|p| p[0].end == p[1].start), "n={n}");
            if n >= 200 {
                assert!(w.iter().all(|r| r.len() >= 200), "n={n}: {w:?}");
            } else {
                assert_eq!(w.len(), 1, "n={n}");
            }
        }
    }

    #[test]
    fn a_burst_does_not_move_the_calm_quartile_of_window_p90s() {
        // 1000 requests at 1..=10 ms, 150 of them in a row 100x slower:
        // the whole-run p90 lands in the burst, the first quartile of
        // the five windows' p90s does not.
        let mut ms: Vec<f64> = (0..1000).map(|i| f64::from(i % 10 + 1)).collect();
        for v in &mut ms[400..550] {
            *v *= 100.0;
        }
        assert_eq!(tail_percentile(&sorted(&ms), 90.0), Some(400.0));
        let p90s: Vec<f64> = windows(ms.len(), WINDOW)
            .into_iter()
            .map(|w| tail_percentile(&sorted(&ms[w]), 90.0).unwrap())
            .collect();
        assert_eq!(p90s.len(), 5);
        assert_eq!(window_quartiles(&p90s).unwrap().0, 9.0);
        assert_eq!(window_quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(window_quartiles(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
    }
}
