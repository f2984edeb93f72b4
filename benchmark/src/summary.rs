//! Order statistics: medians, quartiles and windowed percentiles.
//!
//! Every headline number of the benchmark is a median — of reps, of
//! passes, or of per-window percentiles — because best-of-N and
//! whole-run tail percentiles did not repeat on a two-core host (see
//! `benchmark/README.md`).

/// Sample count, quartiles and median of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the spread the benchmark prints is the
/// spread its driver computes. A single sample is its own quartiles.
pub fn dist(values: &[f64]) -> Dist {
    assert!(!values.is_empty(), "a metric needs at least one sample");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let cut = |i: usize| {
        if n == 1 {
            return s[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Dist {
        n,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

pub fn median(values: &[f64]) -> f64 {
    dist(values).median
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Call `op` until `secs` have passed, `at_least` times in any case;
/// returns what it returned.
pub fn repeat_for<T>(secs: f64, at_least: usize, mut op: impl FnMut() -> T) -> Vec<T> {
    let t0 = std::time::Instant::now();
    let mut out = Vec::new();
    while out.len() < at_least || t0.elapsed().as_secs_f64() < secs {
        out.push(op());
    }
    out
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. With 1,000 samples
/// `q = 0.99` leaves ten samples beyond the answer.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&q));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-window percentile of `(offset_ns, value)` samples: sample `i`
/// belongs to window `offset_ns / window_ns`; windows without samples
/// are left out. The caller takes the median over windows, so one
/// stalled window moves the result by one rank instead of owning it.
pub fn windowed_percentile(
    samples: &[(u64, f64)],
    window_ns: u64,
    windows: usize,
    q: f64,
) -> Vec<f64> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(at, v) in samples {
        if let Some(b) = buckets.get_mut((at / window_ns) as usize) {
            b.push(v);
        }
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|mut b| {
            b.sort_by(f64::total_cmp);
            percentile(&b, q)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let d = dist(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((d.n, d.q1, d.median, d.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let d = dist(&[4.0, 1.0, 2.0]);
        assert_eq!((d.q1, d.median, d.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let d = dist(&[5.0, 3.0]);
        assert_eq!((d.q1, d.median, d.q3), (2.5, 4.0, 5.5));
        let d = dist(&[7.0]);
        assert_eq!((d.n, d.q1, d.median, d.q3), (1, 7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0); // ten samples beyond
        assert_eq!(percentile(&v, 0.50), 500.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn windows_isolate_a_stall() {
        // Three windows of 10 ns; the middle one holds a stall.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..10u64 {
                let v = if w == 1 && i >= 8 { 100.0 } else { 1.0 };
                samples.push((w * 10 + i, v));
            }
        }
        let p90 = windowed_percentile(&samples, 10, 3, 0.9);
        assert_eq!(p90, vec![1.0, 100.0, 1.0]);
        assert_eq!(median(&p90), 1.0);
        // An unfinished request (+inf) sorts last and owns its window's tail.
        samples.push((25, f64::INFINITY));
        let p99 = windowed_percentile(&samples, 10, 3, 0.99);
        assert_eq!(p99[2], f64::INFINITY);
        // Samples past the last window are ignored; empty windows vanish.
        assert_eq!(
            windowed_percentile(&[(35, 1.0)], 10, 3, 0.5),
            Vec::<f64>::new()
        );
        assert_eq!(windowed_percentile(&[(5, 2.0)], 10, 3, 0.5), vec![2.0]);
    }
}
