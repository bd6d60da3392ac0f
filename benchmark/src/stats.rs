//! Order statistics for the timed sections.

/// Median of `values` (mean of the two middle elements for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it; `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Distance between the first and the third quartile of `values` as a share
/// of their median, the quartiles taken as Python's
/// `statistics.quantiles(values, n=4)` takes them; `NaN` for fewer than two
/// values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Outside 0..=4 where the clamp moved `j`: the ends extrapolate.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// One finished request of a timed section.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Request latency in seconds.
    pub latency_s: f64,
    /// Floating-point operations the request performed.
    pub flops: f64,
}

/// The timed section as its requests saw it, pooled over every one of them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pooled {
    pub throughput_gflops: f64,
    pub p50_s: f64,
    pub p90_s: f64,
    pub samples: usize,
    /// Samples above `p90_s`'s rank: a percentile means something with at
    /// least ten beyond it.
    pub beyond_p90: usize,
}

/// Throughput and latency percentiles of all `samples`, finished within
/// `wall_s` seconds.
pub fn pooled(samples: &[Sample], wall_s: f64) -> Pooled {
    let flops: f64 = samples.iter().map(|s| s.flops).sum();
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_s).collect();
    let n = samples.len();
    Pooled {
        throughput_gflops: flops / wall_s / 1e9,
        p50_s: percentile(&latencies, 50.0),
        p90_s: percentile(&latencies, 90.0),
        samples: n,
        beyond_p90: n - (0.9 * n as f64).ceil() as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[2.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0; 7]), 0.0);
        assert!(quartile_spread(&[5.0]).is_nan());
    }

    fn samples(latencies: &[f64]) -> Vec<Sample> {
        let of = |&latency_s| Sample {
            latency_s,
            flops: 1e9,
        };
        latencies.iter().map(of).collect()
    }

    #[test]
    fn a_section_is_pooled_over_all_its_requests() {
        // A stall that hits every eighth request, in whichever part of the
        // section: it is the tail of the whole section.
        let latencies: Vec<f64> = (0..120)
            .map(|i| if i % 8 == 7 { 0.3 } else { 0.1 })
            .collect();
        let p = pooled(&samples(&latencies), 15.0);
        assert_eq!((p.p50_s, p.p90_s), (0.1, 0.3));
        assert_eq!((p.samples, p.beyond_p90), (120, 12));
        assert!((p.throughput_gflops - 8.0).abs() < 1e-12);
        // One slow stretch is not skipped either.
        let mut latencies = vec![0.1; 100];
        latencies[40..55].fill(0.25);
        assert_eq!(pooled(&samples(&latencies), 1.0).p90_s, 0.25);
    }

    #[test]
    fn no_requests_give_no_numbers() {
        let p = pooled(&[], 1.0);
        assert!(p.p50_s.is_nan() && p.p90_s.is_nan());
        assert_eq!((p.samples, p.beyond_p90), (0, 0));
    }
}
