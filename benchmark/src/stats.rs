//! Order statistics over timing samples. Every percentile is the
//! nearest-rank one (an observed sample, never an interpolation) and
//! travels with the number of samples it was taken from.

/// One percentile of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`, or
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median and quartiles of a sample: what a metric reports, and what
/// `benchmark compare` judges spread by.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Stat {
    /// A value measured once (a count, a ratio, a single timing).
    pub fn single(value: f64) -> Stat {
        Stat {
            value,
            q1: value,
            q3: value,
            samples: 1,
        }
    }

    /// Median with quartiles; `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Stat> {
        let at = |p| percentile(samples, p).map(|q| q.value);
        Some(Stat {
            value: at(50.0)?,
            q1: at(25.0)?,
            q3: at(75.0)?,
            samples: samples.len(),
        })
    }

    /// A percentile other than the median, reported with its sample count
    /// and no spread.
    pub fn tail(samples: &[f64], p: f64) -> Option<Stat> {
        percentile(samples, p).map(|q| Stat {
            samples: q.samples,
            ..Stat::single(q.value)
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.value).abs()
        }
    }
}

/// Median of a sample (nearest rank); `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |q| q.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_report_their_sample_counts() {
        let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let p50 = percentile(&samples, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (10.0, 20, 10));
        let p95 = percentile(&samples, 95.0).unwrap();
        assert_eq!((p95.value, p95.samples, p95.beyond), (19.0, 20, 1));
        let p100 = percentile(&samples, 100.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (20.0, 0));
        // A tiny percentile still lands on an observed sample.
        assert_eq!(percentile(&samples, 0.1).unwrap().value, 1.0);
        assert_eq!(percentile(&[], 50.0), None);

        let stat = Stat::of(&samples).unwrap();
        assert_eq!(
            (stat.q1, stat.value, stat.q3, stat.samples),
            (5.0, 10.0, 15.0, 20)
        );
        assert_eq!(stat.spread(), 1.0);
        let tail = Stat::tail(&samples, 99.0).unwrap();
        assert_eq!((tail.value, tail.samples), (20.0, 20));
    }
}
