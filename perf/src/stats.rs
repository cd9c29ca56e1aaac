//! Order statistics used for every reported number.

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller has at least one
/// sample by construction.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are less than or equal to it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "p is a percentage");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses by default ("exclusive"):
/// position `i * (len + 1) / 4`, interpolated, clamped to the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A reported number: the value, and how its samples spread around
/// their median (MAD), with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub mad: f64,
    pub n: usize,
}

impl Summary {
    /// The median of repeated samples.
    pub fn of(values: &[f64]) -> Self {
        Summary {
            value: median(values),
            mad: mad(values),
            n: values.len(),
        }
    }

    /// The smallest of repeated samples. On a shared host interference
    /// only ever adds time, in bursts that can outlast half a run, so
    /// the fastest repeat is the steadiest estimate of what the code
    /// itself costs; the MAD still says how disturbed the run was.
    pub fn fastest(values: &[f64]) -> Self {
        Summary {
            value: values.iter().copied().fold(f64::INFINITY, f64::min),
            ..Summary::of(values)
        }
    }

    /// The largest of repeated samples: [`Summary::fastest`] for a
    /// rate.
    pub fn highest(values: &[f64]) -> Self {
        Summary {
            value: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ..Summary::of(values)
        }
    }

    /// A single exact value (a count, a memory reading).
    pub fn exact(value: f64) -> Self {
        Summary {
            value,
            mad: 0.0,
            n: 1,
        }
    }
}
