//! Order statistics for timing samples.

/// Median and quartiles of a sample, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) so that the
/// harness's spreads read the same as the driver's.
#[derive(Clone, Copy, Debug)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(samples: &[f64]) -> Quartiles {
        assert!(!samples.is_empty(), "no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let at = |k: usize| {
            if n == 1 {
                return v[0];
            }
            // Position k(n+1)/4 in 1-based ranks, clamped into the sample.
            let pos = (k * (n + 1)) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            v[j - 1] + frac * (v[j] - v[j - 1])
        };
        Quartiles {
            q1: at(1),
            median: at(2),
            q3: at(3),
            n,
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Quartiles::of(samples).median
}
