//! Nearest-rank percentiles with a tail-sample rule.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! strictly above its rank: a p99 read off 200 samples is really the
//! second-largest value, and would move with any single outlier. The
//! result carries the sample count so every report can state it.

/// Samples that must lie beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// One percentile read off a sample set.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: u64,
    /// Total samples the percentile was read from.
    pub samples: usize,
    /// Samples ranked strictly above `value`'s rank.
    pub beyond: usize,
}

/// Why a percentile could not be reported.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PctError {
    /// `p` is not in `(0, 100]`.
    BadRank,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the rank.
    TooFewSamples {
        /// Total samples available.
        samples: usize,
        /// Samples beyond the rank.
        beyond: usize,
    },
}

impl std::fmt::Display for PctError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PctError::BadRank => write!(f, "percentile rank must be in (0, 100]"),
            PctError::TooFewSamples { samples, beyond } => write!(
                f,
                "{samples} samples leave {beyond} beyond the rank; need {MIN_BEYOND}"
            ),
        }
    }
}

/// Zero-based nearest-rank index of percentile `p` over `n` samples:
/// the smallest index whose cumulative share reaches `p` percent.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n) - 1
}

/// Percentile `p` (in percent) of `sorted`, which must be in nondecreasing
/// order, provided at least [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(sorted: &[u64], p: f64) -> Result<Percentile, PctError> {
    if !(p > 0.0 && p <= 100.0) {
        return Err(PctError::BadRank);
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let n = sorted.len();
    let too_few = |beyond| PctError::TooFewSamples { samples: n, beyond };
    if n == 0 {
        return Err(too_few(0));
    }
    let k = rank(p, n);
    let beyond = n - 1 - k;
    if beyond < MIN_BEYOND {
        return Err(too_few(beyond));
    }
    Ok(Percentile {
        value: sorted[k],
        samples: n,
        beyond,
    })
}
