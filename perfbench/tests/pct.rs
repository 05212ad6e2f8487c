//! The percentile helper's tail-sample rule.

use perfbench::pct::{percentile, PctError, Percentile, MIN_BEYOND};

fn ramp(n: u64) -> Vec<u64> {
    (1..=n).collect()
}

#[test]
fn p99_needs_ten_samples_beyond_its_rank() {
    assert_eq!(MIN_BEYOND, 10);
    let ok = percentile(&ramp(1000), 99.0).unwrap();
    assert_eq!(
        ok,
        Percentile {
            value: 990,
            samples: 1000,
            beyond: 10
        }
    );
    assert_eq!(
        percentile(&ramp(999), 99.0),
        Err(PctError::TooFewSamples {
            samples: 999,
            beyond: 9
        })
    );
}

#[test]
fn nearest_rank_median() {
    // Nearest rank: the smallest value covering half the samples.
    assert_eq!(percentile(&ramp(100), 50.0).unwrap().value, 50);
    assert_eq!(percentile(&ramp(101), 50.0).unwrap().value, 51);
    let p = percentile(
        &[
            7, 7, 7, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9,
        ],
        50.0,
    )
    .unwrap();
    assert_eq!((p.value, p.samples, p.beyond), (9, 21, 10));
    // Two samples fewer leave 9 beyond the median.
    assert_eq!(
        percentile(&ramp(19), 50.0),
        Err(PctError::TooFewSamples {
            samples: 19,
            beyond: 9
        })
    );
}

#[test]
fn p100_never_has_samples_beyond() {
    assert_eq!(
        percentile(&ramp(5000), 100.0),
        Err(PctError::TooFewSamples {
            samples: 5000,
            beyond: 0
        })
    );
}

#[test]
fn bad_ranks_and_empty_inputs_are_errors() {
    assert_eq!(percentile(&ramp(10), 0.0), Err(PctError::BadRank));
    assert_eq!(percentile(&ramp(10), 100.5), Err(PctError::BadRank));
    assert_eq!(percentile(&ramp(10), f64::NAN), Err(PctError::BadRank));
    assert_eq!(
        percentile(&[], 50.0),
        Err(PctError::TooFewSamples {
            samples: 0,
            beyond: 0
        })
    );
}
