//! The order statistics every reported number goes through.

use recdp_perf::stats::{mad, median, percentile, quartiles, Summary};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn mad_is_the_median_distance_from_the_median() {
    // Median 3; distances 2, 1, 0, 1, 97.
    assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    assert_eq!(mad(&[7.0, 7.0, 7.0]), 0.0);
    let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]);
    assert_eq!((s.value, s.mad, s.n), (3.0, 1.0, 5));
    let f = Summary::fastest(&[1.0, 2.0, 3.0, 4.0, 100.0]);
    assert_eq!((f.value, f.mad, f.n), (1.0, 1.0, 5));
    assert_eq!(Summary::highest(&[1.0, 2.0, 3.0, 4.0, 100.0]).value, 100.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 95.0), 95.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 99.9), 100.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    // Nearest rank never interpolates: ceil(0.95 * 20) = 19th of 20.
    let w: Vec<f64> = (1..=20).rev().map(|x| f64::from(x) * 10.0).collect();
    assert_eq!(percentile(&w, 95.0), 190.0);
    assert_eq!(percentile(&[42.0], 95.0), 42.0);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
}
