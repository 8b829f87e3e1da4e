//! Median, percentile and quartile-spread arithmetic.

use mpsoc_benchmark::stats::{median, percentile, quartiles, sort, spread, summarize};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
    assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(50.0));
    assert_eq!(percentile(&v, 95.0), Some(95.0));
    assert_eq!(percentile(&v, 99.0), Some(99.0));
    assert_eq!(percentile(&v, 100.0), Some(100.0));
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    // Ten samples: p95 is the largest — no sample lies beyond it.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&ten, 95.0), Some(10.0));
    assert_eq!(percentile(&[], 95.0), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), Some((1.5, 12.0)));
    // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
    assert_eq!(quartiles(&[3.0, 5.0]), Some((2.5, 5.5)));
    assert_eq!(quartiles(&[3.0]), None);
}

#[test]
fn spread_is_iqr_over_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(spread(&ten), Some(1.0));
    assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), Some(0.0));
    assert_eq!(spread(&[0.0, 0.0]), None);
    assert_eq!(spread(&[1.0]), None);
}

#[test]
fn summarize_sorts_and_counts() {
    let mut v = vec![3.0, 1.0, 2.0, 10.0];
    let s = summarize(&mut v).expect("non-empty");
    assert_eq!((s.n, s.min, s.median, s.max), (4, 1.0, 2.5, 10.0));
    assert_eq!(v, [1.0, 2.0, 3.0, 10.0]);
    assert!(summarize(&mut []).is_none());
    let mut w = vec![2.0, -1.0];
    sort(&mut w);
    assert_eq!(w, [-1.0, 2.0]);
}
