//! Analytic scalability models behind Section II.A.
//!
//! The paper's hardware position rests on two quantitative intuitions:
//!
//! 1. *Amdahl's law*: the sequential remainder of an application bounds its
//!    speedup, so per-core *frequency boosting* of the sequential phase is
//!    worth dedicated silicon/power ([`amdahl_speedup`],
//!    [`boosted_amdahl_speedup`]).
//! 2. *Heterogeneity penalty*: a-priori partitioning of software onto
//!    ISA-incompatible domains caps scalability by the quality of the static
//!    split ([`heterogeneous_speedup`]) — homogeneous ISA lets work migrate
//!    freely.
//!
//! Experiment E1 tabulates these models.

/// Classic Amdahl speedup on `n` cores for a program whose sequential
/// fraction of total work is `serial_frac` (0..=1).
///
/// # Panics
///
/// Panics if `serial_frac` is outside `[0, 1]` or `n == 0`.
///
/// # Examples
///
/// ```
/// use mpsoc_rtkernel::scalability::amdahl_speedup;
/// assert!((amdahl_speedup(0.0, 8) - 8.0).abs() < 1e-12);
/// assert!(amdahl_speedup(0.1, 1_000) < 10.0); // serial bottleneck
/// ```
pub fn amdahl_speedup(serial_frac: f64, n: usize) -> f64 {
    assert!((0.0..=1.0).contains(&serial_frac), "fraction out of range");
    assert!(n > 0, "need at least one core");
    1.0 / (serial_frac + (1.0 - serial_frac) / n as f64)
}

/// Amdahl speedup when the sequential phase runs on a core boosted to
/// `boost`× the base frequency (the paper's DVFS mitigation: *"boost the
/// performance of individual cores in order to achieve higher execution
/// speed for sequential code"*).
///
/// # Panics
///
/// Panics on out-of-range `serial_frac`, `n == 0`, or `boost <= 0`.
pub fn boosted_amdahl_speedup(serial_frac: f64, n: usize, boost: f64) -> f64 {
    assert!((0.0..=1.0).contains(&serial_frac), "fraction out of range");
    assert!(n > 0, "need at least one core");
    assert!(boost > 0.0, "boost must be positive");
    1.0 / (serial_frac / boost + (1.0 - serial_frac) / n as f64)
}

/// Speedup achievable on a *heterogeneous* platform whose `n` cores are
/// split into two ISA-incompatible domains, with the software statically
/// partitioned so that a fraction `partition_to_a` of the parallel work can
/// only run on domain A.
///
/// Domain A holds `ceil(n * domain_a_share)` cores. Because work cannot
/// migrate across the ISA boundary, the finishing time is the *max* of the
/// two domains — a static-partitioning bottleneck that homogeneous ISA
/// avoids. The sequential fraction `serial_frac` runs on one core of either
/// domain.
///
/// # Panics
///
/// Panics if any fraction is outside `[0, 1]` or `n == 0`.
pub fn heterogeneous_speedup(
    serial_frac: f64,
    n: usize,
    domain_a_share: f64,
    partition_to_a: f64,
) -> f64 {
    assert!((0.0..=1.0).contains(&serial_frac), "fraction out of range");
    assert!((0.0..=1.0).contains(&domain_a_share), "share out of range");
    assert!(
        (0.0..=1.0).contains(&partition_to_a),
        "partition out of range"
    );
    assert!(n > 0, "need at least one core");
    if n == 1 {
        // A single core has no partition boundary to suffer from.
        return amdahl_speedup(serial_frac, 1);
    }
    let n_a = ((n as f64 * domain_a_share).ceil() as usize).clamp(1, n.saturating_sub(1).max(1));
    let n_b = (n - n_a).max(1);
    let par = 1.0 - serial_frac;
    let t_a = par * partition_to_a / n_a as f64;
    let t_b = par * (1.0 - partition_to_a) / n_b as f64;
    1.0 / (serial_frac + t_a.max(t_b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_limits() {
        assert!((amdahl_speedup(0.0, 16) - 16.0).abs() < 1e-9);
        assert!((amdahl_speedup(1.0, 16) - 1.0).abs() < 1e-9);
        // Limit 1/s as n -> inf.
        assert!(amdahl_speedup(0.25, 1 << 20) < 4.0);
        assert!(amdahl_speedup(0.25, 1 << 20) > 3.9);
    }

    #[test]
    fn boosting_helps_exactly_the_serial_term() {
        let base = amdahl_speedup(0.2, 64);
        let boosted = boosted_amdahl_speedup(0.2, 64, 2.0);
        assert!(boosted > base);
        // With infinite cores, boosted limit is boost/serial.
        let lim = boosted_amdahl_speedup(0.2, 1 << 22, 2.0);
        assert!((lim - 10.0).abs() < 0.1);
    }

    #[test]
    fn boost_of_one_is_identity() {
        assert!((boosted_amdahl_speedup(0.3, 10, 1.0) - amdahl_speedup(0.3, 10)).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_is_capped_by_bad_partition() {
        // Perfectly balanced partition matches homogeneous.
        let hom = amdahl_speedup(0.05, 16);
        let balanced = heterogeneous_speedup(0.05, 16, 0.5, 0.5);
        assert!((hom - balanced).abs() / hom < 0.05);
        // A skewed partition (80 % of work forced onto half the cores)
        // loses badly.
        let skewed = heterogeneous_speedup(0.05, 16, 0.5, 0.8);
        assert!(skewed < 0.8 * hom, "skewed {skewed} vs hom {hom}");
        // A severely skewed partition loses more than a third.
        let severe = heterogeneous_speedup(0.05, 16, 0.5, 0.95);
        assert!(severe < 0.7 * hom, "severe {severe} vs hom {hom}");
    }

    #[test]
    fn heterogeneous_penalty_grows_with_cores() {
        // The *relative* penalty of a fixed bad partition persists at scale,
        // inhibiting scalability (Section II.A's claim).
        let rel = |n| heterogeneous_speedup(0.0, n, 0.5, 0.9) / amdahl_speedup(0.0, n);
        assert!(rel(64) < 0.6);
        assert!(rel(256) < 0.6);
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn rejects_bad_fraction() {
        let _ = amdahl_speedup(1.5, 4);
    }
}
