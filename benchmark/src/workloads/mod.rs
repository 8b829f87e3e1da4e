//! The seven workloads. Each is one `harness::Workload`: set-up, one
//! closed-loop iteration, output checks, and per-layer probes.

pub mod debug;
pub mod regress;
pub mod sim;
pub mod toolflow;

use std::time::Instant;

use crate::harness::{self, LayerMetrics};
use crate::layers::{self, Platform, Res};
use crate::stats;

/// Steps run after a base capture so deltas and resets have a
/// representative dirty set to carry.
const DIRTY_STEPS: u64 = 256;

/// Probes the snapshot layer (`mpsoc-snapshot` + `platform::snapshot`) on
/// the state `p` is in: full and delta capture, full and delta restore,
/// and `reset_to_base` after a dirtying run. Byte counts are exact.
pub fn snapshot_probes(p: &mut Platform, m: &mut LayerMetrics, quick: bool) -> Res<()> {
    let n = if quick { 3 } else { 40 };
    m.insert(
        "snapshot.full_capture_us",
        harness::median_us_of(n, || layers::snap_capture(p).map(drop))?,
    );
    let image = layers::snap_capture(p)?;
    let base = layers::snap_base(image.clone())?;
    layers::platform_step_n(p, DIRTY_STEPS)?;
    let delta = layers::snap_capture_delta(p)?;
    m.insert("snapshot.full_bytes", image.len() as f64);
    m.insert("snapshot.delta_bytes", delta.len() as f64);
    m.insert(
        "snapshot.delta_capture_us",
        harness::median_us_of(n, || layers::snap_capture_delta(p).map(drop))?,
    );
    m.insert(
        "snapshot.restore_full_us",
        harness::median_us_of(n, || layers::snap_restore_image(p, &image))?,
    );
    m.insert(
        "snapshot.restore_delta_us",
        harness::median_us_of(n, || layers::snap_restore_delta(p, &base, &delta))?,
    );
    let mut reset_us = Vec::with_capacity(n);
    for _ in 0..n {
        layers::platform_step_n(p, DIRTY_STEPS)?;
        let t0 = Instant::now();
        layers::snap_reset_to_base(p, &base)?;
        reset_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    stats::sort(&mut reset_us);
    m.insert(
        "snapshot.reset_to_base_us",
        stats::median(&reset_us).unwrap_or(0.0),
    );
    Ok(())
}
