//! Seeded topology generator: emits distinct, always-valid `.soc` sources.
//!
//! The generator is driven by the suite-wide [`XorShift64Star`] PRNG, so a
//! seed fully determines the emitted text — the joint DSE sweeps topology
//! seeds exactly like mapping seeds. Every emitted description parses,
//! validates, and builds (the generator's unit tests and the E13 experiment
//! both pin this).

use mpsoc_obs::XorShift64Star;
use std::fmt::Write as _;

/// Frequencies (MHz) the generator draws from, per class.
const APU_MHZ: [u64; 4] = [400, 600, 800, 1000];
const RPU_MHZ: [u64; 4] = [50, 100, 150, 200];
const DSP_MHZ: [u64; 4] = [100, 200, 300, 400];
const ACCEL_MHZ: [u64; 3] = [100, 200, 300];

/// Generates one valid `.soc` description for `seed`.
///
/// The emitted platform has 1–2 heterogeneous clusters (APU hosts plus an
/// RPU/DSP worker pool), 0–4 accelerators, seeded memory/cache/interconnect
/// choices, and a peripheral mix sized to the core count. The platform name
/// embeds the seed, so distinct seeds always yield distinct sources.
pub fn generate(seed: u64) -> String {
    let mut rng = XorShift64Star::new(seed);
    let mut s = String::new();
    let _ = writeln!(s, "// generated by mpsoc-pdl, seed {seed:#018x}");
    let _ = writeln!(s, "platform gen_{seed:016x} {{");

    // Host cluster: 1-2 APUs. Worker cluster: 1-6 RPUs/DSPs.
    let n_apu = rng.usize_in(1, 2);
    let _ = writeln!(s, "  cluster host {{");
    for i in 0..n_apu {
        let f = APU_MHZ[rng.usize_in(0, APU_MHZ.len() - 1)];
        let _ = writeln!(s, "    core apu{i} {{ class = apu; freq_mhz = {f}; }}");
    }
    let _ = writeln!(s, "  }}");
    let n_rpu = rng.usize_in(0, 3);
    let n_dsp = rng.usize_in(0, 3);
    let _ = writeln!(s, "  cluster workers {{");
    for i in 0..n_rpu {
        let f = RPU_MHZ[rng.usize_in(0, RPU_MHZ.len() - 1)];
        let _ = writeln!(s, "    core rpu{i} {{ class = rpu; freq_mhz = {f}; }}");
    }
    for i in 0..n_dsp {
        let f = DSP_MHZ[rng.usize_in(0, DSP_MHZ.len() - 1)];
        let _ = writeln!(s, "    core dsp{i} {{ class = dsp; freq_mhz = {f}; }}");
    }
    let _ = writeln!(s, "  }}");
    // Accelerators sit outside the clusters, referencing `host`.
    let n_accel = rng.usize_in(0, 4);
    for i in 0..n_accel {
        let f = ACCEL_MHZ[rng.usize_in(0, ACCEL_MHZ.len() - 1)];
        let _ = writeln!(
            s,
            "  core accel{i} {{ class = accel; freq_mhz = {f}; cluster = host; }}"
        );
    }
    let n_cores = n_apu + n_rpu + n_dsp + n_accel;

    let shared = 1024usize << rng.usize_in(0, 4); // 1Ki..16Ki words
    let local = [0usize, 4096, 8192, 16384][rng.usize_in(0, 3)];
    let _ = writeln!(
        s,
        "  memory {{ shared_words = {shared}; local_words = {local}; }}"
    );
    match rng.usize_in(0, 2) {
        0 => {
            let _ = writeln!(s, "  cache none;");
        }
        1 => {
            let sets = 16u32 << rng.usize_in(0, 3);
            let assoc = 1u32 << rng.usize_in(0, 2);
            let _ = writeln!(
                s,
                "  cache {{ sets = {sets}; assoc = {assoc}; line_words = 8; hit_cycles = 1; }}"
            );
        }
        _ => {} // builder default cache
    }
    if rng.chance_pct(40) {
        // Smallest w*h mesh that fits cores + the memory controller.
        let mut w = 2usize;
        let mut h = 2usize;
        while w * h < n_cores + 1 {
            if w <= h {
                w += 1;
            } else {
                h += 1;
            }
        }
        let hop = rng.u64_in(2, 8);
        let link = rng.u64_in(1, 4);
        let _ = writeln!(
            s,
            "  interconnect mesh {{ width = {w}; height = {h}; hop_ns = {hop}; link_ns = {link}; }}"
        );
    } else {
        let lat = rng.u64_in(20, 80);
        let occ = rng.u64_in(5, 20);
        let _ = writeln!(
            s,
            "  interconnect bus {{ latency_ns = {lat}; occupancy_ns = {occ}; }}"
        );
    }

    for i in 0..rng.usize_in(1, n_cores) {
        let _ = writeln!(s, "  timer tick{i};");
    }
    for i in 0..rng.usize_in(1, 2 * n_cores) {
        let cap = 1usize << rng.usize_in(2, 5);
        let _ = writeln!(s, "  mailbox fifo{i} {{ capacity = {cap}; }}");
    }
    if rng.chance_pct(50) {
        let _ = writeln!(s, "  semaphore lock0 {{ count = 1; }}");
    }
    for i in 0..rng.usize_in(0, 2) {
        let _ = writeln!(s, "  dma dma{i};");
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn hundred_plus_seeds_all_valid_and_distinct() {
        let mut sources = std::collections::BTreeSet::new();
        let mut shapes = std::collections::BTreeSet::new();
        for seed in 0..128u64 {
            let src = generate(seed);
            let desc = parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            desc.check_budget()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let p = desc
                .build()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert_eq!(p.num_cores(), desc.cores.len());
            sources.insert(src);
            let m = desc.metrics();
            shapes.insert((m.cores, m.peripherals, m.area_mmm2, m.power_uw));
        }
        assert_eq!(sources.len(), 128, "seeded sources are distinct");
        assert!(
            shapes.len() >= 100,
            "expected >= 100 structurally distinct topologies, got {}",
            shapes.len()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(42), generate(42));
        assert_ne!(generate(42), generate(43));
    }
}
