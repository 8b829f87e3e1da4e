//! Compiling a [`SocDesc`] into a live [`Platform`], plus the deterministic
//! area/power cost model and the coarse MAPS architecture model.
//!
//! # Cost model
//!
//! Area and power are computed with fixed per-class coefficients (loosely
//! lumos-style: big cores cost area, accelerators cost little area but are
//! only fast on matching work):
//!
//! | component | area (milli-mm^2) | power (uW) |
//! |---|---|---|
//! | apu core | `2000 + 1000 * MHz / 1000` | `900 * MHz` |
//! | rpu core | `800 + 400 * MHz / 1000` | `350 * MHz` |
//! | dsp core | `1500 + 700 * MHz / 1000` | `700 * MHz` |
//! | accel core | `2800 + 600 * MHz / 1000` | `500 * MHz` |
//! | shared RAM | `40 / 1Ki words` | `20000 / 1Ki words` |
//! | local RAM (per core) | `60 / 1Ki words` | `30000 / 1Ki words` |
//! | L1 cache (per core) | `90 / 1Ki words of lines` | `45000 / 1Ki words` |
//! | timer / semaphore | `10` | `200` |
//! | mailbox | `20` | `300` |
//! | DMA engine | `120` | `1500` |
//! | bus | `300` | `1000` |
//! | mesh router | `180` each | `800` each |
//!
//! All arithmetic is exact integer math in milli-mm^2 and uW, so metrics —
//! and therefore budget validation and Pareto fronts — are bit-identical
//! across hosts and thread counts.

use crate::ast::{CoreClass, SocDesc, SocInterconnect, SocPeriphKind};
use crate::error::{Error, Result};
use crate::parser::parse;
use mpsoc_platform::platform::{Platform, PlatformBuilder};
use mpsoc_platform::Frequency;

/// Deterministic platform metrics in integer milli-units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SocMetrics {
    /// Total area in milli-mm^2 (1/1000 mm^2).
    pub area_mmm2: u64,
    /// Total power in uW (1/1000 mW).
    pub power_uw: u64,
    /// Number of cores.
    pub cores: usize,
    /// Number of peripherals.
    pub peripherals: usize,
}

impl SocMetrics {
    /// Area in mm^2 (for display only; comparisons use the integer form).
    pub(crate) fn area_mm2(&self) -> f64 {
        self.area_mmm2 as f64 / 1000.0
    }

    /// Power in mW (for display only; comparisons use the integer form).
    pub(crate) fn power_mw(&self) -> f64 {
        self.power_uw as f64 / 1000.0
    }
}

/// Per-class cost coefficients: (base area, area per GHz, power per MHz),
/// in milli-mm^2 and uW.
fn class_coeffs(class: CoreClass) -> (u64, u64, u64) {
    match class {
        CoreClass::Apu => (2000, 1000, 900),
        CoreClass::Rpu => (800, 400, 350),
        CoreClass::Dsp => (1500, 700, 700),
        CoreClass::Accel => (2800, 600, 500),
    }
}

impl SocDesc {
    /// Computes the deterministic area/power metrics of this description.
    pub fn metrics(&self) -> SocMetrics {
        let mut area = 0u64;
        let mut power = 0u64;
        for core in &self.cores {
            let mhz = core.freq_khz / 1000;
            let (base, per_ghz, pw_per_mhz) = class_coeffs(core.class);
            area += core.area_mmm2.unwrap_or(base + per_ghz * mhz / 1000);
            power += core.power_uw.unwrap_or(pw_per_mhz * mhz);
        }
        let n = self.cores.len() as u64;
        area += 40 * (self.shared_words as u64) / 1024;
        power += 20_000 * (self.shared_words as u64) / 1024;
        area += n * 60 * (self.local_words as u64) / 1024;
        power += n * 30_000 * (self.local_words as u64) / 1024;
        if let Some(c) = &self.cache {
            let words = c.sets as u64 * c.assoc as u64 * c.line_words as u64;
            area += n * 90 * words / 1024;
            power += n * 45_000 * words / 1024;
        }
        for p in &self.peripherals {
            let (a, w) = match p.kind {
                SocPeriphKind::Timer | SocPeriphKind::Semaphore { .. } => (10, 200),
                SocPeriphKind::Mailbox { .. } => (20, 300),
                SocPeriphKind::Dma => (120, 1500),
            };
            area += a;
            power += w;
        }
        match self.interconnect {
            SocInterconnect::Bus { .. } => {
                area += 300;
                power += 1000;
            }
            SocInterconnect::Mesh { width, height, .. } => {
                let routers = (width * height) as u64;
                area += 180 * routers;
                power += 800 * routers;
            }
        }
        SocMetrics {
            area_mmm2: area,
            power_uw: power,
            cores: self.cores.len(),
            peripherals: self.peripherals.len(),
        }
    }

    /// Validates the optional area/power budget against [`Self::metrics`].
    ///
    /// # Errors
    ///
    /// A source-located error at the `budget` section when a limit is
    /// exceeded.
    pub fn check_budget(&self) -> Result<()> {
        let m = self.metrics();
        if let Some(max) = self.budget.max_area_mm2 {
            if m.area_mmm2 > max * 1000 {
                return Err(Error::new(
                    self.budget_span.line,
                    self.budget_span.col,
                    format!(
                        "platform area {:.3} mm2 exceeds budget {max} mm2",
                        m.area_mm2()
                    ),
                ));
            }
        }
        if let Some(max) = self.budget.max_power_mw {
            if m.power_uw > max * 1000 {
                return Err(Error::new(
                    self.budget_span.line,
                    self.budget_span.col,
                    format!(
                        "platform power {:.3} mW exceeds budget {max} mW",
                        m.power_mw()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Builds the described virtual platform: cores in declaration order,
    /// then peripherals in declaration (= page) order.
    ///
    /// # Errors
    ///
    /// Platform-builder rejections are mapped back to the source span of
    /// the section that caused them (memory, cache, interconnect, or the
    /// platform header), so callers always get a located diagnostic.
    pub fn build(&self) -> Result<Platform> {
        let freqs = self
            .cores
            .iter()
            .map(|c| Frequency::khz(c.freq_khz))
            .collect();
        let built = PlatformBuilder::new()
            .cores_with_freqs(freqs)
            .shared_words(self.shared_words as u32)
            .local_words(self.local_words as u32)
            .cache(self.cache)
            .interconnect(self.interconnect.to_config())
            .build();
        let mut p = match built {
            Ok(p) => p,
            Err(e) => {
                // Attribute the failure to the most relevant section.
                let msg = e.to_string();
                let span = if msg.contains("mesh") {
                    self.interconnect_span
                } else if msg.contains("cache") {
                    self.cache_span
                } else if msg.contains("memory") || msg.contains("local store") {
                    self.memory_span
                } else {
                    self.interconnect_span
                };
                return Err(Error::new(span.line, span.col, msg));
            }
        };
        for periph in &self.peripherals {
            match periph.kind {
                SocPeriphKind::Timer => {
                    p.add_timer(&periph.name);
                }
                SocPeriphKind::Mailbox { capacity } => {
                    p.add_mailbox(&periph.name, capacity);
                }
                SocPeriphKind::Semaphore { count } => {
                    p.add_semaphore(&periph.name, count as u64);
                }
                SocPeriphKind::Dma => {
                    p.add_dma(&periph.name);
                }
            }
        }
        Ok(p)
    }

    /// Derives the coarse MAPS architecture model used by the joint
    /// mapping*topology DSE: one PE per core, class-mapped, speed relative
    /// to a 100 MHz reference RISC, communication costs from the
    /// interconnect.
    pub fn arch_model(&self) -> mpsoc_maps::ArchModel {
        let pes = self
            .cores
            .iter()
            .map(|c| mpsoc_maps::Pe {
                name: c.name.clone(),
                class: match c.class {
                    CoreClass::Apu | CoreClass::Rpu => mpsoc_maps::PeClass::Risc,
                    CoreClass::Dsp => mpsoc_maps::PeClass::Dsp,
                    CoreClass::Accel => mpsoc_maps::PeClass::Accelerator,
                },
                // RPUs are lean in-order cores: half the per-MHz throughput.
                speed: match c.class {
                    CoreClass::Rpu => c.freq_khz as f64 / 200_000.0,
                    _ => c.freq_khz as f64 / 100_000.0,
                },
            })
            .collect();
        let (remote, local) = match self.interconnect {
            SocInterconnect::Bus {
                latency_ns,
                occupancy_ns,
            } => (1 + (latency_ns + occupancy_ns) / 10, 1),
            SocInterconnect::Mesh {
                width,
                height,
                hop_ns,
                link_ns,
            } => {
                let diameter = (width + height) as u64;
                (1 + diameter * (hop_ns + link_ns) / 20, 1)
            }
        };
        mpsoc_maps::ArchModel::new(pes, remote, local).expect("non-empty validated core list")
    }
}

/// Parses, budget-checks, and builds a platform from `.soc` source in one
/// call.
///
/// # Errors
///
/// Any lexing/parsing/validation/builder failure, source-located.
pub fn compile(src: &str) -> Result<Platform> {
    let desc = parse(src)?;
    desc.check_budget()?;
    desc.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "platform p {
        core big { class = apu; freq_mhz = 600; }
        core little { class = rpu; freq_mhz = 100; }
        memory { shared_words = 2048; }
        timer tick;
        mailbox mb { capacity = 8; }
        dma dmac;
    }";

    #[test]
    fn builds_and_steps() {
        let p = compile(SMALL).unwrap();
        assert_eq!(p.num_cores(), 2);
        // No programs loaded: the platform is idle but steppable state.
        let _ = p.state_checksum();
    }

    #[test]
    fn metrics_are_deterministic_integers() {
        let d = parse(SMALL).unwrap();
        let m1 = d.metrics();
        let m2 = d.metrics();
        assert_eq!(m1, m2);
        assert!(m1.area_mmm2 > 0 && m1.power_uw > 0);
        assert_eq!(m1.cores, 2);
        assert_eq!(m1.peripherals, 3);
    }

    #[test]
    fn budget_violation_is_located() {
        let src = "platform p {
            core big { class = apu; freq_mhz = 1000; }
            budget { max_area_mm2 = 1; }
        }";
        let e = compile(src).unwrap_err();
        assert!(e.msg.contains("exceeds budget"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn mesh_too_small_maps_to_interconnect_span() {
        let src = "platform p {
            core a { class = rpu; freq_mhz = 100; }
            core b { class = rpu; freq_mhz = 100; }
            core c { class = rpu; freq_mhz = 100; }
            interconnect mesh { width = 2; height = 1; }
        }";
        let e = compile(src).unwrap_err();
        assert!(e.msg.contains("mesh"), "{e}");
        assert_eq!(e.line, 5, "error points at the interconnect section: {e}");
    }

    #[test]
    fn arch_model_maps_classes() {
        let d = parse(
            "platform p {
                core a { class = apu; freq_mhz = 200; }
                core d { class = dsp; freq_mhz = 100; }
                core x { class = accel; freq_mhz = 100; }
            }",
        )
        .unwrap();
        let arch = d.arch_model();
        assert_eq!(arch.len(), 3);
        assert_eq!(arch.pes()[0].class, mpsoc_maps::PeClass::Risc);
        assert_eq!(arch.pes()[1].class, mpsoc_maps::PeClass::Dsp);
        assert_eq!(arch.pes()[2].class, mpsoc_maps::PeClass::Accelerator);
        assert!((arch.pes()[0].speed - 2.0).abs() < 1e-12);
    }
}
