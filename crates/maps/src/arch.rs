//! Coarse target-architecture model.
//!
//! MAPS partitions and maps *"based on a coarse model of the target
//! architecture"* (Section IV): processing elements of different classes
//! with per-class execution efficiency, and a communication cost between
//! elements. The model is deliberately simple — class affinity factors and
//! a uniform interconnect cost — matching the granularity at which the real
//! tool makes its early decisions.

use crate::error::{Error, Result};

/// Processing-element classes of a heterogeneous MPSoC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PeClass {
    /// General-purpose RISC core.
    Risc,
    /// Digital signal processor.
    Dsp,
    /// Fixed-function/loosely programmable accelerator.
    Accelerator,
}

/// One processing element.
#[derive(Clone, Debug, PartialEq)]
pub struct Pe {
    /// Name, e.g. `"risc0"`.
    pub name: String,
    /// Class.
    pub class: PeClass,
    /// Relative speed (1.0 = reference RISC).
    pub speed: f64,
}

/// The coarse platform model.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchModel {
    pes: Vec<Pe>,
    /// Cycles to move one data unit between two distinct PEs.
    pub(crate) comm_cost_remote: u64,
    /// Cycles to move one data unit within a PE (pipelined locally).
    pub(crate) comm_cost_local: u64,
}

impl ArchModel {
    /// Creates a platform with the given PEs.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if `pes` is empty or any speed is non-positive.
    pub fn new(pes: Vec<Pe>, comm_cost_remote: u64, comm_cost_local: u64) -> Result<Self> {
        if pes.is_empty() {
            return Err(Error::Config("need at least one PE".into()));
        }
        if let Some(p) = pes.iter().find(|p| p.speed <= 0.0) {
            return Err(Error::Config(format!(
                "PE `{}` has non-positive speed",
                p.name
            )));
        }
        Ok(ArchModel {
            pes,
            comm_cost_remote,
            comm_cost_local,
        })
    }

    /// A homogeneous platform of `n` RISC cores at speed 1.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn homogeneous(n: usize) -> Self {
        assert!(n > 0, "need at least one PE");
        ArchModel {
            pes: (0..n)
                .map(|i| Pe {
                    name: format!("risc{i}"),
                    class: PeClass::Risc,
                    speed: 1.0,
                })
                .collect(),
            comm_cost_remote: 10,
            comm_cost_local: 1,
        }
    }

    /// A typical wireless-terminal platform: `riscs` RISC cores, `dsps`
    /// DSPs (2× faster on DSP-friendly code), one accelerator.
    ///
    /// # Panics
    ///
    /// Panics if both counts are zero.
    pub fn wireless_terminal(riscs: usize, dsps: usize) -> Self {
        assert!(riscs + dsps > 0, "need at least one PE");
        let mut pes = Vec::new();
        for i in 0..riscs {
            pes.push(Pe {
                name: format!("risc{i}"),
                class: PeClass::Risc,
                speed: 1.0,
            });
        }
        for i in 0..dsps {
            pes.push(Pe {
                name: format!("dsp{i}"),
                class: PeClass::Dsp,
                speed: 1.0,
            });
        }
        pes.push(Pe {
            name: "accel0".into(),
            class: PeClass::Accelerator,
            speed: 1.0,
        });
        ArchModel {
            pes,
            comm_cost_remote: 10,
            comm_cost_local: 1,
        }
    }

    /// The PEs in index order.
    pub fn pes(&self) -> &[Pe] {
        &self.pes
    }

    /// Number of PEs.
    pub fn len(&self) -> usize {
        self.pes.len()
    }

    /// Whether the platform has no PEs (never true for a built model).
    pub fn is_empty(&self) -> bool {
        self.pes.is_empty()
    }

    /// Cycles `pe` needs for a task of `cost` reference cycles whose
    /// preferred class is `pref` (`None` = class-neutral code).
    ///
    /// A task running on its preferred class executes at full efficiency;
    /// on a foreign class it pays an inefficiency factor (e.g. DSP kernels
    /// on a RISC take 3×; control code on a DSP takes 2×; anything not
    /// matched to an accelerator cannot exploit it and takes 5×).
    pub(crate) fn exec_cycles(&self, pe: usize, cost: u64, pref: Option<PeClass>) -> u64 {
        let p = &self.pes[pe];
        let factor = match (pref, p.class) {
            (None, PeClass::Accelerator) => 5.0,
            (None, _) => 1.0,
            (Some(want), have) if want == have => 1.0,
            (Some(PeClass::Dsp), PeClass::Risc) => 3.0,
            (Some(PeClass::Risc), PeClass::Dsp) => 2.0,
            (Some(PeClass::Accelerator), _) => 4.0,
            (Some(_), PeClass::Accelerator) => 5.0,
            (Some(_), _) => 2.0,
        };
        ((cost as f64 * factor) / p.speed).ceil() as u64
    }

    /// Cycles to transfer `units` data units from `from` to `to`.
    pub(crate) fn comm_cycles(&self, from: usize, to: usize, units: u64) -> u64 {
        if from == to {
            self.comm_cost_local * units
        } else {
            self.comm_cost_remote * units
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ArchModel {
        /// PE index by name.
        pub(crate) fn pe_by_name(&self, name: &str) -> Option<usize> {
            self.pes.iter().position(|p| p.name == name)
        }
    }

    #[test]
    fn homogeneous_builder() {
        let a = ArchModel::homogeneous(4);
        assert_eq!(a.len(), 4);
        assert!(a.pes().iter().all(|p| p.class == PeClass::Risc));
    }

    #[test]
    fn class_affinity_changes_cost() {
        let a = ArchModel::wireless_terminal(2, 2);
        let risc = a.pe_by_name("risc0").unwrap();
        let dsp = a.pe_by_name("dsp0").unwrap();
        // DSP-preferring task: cheap on DSP, 3x on RISC.
        assert_eq!(a.exec_cycles(dsp, 100, Some(PeClass::Dsp)), 100);
        assert_eq!(a.exec_cycles(risc, 100, Some(PeClass::Dsp)), 300);
        // Neutral code on the accelerator is terrible.
        let acc = a.pe_by_name("accel0").unwrap();
        assert_eq!(a.exec_cycles(acc, 100, None), 500);
    }

    #[test]
    fn comm_cost_local_vs_remote() {
        let a = ArchModel::homogeneous(2);
        assert!(a.comm_cycles(0, 1, 10) > a.comm_cycles(0, 0, 10));
    }

    #[test]
    fn validation() {
        assert!(ArchModel::new(vec![], 1, 1).is_err());
        assert!(ArchModel::new(
            vec![Pe {
                name: "x".into(),
                class: PeClass::Risc,
                speed: 0.0
            }],
            1,
            1
        )
        .is_err());
    }

    #[test]
    fn speed_scales_execution() {
        let a = ArchModel::new(
            vec![
                Pe {
                    name: "slow".into(),
                    class: PeClass::Risc,
                    speed: 1.0,
                },
                Pe {
                    name: "fast".into(),
                    class: PeClass::Risc,
                    speed: 2.0,
                },
            ],
            10,
            1,
        )
        .unwrap();
        assert_eq!(a.exec_cycles(0, 100, None), 100);
        assert_eq!(a.exec_cycles(1, 100, None), 50);
    }
}
