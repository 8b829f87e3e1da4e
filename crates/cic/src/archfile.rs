//! The target architecture a CIC model is translated for.
//!
//! Section V: *"Information on the target architecture and the design
//! constraints is separately described in an xml-style file, called the
//! architecture information file."* [`ArchInfo`] is the information that
//! file carries — the memory model, the processing elements and the
//! interconnect — as a value. The two targets the paper retargets to are
//! built in: [`ArchInfo::cell_like`] and [`ArchInfo::smp_like`]. The XML
//! file format itself is not reproduced: no claim, tool or workload of the
//! suite reads an architecture from a file.

/// Memory organisation of the target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoryModel {
    /// One coherent shared memory (MPCore-like SMP).
    Shared,
    /// Per-PE local stores with explicit transfers (Cell-like).
    Distributed,
}

/// PE classes recognised by the translator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeClass {
    /// General-purpose core.
    Risc,
    /// DSP-like worker.
    Dsp,
}

/// One processing element of the target.
#[derive(Clone, Debug, PartialEq)]
pub struct PeInfo {
    /// PE name.
    pub name: String,
    /// Class.
    pub class: PeClass,
    /// Relative speed.
    pub speed: f64,
    /// Local-store words (distributed targets).
    pub local_words: Option<u64>,
}

/// Interconnect style.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterconnectKind {
    /// Explicit DMA block transfers.
    Dma,
    /// Shared bus with lock-protected buffers.
    Bus,
}

/// The architecture information of one target.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchInfo {
    /// Architecture name.
    pub name: String,
    /// Memory model.
    pub memory: MemoryModel,
    /// Processing elements.
    pub pes: Vec<PeInfo>,
    /// Interconnect.
    pub interconnect: InterconnectKind,
    /// Per-transfer latency (cycles).
    pub(crate) comm_latency: u64,
}

impl ArchInfo {
    /// A built-in Cell-like distributed target: one RISC host (`ppe`) and
    /// `spes` DSP workers with 16 Ki-word local stores, DMA interconnect.
    pub fn cell_like(spes: usize) -> Self {
        let mut pes = vec![PeInfo {
            name: "ppe".into(),
            class: PeClass::Risc,
            speed: 1.0,
            local_words: None,
        }];
        for i in 0..spes {
            pes.push(PeInfo {
                name: format!("spe{i}"),
                class: PeClass::Dsp,
                speed: 2.0,
                local_words: Some(16 * 1024),
            });
        }
        ArchInfo {
            name: "celllike".into(),
            memory: MemoryModel::Distributed,
            pes,
            interconnect: InterconnectKind::Dma,
            comm_latency: 200,
        }
    }

    /// A built-in MPCore-like SMP: `cores` identical RISC cores over shared
    /// memory with lock-protected channel buffers.
    pub fn smp_like(cores: usize) -> Self {
        ArchInfo {
            name: "smplike".into(),
            memory: MemoryModel::Shared,
            pes: (0..cores)
                .map(|i| PeInfo {
                    name: format!("cpu{i}"),
                    class: PeClass::Risc,
                    speed: 1.0,
                    local_words: None,
                })
                .collect(),
            interconnect: InterconnectKind::Bus,
            comm_latency: 30,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_targets() {
        let cell = ArchInfo::cell_like(4);
        assert_eq!(cell.pes.len(), 5);
        assert_eq!(cell.memory, MemoryModel::Distributed);
        let smp = ArchInfo::smp_like(2);
        assert_eq!(smp.pes.len(), 2);
        assert_eq!(smp.memory, MemoryModel::Shared);
    }
}
