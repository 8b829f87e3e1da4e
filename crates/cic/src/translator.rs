//! The CIC translator — Figure 2's `CIC Translation to Target-Executable C
//! Code`.
//!
//! *"The CIC translator automatically translates the task codes in the CIC
//! model into the final parallel code, following the partitioning decision.
//! The CIC translation involves synthesizing the interface code between
//! tasks and a run-time system that schedules the mapped tasks, extracting
//! the necessary information from the architecture information file."*
//!
//! Given a [`CicModel`], an [`ArchInfo`], and a task→PE mapping, the
//! translator produces:
//!
//! * a [`PeProgram`] per PE — the synthesised run-time system: the order in
//!   which the PE receives, executes, and sends (one graph iteration);
//! * target-specific mini-C source per PE, with communication primitives
//!   chosen by the architecture's memory model (`dma_get`/`dma_put` +
//!   mailbox waits for Cell-like distributed stores, lock-protected shared
//!   buffers for SMP);
//! * a cycle estimate, so retargeting shows *performance* differences while
//!   [`execute_translation`] proves *functional* equivalence.

use std::collections::VecDeque;
use std::fmt::Write as _;

use mpsoc_minic::interp::Interp;
use mpsoc_minic::printer::print_function;

use crate::archfile::{ArchInfo, MemoryModel};
use crate::error::{Error, Result};
use crate::executor::{run_task, RunOutput};
use crate::model::CicModel;

/// One step of a PE's synthesised run-time loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Wait for / fetch the tokens of channel `ch` (cross-PE input).
    Recv {
        /// Channel index.
        ch: usize,
    },
    /// Execute task `task`.
    Exec {
        /// Task index.
        task: usize,
    },
    /// Publish the tokens of channel `ch` (cross-PE output).
    Send {
        /// Channel index.
        ch: usize,
    },
}

/// The synthesised run-time system of one PE.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeProgram {
    /// PE name.
    pub pe: String,
    /// One iteration's ops, in order.
    pub ops: Vec<Op>,
}

/// A completed translation.
#[derive(Clone, Debug, PartialEq)]
pub struct Translation {
    /// Name of the target architecture.
    pub(crate) arch_name: String,
    /// Memory model that drove primitive selection.
    pub memory: MemoryModel,
    /// `mapping[task] = pe index`.
    pub mapping: Vec<usize>,
    /// Per-PE run-time programs (only PEs with tasks).
    pub pe_programs: Vec<PeProgram>,
    /// Per-PE generated source.
    pub sources: Vec<(String, String)>,
    /// Estimated cycles for one graph iteration (compute + communication).
    pub est_cycles: u64,
}

/// Greedy automatic mapping: heaviest tasks first onto the least-loaded PE
/// (speed-normalised load).
///
/// # Errors
///
/// [`Error::Mapping`] if the architecture has no PE.
pub fn auto_map(model: &CicModel, arch: &ArchInfo) -> Result<Vec<usize>> {
    let mut order: Vec<usize> = (0..model.tasks.len()).collect();
    order.sort_by_key(|&t| std::cmp::Reverse((model.tasks[t].work, t)));
    let mut load = vec![0f64; arch.pes.len()];
    let mut mapping = vec![0usize; model.tasks.len()];
    for t in order {
        let mut best: Option<(f64, usize)> = None;
        for (pi, pe) in arch.pes.iter().enumerate() {
            let new_load = load[pi] + model.tasks[t].work as f64 / pe.speed;
            if best.is_none_or(|(bl, _)| new_load < bl) {
                best = Some((new_load, pi));
            }
        }
        let Some((new_load, pi)) = best else {
            return Err(Error::Mapping(format!(
                "architecture `{}` has no PE for task `{}`",
                arch.name, model.tasks[t].name
            )));
        };
        load[pi] = new_load;
        mapping[t] = pi;
    }
    Ok(mapping)
}

/// Translates `model` for `arch` under `mapping`.
///
/// # Errors
///
/// [`Error::Mapping`] for a mapping of the wrong length or out-of-range PEs;
/// [`Error::Model`] is impossible for a validated model.
pub fn translate(model: &CicModel, arch: &ArchInfo, mapping: &[usize]) -> Result<Translation> {
    if mapping.len() != model.tasks.len() {
        return Err(Error::Mapping(format!(
            "mapping of {} tasks for model of {}",
            mapping.len(),
            model.tasks.len()
        )));
    }
    if let Some(&pe) = mapping.iter().find(|&&pe| pe >= arch.pes.len()) {
        return Err(Error::Mapping(format!("mapping references PE {pe}")));
    }
    let order = model.topo_order()?;

    // Synthesise per-PE programs: tasks in topological order, receives
    // before, sends after, only for cross-PE channels.
    let mut programs: Vec<PeProgram> = Vec::new();
    for (pi, pe) in arch.pes.iter().enumerate() {
        let mut ops = Vec::new();
        for &t in &order {
            if mapping[t] != pi {
                continue;
            }
            for ci in model.inputs(t) {
                if mapping[model.channels[ci].src] != pi {
                    ops.push(Op::Recv { ch: ci });
                }
            }
            ops.push(Op::Exec { task: t });
            for ci in model.outputs(t) {
                if mapping[model.channels[ci].dst] != pi {
                    ops.push(Op::Send { ch: ci });
                }
            }
        }
        if !ops.is_empty() {
            programs.push(PeProgram {
                pe: pe.name.clone(),
                ops,
            });
        }
    }

    // Generate per-PE source.
    let mut sources = Vec::new();
    for prog in &programs {
        sources.push((prog.pe.clone(), generate_pe_source(model, arch, prog)?));
    }

    // Cycle estimate: per-PE compute (speed-scaled) + comm latency per
    // cross-PE channel; the iteration takes the max over PEs plus comm.
    let mut pe_compute = vec![0u64; arch.pes.len()];
    for (t, task) in model.tasks.iter().enumerate() {
        let pe = mapping[t];
        pe_compute[pe] += (task.work as f64 / arch.pes[pe].speed).ceil() as u64;
    }
    let crossings = model
        .channels
        .iter()
        .filter(|c| mapping[c.src] != mapping[c.dst])
        .count() as u64;
    let est_cycles = pe_compute.into_iter().max().unwrap_or(0) + crossings * arch.comm_latency;

    Ok(Translation {
        arch_name: arch.name.clone(),
        memory: arch.memory,
        mapping: mapping.to_vec(),
        pe_programs: programs,
        sources,
        est_cycles,
    })
}

fn generate_pe_source(model: &CicModel, arch: &ArchInfo, prog: &PeProgram) -> Result<String> {
    let mut src = String::new();
    let _ = writeln!(src, "// target: {} ({:?} memory)", arch.name, arch.memory);
    let _ = writeln!(src, "// PE: {}", prog.pe);
    // Emit the bodies of the tasks this PE runs (target-independent code
    // carried over verbatim — the essence of CIC retargetability).
    let mut emitted: Vec<&str> = Vec::new();
    for op in &prog.ops {
        if let Op::Exec { task } = op {
            let body_fn = model.tasks[*task].body_fn.as_str();
            if !emitted.contains(&body_fn) {
                if let Some(f) = model.unit.function(body_fn) {
                    print_function(&mut src, f);
                    src.push('\n');
                }
                emitted.push(body_fn);
            }
        }
    }
    let _ = writeln!(src, "void runtime_main(void) {{");
    for op in &prog.ops {
        match (op, arch.memory) {
            (Op::Recv { ch }, MemoryModel::Distributed) => {
                let _ = writeln!(src, "    mbx_wait({ch});");
                let _ = writeln!(src, "    dma_get({ch});");
            }
            (Op::Recv { ch }, MemoryModel::Shared) => {
                let _ = writeln!(src, "    ch_lock({ch});");
                let _ = writeln!(src, "    buf_read({ch});");
                let _ = writeln!(src, "    ch_unlock({ch});");
            }
            (Op::Exec { task }, _) => {
                let _ = writeln!(src, "    run_{}();", model.tasks[*task].name);
            }
            (Op::Send { ch }, MemoryModel::Distributed) => {
                let _ = writeln!(src, "    dma_put({ch});");
                let _ = writeln!(src, "    mbx_notify({ch});");
            }
            (Op::Send { ch }, MemoryModel::Shared) => {
                let _ = writeln!(src, "    ch_lock({ch});");
                let _ = writeln!(src, "    buf_write({ch});");
                let _ = writeln!(src, "    ch_unlock({ch});");
            }
        }
    }
    src.push_str("}\n");
    Ok(src)
}

/// Executes a translation: runs the per-PE programs concurrently
/// (round-robin with blocking receives) using the same interpreted bodies
/// as the reference executor, proving the translation functionally
/// transparent.
///
/// # Errors
///
/// [`Error::Exec`] on body traps or a communication deadlock (impossible
/// for translator-produced programs; guards hand-written ones).
pub fn execute_translation(
    model: &CicModel,
    translation: &Translation,
    iterations: u64,
) -> Result<RunOutput> {
    let mut channels: Vec<VecDeque<i64>> = model.channels.iter().map(|_| VecDeque::new()).collect();
    let mut out = RunOutput::default();
    let mut interp = Interp::new(&model.unit);
    // Per-PE cursor: (iteration, op index).
    let mut cursor = vec![(0u64, 0usize); translation.pe_programs.len()];
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for (pi, prog) in translation.pe_programs.iter().enumerate() {
            let (ref mut iter, ref mut opi) = cursor[pi];
            if *iter >= iterations {
                continue;
            }
            all_done = false;
            while *iter < iterations {
                let op = prog.ops[*opi];
                let ok = match op {
                    Op::Recv { ch } => channels[ch].len() >= model.channels[ch].tokens,
                    Op::Exec { task } => {
                        // Local inputs were produced earlier on this PE and
                        // remote inputs gated by the preceding Recv ops, so
                        // an Exec is only blocked if a Recv above it was.
                        let ready = model
                            .inputs(task)
                            .iter()
                            .all(|&ci| channels[ci].len() >= model.channels[ci].tokens);
                        if ready {
                            run_task(model, task, &mut channels, &mut interp, &mut out)?;
                            true
                        } else {
                            false
                        }
                    }
                    Op::Send { .. } => true,
                };
                if !ok {
                    break;
                }
                progressed = true;
                *opi += 1;
                if *opi == prog.ops.len() {
                    *opi = 0;
                    *iter += 1;
                }
            }
        }
        if all_done {
            return Ok(out);
        }
        if !progressed {
            return Err(Error::Exec("translated programs deadlocked".into()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archfile::ArchInfo;
    use crate::executor::execute;
    use crate::model::{CicChannel, CicModel, CicTask};
    use mpsoc_minic::parse;

    /// A 4-stage pipeline with a side channel — enough structure to cross
    /// PEs in interesting ways.
    fn app() -> CicModel {
        let unit = parse(
            "void gen(int out[], int side[]) {\n\
               for (k = 0; k < 8; k = k + 1) { out[k] = k * 3 + 1; }\n\
               for (k = 0; k < 2; k = k + 1) { side[k] = k + 100; }\n\
             }\n\
             void stage1(int in[], int out[]) { for (k = 0; k < 8; k = k + 1) { out[k] = in[k] * in[k] % 251; } }\n\
             void stage2(int in[], int side[], int out[]) {\n\
               for (k = 0; k < 8; k = k + 1) { out[k] = in[k] + side[k % 2]; }\n\
             }\n\
             void emit(int in[]) { int x = in[0]; }",
        )
        .unwrap();
        CicModel::new(
            unit,
            vec![
                CicTask {
                    name: "gen".into(),
                    body_fn: "gen".into(),
                    period: Some(1000),
                    deadline: None,
                    work: 100,
                },
                CicTask {
                    name: "s1".into(),
                    body_fn: "stage1".into(),
                    period: None,
                    deadline: None,
                    work: 400,
                },
                CicTask {
                    name: "s2".into(),
                    body_fn: "stage2".into(),
                    period: None,
                    deadline: None,
                    work: 300,
                },
                CicTask {
                    name: "emit".into(),
                    body_fn: "emit".into(),
                    period: None,
                    deadline: Some(2000),
                    work: 50,
                },
            ],
            vec![
                CicChannel {
                    name: "d01".into(),
                    src: 0,
                    dst: 1,
                    tokens: 8,
                },
                CicChannel {
                    name: "d12".into(),
                    src: 1,
                    dst: 2,
                    tokens: 8,
                },
                CicChannel {
                    name: "side".into(),
                    src: 0,
                    dst: 2,
                    tokens: 2,
                },
                CicChannel {
                    name: "d23".into(),
                    src: 2,
                    dst: 3,
                    tokens: 8,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn same_cic_translates_to_both_targets() {
        let m = app();
        for arch in [ArchInfo::cell_like(3), ArchInfo::smp_like(4)] {
            let map = auto_map(&m, &arch).unwrap();
            let t = translate(&m, &arch, &map).unwrap();
            assert!(!t.pe_programs.is_empty());
            assert!(!t.sources.is_empty());
        }
    }

    #[test]
    fn retargeting_preserves_function() {
        // The headline claim of Section V: one CIC spec, two targets,
        // identical observable output.
        let m = app();
        let reference = execute(&m, 3).unwrap();
        for arch in [ArchInfo::cell_like(3), ArchInfo::smp_like(4)] {
            let map = auto_map(&m, &arch).unwrap();
            let t = translate(&m, &arch, &map).unwrap();
            let run = execute_translation(&m, &t, 3).unwrap();
            assert_eq!(
                run.sinks, reference.sinks,
                "target `{}` diverged from the reference",
                arch.name
            );
        }
    }

    #[test]
    fn backends_use_their_own_primitives() {
        let m = app();
        let cell = ArchInfo::cell_like(3);
        let map = auto_map(&m, &cell).unwrap();
        let t = translate(&m, &cell, &map).unwrap();
        let all: String = t.sources.iter().map(|(_, s)| s.clone()).collect();
        if t.pe_programs
            .iter()
            .any(|p| p.ops.iter().any(|o| matches!(o, Op::Recv { .. })))
        {
            assert!(all.contains("dma_get("));
            assert!(!all.contains("ch_lock("));
        }
        let smp = ArchInfo::smp_like(4);
        let map = auto_map(&m, &smp).unwrap();
        let t = translate(&m, &smp, &map).unwrap();
        let all: String = t.sources.iter().map(|(_, s)| s.clone()).collect();
        if t.pe_programs
            .iter()
            .any(|p| p.ops.iter().any(|o| matches!(o, Op::Recv { .. })))
        {
            assert!(all.contains("ch_lock("));
            assert!(!all.contains("dma_get("));
        }
    }

    #[test]
    fn generated_sources_parse_as_minic() {
        let m = app();
        let arch = ArchInfo::smp_like(2);
        let map = auto_map(&m, &arch).unwrap();
        let t = translate(&m, &arch, &map).unwrap();
        for (pe, src) in &t.sources {
            parse(src).unwrap_or_else(|e| panic!("PE `{pe}` source invalid: {e}\n{src}"));
        }
    }

    #[test]
    fn single_pe_mapping_has_no_comm_ops() {
        let m = app();
        let arch = ArchInfo::smp_like(1);
        let map = vec![0; m.tasks.len()];
        let t = translate(&m, &arch, &map).unwrap();
        assert_eq!(t.pe_programs.len(), 1);
        assert!(t.pe_programs[0]
            .ops
            .iter()
            .all(|o| matches!(o, Op::Exec { .. })));
        // And it still computes the same thing.
        assert_eq!(
            execute_translation(&m, &t, 2).unwrap().sinks,
            execute(&m, 2).unwrap().sinks
        );
    }

    #[test]
    fn estimate_reflects_speed_and_comm() {
        let m = app();
        // Single-PE SMP pays no comm but serialises all work.
        let smp = ArchInfo::smp_like(1);
        let ts = translate(&m, &smp, &vec![0; m.tasks.len()]).unwrap();
        assert_eq!(ts.est_cycles, m.tasks.iter().map(|t| t.work).sum::<u64>());
        // Same mapping, pricier interconnect => larger estimate.
        let cheap = ArchInfo::cell_like(3);
        let map = auto_map(&m, &cheap).unwrap();
        let mut pricey = cheap.clone();
        pricey.comm_latency = 2_000;
        let tc = translate(&m, &cheap, &map).unwrap();
        let tp = translate(&m, &pricey, &map).unwrap();
        assert!(tp.est_cycles > tc.est_cycles);
        // Distributing over faster SPEs shrinks the compute component.
        let smp4 = ArchInfo::smp_like(4);
        let t4 = translate(&m, &smp4, &auto_map(&m, &smp4).unwrap()).unwrap();
        assert!(t4.est_cycles < ts.est_cycles + 4 * smp4.comm_latency);
    }

    #[test]
    fn mapping_validation() {
        let m = app();
        let arch = ArchInfo::smp_like(2);
        assert!(translate(&m, &arch, &[0]).is_err());
        assert!(translate(&m, &arch, &[0, 1, 2, 9]).is_err());
    }
}
