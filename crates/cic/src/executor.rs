//! Target-independent CIC execution (the functional reference).
//!
//! Retargetability is only meaningful against a fixed functional semantics:
//! this executor runs a [`CicModel`] directly — tasks in topological order,
//! channels as unbounded FIFOs, bodies interpreted by the mini-C
//! interpreter — and records everything consumed by *sink* tasks (tasks
//! with no outputs). The translator's per-target executions must reproduce
//! these sink streams exactly (experiment E7).

use std::collections::{BTreeMap, VecDeque};

use mpsoc_minic::interp::Interp;

use crate::error::{Error, Result};
use crate::model::CicModel;

/// The observable behaviour of a run: every token consumed by each sink
/// task, in consumption order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOutput {
    /// `sink task name -> consumed tokens`.
    pub sinks: BTreeMap<String, Vec<i64>>,
    /// Total task executions.
    pub executions: u64,
}

/// Executes `model` for `iterations` iterations.
///
/// # Errors
///
/// [`Error::Exec`] when a body traps (out-of-bounds, division by zero,
/// step limit) or a channel underflows (model bug).
pub fn execute(model: &CicModel, iterations: u64) -> Result<RunOutput> {
    let order = model.topo_order()?;
    let mut channels: Vec<VecDeque<i64>> = model.channels.iter().map(|_| VecDeque::new()).collect();
    let mut out = RunOutput::default();
    let mut interp = Interp::new(&model.unit);
    for _ in 0..iterations {
        for &t in &order {
            run_task(model, t, &mut channels, &mut interp, &mut out)?;
        }
    }
    Ok(out)
}

/// Executes one task instance against the given channel state.
///
/// Exposed for the translator's per-target executor, which replays tasks in
/// a different (per-PE) order but must use identical body semantics.
///
/// # Errors
///
/// [`Error::Exec`] on body traps or channel underflow.
pub(crate) fn run_task(
    model: &CicModel,
    t: usize,
    channels: &mut [VecDeque<i64>],
    interp: &mut Interp<'_>,
    out: &mut RunOutput,
) -> Result<()> {
    let task = &model.tasks[t];
    let ins = model.inputs(t);
    let outs = model.outputs(t);
    let mut args = Vec::new();
    let mut in_bufs = Vec::new();
    for &ci in &ins {
        let n = model.channels[ci].tokens;
        let q = &mut channels[ci];
        if q.len() < n {
            return Err(Error::Exec(format!(
                "channel `{}` underflow feeding task `{}`",
                model.channels[ci].name, task.name
            )));
        }
        let data: Vec<i64> = q.drain(..n).collect();
        in_bufs.push(data);
    }
    for data in &in_bufs {
        args.push(interp.alloc_array(data));
    }
    let mut out_addrs = Vec::new();
    for &co in &outs {
        let n = model.channels[co].tokens;
        let addr = interp.alloc_array(&vec![0i64; n]);
        out_addrs.push((co, addr, n));
        args.push(addr);
    }
    interp
        .run(&task.body_fn, &args)
        .map_err(|e| Error::Exec(format!("task `{}`: {e}", task.name)))?;
    for (co, addr, n) in out_addrs {
        let data = interp
            .read_array(addr, n)
            .map_err(|e| Error::Exec(e.to_string()))?;
        channels[co].extend(data);
    }
    if outs.is_empty() {
        let sink = out.sinks.entry(task.name.clone()).or_default();
        for data in &in_bufs {
            sink.extend_from_slice(data);
        }
    }
    out.executions += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CicChannel, CicTask};
    use mpsoc_minic::parse;

    fn pipeline_model() -> CicModel {
        let unit = parse(
            "void produce(int out[]) { for (k = 0; k < 4; k = k + 1) { out[k] = k * 10; } }\n\
             void double_it(int in[], int out[]) { for (k = 0; k < 4; k = k + 1) { out[k] = in[k] * 2; } }\n\
             void collect(int in[]) { int x = in[0]; }",
        )
        .unwrap();
        CicModel::new(
            unit,
            vec![
                CicTask {
                    name: "src".into(),
                    body_fn: "produce".into(),
                    period: Some(10),
                    deadline: None,
                    work: 4,
                },
                CicTask {
                    name: "dbl".into(),
                    body_fn: "double_it".into(),
                    period: None,
                    deadline: None,
                    work: 8,
                },
                CicTask {
                    name: "out".into(),
                    body_fn: "collect".into(),
                    period: None,
                    deadline: None,
                    work: 1,
                },
            ],
            vec![
                CicChannel {
                    name: "c0".into(),
                    src: 0,
                    dst: 1,
                    tokens: 4,
                },
                CicChannel {
                    name: "c1".into(),
                    src: 1,
                    dst: 2,
                    tokens: 4,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn pipeline_computes_expected_stream() {
        let m = pipeline_model();
        let out = execute(&m, 2).unwrap();
        assert_eq!(
            out.sinks["out"],
            vec![0, 20, 40, 60, 0, 20, 40, 60],
            "two iterations of doubled ramp"
        );
        assert_eq!(out.executions, 6);
    }

    #[test]
    fn deterministic() {
        let m = pipeline_model();
        assert_eq!(execute(&m, 3).unwrap(), execute(&m, 3).unwrap());
    }

    #[test]
    fn body_trap_reported_with_task_name() {
        let unit = parse("void bad(int out[]) { out[0] = 1 / 0; }").unwrap();
        let m = CicModel::new(
            unit,
            vec![
                CicTask {
                    name: "oops".into(),
                    body_fn: "bad".into(),
                    period: None,
                    deadline: None,
                    work: 1,
                },
                CicTask {
                    name: "snk".into(),
                    body_fn: "bad".into(),
                    period: None,
                    deadline: None,
                    work: 1,
                },
            ],
            vec![CicChannel {
                name: "c".into(),
                src: 0,
                dst: 1,
                tokens: 1,
            }],
        );
        // Note: `snk` has 1 input and 0 outputs but body `bad` takes 1
        // param, so the model itself validates; execution traps on div 0.
        let m = m.unwrap();
        let e = execute(&m, 1).unwrap_err();
        assert!(e.to_string().contains("oops"));
    }
}
