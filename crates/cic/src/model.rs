//! The Common Intermediate Code model.
//!
//! Section V: *"In a CIC, the potential functional and data parallelism of
//! application tasks are specified independently of the target architecture
//! and design constraints. CIC tasks are concurrent tasks communicating
//! with each other through channels."*
//!
//! A [`CicModel`] bundles a mini-C translation unit (the task bodies), the
//! task declarations with their real-time annotations, and the channels.
//! Task bodies follow a fixed convention: a task with *m* input ports and
//! *n* output ports is a `void` function taking *m* input arrays followed
//! by *n* output arrays; each port moves a fixed number of tokens per
//! execution. This keeps the bodies **target independent** — all
//! communication is synthesised by the translator.

use mpsoc_minic::{Type, Unit};

use crate::error::{Error, Result};

/// A CIC task declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CicTask {
    /// Task name.
    pub name: String,
    /// The mini-C function implementing the task body.
    pub body_fn: String,
    /// Optional period annotation (cycles).
    pub period: Option<u64>,
    /// Optional deadline annotation (cycles).
    pub deadline: Option<u64>,
    /// Work estimate per execution (reference cycles), for mapping.
    pub work: u64,
}

/// A typed FIFO channel between two task ports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CicChannel {
    /// Channel name.
    pub name: String,
    /// Producing task (index into [`CicModel::tasks`]).
    pub src: usize,
    /// Consuming task.
    pub dst: usize,
    /// Tokens moved per task execution.
    pub tokens: usize,
}

/// A complete CIC specification.
#[derive(Clone, Debug, PartialEq)]
pub struct CicModel {
    /// The mini-C unit holding every task body.
    pub unit: Unit,
    /// Task declarations.
    pub tasks: Vec<CicTask>,
    /// Channels.
    pub channels: Vec<CicChannel>,
}

impl CicModel {
    /// Builds and validates a model.
    ///
    /// # Errors
    ///
    /// [`Error::Model`] when a body function is missing, its signature does
    /// not match the task's ports, channel endpoints are out of range, the
    /// channel topology is cyclic, or a channel moves zero tokens.
    pub fn new(unit: Unit, tasks: Vec<CicTask>, channels: Vec<CicChannel>) -> Result<Self> {
        let model = CicModel {
            unit,
            tasks,
            channels,
        };
        model.validate()?;
        Ok(model)
    }

    fn validate(&self) -> Result<()> {
        for ch in &self.channels {
            if ch.src >= self.tasks.len() || ch.dst >= self.tasks.len() {
                return Err(Error::Model(format!(
                    "channel `{}` references a nonexistent task",
                    ch.name
                )));
            }
            if ch.tokens == 0 {
                return Err(Error::Model(format!(
                    "channel `{}` moves zero tokens",
                    ch.name
                )));
            }
            if ch.src == ch.dst {
                return Err(Error::Model(format!(
                    "channel `{}` is a self-loop",
                    ch.name
                )));
            }
        }
        // Acyclic topology (the executor runs one iteration topologically).
        self.topo_order()?;
        for (ti, t) in self.tasks.iter().enumerate() {
            let f = self.unit.function(&t.body_fn).ok_or_else(|| {
                Error::Model(format!("task `{}` body `{}` missing", t.name, t.body_fn))
            })?;
            let inputs = self.inputs(ti).len();
            let outputs = self.outputs(ti).len();
            if f.params.len() != inputs + outputs {
                return Err(Error::Model(format!(
                    "task `{}` has {} ports but `{}` takes {} parameters",
                    t.name,
                    inputs + outputs,
                    t.body_fn,
                    f.params.len()
                )));
            }
            if f.params.iter().any(|p| !matches!(p.ty, Type::Array(_))) {
                return Err(Error::Model(format!(
                    "task `{}` body parameters must all be arrays",
                    t.name
                )));
            }
        }
        Ok(())
    }

    /// Input channels of task `t` (channel indices, in declaration order).
    pub fn inputs(&self, t: usize) -> Vec<usize> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.dst == t)
            .map(|(i, _)| i)
            .collect()
    }

    /// Output channels of task `t`.
    pub fn outputs(&self, t: usize) -> Vec<usize> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.src == t)
            .map(|(i, _)| i)
            .collect()
    }

    /// A topological order of the tasks.
    ///
    /// # Errors
    ///
    /// [`Error::Model`] if the channel topology is cyclic.
    pub(crate) fn topo_order(&self) -> Result<Vec<usize>> {
        let n = self.tasks.len();
        let mut indeg = vec![0usize; n];
        for c in &self.channels {
            indeg[c.dst] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&t) = queue.first() {
            queue.remove(0);
            order.push(t);
            for c in &self.channels {
                if c.src == t {
                    indeg[c.dst] -= 1;
                    if indeg[c.dst] == 0 {
                        queue.push(c.dst);
                    }
                }
            }
        }
        if order.len() != n {
            return Err(Error::Model("channel topology is cyclic".into()));
        }
        Ok(order)
    }
}

/// Builds a CIC model automatically from a CSDF graph — Figure 2's
/// *"automatic code generation"* front end (`KPN/UML/Dataflow Model →
/// Common Intermediate Code`). Every actor becomes a task whose generated
/// body copies (and tags) tokens from its inputs to its outputs; rates are
/// taken from the first phase.
///
/// # Errors
///
/// [`Error::Model`] if the generated model fails validation (cannot happen
/// for well-formed graphs; kept for safety).
pub fn from_dataflow(graph: &mpsoc_dataflow::Graph) -> Result<CicModel> {
    use std::fmt::Write as _;
    let mut src = String::new();
    let mut tasks = Vec::new();
    let mut channels = Vec::new();
    for (ci, ch) in graph.channels().iter().enumerate() {
        channels.push(CicChannel {
            name: format!("ch{ci}"),
            src: ch.src.0,
            dst: ch.dst.0,
            tokens: ch.prod.first().copied().unwrap_or(1).max(1) as usize,
        });
    }
    for (ai, actor) in graph.actors().iter().enumerate() {
        let ins: Vec<usize> = channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.dst == ai)
            .map(|(i, _)| i)
            .collect();
        let outs: Vec<usize> = channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.src == ai)
            .map(|(i, _)| i)
            .collect();
        let fn_name = format!("task_{}", actor.name);
        let mut params = Vec::new();
        for i in &ins {
            params.push(format!("int in{i}[]"));
        }
        for o in &outs {
            params.push(format!("int out{o}[]"));
        }
        let params = if params.is_empty() {
            "void".to_string()
        } else {
            params.join(", ")
        };
        let _ = writeln!(src, "void {fn_name}({params}) {{");
        // Body: out[k] = f(in[k]) elementwise; sources synthesise a ramp.
        for o in &outs {
            let n = channels[*o].tokens;
            if let Some(first_in) = ins.first() {
                let m = channels[*first_in].tokens;
                let _ = writeln!(
                    src,
                    "    for (k = 0; k < {n}; k = k + 1) {{ out{o}[k] = in{first_in}[k % {m}] + {ai}; }}"
                );
            } else {
                let _ = writeln!(
                    src,
                    "    for (k = 0; k < {n}; k = k + 1) {{ out{o}[k] = k * 7 + {ai}; }}"
                );
            }
        }
        src.push_str("}\n");
        tasks.push(CicTask {
            name: actor.name.clone(),
            body_fn: fn_name,
            period: match actor.kind {
                mpsoc_dataflow::ActorKind::Source { period }
                | mpsoc_dataflow::ActorKind::Sink { period } => Some(period),
                mpsoc_dataflow::ActorKind::Regular => None,
            },
            deadline: None,
            work: actor.wcet.iter().sum::<u64>().max(1),
        });
    }
    let unit = mpsoc_minic::parse(&src).map_err(|e| Error::Model(e.to_string()))?;
    CicModel::new(unit, tasks, channels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_minic::parse;

    fn two_task_model() -> CicModel {
        let unit = parse(
            "void produce(int out[]) { for (k = 0; k < 4; k = k + 1) { out[k] = k * k; } }\n\
             void consume(int in[], int res[]) { for (k = 0; k < 4; k = k + 1) { res[k] = in[k] + 1; } }\n\
             void drain(int in[]) { int x = in[0]; }",
        )
        .unwrap();
        CicModel::new(
            unit,
            vec![
                CicTask {
                    name: "prod".into(),
                    body_fn: "produce".into(),
                    period: Some(100),
                    deadline: None,
                    work: 50,
                },
                CicTask {
                    name: "cons".into(),
                    body_fn: "consume".into(),
                    period: None,
                    deadline: Some(500),
                    work: 80,
                },
                CicTask {
                    name: "sink".into(),
                    body_fn: "drain".into(),
                    period: None,
                    deadline: None,
                    work: 10,
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
    fn valid_model_builds() {
        let m = two_task_model();
        assert_eq!(m.inputs(1), vec![0]);
        assert_eq!(m.outputs(0), vec![0]);
        assert_eq!(m.topo_order().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn missing_body_rejected() {
        let unit = parse("void f(int a[]) { a[0] = 1; }").unwrap();
        let r = CicModel::new(
            unit,
            vec![CicTask {
                name: "t".into(),
                body_fn: "nope".into(),
                period: None,
                deadline: None,
                work: 1,
            }],
            vec![],
        );
        assert!(matches!(r, Err(Error::Model(_))));
    }

    #[test]
    fn signature_mismatch_rejected() {
        let unit = parse("void f(int a[], int b[]) { a[0] = b[0]; }").unwrap();
        // Task has zero ports but body takes two params.
        let r = CicModel::new(
            unit,
            vec![CicTask {
                name: "t".into(),
                body_fn: "f".into(),
                period: None,
                deadline: None,
                work: 1,
            }],
            vec![],
        );
        assert!(r.is_err());
    }

    #[test]
    fn scalar_params_rejected() {
        let unit = parse("void f(int x) { x = 1; }").unwrap();
        let r = CicModel::new(
            unit,
            vec![
                CicTask {
                    name: "a".into(),
                    body_fn: "f".into(),
                    period: None,
                    deadline: None,
                    work: 1,
                },
                CicTask {
                    name: "b".into(),
                    body_fn: "f".into(),
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
        assert!(r.is_err());
    }

    #[test]
    fn cyclic_topology_rejected() {
        let unit = parse("void f(int a[], int b[]) { b[0] = a[0]; }").unwrap();
        let t = |n: &str| CicTask {
            name: n.into(),
            body_fn: "f".into(),
            period: None,
            deadline: None,
            work: 1,
        };
        let r = CicModel::new(
            unit,
            vec![t("a"), t("b")],
            vec![
                CicChannel {
                    name: "c0".into(),
                    src: 0,
                    dst: 1,
                    tokens: 1,
                },
                CicChannel {
                    name: "c1".into(),
                    src: 1,
                    dst: 0,
                    tokens: 1,
                },
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn from_dataflow_generates_valid_model() {
        let mut g = mpsoc_dataflow::Graph::new();
        let s = g.add_actor(
            "src",
            vec![5],
            mpsoc_dataflow::ActorKind::Source { period: 100 },
        );
        let f = g.add_actor("fil", vec![20], mpsoc_dataflow::ActorKind::Regular);
        let k = g.add_actor(
            "snk",
            vec![5],
            mpsoc_dataflow::ActorKind::Sink { period: 100 },
        );
        g.add_channel(s, f, vec![2], vec![2], 0).unwrap();
        g.add_channel(f, k, vec![2], vec![2], 0).unwrap();
        let m = from_dataflow(&g).unwrap();
        assert_eq!(m.tasks.len(), 3);
        assert_eq!(m.channels.len(), 2);
        assert_eq!(m.tasks[0].period, Some(100));
        assert_eq!(m.channels[0].tokens, 2);
    }
}
