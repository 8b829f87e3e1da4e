//! (Cyclo-static) dataflow graphs.
//!
//! NXP's Hijdra position (Section III of the paper) is formulated over
//! stream-processing applications modelled as dataflow graphs: tasks
//! (actors) connected by FIFO channels, with *"data dependent consumption
//! and production behavior"* captured by cyclo-static rate sequences. This
//! module provides the graph structure, rate-consistency analysis
//! (repetition vectors), and structural queries shared by the
//! [self-timed](crate::selftimed) and [time-triggered](crate::ttrigger)
//! executors.

use crate::error::{Error, Result};

/// Identifies an actor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub usize);

/// Identifies a channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub usize);

/// How an actor is activated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActorKind {
    /// Fires as soon as input tokens (and output space) allow — the
    /// data-driven rule.
    Regular,
    /// A periodic source: firing `k` may not start before `k * period`
    /// (time units); it is the timer-triggered entry of the graph.
    Source {
        /// Activation period.
        period: u64,
    },
    /// A periodic sink: same timer gating as a source, at the output side.
    Sink {
        /// Activation period.
        period: u64,
    },
}

/// One actor: a cyclo-static sequence of phases, each with a worst-case
/// execution time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Actor {
    /// Name for diagnostics.
    pub name: String,
    /// Worst-case execution time of each phase (cyclically repeated).
    pub wcet: Vec<u64>,
    /// Activation discipline.
    pub kind: ActorKind,
}

impl Actor {
    /// Number of phases in one cyclo-static iteration.
    pub fn phases(&self) -> usize {
        self.wcet.len()
    }
}

/// A FIFO channel with cyclo-static production/consumption rates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Channel {
    /// Producing actor.
    pub src: ActorId,
    /// Consuming actor.
    pub dst: ActorId,
    /// Tokens produced by each phase of `src` (length = src phase count).
    pub prod: Vec<u32>,
    /// Tokens consumed by each phase of `dst` (length = dst phase count).
    pub cons: Vec<u32>,
    /// Initial tokens (delays).
    pub initial: u32,
}

impl Channel {
    /// Tokens produced per full `src` iteration.
    pub(crate) fn prod_per_iter(&self) -> u64 {
        self.prod.iter().map(|&x| x as u64).sum()
    }

    /// Tokens consumed per full `dst` iteration.
    pub(crate) fn cons_per_iter(&self) -> u64 {
        self.cons.iter().map(|&x| x as u64).sum()
    }
}

/// A cyclo-static dataflow graph.
///
/// # Examples
///
/// ```
/// use mpsoc_dataflow::graph::{Graph, ActorKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new();
/// let src = g.add_actor("src", vec![10], ActorKind::Source { period: 100 });
/// let f = g.add_actor("filter", vec![40], ActorKind::Regular);
/// let snk = g.add_actor("snk", vec![5], ActorKind::Sink { period: 100 });
/// g.add_channel(src, f, vec![1], vec![1], 0)?;
/// g.add_channel(f, snk, vec![1], vec![1], 0)?;
/// let q = g.repetition_vector()?;
/// assert_eq!(q, vec![1, 1, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Graph {
    actors: Vec<Actor>,
    channels: Vec<Channel>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an actor with per-phase worst-case execution times.
    ///
    /// # Panics
    ///
    /// Panics if `wcet` is empty.
    pub fn add_actor(
        &mut self,
        name: impl Into<String>,
        wcet: Vec<u64>,
        kind: ActorKind,
    ) -> ActorId {
        assert!(!wcet.is_empty(), "actor needs at least one phase");
        self.actors.push(Actor {
            name: name.into(),
            wcet,
            kind,
        });
        ActorId(self.actors.len() - 1)
    }

    /// Adds a channel from `src` to `dst` with cyclo-static rates and
    /// `initial` tokens.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] for bad actor ids, [`Error::Config`] when rate
    /// vector lengths do not match the actors' phase counts or all rates
    /// are zero.
    pub fn add_channel(
        &mut self,
        src: ActorId,
        dst: ActorId,
        prod: Vec<u32>,
        cons: Vec<u32>,
        initial: u32,
    ) -> Result<ChannelId> {
        let sa = self
            .actors
            .get(src.0)
            .ok_or_else(|| Error::NotFound(format!("actor {}", src.0)))?;
        let da = self
            .actors
            .get(dst.0)
            .ok_or_else(|| Error::NotFound(format!("actor {}", dst.0)))?;
        if prod.len() != sa.phases() {
            return Err(Error::Config(format!(
                "prod rates ({}) must match `{}` phases ({})",
                prod.len(),
                sa.name,
                sa.phases()
            )));
        }
        if cons.len() != da.phases() {
            return Err(Error::Config(format!(
                "cons rates ({}) must match `{}` phases ({})",
                cons.len(),
                da.name,
                da.phases()
            )));
        }
        let ch = Channel {
            src,
            dst,
            prod,
            cons,
            initial,
        };
        if ch.prod_per_iter() == 0 || ch.cons_per_iter() == 0 {
            return Err(Error::Config(
                "channel must move at least one token per iteration".into(),
            ));
        }
        self.channels.push(ch);
        Ok(ChannelId(self.channels.len() - 1))
    }

    /// The actors, in id order.
    pub fn actors(&self) -> &[Actor] {
        &self.actors
    }

    /// The channels, in id order.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Actor lookup.
    pub fn actor(&self, id: ActorId) -> Option<&Actor> {
        self.actors.get(id.0)
    }

    /// Replaces an actor's per-phase WCETs (used by profile-based
    /// re-costing). The phase count is part of the graph's rate signature
    /// and must be preserved.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] for an unknown actor; [`Error::Config`] if
    /// `wcet` does not have exactly the actor's phase count.
    pub(crate) fn set_actor_wcet(&mut self, id: ActorId, wcet: &[u64]) -> Result<()> {
        let actor = self
            .actors
            .get_mut(id.0)
            .ok_or_else(|| Error::NotFound(format!("actor {}", id.0)))?;
        if wcet.len() != actor.wcet.len() {
            return Err(Error::Config(format!(
                "wcet phase count {} does not match actor `{}`'s {}",
                wcet.len(),
                actor.name,
                actor.wcet.len()
            )));
        }
        actor.wcet = wcet.to_vec();
        Ok(())
    }

    /// Channel lookup.
    pub fn channel(&self, id: ChannelId) -> Option<&Channel> {
        self.channels.get(id.0)
    }

    /// Input channels of `a`.
    pub fn inputs(&self, a: ActorId) -> Vec<ChannelId> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.dst == a)
            .map(|(i, _)| ChannelId(i))
            .collect()
    }

    /// Output channels of `a`.
    pub fn outputs(&self, a: ActorId) -> Vec<ChannelId> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.src == a)
            .map(|(i, _)| ChannelId(i))
            .collect()
    }

    /// Computes the repetition vector: the smallest positive actor
    /// iteration counts `q` such that every channel is in balance
    /// (`q[src] * prod_per_iter == q[dst] * cons_per_iter`).
    ///
    /// # Errors
    ///
    /// [`Error::Inconsistent`] if no such vector exists;
    /// [`Error::Config`] for an empty graph. Disconnected graphs are
    /// solved per component.
    pub fn repetition_vector(&self) -> Result<Vec<u64>> {
        let n = self.actors.len();
        if n == 0 {
            return Err(Error::Config("empty graph".into()));
        }
        // Fractions q[i] = num/den, propagated over channels.
        let mut q: Vec<Option<(i128, i128)>> = vec![None; n];
        for start in 0..n {
            if q[start].is_some() {
                continue;
            }
            q[start] = Some((1, 1));
            // BFS over channels touching known actors.
            let mut changed = true;
            while changed {
                changed = false;
                for (ci, c) in self.channels.iter().enumerate() {
                    let (s, d) = (c.src.0, c.dst.0);
                    let p = c.prod_per_iter() as i128;
                    let co = c.cons_per_iter() as i128;
                    match (q[s], q[d]) {
                        (Some((sn, sd)), None) => {
                            // q_d = q_s * p / c
                            q[d] = Some(reduce(sn * p, sd * co));
                            changed = true;
                        }
                        (None, Some((dn, dd))) => {
                            q[s] = Some(reduce(dn * co, dd * p));
                            changed = true;
                        }
                        (Some((sn, sd)), Some((dn, dd))) => {
                            // Check balance: sn/sd * p == dn/dd * c
                            if sn * p * dd != dn * co * sd {
                                return Err(Error::Inconsistent { channel: ci });
                            }
                        }
                        (None, None) => {}
                    }
                }
            }
        }
        // Scale all fractions to the smallest integer vector.
        let dens: Vec<i128> = q.iter().map(|f| f.expect("all solved").1).collect();
        let l = dens.iter().copied().fold(1i128, lcm);
        let mut ints: Vec<i128> = q
            .iter()
            .map(|f| {
                let (num, den) = f.expect("all solved");
                num * (l / den)
            })
            .collect();
        let g = ints.iter().copied().fold(0i128, gcd);
        if g > 1 {
            for v in &mut ints {
                *v /= g;
            }
        }
        Ok(ints.into_iter().map(|v| v as u64).collect())
    }

    /// Total firings (phase executions) of each actor in one graph
    /// iteration: `q[i] * phases(i)`.
    ///
    /// # Errors
    ///
    /// Propagates [`repetition_vector`](Graph::repetition_vector) errors.
    pub(crate) fn firings_per_iteration(&self) -> Result<Vec<u64>> {
        let q = self.repetition_vector()?;
        Ok(q.iter()
            .zip(&self.actors)
            .map(|(&qi, a)| qi * a.phases() as u64)
            .collect())
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        0
    } else {
        a / gcd(a, b) * b
    }
}

fn reduce(num: i128, den: i128) -> (i128, i128) {
    let g = gcd(num, den).max(1);
    (num / g, den / g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(rates: &[(u32, u32)]) -> Graph {
        let mut g = Graph::new();
        let mut prev = g.add_actor("a0", vec![1], ActorKind::Regular);
        for (i, &(p, c)) in rates.iter().enumerate() {
            let next = g.add_actor(format!("a{}", i + 1), vec![1], ActorKind::Regular);
            g.add_channel(prev, next, vec![p], vec![c], 0).unwrap();
            prev = next;
        }
        g
    }

    #[test]
    fn uniform_chain_has_unit_repetition() {
        let g = chain(&[(1, 1), (1, 1)]);
        assert_eq!(g.repetition_vector().unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn multirate_chain_scales() {
        // a -2:3-> b -1:2-> c  =>  q = [3, 2, 1]
        let g = chain(&[(2, 3), (1, 2)]);
        assert_eq!(g.repetition_vector().unwrap(), vec![3, 2, 1]);
    }

    #[test]
    fn inconsistent_cycle_detected() {
        let mut g = Graph::new();
        let a = g.add_actor("a", vec![1], ActorKind::Regular);
        let b = g.add_actor("b", vec![1], ActorKind::Regular);
        g.add_channel(a, b, vec![2], vec![1], 0).unwrap();
        g.add_channel(b, a, vec![2], vec![1], 0).unwrap();
        assert!(matches!(
            g.repetition_vector(),
            Err(Error::Inconsistent { .. })
        ));
    }

    #[test]
    fn consistent_cycle_ok() {
        let mut g = Graph::new();
        let a = g.add_actor("a", vec![1], ActorKind::Regular);
        let b = g.add_actor("b", vec![1], ActorKind::Regular);
        g.add_channel(a, b, vec![1], vec![1], 0).unwrap();
        g.add_channel(b, a, vec![1], vec![1], 1).unwrap();
        assert_eq!(g.repetition_vector().unwrap(), vec![1, 1]);
    }

    #[test]
    fn cyclo_static_rates_aggregate() {
        let mut g = Graph::new();
        // b consumes (1, 2) over two phases = 3 per iteration.
        let a = g.add_actor("a", vec![5], ActorKind::Regular);
        let b = g.add_actor("b", vec![2, 4], ActorKind::Regular);
        g.add_channel(a, b, vec![3], vec![1, 2], 0).unwrap();
        assert_eq!(g.repetition_vector().unwrap(), vec![1, 1]);
        assert_eq!(g.firings_per_iteration().unwrap(), vec![1, 2]);
    }

    #[test]
    fn rate_length_validated() {
        let mut g = Graph::new();
        let a = g.add_actor("a", vec![1, 2], ActorKind::Regular);
        let b = g.add_actor("b", vec![1], ActorKind::Regular);
        assert!(g.add_channel(a, b, vec![1], vec![1], 0).is_err());
        assert!(g.add_channel(a, b, vec![1, 1], vec![0], 0).is_err());
    }

    #[test]
    fn io_queries() {
        let g = chain(&[(1, 1), (1, 1)]);
        assert_eq!(g.inputs(ActorId(1)).len(), 1);
        assert_eq!(g.outputs(ActorId(1)).len(), 1);
        assert_eq!(g.inputs(ActorId(0)).len(), 0);
    }

    #[test]
    fn disconnected_components_solved_independently() {
        let mut g = chain(&[(1, 1)]);
        g.add_actor("lone", vec![7], ActorKind::Regular);
        assert_eq!(g.repetition_vector().unwrap(), vec![1, 1, 1]);
    }
}
