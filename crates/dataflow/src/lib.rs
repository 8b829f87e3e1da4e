//! # mpsoc-dataflow — time-triggered vs. data-driven real-time streaming
//!
//! NXP's Hijdra position in *"Programming MPSoC Platforms: Road Works
//! Ahead!"* (DATE 2009, Section III) compares two disciplines for real-time
//! stream processing on predictable multiprocessors (car radios, mobile
//! phones):
//!
//! * **Time-triggered** ([`ttrigger`]): tasks start at instants fixed by a
//!   design-time periodic schedule. If a task overruns its (unreliable)
//!   WCET estimate, consumers read stale data and producers overwrite
//!   unread buffers — *data corruption inside the application*.
//! * **Data-driven** ([`selftimed`]): task starts are triggered by data
//!   arrival (sources/sinks by timers); bounded FIFOs exert back-pressure.
//!   Overruns surface as *timing* deviation only — data is never corrupted.
//!
//! The paper concludes the data-driven approach *"puts less constraints on
//! the application software"*; experiment E3 reproduces that comparison,
//! and E4 reproduces the buffer-capacity computation of the cited RTAS'07
//! work ([`buffer`]).
//!
//! ## Quickstart
//!
//! ```
//! use mpsoc_dataflow::graph::{Graph, ActorKind};
//! use mpsoc_dataflow::buffer::minimal_capacities;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Graph::new();
//! let src = g.add_actor("adc", vec![5], ActorKind::Source { period: 100 });
//! // The block filter consumes a window of 2 samples per firing.
//! let fir = g.add_actor("fir", vec![90], ActorKind::Regular);
//! let dac = g.add_actor("dac", vec![5], ActorKind::Sink { period: 200 });
//! g.add_channel(src, fir, vec![1], vec![2], 0)?;
//! g.add_channel(fir, dac, vec![1], vec![1], 0)?;
//! // The windowed filter needs a 2-deep buffer to keep the timers wait-free.
//! let caps = minimal_capacities(&g, 20)?;
//! assert_eq!(caps[0], 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod error;
pub mod graph;
pub mod selftimed;
pub mod sizing;
pub mod ttrigger;

pub use crate::error::{Error, Result};
pub use crate::graph::{Actor, ActorKind, Channel, Graph};
pub use crate::selftimed::{
    run_self_timed, run_self_timed_observed, SelfTimedConfig, VaryingTimes, WcetTimes,
};
pub use crate::sizing::{minimal_capacities_sweep, profile_actor_wcets};
pub use crate::ttrigger::time_triggered_experiment;
