//! Execution and access trace history.
//!
//! Section VII: *"The hardware and software tracing capabilities address
//! another major problem of multi core software development — the ability
//! to keep the overview during debugging. A history of function execution
//! within the different processes, and their access to memories and
//! peripherals, is of great help to understand and identify the cause of a
//! defect."*
//!
//! [`TraceBuffer`] is a bounded ring of [`TraceEntry`]s recorded from
//! platform step events, with query helpers for the two histories the
//! paper names: per-core control flow and per-address access streams.
//!
//! ## History through a rewind
//!
//! A time-travel checkpoint stores the buffer's *position*, never its
//! contents: a rewind pops the entries recorded after the checkpoint and
//! deterministic replay records them again. After a rewind the buffer holds
//! what a forward-only run holds at that step, short only of older entries
//! the ring had already evicted while the run was further ahead. A rewind
//! behind every retained entry, or a jump to a checkpoint ahead of the
//! current position, restarts history there ([`TraceBuffer::dropped`] then
//! counts everything before it).

use mpsoc_obs::event::Event;
use mpsoc_obs::export::chrome_trace;
use mpsoc_obs::ring::Ring;
use mpsoc_platform::isa::Instr;
use mpsoc_platform::platform::{Access, AccessKind, StepKind};
use mpsoc_platform::{StepEvent, Time};

/// One recorded simulation step.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// Completion time of the step.
    pub at: Time,
    /// The executing core, if an instruction step.
    pub core: Option<usize>,
    /// Program counter of the executed instruction.
    pub pc: Option<u32>,
    /// The instruction.
    pub instr: Option<Instr>,
    /// Interrupt taken in this step, if any.
    pub irq: Option<u32>,
    /// Accesses performed during the step.
    pub accesses: Vec<Access>,
}

/// A bounded execution-history ring buffer, backed by the suite-wide
/// [`mpsoc_obs::ring::Ring`] so the debugger's history and the
/// observability layer share one eviction policy — and so a captured
/// history can be exported as a Chrome trace via [`TraceBuffer::to_events`]
/// / [`TraceBuffer::to_chrome_trace`].
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    entries: Ring<TraceEntry>,
    /// Entries recorded on the current timeline, retained or not.
    recorded: u64,
}

impl TraceBuffer {
    /// Creates a buffer keeping the most recent `capacity` steps.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be non-zero");
        TraceBuffer {
            entries: Ring::new(capacity),
            recorded: 0,
        }
    }

    /// Records a platform step event.
    pub fn record(&mut self, event: &StepEvent) {
        let (core, pc, instr, irq) = match event.kind {
            StepKind::Instr {
                core,
                pc,
                instr,
                irq_taken,
            } => (Some(core), Some(pc), Some(instr), irq_taken),
            _ => (None, None, None, None),
        };
        self.entries.push(TraceEntry {
            at: event.at,
            core,
            pc,
            instr,
            irq,
            accesses: event.accesses.clone(),
        });
        self.recorded += 1;
    }

    /// What a checkpoint stores and a rewind returns to: entries recorded.
    pub(crate) fn position(&self) -> u64 {
        self.recorded
    }

    /// Returns to a checkpointed [`position`](Self::position): entries
    /// recorded after it are popped; when they do not reach back that far,
    /// or it lies ahead, history restarts there.
    pub(crate) fn rewind_to(&mut self, position: u64) {
        while self.recorded > position && self.entries.pop_back().is_some() {
            self.recorded -= 1;
        }
        if self.recorded != position {
            self.entries.clear();
            self.recorded = position;
        }
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries of the current timeline no longer retained: evicted at
    /// capacity, or preceding the checkpoint history restarted at.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.entries.len() as u64
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Renders the retained history as structured [`Event`]s under category
    /// `"vpdebug"`: one `"instr"` instant per executed instruction (core as
    /// the track, pc as the argument), one `"irq"` instant per delivered
    /// interrupt and one `"read"`/`"write"` instant per memory access (word
    /// address as the argument). Timestamps are simulated nanoseconds.
    pub fn to_events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for e in self.entries.iter() {
            let ts = e.at.as_ps() / 1_000;
            let track = e.core.unwrap_or(0) as u32;
            if let Some(pc) = e.pc {
                out.push(Event::instant(ts, "instr", "vpdebug", track).with_arg("pc", pc as u64));
            }
            if let Some(irq) = e.irq {
                out.push(Event::instant(ts, "irq", "vpdebug", track).with_arg("irq", irq as u64));
            }
            for a in &e.accesses {
                let name = match a.kind {
                    AccessKind::Read => "read",
                    AccessKind::Write => "write",
                };
                out.push(
                    Event::instant(a.at.as_ps() / 1_000, name, "vpdebug", track)
                        .with_arg("addr", a.addr as u64),
                );
            }
        }
        out
    }

    /// The retained history as Chrome `trace_event` JSON (see
    /// [`mpsoc_obs::export::chrome_trace`]), loadable in Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(&self.to_events())
    }

    /// The control-flow history of one core: `(time, pc)` pairs.
    pub fn pc_history(&self, core: usize) -> Vec<(Time, u32)> {
        self.entries
            .iter()
            .filter(|e| e.core == Some(core))
            .filter_map(|e| e.pc.map(|pc| (e.at, pc)))
            .collect()
    }

    /// Every access touching word address `addr`, oldest first.
    pub fn accesses_to(&self, addr: u32) -> Vec<Access> {
        self.entries
            .iter()
            .flat_map(|e| e.accesses.iter())
            .filter(|a| a.addr == addr)
            .copied()
            .collect()
    }

    /// Interrupt deliveries observed: `(time, core, irq)`.
    pub fn irq_history(&self) -> Vec<(Time, usize, u32)> {
        self.entries
            .iter()
            .filter_map(|e| match (e.core, e.irq) {
                (Some(c), Some(i)) => Some((e.at, c, i)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_platform::isa::assemble;
    use mpsoc_platform::platform::PlatformBuilder;
    use mpsoc_platform::Frequency;

    fn traced_run(src: &str, cap: usize) -> TraceBuffer {
        let mut p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(256)
            .cache(None)
            .build()
            .unwrap();
        p.load_program(0, assemble(src).unwrap(), 0).unwrap();
        let mut buf = TraceBuffer::new(cap);
        loop {
            let ev = p.step().unwrap();
            if ev.is_idle() {
                break;
            }
            buf.record(&ev);
        }
        buf
    }

    #[test]
    fn pc_history_in_order() {
        let buf = traced_run("movi r1, 1\nmovi r2, 2\nhalt", 16);
        let pcs: Vec<u32> = buf.pc_history(0).into_iter().map(|(_, pc)| pc).collect();
        assert_eq!(pcs, vec![0, 1, 2]);
    }

    #[test]
    fn accesses_to_filters_address() {
        let buf = traced_run(
            "movi r1, 0x10\nmovi r2, 5\nst r2, r1, 0\nst r2, r1, 1\nld r3, r1, 0\nhalt",
            16,
        );
        let hits = buf.accesses_to(0x10);
        assert_eq!(hits.len(), 2); // one write, one read
        assert_eq!(buf.accesses_to(0x11).len(), 1);
        assert!(buf.accesses_to(0x99).is_empty());
    }

    #[test]
    fn ring_drops_oldest() {
        let buf = traced_run("movi r1, 1\nmovi r2, 2\nmovi r3, 3\nhalt", 2);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 2);
        let pcs: Vec<u32> = buf.pc_history(0).into_iter().map(|(_, pc)| pc).collect();
        assert_eq!(pcs, vec![2, 3]); // only the most recent survive
    }

    fn pcs(buf: &TraceBuffer) -> Vec<u32> {
        buf.entries().filter_map(|e| e.pc).collect()
    }

    #[test]
    fn rewind_pops_what_was_recorded_after_the_position() {
        let src = "movi r1, 1\nmovi r2, 2\nmovi r3, 3\nmovi r4, 4\nhalt";
        let full = traced_run(src, 16);
        let mut buf = full.clone();
        assert_eq!(buf.position(), 5);
        buf.rewind_to(2);
        assert_eq!((buf.position(), buf.dropped()), (2, 0));
        assert_eq!(pcs(&buf), vec![0, 1]);
        assert!(buf.entries().eq(full.entries().take(2)));
    }

    #[test]
    fn rewind_does_not_bring_evicted_entries_back() {
        // Capacity 3 of 5 recorded: pcs 2,3,4 retained. Back to position 4:
        // a forward-only run would hold 1,2,3 there; pc 1 stays evicted.
        let mut buf = traced_run("movi r1, 1\nmovi r2, 2\nmovi r3, 3\nmovi r4, 4\nhalt", 3);
        buf.rewind_to(4);
        assert_eq!(pcs(&buf), vec![2, 3]);
        assert_eq!((buf.position(), buf.dropped()), (4, 2));
    }

    #[test]
    fn rewind_past_the_window_or_ahead_restarts_history() {
        let mut buf = traced_run("movi r1, 1\nmovi r2, 2\nmovi r3, 3\nmovi r4, 4\nhalt", 2);
        buf.rewind_to(1); // older than every retained entry (pcs 3, 4)
        assert!(buf.is_empty());
        assert_eq!((buf.position(), buf.dropped()), (1, 1));
        buf.rewind_to(9); // a checkpoint ahead of the current position
        assert!(buf.is_empty());
        assert_eq!((buf.position(), buf.dropped()), (9, 9));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = TraceBuffer::new(0);
    }

    #[test]
    fn exports_history_as_chrome_trace() {
        let buf = traced_run("movi r1, 0x10\nmovi r2, 5\nst r2, r1, 0\nhalt", 16);
        let evs = buf.to_events();
        assert!(evs.iter().all(|e| e.cat == "vpdebug"));
        assert_eq!(evs.iter().filter(|e| e.name == "instr").count(), 4);
        assert_eq!(evs.iter().filter(|e| e.name == "write").count(), 1);
        let json = buf.to_chrome_trace();
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"cat\":\"vpdebug\""));
        assert!(json.contains("\"name\":\"write\""));
    }
}
