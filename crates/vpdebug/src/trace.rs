//! Execution and access trace history.
//!
//! Section VII: *"The hardware and software tracing capabilities address
//! another major problem of multi core software development — the ability
//! to keep the overview during debugging. A history of function execution
//! within the different processes, and their access to memories and
//! peripherals, is of great help to understand and identify the cause of a
//! defect."*
//!
//! [`TraceBuffer`] keeps the most recent steps recorded from platform step
//! events, each with all of its accesses: the per-core control flow is in
//! its [`TraceBuffer::entries`], and [`TraceBuffer::accesses_to`] gives an
//! address's access stream, where E9 finds the race's lost updates.
//! Recording a step copies it into two flat rings and allocates
//! nothing; [`TraceEntry`] is the owned form [`TraceBuffer::entries`]
//! builds when asked.
//!
//! ## Chrome-trace tracks
//!
//! [`TraceBuffer::to_events`] draws a core's instructions, interrupts and
//! accesses on track *core id*, and the accesses of the DMA engine at
//! peripheral page *p* on track `1000 + p`: a burst that completes while
//! its core runs on — or after it halted — is the engine's, not core 0's.
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
use mpsoc_platform::isa::Instr;
use mpsoc_platform::platform::{Access, AccessKind, Originator, StepKind};
use mpsoc_platform::{StepEvent, Time};

/// First Chrome-trace track of the DMA engines (see the module doc).
const DMA_TRACK_BASE: u32 = 1000;

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

/// What an instruction step executed.
#[derive(Clone, Copy, Debug)]
struct InstrRec {
    core: usize,
    pc: u32,
    instr: Instr,
    irq: Option<u32>,
}

/// One step as the ring stores it; its accesses are the next `accesses`
/// values of the access ring.
#[derive(Clone, Copy, Debug)]
struct StepRec {
    at: Time,
    instr: Option<InstrRec>,
    accesses: usize,
}

/// A queue of `Copy` values as a ring over one flat buffer: the `len`
/// values from `head` on, oldest first. The buffer grows, to the next
/// multiple of the pusher's `block`, only when a push finds it full.
#[derive(Clone, Debug)]
struct FlatRing<T> {
    buf: Vec<T>,
    head: usize,
    len: usize,
}

impl<T: Copy> FlatRing<T> {
    const EMPTY: Self = FlatRing {
        buf: Vec::new(),
        head: 0,
        len: 0,
    };

    /// `i` brought back into the buffer, for `i` below twice its size.
    fn wrap(&self, i: usize) -> usize {
        if i >= self.buf.len() {
            i - self.buf.len()
        } else {
            i
        }
    }

    /// The `n` queued values from the `skip`th oldest on, oldest first,
    /// split where the ring wraps.
    fn range(&self, skip: usize, n: usize) -> (&[T], &[T]) {
        let from = self.wrap(self.head + skip);
        let first = n.min(self.buf.len() - from);
        (&self.buf[from..from + first], &self.buf[..n - first])
    }

    /// Every queued value, oldest first.
    fn iter(&self) -> impl Iterator<Item = &T> {
        let (a, b) = self.range(0, self.len);
        a.iter().chain(b)
    }

    /// Makes room for `need` values (rare: the ring stops growing once it
    /// fits the retained history): straightens the ring, then lengthens it
    /// with copies of `any`.
    #[cold]
    fn grow(&mut self, need: usize, any: T, block: usize) {
        self.buf.rotate_left(self.head);
        self.head = 0;
        let size = need.next_multiple_of(block);
        self.buf.reserve_exact(size - self.buf.len());
        self.buf.resize(size, any);
    }

    /// Queues `value` behind the newest one.
    fn push(&mut self, value: T, block: usize) {
        if self.len == self.buf.len() {
            self.grow(self.len + 1, value, block);
        }
        let tail = self.wrap(self.head + self.len);
        self.buf[tail] = value;
        self.len += 1;
    }

    /// Queues `src` behind the newest value: at most two
    /// `copy_from_slice`s, split where the ring wraps.
    fn extend(&mut self, src: &[T], block: usize) {
        let Some(&any) = src.first() else { return };
        let need = self.len + src.len();
        if need > self.buf.len() {
            self.grow(need, any, block);
        }
        let tail = self.wrap(self.head + self.len);
        let first = src.len().min(self.buf.len() - tail);
        self.buf[tail..tail + first].copy_from_slice(&src[..first]);
        self.buf[..src.len() - first].copy_from_slice(&src[first..]);
        self.len = need;
    }

    /// Releases the `n` oldest values.
    fn release_oldest(&mut self, n: usize) {
        self.head = self.wrap(self.head + n);
        self.len -= n;
    }
}

/// A bounded execution history: the last `capacity` steps with all their
/// accesses, exportable as a Chrome trace via [`TraceBuffer::to_events`] /
/// [`TraceBuffer::to_chrome_trace`].
///
/// Two flat rings: one of `capacity` fixed-size step records, one of the
/// accesses those steps performed, in the same order, which grows by
/// `capacity` accesses at a time (few and large reallocations: growing by
/// less fragments the heap of a process that opens session after session).
/// A step's accesses are found by count, so evicting the oldest step or
/// rewinding over the newest ones releases theirs by moving an index.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    steps: FlatRing<StepRec>,
    accesses: FlatRing<Access>,
    /// Steps retained, and the block both rings grow by.
    capacity: usize,
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
            steps: FlatRing::EMPTY,
            accesses: FlatRing::EMPTY,
            capacity,
            recorded: 0,
        }
    }

    /// Records a platform step event.
    pub fn record(&mut self, event: &StepEvent) {
        if self.steps.len == self.capacity {
            // The oldest step goes, and the oldest accesses are its.
            let oldest = self.steps.buf[self.steps.head].accesses;
            self.accesses.release_oldest(oldest);
            self.steps.release_oldest(1);
        }
        self.accesses.extend(&event.accesses, self.capacity);
        let instr = match event.kind {
            StepKind::Instr {
                core,
                pc,
                instr,
                irq_taken: irq,
            } => Some(InstrRec {
                core,
                pc,
                instr,
                irq,
            }),
            _ => None,
        };
        let step = StepRec {
            at: event.at,
            instr,
            accesses: event.accesses.len(),
        };
        self.steps.push(step, self.capacity);
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
        match self.recorded.checked_sub(position) {
            Some(back) if back <= self.steps.len as u64 => {
                let keep = self.steps.len - back as usize;
                let popped = self.steps.iter().skip(keep);
                self.accesses.len -= popped.map(|rec| rec.accesses).sum::<usize>();
                self.steps.len = keep;
            }
            _ => (self.steps.len, self.accesses.len) = (0, 0),
        }
        self.recorded = position;
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.steps.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.len == 0
    }

    /// Entries of the current timeline no longer retained: evicted at
    /// capacity, or preceding the checkpoint history restarted at.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.steps.len as u64
    }

    /// The retained steps, oldest first, each with its accesses (split
    /// where the access ring wraps).
    fn steps_with_accesses(&self) -> impl Iterator<Item = (&StepRec, (&[Access], &[Access]))> {
        let mut seen = 0;
        self.steps.iter().map(move |rec| {
            let theirs = self.accesses.range(seen, rec.accesses);
            seen += rec.accesses;
            (rec, theirs)
        })
    }

    /// All retained entries, oldest first, each built on demand.
    pub fn entries(&self) -> impl Iterator<Item = TraceEntry> + '_ {
        self.steps_with_accesses().map(|(rec, (a, b))| TraceEntry {
            at: rec.at,
            core: rec.instr.map(|i| i.core),
            pc: rec.instr.map(|i| i.pc),
            instr: rec.instr.map(|i| i.instr),
            irq: rec.instr.and_then(|i| i.irq),
            accesses: [a, b].concat(),
        })
    }

    /// Renders the retained history as structured [`Event`]s under category
    /// `"vpdebug"`: one `"instr"` instant per executed instruction (core as
    /// the track, pc as the argument), one `"irq"` instant per delivered
    /// interrupt and one `"read"`/`"write"` instant per memory access (its
    /// originator as the track — see the module doc —, word address as the
    /// argument). Timestamps are simulated nanoseconds.
    pub fn to_events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for (rec, (a, b)) in self.steps_with_accesses() {
            let ts = rec.at.as_ps() / 1_000;
            if let Some(i) = rec.instr {
                let track = i.core as u32;
                out.push(Event::instant(ts, "instr", "vpdebug", track).with_arg("pc", i.pc as u64));
                if let Some(irq) = i.irq {
                    out.push(
                        Event::instant(ts, "irq", "vpdebug", track).with_arg("irq", irq as u64),
                    );
                }
            }
            for access in a.iter().chain(b) {
                let name = match access.kind {
                    AccessKind::Read => "read",
                    AccessKind::Write => "write",
                };
                let track = match access.originator {
                    Originator::Core(core) => core as u32,
                    Originator::Dma(page) => DMA_TRACK_BASE + page as u32,
                };
                out.push(
                    Event::instant(access.at.as_ps() / 1_000, name, "vpdebug", track)
                        .with_arg("addr", access.addr as u64),
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

    /// Every access touching word address `addr`, oldest first.
    pub fn accesses_to(&self, addr: u32) -> Vec<Access> {
        let hits = self.accesses.iter().filter(|a| a.addr == addr);
        hits.copied().collect()
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

    fn pcs(buf: &TraceBuffer) -> Vec<u32> {
        buf.entries().filter_map(|e| e.pc).collect()
    }

    #[test]
    fn pc_history_in_order() {
        let buf = traced_run("movi r1, 1\nmovi r2, 2\nhalt", 16);
        assert_eq!(pcs(&buf), vec![0, 1, 2]);
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
        assert_eq!(pcs(&buf), vec![2, 3]); // only the most recent survive
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

    #[test]
    fn dma_traffic_is_drawn_on_the_engine_not_on_core_0() {
        use mpsoc_platform::mem::periph_addr;
        use mpsoc_platform::periph::dma_reg;
        // Core 0 kicks an 8-word transfer and halts at once; the burst
        // completes long after.
        let mut p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(1024)
            .cache(None)
            .build()
            .unwrap();
        let page = p.add_dma("dma0");
        let reg = |r| periph_addr(page, r);
        let prog = assemble(&format!(
            "movi r1, {}\nmovi r2, 100\nst r2, r1, 0\n\
             movi r1, {}\nmovi r2, 300\nst r2, r1, 0\n\
             movi r1, {}\nmovi r2, 8\nst r2, r1, 0\n\
             movi r1, {}\nmovi r2, 1\nst r2, r1, 0\n\
             halt",
            reg(dma_reg::SRC),
            reg(dma_reg::DST),
            reg(dma_reg::LEN),
            reg(dma_reg::CTRL),
        ))
        .unwrap();
        p.load_program(0, prog, 0).unwrap();
        let mut buf = TraceBuffer::new(64);
        let mut halted_at = None;
        loop {
            let ev = p.step().unwrap();
            if ev.is_idle() {
                break;
            }
            if matches!(
                ev.kind,
                StepKind::Instr {
                    instr: Instr::Halt,
                    ..
                }
            ) {
                halted_at = Some(ev.at.as_ps() / 1_000);
            }
            buf.record(&ev);
        }
        let halted_at = halted_at.expect("core 0 halts");
        let evs = buf.to_events();
        let traffic = |e: &&Event| e.name == "read" || e.name == "write";
        let late: Vec<&Event> = (evs.iter().filter(traffic))
            .filter(|e| e.ts > halted_at)
            .collect();
        assert_eq!(late.len(), 16, "the burst completes after the halt");
        let engine = DMA_TRACK_BASE + page as u32;
        assert!(late.iter().all(|e| e.track == engine), "{late:?}");
        let on_engine = evs.iter().filter(|e| e.track == engine);
        assert_eq!(on_engine.count(), 16, "and nothing else is drawn there");
        // Core 0's own four stores stay on core 0.
        let own = evs.iter().filter(traffic).filter(|e| e.track == 0);
        assert_eq!(own.count(), 4);
    }

    /// The buffer this one replaced — a deque of owned entries, a `Vec` of
    /// accesses in each — kept as the oracle of the differential test.
    mod reference {
        use super::super::{Access, StepEvent, StepKind, TraceEntry};
        use std::collections::VecDeque;

        pub struct TraceBuffer {
            entries: VecDeque<TraceEntry>,
            capacity: usize,
            recorded: u64,
        }

        impl TraceBuffer {
            pub fn new(capacity: usize) -> Self {
                TraceBuffer {
                    entries: VecDeque::new(),
                    capacity,
                    recorded: 0,
                }
            }

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
                if self.entries.len() == self.capacity {
                    self.entries.pop_front();
                }
                self.entries.push_back(TraceEntry {
                    at: event.at,
                    core,
                    pc,
                    instr,
                    irq,
                    accesses: event.accesses.clone(),
                });
                self.recorded += 1;
            }

            pub fn position(&self) -> u64 {
                self.recorded
            }

            pub fn rewind_to(&mut self, position: u64) {
                while self.recorded > position && self.entries.pop_back().is_some() {
                    self.recorded -= 1;
                }
                if self.recorded != position {
                    self.entries.clear();
                    self.recorded = position;
                }
            }

            pub fn len(&self) -> usize {
                self.entries.len()
            }

            pub fn dropped(&self) -> u64 {
                self.recorded - self.entries.len() as u64
            }

            pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
                self.entries.iter()
            }

            pub fn accesses_to(&self, addr: u32) -> Vec<Access> {
                self.entries
                    .iter()
                    .flat_map(|e| e.accesses.iter())
                    .filter(|a| a.addr == addr)
                    .copied()
                    .collect()
            }
        }
    }

    /// Events of car_radio (DMA bursts of 64 and 96 accesses, timer and
    /// mailbox IRQs), the race and jpeg, one after the other, with one
    /// synthetic burst of 2 500 accesses and more in the middle.
    fn recorded_stream() -> Vec<StepEvent> {
        let mut stream = Vec::new();
        for (name, steps) in [("car_radio", 16_000), ("race", 4_000), ("jpeg", 6_000)] {
            let mut p = mpsoc_apps::testbed::by_name(name).unwrap();
            for _ in 0..steps {
                let ev = p.step().unwrap();
                if ev.is_idle() {
                    break;
                }
                stream.push(ev);
            }
        }
        let burst = stream.iter().position(|ev| ev.accesses.len() >= 64);
        let mut giant = stream[burst.expect("car_radio completes a DMA burst")].clone();
        while giant.accesses.len() < 2_500 {
            giant.accesses.extend_from_within(..);
        }
        stream.insert(9_000, giant);
        stream
    }

    #[test]
    fn flat_rings_agree_with_the_buffer_of_owned_entries() {
        use mpsoc_obs::rng::XorShift64Star;
        let stream = recorded_stream();
        assert!(stream.iter().any(|ev| matches!(
            ev.kind,
            StepKind::Instr {
                irq_taken: Some(_),
                ..
            }
        )));
        // Addresses the streams touch often: car_radio's DMA windows, the
        // race counter, a jpeg block word — and one nobody touches.
        let hot: Vec<u32> = {
            let mut seen: Vec<u32> = (stream.iter().flat_map(|ev| &ev.accesses))
                .map(|a| a.addr)
                .collect();
            seen.sort_unstable();
            seen.dedup();
            let picks = [0, seen.len() / 3, seen.len() / 2, seen.len() - 1];
            picks
                .iter()
                .map(|&i| seen[i])
                .chain([0x7fff_0000])
                .collect()
        };
        for capacity in [1, 2, 3, 64, 4096] {
            let mut rng = XorShift64Star::new(0x7ACE ^ capacity as u64);
            let mut flat = TraceBuffer::new(capacity);
            let mut owned = reference::TraceBuffer::new(capacity);
            let (mut evictions, mut accesses_wrapped, mut outweighed) = (0, false, false);
            let (mut inside, mut behind, mut ahead) = (0, 0, 0);
            let mut next = 0;
            while next < stream.len() {
                if rng.chance_pct(if capacity < 64 { 2 } else { 25 }) {
                    // Back into the window (its oldest edge included), just
                    // behind it, or to a position not reached yet.
                    let (at, len) = (flat.position(), flat.len() as u64);
                    let to = match rng.u64_in(0, 9) {
                        0 => {
                            behind += 1;
                            (at - len).saturating_sub(rng.u64_in(1, 3))
                        }
                        1 => {
                            ahead += 1;
                            at + rng.u64_in(1, 5000)
                        }
                        _ => {
                            inside += 1;
                            at - rng.u64_in(0, len.min(300))
                        }
                    };
                    flat.rewind_to(to);
                    owned.rewind_to(to);
                } else {
                    let batch = rng.usize_in(1, capacity.min(400)).min(stream.len() - next);
                    for ev in &stream[next..next + batch] {
                        evictions += usize::from(flat.len() == capacity);
                        flat.record(ev);
                        owned.record(ev);
                        let ring = &flat.accesses;
                        outweighed |= ev.accesses.len() > 1 && 2 * ev.accesses.len() > ring.len;
                        accesses_wrapped |= ring.head + ring.len > ring.buf.len();
                    }
                    next += batch;
                }
                let what = format!("capacity {capacity}, {next} of the stream consumed");
                assert!(flat.entries().eq(owned.entries().cloned()), "{what}");
                assert_eq!(flat.len(), owned.len(), "{what}");
                assert_eq!(flat.is_empty(), owned.len() == 0, "{what}");
                assert_eq!(flat.dropped(), owned.dropped(), "{what}");
                assert_eq!(flat.position(), owned.position(), "{what}");
                for &addr in &hot {
                    assert_eq!(flat.accesses_to(addr), owned.accesses_to(addr), "{what}");
                }
            }
            // The step ring's head has been all the way round, and a step's
            // accesses have straddled the end of theirs.
            assert!(
                evictions > capacity && accesses_wrapped,
                "capacity {capacity}"
            );
            assert!(
                outweighed,
                "capacity {capacity}: one burst outweighs the rest"
            );
            assert!(inside > 0 && behind > 0 && ahead > 0, "capacity {capacity}");
        }
    }
}
