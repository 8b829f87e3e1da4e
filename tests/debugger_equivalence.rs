//! Debugger equivalence: the O(edges) stop-condition bookkeeping and the
//! position-only checkpoints must be pure host-side optimisations.
//!
//! The contract under test: a [`Debugger`] whose signal-edge bookkeeping is
//! gated on the board's edge counter, and whose checkpoints carry a trace
//! *position* instead of a trace, reports the same stops at the same steps
//! with the same state checksums as the [`Reference`] evaluator below — the
//! bookkeeping this repository used to run, kept here as the oracle: every
//! signal refreshed on every step, full images and cloned host state at every
//! checkpoint. Seeded sessions on car_radio / race / e12 mix random
//! breakpoints, access and signal watchpoints (one added while stopped on a
//! breakpoint), recorded stimulus injections, `step_back`,
//! `reverse_continue`, rewinds to steps on both sides of the state the last
//! rewind parked, and the rhythm that replays from that parked state: a few
//! steps forward, one back, again and again. After every operation the
//! platforms' signal-trace rings must match too.
//!
//! Plus the trace-through-rewind contract: a rewind leaves the execution
//! trace and the signal edges equal to a forward-only run's at that step,
//! short only of entries the 4096-step ring had already evicted; a rewind
//! behind every retained entry restarts history at the restored checkpoint.

use std::collections::{BTreeMap, BTreeSet};

use mpsoc_suite::apps::testbed;
use mpsoc_suite::obs::rng::XorShift64Star;
use mpsoc_suite::platform::isa::Word;
use mpsoc_suite::platform::platform::{Access, AccessKind, Platform, StepKind};
use mpsoc_suite::platform::SignalChange;
use mpsoc_suite::vpdebug::{Debugger, OriginFilter, StimulusKind, Stop, TraceEntry, Watchpoint};

/// One reference checkpoint: a full image plus the cloned host-side state.
struct RefCheckpoint {
    step: u64,
    image: Vec<u8>,
    prev_signals: BTreeMap<String, Word>,
    stim_applied: usize,
}

/// The reference evaluator: the debugger's stop-condition and time-travel
/// algorithm with none of its bookkeeping shortcuts, over the public
/// platform API. Checkpoints are full images taken on the debugger's
/// schedule and never evicted.
struct Reference {
    platform: Platform,
    breakpoints: Vec<(usize, u32)>,
    watchpoints: Vec<Watchpoint>,
    prev_signals: BTreeMap<String, Word>,
    stimuli: Vec<(u64, StimulusKind)>,
    stim_cursor: usize,
    interval: u64,
    checkpoints: Vec<RefCheckpoint>,
}

impl Reference {
    fn new(mut platform: Platform, interval: u64) -> Self {
        let image = platform.capture().expect("reference captures");
        let base = RefCheckpoint {
            step: platform.steps(),
            image,
            prev_signals: BTreeMap::new(),
            stim_applied: 0,
        };
        Reference {
            platform,
            breakpoints: Vec::new(),
            watchpoints: Vec::new(),
            prev_signals: BTreeMap::new(),
            stimuli: Vec::new(),
            stim_cursor: 0,
            interval,
            checkpoints: vec![base],
        }
    }

    fn auto_checkpoint(&mut self) {
        let cur = self.platform.steps();
        if self.checkpoints.iter().any(|c| c.step == cur) {
            return;
        }
        let due = match self.checkpoints.iter().rev().find(|c| c.step <= cur) {
            Some(c) => cur >= c.step + self.interval,
            None => true,
        };
        if due {
            let cp = RefCheckpoint {
                step: cur,
                image: self.platform.capture().expect("reference captures"),
                prev_signals: self.prev_signals.clone(),
                stim_applied: self.stim_cursor,
            };
            let pos = self.checkpoints.partition_point(|c| c.step < cur);
            self.checkpoints.insert(pos, cp);
        }
    }

    fn apply(&mut self, kind: &StimulusKind) {
        match kind {
            StimulusKind::SignalWrite { name, value } => {
                self.platform.debug_drive_signal(name, *value)
            }
            StimulusKind::IrqPost { core, irq } => self
                .platform
                .debug_post_irq(*core, *irq)
                .expect("reference posts the irq"),
            StimulusKind::MemPoke { addr, value } => self
                .platform
                .debug_write(*addr, *value)
                .expect("reference pokes memory"),
            other => panic!("stimulus kind not used by this test: {other:?}"),
        }
    }

    fn inject(&mut self, kind: StimulusKind) {
        self.apply(&kind);
        let step = self.platform.steps();
        self.stimuli.truncate(self.stim_cursor);
        self.checkpoints.retain(|c| c.step <= step);
        self.stimuli.push((step, kind));
        self.stim_cursor = self.stimuli.len();
    }

    fn step(&mut self) -> Option<Stop> {
        self.auto_checkpoint();
        self.step_evaluated()
    }

    fn step_evaluated(&mut self) -> Option<Stop> {
        let cur = self.platform.steps();
        while let Some((step, kind)) = self.stimuli.get(self.stim_cursor).cloned() {
            if step != cur {
                break;
            }
            self.apply(&kind);
            self.stim_cursor += 1;
        }
        let event = match self.platform.step() {
            Ok(e) => e,
            Err(e) => return Some(Stop::Fault(e.to_string())),
        };
        if event.is_idle() {
            return Some(Stop::Finished);
        }
        if let StepKind::Instr { core, .. } = event.kind {
            let pc = self.platform.core(core).expect("core exists").pc();
            for (i, &(c, at)) in self.breakpoints.iter().enumerate() {
                if c == core && at == pc {
                    return Some(Stop::Breakpoint { index: i, core, pc });
                }
            }
        }
        for a in &event.accesses {
            for (i, wp) in self.watchpoints.iter().enumerate() {
                if let Watchpoint::Access {
                    lo,
                    hi,
                    kind,
                    origin,
                } = wp
                {
                    if a.addr >= *lo
                        && a.addr <= *hi
                        && kind.is_none_or(|k| k == a.kind)
                        && origin_matches(*origin, a)
                    {
                        return Some(Stop::Watchpoint {
                            index: i,
                            access: Some(*a),
                        });
                    }
                }
            }
        }
        // Signal watchpoints and the every-signal-every-step refresh, as the
        // debugger ran them before the edge-counter gate.
        let mut hit = None;
        for (i, wp) in self.watchpoints.iter().enumerate() {
            if let Watchpoint::Signal { name, value } = wp {
                let cur = self.platform.signals().value(name);
                let prev = self.prev_signals.get(name).copied().unwrap_or(0);
                if cur != prev && value.is_none_or(|v| v == cur) {
                    hit = Some(Stop::Watchpoint {
                        index: i,
                        access: None,
                    });
                }
            }
        }
        for (name, _) in self.prev_signals.clone() {
            let v = self.platform.signals().value(&name);
            self.prev_signals.insert(name, v);
        }
        for name in self.platform.signals().names() {
            let v = self.platform.signals().value(&name);
            self.prev_signals.insert(name, v);
        }
        hit
    }

    fn run(&mut self, max_steps: u64) -> Stop {
        for _ in 0..max_steps {
            if let Some(stop) = self.step() {
                return stop;
            }
        }
        Stop::Budget
    }

    fn rewind_to_step(&mut self, target: u64) -> bool {
        let pos = self.checkpoints.partition_point(|c| c.step <= target);
        if pos == 0 {
            return false;
        }
        let cp = &self.checkpoints[pos - 1];
        self.platform
            .restore_image(&cp.image)
            .expect("reference restores");
        self.prev_signals = cp.prev_signals.clone();
        self.stim_cursor = cp.stim_applied;
        while self.platform.steps() < target {
            let _ = self.step_evaluated();
        }
        true
    }

    fn step_back(&mut self) -> bool {
        match self.platform.steps() {
            0 => false,
            cur => self.rewind_to_step(cur - 1),
        }
    }

    fn reverse_continue(&mut self) -> Option<Stop> {
        let cur = self.platform.steps();
        let first = self.checkpoints.first()?.step;
        if first >= cur || !self.rewind_to_step(first) {
            return None;
        }
        let mut last = None;
        while self.platform.steps() < cur {
            let stop = self.step_evaluated();
            let at = self.platform.steps();
            if at >= cur {
                break;
            }
            match stop {
                Some(Stop::Finished) | Some(Stop::Budget) | None => {}
                Some(s) => last = Some((at, s)),
            }
        }
        match last {
            Some((at, s)) => {
                self.rewind_to_step(at);
                Some(s)
            }
            None => {
                while self.platform.steps() < cur {
                    let _ = self.step_evaluated();
                }
                None
            }
        }
    }
}

fn origin_matches(filter: OriginFilter, a: &Access) -> bool {
    use mpsoc_suite::platform::platform::Originator;
    match (filter, a.originator) {
        (OriginFilter::Any, _) => true,
        (OriginFilter::Core(c), Originator::Core(x)) => c == x,
        (OriginFilter::Dma(d), Originator::Dma(x)) => d == x,
        _ => false,
    }
}

/// What a pilot run saw: the places stop conditions can actually hit.
struct Candidates {
    pcs: Vec<(usize, u32)>,
    accesses: Vec<Access>,
    /// RAM word addresses among them (a memory poke cannot target a
    /// peripheral register).
    ram: Vec<u32>,
    signals: Vec<String>,
    cores: usize,
}

fn pilot(name: &str, steps: u64) -> Candidates {
    let mut p = testbed::by_name(name).expect("known testbed");
    let (mut pcs, mut accesses) = (BTreeSet::new(), Vec::new());
    for _ in 0..steps {
        let ev = p.step().expect("pilot steps");
        if ev.is_idle() {
            break;
        }
        if let StepKind::Instr { core, .. } = ev.kind {
            pcs.insert((core, p.core(core).expect("core exists").pc()));
        }
        accesses.extend(ev.accesses.iter().copied().take(2));
    }
    let mut signals: Vec<String> = p
        .signals()
        .iter()
        .filter(|(_, s)| s.last_change().is_some())
        .map(|(n, _)| n.to_string())
        .collect();
    signals.push("host.flag".to_string()); // driven by injections only
    Candidates {
        pcs: pcs.into_iter().collect(),
        ram: accesses
            .iter()
            .map(|a| a.addr)
            .filter(|&addr| addr < 0xF000_0000)
            .collect(),
        accesses,
        signals,
        cores: p.num_cores(),
    }
}

/// Both debuggers, driven in lockstep and compared after every operation.
struct Pair {
    dbg: Debugger,
    reference: Reference,
    what: String,
    /// The step the last rewind left: where the debugger parked the state
    /// it rewound from.
    left: u64,
}

/// A platform's signal-trace ring, `(seq, name, edge)` per record, plus the
/// trace numbers a rewind must carry over: the sequence counter and the
/// budget.
fn signal_ring(p: &Platform) -> (Vec<(u64, String, SignalChange)>, u64, Option<usize>) {
    let records = p.signals().trace_records();
    let stats = p.trace_stats();
    (
        records
            .map(|(seq, name, c)| (seq, name.to_string(), c))
            .collect(),
        stats.next_seq,
        stats.budget_bytes,
    )
}

impl Pair {
    fn new(name: &str, seed: u64, interval: u64) -> Self {
        let mut dbg = Debugger::new(testbed::by_name(name).expect("known testbed"));
        dbg.enable_time_travel_bytes(interval, usize::MAX)
            .expect("time travel enables");
        let reference = Reference::new(testbed::by_name(name).expect("known testbed"), interval);
        Pair {
            dbg,
            reference,
            what: format!("{name} seed {seed:#x}"),
            left: 0,
        }
    }

    fn check(&self, op: &str) {
        let (d, r) = (self.dbg.platform(), &self.reference.platform);
        assert_eq!(d.steps(), r.steps(), "{}: step index after {op}", self.what);
        assert_eq!(
            d.state_checksum(),
            r.state_checksum(),
            "{}: state checksum after {op} at step {}",
            self.what,
            d.steps()
        );
        let ref_steps: Vec<u64> = self.reference.checkpoints.iter().map(|c| c.step).collect();
        assert_eq!(
            self.dbg.checkpoint_steps(),
            ref_steps,
            "{}: retained checkpoints after {op}",
            self.what
        );
        assert!(
            signal_ring(d) == signal_ring(r),
            "{}: signal-trace ring after {op} at step {}",
            self.what,
            d.steps()
        );
    }

    fn add_breakpoint(&mut self, core: usize, pc: u32) {
        self.dbg.add_breakpoint(core, pc);
        self.reference.breakpoints.push((core, pc));
    }

    fn add_watchpoint(&mut self, wp: Watchpoint) {
        self.dbg.add_watchpoint(wp.clone());
        self.reference.watchpoints.push(wp);
    }

    fn clear_conditions(&mut self) {
        self.dbg.clear_conditions();
        self.reference.breakpoints.clear();
        self.reference.watchpoints.clear();
    }

    fn run(&mut self, n: u64) -> Stop {
        let got = self.dbg.run(n).expect("debugger runs");
        let want = self.reference.run(n);
        assert_eq!(
            got,
            want,
            "{}: run({n}) stop at step {}",
            self.what,
            self.dbg.platform().steps()
        );
        self.check("run");
        got
    }

    fn step_back(&mut self) {
        self.left = self.dbg.platform().steps();
        let got = self.dbg.step_back().expect("debugger steps back");
        assert_eq!(got, self.reference.step_back(), "{}: step_back", self.what);
        self.check("step_back");
    }

    fn rewind_to_step(&mut self, target: u64) {
        self.left = self.dbg.platform().steps();
        let got = self.dbg.rewind_to_step(target).expect("debugger rewinds");
        let want = self.reference.rewind_to_step(target);
        assert_eq!(got, want, "{}: rewind_to_step({target})", self.what);
        self.check("rewind_to_step");
    }

    /// The park rhythm: one to six steps forward, then one back, one to
    /// eight times over.
    fn steps_then_back(&mut self, rng: &mut XorShift64Star) {
        for _ in 0..rng.u64_in(1, 8) {
            for _ in 0..rng.u64_in(1, 6) {
                self.run(1);
            }
            self.step_back();
        }
    }

    fn reverse_continue(&mut self) {
        self.left = self.dbg.platform().steps();
        let got = self.dbg.reverse_continue().expect("debugger reverses");
        let want = self.reference.reverse_continue();
        assert_eq!(got, want, "{}: reverse_continue stop", self.what);
        self.check("reverse_continue");
    }

    fn inject(&mut self, kind: StimulusKind) {
        match &kind {
            StimulusKind::SignalWrite { name, value } => self.dbg.inject_signal_write(name, *value),
            StimulusKind::IrqPost { core, irq } => self.dbg.inject_irq(*core, *irq),
            StimulusKind::MemPoke { addr, value } => self.dbg.inject_mem_poke(*addr, *value),
            other => panic!("stimulus kind not used by this test: {other:?}"),
        }
        .expect("debugger injects");
        self.reference.inject(kind);
        self.check("inject");
    }
}

fn pick<'a, T>(rng: &mut XorShift64Star, from: &'a [T]) -> &'a T {
    &from[rng.usize_in(0, from.len() - 1)]
}

fn random_conditions(pair: &mut Pair, rng: &mut XorShift64Star, c: &Candidates) {
    for _ in 0..rng.usize_in(1, 3) {
        let &(core, pc) = pick(rng, &c.pcs);
        pair.add_breakpoint(core, pc);
    }
    for _ in 0..rng.usize_in(0, 2) {
        let a = pick(rng, &c.accesses);
        let kind = [None, Some(AccessKind::Read), Some(AccessKind::Write)][rng.usize_in(0, 2)];
        pair.add_watchpoint(Watchpoint::Access {
            lo: a.addr.saturating_sub(rng.u64_in(0, 2) as u32),
            hi: a.addr + rng.u64_in(0, 2) as u32,
            kind,
            origin: OriginFilter::Any,
        });
    }
    for _ in 0..rng.usize_in(0, 2) {
        pair.add_watchpoint(Watchpoint::Signal {
            name: pick(rng, &c.signals).clone(),
            value: rng.chance_pct(30).then(|| rng.i64_in(0, 1)),
        });
    }
}

/// One seeded debugging session on testbed `name`, compared operation by
/// operation against the reference.
fn session(name: &str, seed: u64, ops: usize) {
    let c = pilot(name, 4_000);
    let mut rng = XorShift64Star::new(seed);
    let interval = rng.u64_in(5, 120);
    let mut pair = Pair::new(name, seed, interval);
    random_conditions(&mut pair, &mut rng, &c);
    let mut watched_after_break = false;
    for _ in 0..ops {
        match rng.u64_in(0, 119) {
            0..=44 => {
                let stop = pair.run(rng.u64_in(1, 300));
                if matches!(stop, Stop::Breakpoint { .. }) && !watched_after_break {
                    // The step that hit the breakpoint skipped the signal
                    // bookkeeping; a watchpoint added right now sees an edge
                    // from that step reported by the next one.
                    watched_after_break = true;
                    for name in &c.signals {
                        pair.add_watchpoint(Watchpoint::Signal {
                            name: name.clone(),
                            value: None,
                        });
                    }
                    pair.run(1);
                }
            }
            45..=59 => {
                for _ in 0..rng.u64_in(1, 4) {
                    pair.step_back();
                }
            }
            60..=69 => pair.reverse_continue(),
            70..=84 => {
                let kind = match rng.u64_in(0, 2) {
                    0 => StimulusKind::SignalWrite {
                        name: pick(&mut rng, &c.signals).clone(),
                        value: rng.i64_in(0, 2),
                    },
                    1 => StimulusKind::IrqPost {
                        core: rng.usize_in(0, c.cores - 1),
                        irq: rng.u64_in(0, 7) as u32,
                    },
                    _ => StimulusKind::MemPoke {
                        addr: *pick(&mut rng, &c.ram),
                        value: rng.i64_in(-4, 4),
                    },
                };
                pair.inject(kind);
            }
            85..=99 => {
                pair.clear_conditions();
                random_conditions(&mut pair, &mut rng, &c);
            }
            100..=109 => pair.steps_then_back(&mut rng),
            _ => {
                // Around the parked step, on both sides of it, or anywhere
                // up to a little past the current step.
                let (left, cur) = (pair.left, pair.dbg.platform().steps());
                let target = match rng.u64_in(0, 2) {
                    0 => left.saturating_sub(rng.u64_in(0, 3)),
                    1 => left + rng.u64_in(0, 3),
                    _ => rng.u64_in(0, cur + 3),
                };
                pair.rewind_to_step(target);
            }
        }
    }
}

#[test]
fn seeded_sessions_match_the_reference_on_car_radio() {
    for seed in [0xCA55E77E, 0x5EED, 0xD1A1] {
        session("car_radio", seed, 60);
    }
}

#[test]
fn seeded_sessions_match_the_reference_on_race() {
    for seed in [0xACE, 0x5EED, 0xFEED] {
        session("race", seed, 60);
    }
}

#[test]
fn seeded_sessions_match_the_reference_on_e12() {
    for seed in [0xE12, 0x5EED, 0xB0A7] {
        session("e12", seed, 60);
    }
}

/// The same sessions with no room in the platform's signal-trace ring: the
/// debugger cannot ask the board which signals changed and must refresh
/// them all — same stops, same states.
#[test]
fn sessions_match_with_an_evicted_signal_ring() {
    let c = pilot("car_radio", 4_000);
    let mut rng = XorShift64Star::new(0x0E71C7);
    let mut pair = Pair::new("car_radio", 0x0E71C7, 40);
    pair.dbg.platform_mut().set_trace_budget(0);
    pair.reference.platform.set_trace_budget(0);
    for name in &c.signals {
        pair.add_watchpoint(Watchpoint::Signal {
            name: name.clone(),
            value: Some(1),
        });
    }
    for _ in 0..40 {
        pair.run(rng.u64_in(1, 60));
        if rng.chance_pct(25) {
            pair.step_back();
        }
        if rng.chance_pct(25) {
            pair.steps_then_back(&mut rng);
        }
    }
}

fn entries(dbg: &Debugger) -> Vec<TraceEntry> {
    dbg.trace().entries().collect()
}

/// Runs car_radio forward for `steps` with time travel on, recording the
/// trace a forward-only run holds at each step in `at`.
fn forward_with_snapshots(steps: u64, at: &[u64]) -> (Debugger, BTreeMap<u64, Vec<TraceEntry>>) {
    let mut dbg = Debugger::new(testbed::by_name("car_radio").expect("known testbed"));
    dbg.enable_time_travel_bytes(64, usize::MAX)
        .expect("time travel enables");
    let mut seen = BTreeMap::new();
    for _ in 0..steps {
        assert_eq!(dbg.step().expect("steps"), None);
        let cur = dbg.platform().steps();
        if at.contains(&cur) {
            seen.insert(cur, entries(&dbg));
        }
    }
    (dbg, seen)
}

/// While the run has not outgrown the trace ring, any rewind leaves exactly
/// the forward-only run's trace.
#[test]
fn trace_after_a_rewind_equals_the_forward_run() {
    let targets = [2_999, 2_048, 1_025, 64, 63, 1];
    let (mut dbg, forward) = forward_with_snapshots(3_000, &targets);
    for target in targets {
        assert!(dbg.rewind_to_step(target).expect("rewinds"));
        assert_eq!(entries(&dbg), forward[&target], "trace at step {target}");
        assert_eq!(dbg.trace().dropped(), 0);
    }
    // Forward again out of the oldest rewind: the future is re-recorded.
    assert!(dbg.rewind_to_step(2_999).expect("jumps ahead"));
    assert_eq!(entries(&dbg).len(), 2_999 - 2_944, "restarted at step 2944");
    assert_eq!(
        entries(&dbg),
        forward[&2_999][2_944..],
        "a jump ahead restarts history at the restored checkpoint"
    );
}

/// Once the run has outgrown the ring, a rewind keeps what is retained — a
/// suffix of the forward-only trace — and does not bring evicted entries
/// back; behind every retained entry, history restarts at the checkpoint.
#[test]
fn trace_after_a_rewind_past_eviction_is_a_suffix_then_restarts() {
    let capacity = 4_096;
    let (mut dbg, forward) = forward_with_snapshots(10_000, &[9_000, 1_000]);
    assert_eq!(dbg.trace().len(), capacity);
    let evicted = 10_000 - capacity as u64; // entries of steps 0..5904 are gone

    assert!(dbg.rewind_to_step(9_000).expect("rewinds"));
    let want = &forward[&9_000]; // holds steps 4904..9000
    let got = entries(&dbg); // holds steps 5904..9000
    assert_eq!(got.len() as u64, 9_000 - evicted);
    assert_eq!(got, want[want.len() - got.len()..]);
    assert_eq!(dbg.trace().dropped(), evicted);

    assert!(dbg.rewind_to_step(1_000).expect("rewinds"));
    let got = entries(&dbg); // checkpoint at 960, then 40 replayed steps
    assert_eq!(got.len(), 40);
    assert_eq!(got, forward[&1_000][960..]);
    assert_eq!(dbg.trace().dropped(), 960);
}

/// Step-backs that replay from the state the previous one parked leave the
/// execution trace and the signal edges a forward-only run holds at that
/// step — and so does the one after a long run forward, which restores a
/// checkpoint over the parked state.
#[test]
fn trace_after_step_backs_from_the_park_equals_the_forward_run() {
    let car_radio = || testbed::by_name("car_radio").expect("known testbed");
    let mut forward = Debugger::new(car_radio());
    forward
        .enable_time_travel_bytes(64, usize::MAX)
        .expect("time travel enables");
    let mut seen = BTreeMap::new();
    for _ in 0..2_400 {
        assert_eq!(forward.step().expect("steps"), None);
        let at = forward.platform().steps();
        seen.insert(at, (entries(&forward), signal_ring(forward.platform())));
    }
    let mut dbg = Debugger::new(car_radio());
    dbg.enable_time_travel_bytes(64, usize::MAX)
        .expect("time travel enables");
    let mut rounds = 0;
    for leg in [1_000, 1_700] {
        assert_eq!(
            dbg.run(leg - dbg.platform().steps()).expect("runs"),
            Stop::Budget
        );
        for _ in 0..60 {
            for _ in 0..4 {
                assert_eq!(dbg.step().expect("steps"), None);
            }
            assert!(dbg.step_back().expect("steps back"));
            let at = dbg.platform().steps();
            let (trace, ring) = &seen[&at];
            assert_eq!(&entries(&dbg), trace, "trace at step {at}");
            assert!(
                signal_ring(dbg.platform()) == *ring,
                "signal edges at step {at}"
            );
            rounds += 1;
        }
    }
    assert_eq!(rounds, 120);
    assert!(dbg.platform().steps() < 2_400);
}
