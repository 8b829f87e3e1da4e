//! Declarative headless test engine for virtual platforms.
//!
//! A test script is a line-oriented scenario — load a platform from the
//! [`crate::testbed`] registry, set breakpoints and watchpoints, inject
//! stimulus, run under a step budget, then assert on registers, memory,
//! signals and stop reasons. The engine drives the **same**
//! [`Target`] surface a live GDB attach does (via
//! [`mpsoc_gdbrsp::DebugTarget`]), so a green suite certifies the debug
//! stack together with the workloads.
//!
//! # Script grammar
//!
//! One command per line; `#` starts a comment; numbers are decimal or
//! `0x` hex, and one that does not fit its use (a 32-bit address, a core
//! index, …) is an error, never truncated; `OP` is one of
//! `== != < <= > >=`.
//!
//! ```text
//! platform NAME                    # car_radio | jpeg | race | e12
//! platform PATH.soc [SOFTWARE]     # declarative platform (mpsoc-pdl); optional
//!                                  #   testbed software image to install
//! budget N                         # step budget for `run` (default 2_000_000)
//! break PC                         # software breakpoint on every core
//! unbreak PC
//! watch write|read|access ADDR [LEN]
//! unwatch write|read|access ADDR [LEN]
//! watch-signal NAME                # monitor extension: stop on signal change
//! time-travel INTERVAL MAX         # enable checkpointing (for step-back)
//! run [N]                          # continue; optional one-shot budget
//! step [N]                         # N single steps (default 1, at most `budget`)
//! step-back                        # rewind one step (needs time-travel)
//! inject mailbox PAGE V            # record+inject stimulus (monitor path)
//! inject signal NAME V
//! inject irq CORE IRQ
//! inject poke ADDR V
//! inject dma PAGE SRC DST LEN
//! expect stop CLASS                # step|breakpoint|watchpoint|signal-watch|
//!                                  #   exited|budget|fault
//! expect reg CORE R OP VAL         # R = 0..15 or pc
//! expect pc CORE OP VAL
//! expect mem ADDR OP VAL
//! expect sig NAME OP VAL
//! expect sigedges NAME OP VAL      # edge count still in the trace ring
//! expect sum ADDR LEN OP VAL       # arithmetic sum over a word range
//! expect watch-addr OP VAL         # faulting address of the last watch stop
//! assert NAME EXPR                 # standing system-level assertion
//! ```
//!
//! `assert` is Section VII's scripted assertion *"without changing the
//! software code"*: `EXPR` (grammar in the private `expr` submodule —
//! literals, `reg(c,i)`, `pc(c)`, `mem(a)`, `sum(a,len)`, `sig(name)`,
//! `sigedges(name)`, `periph(page,off)`, `now()`, `! -`, `* / %`, `+ -`,
//! the six comparisons, `&&`, `||`, parentheses) is checked at once and
//! then after every platform step a later `run` or `step` executes, until
//! it is violated or the next `platform` line. Every `expect … OP VAL`
//! verb reads its left side through the same evaluator.
//!
//! Every `expect` failure and the first violation of each `assert` is
//! recorded (with its line number) and execution continues; a *command*
//! error (unknown platform, malformed line, target fault, an expression
//! that cannot be evaluated) aborts the script. A script passes iff it
//! recorded no failures.

use std::fmt::Write as _;
use std::time::Instant;

use mpsoc_gdbrsp::{parse_num, DebugTarget, StopReason, Target, WatchKind, PC_REG};
use mpsoc_platform::isa::Word;
use mpsoc_vpdebug::Debugger;

use crate::testbed;

mod expr;
use expr::{compare, Expr, Prim};

/// What a command returns: `Err` aborts the script.
type CmdResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// Default `run` step budget: generous for every committed workload but
/// bounded, so a wedged scenario fails instead of hanging CI.
pub(crate) const DEFAULT_BUDGET: u64 = 2_000_000;

/// The verdict for one script.
#[derive(Clone, Debug)]
pub struct ScriptVerdict {
    /// Script name (file stem).
    pub name: String,
    /// Commands executed.
    pub commands: usize,
    /// Expectations evaluated.
    pub checks: usize,
    /// Failure messages, each prefixed with its script line number.
    pub failures: Vec<String>,
    /// Wall-clock seconds spent executing the script.
    pub secs: f64,
}

impl ScriptVerdict {
    /// Whether the script passed (no failures recorded).
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The verdicts for a whole suite, with JSON and JUnit XML renderings.
#[derive(Clone, Debug, Default)]
pub struct SuiteReport {
    /// One verdict per script, in execution order.
    pub verdicts: Vec<ScriptVerdict>,
}

impl SuiteReport {
    /// Whether every script passed.
    pub fn passed(&self) -> bool {
        self.verdicts.iter().all(ScriptVerdict::passed)
    }

    /// Number of failed scripts.
    pub fn failed(&self) -> usize {
        self.verdicts.iter().filter(|v| !v.passed()).count()
    }

    /// Renders the machine-readable JSON verdict document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"suite\": \"mpsoc-test\",\n");
        let _ = writeln!(s, "  \"total\": {},", self.verdicts.len());
        let _ = writeln!(s, "  \"failed\": {},", self.failed());
        s.push_str("  \"results\": [\n");
        for (i, v) in self.verdicts.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"name\": {}, \"passed\": {}, \"commands\": {}, \"checks\": {}, \"secs\": {:.3}, \"failures\": [",
                json_string(&v.name),
                v.passed(),
                v.commands,
                v.checks,
                v.secs
            );
            for (j, f) in v.failures.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&json_string(f));
            }
            s.push_str("]}");
            s.push_str(if i + 1 < self.verdicts.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders the JUnit XML report (one `<testcase>` per script; failing
    /// scripts carry a `<failure>` element listing every missed
    /// expectation).
    pub fn to_junit_xml(&self) -> String {
        let total_secs: f64 = self.verdicts.iter().map(|v| v.secs).sum();
        let mut s = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        let _ = writeln!(
            s,
            "<testsuite name=\"mpsoc-test\" tests=\"{}\" failures=\"{}\" errors=\"0\" time=\"{:.3}\">",
            self.verdicts.len(),
            self.failed(),
            total_secs
        );
        for v in &self.verdicts {
            if v.passed() {
                let _ = writeln!(
                    s,
                    "  <testcase name=\"{}\" time=\"{:.3}\"/>",
                    xml_escape(&v.name),
                    v.secs
                );
            } else {
                let _ = writeln!(
                    s,
                    "  <testcase name=\"{}\" time=\"{:.3}\">",
                    xml_escape(&v.name),
                    v.secs
                );
                let _ = writeln!(
                    s,
                    "    <failure message=\"{} expectation(s) failed\">{}</failure>",
                    v.failures.len(),
                    xml_escape(&v.failures.join("\n"))
                );
                s.push_str("  </testcase>\n");
            }
        }
        s.push_str("</testsuite>\n");
        s
    }
}

/// Runs a whole suite of `(name, script text)` pairs.
pub fn run_suite(scripts: &[(String, String)]) -> SuiteReport {
    SuiteReport {
        verdicts: scripts
            .iter()
            .map(|(name, text)| run_script(name, text))
            .collect(),
    }
}

/// Runs one script and returns its verdict.
pub fn run_script(name: &str, text: &str) -> ScriptVerdict {
    let t0 = Instant::now();
    let mut engine = Engine::new();
    engine.feed(text);
    ScriptVerdict {
        name: name.to_string(),
        commands: engine.commands,
        checks: engine.checks,
        failures: engine.failures,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// A standing `assert NAME EXPR` line.
struct Assertion {
    line: usize,
    name: String,
    source: String,
    expr: Expr,
}

/// Script interpreter state.
struct Engine {
    target: Option<DebugTarget>,
    budget: u64,
    last_stop: Option<StopReason>,
    /// Assertions not yet violated, checked after every step.
    standing: Vec<Assertion>,
    commands: usize,
    checks: usize,
    failures: Vec<String>,
}

impl Engine {
    fn new() -> Self {
        Engine {
            target: None,
            budget: DEFAULT_BUDGET,
            last_stop: None,
            standing: Vec::new(),
            commands: 0,
            checks: 0,
            failures: Vec::new(),
        }
    }

    /// Executes `text` line by line until its end or the first command
    /// error.
    fn feed(&mut self, text: &str) {
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            self.commands += 1;
            if let Err(msg) = self.exec(lineno + 1, line) {
                self.fail(lineno + 1, format!("{msg} (script aborted)"));
                break;
            }
        }
    }

    fn target(&mut self) -> CmdResult<&mut DebugTarget> {
        self.target
            .as_mut()
            .ok_or_else(|| "no platform loaded (use `platform NAME` first)".into())
    }

    fn load(&mut self, p: mpsoc_platform::Platform) {
        self.target = Some(DebugTarget::new(Debugger::new(p)));
        self.standing.clear();
    }

    /// Executes one command line. `Err` aborts the script; expectation
    /// misses are recorded in `failures` and return `Ok`.
    fn exec(&mut self, lineno: usize, line: &str) -> CmdResult {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["platform", name] => {
                let p = if name.ends_with(".soc") {
                    testbed::load_soc_file(name)?
                } else {
                    testbed::by_name(name).ok_or_else(|| {
                        format!(
                            "unknown platform {name:?} (known: {}, or a .soc file path)",
                            testbed::PLATFORM_NAMES.join(", ")
                        )
                    })?
                };
                self.load(p);
            }
            ["platform", path, software] if path.ends_with(".soc") => {
                let mut p = testbed::load_soc_file(path)?;
                testbed::install_software(software, &mut p)?;
                self.load(p);
            }
            ["budget", n] => self.budget = parse_num::<u64>(n)?.max(1),
            ["break", pc] => self.target()?.insert_breakpoint(parse_num(pc)?)?,
            ["unbreak", pc] => self.target()?.remove_breakpoint(parse_num(pc)?)?,
            [verb @ ("watch" | "unwatch"), kind, addr, len @ ..] if len.len() <= 1 => {
                let k = parse_watch_kind(kind)?;
                let a = parse_num(addr)?;
                let len = match len {
                    [len] => parse_num::<u32>(len)?.max(1),
                    _ => 1,
                };
                if *verb == "watch" {
                    self.target()?.insert_watchpoint(k, a, len)?;
                } else {
                    self.target()?.remove_watchpoint(k, a, len)?;
                }
            }
            ["watch-signal", name] => {
                self.target()?.monitor(&format!("watch-signal {name}"))?;
            }
            ["time-travel", interval, max] => {
                self.target()?
                    .monitor(&format!("time-travel {interval} {max}"))?;
            }
            ["run"] => self.run_for(self.budget)?,
            ["run", n] => self.run_for(parse_num::<u64>(n)?.max(1))?,
            ["step", n @ ..] if n.len() <= 1 => {
                let n = match n {
                    [n] => parse_num::<u64>(n)?.max(1),
                    _ => 1,
                };
                if n > self.budget {
                    return Err(format!("step count {n} exceeds the budget {}", self.budget).into());
                }
                for _ in 0..n {
                    self.step()?;
                }
            }
            ["step-back"] => {
                let out = self.target()?.monitor("step-back")?;
                if out.contains("cannot step back") {
                    return Err(out.trim().into());
                }
            }
            ["inject", rest @ ..] if !rest.is_empty() => {
                // The monitor `stimulus-record` path: the stimulus both
                // applies now and lands in the replayable log.
                let cmd = format!("stimulus-record {}", rest.join(" "));
                self.target()?.monitor(&cmd)?;
            }
            ["expect", rest @ ..] => self.expect(lineno, rest)?,
            ["assert", name, _, ..] => {
                // The expression is the rest of the line, spaces and all.
                let source = line["assert".len()..].trim_start()[name.len()..].trim();
                self.target()?;
                self.checks += 1;
                self.standing.push(Assertion {
                    line: lineno,
                    name: (*name).to_string(),
                    source: source.to_string(),
                    expr: expr::parse(source)?,
                });
                self.check_standing(self.standing.len() - 1)?;
            }
            _ => return Err(format!("unknown command {line:?}").into()),
        }
        Ok(())
    }

    /// One platform step, then every standing assertion.
    fn step(&mut self) -> CmdResult<&StopReason> {
        let stop = self.target()?.step()?;
        self.check_standing(0)?;
        Ok(self.last_stop.insert(stop))
    }

    /// `run`: [`Target::cont`], which is a loop over [`Target::step`] —
    /// with an assertion standing the runner is that loop itself, under
    /// the same budget and reporting the same stop, so the check sits
    /// between steps.
    fn run_for(&mut self, budget: u64) -> CmdResult {
        if self.standing.is_empty() {
            self.last_stop = Some(self.target()?.cont(budget)?);
            return Ok(());
        }
        for _ in 0..budget {
            if *self.step()? != StopReason::Step {
                return Ok(());
            }
        }
        self.last_stop = Some(StopReason::Budget);
        Ok(())
    }

    /// Evaluates the standing assertions from index `i` on against the
    /// current state; a violated one records its failure and retires.
    fn check_standing(&mut self, mut i: usize) -> CmdResult {
        // An assertion only ever stands against a loaded platform.
        let Some(target) = &self.target else {
            return Ok(());
        };
        while let Some(a) = self.standing.get(i) {
            let holds = expr::eval(&a.expr, target)
                .map_err(|e| format!("assertion {} (line {}): {e}", a.name, a.line))?;
            if holds != 0 {
                i += 1;
                continue;
            }
            let a = self.standing.remove(i);
            self.failures.push(format!(
                "line {}: assertion {} violated at step {}, time {:?}: {}",
                a.line,
                a.name,
                target.debugger().platform().steps(),
                target.debugger().now(),
                a.source
            ));
        }
        Ok(())
    }

    fn expect(&mut self, lineno: usize, words: &[&str]) -> CmdResult {
        self.checks += 1;
        // What the failure text calls the left side, and how to read it.
        let (what, read, op, val) = match words {
            ["stop", class] => {
                let Some(stop) = &self.last_stop else {
                    return Err("no run/step before `expect stop`".into());
                };
                let got = stop_class(stop);
                if got != *class {
                    let msg = format!("expected stop {class}, got {got} ({stop:?})");
                    self.fail(lineno, msg);
                }
                return Ok(());
            }
            ["watch-addr", op, val] => {
                let want: Word = parse_num(val)?;
                let got = match &self.last_stop {
                    Some(StopReason::Watch { addr, .. }) => Word::from(*addr),
                    other => {
                        let msg = format!("last stop is not a watchpoint: {other:?}");
                        self.fail(lineno, msg);
                        return Ok(());
                    }
                };
                if !compare(op, got, want)? {
                    self.fail(lineno, format!("watch-addr {got:#x} !{op} {want:#x}"));
                }
                return Ok(());
            }
            ["reg", core, reg, op, val] => {
                let core: Word = parse_num(core)?;
                let reg = if *reg == "pc" {
                    PC_REG as Word
                } else {
                    parse_num(reg)?
                };
                let read = Expr::call(Prim::Reg, &[core, reg]);
                (format!("reg {core} r{reg}"), read, op, val)
            }
            ["pc", core, op, val] => {
                let core: Word = parse_num(core)?;
                (format!("pc {core}"), Expr::call(Prim::Pc, &[core]), op, val)
            }
            ["mem", addr, op, val] => {
                let a: Word = parse_num(addr)?;
                (format!("mem {a:#x}"), Expr::call(Prim::Mem, &[a]), op, val)
            }
            ["sig", name, op, val] => (
                format!("sig {name}"),
                Expr::Sig((*name).to_string()),
                op,
                val,
            ),
            ["sigedges", name, op, val] => {
                let read = Expr::SigEdges((*name).to_string());
                (format!("sigedges {name}"), read, op, val)
            }
            ["sum", addr, len, op, val] => {
                let (a, len): (Word, Word) = (parse_num(addr)?, parse_num(len)?);
                let read = Expr::call(Prim::Sum, &[a, len]);
                (format!("sum {a:#x} +{len}"), read, op, val)
            }
            _ => return Err(format!("unknown expectation `expect {}`", words.join(" ")).into()),
        };
        let got = expr::eval(&read, self.target()?)?;
        let want: Word = parse_num(val)?;
        if !compare(op, got, want)? {
            self.fail(lineno, format!("{what} is {got}, expected {op} {want}"));
        }
        Ok(())
    }

    fn fail(&mut self, lineno: usize, msg: String) {
        self.failures.push(format!("line {lineno}: {msg}"));
    }
}

fn parse_watch_kind(s: &str) -> CmdResult<WatchKind> {
    match s {
        "write" => Ok(WatchKind::Write),
        "read" => Ok(WatchKind::Read),
        "access" => Ok(WatchKind::Access),
        _ => Err(format!("watch kind must be write|read|access, got {s:?}").into()),
    }
}

/// The script-facing name of a stop class.
fn stop_class(stop: &StopReason) -> &'static str {
    match stop {
        StopReason::Step => "step",
        StopReason::Breakpoint { .. } => "breakpoint",
        StopReason::Watch { .. } => "watchpoint",
        StopReason::SignalWatch { .. } => "signal-watch",
        StopReason::Exited => "exited",
        StopReason::Budget => "budget",
        StopReason::Fault(_) => "fault",
    }
}

fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_platform::isa::assemble;
    use mpsoc_platform::platform::PlatformBuilder;
    use mpsoc_platform::Frequency;

    /// An engine over a one-core platform running `asm`, fed `script`.
    fn run_on(asm: &str, script: &str) -> Engine {
        let mut p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(256)
            .cache(None)
            .build()
            .unwrap();
        p.add_mailbox("mb0", 4);
        p.load_program(0, assemble(asm).unwrap(), 0).unwrap();
        let mut engine = Engine::new();
        engine.load(p);
        engine.feed(script);
        engine
    }

    /// The counter-to-5 loop: `mem[0x30]` reads 1, 2, … 5.
    const COUNT_TO_5: &str = "movi r1, 0\nmovi r2, 0x30\nmovi r4, 5\n\
        loop: addi r1, r1, 1\nst r1, r2, 0\nblt r1, r4, loop\nhalt";

    #[test]
    fn assertions_hold_and_fail() {
        // The tail is an assertion script as the old standalone engine took it.
        let e = run_on(
            "movi r1, 7\nmovi r2, 0x20\nst r1, r2, 0\nhalt",
            "run 100\n\
             # invariants\n\
             assert r1_small reg(0, 1) <= 7\n\
             assert mem_written mem(0x20) == 7 || pc(0) < 3\n\
             assert never_this mem(0x20) == 99\n\
             assert pc_range pc(0) < 64\n\
             assert mb_idle periph(0, 1) == 0\n",
        );
        assert_eq!((e.commands, e.checks, e.standing.len()), (6, 5, 4));
        assert_eq!(
            e.failures,
            ["line 5: assertion never_this violated at step 5, time 80000ps: mem(0x20) == 99"]
        );
    }

    #[test]
    fn assertion_checked_while_stepping_localises_violation() {
        // The step at which the word first reads 4, found by hand-stepping.
        let mut probe = run_on(COUNT_TO_5, "");
        while probe.target().unwrap().read_mem(0x30, 1).unwrap()[0] != 4 {
            probe.feed("step");
        }
        let dbg = probe.target().unwrap().debugger();
        let (step, time) = (dbg.platform().steps(), dbg.now());
        for resume in ["run 1000", "step 30"] {
            let script = format!(
                "assert bound mem(0x30) <= 3\n{resume}\nexpect stop exited\nexpect mem 0x30 == 5"
            );
            let e = run_on(COUNT_TO_5, &script);
            let violation = format!(
                "line 1: assertion bound violated at step {step}, time {time:?}: mem(0x30) <= 3"
            );
            assert_eq!(e.failures, [violation], "{resume}");
            assert!(e.standing.is_empty() && e.checks == 3, "{resume}");
        }
    }

    #[test]
    fn expression_grammar_parses_operators() {
        let e = run_on(
            "halt",
            "assert arith (1 + 2 * 3 == 7) && (10 / 2 == 5) && (7 % 3 == 1)\n\
             assert unary !0 && -1 < 0 && - -2 == 2 && !!5 == 1\n\
             assert hex 0x10 == 16 && 0X1f == 31\n\
             assert paren ((2 + 2)) * 2 == 8\n\
             assert compare 1 != 2 && 2 > 1 && !(1 >= 2) && 1 <= 1 && !(1 != 1)\n\
             assert left_assoc 10 - 3 - 2 == 5 && 100 / 10 / 5 == 2\n\
             assert short_circuit 1 || 1 / 0 && !(0 && 1 / 0)\n\
             assert wraps 0x7fffffffffffffff + 1 < 0\n\
             assert time now() >= 0\n",
        );
        assert_eq!((e.failures, e.standing.len()), (vec![], 9));
        // A long flat chain costs no nesting (and no stack).
        let long = format!("assert flat {}1 == 100001", "1 + ".repeat(100_000));
        assert_eq!(run_on("halt", &long).failures, [""; 0]);
    }

    #[test]
    fn peripheral_and_signal_reads() {
        let e = run_on(
            "halt",
            "assert empty periph(0, 1) == 0\n\
             assert cap periph(0, 2) == 4\n\
             assert sig_zero sig(mb0.avail) == 0\n\
             inject mailbox 0 9\n\
             assert sig_set sig(mb0.avail) == 1 && sigedges(mb0.avail) == 1\n\
             assert still_empty periph(0, 1) == 0\n",
        );
        assert_eq!(
            e.failures,
            ["line 6: assertion still_empty violated at step 0, time 0ps: periph(0, 1) == 0"]
        );
    }

    #[test]
    fn parse_errors_carry_line() {
        let e = run_on(
            "halt",
            "assert a 1 == 1\nassert broken foo(3)\nassert c 1\n",
        );
        assert_eq!(
            e.failures,
            ["line 2: unknown function `foo` at column 1 of the expression (script aborted)"]
        );
        assert_eq!((e.commands, e.checks), (2, 2), "line 3 never ran");
        for bad in [
            "bogus line",
            "assert x",
            "assert x 1 +",
            "assert x 1 < 2 < 3",
            "assert x mem(1, 2)",
            "assert x now(1)",
            "assert x sig()",
            "assert x 12ab",
            "assert x 99999999999999999999",
            "assert x (1",
            "assert x 1 $ 2",
        ] {
            let f = run_on("halt", bad).failures;
            assert!(
                f.len() == 1 && f[0].ends_with("(script aborted)"),
                "{bad}: {f:?}"
            );
        }
    }

    #[test]
    fn runtime_errors_reported() {
        for (bad, what) in [
            ("reg(9, 0) == 0", "no core with id 9"),
            ("reg(0, 17) == 0", "register 17 out of range"),
            ("1 / 0 == 0", "`/` by zero"),
            ("7 % 0 == 0", "`%` by zero"),
            ("periph(0, 99) == 0", "peripheral 0 has no register 99"),
            ("periph(5, 0) == 0", "named `peripheral page 5`"),
            (
                "mem(0x100000040) == 0",
                "address 4294967360 (0x100000040) is out of range",
            ),
            (
                "mem(-4294967232) == 0",
                "address -4294967232 (0xffffffff00000040) is out of range",
            ),
            ("pc(0x100000000) == 0", "no core with id 4294967296"),
            (
                "sum(0x100000040, 1) == 0",
                "address 4294967360 (0x100000040) is out of range",
            ),
            (
                "sum(0, -1) == 0",
                "length -1 (0xffffffffffffffff) is out of range",
            ),
            (
                "periph(0, 0x100000001) == 0",
                "offset 4294967297 (0x100000001) is out of range",
            ),
        ] {
            let e = run_on("halt", &format!("step\nassert bad {bad}\nstep"));
            assert_eq!(e.commands, 2, "{bad}: aborted at the assert");
            let f = &e.failures[0];
            assert!(
                f.starts_with("line 2: assertion bad (line 2): "),
                "{bad}: {f}"
            );
            assert!(
                f.ends_with(&format!("{what} (script aborted)")),
                "{bad}: {f}"
            );
        }
        // An assertion that stops being evaluable names its own line from
        // the command that stepped into the error.
        let f = run_on(
            COUNT_TO_5,
            "assert late mem(1000000 * (pc(0) / 5)) >= 0\n\nrun",
        )
        .failures;
        assert!(
            f[0].starts_with("line 3: assertion late (line 1): "),
            "{f:?}"
        );
    }

    #[test]
    fn nesting_deeper_than_the_cap_is_a_located_error() {
        for (open, close) in [("(", ")"), ("!", ""), ("-", ""), ("mem(", ")")] {
            let deep = |n| format!("step\nassert a {}1{}", open.repeat(n), close.repeat(n));
            let f = run_on("halt", &deep(64)).failures;
            assert!(
                f.iter().all(|f| !f.contains("nests")),
                "{open}: 64 levels parse: {f:?}"
            );
            for n in [65, 400_000] {
                let column = 65 * open.len() + 1;
                assert_eq!(
                    run_on("halt", &deep(n)).failures,
                    [format!(
                        "line 2: expression nests deeper than 64 levels at column {column} \
                         of the expression (script aborted)"
                    )],
                    "{open} x{n}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_numbers_abort_instead_of_aliasing() {
        // The script that passed every check while addresses narrowed
        // with `as u32` stops at its first number.
        let v = run_script(
            "alias",
            "platform race\nstep 2\ninject poke 0x100000080 41\nexpect mem 0x80 == 41\n\
             expect mem 0x100000080 == 41\nexpect mem -4294967168 == 41\n\
             expect sum 0x100000080 1 == 41\nbreak 0x100000003\nrun\n\
             expect stop breakpoint\nexpect pc 0 == 3\n",
        );
        assert_eq!((v.commands, v.checks), (3, 0), "{:?}", v.failures);
        // So does each later line, run as the first bad number of its own
        // script, and every other narrow field of a command.
        for (line, number) in [
            ("inject poke 0x100000080 41", "0x100000080"),
            ("inject irq 0 0x100000001", "0x100000001"),
            ("expect mem 0x100000080 == 0", "0x100000080"),
            ("expect mem -4294967168 == 0", "-4294967168"),
            ("expect sum 0x100000080 1 == 0", "0x100000080"),
            ("expect sum 0x80 0x100000001 == 0", "0x100000001"),
            ("expect pc 0x100000000 == 0", "4294967296"),
            ("break 0x100000003", "0x100000003"),
            ("watch write 0x80 0x100000001", "0x100000001"),
            ("time-travel -4 16", "-4"),
            ("step -1", "-1"),
        ] {
            let script = format!("platform race\nstep 2\n{line}\nexpect mem 0x80 == 41\n");
            let f = run_script("alias", &script).failures;
            assert!(
                f.len() == 1 && f[0].starts_with("line 3: "),
                "{line}: {f:?}"
            );
            assert!(
                f[0].contains(number) && f[0].ends_with("(script aborted)"),
                "{line}: {f:?}"
            );
        }
    }

    #[test]
    fn a_standing_assertion_changes_nothing_but_the_check_count() {
        for (platform, budget, last) in [
            ("race", 100_000, "exited"),
            ("e12", 100_000, "exited"),
            ("car_radio", 3_000, "budget"),
        ] {
            // (stop class after every line, checksum, commands, checks)
            let observe = |second: &str| {
                let mut e = Engine::new();
                let mut stops = Vec::new();
                for line in [
                    &format!("platform {platform}"),
                    second,
                    &format!("budget {budget}"),
                    "break 3",
                    "run",
                    "unbreak 3",
                    "step 4",
                    "run 700",
                    "run",
                ] {
                    e.feed(line);
                    stops.push(e.last_stop.as_ref().map(stop_class));
                }
                assert_eq!(e.failures, [""; 0], "{platform}");
                let sum = e.target().unwrap().monitor("state-checksum").unwrap();
                (stops, sum, e.commands, e.checks)
            };
            let plain = observe("unbreak 0x7fffffff");
            let asserted = observe("assert always now() >= 0 && pc(0) < 0x10000");
            assert!(
                plain.0.contains(&Some("breakpoint")),
                "{platform}: {:?}",
                plain.0
            );
            assert_eq!(plain.0.last(), Some(&Some(last)), "{platform}");
            assert_eq!(
                (&plain.0, &plain.1, plain.2),
                (&asserted.0, &asserted.1, asserted.2)
            );
            assert_eq!(plain.3 + 1, asserted.3, "{platform}: checks");
        }
    }

    #[test]
    fn expect_verbs_agree_with_their_assert_form() {
        let mut e = Engine::new();
        e.feed(
            "platform race\nstep 7\ninject poke 0x80 -41\ninject poke 0x81 9\n\
             inject signal tick -3\ninject signal tick 2\n",
        );
        let mut outcomes = [0usize; 2];
        for (verb, expr) in [
            ("reg 0 1", "reg(0, 1)"),
            ("reg 1 pc", "reg(1, 16)"),
            ("reg 1 16", "pc(1)"),
            ("pc 0", "reg(0, 16)"),
            ("mem 0x80", "mem(0x80)"),
            ("mem 129", "mem(0x81)"),
            ("sig tick", "sig(tick)"),
            ("sigedges tick", "sigedges(tick)"),
            ("sum 0x80 2", "sum(0x80, 2)"),
            ("sum 0x80 0", "sum(0x80, 0)"),
        ] {
            for op in ["==", "!=", "<", "<=", ">", ">="] {
                for want in ["-41", "-32", "0", "2", "3", "0x40"] {
                    let before = e.failures.len();
                    e.feed(&format!("expect {verb} {op} {want}"));
                    let missed = e.failures.len() - before;
                    e.feed(&format!("assert a {expr} {op} {want}"));
                    let both = e.failures.len() - before;
                    assert_eq!(
                        both,
                        2 * missed,
                        "{verb} {op} {want}: {:?}",
                        e.failures.last()
                    );
                    outcomes[missed] += 1;
                }
            }
        }
        assert!(
            outcomes[0] > 100 && outcomes[1] > 100,
            "both outcomes: {outcomes:?}"
        );
        assert!(e.failures.iter().all(|f| !f.contains("aborted")));
        // The failure text is the verb's, as before the evaluator moved.
        for text in [
            "line 1: mem 0x80 is -41, expected >= 0",
            "line 1: reg 1 r16 is 3, expected == -41",
            "line 1: sum 0x80 +2 is -32, expected != -32",
        ] {
            assert!(e.failures.iter().any(|f| f == text), "{text}");
        }
    }

    #[test]
    fn expect_stop_and_watch_addr_report_through_the_shared_comparison() {
        let v = run_script(
            "watch",
            "platform race\nwatch write 0x40\nrun\nexpect watch-addr == 0x40\n\
             expect watch-addr < 0x40\nexpect stop exited\nexpect watch-addr ~ 1\n",
        );
        assert_eq!(
            v.failures,
            [
                "line 5: watch-addr 0x40 !< 0x40",
                "line 6: expected stop exited, got watchpoint (Watch { kind: Write, addr: 64 })",
                "line 7: unknown operator \"~\" (script aborted)"
            ]
        );
        assert_eq!(
            run_script("early", "platform race\nexpect stop step\n").failures,
            ["line 2: no run/step before `expect stop` (script aborted)"]
        );
    }

    #[test]
    fn race_script_breaks_and_finishes() {
        let v = run_script(
            "race",
            "platform race\n\
             break 3            # loop head\n\
             run\n\
             expect stop breakpoint\n\
             expect pc 0 == 3\n\
             unbreak 3\n\
             run\n\
             expect stop exited\n\
             expect mem 0x40 > 0\n",
        );
        assert!(v.passed(), "failures: {:?}", v.failures);
        assert_eq!(v.checks, 4);
    }

    #[test]
    fn missed_expectation_is_recorded_not_fatal() {
        let v = run_script(
            "miss",
            "platform race\nstep 3\nexpect pc 0 == 999\nexpect reg 0 5 >= 0\n",
        );
        assert!(!v.passed());
        assert_eq!(v.failures.len(), 1);
        assert!(v.failures[0].starts_with("line 3:"), "{:?}", v.failures);
        assert_eq!(v.checks, 2, "execution continued past the miss");
    }

    #[test]
    fn command_errors_abort_the_script() {
        let v = run_script("abort", "platform no_such\nexpect mem 0 == 0\n");
        assert_eq!(v.failures.len(), 1);
        assert!(
            v.failures[0].contains("unknown platform"),
            "{:?}",
            v.failures
        );
        assert_eq!(v.checks, 0, "nothing after the abort ran");
        // `step N` is bounded like `run`: DEFAULT_BUDGET's promise.
        let v = run_script(
            "spin",
            "platform car_radio\nbudget 50\nstep 50\nstep 99999999999\n",
        );
        assert_eq!(
            v.failures,
            ["line 4: step count 99999999999 exceeds the budget 50 (script aborted)"]
        );
    }

    #[test]
    fn oversized_sum_range_aborts_the_script_not_the_process() {
        let v = run_script("huge", "platform race\nexpect sum 0 0xffffffff == 0\n");
        assert_eq!(v.failures.len(), 1);
        assert!(v.failures[0].contains("reply limit"), "{:?}", v.failures);
    }

    #[test]
    fn inject_poke_applies_and_logs() {
        let v = run_script(
            "poke",
            "platform race\n\
             step 2\n\
             inject poke 0x80 41\n\
             expect mem 0x80 == 41\n",
        );
        assert!(v.passed(), "failures: {:?}", v.failures);
    }

    #[test]
    fn junit_failure_element_and_escaping() {
        let report = run_suite(&[
            ("good".to_string(), "platform race\nstep\n".to_string()),
            (
                "bad<&>".to_string(),
                "platform race\nstep\nexpect pc 0 == 999\n".to_string(),
            ),
        ]);
        assert!(!report.passed());
        assert_eq!(report.failed(), 1);
        let xml = report.to_junit_xml();
        assert!(xml.contains("tests=\"2\" failures=\"1\""), "{xml}");
        assert!(xml.contains("<failure message="), "{xml}");
        assert!(xml.contains("bad&lt;&amp;&gt;"), "{xml}");
        let json = report.to_json();
        assert!(json.contains("\"failed\": 1"), "{json}");
        assert!(json.contains("\"passed\": false"), "{json}");
    }

    #[test]
    fn sigedges_counts_ring_resident_history() {
        let v = run_script(
            "edges",
            "platform race\n\
             step\n\
             inject signal tick 1\n\
             inject signal tick 0\n\
             inject signal tick 1\n\
             inject signal tick 1   # level, not an edge\n\
             expect sig tick == 1\n\
             expect sigedges tick == 3\n\
             expect sigedges quiet == 0\n",
        );
        assert!(v.passed(), "failures: {:?}", v.failures);
        assert_eq!(v.checks, 3);
    }

    #[test]
    fn time_travel_step_back_rewinds() {
        let v = run_script(
            "rewind",
            "platform race\n\
             time-travel 4 16\n\
             step 6\n\
             expect pc 0 != 0\n\
             step-back\n\
             step-back\n",
        );
        assert!(v.passed(), "failures: {:?}", v.failures);
    }
}
