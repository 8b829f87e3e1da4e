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
//! `0x` hex; `OP` is one of `== != < <= > >=`.
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
//! step [N]                         # N single steps (default 1)
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
//! ```
//!
//! Every `expect` failure is recorded (with its line number) and execution
//! continues; a *command* error (unknown platform, malformed line, target
//! fault) aborts the script. A script passes iff it recorded no failures.

use std::fmt::Write as _;
use std::time::Instant;

use mpsoc_gdbrsp::{DebugTarget, StopReason, Target, WatchKind, PC_REG};
use mpsoc_vpdebug::Debugger;

use crate::testbed;

/// Default `run` step budget: generous for every committed workload but
/// bounded, so a wedged scenario fails instead of hanging CI.
pub const DEFAULT_BUDGET: u64 = 2_000_000;

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
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        engine.commands += 1;
        if let Err(msg) = engine.exec(lineno + 1, line) {
            engine
                .failures
                .push(format!("line {}: {msg} (script aborted)", lineno + 1));
            break;
        }
    }
    ScriptVerdict {
        name: name.to_string(),
        commands: engine.commands,
        checks: engine.checks,
        failures: engine.failures,
        secs: t0.elapsed().as_secs_f64(),
    }
}

/// Script interpreter state.
struct Engine {
    target: Option<DebugTarget>,
    budget: u64,
    last_stop: Option<StopReason>,
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
            commands: 0,
            checks: 0,
            failures: Vec::new(),
        }
    }

    fn target(&mut self) -> Result<&mut DebugTarget, String> {
        self.target
            .as_mut()
            .ok_or_else(|| "no platform loaded (use `platform NAME` first)".into())
    }

    /// Executes one command line. `Err` aborts the script; expectation
    /// misses are recorded in `failures` and return `Ok`.
    fn exec(&mut self, lineno: usize, line: &str) -> Result<(), String> {
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
                self.target = Some(DebugTarget::new(Debugger::new(p)));
                Ok(())
            }
            ["platform", path, software] if path.ends_with(".soc") => {
                let mut p = testbed::load_soc_file(path)?;
                testbed::install_software(software, &mut p)?;
                self.target = Some(DebugTarget::new(Debugger::new(p)));
                Ok(())
            }
            ["budget", n] => {
                self.budget = parse_num(n)?.max(1) as u64;
                Ok(())
            }
            ["break", pc] => {
                let pc = parse_num(pc)? as u32;
                self.target()?.insert_breakpoint(pc).map_err(stringify)
            }
            ["unbreak", pc] => {
                let pc = parse_num(pc)? as u32;
                self.target()?.remove_breakpoint(pc).map_err(stringify)
            }
            ["watch", kind, addr] | ["watch", kind, addr, _] => {
                let k = parse_watch_kind(kind)?;
                let a = parse_num(addr)? as u32;
                let len = if let [_, _, _, len] = words.as_slice() {
                    parse_num(len)?.max(1) as u32
                } else {
                    1
                };
                self.target()?
                    .insert_watchpoint(k, a, len)
                    .map_err(stringify)
            }
            ["unwatch", kind, addr] | ["unwatch", kind, addr, _] => {
                let k = parse_watch_kind(kind)?;
                let a = parse_num(addr)? as u32;
                let len = if let [_, _, _, len] = words.as_slice() {
                    parse_num(len)?.max(1) as u32
                } else {
                    1
                };
                self.target()?
                    .remove_watchpoint(k, a, len)
                    .map_err(stringify)
            }
            ["watch-signal", name] => self
                .target()?
                .monitor(&format!("watch-signal {name}"))
                .map(|_| ())
                .map_err(stringify),
            ["time-travel", interval, max] => self
                .target()?
                .monitor(&format!("time-travel {interval} {max}"))
                .map(|_| ())
                .map_err(stringify),
            ["run"] => {
                let budget = self.budget;
                let stop = self.target()?.cont(budget).map_err(stringify)?;
                self.last_stop = Some(stop);
                Ok(())
            }
            ["run", n] => {
                let budget = parse_num(n)?.max(1) as u64;
                let stop = self.target()?.cont(budget).map_err(stringify)?;
                self.last_stop = Some(stop);
                Ok(())
            }
            ["step"] => {
                let stop = self.target()?.step().map_err(stringify)?;
                self.last_stop = Some(stop);
                Ok(())
            }
            ["step", n] => {
                let n = parse_num(n)?.max(1);
                for _ in 0..n {
                    let stop = self.target()?.step().map_err(stringify)?;
                    self.last_stop = Some(stop);
                }
                Ok(())
            }
            ["step-back"] => {
                let out = self.target()?.monitor("step-back").map_err(stringify)?;
                if out.contains("cannot step back") {
                    return Err(out.trim().to_string());
                }
                Ok(())
            }
            ["inject", rest @ ..] if !rest.is_empty() => {
                // The monitor `stimulus-record` path: the stimulus both
                // applies now and lands in the replayable log.
                let cmd = format!("stimulus-record {}", rest.join(" "));
                self.target()?.monitor(&cmd).map(|_| ()).map_err(stringify)
            }
            ["expect", rest @ ..] => self.expect(lineno, rest),
            _ => Err(format!("unknown command {line:?}")),
        }
    }

    fn expect(&mut self, lineno: usize, words: &[&str]) -> Result<(), String> {
        self.checks += 1;
        match words {
            ["stop", class] => {
                let got = match &self.last_stop {
                    Some(stop) => stop_class(stop),
                    None => return Err("no run/step before `expect stop`".into()),
                };
                if got != *class {
                    self.fail(
                        lineno,
                        format!(
                            "expected stop {class}, got {got} ({:?})",
                            self.last_stop.as_ref().expect("checked above")
                        ),
                    );
                }
                Ok(())
            }
            ["watch-addr", op, val] => {
                let want = parse_num(val)?;
                let got = match &self.last_stop {
                    Some(StopReason::Watch { addr, .. }) => i64::from(*addr),
                    other => {
                        let msg = format!("last stop is not a watchpoint: {other:?}");
                        self.fail(lineno, msg);
                        return Ok(());
                    }
                };
                let op = parse_op(op)?;
                if !op.eval(got, want) {
                    self.fail(
                        lineno,
                        format!("watch-addr {got:#x} !{} {want:#x}", op.name()),
                    );
                }
                Ok(())
            }
            ["reg", core, reg, op, val] => {
                let core = parse_num(core)? as usize;
                let reg = if *reg == "pc" {
                    PC_REG
                } else {
                    parse_num(reg)? as usize
                };
                let regs = self.target()?.read_registers(core).map_err(stringify)?;
                let got = *regs
                    .get(reg)
                    .ok_or_else(|| format!("register {reg} out of range"))?
                    as i64;
                self.check(lineno, &format!("reg {core} r{reg}"), got, op, val)
            }
            ["pc", core, op, val] => {
                let core = parse_num(core)? as usize;
                let regs = self.target()?.read_registers(core).map_err(stringify)?;
                let got = regs[PC_REG] as i64;
                self.check(lineno, &format!("pc {core}"), got, op, val)
            }
            ["mem", addr, op, val] => {
                let a = parse_num(addr)? as u32;
                let got = self.target()?.read_mem(a, 1).map_err(stringify)?[0] as i64;
                self.check(lineno, &format!("mem {a:#x}"), got, op, val)
            }
            ["sig", name, op, val] => {
                let got = self.target()?.debugger().signal(name);
                self.check(lineno, &format!("sig {name}"), got, op, val)
            }
            ["sigedges", name, op, val] => {
                let got = self.target()?.debugger().signal_edges(name).len() as i64;
                self.check(lineno, &format!("sigedges {name}"), got, op, val)
            }
            ["sum", addr, len, op, val] => {
                let a = parse_num(addr)? as u32;
                let len = parse_num(len)?.max(0) as u32;
                let words = self.target()?.read_mem(a, len).map_err(stringify)?;
                let got = words.iter().map(|&w| w as i64).sum::<i64>();
                self.check(lineno, &format!("sum {a:#x} +{len}"), got, op, val)
            }
            _ => Err(format!("unknown expectation `expect {}`", words.join(" "))),
        }
    }

    /// Evaluates `got OP val` and records a failure on a miss.
    fn check(
        &mut self,
        lineno: usize,
        what: &str,
        got: i64,
        op: &str,
        val: &str,
    ) -> Result<(), String> {
        let want = parse_num(val)?;
        let op = parse_op(op)?;
        if !op.eval(got, want) {
            self.fail(
                lineno,
                format!("{what} is {got}, expected {} {want}", op.name()),
            );
        }
        Ok(())
    }

    fn fail(&mut self, lineno: usize, msg: String) {
        self.failures.push(format!("line {lineno}: {msg}"));
    }
}

/// Comparison operators scripts can use in expectations.
#[derive(Clone, Copy, Debug)]
enum Op {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Op {
    fn eval(self, got: i64, want: i64) -> bool {
        match self {
            Op::Eq => got == want,
            Op::Ne => got != want,
            Op::Lt => got < want,
            Op::Le => got <= want,
            Op::Gt => got > want,
            Op::Ge => got >= want,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Op::Eq => "==",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }
}

fn parse_op(s: &str) -> Result<Op, String> {
    match s {
        "==" => Ok(Op::Eq),
        "!=" => Ok(Op::Ne),
        "<" => Ok(Op::Lt),
        "<=" => Ok(Op::Le),
        ">" => Ok(Op::Gt),
        ">=" => Ok(Op::Ge),
        _ => Err(format!("unknown operator {s:?}")),
    }
}

fn parse_watch_kind(s: &str) -> Result<WatchKind, String> {
    match s {
        "write" => Ok(WatchKind::Write),
        "read" => Ok(WatchKind::Read),
        "access" => Ok(WatchKind::Access),
        _ => Err(format!("watch kind must be write|read|access, got {s:?}")),
    }
}

/// Parses a decimal or `0x` hex number (optionally negative).
fn parse_num(s: &str) -> Result<i64, String> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| format!("bad number {s:?}"))?;
    Ok(if neg { -v } else { v })
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

fn stringify(e: mpsoc_gdbrsp::Error) -> String {
    e.to_string()
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
