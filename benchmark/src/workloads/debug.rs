//! `debug_interactive` and `debug_rewind` — GDB-RSP sessions against
//! car_radio loaded from its `.soc` file, one client, closed loop.
//!
//! Both replay one seed-derived command schedule per run, session after
//! session, each against a fresh platform — as framed packets through
//! `Session::handle_bytes` in the timed loop, and by direct `Target` calls
//! for the golden reference built during set-up.
//!
//! The timed op is the *server side* of a packet: framed request bytes in,
//! framed reply bytes out. The in-memory duplex pipe and its two threads
//! are deliberately not in the timed loop: a cross-thread wake-up costs
//! 8-50 us on a shared 2-vCPU host depending on what its neighbours do —
//! 3-20x the 2.7 us the program itself spends per packet — so an
//! end-to-end figure that included it would report the host, not the
//! program. The traced run of `debug_interactive` measures the full duplex
//! round trip as a probe (`gdbrsp.transport_us_p50`, `gdbrsp.rtt_us_p99`).
//!
//! * `debug_interactive` — the latency workload. Attach (`qSupported`,
//!   `QStartNoAckMode`, `?`), one bounded `c`, then inspect rounds of `Hg`,
//!   `g`, `m<addr>,<len>`, `s` x4. gdbrsp framing/dispatch and the
//!   per-step checks of vpdebug do the work; snapshots and the DSE crates
//!   do none. Work unit: one answered `g`/`m`/`s` packet. Op: its service
//!   time.
//! * `debug_rewind` — time travel. `monitor time-travel 256 64`, one
//!   bounded `c`, then 256 x (`s` x4 + `monitor step-back`).
//!   Periodic checkpoint *capture* (the write side of the snapshot layer)
//!   sets the continue rate; restore-plus-replay sets the step-back
//!   latency. Work unit: one simulated step inside a `c` packet
//!   (`work_per_s` is steps per second inside `c`). Op: one `monitor
//!   step-back`.

use std::time::{Duration, Instant};

use crate::gen::{self, InspectRound};
use crate::harness::{self, LayerMetrics, Pins, Samples, Workload};
use crate::layers::{self, DebugTarget, Res, RspSession, Time};
use crate::stats;
use crate::trace::Tracer;

use super::snapshot_probes;

const CORES: usize = 4;

fn make_target() -> Res<DebugTarget> {
    let soc = harness::input_path("car_radio.soc");
    Ok(layers::debug_target(layers::load_platform(
        &soc,
        "car_radio",
    )?))
}

/// An attached RSP session plus the bookkeeping every packet shares.
struct Client<'a> {
    session: RspSession,
    tr: &'a mut Tracer,
    out: &'a mut Samples,
    /// Packets served and bytes moved (framed request + framed reply).
    packets: u64,
    bytes: u64,
}

impl<'a> Client<'a> {
    /// Builds a fresh target (platform load included, as `mpsoc-gdb` does
    /// per connection) and performs the attach handshake. Returns the
    /// client and the attach latency: session start to the `?` reply.
    fn attach(cont_budget: u64, tr: &'a mut Tracer, out: &'a mut Samples) -> Res<(Self, Duration)> {
        let open = tr.begin("gdbrsp.attach");
        let target = tr.call("apps.load_platform", make_target).0?;
        let mut c = Client {
            session: layers::rsp_session(target, cont_budget),
            tr,
            out,
            packets: 0,
            bytes: 0,
        };
        let supported = c.packet("qSupported").0;
        c.out.check(supported.contains("PacketSize"), || {
            format!("qSupported reply {supported:?}")
        });
        c.expect("QStartNoAckMode", "OK");
        c.expect("?", "S05");
        let d = c.tr.end(open);
        Ok((c, d))
    }

    /// Serves one framed command. A malformed or `E..` reply counts as a
    /// failed operation.
    fn packet(&mut self, cmd: &str) -> (String, Duration) {
        let (raw, d) = self.tr.call("gdbrsp.handle_bytes", || {
            layers::rsp_dispatch(&mut self.session, cmd)
        });
        self.packets += 1;
        // `$` + payload + `#xx` on the way in, the framed reply on the way out.
        self.bytes += (cmd.len() + 4 + raw.len()) as u64;
        let reply = layers::rsp_reply_payload(&raw);
        let reply = self.out.attempt(cmd, reply).unwrap_or_default();
        if reply.starts_with('E') {
            self.out
                .failures
                .push(format!("{cmd}: error reply {reply}"));
        }
        (reply, d)
    }

    /// A packet that counts as one unit of work and one op sample.
    fn sampled(&mut self, cmd: &str) -> String {
        let (reply, d) = self.packet(cmd);
        self.out.op(d);
        self.out.did(1, d);
        reply
    }

    fn expect(&mut self, cmd: &str, want: &str) -> Duration {
        let (reply, d) = self.packet(cmd);
        self.out.check(reply == want, || {
            format!("{cmd}: reply {reply:?}, want {want:?}")
        });
        d
    }

    /// A `monitor` command; returns its decoded console text.
    fn monitor(&mut self, cmd: &str) -> (String, Duration) {
        let (reply, d) = self.packet(&layers::rsp_monitor_packet(cmd));
        let text = layers::rsp_monitor_text(&reply);
        (self.out.attempt(cmd, text).unwrap_or_default(), d)
    }

    /// Checks the final state checksum and detaches.
    fn finish(mut self, golden_checksum: &str) {
        let (text, _) = self.monitor("state-checksum");
        self.out.check(text.trim() == golden_checksum, || {
            format!("state-checksum {:?}, golden {golden_checksum}", text.trim())
        });
        self.expect("D", "OK");
    }
}

// ------------------------------------------------------ debug_interactive

/// Steps the one `c` of an interactive session may run.
const WARM_STEPS: u64 = 20_000;
/// Inspect rounds per session.
const ROUNDS: usize = 400;
const STEPS_PER_ROUND: usize = 4;

/// State of `debug_interactive`.
pub struct Interactive {
    schedule: Vec<InspectRound>,
    /// From the direct-call golden run: the `g` payload of the last round
    /// and the final `state-checksum` text.
    golden_regs: String,
    golden_checksum: String,
    attach_us: Vec<f64>,
    /// Packets and bytes of session 0 (identical for every session).
    traffic: (u64, u64),
}

fn mem_packet(r: &InspectRound) -> String {
    format!("m{:x},{:x}", r.addr, r.len)
}

impl Workload for Interactive {
    const NAME: &'static str = "debug_interactive";
    const MIN_ITERATIONS: u64 = 1;

    fn setup(seed: u64) -> Res<Self> {
        let schedule = gen::inspect_schedule(seed, ROUNDS, CORES);
        let mut t = make_target()?;
        layers::target_cont(&mut t, WARM_STEPS)?;
        let mut regs = Vec::new();
        for r in &schedule {
            regs = layers::target_read_registers(&t, r.thread - 1)?;
            layers::target_read_mem(&t, r.addr, r.len)?;
            for _ in 0..STEPS_PER_ROUND {
                layers::target_step(&mut t)?;
            }
        }
        Ok(Interactive {
            schedule,
            golden_regs: layers::rsp_regs_hex(&regs),
            golden_checksum: layers::target_checksum(&t),
            attach_us: Vec::new(),
            traffic: (0, 0),
        })
    }

    fn iterate(&mut self, index: u64, tr: &mut Tracer, out: &mut Samples) {
        let attached = Client::attach(WARM_STEPS, tr, out);
        let (mut c, attach) = match attached {
            Ok(ok) => ok,
            Err(e) => return out.check(false, || format!("attach: {e}")),
        };
        self.attach_us.push(attach.as_secs_f64() * 1e6);
        c.expect("c", "S02");
        let mut last_regs = String::new();
        for r in &self.schedule {
            c.expect(&format!("Hg{:x}", r.thread), "OK");
            last_regs = c.sampled("g");
            let mem = c.sampled(&mem_packet(r));
            c.out.check(mem.len() == r.len as usize * 16, || {
                format!("{}: {} hex digits", mem_packet(r), mem.len())
            });
            for _ in 0..STEPS_PER_ROUND {
                let stop = c.sampled("s");
                c.out.check(stop == "S05", || format!("s: reply {stop:?}"));
            }
        }
        c.out.check(last_regs == self.golden_regs, || {
            "last `g` reply differs from the direct-call golden run".into()
        });
        if index == 0 {
            self.traffic = (c.packets, c.bytes);
        }
        c.finish(&self.golden_checksum);
    }

    fn check(&mut self, _out: &mut Samples) -> Pins {
        vec![
            ("state_checksum".into(), self.golden_checksum.clone()),
            (
                "last_regs_digest".into(),
                format!("{:#018x}", layers::fnv(self.golden_regs.as_bytes())),
            ),
        ]
    }

    fn layer_metrics(
        &mut self,
        _tr: &mut Tracer,
        out: &mut Samples,
        m: &mut LayerMetrics,
        quick: bool,
    ) {
        let dispatch = stats::median(&out.all_op_us).unwrap_or(0.0);
        stats::sort(&mut self.attach_us);
        m.insert("gdbrsp.dispatch_us_p50", dispatch);
        m.insert(
            "apps.attach_us_p50",
            stats::median(&self.attach_us).unwrap_or(0.0),
        );
        m.insert(
            "gdbrsp.bytes_per_packet",
            self.traffic.1 as f64 / self.traffic.0.max(1) as f64,
        );

        // The split around the timed `Session::handle_bytes` is taken level
        // by level on the identical schedule: direct `Target` calls below
        // it, the full duplex round trip (server on its own thread) above.
        let rounds = &self.schedule[..if quick { 8 } else { ROUNDS }];
        let probes = (|| -> Res<()> {
            let mut direct = Vec::new();
            let mut time = |f: &mut dyn FnMut() -> Res<()>| -> Res<()> {
                let t0 = Instant::now();
                f()?;
                direct.push(t0.elapsed().as_secs_f64() * 1e6);
                Ok(())
            };
            let mut t = make_target()?;
            layers::target_cont(&mut t, WARM_STEPS)?;
            for r in rounds {
                time(&mut || layers::target_read_registers(&t, r.thread - 1).map(drop))?;
                time(&mut || layers::target_read_mem(&t, r.addr, r.len).map(drop))?;
                for _ in 0..STEPS_PER_ROUND {
                    time(&mut || layers::target_step(&mut t))?;
                }
            }
            stats::sort(&mut direct);
            m.insert(
                "gdbrsp.self_us_p50",
                dispatch - stats::median(&direct).unwrap_or(0.0),
            );

            let mut rtt = Vec::new();
            for _ in 0..if quick { 1 } else { 5 } {
                let (mut client, server) = layers::rsp_connect(make_target, WARM_STEPS);
                for cmd in ["QStartNoAckMode", "c"] {
                    layers::rsp_command(&mut client, cmd)?;
                }
                for r in rounds {
                    layers::rsp_command(&mut client, &format!("Hg{:x}", r.thread))?;
                    let mut cmds = vec!["g".to_string(), mem_packet(r)];
                    cmds.extend(std::iter::repeat_n("s".to_string(), STEPS_PER_ROUND));
                    for cmd in cmds {
                        let t0 = Instant::now();
                        layers::rsp_command(&mut client, &cmd)?;
                        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                }
                layers::rsp_command(&mut client, "D")?;
                server
                    .join()
                    .unwrap_or_else(|_| Err("server thread panicked".into()))?;
            }
            stats::sort(&mut rtt);
            m.insert(
                "gdbrsp.transport_us_p50",
                stats::median(&rtt).unwrap_or(0.0) - dispatch,
            );
            m.insert(
                "gdbrsp.rtt_us_p99",
                stats::percentile(&rtt, 99.0).unwrap_or(0.0),
            );

            let soc = harness::input_path("car_radio.soc");
            m.insert(
                "apps.load_soc_us",
                harness::median_us_of(if quick { 3 } else { 50 }, || {
                    layers::load_soc(&soc).map(drop)
                })?,
            );
            Ok(())
        })();
        out.attempt("debug_interactive probes", probes);
    }
}

// ----------------------------------------------------------- debug_rewind

/// Steps per `c` packet, before the seed-derived offset (0..1000) that
/// shifts where each run's step-backs start between two checkpoints.
const CONT_STEPS: u64 = 20_000;
/// Checkpoint interval and retention of `monitor time-travel`.
const TT_INTERVAL: u64 = 256;
const TT_CHECKPOINTS: usize = 64;
/// Each repetition is `s` x4 + `monitor step-back`: a net 3 steps forward.
const STEPS_PER_BACK: usize = 4;
/// Repetitions per round. 3 and 256 are coprime, so 256 repetitions rewind
/// from every distance to a checkpoint (0..255) exactly once: the step-back
/// latency distribution does not depend on where the round started.
const BACKS: usize = TT_INTERVAL as usize;

/// State of `debug_rewind`.
pub struct Rewind {
    cont_steps: u64,
    /// Core-0 `g` payload after the step-backs and the final checksum, from
    /// a forward-only direct-call run with time travel off: stepping back
    /// must land on exactly the states stepping forward passed through.
    golden_regs: String,
    golden_checksum: String,
}

impl Workload for Rewind {
    const NAME: &'static str = "debug_rewind";
    const MIN_ITERATIONS: u64 = 1;

    fn setup(seed: u64) -> Res<Self> {
        let cont_steps = CONT_STEPS + gen::rewind_offset_steps(seed);
        let mut t = make_target()?;
        layers::target_cont(&mut t, cont_steps)?;
        for _ in 0..BACKS * (STEPS_PER_BACK - 1) {
            layers::target_step(&mut t)?;
        }
        Ok(Rewind {
            cont_steps,
            golden_regs: layers::rsp_regs_hex(&layers::target_read_registers(&t, 0)?),
            golden_checksum: layers::target_checksum(&t),
        })
    }

    fn iterate(&mut self, _index: u64, tr: &mut Tracer, out: &mut Samples) {
        let attached = Client::attach(self.cont_steps, tr, out);
        let mut c = match attached {
            Ok((c, _)) => c,
            Err(e) => return out.check(false, || format!("attach: {e}")),
        };
        let (text, _) = c.monitor(&format!("time-travel {TT_INTERVAL} {TT_CHECKPOINTS}"));
        c.out.check(text.starts_with("time travel on"), || {
            format!("time-travel: {text:?}")
        });
        let d = c.expect("c", "S02");
        c.out.did(self.cont_steps, d);
        for _ in 0..BACKS {
            for _ in 0..STEPS_PER_BACK {
                c.expect("s", "S05");
            }
            let (text, d) = c.monitor("step-back");
            c.out.op(d);
            c.out.check(text.starts_with("at step"), || {
                format!("step-back: {text:?}")
            });
        }
        let (regs, _) = c.packet("g");
        c.out.check(regs == self.golden_regs, || {
            "registers after step-back differ from the forward-only golden run".into()
        });
        c.finish(&self.golden_checksum);
    }

    fn check(&mut self, _out: &mut Samples) -> Pins {
        vec![
            ("state_checksum".into(), self.golden_checksum.clone()),
            (
                "regs_digest".into(),
                format!("{:#018x}", layers::fnv(self.golden_regs.as_bytes())),
            ),
        ]
    }

    fn layer_metrics(
        &mut self,
        _tr: &mut Tracer,
        out: &mut Samples,
        m: &mut LayerMetrics,
        quick: bool,
    ) {
        let probes = (|| -> Res<()> {
            // The same schedule by direct Debugger calls.
            let soc = harness::input_path("car_radio.soc");
            let mut dbg = layers::debugger(layers::load_platform(&soc, "car_radio")?);
            layers::debugger_time_travel(&mut dbg, TT_INTERVAL, TT_CHECKPOINTS)?;
            let cont = if quick {
                self.cont_steps / 10
            } else {
                self.cont_steps
            };
            if !layers::debugger_run(&mut dbg, cont)? {
                return Err("car_radio stopped before its step budget".into());
            }
            let mut back_us = Vec::new();
            let mut replayed = 0u64;
            for _ in 0..if quick { 8 } else { BACKS } {
                for _ in 0..STEPS_PER_BACK {
                    layers::debugger_step(&mut dbg)?;
                }
                let (steps, checkpoints, _) = layers::debugger_ring(&dbg);
                let target = steps - 1;
                let from = checkpoints.iter().rev().find(|&&c| c <= target);
                replayed += target - from.ok_or("no checkpoint to rewind to")?;
                let t0 = Instant::now();
                let moved = layers::debugger_step_back(&mut dbg)?;
                back_us.push(t0.elapsed().as_secs_f64() * 1e6);
                if !moved {
                    return Err("step_back refused inside the rewind horizon".into());
                }
            }
            stats::sort(&mut back_us);
            let (_, checkpoints, ring_bytes) = layers::debugger_ring(&dbg);
            m.insert(
                "vpdebug.step_back_us_p50",
                stats::median(&back_us).unwrap_or(0.0),
            );
            m.insert(
                "vpdebug.replay_steps_per_back",
                replayed as f64 / back_us.len() as f64,
            );
            m.insert("vpdebug.ring_checkpoints", checkpoints.len() as f64);
            m.insert("vpdebug.ring_bytes", ring_bytes as f64);

            // Capture/restore costs on the car_radio state itself.
            let mut p = layers::load_platform(&soc, "car_radio")?;
            layers::platform_run_until(&mut p, Time::from_ms(1))?;
            snapshot_probes(&mut p, m, quick)
        })();
        out.attempt("debug_rewind probes", probes);
    }
}
