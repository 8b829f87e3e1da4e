//! End-to-end GDB-RSP session parity test.
//!
//! Drives a full debug session over the in-memory duplex transport —
//! attach, read registers, set a breakpoint, continue, hit, rewind with
//! `monitor step-back` — and asserts the state seen over the wire is
//! **bit-identical** to the same sequence performed directly through the
//! `vpdebug` API on a second instance of the same deterministic platform.

use mpsoc_suite::gdbrsp::packet::from_hex;
use mpsoc_suite::gdbrsp::{duplex_pair, serve, DebugTarget, RspClient, Session, NUM_REGS, PC_REG};
use mpsoc_suite::vpdebug::{Debugger, Stop};

/// Hex-encodes a monitor command the way GDB's `qRcmd` does.
fn qrcmd(cmd: &str) -> String {
    let hex: String = cmd.bytes().map(|b| format!("{b:02x}")).collect();
    format!("qRcmd,{hex}")
}

/// Decodes a `qRcmd` reply (hex-encoded console text).
fn qrcmd_text(reply: &str) -> String {
    String::from_utf8(from_hex(reply).expect("qRcmd reply is hex")).expect("utf8")
}

/// Decodes a `g` reply into the NUM_REGS raw 64-bit register values.
fn decode_g(reply: &str) -> Vec<u64> {
    let bytes = from_hex(reply).expect("g reply is hex");
    assert_eq!(bytes.len(), NUM_REGS * 8, "g carries all registers");
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

#[test]
fn rsp_session_matches_direct_vpdebug_bit_for_bit() {
    const BREAK_PC: u32 = 3; // the race loop head
    let platform = || mpsoc_suite::apps::testbed::by_name("race").expect("race platform builds");

    // --- Wire side: full protocol over the duplex transport. -------------
    let (server_end, client_end) = duplex_pair();
    let server = std::thread::spawn(move || {
        let mut session = Session::new(DebugTarget::new(Debugger::new(platform())));
        let mut end = server_end;
        serve(&mut session, &mut end).expect("serve loop");
    });
    let mut gdb = RspClient::new(client_end);

    assert!(gdb.command("qSupported").unwrap().contains("PacketSize"));
    assert_eq!(gdb.command("QStartNoAckMode").unwrap(), "OK");
    assert_eq!(gdb.command("?").unwrap(), "S05");

    // Attach-time registers: everything is at reset.
    let at_reset = decode_g(&gdb.command("g").unwrap());
    assert!(at_reset.iter().all(|&r| r == 0), "reset state is clean");

    // Enable time travel, set the breakpoint, continue to the hit.
    let out = qrcmd_text(&gdb.command(&qrcmd("time-travel 4 64")).unwrap());
    assert!(out.contains("time travel on"), "{out}");
    assert_eq!(gdb.command(&format!("Z0,{BREAK_PC:x},4")).unwrap(), "OK");
    let stop = gdb.command("c").unwrap();
    assert!(
        stop.starts_with("T05swbreak:"),
        "breakpoint stop, got {stop}"
    );

    let at_break = decode_g(&gdb.command("g").unwrap());
    assert_eq!(
        at_break[PC_REG],
        u64::from(BREAK_PC),
        "stopped at the loop head"
    );
    let sum_at_break = qrcmd_text(&gdb.command(&qrcmd("state-checksum")).unwrap());

    // One step forward, then rewind: the step-back must restore the
    // at-breakpoint machine exactly.
    gdb.command("s").unwrap();
    let sum_stepped = qrcmd_text(&gdb.command(&qrcmd("state-checksum")).unwrap());
    assert_ne!(sum_stepped, sum_at_break, "the step changed the platform");
    let out = qrcmd_text(&gdb.command(&qrcmd("step-back")).unwrap());
    assert!(out.contains("at step"), "{out}");
    let rewound = decode_g(&gdb.command("g").unwrap());
    assert_eq!(
        rewound, at_break,
        "step-back restored registers bit-identically"
    );
    let sum_rewound = qrcmd_text(&gdb.command(&qrcmd("state-checksum")).unwrap());
    assert_eq!(sum_rewound, sum_at_break, "whole-platform state restored");

    assert_eq!(gdb.command("D").unwrap(), "OK");
    server.join().expect("server thread");

    // --- Direct side: same sequence straight through vpdebug. ------------
    let mut dbg = Debugger::new(platform());
    dbg.enable_time_travel(4, 64).expect("time travel on");
    for core in 0..dbg.platform().num_cores() {
        dbg.add_breakpoint(core, BREAK_PC);
    }
    match dbg.run(1_000_000).expect("direct run") {
        Stop::Breakpoint { pc, .. } => assert_eq!(pc, BREAK_PC),
        other => panic!("expected a breakpoint, got {other:?}"),
    }

    // Register-file parity with the wire session, bit for bit (the `g`
    // packet reported core 0, the session's default thread).
    let core = dbg.core_regs(0).expect("core 0");
    let mut direct: Vec<u64> = core.regs().iter().map(|&w| w as u64).collect();
    direct.push(u64::from(core.pc()));
    assert_eq!(
        at_break, direct,
        "wire and direct registers are bit-identical"
    );

    // Whole-platform parity: the checksum GDB saw is the checksum the
    // direct API computes at the same deterministic stop.
    let direct_sum = dbg.platform().state_checksum();
    assert_eq!(
        sum_at_break.trim(),
        format!("{direct_sum:#018x}"),
        "wire and direct state checksums agree"
    );
}

/// A memory write (`M`) and a register write (`P`) made between two steps
/// are part of the timeline: a `monitor step-back` to a step after them
/// replays them from the checkpoint it restores.
#[test]
fn gdb_writes_survive_a_step_back() {
    let platform = mpsoc_suite::apps::testbed::by_name("race").expect("race platform builds");
    let (server_end, client_end) = duplex_pair();
    let server = std::thread::spawn(move || {
        let mut session = Session::new(DebugTarget::new(Debugger::new(platform)));
        let mut end = server_end;
        serve(&mut session, &mut end).expect("serve loop");
    });
    let mut gdb = RspClient::new(client_end);
    assert_eq!(gdb.command("QStartNoAckMode").unwrap(), "OK");

    let out = qrcmd_text(&gdb.command(&qrcmd("time-travel 8 32")).unwrap());
    assert!(out.contains("time travel on"), "{out}");
    for _ in 0..10 {
        gdb.command("s").unwrap();
    }
    // An address and a register the race program never touches.
    let word = 0x1234_5678_u64;
    let hex = |v: u64| -> String { v.to_le_bytes().iter().map(|b| format!("{b:02x}")).collect() };
    assert_eq!(gdb.command(&format!("M100,1:{}", hex(word))).unwrap(), "OK");
    assert_eq!(gdb.command(&format!("P7={}", hex(word + 1))).unwrap(), "OK");
    gdb.command("s").unwrap();
    gdb.command("s").unwrap();

    let out = qrcmd_text(&gdb.command(&qrcmd("step-back")).unwrap());
    assert!(out.contains("at step 11"), "{out}");
    assert_eq!(gdb.command("m100,1").unwrap(), hex(word), "the M write");
    assert_eq!(gdb.command("p7").unwrap(), hex(word + 1), "the P write");

    assert_eq!(gdb.command("D").unwrap(), "OK");
    server.join().expect("server thread");
}
