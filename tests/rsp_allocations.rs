//! A warm GDB-RSP session serves a packet without allocating.
//!
//! car_radio under the debugger, its trace ring already full: the framer
//! unescapes each request into the buffer it owns, register and memory
//! reads fill buffers the session reuses, and the reply is framed straight
//! into the caller's transmit buffer. So `Session::handle_bytes_into`
//! serves the inspect loop of an interactive debugger — `Hg`, `g`,
//! `m<addr>,28`, `s` — with no allocation at all, and `handle_bytes` with
//! exactly one: the `Vec` it returns.

use mpsoc_suite::apps::testbed;
use mpsoc_suite::gdbrsp::{encode_packet, DebugTarget, Session, NUM_REGS};
use mpsoc_suite::vpdebug::Debugger;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without a destructor: touching it from inside
    // the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // A thread being torn down has no counter left; nobody is asking.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting allocations per thread (the test harness
/// runs the tests of this file on threads of their own).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is plain thread-local data
// and never touches the heap (see `ALLOCATIONS`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: `layout` is the caller's, passed on as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How many times `f` allocated (or grew an allocation) on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    f();
    ALLOCATIONS.get() - before
}

/// Steps the attach `c` runs: enough to fill the debugger's trace ring.
const WARM_UP: u64 = 30_000;
/// Inspect rounds measured.
const ROUNDS: u32 = 500;
/// Words an `m` packet reads (`m<addr>,28`).
const MEM_WORDS: usize = 0x28;

/// One inspect round's requests, framed: `Hg<thread>`, `g`,
/// `m<addr>,28`, `s`.
fn round(i: u32) -> [Vec<u8>; 4] {
    [
        encode_packet(format!("Hg{}", 1 + i % 4).as_bytes()),
        encode_packet(b"g"),
        encode_packet(format!("m{:x},{MEM_WORDS:x}", (i * 37) % 0xe00).as_bytes()),
        encode_packet(b"s"),
    ]
}

/// Framed reply lengths of one round without acks: `$OK#9a`, the `g` and
/// `m` hex, `$S05#b8`.
const REPLY_BYTES: usize = 6 + (4 + NUM_REGS * 16) + (4 + MEM_WORDS * 16) + 7;

/// A session on car_radio past `WARM_UP` steps, every round's requests
/// served once, in ack mode or not.
fn warm_session(ack: bool) -> (Session<DebugTarget>, Vec<[Vec<u8>; 4]>) {
    let dbg = Debugger::new(testbed::by_name("car_radio").expect("the testbed"));
    let mut session = Session::new(DebugTarget::new(dbg));
    session.set_cont_budget(WARM_UP);
    let mut out = Vec::new();
    if !ack {
        session.handle_bytes_into(&encode_packet(b"QStartNoAckMode"), &mut out);
    }
    session.handle_bytes_into(&encode_packet(b"c"), &mut out);
    assert!(out.ends_with(b"$S02#b5"), "{}", out.escape_ascii());
    let rounds: Vec<_> = (0..ROUNDS).map(round).collect();
    for packet in rounds.iter().flatten() {
        session.handle_bytes_into(packet, &mut out);
    }
    (session, rounds)
}

#[test]
fn a_warm_packet_through_handle_bytes_into_allocates_nothing() {
    for ack in [true, false] {
        let (mut session, rounds) = warm_session(ack);
        let mut out = Vec::with_capacity(4096);
        let mut served = 0;
        let allocated = allocations(|| {
            for packet in rounds.iter().flatten() {
                out.clear();
                session.handle_bytes_into(packet, &mut out);
                served += out.len();
            }
        });
        let acks = if ack { 4 } else { 0 };
        assert_eq!(served, ROUNDS as usize * (REPLY_BYTES + acks), "ack {ack}");
        assert_eq!(allocated, 0, "ack {ack}, over {ROUNDS} rounds");
    }
}

#[test]
fn handle_bytes_allocates_only_the_reply_it_returns() {
    let (mut session, rounds) = warm_session(true);
    for packet in rounds.iter().flatten() {
        session.handle_bytes(packet);
    }
    let (mut packets, mut served) = (0, 0);
    let allocated = allocations(|| {
        for packet in rounds.iter().flatten() {
            served += std::hint::black_box(session.handle_bytes(packet)).len();
            packets += 1;
        }
    });
    assert_eq!(served, ROUNDS as usize * (REPLY_BYTES + 4));
    assert_eq!(allocated, packets, "one per packet");
}
