//! A warm step allocates nothing — in the platform's own loop, through the
//! in-place call, and under the debugger with its trace ring full.
//!
//! car_radio is the testbed that would show it: four in ten of its steps
//! carry an access and one in forty completes a DMA burst of 64 or 96. The
//! platform writes each step into the one event it owns and reuses
//! that event's access buffer; the debugger's trace copies the step into two
//! flat rings that stop growing once they hold the retained history.

use mpsoc_suite::apps::testbed;
use mpsoc_suite::obs::metrics::MetricsRegistry;
use mpsoc_suite::platform::platform::{Platform, StepEvent, StepKind};
use mpsoc_suite::platform::Time;
use mpsoc_suite::vpdebug::{Debugger, Stop};
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

const WARM_UP: u64 = 30_000;
const MEASURED: u64 = 20_000;

/// car_radio, `WARM_UP` steps in.
fn warm_car_radio() -> Platform {
    let mut p = testbed::by_name("car_radio").expect("the car_radio testbed");
    for _ in 0..WARM_UP {
        p.step_in_place().expect("car_radio steps");
    }
    p
}

fn is_dma(kind: &StepKind) -> bool {
    matches!(kind, StepKind::DmaComplete { .. })
}

#[test]
fn run_until_with_allocates_nothing() {
    let mut p = warm_car_radio();
    let (mut steps, mut bursts) = (0, 0);
    let mut deadline = p.now();
    let allocated = allocations(|| {
        while steps < MEASURED {
            deadline = Time::from_ps(deadline.as_ps() + Time::from_us(1).as_ps());
            let visit =
                |ev: &StepEvent| bursts += u64::from(is_dma(&std::hint::black_box(ev).kind));
            steps += p.run_until_with(deadline, None, visit).expect("steps");
        }
    });
    assert!(bursts >= 400, "{bursts} DMA completions in {steps} steps");
    assert_eq!(allocated, 0, "over {steps} steps");
}

#[test]
fn step_in_place_allocates_nothing() {
    let mut p = warm_car_radio();
    let mut bursts = 0;
    let allocated = allocations(|| {
        for _ in 0..MEASURED {
            p.step_in_place().expect("car_radio steps");
            bursts += u64::from(is_dma(&p.last_event().kind));
        }
    });
    assert!(bursts >= 400, "{bursts} DMA completions");
    assert_eq!(allocated, 0);
}

#[test]
fn the_debugger_allocates_nothing_once_its_trace_ring_is_full() {
    let mut dbg = Debugger::new(testbed::by_name("car_radio").expect("the testbed"));
    assert_eq!(dbg.run(WARM_UP).expect("runs"), Stop::Budget);
    assert!(dbg.trace().dropped() > 0, "the ring is full and evicting");
    let mut stop = None;
    let allocated = allocations(|| stop = Some(dbg.run(MEASURED)));
    assert_eq!(stop.expect("ran").expect("runs"), Stop::Budget);
    assert_eq!(dbg.platform().steps(), WARM_UP + MEASURED);
    assert_eq!(allocated, 0, "over {MEASURED} steps");
}

#[test]
fn a_warm_step_back_allocates_nothing() {
    // `debug_rewind`'s rhythm: four steps forward, one back. Each step-back
    // swaps the state it leaves with the one the previous step-back left
    // and replays two steps from there; once the first few have grown the
    // buffers a swap moves between, none allocates. (The steps forward are
    // not counted: every 256th takes a checkpoint, which owns its bytes.
    // Nor are the step-backs that restore such a new checkpoint, because
    // it lies past the parked state: they decode it.)
    let registry = MetricsRegistry::new();
    let mut dbg = Debugger::new(testbed::by_name("car_radio").expect("the testbed"));
    dbg.attach_metrics(&registry);
    dbg.enable_time_travel(256, 64)
        .expect("time travel enables");
    assert_eq!(dbg.run(20_000).expect("runs"), Stop::Budget);
    let from_park = registry.counter("vpdebug.rewinds_from_park");
    // The allocations of one round's step-back, if it replayed from the
    // parked state.
    let round = |dbg: &mut Debugger| {
        for _ in 0..4 {
            assert_eq!(dbg.step().expect("steps"), None);
        }
        let parked = from_park.get();
        let mut moved = false;
        let allocated = allocations(|| moved = dbg.step_back().expect("steps back"));
        assert!(moved);
        (from_park.get() > parked).then_some(allocated)
    };
    for _ in 0..8 {
        round(&mut dbg);
    }
    let warm: Vec<u64> = (0..200).filter_map(|_| round(&mut dbg)).collect();
    assert!(warm.len() >= 197, "{} of 200 from the park", warm.len());
    assert_eq!(
        warm.iter().sum::<u64>(),
        0,
        "over {} step-backs",
        warm.len()
    );
    assert_eq!(dbg.platform().steps(), 20_000 + 208 * 3);
}
