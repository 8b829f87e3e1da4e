//! # mpsoc-platform — a cycle-approximate MPSoC virtual platform
//!
//! The hardware substrate for the reproduction of *"Programming MPSoC
//! Platforms: Road Works Ahead!"* (DATE 2009). Every system described in the
//! paper — the real-time manycore kernel (Section II), the data-driven
//! streaming runtime (Section III), the MAPS/HOPES tool flows (IV, V), and
//! especially the virtual-platform debugger (VII) — presupposes a
//! multiprocessor system-on-chip. This crate provides one, in simulation:
//!
//! * **Homogeneous-ISA cores** ([`isa`], [`core`]) with per-core,
//!   runtime-adjustable clock [frequencies](time::Frequency) — the paper's
//!   fine-grained DVFS requirement.
//! * **Distributed memory** ([`mem`]): shared RAM behind the interconnect,
//!   a local store per core, and per-core timing-model [caches](cache).
//! * **Scalable interconnect** ([`interconnect`]): a contended shared bus
//!   and a 2-D mesh NoC, so the paper's centralisation-vs-distribution
//!   argument is measurable.
//! * **Shared peripherals** ([`periph`]): timers, mailboxes, hardware
//!   semaphores, and DMA engines — the exact resource list Section VII
//!   blames for multi-core debugging pain.
//! * **Deterministic discrete-event simulation** ([`platform`]): the same
//!   configuration and software always produce the same interleaving, the
//!   property that lets a virtual platform reproduce Heisenbugs.
//! * **Checkpoint/restore and fault injection** ([`snapshot`]): the whole
//!   platform serializes to a versioned binary image and resumes
//!   bit-identically — the substrate for time-travel debugging and
//!   deterministic fault-injection campaigns.
//!
//! ## Quickstart
//!
//! ```
//! use mpsoc_platform::platform::PlatformBuilder;
//! use mpsoc_platform::isa::assemble;
//! use mpsoc_platform::time::Frequency;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut p = PlatformBuilder::new()
//!     .cores(2, Frequency::mhz(200))
//!     .shared_words(1024)
//!     .build()?;
//! let prog = assemble("movi r1, 21\nadd r2, r1, r1\nmovi r3, 0x10\nst r2, r3, 0\nhalt")?;
//! p.load_program(0, prog, 0)?;
//! p.run_to_completion(1_000)?;
//! assert_eq!(p.debug_read(0x10)?, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod core;
pub mod error;
pub mod interconnect;
pub mod isa;
pub mod mem;
pub mod periph;
pub mod platform;
pub mod signal;
pub mod snapshot;
pub mod time;

pub use crate::core::{Core, CoreStatus};
pub use crate::error::{Error, Result};
pub use crate::platform::{
    Access, AccessKind, Originator, Platform, PlatformBuilder, StepEvent, StepKind,
};
pub use crate::signal::{
    Signal, SignalBoard, SignalChange, TraceMode, TraceSpill, TraceStats, TRACE_RECORD_BYTES,
};
pub use crate::snapshot::BaseImage;
pub use crate::time::{Cycles, Frequency, Time};

/// The unit tests' allocator: the system allocator, counting allocations
/// per thread, so a test can assert that a code path allocates nothing (a
/// warm restore's decode, `snapshot::tests`).
#[cfg(test)]
pub(crate) mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // Const-initialized and without a destructor: touching it from
        // inside the allocator neither allocates nor registers anything.
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn bump() {
        // A thread being torn down has no counter left; nobody is asking.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counter is plain
    // thread-local data and never touches the heap (see `ALLOCATIONS`).
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            // SAFETY: `layout` is the caller's, passed on as is.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through this allocator with
            // this `layout`.
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
    pub(crate) fn allocations(f: impl FnOnce()) -> u64 {
        let before = ALLOCATIONS.get();
        f();
        ALLOCATIONS.get() - before
    }
}
