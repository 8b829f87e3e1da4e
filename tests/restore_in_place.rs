//! A platform that is restored over and over equals one built fresh.
//!
//! Restores decode into the state the previous restore replaced (cores,
//! programs, labels, cache ways, peripherals keep their buffers), so what a
//! long-lived platform holds after its hundredth restore depends, unless
//! every decoder overwrites all of its target, on the ninety-nine before.
//! The contract under test: after any sequence of runs, delta captures,
//! delta restores, rollbacks, restores that *fail* after a valid frame, and
//! full restores of differently shaped platforms, one long-lived platform
//! is byte-for-byte the platform [`BaseImage::hydrate`] plus the same
//! restore builds from nothing — and a failed restore changes nothing.
//! A platform also remembers the decoded form of the last delta or base it
//! restored and reinstalls it for the same bytes, so the sequence restores
//! those again, and a copy of the last delta with one byte flipped.

use mpsoc_suite::apps::testbed;
use mpsoc_suite::obs::rng::XorShift64Star;
use mpsoc_suite::platform::cache::Cache;
use mpsoc_suite::platform::interconnect::load_interconnect;
use mpsoc_suite::platform::isa::assemble;
use mpsoc_suite::platform::platform::{
    CacheConfig, InterconnectConfig, Platform, PlatformBuilder, SchedulerMode,
};
use mpsoc_suite::platform::snapshot::{PLATFORM_IMAGE_MAGIC, PLATFORM_IMAGE_VERSION};
use mpsoc_suite::platform::{BaseImage, Core, CoreStatus, Frequency, SignalBoard, Time};
use mpsoc_suite::snapshot::{Image, Reader, Snapshot};

/// Steps `p` for `n` steps or until idle, recycling events.
fn run_steps(p: &mut Platform, n: u64) {
    for _ in 0..n {
        let ev = p.step().expect("platform steps");
        let done = ev.is_idle();
        p.recycle(ev);
        if done {
            break;
        }
    }
}

/// A foreign platform for the long-lived one to be restored into: another
/// core count, cache geometry, interconnect and scheduler, cores caught in
/// every state a `Core` field can hold (inside an ISR, debug-halted with an
/// interrupt pending, re-clocked), and `page0` on page 0 — as a timer for
/// one donor, as a mailbox for the other, so that whatever kind the
/// testbed keeps under that name, one donor puts another kind there.
fn donor(cores: usize, page0: &str, page0_is_timer: bool) -> Platform {
    let mut b = PlatformBuilder::new()
        .cores(cores, Frequency::mhz(80))
        .shared_words(512);
    b = if cores > 1 {
        b.local_words(32).cache(Some(CacheConfig {
            sets: 4,
            assoc: 3,
            line_words: 2,
            hit_cycles: 2,
        }))
    } else {
        b.local_words(0)
            .cache(None)
            .scheduler(SchedulerMode::ScanReference)
            .interconnect(InterconnectConfig::Mesh {
                w: 2,
                h: 1,
                hop_latency: Time::from_ns(3),
                link_occupancy: Time::from_ns(2),
            })
    };
    let mut p = b.build().expect("donor builds");
    if page0_is_timer {
        p.add_timer(page0);
        p.add_semaphore("donor_sem", 2);
    } else {
        p.add_mailbox(page0, 3);
    }
    let prog = assemble(
        "movi r1, 0\nloop: addi r1, r1, 1\nmovi r2, 0x20\nst r1, r2, 0\njmp loop\n\
         isr: addi r9, r9, 1\nspin: jmp spin",
    )
    .expect("donor program assembles");
    let isr = prog.label("isr").expect("isr label");
    for id in 0..cores {
        p.load_program(id, prog.clone(), (id % 2) as u32).unwrap();
    }
    p.core_mut(0).unwrap().set_irq_vector(Some(isr));
    p.debug_post_irq(0, 3).unwrap();
    p.debug_post_irq(0, 7).unwrap();
    run_steps(&mut p, 37);
    if cores > 2 {
        p.core_mut(1).unwrap().debug_halt();
        p.debug_post_irq(1, 5).unwrap();
        p.core_mut(2).unwrap().set_frequency(Frequency::mhz(333));
    }
    p
}

/// The image of `p` with the peripheral on page 0 renamed (same length, so
/// only those bytes change): the same kind on the same page under another
/// name, which a restore must rebuild rather than reuse.
fn renamed_page0(p: &mut Platform) -> Option<Vec<u8>> {
    let name = p.peripheral_name(0)?.to_string();
    let image = p.capture().expect("captures");
    let mut payload = Image::open(&image, PLATFORM_IMAGE_MAGIC, PLATFORM_IMAGE_VERSION)
        .expect("own image opens")
        .to_vec();
    let mut needle = (name.len() as u64).to_le_bytes().to_vec();
    needle.extend_from_slice(name.as_bytes());
    // The peripheral block is the last place the name can occur: the RAM
    // pages after it hold the testbed's data words.
    let at = (0..payload.len() - needle.len())
        .rev()
        .find(|&i| payload[i..].starts_with(&needle))?;
    payload[at + 8..at + needle.len()].reverse();
    Some(Image::seal(
        PLATFORM_IMAGE_MAGIC,
        PLATFORM_IMAGE_VERSION,
        &payload,
    ))
}

/// Byte counts at which to cut a delta payload so that the decoder runs dry
/// inside core 0's program, inside the cache block and inside the first
/// peripheral, plus one seeded cut anywhere.
fn truncation_points(payload: &[u8], rng: &mut XorShift64Star) -> [usize; 4] {
    let mut r = Reader::new(payload);
    // The base (tag and checksum) and page size; scheduler .. `dma_seq`.
    r.skip(1 + 8 + 4 + 45).unwrap();
    // Core count, then core 0 up to its program: id, registers, pc,
    // status, frequency; then a few bytes into the instruction table.
    let in_program = r.position() + 8 + (8 + 16 * 8 + 4 + 1 + 8) + 8 + 3;
    Vec::<Core>::load(&mut r).unwrap();
    // Cache count, `Some` tag, set count, set 0's way count, one way.
    let in_cache = r.position() + 8 + 1 + 8 + 8 + 1;
    Vec::<Option<Cache>>::load(&mut r).unwrap();
    load_interconnect(&mut r).unwrap();
    SignalBoard::load(&mut r).unwrap();
    let pending_dma = r.get_len(8).unwrap();
    r.skip(pending_dma * 36).unwrap();
    // Peripheral count, kind, name length, one byte of the name.
    let in_peripheral = r.position() + 8 + 1 + 8 + 1;
    let anywhere = rng.usize_in(0, payload.len() - 1);
    [in_program, in_cache, in_peripheral, anywhere].map(|cut| cut.min(payload.len() - 1))
}

/// What must not move when a restore fails.
fn fingerprint(p: &Platform) -> (u64, Vec<u8>) {
    (
        p.state_checksum(),
        p.capture_delta().expect("delta captures"),
    )
}

/// Restores every truncation of `live`'s current delta into it; each must
/// fail — the frame is valid, the payload is not — and change nothing.
fn failed_restores_change_nothing(live: &mut Platform, base: &BaseImage, rng: &mut XorShift64Star) {
    let delta = live.capture_delta().expect("delta captures");
    let payload =
        Image::open(&delta, PLATFORM_IMAGE_MAGIC, PLATFORM_IMAGE_VERSION).expect("own delta opens");
    let before = fingerprint(live);
    for cut in truncation_points(payload, rng) {
        let cut_short = Image::seal(
            PLATFORM_IMAGE_MAGIC,
            PLATFORM_IMAGE_VERSION,
            &payload[..cut],
        );
        assert!(
            live.restore_delta(base, &cut_short).is_err(),
            "a delta cut at byte {cut} of {} restored",
            payload.len()
        );
        assert!(fingerprint(live) == before, "cut at {cut} left a mark");
    }
}

#[test]
fn a_long_lived_platform_equals_a_fresh_one_after_every_restore() {
    let mut rng = XorShift64Star::new(0x1257A7E);
    for name in ["car_radio", "jpeg", "race", "e12"] {
        let mut live = testbed::by_name(name).expect("testbed builds");
        run_steps(&mut live, 700);
        let page0 = live.peripheral_name(0).unwrap_or("p0").to_string();

        // Every base this session can be on: the testbed's own image, its
        // twin with page 0 renamed, and the two donors.
        let mut bases = Vec::new();
        let mut push_base = |image: Vec<u8>| {
            bases.push(BaseImage::new(image).expect("base validates"));
        };
        push_base(live.capture().unwrap());
        if let Some(image) = renamed_page0(&mut live) {
            push_base(image);
        }
        push_base(donor(6, &page0, true).capture().unwrap());
        push_base(donor(1, &page0, false).capture().unwrap());
        // `live` sits on base 0's state (the capture for the renamed twin
        // moved its base mark, which the first restore below puts back).
        let mut cur = 0;
        live.restore_image(bases[cur].image()).unwrap();
        let mut fresh = bases[cur].hydrate().unwrap();
        // Deltas captured so far, with the base each one names.
        let mut deltas: Vec<(usize, Vec<u8>)> = Vec::new();
        // What `live`'s last `restore_delta` and `reset_to_base` installed,
        // for the operations that install it again.
        let mut last_delta: Option<(usize, Vec<u8>)> = None;
        let mut last_reset: Option<usize> = None;

        for op in 0..90 {
            let what = match rng.u64_in(0, 13) {
                0..=2 => {
                    let n = rng.u64_in(0, 300);
                    run_steps(&mut live, n);
                    run_steps(&mut fresh, n);
                    format!("run {n}")
                }
                10 => {
                    // State no run writes, on both sides: a debugger halt
                    // (or the resume of one), and a peripheral stuck by
                    // fault injection.
                    let id = rng.usize_in(0, live.num_cores() - 1);
                    let page = rng.usize_in(0, 3);
                    for p in [&mut live, &mut fresh] {
                        let now = p.now();
                        let core = p.core_mut(id).unwrap();
                        if core.status() == CoreStatus::DebugHalted {
                            core.debug_resume(now);
                        } else {
                            core.debug_halt();
                        }
                        // An unoccupied page is an error on both sides.
                        let _ = p.inject_periph_stick(page);
                    }
                    format!("halt or resume of core {id}, page {page} stuck")
                }
                3 => {
                    deltas.push((cur, live.capture_delta().unwrap()));
                    "capture_delta".to_string()
                }
                4 | 5 if !deltas.is_empty() => {
                    let (b, delta) = deltas[rng.usize_in(0, deltas.len() - 1)].clone();
                    live.restore_delta(&bases[b], &delta).unwrap();
                    fresh = bases[b].hydrate().unwrap();
                    fresh.restore_delta(&bases[b], &delta).unwrap();
                    cur = b;
                    last_delta = Some((b, delta));
                    format!("restore_delta onto base {b}")
                }
                11 if last_delta.is_some() => {
                    // The same bytes again, whatever ran since: a platform
                    // that remembers what it decoded must install all of it.
                    let (b, delta) = last_delta.as_ref().unwrap();
                    live.restore_delta(&bases[*b], delta).unwrap();
                    fresh = bases[*b].hydrate().unwrap();
                    fresh.restore_delta(&bases[*b], delta).unwrap();
                    cur = *b;
                    format!("the same restore_delta onto base {b} again")
                }
                12 if last_reset.is_some() => {
                    cur = last_reset.unwrap();
                    live.reset_to_base(&bases[cur]).unwrap();
                    fresh = bases[cur].hydrate().unwrap();
                    format!("the same reset_to_base {cur} again")
                }
                13 if last_delta.is_some() => {
                    // One byte of the last restored delta flipped: the copy
                    // has its length and all but one of its bytes, and must
                    // be refused like any corrupt delta.
                    let (b, delta) = last_delta.as_ref().unwrap();
                    let mut bad = delta.clone();
                    let at = rng.usize_in(0, bad.len() - 1);
                    bad[at] ^= rng.u64_in(1, 255) as u8;
                    let before = fingerprint(&live);
                    assert!(
                        live.restore_delta(&bases[*b], &bad).is_err(),
                        "{name} op {op}: a delta with byte {at} flipped restored"
                    );
                    assert!(
                        fingerprint(&live) == before,
                        "{name} op {op}: byte {at} left a mark"
                    );
                    format!("restore_delta of the last delta, byte {at} flipped")
                }
                6 => {
                    cur = rng.usize_in(0, bases.len() - 1);
                    live.reset_to_base(&bases[cur]).unwrap();
                    fresh = bases[cur].hydrate().unwrap();
                    last_reset = Some(cur);
                    format!("reset_to_base {cur}")
                }
                7 => {
                    cur = rng.usize_in(0, bases.len() - 1);
                    live.restore_image(bases[cur].image()).unwrap();
                    fresh = Platform::from_image(bases[cur].image()).unwrap();
                    format!("restore_image {cur}")
                }
                8 => {
                    failed_restores_change_nothing(&mut live, &bases[cur], &mut rng);
                    "failed restores".to_string()
                }
                _ => {
                    // A full capture on both sides: the whole image must
                    // agree, and it becomes one more base to restore onto.
                    let image = live.capture().unwrap();
                    assert!(image == fresh.capture().unwrap(), "{name} op {op}: capture");
                    bases.push(BaseImage::new(image).unwrap());
                    cur = bases.len() - 1;
                    "capture".to_string()
                }
            };
            assert_eq!(
                live.state_checksum(),
                fresh.state_checksum(),
                "{name} op {op} ({what}): state checksum"
            );
            assert!(
                live.capture_delta().unwrap() == fresh.capture_delta().unwrap(),
                "{name} op {op} ({what}): delta bytes"
            );
        }

        // The whole image once more, around one last round of failures.
        let image = live.capture().unwrap();
        assert!(image == fresh.capture().unwrap(), "{name}: final capture");
        let base = BaseImage::new(image.clone()).unwrap();
        run_steps(&mut live, 50);
        let before = live.capture().unwrap();
        let base_now = BaseImage::new(before.clone()).unwrap();
        failed_restores_change_nothing(&mut live, &base_now, &mut rng);
        assert!(
            live.capture().unwrap() == before,
            "{name}: a failed restore moved the image"
        );
        // And the next restore that succeeds is a fresh platform's.
        live.reset_to_base(&base).unwrap();
        assert!(
            live.capture().unwrap() == image,
            "{name}: restore after failures"
        );
    }
}
