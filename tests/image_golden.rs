//! Golden bytes: the image a platform captures is pinned, in the repository.
//!
//! Each platform is stepped a fixed number of times (fewer if it finishes),
//! and its step count, [`Platform::state_checksum`] and the FNV-1a of its
//! full [`Platform::capture`] must equal the constants recorded here. The
//! checksum covers the architectural state; the image digest also covers
//! what the checksum leaves out — caches, interconnect occupancy, signals,
//! in-flight DMA, every peripheral's internal state — so a change to any
//! device's behaviour or wire encoding moves it. The four testbeds are bus
//! platforms; `mesh_platform` adds a 3×3 mesh carrying all four peripheral
//! kinds, captured with a DMA transfer in flight.
//!
//! A constant only changes together with `PLATFORM_IMAGE_VERSION`.

use mpsoc_suite::apps::testbed;
use mpsoc_suite::platform::isa::assemble;
use mpsoc_suite::platform::mem::{local_addr, periph_addr};
use mpsoc_suite::platform::periph::{dma_reg, mailbox_reg, semaphore_reg, timer_reg};
use mpsoc_suite::platform::platform::{InterconnectConfig, Platform, PlatformBuilder};
use mpsoc_suite::platform::{Frequency, Time};
use mpsoc_suite::snapshot::fnv1a64;

/// What is pinned per platform.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    steps: u64,
    state_checksum: u64,
    image_fnv: u64,
    image_bytes: usize,
}

/// Up to `max_steps` × `step` + `recycle`, stopping when nothing is left to
/// run; then the three pinned values.
fn run_and_digest(p: &mut Platform, max_steps: u64) -> Golden {
    for _ in 0..max_steps {
        if p.is_finished() {
            break;
        }
        let ev = p.step().expect("golden platforms do not fault");
        p.recycle(ev);
    }
    let image = p.capture().expect("captures");
    Golden {
        steps: p.steps(),
        state_checksum: p.state_checksum(),
        image_fnv: fnv1a64(&image),
        image_bytes: image.len(),
    }
}

#[test]
fn testbed_images_are_byte_identical_to_the_pinned_ones() {
    for (name, steps, state_checksum, image_fnv, image_bytes) in [
        (
            "car_radio",
            3000,
            0x2635d95813a75d64,
            0xbf6caa426459279d,
            9241,
        ),
        ("jpeg", 3000, 0xb14e720d123a69b1, 0x70944000adf9c00b, 5059),
        ("e12", 1469, 0x13a7f482de94f1a2, 0xf6bd07810fdb4410, 3797),
        ("race", 2008, 0x8d75566e257995be, 0x0ab9c5526bb73491, 795),
    ] {
        let mut p = testbed::by_name(name).unwrap();
        let want = Golden {
            steps,
            state_checksum,
            image_fnv,
            image_bytes,
        };
        assert_eq!(run_and_digest(&mut p, 3000), want, "{name}: {want:#x?}");
    }
}

/// Three cores on a 3×3 mesh (memory controller at the far corner) with a
/// timer, a mailbox, a semaphore and a DMA engine, all of them busy:
///
/// * core 0 arms the timer (its ISR counts ticks into its local store) and
///   then hammers a word of core 1's local store — mesh traffic between
///   two core nodes;
/// * core 1 takes the semaphore, posts a word, releases, and keeps the DMA
///   engine streaming 96-word blocks back to back;
/// * core 2 drains the mailbox into shared memory under the same semaphore.
fn mesh_platform() -> (Platform, usize) {
    let mut p = PlatformBuilder::new()
        .cores_with_freqs(vec![
            Frequency::mhz(100),
            Frequency::mhz(200),
            Frequency::mhz(50),
        ])
        .shared_words(2048)
        .local_words(128)
        .interconnect(InterconnectConfig::Mesh {
            w: 3,
            h: 3,
            hop_latency: Time::from_ns(4),
            link_occupancy: Time::from_ns(3),
        })
        .build()
        .unwrap();
    let timer = p.add_timer("tick");
    let mb = p.add_mailbox("post", 4);
    let sem = p.add_semaphore("lock", 1);
    let dma = p.add_dma("stream");
    p.load_shared(0x100, &(0..96).map(|i| 3 * i + 1).collect::<Vec<_>>())
        .unwrap();

    let core0 = assemble(&format!(
        "isr: movi r10, {ticks}\n\
         ld r11, r10, 0\n\
         addi r11, r11, 1\n\
         st r11, r10, 0\n\
         rti\n\
         main: movi r1, {timer}\n\
         movi r2, 700\n\
         st r2, r1, {period}\n\
         movi r2, 5\n\
         st r2, r1, {irq}\n\
         movi r2, 1\n\
         st r2, r1, {ctrl}\n\
         movi r3, {foreign}\n\
         movi r4, 0\n\
         spin: addi r4, r4, 1\n\
         st r4, r3, 0\n\
         ld r5, r3, 0\n\
         jmp spin",
        ticks = local_addr(0, 7),
        timer = periph_addr(timer, 0),
        period = timer_reg::PERIOD,
        irq = timer_reg::IRQ,
        ctrl = timer_reg::CTRL,
        foreign = local_addr(1, 9),
    ))
    .unwrap();
    let main0 = core0.label("main").unwrap();
    let isr0 = core0.label("isr").unwrap();

    let locked_section = |body: &str| {
        format!(
            "movi r8, {sem}\n\
             acq: ld r9, r8, {tryacq}\n\
             beq r9, r0, acq\n\
             {body}\
             st r0, r8, {release}\n",
            sem = periph_addr(sem, 0),
            tryacq = semaphore_reg::TRYACQ,
            release = semaphore_reg::RELEASE,
        )
    };
    let core1 = assemble(&format!(
        "movi r1, {dma}\n\
         movi r2, 0x100\n\
         st r2, r1, {src}\n\
         movi r2, 0x400\n\
         st r2, r1, {dst}\n\
         movi r2, 96\n\
         st r2, r1, {len}\n\
         movi r2, 2\n\
         st r2, r1, {core}\n\
         movi r6, {mb}\n\
         movi r7, 0\n\
         again: movi r2, 1\n\
         st r2, r1, {ctrl}\n\
         addi r7, r7, 1\n\
         {post}\
         wait: ld r2, r1, {busy}\n\
         bne r2, r0, wait\n\
         jmp again",
        dma = periph_addr(dma, 0),
        src = dma_reg::SRC,
        dst = dma_reg::DST,
        len = dma_reg::LEN,
        core = dma_reg::CORE,
        ctrl = dma_reg::CTRL,
        busy = dma_reg::BUSY,
        mb = periph_addr(mb, 0),
        post = locked_section(&format!("st r7, r6, {}\n", mailbox_reg::DATA)),
    ))
    .unwrap();
    let core2 = assemble(&format!(
        "movi r6, {mb}\n\
         movi r5, 0x20\n\
         poll: ld r2, r6, {count}\n\
         beq r2, r0, poll\n\
         {take}\
         st r3, r5, 0\n\
         jmp poll",
        mb = periph_addr(mb, 0),
        count = mailbox_reg::COUNT,
        take = locked_section(&format!("ld r3, r6, {}\n", mailbox_reg::DATA)),
    ))
    .unwrap();

    p.load_program(0, core0, main0).unwrap();
    p.core_mut(0).unwrap().set_irq_vector(Some(isr0));
    p.load_program(1, core1, 0).unwrap();
    p.load_program(2, core2, 0).unwrap();
    (p, dma)
}

#[test]
fn a_mesh_image_with_every_peripheral_kind_and_a_dma_in_flight_is_pinned() {
    let (mut p, dma) = mesh_platform();
    let got = run_and_digest(&mut p, 2500);
    // The platform exercised what the pin is there to cover.
    assert!(p.dma_in_flight(dma), "no transfer in flight at the capture");
    let reg = |page: usize, offset: u32| {
        let regs = p.peripheral_snapshot(page).unwrap();
        regs.iter().find(|(o, _)| *o == offset).unwrap().1
    };
    assert!(reg(0, timer_reg::COUNT) > 3, "the timer ticked");
    assert!(p.debug_read(0x20).unwrap() > 0, "the mailbox carried words");
    assert_eq!(p.debug_read(0x400 + 95), Ok(3 * 95 + 1), "a block landed");
    assert!(p.interconnect_stats().1 > Time::ZERO, "links contended");
    assert_eq!(
        got,
        Golden {
            steps: 2500,
            state_checksum: 0x3aeeb88a36ca980f,
            image_fnv: 0x92936e9a17ad3385,
            image_bytes: 5798,
        },
        "{got:#x?}"
    );
}
