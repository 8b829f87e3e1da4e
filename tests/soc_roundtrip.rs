//! Declarative `.soc` platforms are bit-identical to their hand-built
//! twins.
//!
//! The committed `examples/platforms/*.soc` files replicate the testbed
//! hardware; installing the matching software image must then produce a
//! platform whose `state_checksum` stays equal to the hand-built
//! platform's at every probe point of a long run — proving the language
//! front end introduces no configuration drift (core count, frequencies,
//! memory sizes, cache geometry, peripheral pages, interconnect timing).

use mpsoc_suite::apps::testbed;
use mpsoc_suite::platform::Platform;

/// Builds the `.soc` twin of a testbed platform and installs its software.
fn soc_twin(name: &str) -> Platform {
    let path = format!(
        "{}/examples/platforms/{name}.soc",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut p = testbed::load_soc_file(&path).expect("soc file compiles");
    testbed::install_software(name, &mut p).expect("software image installs");
    p
}

/// Steps both platforms in lockstep, comparing checksums every chunk.
fn assert_lockstep(mut hand: Platform, mut decl: Platform, steps: u64) {
    assert_eq!(hand.num_cores(), decl.num_cores());
    assert_eq!(hand.state_checksum(), decl.state_checksum(), "at step 0");
    let chunk = (steps / 8).max(1);
    let mut done = 0u64;
    while done < steps {
        for _ in 0..chunk {
            if hand.is_finished() {
                break;
            }
            hand.step().expect("hand-built platform steps");
            decl.step().expect("declarative platform steps");
        }
        done += chunk;
        assert_eq!(
            hand.state_checksum(),
            decl.state_checksum(),
            "checksums diverge by step {done}"
        );
        assert_eq!(hand.is_finished(), decl.is_finished());
        assert_eq!(hand.now(), decl.now());
    }
}

#[test]
fn car_radio_soc_matches_hand_built() {
    let hand = testbed::by_name("car_radio").expect("registry builds car_radio");
    assert_lockstep(hand, soc_twin("car_radio"), 20_000);
}

#[test]
fn jpeg_soc_matches_hand_built() {
    let hand = testbed::by_name("jpeg").expect("registry builds jpeg");
    assert_lockstep(hand, soc_twin("jpeg"), 20_000);
}

#[test]
fn race_soc_matches_hand_built() {
    let hand = testbed::by_name("race").expect("registry builds race");
    // The race halts on its own; lockstep past the halt point.
    assert_lockstep(hand, soc_twin("race"), 10_000);
}

#[test]
fn soc_registry_rejects_mismatched_software() {
    let path = format!("{}/examples/platforms/race.soc", env!("CARGO_MANIFEST_DIR"));
    let mut p = testbed::load_soc_file(&path).expect("race soc compiles");
    // The car-radio image needs 4 cores; the race platform has 2.
    let err = testbed::install_software("car_radio", &mut p).unwrap_err();
    assert!(!err.is_empty());
    let err = testbed::install_software("nope", &mut p).unwrap_err();
    assert!(err.contains("unknown software image"), "{err}");
}

#[test]
fn each_device_kind_survives_soc_to_image_to_platform() {
    use mpsoc_suite::platform::periph::{dma_reg, mailbox_reg, semaphore_reg, timer_reg};
    // The device set is closed at both ends: the four kinds the language
    // can declare are the four an image can hold. One row per kind —
    // declaration, a register poke so the state is not the default, and the
    // register dump expected on page 1 (page 0 is padding) of a platform
    // rebuilt from the captured image — alternating the two interconnects.
    let rows = [
        (
            "timer tmr;",
            "tmr",
            (timer_reg::PERIOD, 250),
            vec![(0, 250), (1, 0), (2, 0), (3, 0), (4, 0)],
        ),
        (
            "mailbox mbx { capacity = 3; }",
            "mbx",
            (mailbox_reg::DATA, 77),
            vec![(1, 1), (2, 3), (3, 0), (4, -1), (5, 1)],
        ),
        (
            "semaphore sem { count = 2; }",
            "sem",
            (semaphore_reg::RELEASE, 0),
            vec![(2, 3)],
        ),
        (
            "dma eng;",
            "eng",
            (dma_reg::LEN, 9),
            vec![(0, 0), (1, 0), (2, 9), (4, 0), (5, -1), (6, 2)],
        ),
    ];
    for (i, (decl, name, (offset, value), regs)) in rows.into_iter().enumerate() {
        let interconnect = if i % 2 == 0 {
            "interconnect bus { latency_ns = 20; occupancy_ns = 5; }"
        } else {
            "interconnect mesh { width = 2; height = 1; hop_ns = 3; link_ns = 2; }"
        };
        let src = format!(
            "platform p {{ core c {{ class = rpu; freq_mhz = 100; }}
               memory {{ shared_words = 64; }} {interconnect} timer pad; {decl} }}"
        );
        let mut p = mpsoc_suite::pdl::compile(&src).unwrap_or_else(|e| panic!("{decl}: {e}"));
        p.debug_periph_write(1, offset, value).unwrap();
        let q = Platform::from_image(&p.capture().unwrap()).unwrap();
        assert_eq!(q.peripheral_name(0), Some("pad"), "{decl}");
        assert_eq!(q.peripheral_name(1), Some(name), "{decl}");
        assert_eq!(q.peripheral_name(2), None, "{decl}");
        assert_eq!(q.peripheral_snapshot(1).unwrap(), regs, "{decl}");
        assert_eq!(q.peripheral_snapshot(1), p.peripheral_snapshot(1));
        assert_eq!(q.state_checksum(), p.state_checksum(), "{decl}");
    }
}
