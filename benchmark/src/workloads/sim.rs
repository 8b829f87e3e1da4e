//! `sim_compute` and `sim_control` — the raw platform simulator, driven in
//! fixed slices of simulated time on one long-lived platform.
//!
//! * `sim_compute`: `jpeg.soc` + the `jpeg` image — the compute-bound
//!   extreme. The per-instruction path (calendar pop, `StepEvent`, retire)
//!   is nearly all of the time and peripherals almost none, so this is
//!   where run-ahead quanta must show.
//! * `sim_control`: `car_radio.soc` + the `car_radio` image — the same
//!   layer used differently: 48 peripherals, 8 periodic IRQ sources, two
//!   DMA engines. Actor selection and peripheral/IRQ delivery dominate, so
//!   a win bought for `sim_compute` at the cost of the calendar or IRQ path
//!   shows here.
//!
//! * work unit — one simulated step (host time, so `work_per_s` is
//!   simulated steps per host second);
//! * op — one slice: `run_until_with` over a fixed span of simulated time.
//!
//! Modelled caches are warmed by a 1 ms (+ seed-derived phase) simulated
//! warm-up before timing starts.

use std::marker::PhantomData;

use crate::gen;
use crate::harness::{self, LayerMetrics, Pins, Samples, Workload};
use crate::layers::{self, Platform, Res, SimStats, Time};
use crate::stats;
use crate::trace::Tracer;

/// Which testbed a simulation workload runs.
pub trait Testbed {
    /// Workload name.
    const NAME: &'static str;
    /// Frozen `.soc` file and software image; also the hand-built twin's
    /// registry name.
    const PLATFORM: &'static str;
    /// Simulated microseconds per slice, sized to ~18 ms of host time.
    const SLICE_US: u64;
}

/// jpeg: 5 ms simulated per slice (~420 000 steps).
pub struct Compute;
impl Testbed for Compute {
    const NAME: &'static str = "sim_compute";
    const PLATFORM: &'static str = "jpeg";
    const SLICE_US: u64 = 5_000;
}

/// car_radio: 10 ms simulated per slice (~172 000 steps).
pub struct Control;
impl Testbed for Control {
    const NAME: &'static str = "sim_control";
    const PLATFORM: &'static str = "car_radio";
    const SLICE_US: u64 = 10_000;
}

/// Slices after which the platform state is checked against the twin.
const CHECKED_SLICES: u64 = 8;

/// State of a simulation workload.
pub struct Sim<T: Testbed> {
    p: Platform,
    warmup: Time,
    slices: u64,
    /// `(state checksum, steps)` of the hand-built twin run to the end of
    /// slice [`CHECKED_SLICES`] in a single call.
    golden: (u64, u64),
    /// Checksum and simulated statistics of `p` at that same point.
    seen: Option<(u64, SimStats)>,
    _testbed: PhantomData<T>,
}

fn slice_end<T: Testbed>(warmup: Time, slices: u64) -> Time {
    Time::from_ps(warmup.as_ps() + Time::from_us(T::SLICE_US * slices).as_ps())
}

fn warmed<T: Testbed>(warmup: Time) -> Res<Platform> {
    let soc = harness::input_path(&format!("{}.soc", T::PLATFORM));
    let mut p = layers::load_platform(&soc, T::PLATFORM)?;
    layers::platform_run_until(&mut p, warmup)?;
    Ok(p)
}

impl<T: Testbed> Workload for Sim<T> {
    const NAME: &'static str = T::NAME;
    const MIN_ITERATIONS: u64 = CHECKED_SLICES;

    fn setup(seed: u64) -> Res<Self> {
        let warmup = Time::from_us(1_000 + gen::warmup_offset_us(seed));
        let p = warmed::<T>(warmup)?;
        // Golden run: the hand-built twin, straight to the checked point —
        // independent of the `.soc` front end and of slice boundaries.
        let mut twin = layers::handbuilt_twin(T::PLATFORM)?;
        layers::platform_run_until(&mut twin, slice_end::<T>(warmup, CHECKED_SLICES))?;
        Ok(Sim {
            p,
            warmup,
            slices: 0,
            golden: (
                layers::platform_checksum(&twin),
                layers::platform_sim_stats(&twin).steps,
            ),
            seen: None,
            _testbed: PhantomData,
        })
    }

    fn iterate(&mut self, _index: u64, tr: &mut Tracer, out: &mut Samples) {
        self.slices += 1;
        let deadline = slice_end::<T>(self.warmup, self.slices);
        let (steps, wall) = tr.call("platform.run_until_with", || {
            layers::platform_run_until(&mut self.p, deadline)
        });
        let Some(steps) = out.attempt("slice", steps) else {
            return;
        };
        out.op(wall);
        out.did(steps, wall);
        if self.slices == CHECKED_SLICES {
            self.seen = Some((
                layers::platform_checksum(&self.p),
                layers::platform_sim_stats(&self.p),
            ));
        }
    }

    fn check(&mut self, out: &mut Samples) -> Pins {
        let Some((checksum, stats)) = self.seen else {
            out.check(false, || "the checked slice was never reached".into());
            return Pins::new();
        };
        out.check((checksum, stats.steps) == self.golden, || {
            format!(
                "after {CHECKED_SLICES} slices: checksum {checksum:#018x} / {} steps, \
                 hand-built twin has {:#018x} / {}",
                stats.steps, self.golden.0, self.golden.1
            )
        });
        vec![
            ("state_checksum".into(), format!("{checksum:#018x}")),
            ("steps".into(), stats.steps.to_string()),
            ("sim_time_ps".into(), stats.sim_time_ps.to_string()),
        ]
    }

    fn layer_metrics(
        &mut self,
        tr: &mut Tracer,
        out: &mut Samples,
        m: &mut LayerMetrics,
        quick: bool,
    ) {
        if let Some((_, stats)) = self.seen {
            let (hits, misses) = stats.cache;
            m.insert("platform.steps", stats.steps as f64);
            m.insert("platform.sim_time_ps", stats.sim_time_ps as f64);
            m.insert(
                "platform.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            m.insert("platform.interconnect_transfers", stats.transfers as f64);
        }
        let ns_per_step = out.busy_s * 1e9 / out.work.max(1) as f64;
        m.insert("platform.ns_per_step", ns_per_step);
        m.insert(
            "platform.slice_ms_p95",
            stats::percentile(&out.all_op_us, 95.0).unwrap_or(0.0) / 1e3,
        );

        // A quick (smoke) run shrinks every probe 50-fold.
        let (scale, rounds) = if quick { (50, 2) } else { (1, 12) };
        let probes = (|| -> Res<()> {
            // One step() + recycle() per call, the path scripts and
            // single-stepping use.
            let calls = 400_000 / scale;
            let (r, d) = tr.call("platform.step", || {
                layers::platform_step_n(&mut self.p, calls)
            });
            r?;
            m.insert(
                "platform.step_call_ns",
                d.as_secs_f64() * 1e9 / calls as f64,
            );

            // The same slices with an obs MetricsRegistry attached,
            // alternating with plain ones so drift cancels.
            let mut now = self.p.now();
            let mut totals = [(0u64, 0f64); 2];
            for round in 0..rounds {
                let attached = round % 2 == 1;
                let registry = attached.then(|| layers::platform_attach_metrics(&mut self.p));
                now = Time::from_ps(now.as_ps() + Time::from_us(T::SLICE_US / scale).as_ps());
                let (steps, d) = tr.call("platform.run_until_with", || {
                    layers::platform_run_until(&mut self.p, now)
                });
                if registry.is_some() {
                    layers::platform_detach_metrics(&mut self.p);
                }
                totals[usize::from(attached)].0 += steps?;
                totals[usize::from(attached)].1 += d.as_secs_f64();
            }
            let [plain, attached] = totals.map(|(steps, s)| s * 1e9 / steps.max(1) as f64);
            m.insert("obs.attached_ns_per_step", attached);
            m.insert("obs.overhead_pct", (attached / plain - 1.0) * 100.0);

            // The same testbed under Debugger::run — what mpsoc-test, .mts
            // scripts and every GDB `c` packet use — time travel off, then on.
            let steps = 200_000 / scale;
            let mut dbg = layers::debugger(warmed::<T>(self.warmup)?);
            let (r, d) = tr.call("vpdebug.run", || layers::debugger_run(&mut dbg, steps));
            r?;
            let run_ns = d.as_secs_f64() * 1e9 / steps as f64;
            layers::debugger_time_travel(&mut dbg, 256, 64)?;
            let (r, d) = tr.call("vpdebug.run", || layers::debugger_run(&mut dbg, steps / 2));
            r?;
            m.insert("vpdebug.run_ns_per_step", run_ns);
            m.insert(
                "vpdebug.run_tt_ns_per_step",
                d.as_secs_f64() * 1e9 / (steps / 2) as f64,
            );
            m.insert("vpdebug.debug_overhead_x", run_ns / ns_per_step);
            Ok(())
        })();
        out.attempt("simulation probes", probes);
    }
}
