//! A car-radio style audio processing chain.
//!
//! Section III motivates the Hijdra work with *"real-time stream-processing
//! application in car-radios and mobile phones"*. This module supplies that
//! workload: an integer FIR band filter, a biquad IIR tone stage, and a
//! soft AGC/volume stage, plus [`car_radio_graph`], the same chain as a
//! CSDF graph with realistic WCETs for the Section III experiments (E3
//! time-triggered vs. data-driven, E4 buffer sizing).

use mpsoc_dataflow::{ActorKind, Graph};

/// Fixed-point fractional bits of the filter arithmetic.
pub(crate) const FRAC: u32 = 12;

/// A 9-tap symmetric integer low-pass FIR (cutoff ~0.2 fs), Q12, with
/// exact unity DC gain (taps sum to 4096).
pub(crate) const FIR_TAPS: [i64; 9] = [32, 164, 484, 824, 1088, 824, 484, 164, 32];

/// Applies the FIR to `input`, returning `input.len()` samples (zero-padded
/// history).
pub fn fir(input: &[i64]) -> Vec<i64> {
    input
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let mut acc = 0i64;
            for (k, &tap) in FIR_TAPS.iter().enumerate() {
                if i >= k {
                    acc += tap * input[i - k];
                }
            }
            acc / (1 << FRAC)
        })
        .collect()
}

/// A biquad (direct form I) integer IIR stage.
#[derive(Clone, Debug)]
pub struct Biquad {
    /// Numerator coefficients (Q12).
    pub b: [i64; 3],
    /// Denominator coefficients a1, a2 (Q12; a0 = 1).
    pub a: [i64; 2],
    x: [i64; 2],
    y: [i64; 2],
}

impl Biquad {
    /// A gentle bass-boost shelf (Q12 coefficients; poles at 0.9 and 0.8,
    /// safely inside the unit circle).
    pub fn bass_boost() -> Self {
        Biquad {
            b: [4915, -3686, 0],
            a: [-6963, 2949],
            x: [0; 2],
            y: [0; 2],
        }
    }

    /// Processes one sample.
    pub fn step(&mut self, x0: i64) -> i64 {
        let y0 = (self.b[0] * x0 + self.b[1] * self.x[0] + self.b[2] * self.x[1]
            - self.a[0] * self.y[0]
            - self.a[1] * self.y[1])
            / (1 << FRAC);
        self.x = [x0, self.x[0]];
        self.y = [y0, self.y[0]];
        y0
    }

    /// Processes a whole buffer.
    pub fn process(&mut self, input: &[i64]) -> Vec<i64> {
        input.iter().map(|&x| self.step(x)).collect()
    }
}

/// Soft volume/AGC: scales toward a target peak, clamping to 16-bit range.
pub fn agc(input: &[i64], target_peak: i64) -> Vec<i64> {
    let peak = input.iter().map(|v| v.abs()).max().unwrap_or(0).max(1);
    input
        .iter()
        .map(|&v| (v * target_peak / peak).clamp(-32768, 32767))
        .collect()
}

/// A deterministic synthetic "radio" signal: two tones plus impulse noise.
pub fn synthetic_signal(len: usize) -> Vec<i64> {
    (0..len)
        .map(|i| {
            let t = i as i64;
            // Integer pseudo-sinusoids via triangle approximations.
            let tone1 = ((t * 13) % 200 - 100) * 40;
            let tone2 = ((t * 53) % 64 - 32) * 25;
            let click = if i % 97 == 0 { 5000 } else { 0 };
            tone1 + tone2 + click
        })
        .collect()
}

/// The car-radio chain as a CSDF graph:
///
/// ```text
/// adc (period) -> fir -> iir -> agc -> dac (period)
/// ```
///
/// `frame` samples move per firing; WCETs are scaled so the FIR is the
/// bottleneck at ~`0.8 * period`, the regime where WCET violations matter.
pub fn car_radio_graph(period: u64, frame: u32) -> Graph {
    let mut g = Graph::new();
    let adc = g.add_actor("adc", vec![period / 20], ActorKind::Source { period });
    let fir = g.add_actor("fir", vec![period * 8 / 10], ActorKind::Regular);
    let iir = g.add_actor("iir", vec![period * 4 / 10], ActorKind::Regular);
    let agc = g.add_actor("agc", vec![period * 2 / 10], ActorKind::Regular);
    let dac = g.add_actor("dac", vec![period / 20], ActorKind::Sink { period });
    g.add_channel(adc, fir, vec![frame], vec![frame], 0)
        .expect("valid chain");
    g.add_channel(fir, iir, vec![frame], vec![frame], 0)
        .expect("valid chain");
    g.add_channel(iir, agc, vec![frame], vec![frame], 0)
        .expect("valid chain");
    g.add_channel(agc, dac, vec![frame], vec![frame], 0)
        .expect("valid chain");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_dataflow::buffer::minimal_capacities;
    use mpsoc_dataflow::{run_self_timed, SelfTimedConfig, WcetTimes};

    #[test]
    fn fir_dc_gain_is_unity() {
        // Taps sum to ~4096 (Q12): a constant input passes at gain ~1.
        let sum: i64 = FIR_TAPS.iter().sum();
        assert!((sum - 4096).abs() <= 4096 / 100);
        let out = fir(&[1000; 64]);
        let settled = out[20];
        assert!((settled - 1000).abs() <= 15, "settled {settled}");
    }

    #[test]
    fn fir_attenuates_alternation() {
        // Nyquist-frequency input: a low-pass must crush it.
        let alternating: Vec<i64> = (0..64)
            .map(|i| if i % 2 == 0 { 1000 } else { -1000 })
            .collect();
        let out = fir(&alternating);
        assert!(out[20].abs() < 100, "nyquist leak {}", out[20]);
    }

    #[test]
    fn biquad_is_stable_on_impulse() {
        let mut bq = Biquad::bass_boost();
        let mut impulse = vec![0i64; 128];
        impulse[0] = 10_000;
        let out = bq.process(&impulse);
        // The tail must decay, not blow up.
        assert!(out[120].abs() < 200, "tail {}", out[120]);
    }

    #[test]
    fn agc_normalises_peak() {
        let out = agc(&[100, -400, 200], 32000);
        assert_eq!(out.iter().map(|v| v.abs()).max(), Some(32000));
        // Clamps extreme products.
        let clipped = agc(&[1, 2, 3], 40_000);
        assert!(clipped.iter().all(|&v| v <= 32767));
    }

    #[test]
    fn chain_end_to_end_is_deterministic() {
        let sig = synthetic_signal(256);
        let run = || {
            let mut bq = Biquad::bass_boost();
            agc(&bq.process(&fir(&sig)), 30_000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn radio_graph_is_consistent_and_wait_free() {
        let g = car_radio_graph(1_000, 8);
        assert_eq!(g.repetition_vector().unwrap(), vec![1; 5]);
        let caps = minimal_capacities(&g, 20).unwrap();
        assert!(caps.iter().all(|&c| c >= 8), "caps {caps:?}");
    }

    #[test]
    fn radio_graph_runs_at_source_rate() {
        let g = car_radio_graph(1_000, 4);
        let r = run_self_timed(
            &g,
            &SelfTimedConfig {
                iterations: 10,
                ..Default::default()
            },
            &mut WcetTimes,
        )
        .unwrap();
        assert_eq!(r.source_blocked, 0);
        let p = r.achieved_period().unwrap();
        assert!((p - 1_000.0).abs() < 1e-9, "period {p}");
    }
}
