//! An H.264-like encoder skeleton.
//!
//! Section V validates CIC with *"an H.264 encoding algorithm"* generated
//! for the Cell processor and an MPCore SMP from the same specification.
//! This module provides the equivalent workload: the four canonical
//! pipeline stages of an H.264 intra/inter encoder —
//!
//! 1. motion estimation (SAD search over candidate offsets),
//! 2. residual + 4×4 integer core transform (the real H.264 butterfly),
//! 3. quantisation,
//! 4. entropy sizing (exp-Golomb bit counting),
//!
//! both as Rust reference code and as a ready-made [`CicModel`]
//! ([`h264_cic_model`]) whose task bodies are mini-C implementations of the
//! same math on 4×4 blocks. Experiment E7 translates that model for the
//! Cell-like and SMP-like targets and checks output equality.

use mpsoc_cic::model::{CicChannel, CicModel, CicTask};
use mpsoc_cic::Result as CicResult;

/// Side of a transform block.
pub const B: usize = 4;

/// Sum of absolute differences between two 4×4 blocks.
pub(crate) fn sad(a: &[i64; 16], b: &[i64; 16]) -> i64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Motion estimation: picks, among `candidates`, the block with minimal
/// SAD against `cur`; returns `(best index, best sad)`.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub(crate) fn motion_estimate(cur: &[i64; 16], candidates: &[[i64; 16]]) -> (usize, i64) {
    assert!(!candidates.is_empty(), "need at least one candidate");
    let mut best = (0usize, i64::MAX);
    for (i, c) in candidates.iter().enumerate() {
        let s = sad(cur, c);
        if s < best.1 {
            best = (i, s);
        }
    }
    best
}

/// The H.264 4×4 forward core transform (integer butterfly), rows then
/// columns.
pub(crate) fn core_transform(block: &[i64; 16]) -> [i64; 16] {
    let mut tmp = [0i64; 16];
    for r in 0..B {
        let p = &block[r * B..r * B + B];
        let s0 = p[0] + p[3];
        let s1 = p[1] + p[2];
        let d0 = p[0] - p[3];
        let d1 = p[1] - p[2];
        tmp[r * B] = s0 + s1;
        tmp[r * B + 1] = 2 * d0 + d1;
        tmp[r * B + 2] = s0 - s1;
        tmp[r * B + 3] = d0 - 2 * d1;
    }
    let mut out = [0i64; 16];
    for c in 0..B {
        let p = [tmp[c], tmp[B + c], tmp[2 * B + c], tmp[3 * B + c]];
        let s0 = p[0] + p[3];
        let s1 = p[1] + p[2];
        let d0 = p[0] - p[3];
        let d1 = p[1] - p[2];
        out[c] = s0 + s1;
        out[B + c] = 2 * d0 + d1;
        out[2 * B + c] = s0 - s1;
        out[3 * B + c] = d0 - 2 * d1;
    }
    out
}

/// Flat quantisation with step `qstep` (rounded toward zero, symmetric).
pub(crate) fn quantize(coeffs: &[i64; 16], qstep: i64) -> [i64; 16] {
    let mut out = [0i64; 16];
    for (o, &c) in out.iter_mut().zip(coeffs) {
        *o = if c >= 0 {
            (c + qstep / 2) / qstep
        } else {
            -((-c + qstep / 2) / qstep)
        };
    }
    out
}

/// Number of bits of the signed exp-Golomb code of `v`.
pub(crate) fn exp_golomb_bits(v: i64) -> u32 {
    // Signed mapping: 0, 1, -1, 2, -2 ... -> 0, 1, 2, 3, 4 ...
    let code = if v > 0 {
        2 * v as u64 - 1
    } else {
        (-2 * v) as u64
    };
    let m = 64 - (code + 1).leading_zeros() - 1;
    2 * m + 1
}

/// Total entropy bits of a quantised block.
pub(crate) fn entropy_bits(q: &[i64; 16]) -> i64 {
    q.iter().map(|&v| exp_golomb_bits(v) as i64).sum()
}

/// Encodes one block end to end; returns `(best candidate, entropy bits)`.
pub fn encode_block(cur: &[i64; 16], candidates: &[[i64; 16]], qstep: i64) -> (usize, i64) {
    let (best, _) = motion_estimate(cur, candidates);
    let mut residual = [0i64; 16];
    for i in 0..16 {
        residual[i] = cur[i] - candidates[best][i];
    }
    let q = quantize(&core_transform(&residual), qstep);
    (best, entropy_bits(&q))
}

/// A deterministic synthetic frame of 4×4 blocks.
pub fn synthetic_frame(blocks: usize, seed: i64) -> Vec<[i64; 16]> {
    (0..blocks)
        .map(|b| {
            std::array::from_fn(|i| {
                let x = (b as i64 * 31 + i as i64 * 7 + seed * 13) % 251;
                64 + (x % 128)
            })
        })
        .collect()
}

/// Builds the H.264-like encoder as a CIC model: `me → xform → quant →
/// entropy` over 16-token (one 4×4 block) channels, plus a reference
/// side-channel from `me` to `xform` carrying the predictor.
///
/// The task bodies are mini-C translations of the Rust reference above —
/// the test-suite checks they agree — so the retargeting experiment is
/// exercising genuinely computing code.
///
/// # Errors
///
/// Never for the built-in source; kept fallible for API uniformity.
pub fn h264_cic_model() -> CicResult<CicModel> {
    let src = r#"
void me(int cur[], int out[], int pred[]) {
    int cand[64];
    for (k = 0; k < 16; k = k + 1) { cand[k] = 64 + ((k * 7) % 128); }
    for (k = 0; k < 16; k = k + 1) { cand[16 + k] = 64 + ((k * 11 + 3) % 128); }
    for (k = 0; k < 16; k = k + 1) { cand[32 + k] = 64 + ((k * 5 + 9) % 128); }
    for (k = 0; k < 16; k = k + 1) { cand[48 + k] = 64 + ((k * 13 + 1) % 128); }
    int best = 0;
    int bestsad = 1000000;
    for (c = 0; c < 4; c = c + 1) {
        int s = 0;
        for (k = 0; k < 16; k = k + 1) {
            int d = cur[k] - cand[c * 16 + k];
            if (d < 0) { d = 0 - d; }
            s = s + d;
        }
        if (s < bestsad) { bestsad = s; best = c; }
    }
    for (k = 0; k < 16; k = k + 1) { out[k] = cur[k]; }
    for (k = 0; k < 16; k = k + 1) { pred[k] = cand[best * 16 + k]; }
}

void xform(int cur[], int pred[], int out[]) {
    int res[16];
    int tmp[16];
    for (k = 0; k < 16; k = k + 1) { res[k] = cur[k] - pred[k]; }
    for (r = 0; r < 4; r = r + 1) {
        int s0 = res[r * 4] + res[r * 4 + 3];
        int s1 = res[r * 4 + 1] + res[r * 4 + 2];
        int d0 = res[r * 4] - res[r * 4 + 3];
        int d1 = res[r * 4 + 1] - res[r * 4 + 2];
        tmp[r * 4] = s0 + s1;
        tmp[r * 4 + 1] = 2 * d0 + d1;
        tmp[r * 4 + 2] = s0 - s1;
        tmp[r * 4 + 3] = d0 - 2 * d1;
    }
    for (c = 0; c < 4; c = c + 1) {
        int t0 = tmp[c] + tmp[12 + c];
        int t1 = tmp[4 + c] + tmp[8 + c];
        int e0 = tmp[c] - tmp[12 + c];
        int e1 = tmp[4 + c] - tmp[8 + c];
        out[c] = t0 + t1;
        out[4 + c] = 2 * e0 + e1;
        out[8 + c] = t0 - t1;
        out[12 + c] = e0 - 2 * e1;
    }
}

void quant(int in[], int out[]) {
    int qstep = 8;
    for (k = 0; k < 16; k = k + 1) {
        int c = in[k];
        if (c >= 0) { out[k] = (c + qstep / 2) / qstep; }
        else { out[k] = 0 - ((0 - c + qstep / 2) / qstep); }
    }
}

void entropy(int in[]) {
    int bits = 0;
    for (k = 0; k < 16; k = k + 1) {
        int v = in[k];
        int code = 0;
        if (v > 0) { code = 2 * v - 1; } else { code = 0 - (2 * v); }
        int m = 0;
        int t = code + 1;
        while (t > 1) { t = t / 2; m = m + 1; }
        bits = bits + 2 * m + 1;
    }
}
"#;
    // A source task feeds synthetic blocks into `me`.
    let full = format!(
        "void source(int out[]) {{\n\
         for (k = 0; k < 16; k = k + 1) {{ out[k] = 64 + ((k * 31 + 17) % 128); }}\n\
         }}\n{src}"
    );
    let unit = mpsoc_minic::parse(&full).map_err(|e| mpsoc_cic::Error::Model(e.to_string()))?;
    CicModel::new(
        unit,
        vec![
            CicTask {
                name: "source".into(),
                body_fn: "source".into(),
                period: Some(1_000),
                deadline: None,
                work: 50,
            },
            CicTask {
                name: "me".into(),
                body_fn: "me".into(),
                period: None,
                deadline: None,
                work: 900,
            },
            CicTask {
                name: "xform".into(),
                body_fn: "xform".into(),
                period: None,
                deadline: None,
                work: 400,
            },
            CicTask {
                name: "quant".into(),
                body_fn: "quant".into(),
                period: None,
                deadline: None,
                work: 200,
            },
            CicTask {
                name: "entropy".into(),
                body_fn: "entropy".into(),
                period: None,
                deadline: Some(5_000),
                work: 300,
            },
        ],
        vec![
            CicChannel {
                name: "src_me".into(),
                src: 0,
                dst: 1,
                tokens: 16,
            },
            CicChannel {
                name: "me_xf_cur".into(),
                src: 1,
                dst: 2,
                tokens: 16,
            },
            CicChannel {
                name: "me_xf_pred".into(),
                src: 1,
                dst: 2,
                tokens: 16,
            },
            CicChannel {
                name: "xf_q".into(),
                src: 2,
                dst: 3,
                tokens: 16,
            },
            CicChannel {
                name: "q_ent".into(),
                src: 3,
                dst: 4,
                tokens: 16,
            },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sad_is_zero_on_identical_blocks() {
        let a: [i64; 16] = std::array::from_fn(|i| i as i64);
        assert_eq!(sad(&a, &a), 0);
        let mut b = a;
        b[5] += 3;
        assert_eq!(sad(&a, &b), 3);
    }

    #[test]
    fn motion_estimation_finds_best_match() {
        let cur: [i64; 16] = std::array::from_fn(|i| 10 + i as i64);
        let far: [i64; 16] = [200; 16];
        let near: [i64; 16] = std::array::from_fn(|i| 11 + i as i64);
        let (best, s) = motion_estimate(&cur, &[far, near]);
        assert_eq!(best, 1);
        assert_eq!(s, 16);
    }

    #[test]
    fn transform_of_flat_block_is_dc_only() {
        let block = [3i64; 16];
        let t = core_transform(&block);
        assert_eq!(t[0], 3 * 16);
        assert!(t[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn transform_preserves_energy_order() {
        // A high-frequency pattern must put energy off-DC.
        let block: [i64; 16] = std::array::from_fn(|i| if i % 2 == 0 { 50 } else { -50 });
        let t = core_transform(&block);
        assert_eq!(t[0], 0);
        assert!(t.iter().any(|&c| c != 0));
    }

    #[test]
    fn exp_golomb_known_values() {
        assert_eq!(exp_golomb_bits(0), 1);
        assert_eq!(exp_golomb_bits(1), 3);
        assert_eq!(exp_golomb_bits(-1), 3);
        assert_eq!(exp_golomb_bits(2), 5);
        assert_eq!(exp_golomb_bits(3), 5);
        assert_eq!(exp_golomb_bits(4), 7);
    }

    #[test]
    fn quantisation_shrinks_entropy() {
        let frame = synthetic_frame(1, 7);
        let t = core_transform(&frame[0]);
        let fine = entropy_bits(&quantize(&t, 2));
        let coarse = entropy_bits(&quantize(&t, 32));
        assert!(coarse < fine);
    }

    #[test]
    fn encode_block_pipeline_runs() {
        let frame = synthetic_frame(4, 3);
        let cands = synthetic_frame(4, 4);
        let (best, bits) = encode_block(&frame[0], &cands, 8);
        assert!(best < 4);
        assert!(bits >= 16, "each coefficient costs at least one bit");
    }

    #[test]
    fn cic_model_validates_and_executes() {
        let m = h264_cic_model().unwrap();
        let out = mpsoc_cic::executor::execute(&m, 2).unwrap();
        assert_eq!(out.executions, 10);
        // The entropy sink consumed two blocks of quantised coefficients.
        assert_eq!(out.sinks["entropy"].len(), 32);
    }

    #[test]
    fn minic_xform_matches_reference() {
        let m = h264_cic_model().unwrap();
        let mut it = mpsoc_minic::interp::Interp::new(&m.unit);
        let cur: [i64; 16] = std::array::from_fn(|i| (i as i64 * 9 + 5) % 100);
        let pred: [i64; 16] = std::array::from_fn(|i| (i as i64 * 4 + 1) % 100);
        let mut residual = [0i64; 16];
        for i in 0..16 {
            residual[i] = cur[i] - pred[i];
        }
        let expected = core_transform(&residual);
        let a = it.alloc_array(&cur);
        let b = it.alloc_array(&pred);
        let o = it.alloc_array(&[0i64; 16]);
        it.run("xform", &[a, b, o]).unwrap();
        assert_eq!(it.read_array(o, 16).unwrap(), expected.to_vec());
    }
}

#[cfg(test)]
mod prop_tests {
    //! Seeded property-style tests: each invariant is checked over a few
    //! hundred deterministic random cases drawn from [`XorShift64Star`].
    use super::*;
    use mpsoc_obs::rng::XorShift64Star;

    fn block16(rng: &mut XorShift64Star, lo: i64, hi: i64) -> [i64; 16] {
        let mut b = [0i64; 16];
        rng.fill_i64(&mut b, lo, hi);
        b
    }

    /// The 4x4 core transform is linear: T(a+b) == T(a) + T(b).
    #[test]
    fn transform_is_linear() {
        let mut rng = XorShift64Star::new(0x4826_3400_0001);
        for _ in 0..256 {
            let a = block16(&mut rng, -256, 255);
            let b = block16(&mut rng, -256, 255);
            let mut sum = [0i64; 16];
            for i in 0..16 {
                sum[i] = a[i] + b[i];
            }
            let ta = core_transform(&a);
            let tb = core_transform(&b);
            let tsum = core_transform(&sum);
            for i in 0..16 {
                assert_eq!(tsum[i], ta[i] + tb[i]);
            }
        }
    }

    /// SAD is a metric-ish: non-negative, zero iff equal, symmetric.
    #[test]
    fn sad_metric() {
        let mut rng = XorShift64Star::new(0x4826_3400_0002);
        for _ in 0..256 {
            let a = block16(&mut rng, -256, 255);
            let b = block16(&mut rng, -256, 255);
            assert!(sad(&a, &b) >= 0);
            assert_eq!(sad(&a, &b), sad(&b, &a));
            assert_eq!(sad(&a, &a), 0);
            if a != b {
                assert!(sad(&a, &b) > 0);
            }
        }
    }

    /// exp-Golomb bit counts are odd and monotone in |v| for same sign.
    #[test]
    fn exp_golomb_shape() {
        let mut rng = XorShift64Star::new(0x4826_3400_0003);
        for _ in 0..512 {
            let v = rng.i64_in(-100_000, 99_999);
            let bits = exp_golomb_bits(v);
            assert_eq!(bits % 2, 1);
            if v > 0 {
                assert!(exp_golomb_bits(v + 1) >= bits);
            }
        }
    }

    /// motion_estimate returns the argmin over candidates.
    #[test]
    fn me_is_argmin() {
        let mut rng = XorShift64Star::new(0x4826_3400_0004);
        for _ in 0..256 {
            let cur = block16(&mut rng, 0, 255);
            let cands = [
                block16(&mut rng, 0, 255),
                block16(&mut rng, 0, 255),
                block16(&mut rng, 0, 255),
            ];
            let (best, s) = motion_estimate(&cur, &cands);
            for c in &cands {
                assert!(sad(&cur, c) >= s);
            }
            assert_eq!(sad(&cur, &cands[best]), s);
        }
    }
}
