//! A JPEG-like image encoder.
//!
//! Section IV reports *"initial case studies on partitioning applications
//! like JPEG encoder indicate promising speedup results with considerably
//! reduced manual parallelization efforts"*. This module supplies that
//! workload twice:
//!
//! * a bit-exact Rust reference pipeline (8×8 integer DCT → quantisation →
//!   zigzag → run-length coding) used to validate outputs and to size the
//!   cost model, and
//! * [`jpeg_minic_source`], the same pipeline as sequential mini-C — the
//!   input MAPS partitions in experiment E5 and the recoder restructures in
//!   E8.
//!
//! The DCT is the classic integer approximation with a 12-bit fixed-point
//! cosine table; everything is integer so the interpreter and any
//! generated code agree exactly.

/// Width/height of a coding block.
pub(crate) const BLOCK: usize = 8;

/// Fixed-point scale of the cosine table (12 fractional bits).
const FP: i64 = 1 << 12;

/// The 8-point DCT-II basis, round(cos((2x+1)uπ/16) * 2^12).
const COS_TABLE: [[i64; BLOCK]; BLOCK] = build_cos_table();

const fn build_cos_table() -> [[i64; BLOCK]; BLOCK] {
    // const-fn cosine via precomputed integers (cos(k*pi/16) * 4096):
    // cos(0)=4096, cos(pi/16)=4017, cos(2pi/16)=3784, cos(3pi/16)=3406,
    // cos(4pi/16)=2896, cos(5pi/16)=2276, cos(6pi/16)=1567, cos(7pi/16)=799.
    let c: [i64; 8] = [4096, 4017, 3784, 3406, 2896, 2276, 1567, 799];
    let mut t = [[0i64; BLOCK]; BLOCK];
    let mut u = 0;
    while u < BLOCK {
        let mut x = 0;
        while x < BLOCK {
            // angle = (2x+1)*u*pi/16; reduce to the first period with sign.
            let k = (2 * x + 1) * u;
            let phase = k % 32; // cos has period 32 in units of pi/16
            let (idx, sign) = match phase {
                0..=7 => (phase, 1i64),
                8..=15 => (16 - phase, -1),
                16..=23 => (phase - 16, -1),
                _ => (32 - phase, 1),
            };
            t[u][x] = sign * c[idx];
            x += 1;
        }
        u += 1;
    }
    t
}

/// The standard JPEG luminance quantisation matrix.
pub(crate) const QUANT: [[i64; BLOCK]; BLOCK] = [
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
];

/// Zigzag scan order of an 8×8 block.
pub(crate) const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// 2-D integer DCT of one 8×8 block (values pre-shifted by −128).
pub(crate) fn dct8x8(block: &[i64; 64]) -> [i64; 64] {
    // Rows then columns, rescaling after each pass.
    let mut tmp = [0i64; 64];
    for y in 0..BLOCK {
        for u in 0..BLOCK {
            let mut acc = 0i64;
            for x in 0..BLOCK {
                acc += block[y * BLOCK + x] * COS_TABLE[u][x];
            }
            tmp[y * BLOCK + u] = acc / FP;
        }
    }
    let mut out = [0i64; 64];
    for u in 0..BLOCK {
        for v in 0..BLOCK {
            let mut acc = 0i64;
            for y in 0..BLOCK {
                acc += tmp[y * BLOCK + u] * COS_TABLE[v][y];
            }
            // Orthonormalisation: 1/4 overall, extra 1/sqrt(2) for u/v = 0
            // folded into an integer scale (close enough for an encoder
            // model; exactness is vs. this reference, not ITU).
            out[v * BLOCK + u] = acc / (FP * 4);
        }
    }
    out
}

/// Quantises DCT coefficients with the [`QUANT`] matrix.
pub(crate) fn quantize(coeffs: &[i64; 64]) -> [i64; 64] {
    let mut out = [0i64; 64];
    for v in 0..BLOCK {
        for u in 0..BLOCK {
            let q = QUANT[v][u];
            let c = coeffs[v * BLOCK + u];
            // Round-to-nearest with symmetric handling of negatives.
            out[v * BLOCK + u] = if c >= 0 {
                (c + q / 2) / q
            } else {
                -((-c + q / 2) / q)
            };
        }
    }
    out
}

/// Zigzag-reorders a quantised block.
pub(crate) fn zigzag(block: &[i64; 64]) -> [i64; 64] {
    let mut out = [0i64; 64];
    for (i, &z) in ZIGZAG.iter().enumerate() {
        out[i] = block[z];
    }
    out
}

/// Run-length encodes a zigzagged block as `(run, value)` pairs with a
/// `(0, 0)` terminator — a simplified JPEG AC coding.
pub(crate) fn rle_encode(zz: &[i64; 64]) -> Vec<(u8, i64)> {
    let mut out = Vec::new();
    let mut run = 0u8;
    for &v in &zz[1..] {
        if v == 0 {
            run = run.saturating_add(1);
        } else {
            out.push((run, v));
            run = 0;
        }
    }
    out.push((0, 0));
    out
}

/// A deterministic synthetic test image: smooth gradient plus texture.
pub fn synthetic_image(w: usize, h: usize) -> Vec<i64> {
    let mut img = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            let grad = (x * 255 / w.max(1)) as i64;
            let tex = (((x * 7 + y * 13) % 32) as i64) - 16;
            let edge = if (x / 16 + y / 16) % 2 == 0 { 20 } else { -20 };
            img.push((grad + tex + edge).clamp(0, 255));
        }
    }
    img
}

/// Encoded output of one block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedBlock {
    /// Quantised DC coefficient.
    pub(crate) dc: i64,
    /// AC run-length pairs.
    pub(crate) ac: Vec<(u8, i64)>,
}

/// Encodes a whole image (dimensions must be multiples of 8).
///
/// # Panics
///
/// Panics if `w`/`h` are not multiples of 8 or the pixel slice is too
/// short.
pub fn encode_image(w: usize, h: usize, pixels: &[i64]) -> Vec<EncodedBlock> {
    assert!(
        w.is_multiple_of(BLOCK) && h.is_multiple_of(BLOCK),
        "dimensions must be multiples of 8"
    );
    assert!(pixels.len() >= w * h, "pixel buffer too short");
    let mut out = Vec::new();
    for by in (0..h).step_by(BLOCK) {
        for bx in (0..w).step_by(BLOCK) {
            let mut block = [0i64; 64];
            for y in 0..BLOCK {
                for x in 0..BLOCK {
                    block[y * BLOCK + x] = pixels[(by + y) * w + (bx + x)] - 128;
                }
            }
            let zz = zigzag(&quantize(&dct8x8(&block)));
            out.push(EncodedBlock {
                dc: zz[0],
                ac: rle_encode(&zz),
            });
        }
    }
    out
}

/// The JPEG-like pipeline as sequential mini-C, operating on one 8×8 block:
/// `encode_block(int px[64], int out[64])` runs level-shift, a row/column
/// integer DCT (table-driven), quantisation, and zigzag. This is the
/// function MAPS partitions in E5: its top-level statements are the natural
/// task boundaries.
pub fn jpeg_minic_source() -> String {
    let mut cos_flat = String::new();
    let mut quant_flat = String::new();
    let mut zz_flat = String::new();
    let mut init = String::new();
    for (u, row) in COS_TABLE.iter().enumerate() {
        for (x, &c) in row.iter().enumerate() {
            init.push_str(&format!("    cosv[{}] = {};\n", u * BLOCK + x, c));
        }
    }
    for (v, row) in QUANT.iter().enumerate() {
        for (u, &q) in row.iter().enumerate() {
            init.push_str(&format!("    qv[{}] = {};\n", v * BLOCK + u, q));
        }
    }
    for (i, &z) in ZIGZAG.iter().enumerate() {
        init.push_str(&format!("    zz[{i}] = {z};\n"));
    }
    let _ = &mut cos_flat;
    let _ = &mut quant_flat;
    let _ = &mut zz_flat;
    format!(
        "void encode_block(int px[64], int out[64]) {{\n\
         int cosv[64];\n\
         int qv[64];\n\
         int zz[64];\n\
         int shifted[64];\n\
         int rows[64];\n\
         int freq[64];\n\
         int quanted[64];\n\
         {init}\
         for (i = 0; i < 64; i = i + 1) {{ shifted[i] = px[i] - 128; }}\n\
         for (y = 0; y < 8; y = y + 1) {{\n\
             for (u = 0; u < 8; u = u + 1) {{\n\
                 int acc = 0;\n\
                 for (x = 0; x < 8; x = x + 1) {{ acc = acc + shifted[y * 8 + x] * cosv[u * 8 + x]; }}\n\
                 rows[y * 8 + u] = acc / 4096;\n\
             }}\n\
         }}\n\
         for (u = 0; u < 8; u = u + 1) {{\n\
             for (v = 0; v < 8; v = v + 1) {{\n\
                 int acc2 = 0;\n\
                 for (y = 0; y < 8; y = y + 1) {{ acc2 = acc2 + rows[y * 8 + u] * cosv[v * 8 + y]; }}\n\
                 freq[v * 8 + u] = acc2 / 16384;\n\
             }}\n\
         }}\n\
         for (i = 0; i < 64; i = i + 1) {{\n\
             int c = freq[i];\n\
             int q = qv[i];\n\
             if (c >= 0) {{ quanted[i] = (c + q / 2) / q; }} else {{ quanted[i] = 0 - ((0 - c + q / 2) / q); }}\n\
         }}\n\
         for (i = 0; i < 64; i = i + 1) {{ out[i] = quanted[zz[i]]; }}\n\
         }}\n"
    )
}

/// A frame-level encoder in mini-C: `encode_frame(int px[], int out[])`
/// reduces each of `blocks` 8×8 blocks to a quantised DC + energy summary
/// in `out[b]`. The function is written *sequentially* (one loop over
/// blocks) — the shape MAPS receives. One `split_loop` recoding step
/// exposes the block-level data parallelism, which the range-refined
/// dependence analysis then proves (experiment E5).
pub fn jpeg_frame_minic_source(blocks: usize) -> String {
    format!(
        "void encode_frame(int px[], int out[]) {{\n\
         for (b = 0; b < {blocks}; b = b + 1) {{\n\
             int acc = 0;\n\
             int energy = 0;\n\
             for (k = 0; k < 64; k = k + 1) {{\n\
                 int s = px[b * 64 + k] - 128;\n\
                 acc = acc + s;\n\
                 energy = energy + s * s;\n\
             }}\n\
             int dc = acc / 8;\n\
             int q = 0;\n\
             if (dc >= 0) {{ q = (dc + 8) / 16; }} else {{ q = 0 - ((8 - dc) / 16); }}\n\
             out[b] = q + energy / 4096;\n\
         }}\n\
         }}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_minic::interp::Interp;

    #[test]
    fn cos_table_symmetries() {
        // Row 0 is flat; row 4 alternates in sign pairs.
        assert!(COS_TABLE[0].iter().all(|&v| v == 4096));
        assert_eq!(
            COS_TABLE[4],
            [2896, -2896, -2896, 2896, 2896, -2896, -2896, 2896]
        );
    }

    #[test]
    fn flat_block_has_only_dc() {
        let block = [50i64; 64];
        let f = dct8x8(&block);
        assert!(f[0] > 0, "DC must capture the mean");
        for (i, &c) in f.iter().enumerate().skip(1) {
            assert!(c.abs() <= 1, "AC coefficient {i} = {c} should vanish");
        }
    }

    #[test]
    fn horizontal_cosine_excites_one_coefficient() {
        // px(x) = cos basis row 2 -> energy concentrates at u=2, v=0.
        let mut block = [0i64; 64];
        for y in 0..8 {
            for x in 0..8 {
                block[y * 8 + x] = COS_TABLE[2][x] / 64;
            }
        }
        let f = dct8x8(&block);
        let peak = f[2].abs(); // v=0, u=2
        for (i, &c) in f.iter().enumerate() {
            if i != 2 {
                assert!(c.abs() < peak / 4, "coefficient {i} = {c}, peak {peak}");
            }
        }
    }

    #[test]
    fn quantize_rounds_symmetrically() {
        let mut c = [0i64; 64];
        c[0] = 33; // q=16 -> round(33/16) = 2
        c[1] = -33; // q=11 -> -3
        let q = quantize(&c);
        assert_eq!(q[0], 2);
        assert_eq!(q[1], -3);
    }

    #[test]
    fn zigzag_is_permutation() {
        let mut seen = [false; 64];
        for &z in &ZIGZAG {
            assert!(!seen[z]);
            seen[z] = true;
        }
        let block: [i64; 64] = std::array::from_fn(|i| i as i64);
        let zz = zigzag(&block);
        assert_eq!(zz[0], 0);
        assert_eq!(zz[1], 1);
        assert_eq!(zz[2], 8);
    }

    #[test]
    fn rle_roundtrip_structure() {
        let mut zz = [0i64; 64];
        zz[1] = 5;
        zz[4] = -2;
        let rle = rle_encode(&zz);
        assert_eq!(rle, vec![(0, 5), (2, -2), (0, 0)]);
    }

    #[test]
    fn encode_image_produces_blocks() {
        let img = synthetic_image(32, 16);
        let blocks = encode_image(32, 16, &img);
        assert_eq!(blocks.len(), 8);
        // The gradient image has non-trivial DC variation across blocks.
        let dcs: Vec<i64> = blocks.iter().map(|b| b.dc).collect();
        assert!(dcs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn minic_pipeline_matches_reference() {
        let unit = mpsoc_minic::parse(&jpeg_minic_source()).expect("mini-C source parses");
        let img = synthetic_image(8, 8);
        // Reference.
        let mut block = [0i64; 64];
        for i in 0..64 {
            block[i] = img[i] - 128;
        }
        let expected = zigzag(&quantize(&dct8x8(&block)));
        // mini-C.
        let mut it = Interp::new(&unit);
        it.set_max_steps(100_000_000);
        let px = it.alloc_array(&img);
        let out = it.alloc_array(&[0i64; 64]);
        it.run("encode_block", &[px, out]).unwrap();
        let got = it.read_array(out, 64).unwrap();
        assert_eq!(got, expected.to_vec(), "mini-C and Rust pipelines agree");
    }

    #[test]
    #[should_panic(expected = "multiples of 8")]
    fn encode_image_validates_dims() {
        let _ = encode_image(10, 8, &[0; 80]);
    }

    #[test]
    fn frame_source_runs_and_split_is_equivalent() {
        let blocks = 8;
        let src = jpeg_frame_minic_source(blocks);
        let unit = mpsoc_minic::parse(&src).unwrap();
        let img = synthetic_image(64, 8); // 8 blocks side by side
        let run = |u: &mpsoc_minic::Unit| {
            let mut it = Interp::new(u);
            it.set_max_steps(10_000_000);
            let px = it.alloc_array(&img);
            let out = it.alloc_array(&vec![0i64; blocks]);
            it.run("encode_frame", &[px, out]).unwrap();
            it.read_array(out, blocks).unwrap()
        };
        let reference = run(&unit);
        assert!(reference.iter().any(|&v| v != 0));
        // Splitting the block loop preserves the output.
        let mut split = mpsoc_minic::parse(&src).unwrap();
        mpsoc_recoder_split(&mut split);
        assert_eq!(run(&split), reference);
    }

    // The recoder crate is not a dependency of apps; replicate the split
    // here structurally (the real split is tested in mpsoc-recoder).
    fn mpsoc_recoder_split(unit: &mut mpsoc_minic::Unit) {
        use mpsoc_minic::ast::{NodeIdGen, StmtKind};
        use mpsoc_minic::Expr;
        let mut ids = NodeIdGen::starting_at(unit.next_node_id());
        let f = unit.function_mut("encode_frame").unwrap();
        let StmtKind::For { var, body, .. } = f.body[0].kind.clone() else {
            panic!("expected loop");
        };
        let halves = [(0, 4), (4, 8)];
        let mut loops = Vec::new();
        for (lo, hi) in halves {
            loops.push(mpsoc_minic::Stmt {
                id: ids.fresh(),
                kind: StmtKind::For {
                    var: var.clone(),
                    from: Expr::lit(lo),
                    to: Expr::lit(hi),
                    step: Expr::lit(1),
                    body: body.clone(),
                },
            });
        }
        f.body.splice(0..=0, loops);
    }
}

#[cfg(test)]
mod prop_tests {
    //! Seeded property-style tests: each invariant is checked over a few
    //! hundred deterministic random cases drawn from [`XorShift64Star`].
    use super::*;
    use mpsoc_obs::rng::XorShift64Star;

    /// RLE always terminates with (0,0) and never encodes a zero value
    /// elsewhere.
    #[test]
    fn rle_structure() {
        let mut rng = XorShift64Star::new(0x4a50_4547_0001);
        for _ in 0..256 {
            let mut zz = [0i64; 64];
            rng.fill_i64(&mut zz[..32], -64, 63);
            let rle = rle_encode(&zz);
            assert_eq!(*rle.last().unwrap(), (0u8, 0i64));
            for &(_, v) in &rle[..rle.len() - 1] {
                assert_ne!(v, 0);
            }
        }
    }

    /// Zigzag is a bijection: applying the inverse permutation restores
    /// the block.
    #[test]
    fn zigzag_bijective() {
        let mut rng = XorShift64Star::new(0x4a50_4547_0002);
        for _ in 0..256 {
            let mut block = [0i64; 64];
            rng.fill_i64(&mut block[..32], -100, 99);
            let zz = zigzag(&block);
            let mut back = [0i64; 64];
            for (i, &z) in ZIGZAG.iter().enumerate() {
                back[z] = zz[i];
            }
            assert_eq!(back, block);
        }
    }

    /// Quantisation never increases magnitude beyond |c|/q + 1 and
    /// maps zero to zero.
    #[test]
    fn quantize_bounded() {
        let mut rng = XorShift64Star::new(0x4a50_4547_0003);
        for _ in 0..512 {
            let c = rng.i64_in(-2048, 2047);
            let pos = rng.usize_in(0, 63);
            let mut coeffs = [0i64; 64];
            coeffs[pos] = c;
            let q = quantize(&coeffs);
            let step = QUANT[pos / 8][pos % 8];
            assert!(q[pos].abs() <= c.abs() / step + 1);
            for (i, &v) in q.iter().enumerate() {
                if i != pos {
                    assert_eq!(v, 0);
                }
            }
        }
    }

    /// The DCT of any constant block concentrates in DC.
    #[test]
    fn dct_constant_blocks() {
        for level in -128i64..128 {
            let block = [level; 64];
            let f = dct8x8(&block);
            for (i, &c) in f.iter().enumerate().skip(1) {
                assert!(c.abs() <= 1, "AC {i} = {c} for level {level}");
            }
        }
    }
}
