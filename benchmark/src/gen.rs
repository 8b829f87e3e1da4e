//! Seeded input generators. Everything a workload feeds the program is
//! either a frozen file under `inputs/` or made here from `--seed` through
//! the obs xorshift splitter, so the same seed always yields the same
//! inputs and the program only ever sees generated data.

use std::fmt::Write as _;

use crate::layers::{self, Graph, Workload, XorShift64Star};

/// The generator for stream `stream` of sub-input `index` under `seed`:
/// independent of every other `(stream, index)` pair.
pub fn rng(seed: u64, stream: u64, index: u64) -> XorShift64Star {
    let mut root = XorShift64Star::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut child = root.split();
    XorShift64Star::new(child.next_u64() ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Lines the generated mini-C source aims for — big enough that parse and
/// dependence-analysis cost is visible next to the two application sources.
pub const MINIC_TARGET_LINES: usize = 320;

/// Emits a mini-C translation unit of about [`MINIC_TARGET_LINES`] lines in
/// the loop/array subset the tool flows consume: functions over `int`
/// arrays built from element-wise loops, reductions, two-level nests and
/// guarded updates. Every output parses and resolves.
pub fn minic_source(rng: &mut XorShift64Star) -> String {
    let mut src = String::new();
    let mut func = 0;
    while src.lines().count() < MINIC_TARGET_LINES {
        let n = 8 * rng.usize_in(2, 8);
        let _ = writeln!(src, "void kernel{func}(int a[], int b[], int out[]) {{");
        let _ = writeln!(src, "    int tmp[{n}];");
        let _ = writeln!(src, "    int acc = 0;");
        let _ = writeln!(
            src,
            "    for (i = 0; i < {n}; i = i + 1) {{ tmp[i] = a[i] + b[i]; }}"
        );
        for stmt in 0..rng.usize_in(3, 6) {
            let k = rng.i64_in(1, 9);
            match rng.usize_in(0, 3) {
                0 => {
                    let _ = writeln!(src, "    for (i = 0; i < {n}; i = i + 1) {{");
                    let _ = writeln!(src, "        tmp[i] = tmp[i] * {k} + a[i] - b[i];");
                    let _ = writeln!(src, "    }}");
                }
                1 => {
                    let _ = writeln!(src, "    for (i = 0; i < {n}; i = i + 1) {{");
                    let _ = writeln!(src, "        int v{stmt} = tmp[i] - {k};");
                    let _ = writeln!(src, "        acc = acc + v{stmt} * v{stmt};");
                    let _ = writeln!(src, "    }}");
                }
                2 => {
                    let (rows, cols) = (n / 8, 8);
                    let _ = writeln!(src, "    for (y = 0; y < {rows}; y = y + 1) {{");
                    let _ = writeln!(src, "        int row{stmt} = 0;");
                    let _ = writeln!(src, "        for (x = 0; x < {cols}; x = x + 1) {{");
                    let _ = writeln!(
                        src,
                        "            row{stmt} = row{stmt} + tmp[y * {cols} + x] * {k};"
                    );
                    let _ = writeln!(src, "        }}");
                    let _ = writeln!(src, "        out[y] = row{stmt} / {cols};");
                    let _ = writeln!(src, "    }}");
                }
                _ => {
                    let _ = writeln!(src, "    for (i = 0; i < {n}; i = i + 1) {{");
                    let _ = writeln!(src, "        int c{stmt} = tmp[i];");
                    let _ = writeln!(
                        src,
                        "        if (c{stmt} >= {k}) {{ out[i] = (c{stmt} + {k}) / {k}; }} \
                         else {{ out[i] = 0 - c{stmt}; }}"
                    );
                    let _ = writeln!(src, "    }}");
                }
            }
        }
        let _ = writeln!(src, "    out[0] = acc;");
        let _ = writeln!(src, "}}");
        func += 1;
    }
    src
}

/// The seed-derived inputs of one designer iteration of `toolflow_dse`.
#[derive(Clone, Debug)]
pub struct ToolflowInput {
    /// Generated application source (beside the two fixed JPEG sources).
    pub minic: String,
    /// Seed of the multi-start annealer on the `.soc` architecture.
    pub anneal_seed: u64,
    /// Master seed of the joint mapping x topology sweep (it derives the
    /// topology seeds).
    pub joint_seed: u64,
    /// Deadline of the CIC exploration, cycles per iteration.
    pub cic_deadline: u64,
    /// The rtkernel policy sweep's workload.
    pub rt: Workload,
    /// The dataflow sizing search's graph.
    pub df: Graph,
}

/// Inputs of iteration `index` under `seed`.
pub fn toolflow_input(seed: u64, index: u64) -> Result<ToolflowInput, String> {
    let mut r = rng(seed, 1, index);
    let minic = minic_source(&mut r);
    let anneal_seed = r.next_u64();
    let joint_seed = r.next_u64();
    let cic_deadline = r.u64_in(1_000, 2_400);
    let rt = layers::rt_workload(
        (r.u64_in(8, 12), r.u64_in(700, 1_100)),
        r.u64_in(30, 50),
        r.u64_in(20, 30),
    );
    let period = r.u64_in(80, 120);
    let window = r.u64_in(1, 4) as u32;
    let df = layers::df_chain(period, r.u64_in(period / 4, period / 2), window)?;
    Ok(ToolflowInput {
        minic,
        anneal_seed,
        joint_seed,
        cic_deadline,
        rt,
        df,
    })
}

/// One inspect round of a debug session: select a core, read its
/// registers, read a memory window, then single-step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InspectRound {
    /// GDB thread id (core + 1) selected with `Hg`.
    pub thread: usize,
    /// Word address of the `m` read.
    pub addr: u32,
    /// Words the `m` read covers.
    pub len: u32,
}

/// The seed-derived command schedule of the debug workloads: the same
/// rounds are replayed by every session of a run, over RSP and — for the
/// reference — by direct debugger calls.
pub fn inspect_schedule(seed: u64, rounds: usize, cores: usize) -> Vec<InspectRound> {
    let mut r = rng(seed, 2, 0);
    (0..rounds)
        .map(|_| InspectRound {
            thread: r.usize_in(1, cores),
            addr: r.u64_in(0, 0xE00) as u32,
            len: r.u64_in(16, 64) as u32,
        })
        .collect()
}

/// Seed of fault batch `index` under `seed`.
pub fn fault_seed(seed: u64, index: u64) -> u64 {
    rng(seed, 3, index).next_u64()
}

/// Simulated microseconds (0..1000) added to the simulation workloads'
/// 1 ms warm-up, so each seed measures slices at a different phase.
pub fn warmup_offset_us(seed: u64) -> u64 {
    rng(seed, 4, 0).u64_in(0, 999)
}

/// Steps (0..1000) added to each `c` packet of `debug_rewind`, so each
/// seed's step-backs fall at a different distance from a checkpoint.
pub fn rewind_offset_steps(seed: u64) -> u64 {
    rng(seed, 5, 0).u64_in(0, 999)
}
