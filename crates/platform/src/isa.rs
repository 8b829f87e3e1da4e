//! The platform's homogeneous RISC instruction set.
//!
//! Section II of the paper argues that MPSoC hardware *"shall have
//! homogeneous ISA"* so that *"any piece of software can be executed on any
//! of the processor cores"*. The platform therefore defines exactly one
//! instruction set, shared by every core regardless of its clock frequency
//! or role (time-shared vs. space-shared).
//!
//! The ISA is a small word-oriented load/store machine: 16 general-purpose
//! 64-bit registers, word-addressed memory, and the usual ALU / branch /
//! memory instructions. It is deliberately compact — large enough to run the
//! workloads of `mpsoc-apps` and to demonstrate the Section VII debugging
//! scenarios, small enough to stay fully analyzable.
//!
//! A text [assembler](assemble) is provided so tests and examples can write
//! readable programs.

use std::collections::HashMap;
use std::fmt;

use crate::error::{Error, Result};

/// The machine word: every register and memory cell holds an `i64`.
pub type Word = i64;

/// A general-purpose register index (`r0`–`r15`).
///
/// `r0` is an ordinary register (not hard-wired to zero); by convention the
/// assembler uses `r14` as stack pointer and `r15` as link register, but the
/// hardware imposes no roles.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Number of architectural registers.
    pub const COUNT: usize = 16;
    /// The conventional link register, written by [`Instr::Jal`].
    pub(crate) const LINK: Reg = Reg(15);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 16`.
    pub fn new(idx: u8) -> Self {
        assert!((idx as usize) < Self::COUNT, "register index out of range");
        Reg(idx)
    }

    /// The register's index (0–15).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One machine instruction.
///
/// Cost model: every instruction has a base cost in cycles (see
/// `Instr::base_cycles`); loads and stores additionally pay the memory
/// system's latency, which depends on the target (local store, cache
/// hit/miss over the interconnect, peripheral page).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Instr {
    /// Does nothing for one cycle.
    Nop,
    /// Stops the core permanently (until platform reset).
    Halt,
    /// `rd <- imm`
    Movi(Reg, Word),
    /// `rd <- rs`
    Mov(Reg, Reg),
    /// `rd <- rs + rt`
    Add(Reg, Reg, Reg),
    /// `rd <- rs + imm`
    Addi(Reg, Reg, Word),
    /// `rd <- rs - rt`
    Sub(Reg, Reg, Reg),
    /// `rd <- rs * rt` (3-cycle multiplier)
    Mul(Reg, Reg, Reg),
    /// `rd <- rs / rt` (10-cycle divider; traps on zero divisor)
    Div(Reg, Reg, Reg),
    /// `rd <- rs % rt` (10-cycle divider; traps on zero divisor)
    Rem(Reg, Reg, Reg),
    /// `rd <- rs & rt`
    And(Reg, Reg, Reg),
    /// `rd <- rs | rt`
    Or(Reg, Reg, Reg),
    /// `rd <- rs ^ rt`
    Xor(Reg, Reg, Reg),
    /// `rd <- rs << (rt & 63)`
    Shl(Reg, Reg, Reg),
    /// `rd <- rs >> (rt & 63)` (arithmetic)
    Shr(Reg, Reg, Reg),
    /// `rd <- (rs < rt) ? 1 : 0` (signed)
    Slt(Reg, Reg, Reg),
    /// `rd <- (rs == rt) ? 1 : 0`
    Seq(Reg, Reg, Reg),
    /// `rd <- mem[rs + off]`
    Ld(Reg, Reg, Word),
    /// `mem[ra + off] <- rv`
    St(Reg, Reg, Word),
    /// Branch to `target` if `rs == rt`.
    Beq(Reg, Reg, u32),
    /// Branch to `target` if `rs != rt`.
    Bne(Reg, Reg, u32),
    /// Branch to `target` if `rs < rt` (signed).
    Blt(Reg, Reg, u32),
    /// Unconditional jump.
    Jmp(u32),
    /// Jump and link: `r15 <- pc + 1; pc <- target`.
    Jal(u32),
    /// Jump to register: `pc <- rs`.
    Jr(Reg),
    /// Sleep until an interrupt is delivered to this core.
    Wfi,
    /// Return from interrupt: `pc <- saved_pc`, re-enables interrupts.
    Rti,
}

impl Instr {
    /// The instruction's base cost in core cycles, excluding memory latency.
    pub(crate) fn base_cycles(self) -> u64 {
        match self {
            Instr::Mul(..) => 3,
            Instr::Div(..) | Instr::Rem(..) => 10,
            Instr::Ld(..) | Instr::St(..) => 1, // plus memory latency
            _ => 1,
        }
    }

    /// The registers the instruction reads and writes, as bit masks over
    /// `r0`–`r15` (bit `i` is `ri`). A register in both sets, like `r1` in
    /// `addi r1, r1, 3`, is read before it is written. Address and branch
    /// operands count as reads; [`Instr::Jal`] writes the link register.
    pub fn reg_use(self) -> RegUse {
        let bit = |r: Reg| 1u16 << r.0;
        let (reads, writes) = match self {
            Instr::Nop | Instr::Halt | Instr::Wfi | Instr::Rti | Instr::Jmp(_) => (0, 0),
            Instr::Movi(d, _) => (0, bit(d)),
            Instr::Mov(d, s) | Instr::Addi(d, s, _) | Instr::Ld(d, s, _) => (bit(s), bit(d)),
            Instr::Add(d, s, t)
            | Instr::Sub(d, s, t)
            | Instr::Mul(d, s, t)
            | Instr::Div(d, s, t)
            | Instr::Rem(d, s, t)
            | Instr::And(d, s, t)
            | Instr::Or(d, s, t)
            | Instr::Xor(d, s, t)
            | Instr::Shl(d, s, t)
            | Instr::Shr(d, s, t)
            | Instr::Slt(d, s, t)
            | Instr::Seq(d, s, t) => (bit(s) | bit(t), bit(d)),
            Instr::St(v, a, _)
            | Instr::Beq(v, a, _)
            | Instr::Bne(v, a, _)
            | Instr::Blt(v, a, _) => (bit(v) | bit(a), 0),
            Instr::Jal(_) => (0, bit(Reg::LINK)),
            Instr::Jr(s) => (bit(s), 0),
        };
        RegUse { reads, writes }
    }
}

/// The register read and write sets of one instruction ([`Instr::reg_use`]),
/// as bit masks over `r0`–`r15`: bit `i` stands for `ri`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegUse {
    /// Registers whose values the instruction reads.
    pub reads: u16,
    /// Registers the instruction writes.
    pub writes: u16,
}

/// An assembled program: instructions plus its label table.
///
/// Programs are position-independent in the sense that the program counter
/// indexes into the program's instructions; data lives in the platform's
/// memories, not in the program.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Program {
    instrs: Vec<Instr>,
    /// The symbol table, strictly ascending by address then name — the
    /// order it travels in on the wire, so a checkpoint writes and reads it
    /// as it stands.
    labels: Vec<(String, u32)>,
}

impl Program {
    /// The instruction at `pc`, if in range.
    pub fn fetch(&self, pc: u32) -> Option<Instr> {
        self.instrs.get(pc as usize).copied()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Resolves a label to its instruction address.
    pub fn label(&self, name: &str) -> Option<u32> {
        let (_, addr) = self.labels.iter().find(|(n, _)| n == name)?;
        Some(*addr)
    }
}

impl mpsoc_snapshot::Snapshot for Reg {
    fn save(&self, w: &mut mpsoc_snapshot::Writer) {
        w.put_u8(self.0);
    }
    fn load(r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<Self> {
        let idx = r.get_u8()?;
        if (idx as usize) < Reg::COUNT {
            Ok(Reg(idx))
        } else {
            Err(mpsoc_snapshot::SnapError::BadTag {
                what: "register index",
                tag: u64::from(idx),
            })
        }
    }
}

impl mpsoc_snapshot::Snapshot for Instr {
    fn save(&self, w: &mut mpsoc_snapshot::Writer) {
        // Opcode byte, then operands in declaration order. Opcodes are part
        // of the versioned image format: renumbering requires a version bump.
        match *self {
            Instr::Nop => w.put_u8(0),
            Instr::Halt => w.put_u8(1),
            Instr::Movi(d, v) => {
                w.put_u8(2);
                d.save(w);
                w.put_i64(v);
            }
            Instr::Mov(d, s) => {
                w.put_u8(3);
                d.save(w);
                s.save(w);
            }
            Instr::Add(d, s, t) => save3(w, 4, d, s, t),
            Instr::Addi(d, s, v) => {
                w.put_u8(5);
                d.save(w);
                s.save(w);
                w.put_i64(v);
            }
            Instr::Sub(d, s, t) => save3(w, 6, d, s, t),
            Instr::Mul(d, s, t) => save3(w, 7, d, s, t),
            Instr::Div(d, s, t) => save3(w, 8, d, s, t),
            Instr::Rem(d, s, t) => save3(w, 9, d, s, t),
            Instr::And(d, s, t) => save3(w, 10, d, s, t),
            Instr::Or(d, s, t) => save3(w, 11, d, s, t),
            Instr::Xor(d, s, t) => save3(w, 12, d, s, t),
            Instr::Shl(d, s, t) => save3(w, 13, d, s, t),
            Instr::Shr(d, s, t) => save3(w, 14, d, s, t),
            Instr::Slt(d, s, t) => save3(w, 15, d, s, t),
            Instr::Seq(d, s, t) => save3(w, 16, d, s, t),
            Instr::Ld(d, a, off) => {
                w.put_u8(17);
                d.save(w);
                a.save(w);
                w.put_i64(off);
            }
            Instr::St(v, a, off) => {
                w.put_u8(18);
                v.save(w);
                a.save(w);
                w.put_i64(off);
            }
            Instr::Beq(a, b, t) => save_branch(w, 19, a, b, t),
            Instr::Bne(a, b, t) => save_branch(w, 20, a, b, t),
            Instr::Blt(a, b, t) => save_branch(w, 21, a, b, t),
            Instr::Jmp(t) => {
                w.put_u8(22);
                w.put_u32(t);
            }
            Instr::Jal(t) => {
                w.put_u8(23);
                w.put_u32(t);
            }
            Instr::Jr(s) => {
                w.put_u8(24);
                s.save(w);
            }
            Instr::Wfi => w.put_u8(25),
            Instr::Rti => w.put_u8(26),
        }
    }

    fn load(r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<Self> {
        let op = r.get_u8()?;
        let i = match op {
            0 => Instr::Nop,
            1 => Instr::Halt,
            2 => Instr::Movi(Reg::load(r)?, r.get_i64()?),
            3 => Instr::Mov(Reg::load(r)?, Reg::load(r)?),
            4 => Instr::Add(Reg::load(r)?, Reg::load(r)?, Reg::load(r)?),
            5 => Instr::Addi(Reg::load(r)?, Reg::load(r)?, r.get_i64()?),
            6 => Instr::Sub(Reg::load(r)?, Reg::load(r)?, Reg::load(r)?),
            7 => Instr::Mul(Reg::load(r)?, Reg::load(r)?, Reg::load(r)?),
            8 => Instr::Div(Reg::load(r)?, Reg::load(r)?, Reg::load(r)?),
            9 => Instr::Rem(Reg::load(r)?, Reg::load(r)?, Reg::load(r)?),
            10 => Instr::And(Reg::load(r)?, Reg::load(r)?, Reg::load(r)?),
            11 => Instr::Or(Reg::load(r)?, Reg::load(r)?, Reg::load(r)?),
            12 => Instr::Xor(Reg::load(r)?, Reg::load(r)?, Reg::load(r)?),
            13 => Instr::Shl(Reg::load(r)?, Reg::load(r)?, Reg::load(r)?),
            14 => Instr::Shr(Reg::load(r)?, Reg::load(r)?, Reg::load(r)?),
            15 => Instr::Slt(Reg::load(r)?, Reg::load(r)?, Reg::load(r)?),
            16 => Instr::Seq(Reg::load(r)?, Reg::load(r)?, Reg::load(r)?),
            17 => Instr::Ld(Reg::load(r)?, Reg::load(r)?, r.get_i64()?),
            18 => Instr::St(Reg::load(r)?, Reg::load(r)?, r.get_i64()?),
            19 => Instr::Beq(Reg::load(r)?, Reg::load(r)?, r.get_u32()?),
            20 => Instr::Bne(Reg::load(r)?, Reg::load(r)?, r.get_u32()?),
            21 => Instr::Blt(Reg::load(r)?, Reg::load(r)?, r.get_u32()?),
            22 => Instr::Jmp(r.get_u32()?),
            23 => Instr::Jal(r.get_u32()?),
            24 => Instr::Jr(Reg::load(r)?),
            25 => Instr::Wfi,
            26 => Instr::Rti,
            tag => {
                return Err(mpsoc_snapshot::SnapError::BadTag {
                    what: "instruction opcode",
                    tag: u64::from(tag),
                })
            }
        };
        Ok(i)
    }
}

fn save3(w: &mut mpsoc_snapshot::Writer, op: u8, d: Reg, s: Reg, t: Reg) {
    use mpsoc_snapshot::Snapshot as _;
    w.put_u8(op);
    d.save(w);
    s.save(w);
    t.save(w);
}

fn save_branch(w: &mut mpsoc_snapshot::Writer, op: u8, a: Reg, b: Reg, target: u32) {
    use mpsoc_snapshot::Snapshot as _;
    w.put_u8(op);
    a.save(w);
    b.save(w);
    w.put_u32(target);
}

impl Clone for Program {
    fn clone(&self) -> Self {
        let mut p = Program::default();
        p.clone_from(self);
        p
    }
    // Reuses the instruction buffer and, label by label, the name strings
    // (a tuple's `clone_from` would clone each name anew).
    fn clone_from(&mut self, src: &Self) {
        let Program { instrs, labels } = src;
        self.instrs.clone_from(instrs);
        self.labels.truncate(labels.len());
        for ((name, addr), (src_name, src_addr)) in self.labels.iter_mut().zip(labels) {
            name.clone_from(src_name);
            *addr = *src_addr;
        }
        let have = self.labels.len();
        self.labels.extend_from_slice(&labels[have..]);
    }
}

impl mpsoc_snapshot::Snapshot for Program {
    fn save(&self, w: &mut mpsoc_snapshot::Writer) {
        self.instrs.save(w);
        self.labels.save(w);
    }
    fn load(r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<Self> {
        let mut p = Program::default();
        p.load_into(r)?;
        Ok(p)
    }
    fn load_into(&mut self, r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<()> {
        self.instrs.load_into(r)?;
        self.labels.load_into(r)?;
        // The order is the type's invariant (equality and the encoding
        // depend on it), so a table that breaks it is not a program.
        let ascending = |w: &[(String, u32)]| (w[0].1, &w[0].0) < (w[1].1, &w[1].0);
        if !self.labels.windows(2).all(ascending) {
            return Err(mpsoc_snapshot::SnapError::Malformed(
                "program labels are not strictly ascending by address, then name".into(),
            ));
        }
        Ok(())
    }
}

/// Assembles textual assembly into a [`Program`].
///
/// Syntax, one instruction per line:
///
/// ```text
/// ; comment                      -- `;` or `#` start a comment
/// loop:                          -- labels end with `:`
///     movi r1, 42
///     addi r1, r1, -1
///     bne  r1, r0, loop          -- branch targets are labels or numbers
///     halt
/// ```
///
/// # Errors
///
/// Returns [`Error::Assembler`] with the offending line number for unknown
/// mnemonics, malformed operands, bad register names, or unresolved labels.
///
/// # Examples
///
/// ```
/// use mpsoc_platform::isa::assemble;
/// let prog = assemble("movi r1, 7\nhalt").unwrap();
/// assert_eq!(prog.len(), 2);
/// ```
pub fn assemble(src: &str) -> Result<Program> {
    // Pass 1: collect labels.
    let mut labels = HashMap::new();
    let mut pc = 0u32;
    for (lineno, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let mut rest = line;
        while let Some(colon) = rest.find(':') {
            let (lbl, after) = rest.split_at(colon);
            let lbl = lbl.trim();
            if lbl.is_empty() || lbl.contains(char::is_whitespace) {
                return Err(Error::Assembler {
                    line: lineno + 1,
                    msg: format!("malformed label `{lbl}`"),
                });
            }
            if labels.insert(lbl.to_string(), pc).is_some() {
                return Err(Error::Assembler {
                    line: lineno + 1,
                    msg: format!("duplicate label `{lbl}`"),
                });
            }
            rest = after[1..].trim();
        }
        if !rest.is_empty() {
            pc += 1;
        }
    }

    // Pass 2: encode instructions.
    let mut instrs = Vec::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let mut rest = line;
        while let Some(colon) = rest.find(':') {
            rest = rest[colon + 1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        instrs.push(parse_instr(rest, &labels, lineno + 1)?);
    }
    let mut labels: Vec<(String, u32)> = labels.into_iter().collect();
    labels.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
    Ok(Program { instrs, labels })
}

fn strip_comment(line: &str) -> &str {
    match line.find([';', '#']) {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_instr(text: &str, labels: &HashMap<String, u32>, line: usize) -> Result<Instr> {
    let err = |msg: String| Error::Assembler { line, msg };
    let (mn, ops) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    let ops: Vec<&str> = if ops.is_empty() {
        Vec::new()
    } else {
        ops.split(',').map(str::trim).collect()
    };
    let reg = |s: &str| -> Result<Reg> {
        let idx = s
            .strip_prefix('r')
            .and_then(|n| n.parse::<u8>().ok())
            .filter(|&n| (n as usize) < Reg::COUNT)
            .ok_or_else(|| err(format!("bad register `{s}`")))?;
        Ok(Reg::new(idx))
    };
    let imm = |s: &str| -> Result<Word> {
        parse_int(s).ok_or_else(|| err(format!("bad immediate `{s}`")))
    };
    let target = |s: &str| -> Result<u32> {
        if let Some(t) = labels.get(s) {
            return Ok(*t);
        }
        parse_int(s)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| err(format!("unresolved branch target `{s}`")))
    };
    let need = |n: usize| -> Result<()> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(format!(
                "`{mn}` expects {n} operand(s), got {}",
                ops.len()
            )))
        }
    };

    let mn_lc = mn.to_ascii_lowercase();
    let i = match mn_lc.as_str() {
        "nop" => {
            need(0)?;
            Instr::Nop
        }
        "halt" => {
            need(0)?;
            Instr::Halt
        }
        "wfi" => {
            need(0)?;
            Instr::Wfi
        }
        "rti" => {
            need(0)?;
            Instr::Rti
        }
        "movi" => {
            need(2)?;
            Instr::Movi(reg(ops[0])?, imm(ops[1])?)
        }
        "mov" => {
            need(2)?;
            Instr::Mov(reg(ops[0])?, reg(ops[1])?)
        }
        "add" | "sub" | "mul" | "div" | "rem" | "and" | "or" | "xor" | "shl" | "shr" | "slt"
        | "seq" => {
            need(3)?;
            let (d, s, t) = (reg(ops[0])?, reg(ops[1])?, reg(ops[2])?);
            match mn_lc.as_str() {
                "add" => Instr::Add(d, s, t),
                "sub" => Instr::Sub(d, s, t),
                "mul" => Instr::Mul(d, s, t),
                "div" => Instr::Div(d, s, t),
                "rem" => Instr::Rem(d, s, t),
                "and" => Instr::And(d, s, t),
                "or" => Instr::Or(d, s, t),
                "xor" => Instr::Xor(d, s, t),
                "shl" => Instr::Shl(d, s, t),
                "shr" => Instr::Shr(d, s, t),
                "slt" => Instr::Slt(d, s, t),
                _ => Instr::Seq(d, s, t),
            }
        }
        "addi" => {
            need(3)?;
            Instr::Addi(reg(ops[0])?, reg(ops[1])?, imm(ops[2])?)
        }
        "ld" => {
            need(3)?;
            Instr::Ld(reg(ops[0])?, reg(ops[1])?, imm(ops[2])?)
        }
        "st" => {
            need(3)?;
            Instr::St(reg(ops[0])?, reg(ops[1])?, imm(ops[2])?)
        }
        "beq" | "bne" | "blt" => {
            need(3)?;
            let (a, b, t) = (reg(ops[0])?, reg(ops[1])?, target(ops[2])?);
            match mn_lc.as_str() {
                "beq" => Instr::Beq(a, b, t),
                "bne" => Instr::Bne(a, b, t),
                _ => Instr::Blt(a, b, t),
            }
        }
        "jmp" => {
            need(1)?;
            Instr::Jmp(target(ops[0])?)
        }
        "jal" => {
            need(1)?;
            Instr::Jal(target(ops[0])?)
        }
        "jr" => {
            need(1)?;
            Instr::Jr(reg(ops[0])?)
        }
        other => return Err(err(format!("unknown mnemonic `{other}`"))),
    };
    Ok(i)
}

/// Parses a decimal or `0x` hexadecimal integer, with optional leading `-`.
fn parse_int(s: &str) -> Option<Word> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        Word::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<Word>().ok()?
    };
    Some(if neg { -v } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_basic_program() {
        let p = assemble(
            "; count down from 5\n\
             start: movi r1, 5\n\
             loop:  addi r1, r1, -1\n\
                    bne r1, r0, loop\n\
                    halt\n",
        )
        .unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.label("loop"), Some(1));
        assert_eq!(p.fetch(3), Some(Instr::Halt));
        assert_eq!(p.fetch(2), Some(Instr::Bne(Reg::new(1), Reg::new(0), 1)));
    }

    #[test]
    fn label_on_own_line_binds_to_next_instr() {
        let p = assemble("a:\nb: nop\nhalt").unwrap();
        assert_eq!(p.label("a"), Some(0));
        assert_eq!(p.label("b"), Some(0));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = assemble("movi r2, 0x10\nmovi r3, -7\nhalt").unwrap();
        assert_eq!(p.fetch(0), Some(Instr::Movi(Reg::new(2), 16)));
        assert_eq!(p.fetch(1), Some(Instr::Movi(Reg::new(3), -7)));
    }

    #[test]
    fn rejects_unknown_mnemonic() {
        let e = assemble("frobnicate r1").unwrap_err();
        assert!(matches!(e, Error::Assembler { line: 1, .. }));
    }

    #[test]
    fn rejects_bad_register() {
        assert!(assemble("movi r16, 1").is_err());
        assert!(assemble("movi rx, 1").is_err());
    }

    #[test]
    fn rejects_duplicate_label() {
        let e = assemble("a: nop\na: halt").unwrap_err();
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_unresolved_target() {
        assert!(assemble("jmp nowhere").is_err());
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(assemble("add r1, r2").is_err());
        assert!(assemble("halt r1").is_err());
    }

    #[test]
    fn numeric_branch_targets_allowed() {
        let p = assemble("jmp 0").unwrap();
        assert_eq!(p.fetch(0), Some(Instr::Jmp(0)));
    }

    #[test]
    fn base_cycles_reflect_functional_units() {
        assert_eq!(Instr::Nop.base_cycles(), 1);
        assert_eq!(
            Instr::Mul(Reg::new(0), Reg::new(0), Reg::new(0)).base_cycles(),
            3
        );
        assert_eq!(
            Instr::Div(Reg::new(0), Reg::new(0), Reg::new(1)).base_cycles(),
            10
        );
    }

    #[test]
    fn reg_use_names_every_operand_of_every_instruction() {
        let set = |regs: &[u8]| regs.iter().fold(0u16, |m, &r| m | 1 << r);
        // (source line, registers read, registers written)
        let cases: [(&str, &[u8], &[u8]); 28] = [
            ("nop", &[], &[]),
            ("halt", &[], &[]),
            ("wfi", &[], &[]),
            ("rti", &[], &[]),
            ("jmp 0", &[], &[]),
            ("movi r4, 9", &[], &[4]),
            ("mov r4, r5", &[5], &[4]),
            ("addi r1, r1, 3", &[1], &[1]),
            ("addi r2, r3, 3", &[3], &[2]),
            ("ld r6, r7, 1", &[7], &[6]),
            ("add r1, r2, r3", &[2, 3], &[1]),
            ("sub r1, r2, r3", &[2, 3], &[1]),
            ("mul r1, r2, r3", &[2, 3], &[1]),
            ("div r1, r2, r3", &[2, 3], &[1]),
            ("rem r1, r2, r3", &[2, 3], &[1]),
            ("and r1, r2, r3", &[2, 3], &[1]),
            ("or r1, r2, r3", &[2, 3], &[1]),
            ("xor r1, r1, r1", &[1], &[1]),
            ("shl r1, r2, r3", &[2, 3], &[1]),
            ("shr r1, r2, r3", &[2, 3], &[1]),
            ("slt r1, r2, r3", &[2, 3], &[1]),
            ("seq r0, r14, r15", &[14, 15], &[0]),
            ("st r8, r9, 2", &[8, 9], &[]),
            ("beq r1, r2, 0", &[1, 2], &[]),
            ("bne r3, r0, 0", &[3, 0], &[]),
            ("blt r4, r5, 0", &[4, 5], &[]),
            ("jal 0", &[], &[15]),
            ("jr r12", &[12], &[]),
        ];
        for (src, reads, writes) in cases {
            let instr = assemble(src).unwrap().fetch(0).unwrap();
            assert_eq!(
                instr.reg_use(),
                RegUse {
                    reads: set(reads),
                    writes: set(writes)
                },
                "{src}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_constructor_validates() {
        let _ = Reg::new(16);
    }
}
