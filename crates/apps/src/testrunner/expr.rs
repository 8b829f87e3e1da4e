//! The expression language of `.mts` scripts: what an `assert` line
//! states and what every `expect … OP VAL` verb reads its left side
//! through.
//!
//! ```text
//! expr    := unary (BINARY unary)*  -- by level, loosest first: `||`; `&&`;
//!            one of `== != <= >= < >` (does not associate); `+ -`; `* / %`
//! unary   := ('!' | '-') unary | primary
//! primary := NUMBER | '(' expr ')' | now() | sig(NAME) | sigedges(NAME)
//!          | reg(core, r) | pc(core) | mem(addr) | sum(addr, len)
//!          | periph(page, off)
//! ```
//!
//! Values are platform [`Word`]s; arithmetic wraps, comparisons and `!`
//! yield 0 or 1, `&&` and `||` short-circuit. `reg`/`pc`/`mem`/`sum` read
//! through the [`Target`] surface a GDB attach drives (register 16 is the
//! pc, a `sum` is bounded by `MAX_READ_WORDS`); `sig`, `sigedges`,
//! `periph` and `now` have no RSP packet and read the debugger directly.

use mpsoc_gdbrsp::{parse_num, DebugTarget, Target, PC_REG};
use mpsoc_platform::isa::Word;

use super::CmdResult;

/// Deepest nesting of parentheses, unary operators and call arguments one
/// expression may have, so the recursive-descent parser and evaluator use
/// bounded stack whatever a script file holds.
const MAX_NESTING: usize = 64;

/// A platform read taking evaluated arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Prim {
    Reg,
    Pc,
    Mem,
    Sum,
    Periph,
}

/// Spelling and arity of every [`Prim`].
const PRIMS: [(&str, Prim, usize); 5] = [
    ("reg", Prim::Reg, 2),
    ("pc", Prim::Pc, 1),
    ("mem", Prim::Mem, 1),
    ("sum", Prim::Sum, 2),
    ("periph", Prim::Periph, 2),
];

/// Binary operators, loosest-binding level first; within a level a
/// spelling that is a prefix of another comes after it.
const BINARY: [&[&str]; 5] = [
    &["||"],
    &["&&"],
    &["==", "!=", "<=", ">=", "<", ">"],
    &["+", "-"],
    &["*", "/", "%"],
];
/// The level of [`BINARY`] holding the comparisons.
const COMPARISONS: usize = 2;

/// A parsed expression.
#[derive(Clone, Debug, PartialEq)]
pub(super) enum Expr {
    Lit(Word),
    Now,
    Sig(String),
    SigEdges(String),
    Call(Prim, Vec<Expr>),
    Not(Box<Expr>),
    Neg(Box<Expr>),
    /// One precedence level, folded left to right: `first (OP operand)*`.
    /// Kept flat so a long `a + b + …` line costs no nesting.
    Chain(Box<Expr>, Vec<(&'static str, Expr)>),
}

impl Expr {
    /// `prim(args…)` over literal arguments — what an `expect` verb reads.
    pub(super) fn call(prim: Prim, args: &[Word]) -> Expr {
        Expr::Call(prim, args.iter().map(|&v| Expr::Lit(v)).collect())
    }
}

/// `a OP b` for the six comparison spellings; an error for any other token.
pub(super) fn compare(op: &str, a: Word, b: Word) -> CmdResult<bool> {
    Ok(match op {
        "==" => a == b,
        "!=" => a != b,
        "<" => a < b,
        "<=" => a <= b,
        ">" => a > b,
        ">=" => a >= b,
        _ => return Err(format!("unknown operator {op:?}").into()),
    })
}

/// Narrows an evaluated argument to the index type a read takes.
fn narrow<T: TryFrom<Word>>(v: Word, what: &str) -> CmdResult<T> {
    T::try_from(v).map_err(|_| format!("{what} {v} ({v:#x}) is out of range").into())
}

/// Evaluates `e` against the current state of `target`.
pub(super) fn eval(e: &Expr, target: &DebugTarget) -> CmdResult<Word> {
    Ok(match e {
        Expr::Lit(v) => *v,
        Expr::Now => target.debugger().now().as_ps() as Word,
        Expr::Sig(name) => target.debugger().signal(name),
        Expr::SigEdges(name) => target.debugger().signal_edges(name).len() as Word,
        Expr::Not(x) => Word::from(eval(x, target)? == 0),
        Expr::Neg(x) => eval(x, target)?.wrapping_neg(),
        Expr::Call(prim, args) => {
            // No read takes more than two arguments (see `PRIMS`).
            let mut values = [0; 2];
            for (value, arg) in values.iter_mut().zip(args) {
                *value = eval(arg, target)?;
            }
            read(*prim, &values[..args.len().min(2)], target)?
        }
        Expr::Chain(first, rest) => {
            let mut acc = eval(first, target)?;
            for (op, operand) in rest {
                acc = match *op {
                    "&&" if acc == 0 => 0,
                    "||" if acc != 0 => 1,
                    _ => apply(op, acc, eval(operand, target)?)?,
                };
            }
            acc
        }
    })
}

fn read(prim: Prim, args: &[Word], target: &DebugTarget) -> CmdResult<Word> {
    let reg = |core: Word, r: Word| -> CmdResult<Word> {
        let regs = target.read_registers(narrow(core, "core")?)?;
        let r: usize = narrow(r, "register")?;
        Ok(*regs
            .get(r)
            .ok_or_else(|| format!("register {r} out of range"))? as Word)
    };
    match (prim, args) {
        (Prim::Reg, [core, r]) => reg(*core, *r),
        (Prim::Pc, [core]) => reg(*core, PC_REG as Word),
        (Prim::Mem, [addr]) => Ok(target.read_mem(narrow(*addr, "address")?, 1)?[0] as Word),
        (Prim::Sum, [addr, len]) => Ok(target
            .read_mem(narrow(*addr, "address")?, narrow(*len, "length")?)?
            .iter()
            .fold(0, |sum: Word, &w| sum.wrapping_add(w as Word))),
        (Prim::Periph, [page, off]) => {
            let (page, off): (usize, u32) = (narrow(*page, "page")?, narrow(*off, "offset")?);
            target
                .debugger()
                .peripheral(page)?
                .into_iter()
                .find(|(reg, _)| *reg == off)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("peripheral {page} has no register {off}").into())
        }
        _ => Err(format!("{prim:?} does not take {} argument(s)", args.len()).into()),
    }
}

fn apply(op: &str, a: Word, b: Word) -> CmdResult<Word> {
    Ok(match op {
        "+" => a.wrapping_add(b),
        "-" => a.wrapping_sub(b),
        "*" => a.wrapping_mul(b),
        "/" | "%" if b == 0 => return Err(format!("`{op}` by zero").into()),
        "/" => a.wrapping_div(b),
        "%" => a.wrapping_rem(b),
        "&&" | "||" => Word::from(b != 0),
        _ => Word::from(compare(op, a, b)?),
    })
}

/// Parses one expression; the whole of `src` must be consumed.
pub(super) fn parse(src: &str) -> CmdResult<Expr> {
    let mut p = Parser {
        src,
        pos: 0,
        depth: 0,
    };
    let e = p.binary(0)?;
    p.ws();
    if p.pos < src.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(e)
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    /// Open parentheses, unary operators and argument lists.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl std::fmt::Display) -> Box<dyn std::error::Error> {
        format!("{msg} at column {} of the expression", self.pos + 1).into()
    }

    fn ws(&mut self) {
        self.pos = self.src.len() - self.src[self.pos..].trim_start().len();
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.ws();
        let hit = self.src[self.pos..].starts_with(tok);
        if hit {
            self.pos += tok.len();
        }
        hit
    }

    fn require(&mut self, tok: &str) -> CmdResult {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format_args!("expected `{tok}`")))
        }
    }

    /// The longest run of characters satisfying `ok` from here on.
    fn take_while(&mut self, ok: impl Fn(char) -> bool) -> &'a str {
        let rest = &self.src[self.pos..];
        let run = &rest[..rest.find(|c| !ok(c)).unwrap_or(rest.len())];
        self.pos += run.len();
        run
    }

    /// Runs `f` one nesting level down, refusing to pass [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> CmdResult<T>) -> CmdResult<T> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format_args!(
                "expression nests deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// One level of [`BINARY`]: `operand (OP operand)*`, its operands the
    /// next level up (a unary expression above the last). Comparisons do
    /// not associate: `a < b < c` leaves `< c` unparsed.
    fn binary(&mut self, level: usize) -> CmdResult<Expr> {
        let Some(ops) = BINARY.get(level) else {
            return self.unary();
        };
        let first = self.binary(level + 1)?;
        let mut rest = Vec::new();
        while let Some(op) = ops.iter().find(|op| self.eat(op)) {
            rest.push((*op, self.binary(level + 1)?));
            if level == COMPARISONS {
                break;
            }
        }
        Ok(if rest.is_empty() {
            first
        } else {
            Expr::Chain(Box::new(first), rest)
        })
    }

    fn unary(&mut self) -> CmdResult<Expr> {
        if self.eat("!") {
            return Ok(Expr::Not(Box::new(self.nested(Self::unary)?)));
        }
        if self.eat("-") {
            return Ok(Expr::Neg(Box::new(self.nested(Self::unary)?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> CmdResult<Expr> {
        if self.eat("(") {
            let e = self.nested(|p| p.binary(0))?;
            self.require(")")?;
            return Ok(e);
        }
        let Some(c) = self.src[self.pos..].chars().next() else {
            return Err(self.err("unexpected end"));
        };
        if c.is_ascii_digit() {
            let start = self.pos;
            let digits = self.take_while(|c| c.is_ascii_alphanumeric());
            return match parse_num(digits) {
                Ok(v) => Ok(Expr::Lit(v)),
                Err(e) => {
                    self.pos = start;
                    Err(self.err(e))
                }
            };
        }
        if !(c.is_ascii_alphabetic() || c == '_') {
            return Err(self.err(format_args!("unexpected character `{c}`")));
        }
        let start = self.pos;
        let name = self.take_while(|c| c.is_ascii_alphanumeric() || c == '_');
        let e = match name {
            "now" => {
                self.require("(")?;
                Expr::Now
            }
            "sig" | "sigedges" => {
                self.require("(")?;
                self.ws();
                let signal =
                    self.take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.'));
                if signal.is_empty() {
                    return Err(self.err("empty signal name"));
                }
                if name == "sig" {
                    Expr::Sig(signal.to_string())
                } else {
                    Expr::SigEdges(signal.to_string())
                }
            }
            _ => {
                let Some(&(_, prim, arity)) = PRIMS.iter().find(|(n, ..)| *n == name) else {
                    self.pos = start;
                    return Err(self.err(format_args!("unknown function `{name}`")));
                };
                self.require("(")?;
                let args = self.nested(|p| {
                    let mut args = vec![p.binary(0)?];
                    while p.eat(",") {
                        args.push(p.binary(0)?);
                    }
                    Ok(args)
                })?;
                if args.len() != arity {
                    return Err(self.err(format_args!(
                        "`{name}` takes {arity} argument(s), got {}",
                        args.len()
                    )));
                }
                Expr::Call(prim, args)
            }
        };
        self.require(")")?;
        Ok(e)
    }
}
