//! The mini-C abstract syntax tree.
//!
//! Every statement carries a stable [`NodeId`], allocated by the parser and
//! preserved by transformations where possible. The Source Recoder
//! (Section VI of the paper) keeps its document/AST synchronisation keyed on
//! these ids; the MAPS partitioner (Section IV) uses them to name the
//! statements it groups into tasks.

use std::fmt;

/// A stable identity for a statement node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Allocates fresh [`NodeId`]s.
#[derive(Clone, Debug, Default)]
pub struct NodeIdGen {
    next: u32,
}

impl NodeIdGen {
    /// Creates a generator starting at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a generator that continues after the largest id in use.
    pub fn starting_at(next: u32) -> Self {
        NodeIdGen { next }
    }

    /// Returns a fresh id.
    pub fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next);
        self.next += 1;
        id
    }
}

/// A mini-C type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// `int`
    Int,
    /// `int[n]` — `None` for unsized parameter arrays (`int a[]`).
    Array(Option<usize>),
    /// `int*`
    Ptr,
    /// `void` (function return type only)
    Void,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Array(Some(n)) => write!(f, "int[{n}]"),
            Type::Array(None) => write!(f, "int[]"),
            Type::Ptr => write!(f, "int*"),
            Type::Void => write!(f, "void"),
        }
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    LAnd,
    /// `||`
    LOr,
}

impl BinOp {
    /// The C spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::LAnd => "&&",
            BinOp::LOr => "||",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Logical not `!`.
    Not,
    /// Pointer dereference `*`.
    Deref,
    /// Address-of `&`.
    Addr,
}

/// An expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Lit(i64),
    /// Variable reference.
    Var(String),
    /// `base[index]`
    Index(String, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Function call.
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Convenience: an integer literal.
    pub fn lit(v: i64) -> Expr {
        Expr::Lit(v)
    }

    /// Convenience: a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Convenience: a binary operation.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin(op, Box::new(l), Box::new(r))
    }

    /// Convenience: an array index expression.
    pub fn index(base: impl Into<String>, idx: Expr) -> Expr {
        Expr::Index(base.into(), Box::new(idx))
    }

    /// If the expression is a compile-time constant, evaluates it.
    pub fn const_eval(&self) -> Option<i64> {
        match self {
            Expr::Lit(v) => Some(*v),
            Expr::Un(UnOp::Neg, e) => e.const_eval().map(|v| v.wrapping_neg()),
            Expr::Un(UnOp::Not, e) => e.const_eval().map(|v| (v == 0) as i64),
            Expr::Bin(op, l, r) => {
                let (a, b) = (l.const_eval()?, r.const_eval()?);
                Some(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return None;
                        }
                        a.wrapping_div(b)
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            return None;
                        }
                        a.wrapping_rem(b)
                    }
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Shl => a.wrapping_shl(b as u32 & 63),
                    BinOp::Shr => a.wrapping_shr(b as u32 & 63),
                    BinOp::Lt => (a < b) as i64,
                    BinOp::Gt => (a > b) as i64,
                    BinOp::Le => (a <= b) as i64,
                    BinOp::Ge => (a >= b) as i64,
                    BinOp::Eq => (a == b) as i64,
                    BinOp::Ne => (a != b) as i64,
                    BinOp::LAnd => ((a != 0) && (b != 0)) as i64,
                    BinOp::LOr => ((a != 0) || (b != 0)) as i64,
                })
            }
            _ => None,
        }
    }
}

/// An assignable location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LValue {
    /// A scalar variable.
    Var(String),
    /// `base[index]`
    Index(String, Box<Expr>),
    /// `*ptr`
    Deref(String),
}

impl LValue {
    /// The root variable name of the lvalue.
    pub fn base(&self) -> &str {
        match self {
            LValue::Var(n) | LValue::Index(n, _) | LValue::Deref(n) => n,
        }
    }
}

/// A statement, tagged with its [`NodeId`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stmt {
    /// Stable identity.
    pub id: NodeId,
    /// The statement proper.
    pub kind: StmtKind,
}

/// Statement kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StmtKind {
    /// `int x = init;` / `int a[n];`
    Decl {
        /// Declared name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Optional initializer (scalars only).
        init: Option<Expr>,
    },
    /// `lhs = rhs;`
    Assign {
        /// Target location.
        lhs: LValue,
        /// Source expression.
        rhs: Expr,
    },
    /// `if (cond) { then } else { els }`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_branch: Vec<Stmt>,
    },
    /// `while (cond) { body }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (var = from; var < to; var = var + step) { body }`
    ///
    /// mini-C canonicalises counted loops into this normal form, which is
    /// what makes loop splitting (Section VI) and partitioning (Section IV)
    /// statically decidable.
    For {
        /// Induction variable.
        var: String,
        /// Initial value.
        from: Expr,
        /// Exclusive upper bound.
        to: Expr,
        /// Step (must be a positive constant in analyses).
        step: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return e;` / `return;`
    Return(Option<Expr>),
    /// An expression evaluated for effect (function call).
    ExprStmt(Expr),
    /// A free-standing block `{ ... }`.
    Block(Vec<Stmt>),
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
}

/// A function definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Return type ([`Type::Int`] or [`Type::Void`]).
    pub(crate) ret: Type,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A whole translation unit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Unit {
    /// Global variable declarations.
    pub(crate) globals: Vec<Stmt>,
    /// Function definitions in source order.
    pub functions: Vec<Function>,
}

impl Unit {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Finds a function by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// The largest [`NodeId`] in the unit plus one (for seeding
    /// [`NodeIdGen::starting_at`]).
    pub fn next_node_id(&self) -> u32 {
        fn walk(stmts: &[Stmt], max: &mut u32) {
            for s in stmts {
                *max = (*max).max(s.id.0 + 1);
                match &s.kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(then_branch, max);
                        walk(else_branch, max);
                    }
                    StmtKind::While { body, .. }
                    | StmtKind::For { body, .. }
                    | StmtKind::Block(body) => walk(body, max),
                    _ => {}
                }
            }
        }
        let mut max = 0;
        walk(&self.globals, &mut max);
        for f in &self.functions {
            walk(&f.body, &mut max);
        }
        max
    }
}

/// Visits every statement in a slice recursively, outer-first.
pub fn visit_stmts<'a>(stmts: &'a [Stmt], f: &mut dyn FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        match &s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                visit_stmts(then_branch, f);
                visit_stmts(else_branch, f);
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } | StmtKind::Block(body) => {
                visit_stmts(body, f)
            }
            _ => {}
        }
    }
}

/// Visits every expression in a statement (including nested statements).
pub fn visit_exprs<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    fn expr_walk<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
        f(e);
        match e {
            Expr::Index(_, i) => expr_walk(i, f),
            Expr::Un(_, x) => expr_walk(x, f),
            Expr::Bin(_, l, r) => {
                expr_walk(l, f);
                expr_walk(r, f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    expr_walk(a, f);
                }
            }
            _ => {}
        }
    }
    match &stmt.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                expr_walk(e, f);
            }
        }
        StmtKind::Assign { lhs, rhs } => {
            if let LValue::Index(_, i) = lhs {
                expr_walk(i, f);
            }
            expr_walk(rhs, f);
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            expr_walk(cond, f);
            for s in then_branch.iter().chain(else_branch) {
                visit_exprs(s, f);
            }
        }
        StmtKind::While { cond, body } => {
            expr_walk(cond, f);
            for s in body {
                visit_exprs(s, f);
            }
        }
        StmtKind::For {
            from,
            to,
            step,
            body,
            ..
        } => {
            expr_walk(from, f);
            expr_walk(to, f);
            expr_walk(step, f);
            for s in body {
                visit_exprs(s, f);
            }
        }
        StmtKind::Return(Some(e)) => expr_walk(e, f),
        StmtKind::Return(None) => {}
        StmtKind::ExprStmt(e) => expr_walk(e, f),
        StmtKind::Block(body) => {
            for s in body {
                visit_exprs(s, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_eval_folds_arithmetic() {
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Add, Expr::lit(2), Expr::lit(3)),
            Expr::lit(4),
        );
        assert_eq!(e.const_eval(), Some(20));
    }

    #[test]
    fn const_eval_rejects_vars_and_div_zero() {
        assert_eq!(Expr::var("x").const_eval(), None);
        assert_eq!(
            Expr::bin(BinOp::Div, Expr::lit(1), Expr::lit(0)).const_eval(),
            None
        );
    }

    #[test]
    fn node_id_gen_is_monotone() {
        let mut g = NodeIdGen::new();
        assert_eq!(g.fresh(), NodeId(0));
        assert_eq!(g.fresh(), NodeId(1));
        let mut g2 = NodeIdGen::starting_at(10);
        assert_eq!(g2.fresh(), NodeId(10));
    }

    #[test]
    fn next_node_id_spans_nesting() {
        let mut g = NodeIdGen::new();
        let inner = Stmt {
            id: g.fresh(),
            kind: StmtKind::Return(None),
        };
        let outer = Stmt {
            id: g.fresh(),
            kind: StmtKind::While {
                cond: Expr::lit(1),
                body: vec![inner],
            },
        };
        let unit = Unit {
            globals: vec![],
            functions: vec![Function {
                name: "f".into(),
                ret: Type::Void,
                params: vec![],
                body: vec![outer],
            }],
        };
        assert_eq!(unit.next_node_id(), 2);
    }

    #[test]
    fn visit_exprs_reaches_nested() {
        let mut g = NodeIdGen::new();
        let s = Stmt {
            id: g.fresh(),
            kind: StmtKind::If {
                cond: Expr::var("c"),
                then_branch: vec![Stmt {
                    id: g.fresh(),
                    kind: StmtKind::Assign {
                        lhs: LValue::Index("a".into(), Box::new(Expr::var("i"))),
                        rhs: Expr::var("x"),
                    },
                }],
                else_branch: vec![],
            },
        };
        let mut vars = Vec::new();
        visit_exprs(&s, &mut |e| {
            if let Expr::Var(n) = e {
                vars.push(n.clone());
            }
        });
        assert_eq!(vars, vec!["c", "i", "x"]);
    }
}
