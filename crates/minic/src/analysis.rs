//! Data-flow and dependence analysis.
//!
//! This is the *"advanced dataflow analysis"* MAPS (Section IV) applies to
//! *"extract the available parallelism from the sequential codes"*: each
//! statement is abstracted into the set of memory references it reads and
//! writes, and a dependence graph is built over statement sequences. The
//! Source Recoder (Section VI) uses the same machinery for its shared-data
//! access analysis and analyzability scoring.

use std::collections::BTreeSet;

use crate::ast::*;

/// An abstract memory reference.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemRef {
    /// A scalar variable.
    Scalar(String),
    /// An element of `array`; `Some(k)` when the subscript is the constant
    /// `k`, `None` when it is symbolic (the whole array, conservatively).
    Array(String, Option<i64>),
    /// The elements `[lo, hi)` of `array` — produced when a loop with
    /// constant bounds subscripts the array with exactly its induction
    /// variable. This range refinement is what lets split loops be proven
    /// independent (the *"advanced dataflow analysis"* MAPS relies on).
    ArrayRange(String, i64, i64),
    /// A store through a pointer whose target is unknown — conflicts with
    /// everything (the analyzability killer the recoder removes).
    Unknown,
    /// The effect of calling an unanalysed function.
    World,
}

impl MemRef {
    /// The base variable name, if the reference has one.
    pub fn base(&self) -> Option<&str> {
        match self {
            MemRef::Scalar(n) | MemRef::Array(n, _) | MemRef::ArrayRange(n, _, _) => Some(n),
            _ => None,
        }
    }

    /// Whether two references may touch the same storage.
    pub fn conflicts(&self, other: &MemRef) -> bool {
        match (self, other) {
            (MemRef::Unknown, _) | (_, MemRef::Unknown) => true,
            (MemRef::World, _) | (_, MemRef::World) => true,
            (MemRef::Scalar(a), MemRef::Scalar(b)) => a == b,
            (MemRef::Array(a, ia), MemRef::Array(b, ib)) => {
                a == b
                    && match (ia, ib) {
                        (Some(x), Some(y)) => x == y,
                        _ => true,
                    }
            }
            (MemRef::ArrayRange(a, lo, hi), MemRef::Array(b, idx))
            | (MemRef::Array(b, idx), MemRef::ArrayRange(a, lo, hi)) => {
                a == b && idx.is_none_or(|k| k >= *lo && k < *hi)
            }
            (MemRef::ArrayRange(a, alo, ahi), MemRef::ArrayRange(b, blo, bhi)) => {
                a == b && alo < bhi && blo < ahi
            }
            _ => false,
        }
    }
}

/// The read/write footprint of a statement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessSet {
    /// Locations possibly read.
    pub reads: BTreeSet<MemRef>,
    /// Locations possibly written.
    pub writes: BTreeSet<MemRef>,
}

impl AccessSet {
    /// Union of reads and writes.
    pub fn all(&self) -> impl Iterator<Item = &MemRef> {
        self.reads.iter().chain(self.writes.iter())
    }
}

/// Active loop ranges: `(induction var, lo, hi)` for enclosing
/// constant-bound loops; used to refine `a[i]` into a range reference.
type RangeEnv = Vec<(String, i64, i64)>;

fn array_ref(a: &str, idx: &Expr, env: &RangeEnv) -> MemRef {
    if let Some(k) = idx.const_eval() {
        return MemRef::Array(a.to_string(), Some(k));
    }
    if let Expr::Var(v) = idx {
        if let Some((_, lo, hi)) = env.iter().rev().find(|(n, _, _)| n == v) {
            return MemRef::ArrayRange(a.to_string(), *lo, *hi);
        }
    }
    MemRef::Array(a.to_string(), None)
}

fn expr_reads(e: &Expr, out: &mut BTreeSet<MemRef>, env: &RangeEnv) {
    match e {
        Expr::Lit(_) => {}
        Expr::Var(n) => {
            out.insert(MemRef::Scalar(n.clone()));
        }
        Expr::Index(a, i) => {
            out.insert(array_ref(a, i, env));
            expr_reads(i, out, env);
        }
        Expr::Un(UnOp::Deref, inner) => {
            out.insert(MemRef::Unknown);
            expr_reads(inner, out, env);
        }
        Expr::Un(UnOp::Addr, inner) => {
            // Taking an address reads nothing, but we record the base so the
            // escape analysis in the recoder can find it.
            if let Expr::Var(n) = &**inner {
                out.insert(MemRef::Scalar(n.clone()));
            } else {
                expr_reads(inner, out, env);
            }
        }
        Expr::Un(_, x) => expr_reads(x, out, env),
        Expr::Bin(_, l, r) => {
            expr_reads(l, out, env);
            expr_reads(r, out, env);
        }
        Expr::Call(_, args) => {
            out.insert(MemRef::World);
            for a in args {
                expr_reads(a, out, env);
            }
        }
    }
}

/// Computes the access set of one statement.
///
/// Nested control flow contributes the union of its branches/body; the
/// condition and bound expressions contribute reads.
pub fn accesses(stmt: &Stmt) -> AccessSet {
    let mut set = AccessSet::default();
    let mut env = RangeEnv::new();
    collect(stmt, &mut set, &mut env);
    set
}

fn collect(stmt: &Stmt, set: &mut AccessSet, env: &mut RangeEnv) {
    match &stmt.kind {
        StmtKind::Decl { name, init, .. } => {
            set.writes.insert(MemRef::Scalar(name.clone()));
            if let Some(e) = init {
                expr_reads(e, &mut set.reads, env);
            }
        }
        StmtKind::Assign { lhs, rhs } => {
            match lhs {
                LValue::Var(n) => {
                    set.writes.insert(MemRef::Scalar(n.clone()));
                }
                LValue::Index(a, i) => {
                    set.writes.insert(array_ref(a, i, env));
                    expr_reads(i, &mut set.reads, env);
                }
                LValue::Deref(p) => {
                    set.writes.insert(MemRef::Unknown);
                    set.reads.insert(MemRef::Scalar(p.clone()));
                }
            }
            expr_reads(rhs, &mut set.reads, env);
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            expr_reads(cond, &mut set.reads, env);
            for s in then_branch.iter().chain(else_branch) {
                collect(s, set, env);
            }
        }
        StmtKind::While { cond, body } => {
            expr_reads(cond, &mut set.reads, env);
            for s in body {
                collect(s, set, env);
            }
        }
        StmtKind::For {
            var,
            from,
            to,
            step,
            body,
        } => {
            expr_reads(from, &mut set.reads, env);
            expr_reads(to, &mut set.reads, env);
            expr_reads(step, &mut set.reads, env);
            // Constant-bound unit-step loops refine `a[var]` to a range;
            // anything else leaves subscripts symbolic.
            let range = match (from.const_eval(), to.const_eval(), step.const_eval()) {
                (Some(lo), Some(hi), Some(1)) if lo < hi => Some((var.clone(), lo, hi)),
                _ => None,
            };
            if let Some(r) = range {
                // The induction variable is fully defined by the loop
                // header (written before every read), and scalars declared
                // inside the body are scoped to it — the classic scalar
                // privatisation that makes split loops independent.
                env.push(r);
                let mut inner = AccessSet::default();
                for s in body {
                    collect(s, &mut inner, env);
                }
                env.pop();
                let mut private = vec![var.clone()];
                visit_stmts(body, &mut |s| {
                    if let StmtKind::Decl { name, .. } = &s.kind {
                        private.push(name.clone());
                    }
                });
                for name in private {
                    let p = MemRef::Scalar(name);
                    inner.reads.remove(&p);
                    inner.writes.remove(&p);
                }
                set.reads.extend(inner.reads);
                set.writes.extend(inner.writes);
            } else {
                set.writes.insert(MemRef::Scalar(var.clone()));
                set.reads.insert(MemRef::Scalar(var.clone()));
                for s in body {
                    collect(s, set, env);
                }
            }
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                expr_reads(e, &mut set.reads, env);
            }
        }
        StmtKind::ExprStmt(e) => {
            expr_reads(e, &mut set.reads, env);
            if matches!(e, Expr::Call(..)) {
                set.writes.insert(MemRef::World);
            }
        }
        StmtKind::Block(body) => {
            for s in body {
                collect(s, set, env);
            }
        }
    }
}

/// The kind of a dependence edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DepKind {
    /// Read-after-write (true/flow dependence).
    Flow,
    /// Write-after-read (anti dependence).
    Anti,
    /// Write-after-write (output dependence).
    Output,
}

/// A dependence between two statements of a sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dependence {
    /// Index of the earlier statement.
    pub from: usize,
    /// Index of the later statement.
    pub to: usize,
    /// Dependence kind.
    pub kind: DepKind,
    /// A location that induces the dependence (one witness).
    pub(crate) witness: MemRef,
}

/// Builds the dependence graph over a statement sequence (commonly a
/// function body or loop body).
///
/// Statement `j` depends on statement `i < j` if their footprints conflict.
/// The result is sound (over-approximate): pointer stores and calls
/// serialize with everything, which is exactly why the recoder's pointer
/// elimination enlarges the schedulable parallelism.
pub fn dependences(stmts: &[Stmt]) -> Vec<Dependence> {
    let sets: Vec<AccessSet> = stmts.iter().map(accesses).collect();
    let mut deps = Vec::new();
    for j in 1..stmts.len() {
        for i in 0..j {
            // Flow: i writes, j reads.
            if let Some(w) = first_conflict(&sets[i].writes, &sets[j].reads) {
                deps.push(Dependence {
                    from: i,
                    to: j,
                    kind: DepKind::Flow,
                    witness: w,
                });
            }
            // Anti: i reads, j writes.
            if let Some(w) = first_conflict(&sets[i].reads, &sets[j].writes) {
                deps.push(Dependence {
                    from: i,
                    to: j,
                    kind: DepKind::Anti,
                    witness: w,
                });
            }
            // Output: both write.
            if let Some(w) = first_conflict(&sets[i].writes, &sets[j].writes) {
                deps.push(Dependence {
                    from: i,
                    to: j,
                    kind: DepKind::Output,
                    witness: w,
                });
            }
        }
    }
    deps
}

fn first_conflict(a: &BTreeSet<MemRef>, b: &BTreeSet<MemRef>) -> Option<MemRef> {
    for x in a {
        for y in b {
            if x.conflicts(y) {
                return Some(x.clone());
            }
        }
    }
    None
}

/// Analyzability report for a function body: the static properties the
/// Source Recoder (Section VI) aims to establish — *"static analyzability
/// without ambiguities resulting from pointers and irregular code
/// structure"*.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Analyzability {
    /// Number of pointer dereferences (each defeats dependence analysis).
    pub pointer_derefs: usize,
    /// Number of address-of operators (escape sites).
    pub(crate) address_ofs: usize,
    /// Number of while-loops (unbounded control).
    pub(crate) while_loops: usize,
    /// Number of canonical for-loops (analyzable).
    pub(crate) for_loops: usize,
    /// Number of calls to functions outside the unit.
    pub(crate) external_calls: usize,
}

impl Analyzability {
    /// True when dependence analysis is exact: no pointers, no escapes, no
    /// unbounded loops, no unknown calls.
    pub fn is_fully_analyzable(&self) -> bool {
        self.pointer_derefs == 0
            && self.address_ofs == 0
            && self.while_loops == 0
            && self.external_calls == 0
    }
}

/// Scores the analyzability of `func` within `unit`.
pub fn analyzability(unit: &Unit, func: &Function) -> Analyzability {
    let mut a = Analyzability::default();
    visit_stmts(&func.body, &mut |s| {
        match &s.kind {
            StmtKind::While { .. } => a.while_loops += 1,
            StmtKind::For { .. } => a.for_loops += 1,
            StmtKind::Assign {
                lhs: LValue::Deref(_),
                ..
            } => a.pointer_derefs += 1,
            _ => {}
        }
        visit_exprs(s, &mut |e| match e {
            Expr::Un(UnOp::Deref, _) => a.pointer_derefs += 1,
            Expr::Un(UnOp::Addr, _) => a.address_ofs += 1,
            Expr::Call(name, _) if unit.function(name).is_none() => {
                a.external_calls += 1;
            }
            _ => {}
        });
    });
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn body(src: &str) -> Vec<Stmt> {
        parse(src).unwrap().functions.remove(0).body
    }

    #[test]
    fn flow_dependence_detected() {
        let b = body("void f(void) { int x = 1; int y = x + 1; }");
        let deps = dependences(&b);
        assert!(deps
            .iter()
            .any(|d| d.from == 0 && d.to == 1 && d.kind == DepKind::Flow));
    }

    #[test]
    fn independent_statements_have_no_deps() {
        let b = body("void f(void) { int x = 1; int y = 2; }");
        assert!(dependences(&b).is_empty());
    }

    #[test]
    fn constant_disjoint_array_elements_are_independent() {
        let b = body("void f(int a[]) { a[0] = 1; a[1] = 2; }");
        assert!(dependences(&b).is_empty());
    }

    #[test]
    fn symbolic_subscripts_conflict() {
        let b = body("void f(int a[], int i) { a[i] = 1; a[0] = 2; }");
        let deps = dependences(&b);
        assert!(deps.iter().any(|d| d.kind == DepKind::Output));
    }

    #[test]
    fn pointer_store_serializes_everything() {
        let b = body("void f(int *p, int a[]) { *p = 1; a[0] = 2; }");
        let deps = dependences(&b);
        assert!(!deps.is_empty(), "deref must conflict with array write");
    }

    #[test]
    fn anti_dependence_detected() {
        let b = body("void f(void) { int x = 0; int y = x; x = 2; }");
        let deps = dependences(&b);
        assert!(deps
            .iter()
            .any(|d| d.from == 1 && d.to == 2 && d.kind == DepKind::Anti));
    }

    #[test]
    fn calls_are_world_barriers() {
        let b = body("void f(void) { g(); h(); }");
        let deps = dependences(&b);
        assert!(!deps.is_empty());
    }

    #[test]
    fn analyzability_scores_pointers_and_loops() {
        let u = parse(
            "void f(int *p, int a[]) { *p = 1; int x = *p; int q = ext(); \
             while (x) { x = x - 1; } for (i = 0; i < 4; i = i + 1) { a[i] = i; } }",
        )
        .unwrap();
        let a = analyzability(&u, &u.functions[0]);
        assert_eq!(a.pointer_derefs, 2);
        assert_eq!(a.while_loops, 1);
        assert_eq!(a.for_loops, 1);
        assert_eq!(a.external_calls, 1);
        assert!(!a.is_fully_analyzable());
    }

    #[test]
    fn clean_code_is_fully_analyzable() {
        let u =
            parse("void f(int a[]) { for (i = 0; i < 8; i = i + 1) { a[i] = i * 2; } }").unwrap();
        assert!(analyzability(&u, &u.functions[0]).is_fully_analyzable());
    }

    #[test]
    fn accesses_of_for_loop_include_bounds() {
        let b = body("void f(int n, int a[]) { for (i = 0; i < n; i = i + 1) { a[i] = i; } }");
        let s = accesses(&b[0]);
        assert!(s.reads.contains(&MemRef::Scalar("n".into())));
        assert!(s.writes.contains(&MemRef::Array("a".into(), None)));
    }
}
