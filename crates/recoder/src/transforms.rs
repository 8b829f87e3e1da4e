//! The interactive source-level transformations.
//!
//! Section VI's worked example: *"to expose explicit data parallelism in
//! the model, the designer uses her/his application knowledge and invokes
//! re-coding transformations to split loops into code partitions, analyze
//! shared data accesses, split vectors of shared data, localize variable
//! accesses, and finally synchronize accesses to shared data by inserting
//! communication channels. … Additionally, code restructuring to prune the
//! control structure of the code and pointer recoding to replace pointer
//! expressions can be used to enhance the analyzability and
//! synthesizability of the models."*
//!
//! Three of those steps are implemented: loop splitting, pointer recoding
//! and control-structure pruning, the ones experiments E5 and E8 and the
//! `toolflow_dse` benchmark workload run.
//!
//! Every transformation validates its preconditions with the mini-C
//! dependence analyses and refuses (with an explanation) when the result
//! could change behaviour; the test-suite checks semantic preservation with
//! the interpreter oracle.

use mpsoc_minic::analysis::{accesses, MemRef};
use mpsoc_minic::ast::*;
use mpsoc_minic::{Function, Unit};

use crate::error::{Error, Result};

fn function_mut<'a>(unit: &'a mut Unit, func: &str) -> Result<&'a mut Function> {
    unit.function_mut(func)
        .ok_or_else(|| Error::NotFound(func.to_string()))
}

fn function<'a>(unit: &'a Unit, func: &str) -> Result<&'a Function> {
    unit.function(func)
        .ok_or_else(|| Error::NotFound(func.to_string()))
}

/// Splits the `loop_index`-th top-level for-loop of `func` into `parts`
/// consecutive loops over sub-ranges — the *loop splitting* step that
/// exposes data parallelism (each part can later become a task).
///
/// # Errors
///
/// [`Error::Precondition`] unless the loop has constant bounds, unit step,
/// and a body free of loop-carried dependences (no scalar writes except
/// the induction variable, no whole-array symbolic conflicts other than
/// through the induction variable, no calls).
pub fn split_loop(unit: &mut Unit, func: &str, loop_index: usize, parts: usize) -> Result<()> {
    if parts < 2 {
        return Err(Error::Precondition("need at least two parts".into()));
    }
    let mut ids = NodeIdGen::starting_at(unit.next_node_id());
    let f = function_mut(unit, func)?;
    let pos = nth_for(f, loop_index)?;
    let StmtKind::For {
        var,
        from,
        to,
        step,
        body,
    } = f.body[pos].kind.clone()
    else {
        unreachable!("nth_for returns for-loops");
    };
    let (Some(lo), Some(hi), Some(st)) = (from.const_eval(), to.const_eval(), step.const_eval())
    else {
        return Err(Error::Precondition(
            "loop bounds and step must be compile-time constants".into(),
        ));
    };
    if st != 1 {
        return Err(Error::Precondition("loop step must be 1".into()));
    }
    check_data_parallel(&body, &var)?;
    let n = hi - lo;
    if n < parts as i64 {
        return Err(Error::Precondition(format!(
            "cannot split {n} iterations into {parts} parts"
        )));
    }
    let chunk = (n + parts as i64 - 1) / parts as i64;
    let mut new_loops = Vec::new();
    for p in 0..parts as i64 {
        let s = lo + p * chunk;
        let e = (s + chunk).min(hi);
        if s >= e {
            break;
        }
        new_loops.push(Stmt {
            id: ids.fresh(),
            kind: StmtKind::For {
                var: var.clone(),
                from: Expr::lit(s),
                to: Expr::lit(e),
                step: Expr::lit(1),
                body: clone_with_fresh_ids(&body, &mut ids),
            },
        });
    }
    f.body.splice(pos..=pos, new_loops);
    Ok(())
}

/// Checks a loop body for loop-carried dependences: only array elements
/// indexed through the induction variable may be written, and scalars may
/// only be written if they are declared inside the body (privatisable).
fn check_data_parallel(body: &[Stmt], ivar: &str) -> Result<()> {
    let mut locals: Vec<String> = Vec::new();
    visit_stmts(body, &mut |s| {
        if let StmtKind::Decl { name, .. } = &s.kind {
            locals.push(name.clone());
        }
    });
    let mut problem = None;
    for s in body {
        let set = accesses(s);
        for w in &set.writes {
            match w {
                MemRef::Scalar(n) if n == ivar || locals.contains(n) => {}
                MemRef::Scalar(n) => {
                    problem = Some(format!("loop-carried scalar `{n}`"));
                }
                MemRef::Array(_, _) | MemRef::ArrayRange(_, _, _) => {}
                MemRef::Unknown => problem = Some("pointer store in body".into()),
                MemRef::World => problem = Some("call with unknown effects in body".into()),
            }
        }
    }
    match problem {
        Some(p) => Err(Error::Precondition(p)),
        None => Ok(()),
    }
}

fn nth_for(f: &Function, n: usize) -> Result<usize> {
    f.body
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.kind, StmtKind::For { .. }))
        .map(|(i, _)| i)
        .nth(n)
        .ok_or_else(|| Error::NotFound(format!("for-loop #{n} in `{}`", f.name)))
}

fn clone_with_fresh_ids(stmts: &[Stmt], ids: &mut NodeIdGen) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| {
            let kind = match &s.kind {
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => StmtKind::If {
                    cond: cond.clone(),
                    then_branch: clone_with_fresh_ids(then_branch, ids),
                    else_branch: clone_with_fresh_ids(else_branch, ids),
                },
                StmtKind::While { cond, body } => StmtKind::While {
                    cond: cond.clone(),
                    body: clone_with_fresh_ids(body, ids),
                },
                StmtKind::For {
                    var,
                    from,
                    to,
                    step,
                    body,
                } => StmtKind::For {
                    var: var.clone(),
                    from: from.clone(),
                    to: to.clone(),
                    step: step.clone(),
                    body: clone_with_fresh_ids(body, ids),
                },
                StmtKind::Block(body) => StmtKind::Block(clone_with_fresh_ids(body, ids)),
                other => other.clone(),
            };
            Stmt {
                id: ids.fresh(),
                kind,
            }
        })
        .collect()
}

/// Pointer recoding: rewrites dereferences of pointers with statically
/// known targets into direct array accesses, then removes dead pointer
/// declarations. Handles `int *p = &a[K];` and `int *p = a;` where `p` is
/// never reassigned.
///
/// Returns the number of dereferences eliminated.
///
/// # Errors
///
/// [`Error::NotFound`] if the function is missing.
pub fn recode_pointers(unit: &mut Unit, func: &str) -> Result<usize> {
    let f = function_mut(unit, func)?;
    // Find candidate pointers: `int *p = &a[K]` / `int *p = a` at top level,
    // never written again anywhere in the function.
    let mut candidates: Vec<(String, String, Expr)> = Vec::new(); // (ptr, array, offset expr)
    for s in &f.body {
        if let StmtKind::Decl {
            name,
            ty: Type::Ptr,
            init: Some(init),
        } = &s.kind
        {
            match init {
                Expr::Un(UnOp::Addr, inner) => {
                    if let Expr::Index(a, idx) = &**inner {
                        candidates.push((name.clone(), a.clone(), (**idx).clone()));
                    }
                }
                Expr::Var(a) => candidates.push((name.clone(), a.clone(), Expr::lit(0))),
                _ => {}
            }
        }
    }
    // Disqualify reassigned pointers (any write to the scalar besides decl).
    candidates.retain(|(p, _, _)| {
        let mut writes = 0;
        visit_stmts(&f.body, &mut |s| match &s.kind {
            StmtKind::Assign {
                lhs: LValue::Var(n),
                ..
            } if n == p => writes += 1,
            StmtKind::Decl { name, .. } if name == p => {} // the defining decl
            _ => {}
        });
        writes == 0
    });
    if candidates.is_empty() {
        return Ok(0);
    }
    let mut replaced = 0usize;
    for stmt in &mut f.body {
        replaced += recode_stmt(stmt, &candidates);
    }
    // Remove now-dead pointer declarations (pointer no longer referenced).
    let f2 = function(unit, func)?.clone();
    let still_used = |p: &str| {
        let mut used = false;
        visit_stmts(&f2.body, &mut |s| {
            visit_exprs(s, &mut |e| {
                if let Expr::Var(n) = e {
                    if n == p {
                        used = true;
                    }
                }
            });
            if let StmtKind::Assign { lhs, .. } = &s.kind {
                if lhs.base() == p {
                    used = true;
                }
            }
        });
        used
    };
    let dead: Vec<String> = candidates
        .iter()
        .map(|(p, _, _)| p.clone())
        .filter(|p| !still_used(p))
        .collect();
    let f = function_mut(unit, func)?;
    f.body.retain(
        |s| !matches!(&s.kind, StmtKind::Decl { name, ty: Type::Ptr, .. } if dead.contains(name)),
    );
    Ok(replaced)
}

fn recode_stmt(stmt: &mut Stmt, cands: &[(String, String, Expr)]) -> usize {
    let mut n = 0;
    fn fix_expr(e: &mut Expr, cands: &[(String, String, Expr)], n: &mut usize) {
        // Rewrite *p -> a[K].
        if let Expr::Un(UnOp::Deref, inner) = e {
            if let Expr::Var(p) = &**inner {
                if let Some((_, a, off)) = cands.iter().find(|(c, _, _)| c == p) {
                    *e = Expr::index(a.clone(), off.clone());
                    *n += 1;
                    return;
                }
            }
        }
        match e {
            Expr::Index(_, i) => fix_expr(i, cands, n),
            Expr::Un(_, x) => fix_expr(x, cands, n),
            Expr::Bin(_, l, r) => {
                fix_expr(l, cands, n);
                fix_expr(r, cands, n);
            }
            Expr::Call(_, args) => {
                for a in args {
                    fix_expr(a, cands, n);
                }
            }
            _ => {}
        }
    }
    fn fix(s: &mut Stmt, cands: &[(String, String, Expr)], n: &mut usize) {
        match &mut s.kind {
            StmtKind::Decl { init, .. } => {
                if let Some(e) = init {
                    fix_expr(e, cands, n);
                }
            }
            StmtKind::Assign { lhs, rhs } => {
                fix_expr(rhs, cands, n);
                if let LValue::Index(_, i) = lhs {
                    fix_expr(i, cands, n);
                }
                if let LValue::Deref(p) = lhs {
                    if let Some((_, a, off)) = cands.iter().find(|(c, _, _)| c == p) {
                        *lhs = LValue::Index(a.clone(), Box::new(off.clone()));
                        *n += 1;
                    }
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                fix_expr(cond, cands, n);
                for t in then_branch.iter_mut().chain(else_branch.iter_mut()) {
                    fix(t, cands, n);
                }
            }
            StmtKind::While { cond, body } => {
                fix_expr(cond, cands, n);
                for b in body.iter_mut() {
                    fix(b, cands, n);
                }
            }
            StmtKind::For {
                from,
                to,
                step,
                body,
                ..
            } => {
                fix_expr(from, cands, n);
                fix_expr(to, cands, n);
                fix_expr(step, cands, n);
                for b in body.iter_mut() {
                    fix(b, cands, n);
                }
            }
            StmtKind::Return(Some(e)) => fix_expr(e, cands, n),
            StmtKind::Return(None) => {}
            StmtKind::ExprStmt(e) => fix_expr(e, cands, n),
            StmtKind::Block(body) => {
                for b in body.iter_mut() {
                    fix(b, cands, n);
                }
            }
        }
    }
    fix(stmt, cands, &mut n);
    n
}

/// Control-structure pruning: folds constant `if` conditions, drops empty
/// branches, and flattens nested blocks. Returns the number of nodes
/// removed.
///
/// # Errors
///
/// [`Error::NotFound`] if the function is missing.
pub fn prune_control(unit: &mut Unit, func: &str) -> Result<usize> {
    let f = function_mut(unit, func)?;
    let before = count_stmts(&f.body);
    f.body = prune_stmts(std::mem::take(&mut f.body));
    let after = count_stmts(&f.body);
    Ok(before.saturating_sub(after))
}

fn count_stmts(stmts: &[Stmt]) -> usize {
    let mut n = 0;
    visit_stmts(stmts, &mut |_| n += 1);
    n
}

fn prune_stmts(stmts: Vec<Stmt>) -> Vec<Stmt> {
    let mut out = Vec::new();
    for mut s in stmts {
        match s.kind {
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let then_branch = prune_stmts(then_branch);
                let else_branch = prune_stmts(else_branch);
                match cond.const_eval() {
                    Some(v) => {
                        let taken = if v != 0 { then_branch } else { else_branch };
                        out.extend(taken);
                    }
                    None => {
                        if then_branch.is_empty() && else_branch.is_empty() {
                            // Condition side-effect-free in mini-C: drop.
                            continue;
                        }
                        s.kind = StmtKind::If {
                            cond,
                            then_branch,
                            else_branch,
                        };
                        out.push(s);
                    }
                }
            }
            StmtKind::Block(body) => {
                // Blocks without declarations flatten safely (single
                // function-wide namespace in mini-C).
                let body = prune_stmts(body);
                if body.iter().any(|b| matches!(b.kind, StmtKind::Decl { .. })) {
                    s.kind = StmtKind::Block(body);
                    out.push(s);
                } else {
                    out.extend(body);
                }
            }
            StmtKind::While { cond, body } => {
                if cond.const_eval() == Some(0) {
                    continue; // never runs
                }
                s.kind = StmtKind::While {
                    cond,
                    body: prune_stmts(body),
                };
                out.push(s);
            }
            StmtKind::For {
                var,
                from,
                to,
                step,
                body,
            } => {
                if let (Some(f0), Some(t0)) = (from.const_eval(), to.const_eval()) {
                    if f0 >= t0 {
                        continue; // zero-trip
                    }
                }
                s.kind = StmtKind::For {
                    var,
                    from,
                    to,
                    step,
                    body: prune_stmts(body),
                };
                out.push(s);
            }
            other => {
                s.kind = other;
                out.push(s);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_minic::interp::Interp;
    use mpsoc_minic::parse;

    /// Runs `func(n, buf)` before and after `transform` and checks the
    /// output buffer matches — the interpreter as semantic oracle.
    fn check_equiv(src: &str, func: &str, transform: impl FnOnce(&mut Unit)) {
        let reference = parse(src).unwrap();
        let mut transformed = parse(src).unwrap();
        transform(&mut transformed);
        let run = |unit: &Unit| {
            let mut it = Interp::new(unit);
            let buf = it.alloc_array(&[0; 32]);
            it.run(func, &[32, buf]).unwrap();
            it.read_array(buf, 32).unwrap()
        };
        assert_eq!(run(&reference), run(&transformed), "semantics changed");
    }

    const FILL: &str = "void fill(int n, int out[]) {\n\
         for (i = 0; i < 32; i = i + 1) { out[i] = i * i + 3; }\n\
         }";

    #[test]
    fn split_loop_preserves_semantics() {
        check_equiv(FILL, "fill", |u| {
            split_loop(u, "fill", 0, 4).unwrap();
        });
        let mut u = parse(FILL).unwrap();
        split_loop(&mut u, "fill", 0, 4).unwrap();
        let fors = u.functions[0]
            .body
            .iter()
            .filter(|s| matches!(s.kind, StmtKind::For { .. }))
            .count();
        assert_eq!(fors, 4);
    }

    #[test]
    fn split_loop_rejects_loop_carried_scalar() {
        let src = "int sum(int n, int a[]) { int s = 0; for (i = 0; i < 8; i = i + 1) { s = s + a[i]; } return s; }";
        let mut u = parse(src).unwrap();
        let e = split_loop(&mut u, "sum", 0, 2).unwrap_err();
        assert!(e.to_string().contains("loop-carried"));
    }

    #[test]
    fn split_loop_rejects_symbolic_bounds() {
        let src = "void f(int n, int a[]) { for (i = 0; i < n; i = i + 1) { a[i] = i; } }";
        let mut u = parse(src).unwrap();
        assert!(split_loop(&mut u, "f", 0, 2).is_err());
    }

    #[test]
    fn split_loop_allows_private_scalars() {
        let src = "void f(int n, int out[]) { for (i = 0; i < 32; i = i + 1) { int t = i * 2; out[i] = t + 1; } }";
        check_equiv(src, "f", |u| {
            split_loop(u, "f", 0, 2).unwrap();
        });
    }

    #[test]
    fn pointer_recoding_eliminates_derefs() {
        let src = "void f(int n, int out[]) {\n\
             int *p = &out[3];\n\
             *p = 42;\n\
             out[0] = *p + 1;\n\
             }";
        check_equiv(src, "f", |u| {
            let n = recode_pointers(u, "f").unwrap();
            assert_eq!(n, 2);
        });
        let mut u = parse(src).unwrap();
        recode_pointers(&mut u, "f").unwrap();
        let printed = mpsoc_minic::print_unit(&u);
        assert!(!printed.contains('*'), "pointers remain:\n{printed}");
        // Analyzability is restored.
        let score = mpsoc_minic::analysis::analyzability(&u, &u.functions[0]);
        assert_eq!(score.pointer_derefs, 0);
    }

    #[test]
    fn pointer_recoding_skips_reassigned_pointers() {
        let src = "void f(int n, int out[]) {\n\
             int *p = &out[1];\n\
             p = &out[2];\n\
             *p = 9;\n\
             }";
        let mut u = parse(src).unwrap();
        assert_eq!(recode_pointers(&mut u, "f").unwrap(), 0);
    }

    #[test]
    fn prune_folds_constants_and_flattens() {
        let src = "void f(int n, int out[]) {\n\
             if (1) { out[0] = 5; } else { out[0] = 9; }\n\
             if (0) { out[1] = 7; }\n\
             while (0) { out[2] = 8; }\n\
             { out[3] = 4; }\n\
             for (i = 9; i < 3; i = i + 1) { out[4] = 1; }\n\
             }";
        check_equiv(src, "f", |u| {
            prune_control(u, "f").unwrap();
        });
        let mut u = parse(src).unwrap();
        let removed = prune_control(&mut u, "f").unwrap();
        assert!(removed >= 4, "removed {removed}");
        let printed = mpsoc_minic::print_unit(&u);
        assert!(!printed.contains("if"));
        assert!(!printed.contains("while"));
    }
}
