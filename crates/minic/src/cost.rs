//! Static cost estimation.
//!
//! MAPS (Section IV) partitions *"based on a coarse model of the target
//! architecture"*: it needs per-statement work estimates to balance task
//! loads. This module assigns abstract cycle weights to expressions and
//! statements; constant-bound loops multiply their body cost by the trip
//! count, unknown bounds fall back to a configurable default.

use crate::ast::*;

/// Tunable weights of the abstract machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of +,-,logic ops.
    pub(crate) alu: u64,
    /// Cost of `*`.
    pub mul: u64,
    /// Cost of `/`, `%`.
    pub div: u64,
    /// Cost of an array or pointer memory access.
    pub mem: u64,
    /// Call overhead (besides the callee body).
    pub call: u64,
    /// Cost assumed for calls to functions outside the unit.
    pub(crate) external_call: u64,
    /// Trip count assumed for loops with non-constant bounds.
    pub(crate) default_trip: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 1,
            mul: 3,
            div: 10,
            mem: 4,
            call: 8,
            external_call: 20,
            default_trip: 16,
        }
    }
}

/// Cost of one function body.
pub(crate) fn function_cost(
    unit: &Unit,
    f: &Function,
    model: &CostModel,
    stack: &mut Vec<String>,
) -> u64 {
    if stack.iter().filter(|n| **n == f.name).count() >= 2 || stack.len() > 8 {
        return model.external_call; // recursion cutoff
    }
    stack.push(f.name.clone());
    let c = stmts_cost(unit, &f.body, model, stack);
    stack.pop();
    c
}

/// Cost of a statement sequence.
pub(crate) fn stmts_cost(
    unit: &Unit,
    stmts: &[Stmt],
    model: &CostModel,
    stack: &mut Vec<String>,
) -> u64 {
    stmts.iter().map(|s| stmt_cost(unit, s, model, stack)).sum()
}

/// Cost of one statement (loops folded by trip count).
pub fn stmt_cost(unit: &Unit, s: &Stmt, model: &CostModel, stack: &mut Vec<String>) -> u64 {
    match &s.kind {
        StmtKind::Decl { init, .. } => {
            init.as_ref()
                .map_or(0, |e| expr_cost(unit, e, model, stack))
                + model.alu
        }
        StmtKind::Assign { lhs, rhs } => {
            let lhs_cost = match lhs {
                LValue::Var(_) => model.alu,
                LValue::Index(_, i) => model.mem + expr_cost(unit, i, model, stack),
                LValue::Deref(_) => model.mem,
            };
            lhs_cost + expr_cost(unit, rhs, model, stack)
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            // Branches are averaged: a coarse model, per the paper.
            let t = stmts_cost(unit, then_branch, model, stack);
            let e = stmts_cost(unit, else_branch, model, stack);
            expr_cost(unit, cond, model, stack) + (t + e) / 2 + model.alu
        }
        StmtKind::While { cond, body } => {
            let per_iter =
                expr_cost(unit, cond, model, stack) + stmts_cost(unit, body, model, stack);
            per_iter * model.default_trip
        }
        StmtKind::For {
            from,
            to,
            step,
            body,
            ..
        } => {
            let trip = trip_count(from, to, step).unwrap_or(model.default_trip);
            let per_iter = 2 * model.alu + stmts_cost(unit, body, model, stack);
            per_iter * trip
        }
        StmtKind::Return(e) => e.as_ref().map_or(0, |e| expr_cost(unit, e, model, stack)),
        StmtKind::ExprStmt(e) => expr_cost(unit, e, model, stack),
        StmtKind::Block(body) => stmts_cost(unit, body, model, stack),
    }
}

/// The trip count of a canonical for-loop, when all bounds are constant.
pub(crate) fn trip_count(from: &Expr, to: &Expr, step: &Expr) -> Option<u64> {
    let (f, t, s) = (from.const_eval()?, to.const_eval()?, step.const_eval()?);
    if s <= 0 || t <= f {
        return Some(0);
    }
    Some(((t - f) as u64).div_ceil(s as u64))
}

fn expr_cost(unit: &Unit, e: &Expr, model: &CostModel, stack: &mut Vec<String>) -> u64 {
    match e {
        Expr::Lit(_) | Expr::Var(_) => 0,
        Expr::Index(_, i) => model.mem + expr_cost(unit, i, model, stack),
        Expr::Un(UnOp::Deref, x) => model.mem + expr_cost(unit, x, model, stack),
        Expr::Un(_, x) => model.alu + expr_cost(unit, x, model, stack),
        Expr::Bin(op, l, r) => {
            let opc = match op {
                BinOp::Mul => model.mul,
                BinOp::Div | BinOp::Rem => model.div,
                _ => model.alu,
            };
            opc + expr_cost(unit, l, model, stack) + expr_cost(unit, r, model, stack)
        }
        Expr::Call(name, args) => {
            let args_cost: u64 = args.iter().map(|a| expr_cost(unit, a, model, stack)).sum();
            let body = match unit.function(name) {
                Some(f) => function_cost(unit, f, model, stack),
                None => model.external_call,
            };
            model.call + args_cost + body
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use std::collections::HashMap;

    /// The cost of every function in `unit`.
    fn unit_costs(unit: &Unit, model: &CostModel) -> HashMap<String, u64> {
        let cost = |f| function_cost(unit, f, model, &mut Vec::new());
        unit.functions
            .iter()
            .map(|f| (f.name.clone(), cost(f)))
            .collect()
    }

    #[test]
    fn trip_count_constant_bounds() {
        assert_eq!(
            trip_count(&Expr::lit(0), &Expr::lit(10), &Expr::lit(1)),
            Some(10)
        );
        assert_eq!(
            trip_count(&Expr::lit(0), &Expr::lit(10), &Expr::lit(3)),
            Some(4)
        );
        assert_eq!(
            trip_count(&Expr::lit(5), &Expr::lit(5), &Expr::lit(1)),
            Some(0)
        );
        assert_eq!(
            trip_count(&Expr::var("n"), &Expr::lit(10), &Expr::lit(1)),
            None
        );
    }

    #[test]
    fn loop_cost_scales_with_trip_count() {
        let m = CostModel::default();
        let u10 =
            parse("void f(int a[]) { for (i = 0; i < 10; i = i + 1) { a[i] = i; } }").unwrap();
        let u100 =
            parse("void f(int a[]) { for (i = 0; i < 100; i = i + 1) { a[i] = i; } }").unwrap();
        let c10 = unit_costs(&u10, &m)["f"];
        let c100 = unit_costs(&u100, &m)["f"];
        assert_eq!(c100, c10 * 10);
    }

    #[test]
    fn div_costs_more_than_add() {
        let m = CostModel::default();
        let ua = parse("int f(int x) { return x + x; }").unwrap();
        let ud = parse("int f(int x) { return x / 3; }").unwrap();
        assert!(unit_costs(&ud, &m)["f"] > unit_costs(&ua, &m)["f"]);
    }

    #[test]
    fn call_includes_callee_body() {
        let m = CostModel::default();
        let u = parse(
            "int leaf(int x) { return x * x; }\n\
             int top(int x) { return leaf(x) + 1; }",
        )
        .unwrap();
        let costs = unit_costs(&u, &m);
        assert!(costs["top"] > costs["leaf"]);
    }

    #[test]
    fn recursion_terminates() {
        let m = CostModel::default();
        let u = parse("int f(int x) { return f(x - 1); }").unwrap();
        // Must not stack-overflow; exact value is irrelevant.
        let _ = unit_costs(&u, &m);
    }

    #[test]
    fn external_calls_use_default_weight() {
        let m = CostModel::default();
        let u = parse("int f(void) { return ext(); }").unwrap();
        assert_eq!(unit_costs(&u, &m)["f"], m.call + m.external_call);
    }
}
