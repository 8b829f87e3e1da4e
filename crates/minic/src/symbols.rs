//! Scoped symbol tables and semantic checking.

use std::collections::HashMap;

use crate::ast::*;
use crate::error::{Error, Result};

/// What kind of thing a name denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymbolKind {
    /// A scalar `int`.
    Scalar,
    /// An `int` array (with size if known).
    Array(Option<usize>),
    /// An `int*`.
    Pointer,
    /// A function.
    Function,
}

/// One declared symbol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symbol {
    /// The name.
    pub name: String,
    /// What it denotes.
    pub kind: SymbolKind,
    /// Whether it was declared at file scope.
    pub global: bool,
}

/// The flat result of symbol resolution for one function: every name visible
/// in the body, innermost declaration winning.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    symbols: HashMap<String, Symbol>,
}

impl SymbolTable {
    /// Looks up a name.
    pub fn get(&self, name: &str) -> Option<&Symbol> {
        self.symbols.get(name)
    }

    /// Iterates all visible symbols (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.values()
    }
}

/// Builds the symbol table for `func` within `unit` and checks that every
/// referenced name is declared.
///
/// mini-C scoping is simplified: all declarations inside a function share
/// one namespace (shadowing across nested blocks is rejected as
/// redeclaration), which matches the restricted "analyzable model" style the
/// Source Recoder aims for.
///
/// # Errors
///
/// Returns an [`Error`] naming the first undeclared or redeclared symbol.
pub fn resolve(unit: &Unit, func: &Function) -> Result<SymbolTable> {
    let mut table = SymbolTable::default();
    // Globals and functions first.
    for f in &unit.functions {
        table.symbols.insert(
            f.name.clone(),
            Symbol {
                name: f.name.clone(),
                kind: SymbolKind::Function,
                global: true,
            },
        );
    }
    for g in &unit.globals {
        if let StmtKind::Decl { name, ty, .. } = &g.kind {
            table.symbols.insert(
                name.clone(),
                Symbol {
                    name: name.clone(),
                    kind: kind_of(*ty),
                    global: true,
                },
            );
        }
    }
    // Parameters.
    for p in &func.params {
        insert_local(&mut table, &p.name, kind_of(p.ty))?;
    }
    // Local declarations, then reference check.
    collect_decls(&mut table, &func.body)?;
    check_refs(&table, &func.body)?;
    Ok(table)
}

fn kind_of(ty: Type) -> SymbolKind {
    match ty {
        Type::Int | Type::Void => SymbolKind::Scalar,
        Type::Array(n) => SymbolKind::Array(n),
        Type::Ptr => SymbolKind::Pointer,
    }
}

fn insert_local(table: &mut SymbolTable, name: &str, kind: SymbolKind) -> Result<()> {
    let prev = table.symbols.insert(
        name.to_string(),
        Symbol {
            name: name.to_string(),
            kind,
            global: false,
        },
    );
    match prev {
        Some(p) if !p.global => Err(Error::new(0, 0, format!("redeclaration of `{name}`"))),
        _ => Ok(()),
    }
}

fn collect_decls(table: &mut SymbolTable, stmts: &[Stmt]) -> Result<()> {
    for s in stmts {
        match &s.kind {
            StmtKind::Decl { name, ty, .. } => insert_local(table, name, kind_of(*ty))?,
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_decls(table, then_branch)?;
                collect_decls(table, else_branch)?;
            }
            StmtKind::While { body, .. } | StmtKind::Block(body) => collect_decls(table, body)?,
            StmtKind::For { var, body, .. } => {
                // The induction variable is implicitly declared by the loop
                // if not already visible.
                if table.get(var).is_none() {
                    insert_local(table, var, SymbolKind::Scalar)?;
                }
                collect_decls(table, body)?;
            }
            _ => {}
        }
    }
    Ok(())
}

fn check_refs(table: &SymbolTable, stmts: &[Stmt]) -> Result<()> {
    let mut err: Option<String> = None;
    for s in stmts {
        visit_exprs(s, &mut |e| {
            let name = match e {
                Expr::Var(n) | Expr::Index(n, _) => Some(n),
                Expr::Call(n, _) => Some(n),
                _ => None,
            };
            if let Some(n) = name {
                if table.get(n).is_none() && err.is_none() {
                    err = Some(n.clone());
                }
            }
        });
        // lvalues aren't visited by visit_exprs' expression walk.
        if let StmtKind::Assign { lhs, .. } = &s.kind {
            if table.get(lhs.base()).is_none() && err.is_none() {
                err = Some(lhs.base().to_string());
            }
        }
    }
    match err {
        Some(n) => Err(Error::new(0, 0, format!("use of undeclared `{n}`"))),
        None => {
            // Recurse into nested statement lists for lvalue checks.
            for s in stmts {
                match &s.kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        check_refs(table, then_branch)?;
                        check_refs(table, else_branch)?;
                    }
                    StmtKind::While { body, .. }
                    | StmtKind::For { body, .. }
                    | StmtKind::Block(body) => check_refs(table, body)?,
                    _ => {}
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn resolves_params_globals_and_locals() {
        let u = parse("int g;\nint f(int x, int a[]) { int y = x; return y + g + a[0]; }").unwrap();
        let t = resolve(&u, &u.functions[0]).unwrap();
        assert_eq!(t.get("x").unwrap().kind, SymbolKind::Scalar);
        assert!(matches!(t.get("a").unwrap().kind, SymbolKind::Array(_)));
        assert!(t.get("g").unwrap().global);
        assert_eq!(t.get("f").unwrap().kind, SymbolKind::Function);
    }

    #[test]
    fn detects_undeclared_use() {
        let u = parse("int f(void) { return zz; }").unwrap();
        let e = resolve(&u, &u.functions[0]).unwrap_err();
        assert!(e.msg.contains("zz"));
    }

    #[test]
    fn detects_undeclared_assignment_target() {
        let u = parse("void f(void) { q = 1; }").unwrap();
        assert!(resolve(&u, &u.functions[0]).is_err());
    }

    #[test]
    fn detects_redeclaration() {
        let u = parse("void f(void) { int x; int x; }").unwrap();
        assert!(resolve(&u, &u.functions[0]).is_err());
    }

    #[test]
    fn for_loop_implicitly_declares_induction_var() {
        let u = parse("void f(int a[]) { for (i = 0; i < 4; i = i + 1) { a[i] = i; } }").unwrap();
        let t = resolve(&u, &u.functions[0]).unwrap();
        assert_eq!(t.get("i").unwrap().kind, SymbolKind::Scalar);
    }

    #[test]
    fn locals_may_shadow_globals() {
        let u = parse("int x;\nvoid f(void) { int x; x = 1; }").unwrap();
        let t = resolve(&u, &u.functions[0]).unwrap();
        assert!(!t.get("x").unwrap().global);
    }
}
