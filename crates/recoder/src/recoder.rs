//! The Source Recoder: editor + AST, kept in sync (Figure 3).
//!
//! *"Our Source Recoder is an intelligent union of editor, compiler, and
//! transformation and analysis tools. It consists of a Text Editor
//! maintaining a Document Object and a set of Analysis and Transformation
//! Tools working on an Abstract Syntax Tree (AST) of the design model.
//! Preprocessor and Parser apply changes in the document to the AST, and a
//! Code Generator synchronizes changes in the AST to the document object."*
//!
//! [`Recoder`] holds both representations: a session opens from source
//! text (document → parser → AST), and transformations enter through
//! [`Recoder::apply`] (AST → code generator → document). Every
//! transformation is undoable, and the session keeps the productivity
//! ledger the paper's evaluation is based on: *designer actions* vs. the
//! *manual line edits* the same change would have required.

use mpsoc_minic::printer::print_unit;
use mpsoc_minic::{parse, Unit};

use crate::error::{Error, Result};

/// Productivity ledger of a recoding session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecodingStats {
    /// Automated transformation invocations (one designer action each).
    pub automated_steps: u64,
    /// Source lines that changed due to automated transformations — the
    /// work a designer without the recoder would have typed by hand.
    pub lines_changed_by_transforms: u64,
}

impl RecodingStats {
    /// The productivity factor: hand-edited lines a transformation step
    /// replaced, per designer action. The paper reports *"productivity
    /// gains up to two orders of magnitude over manual recoding"*.
    pub fn productivity_factor(&self) -> f64 {
        if self.automated_steps == 0 {
            1.0
        } else {
            (self.lines_changed_by_transforms as f64 / self.automated_steps as f64).max(1.0)
        }
    }
}

/// An undoable snapshot.
#[derive(Clone, Debug)]
struct Snapshot {
    unit: Unit,
    document: String,
}

/// The recoder session.
#[derive(Debug)]
pub struct Recoder {
    unit: Unit,
    document: String,
    undo_stack: Vec<Snapshot>,
    stats: RecodingStats,
}

impl Recoder {
    /// Opens a session on `source`.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] when the source is not valid mini-C.
    pub fn from_source(source: &str) -> Result<Self> {
        let unit = parse(source)?;
        // Normalise the document through the code generator so that diffs
        // measure semantic change, not formatting.
        let document = print_unit(&unit);
        Ok(Recoder {
            unit,
            document,
            undo_stack: Vec::new(),
            stats: RecodingStats::default(),
        })
    }

    /// The current document text (always in sync with the AST).
    pub fn document(&self) -> &str {
        &self.document
    }

    /// The current AST.
    pub fn unit(&self) -> &Unit {
        &self.unit
    }

    /// The session's productivity ledger.
    pub fn stats(&self) -> RecodingStats {
        self.stats
    }

    /// Applies a transformation to the AST; on success the document is
    /// regenerated and the changed lines are credited to the ledger.
    ///
    /// # Errors
    ///
    /// Whatever the transformation returns; the session is unchanged on
    /// error.
    pub fn apply<T>(&mut self, transform: impl FnOnce(&mut Unit) -> Result<T>) -> Result<T> {
        let mut candidate = self.unit.clone();
        let value = transform(&mut candidate)?;
        let document = print_unit(&candidate);
        let changed = line_diff(&self.document, &document);
        self.undo_stack.push(Snapshot {
            unit: std::mem::replace(&mut self.unit, candidate),
            document: std::mem::replace(&mut self.document, document),
        });
        self.stats.automated_steps += 1;
        self.stats.lines_changed_by_transforms += changed;
        Ok(value)
    }

    /// Reverts the most recent edit or transformation.
    ///
    /// # Errors
    ///
    /// [`Error::NothingToUndo`] on an empty history.
    pub fn undo(&mut self) -> Result<()> {
        let snap = self.undo_stack.pop().ok_or(Error::NothingToUndo)?;
        self.unit = snap.unit;
        self.document = snap.document;
        Ok(())
    }
}

/// Counts differing lines between two documents (symmetric difference of
/// line sequences, aligned greedily) — the effort metric for the ledger.
fn line_diff(old: &str, new: &str) -> u64 {
    let old: Vec<&str> = old.lines().collect();
    let new: Vec<&str> = new.lines().collect();
    // Longest common subsequence length via DP (documents are small).
    let (n, m) = (old.len(), new.len());
    let mut dp = vec![vec![0usize; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[i][j] = if old[i] == new[j] {
                dp[i + 1][j + 1] + 1
            } else {
                dp[i + 1][j].max(dp[i][j + 1])
            };
        }
    }
    let lcs = dp[0][0];
    ((n - lcs) + (m - lcs)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transforms::{prune_control, recode_pointers, split_loop};

    const SRC: &str = "void fill(int n, int out[]) {\n\
         for (i = 0; i < 32; i = i + 1) { out[i] = i * i; }\n\
         }";

    #[test]
    fn open_normalises_document() {
        let r = Recoder::from_source(SRC).unwrap();
        assert!(r.document().contains("for (i = 0; i < 32; i = i + 1) {"));
    }

    #[test]
    fn apply_updates_ast_and_document() {
        let mut r = Recoder::from_source(SRC).unwrap();
        r.apply(|u| split_loop(u, "fill", 0, 4)).unwrap();
        assert_eq!(r.document().matches("for (").count(), 4);
        assert_eq!(r.stats().automated_steps, 1);
        assert!(r.stats().lines_changed_by_transforms >= 6);
    }

    #[test]
    fn failed_transform_leaves_session_intact() {
        let mut r = Recoder::from_source(SRC).unwrap();
        let before = r.document().to_string();
        assert!(r.apply(|u| split_loop(u, "missing", 0, 2)).is_err());
        assert_eq!(r.document(), before);
        assert_eq!(r.stats().automated_steps, 0);
        assert!(matches!(r.undo(), Err(Error::NothingToUndo)));
    }

    #[test]
    fn undo_restores_both_representations() {
        let mut r = Recoder::from_source(SRC).unwrap();
        let before = r.document().to_string();
        r.apply(|u| split_loop(u, "fill", 0, 2)).unwrap();
        assert_ne!(r.document(), before);
        r.undo().unwrap();
        assert_eq!(r.document(), before);
        assert!(r.undo().is_err());
    }

    #[test]
    fn transformation_chain_accumulates_productivity() {
        let src = "void f(int n, int out[]) {\n\
             int *p = &out[0];\n\
             *p = 7;\n\
             if (1) { out[1] = 2; } else { out[1] = 3; }\n\
             for (i = 0; i < 32; i = i + 1) { out[i] = out[i] + i; }\n\
             }";
        let mut r = Recoder::from_source(src).unwrap();
        r.apply(|u| recode_pointers(u, "f")).unwrap();
        r.apply(|u| prune_control(u, "f")).unwrap();
        r.apply(|u| split_loop(u, "f", 0, 4)).unwrap();
        let stats = r.stats();
        assert_eq!(stats.automated_steps, 3);
        assert!(stats.productivity_factor() > 1.0);
        // The resulting model is fully analyzable.
        let score = mpsoc_minic::analysis::analyzability(r.unit(), &r.unit().functions[0]);
        assert!(score.is_fully_analyzable());
    }

    #[test]
    fn line_diff_counts_changes() {
        assert_eq!(line_diff("a\nb\nc", "a\nb\nc"), 0);
        assert_eq!(line_diff("a\nb\nc", "a\nX\nc"), 2);
        assert_eq!(line_diff("a", "a\nb\nc"), 2);
    }
}
