//! Operational transformation primitives (GROVE, Ellis & Gibbs 1989).
//!
//! The paper (§4.2.1): *"the group editor GROVE adopts a new form of
//! concurrency control based on **operation transformations**. This allows
//! operations to proceed immediately to improve real-time response time."*
//!
//! Operations are character-granular ([`CharOp`]) — string edits decompose
//! into char op sequences — which keeps the transformation functions small
//! enough to verify exhaustively. The pairwise transform satisfies the
//! **TP1** convergence property (checked by property tests):
//! `apply(apply(s, a), T(b, a)) == apply(apply(s, b), T(a, b))`.

use std::fmt;

/// A character-granular edit operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CharOp {
    /// Insert `ch` so that it ends up at char position `pos`.
    Insert {
        /// Target position (0 ..= len).
        pos: usize,
        /// The character.
        ch: char,
    },
    /// Delete the char at position `pos`.
    Delete {
        /// Target position (0 .. len).
        pos: usize,
    },
    /// Do nothing (the result of transforming away a duplicate delete).
    Noop,
}

impl fmt::Display for CharOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharOp::Insert { pos, ch } => write!(f, "ins({pos},{ch:?})"),
            CharOp::Delete { pos } => write!(f, "del({pos})"),
            CharOp::Noop => write!(f, "noop"),
        }
    }
}

/// Who wins when two concurrent inserts target the same position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// The op being transformed keeps the position (ends up left).
    OpWins,
    /// The op transformed against keeps the position (op shifts right).
    AgainstWins,
}

/// Transforms `op` to apply *after* `against` has been applied, assuming
/// both were generated against the same document state. `tie` resolves
/// same-position insert conflicts and must be chosen antisymmetrically by
/// the two replicas (e.g. by comparing site ids).
pub(crate) fn transform(op: CharOp, against: CharOp, tie: TieBreak) -> CharOp {
    use CharOp::*;
    match (op, against) {
        (Noop, _) | (_, Noop) => op,
        (Insert { pos: p1, ch }, Insert { pos: p2, .. }) => {
            if p1 < p2 || (p1 == p2 && tie == TieBreak::OpWins) {
                op
            } else {
                Insert { pos: p1 + 1, ch }
            }
        }
        (Insert { pos: p1, ch }, Delete { pos: p2 }) => {
            if p1 <= p2 {
                op
            } else {
                Insert { pos: p1 - 1, ch }
            }
        }
        (Delete { pos: p1 }, Insert { pos: p2, .. }) => {
            if p1 < p2 {
                op
            } else {
                Delete { pos: p1 + 1 }
            }
        }
        (Delete { pos: p1 }, Delete { pos: p2 }) => {
            if p1 < p2 {
                op
            } else if p1 > p2 {
                Delete { pos: p1 - 1 }
            } else {
                Noop // both deleted the same character
            }
        }
    }
}

/// Transforms the pair of concurrent ops against each other, returning
/// `(op', against')` such that applying `op; against'` and
/// `against; op'` converge. The tie given applies to `op`; `against` gets
/// the opposite.
pub fn transform_pair(op: CharOp, against: CharOp, tie: TieBreak) -> (CharOp, CharOp) {
    let other_tie = match tie {
        TieBreak::OpWins => TieBreak::AgainstWins,
        TieBreak::AgainstWins => TieBreak::OpWins,
    };
    (
        transform(op, against, tie),
        transform(against, op, other_tie),
    )
}

/// Errors from applying an operation to a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyError {
    /// The offending operation.
    pub op: CharOp,
    /// The document length at the time.
    pub len: usize,
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operation {} out of bounds for document of length {}",
            self.op, self.len
        )
    }
}

impl std::error::Error for ApplyError {}

/// A replicated text document (one site's copy).
///
/// # Examples
///
/// ```
/// use odp_concurrency::ot::{CharOp, TextDoc};
///
/// let mut d = TextDoc::from("ac");
/// d.apply(CharOp::Insert { pos: 1, ch: 'b' })?;
/// assert_eq!(d.text(), "abc");
/// # Ok::<(), odp_concurrency::ot::ApplyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TextDoc {
    chars: Vec<char>,
}

impl TextDoc {
    /// Creates an empty document.
    pub fn new() -> Self {
        TextDoc::default()
    }

    /// Current contents.
    pub fn text(&self) -> String {
        self.chars.iter().collect()
    }

    /// Length in chars.
    pub fn len(&self) -> usize {
        self.chars.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.chars.is_empty()
    }

    /// Applies one operation in place.
    ///
    /// # Errors
    ///
    /// [`ApplyError`] if the position is out of bounds.
    pub fn apply(&mut self, op: CharOp) -> Result<(), ApplyError> {
        match op {
            CharOp::Insert { pos, ch } => {
                if pos > self.chars.len() {
                    return Err(ApplyError {
                        op,
                        len: self.chars.len(),
                    });
                }
                self.chars.insert(pos, ch);
            }
            CharOp::Delete { pos } => {
                if pos >= self.chars.len() {
                    return Err(ApplyError {
                        op,
                        len: self.chars.len(),
                    });
                }
                self.chars.remove(pos);
            }
            CharOp::Noop => {}
        }
        Ok(())
    }
}

impl From<&str> for TextDoc {
    fn from(s: &str) -> Self {
        TextDoc {
            chars: s.chars().collect(),
        }
    }
}

impl fmt::Display for TextDoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ch in &self.chars {
            write!(f, "{ch}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CharOp::*;

    fn check_tp1(s: &str, a: CharOp, b: CharOp) {
        // a gets OpWins on one path, AgainstWins symmetric on the other.
        let (a2, b2) = transform_pair(a, b, TieBreak::OpWins);
        let mut left = TextDoc::from(s);
        left.apply(a).unwrap();
        left.apply(b2).unwrap();
        let mut right = TextDoc::from(s);
        right.apply(b).unwrap();
        right.apply(a2).unwrap();
        assert_eq!(
            left.text(),
            right.text(),
            "TP1 violated: a={a} b={b} on {s:?}"
        );
    }

    #[test]
    fn tp1_holds_exhaustively_on_a_small_document() {
        let s = "abcd";
        let n = s.len();
        let mut ops = vec![Noop];
        for pos in 0..=n {
            ops.push(Insert { pos, ch: 'X' });
        }
        for pos in 0..n {
            ops.push(Delete { pos });
        }
        for &a in &ops {
            for &b in &ops {
                check_tp1(s, a, b);
            }
        }
    }

    #[test]
    fn same_position_inserts_break_ties_consistently() {
        let a = Insert { pos: 1, ch: 'A' };
        let b = Insert { pos: 1, ch: 'B' };
        let (a2, b2) = transform_pair(a, b, TieBreak::OpWins);
        assert_eq!(a2, Insert { pos: 1, ch: 'A' }, "winner keeps position");
        assert_eq!(b2, Insert { pos: 2, ch: 'B' }, "loser shifts right");
    }

    #[test]
    fn duplicate_deletes_become_noop() {
        let a = Delete { pos: 2 };
        let b = Delete { pos: 2 };
        let (a2, b2) = transform_pair(a, b, TieBreak::OpWins);
        assert_eq!(a2, Noop);
        assert_eq!(b2, Noop);
    }

    #[test]
    fn insert_before_delete_shifts_the_delete() {
        let ins = Insert { pos: 0, ch: 'X' };
        let del = Delete { pos: 3 };
        assert_eq!(transform(del, ins, TieBreak::OpWins), Delete { pos: 4 });
        assert_eq!(transform(ins, del, TieBreak::OpWins), ins);
    }

    #[test]
    fn apply_bounds_are_checked() {
        let mut d = TextDoc::from("ab");
        assert!(d.apply(Insert { pos: 3, ch: 'x' }).is_err());
        assert!(d.apply(Delete { pos: 2 }).is_err());
        assert!(d.apply(Noop).is_ok());
        assert_eq!(d.text(), "ab");
    }

    #[test]
    fn noop_transforms_are_identity() {
        let a = Insert { pos: 1, ch: 'x' };
        assert_eq!(transform(a, Noop, TieBreak::OpWins), a);
        assert_eq!(transform(Noop, a, TieBreak::OpWins), Noop);
    }
}
