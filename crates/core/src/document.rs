//! Quilt-style co-authoring documents (§3.2.3): "a document in Quilt
//! consists of a base and nodes linked to the base using hypertext
//! techniques ... these nodes act in a similar way to paper notes,
//! post-its, and margin comments ... At any time a Quilt comment network
//! will consist of a current base document, some revision suggestions,
//! and a set of comments."

use std::collections::BTreeMap;
use std::fmt;

use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

/// The kinds of annotation Quilt distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotationKind {
    /// A margin comment.
    Comment,
    /// A concrete revision suggestion (replacement text).
    Suggestion,
    /// A private note visible only to its author.
    PrivateNote,
}

/// Names an annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AnnotationId(pub u64);

/// An annotation anchored to a char range of the base document.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Its id.
    pub id: AnnotationId,
    /// Who wrote it.
    pub author: NodeId,
    /// What kind it is.
    pub kind: AnnotationKind,
    /// Anchor range `[start, end)` in the base text.
    pub range: (usize, usize),
    /// The annotation body (for suggestions: the replacement text).
    pub body: String,
    /// When it was added.
    pub at: SimTime,
    /// Replies, in order.
    pub replies: Vec<(NodeId, String)>,
}

/// Errors from document operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocumentError {
    /// Unknown annotation.
    UnknownAnnotation(AnnotationId),
    /// An anchor range outside the base text.
    BadRange {
        /// The offending range.
        range: (usize, usize),
        /// Base length.
        len: usize,
    },
    /// Only suggestions can be accepted.
    NotASuggestion(AnnotationId),
}

impl fmt::Display for DocumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocumentError::UnknownAnnotation(a) => write!(f, "unknown annotation {}", a.0),
            DocumentError::BadRange { range, len } => {
                write!(f, "range {range:?} outside base of length {len}")
            }
            DocumentError::NotASuggestion(a) => write!(f, "annotation {} is not a suggestion", a.0),
        }
    }
}

impl std::error::Error for DocumentError {}

/// A co-authored document: base text plus an annotation network.
///
/// # Examples
///
/// ```
/// use cscw_core::document::{AnnotationKind, QuiltDocument};
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut doc = QuiltDocument::new("The quick brown fox.");
/// let note = doc.annotate(
///     NodeId(1), AnnotationKind::Suggestion, (4, 9), "slow", SimTime::ZERO,
/// )?;
/// doc.accept_suggestion(note)?;
/// assert_eq!(doc.base(), "The slow brown fox.");
/// # Ok::<(), cscw_core::document::DocumentError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct QuiltDocument {
    base: String,
    annotations: BTreeMap<AnnotationId, Annotation>,
    next: u64,
    /// Base revisions applied (accepted suggestions).
    revisions: u64,
}

impl QuiltDocument {
    /// Creates a document with the given base text.
    pub fn new(base: impl Into<String>) -> Self {
        QuiltDocument {
            base: base.into(),
            annotations: BTreeMap::new(),
            next: 0,
            revisions: 0,
        }
    }

    /// The current base text.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// Base revisions applied so far.
    pub fn revisions(&self) -> u64 {
        self.revisions
    }

    /// Adds an annotation anchored at `range` (char indices).
    ///
    /// # Errors
    ///
    /// [`DocumentError::BadRange`] if the anchor falls outside the base.
    pub fn annotate(
        &mut self,
        author: NodeId,
        kind: AnnotationKind,
        range: (usize, usize),
        body: impl Into<String>,
        at: SimTime,
    ) -> Result<AnnotationId, DocumentError> {
        let len = self.base.chars().count();
        if range.0 > range.1 || range.1 > len {
            return Err(DocumentError::BadRange { range, len });
        }
        let id = AnnotationId(self.next);
        self.next += 1;
        self.annotations.insert(
            id,
            Annotation {
                id,
                author,
                kind,
                range,
                body: body.into(),
                at,
                replies: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Replies to an annotation (threaded discussion).
    ///
    /// # Errors
    ///
    /// [`DocumentError::UnknownAnnotation`] if absent.
    pub fn reply(
        &mut self,
        id: AnnotationId,
        who: NodeId,
        text: impl Into<String>,
    ) -> Result<(), DocumentError> {
        let ann = self
            .annotations
            .get_mut(&id)
            .ok_or(DocumentError::UnknownAnnotation(id))?;
        ann.replies.push((who, text.into()));
        Ok(())
    }

    /// Accepts a suggestion: splices its body over its anchor range,
    /// removes it, and re-anchors the other annotations around the edit.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids or non-suggestions.
    pub fn accept_suggestion(&mut self, id: AnnotationId) -> Result<(), DocumentError> {
        let ann = self
            .annotations
            .get(&id)
            .ok_or(DocumentError::UnknownAnnotation(id))?;
        if ann.kind != AnnotationKind::Suggestion {
            return Err(DocumentError::NotASuggestion(id));
        }
        let (start, end) = ann.range;
        let replacement = ann.body.clone();
        let chars: Vec<char> = self.base.chars().collect();
        let mut new_base: String = chars[..start].iter().collect();
        new_base.push_str(&replacement);
        new_base.extend(&chars[end..]);
        self.base = new_base;
        self.revisions += 1;
        let delta = replacement.chars().count() as i64 - (end - start) as i64;
        self.annotations.remove(&id);
        // Re-anchor annotations after the splice point.
        for ann in self.annotations.values_mut() {
            if ann.range.0 >= end {
                ann.range.0 = (ann.range.0 as i64 + delta) as usize;
                ann.range.1 = (ann.range.1 as i64 + delta) as usize;
            } else if ann.range.1 > start {
                // Overlapping anchors collapse onto the splice point.
                ann.range = (start, start + replacement.chars().count());
            }
        }
        Ok(())
    }

    /// Annotations visible to `reader` (private notes only to their
    /// authors), in id order.
    pub fn visible_to(&self, reader: NodeId) -> Vec<&Annotation> {
        self.annotations
            .values()
            .filter(|a| a.kind != AnnotationKind::PrivateNote || a.author == reader)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: SimTime = SimTime::ZERO;

    #[test]
    fn annotate_and_thread() {
        let mut doc = QuiltDocument::new("hello world");
        let id = doc
            .annotate(
                NodeId(1),
                AnnotationKind::Comment,
                (0, 5),
                "too informal?",
                NOW,
            )
            .unwrap();
        doc.reply(id, NodeId(2), "it's fine").unwrap();
        let anns = doc.visible_to(NodeId(3));
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].replies.len(), 1);
    }

    #[test]
    fn bad_anchors_are_rejected() {
        let mut doc = QuiltDocument::new("short");
        assert!(matches!(
            doc.annotate(NodeId(1), AnnotationKind::Comment, (2, 99), "x", NOW),
            Err(DocumentError::BadRange { .. })
        ));
        assert!(doc
            .annotate(NodeId(1), AnnotationKind::Comment, (3, 2), "x", NOW)
            .is_err());
    }

    #[test]
    fn accepting_a_suggestion_revises_the_base() {
        let mut doc = QuiltDocument::new("the quick fox");
        let s = doc
            .annotate(NodeId(1), AnnotationKind::Suggestion, (4, 9), "sly", NOW)
            .unwrap();
        doc.accept_suggestion(s).unwrap();
        assert_eq!(doc.base(), "the sly fox");
        assert_eq!(doc.revisions(), 1);
        assert!(doc.visible_to(NodeId(1)).is_empty(), "suggestion consumed");
    }

    #[test]
    fn later_annotations_reanchor_after_a_splice() {
        let mut doc = QuiltDocument::new("aaa bbb ccc");
        let s = doc
            .annotate(NodeId(1), AnnotationKind::Suggestion, (0, 3), "x", NOW)
            .unwrap();
        let c = doc
            .annotate(
                NodeId(2),
                AnnotationKind::Comment,
                (8, 11),
                "about ccc",
                NOW,
            )
            .unwrap();
        doc.accept_suggestion(s).unwrap();
        assert_eq!(doc.base(), "x bbb ccc");
        let ann = doc
            .visible_to(NodeId(2))
            .into_iter()
            .find(|a| a.id == c)
            .unwrap();
        assert_eq!(ann.range, (6, 9), "comment still anchors 'ccc'");
    }

    #[test]
    fn overlapping_annotations_collapse_to_the_splice() {
        let mut doc = QuiltDocument::new("abcdef");
        let s = doc
            .annotate(NodeId(1), AnnotationKind::Suggestion, (1, 4), "XY", NOW)
            .unwrap();
        let overlapping = doc
            .annotate(
                NodeId(2),
                AnnotationKind::Comment,
                (2, 5),
                "spans the edit",
                NOW,
            )
            .unwrap();
        doc.accept_suggestion(s).unwrap();
        assert_eq!(doc.base(), "aXYef");
        let ann = doc
            .visible_to(NodeId(2))
            .into_iter()
            .find(|a| a.id == overlapping)
            .unwrap();
        assert_eq!(ann.range, (1, 3));
    }

    #[test]
    fn private_notes_are_private() {
        let mut doc = QuiltDocument::new("draft");
        doc.annotate(NodeId(1), AnnotationKind::PrivateNote, (0, 5), "ugh", NOW)
            .unwrap();
        assert_eq!(doc.visible_to(NodeId(1)).len(), 1);
        assert!(doc.visible_to(NodeId(2)).is_empty());
    }

    #[test]
    fn only_suggestions_can_be_accepted() {
        let mut doc = QuiltDocument::new("text");
        let c = doc
            .annotate(NodeId(1), AnnotationKind::Comment, (0, 4), "note", NOW)
            .unwrap();
        assert_eq!(
            doc.accept_suggestion(c).unwrap_err(),
            DocumentError::NotASuggestion(c)
        );
    }
}
