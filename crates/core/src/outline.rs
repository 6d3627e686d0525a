//! A GROVE-style multi-user outline (Ellis, Gibbs & Rein): the group
//! editor the paper cites for operation transformations was an *outline*
//! editor whose items carried per-user visibility — "private" items
//! (one author's thinking), "shared" items (a subgroup), and "public"
//! items (everyone). Each participant sees their own view of one shared
//! structure — relaxed WYSIWIS at the data-model level.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

use odp_sim::net::NodeId;

/// Names an outline item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u64);

/// Who may see an item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Visibility {
    /// Everyone in the session.
    Public,
    /// Only the listed participants.
    Shared(BTreeSet<NodeId>),
    /// Only the author.
    Private,
}

/// One outline item.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Its id.
    pub id: ItemId,
    /// Who created it.
    pub author: NodeId,
    /// The item text.
    pub text: String,
    /// Who may see it.
    pub visibility: Visibility,
    /// Child items, in outline order.
    pub children: Vec<ItemId>,
}

/// Errors from outline operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutlineError {
    /// Unknown item.
    UnknownItem(ItemId),
    /// Only the author may change an item's visibility.
    NotTheAuthor(NodeId, ItemId),
    /// The insertion index is beyond the sibling list.
    BadPosition {
        /// Requested index.
        index: usize,
        /// Number of siblings.
        len: usize,
    },
    /// Moving an item under its own descendant would create a cycle.
    WouldCycle(ItemId),
}

impl fmt::Display for OutlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutlineError::UnknownItem(i) => write!(f, "unknown item {}", i.0),
            OutlineError::NotTheAuthor(n, i) => {
                write!(f, "{n} is not the author of item {}", i.0)
            }
            OutlineError::BadPosition { index, len } => {
                write!(f, "position {index} beyond {len} siblings")
            }
            OutlineError::WouldCycle(i) => write!(f, "moving item {} would create a cycle", i.0),
        }
    }
}

impl std::error::Error for OutlineError {}

/// The shared outline: one structure, many views.
///
/// # Examples
///
/// ```
/// use cscw_core::outline::{Outline, Visibility};
/// use odp_sim::net::NodeId;
///
/// let mut o = Outline::new();
/// let intro = o.add_item(NodeId(0), None, 0, "Introduction", Visibility::Public)?;
/// let note = o.add_item(NodeId(0), Some(intro), 0, "todo: sharpen", Visibility::Private)?;
/// assert!(o.view_for(NodeId(0)).iter().any(|(i, _)| *i == note));
/// assert!(!o.view_for(NodeId(1)).iter().any(|(i, _)| *i == note), "private to its author");
/// # Ok::<(), cscw_core::outline::OutlineError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Outline {
    items: BTreeMap<ItemId, Item>,
    roots: Vec<ItemId>,
    next: u64,
}

impl Outline {
    /// Creates an empty outline.
    pub fn new() -> Self {
        Outline::default()
    }

    /// Adds an item under `parent` (or at top level for `None`) at
    /// `position` among its siblings.
    ///
    /// # Errors
    ///
    /// Unknown parents and out-of-range positions fail.
    // odp-check: allow(dead-pub) — PAPER.md requirement 2: the GROVE outline editor.
    pub fn add_item(
        &mut self,
        author: NodeId,
        parent: Option<ItemId>,
        position: usize,
        text: impl Into<String>,
        visibility: Visibility,
    ) -> Result<ItemId, OutlineError> {
        let id = ItemId(self.next);
        let siblings = self.siblings_mut(parent)?;
        if position > siblings.len() {
            return Err(OutlineError::BadPosition {
                index: position,
                len: siblings.len(),
            });
        }
        siblings.insert(position, id);
        self.next += 1;
        self.items.insert(
            id,
            Item {
                id,
                author,
                text: text.into(),
                visibility,
                children: Vec::new(),
            },
        );
        Ok(id)
    }

    /// The sibling list under `parent` (the top level for `None`).
    fn siblings_mut(&mut self, parent: Option<ItemId>) -> Result<&mut Vec<ItemId>, OutlineError> {
        match parent {
            Some(p) => self
                .items
                .get_mut(&p)
                .map(|item| &mut item.children)
                .ok_or(OutlineError::UnknownItem(p)),
            None => Ok(&mut self.roots),
        }
    }

    /// Edits an item's text (any participant — GROVE let the group edit
    /// freely; social protocol governs).
    ///
    /// # Errors
    ///
    /// [`OutlineError::UnknownItem`] if absent.
    // odp-check: allow(dead-pub) — PAPER.md requirement 2: the GROVE outline editor.
    pub fn edit_text(&mut self, id: ItemId, text: impl Into<String>) -> Result<(), OutlineError> {
        self.items
            .get_mut(&id)
            .map(|i| i.text = text.into())
            .ok_or(OutlineError::UnknownItem(id))
    }

    /// Changes an item's visibility — author only (making your private
    /// thinking public is yours to decide).
    ///
    /// # Errors
    ///
    /// Fails for unknown items or non-authors.
    // odp-check: allow(dead-pub) — PAPER.md requirement 2: GROVE's private/shared/public items.
    pub fn set_visibility(
        &mut self,
        who: NodeId,
        id: ItemId,
        visibility: Visibility,
    ) -> Result<(), OutlineError> {
        let item = self
            .items
            .get_mut(&id)
            .ok_or(OutlineError::UnknownItem(id))?;
        if item.author != who {
            return Err(OutlineError::NotTheAuthor(who, id));
        }
        item.visibility = visibility;
        Ok(())
    }

    /// True if `viewer` may see `item`.
    fn visible(&self, viewer: NodeId, item: &Item) -> bool {
        match &item.visibility {
            Visibility::Public => true,
            Visibility::Shared(set) => item.author == viewer || set.contains(&viewer),
            Visibility::Private => item.author == viewer,
        }
    }

    /// Renders `viewer`'s view: visible items in depth-first outline
    /// order with their depths. Items hidden from the viewer hide their
    /// subtrees too (you cannot anchor under what you cannot see).
    // odp-check: allow(dead-pub) — PAPER.md requirement 2: GROVE's per-user view of one outline.
    pub fn view_for(&self, viewer: NodeId) -> Vec<(ItemId, usize)> {
        let mut out = Vec::new();
        fn walk(
            outline: &Outline,
            viewer: NodeId,
            ids: &[ItemId],
            depth: usize,
            out: &mut Vec<(ItemId, usize)>,
        ) {
            for id in ids {
                let Some(item) = outline.items.get(id) else {
                    continue;
                };
                if outline.visible(viewer, item) {
                    out.push((*id, depth));
                    walk(outline, viewer, &item.children, depth + 1, out);
                }
            }
        }
        walk(self, viewer, &self.roots, 0, &mut out);
        out
    }

    /// Moves an item (with its subtree) to a new parent/position.
    ///
    /// # Errors
    ///
    /// Fails for unknown items, bad positions, or moves that would make
    /// an item its own ancestor.
    // odp-check: allow(dead-pub) — PAPER.md requirement 2: the GROVE outline editor.
    pub fn move_item(
        &mut self,
        id: ItemId,
        new_parent: Option<ItemId>,
        position: usize,
    ) -> Result<(), OutlineError> {
        if !self.items.contains_key(&id) {
            return Err(OutlineError::UnknownItem(id));
        }
        if let Some(p) = new_parent {
            if p == id || self.is_descendant(p, id) {
                return Err(OutlineError::WouldCycle(id));
            }
        }
        // Every error is raised before the item is detached.
        self.siblings_mut(new_parent)?;
        // Detach.
        self.roots.retain(|&r| r != id);
        for item in self.items.values_mut() {
            item.children.retain(|&c| c != id);
        }
        // Attach.
        let siblings = self.siblings_mut(new_parent)?;
        let position = position.min(siblings.len());
        siblings.insert(position, id);
        Ok(())
    }

    /// True if `candidate` lies in `ancestor`'s subtree.
    fn is_descendant(&self, candidate: ItemId, ancestor: ItemId) -> bool {
        let Some(a) = self.items.get(&ancestor) else {
            return false;
        };
        a.children
            .iter()
            .any(|&c| c == candidate || self.is_descendant(candidate, c))
    }

    /// Looks up an item.
    ///
    /// # Errors
    ///
    /// [`OutlineError::UnknownItem`] if absent.
    pub fn item(&self, id: ItemId) -> Result<&Item, OutlineError> {
        self.items.get(&id).ok_or(OutlineError::UnknownItem(id))
    }

    /// Total items (all visibilities).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the outline is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_with(nodes: &[u32]) -> Visibility {
        Visibility::Shared(nodes.iter().map(|&n| NodeId(n)).collect())
    }

    #[test]
    fn views_respect_visibility() {
        let mut o = Outline::new();
        let pub1 = o
            .add_item(NodeId(0), None, 0, "public point", Visibility::Public)
            .unwrap();
        let priv1 = o
            .add_item(NodeId(0), None, 1, "my draft thought", Visibility::Private)
            .unwrap();
        let team = o
            .add_item(NodeId(1), None, 2, "team-only", shared_with(&[0]))
            .unwrap();
        let v0: Vec<ItemId> = o.view_for(NodeId(0)).into_iter().map(|(i, _)| i).collect();
        assert_eq!(v0, vec![pub1, priv1, team], "author+shared sees all");
        let v2: Vec<ItemId> = o.view_for(NodeId(2)).into_iter().map(|(i, _)| i).collect();
        assert_eq!(v2, vec![pub1], "outsider sees only public");
        let v1: Vec<ItemId> = o.view_for(NodeId(1)).into_iter().map(|(i, _)| i).collect();
        assert_eq!(v1, vec![pub1, team], "sharer sees own shared item");
    }

    #[test]
    fn hidden_items_hide_their_subtrees() {
        let mut o = Outline::new();
        let secret = o
            .add_item(NodeId(0), None, 0, "secret section", Visibility::Private)
            .unwrap();
        let child = o
            .add_item(
                NodeId(0),
                Some(secret),
                0,
                "public child of secret",
                Visibility::Public,
            )
            .unwrap();
        let v1 = o.view_for(NodeId(1));
        assert!(v1.is_empty(), "the public child is unreachable: {v1:?}");
        let v0: Vec<ItemId> = o.view_for(NodeId(0)).into_iter().map(|(i, _)| i).collect();
        assert_eq!(v0, vec![secret, child]);
    }

    #[test]
    fn publishing_private_thinking_is_author_only() {
        let mut o = Outline::new();
        let item = o
            .add_item(NodeId(0), None, 0, "draft", Visibility::Private)
            .unwrap();
        assert_eq!(
            o.set_visibility(NodeId(1), item, Visibility::Public)
                .unwrap_err(),
            OutlineError::NotTheAuthor(NodeId(1), item)
        );
        o.set_visibility(NodeId(0), item, Visibility::Public)
            .unwrap();
        assert_eq!(o.view_for(NodeId(1)).len(), 1);
    }

    #[test]
    fn depths_follow_the_structure() {
        let mut o = Outline::new();
        let a = o
            .add_item(NodeId(0), None, 0, "1", Visibility::Public)
            .unwrap();
        let b = o
            .add_item(NodeId(0), Some(a), 0, "1.1", Visibility::Public)
            .unwrap();
        let c = o
            .add_item(NodeId(0), Some(b), 0, "1.1.1", Visibility::Public)
            .unwrap();
        let view = o.view_for(NodeId(9));
        assert_eq!(view, vec![(a, 0), (b, 1), (c, 2)]);
    }

    #[test]
    fn moves_restructure_and_reject_cycles() {
        let mut o = Outline::new();
        let a = o
            .add_item(NodeId(0), None, 0, "a", Visibility::Public)
            .unwrap();
        let b = o
            .add_item(NodeId(0), None, 1, "b", Visibility::Public)
            .unwrap();
        let a1 = o
            .add_item(NodeId(0), Some(a), 0, "a1", Visibility::Public)
            .unwrap();
        // Move a1 under b.
        o.move_item(a1, Some(b), 0).unwrap();
        assert_eq!(o.item(b).unwrap().children, vec![a1]);
        assert!(o.item(a).unwrap().children.is_empty());
        // Move b under its own child a1: cycle.
        assert_eq!(
            o.move_item(b, Some(a1), 0).unwrap_err(),
            OutlineError::WouldCycle(b)
        );
        // Move b to top-level front (a no-op structurally, position 0).
        o.move_item(b, None, 0).unwrap();
        let view: Vec<ItemId> = o.view_for(NodeId(0)).into_iter().map(|(i, _)| i).collect();
        assert_eq!(view, vec![b, a1, a]);
    }

    #[test]
    fn bad_positions_and_unknown_items_error() {
        let mut o = Outline::new();
        assert!(matches!(
            o.add_item(NodeId(0), None, 5, "x", Visibility::Public),
            Err(OutlineError::BadPosition { .. })
        ));
        assert!(o.edit_text(ItemId(9), "x").is_err());
        assert!(o.move_item(ItemId(9), None, 0).is_err());
        assert!(o.item(ItemId(9)).is_err());
        assert!(o.is_empty());
    }
}
