//! Transaction groups (Skarra & Zdonik): cooperative transactions whose
//! internal concurrency control is governed by *access rules* instead of
//! serialisability.
//!
//! The paper (§4.2.1): *"Within a transaction group, the notion of
//! serialisability is replaced by access rules based on the semantics of
//! the cooperation. Access rules provide the **policy** of cooperation and
//! these policies can be **tailored** for a particular application by
//! amending the access rules."*
//!
//! A [`TransactionGroup`] wraps an [`ObjectStore`]; members issue reads
//! and writes that an [`AccessRule`] adjudicates. Member writes are
//! immediately visible *inside* the group (awareness!), and become visible
//! outside only when the group as a whole commits.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use odp_awareness::bus::{CoopEvent, CoopKind, CoopMode};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

use crate::locks::ClientId;
use crate::store::{ObjectId, ObjectStore, StoreError};

/// Read or write, as seen by access rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read the group-internal (dirty) value.
    Read,
    /// Replace the group-internal value.
    Write,
}

/// A member's view of who else is active on an object, given to rules.
#[derive(Debug, Clone, Default)]
pub struct ObjectActivity {
    /// Members that have read the object since group start.
    pub readers: BTreeSet<ClientId>,
    /// Members that have written it (in write order).
    pub writers: Vec<ClientId>,
    /// The member currently holding an exclusive claim, if the rule
    /// created one.
    pub claimed_by: Option<ClientId>,
}

/// A rule's decision about an access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleDecision {
    /// Allowed.
    Allow,
    /// Allowed, and the listed members should be notified (awareness).
    AllowNotify(Vec<ClientId>),
    /// Denied with a human-readable reason.
    Deny(String),
}

/// The tailorable cooperation policy of a group.
///
/// Implementations inspect the current [`ObjectActivity`] and decide. The
/// three canonical policies from the literature are provided:
/// [`CooperativeRule`], [`ExclusiveWriterRule`], [`ReviewerRule`].
pub trait AccessRule: fmt::Debug {
    /// Adjudicates `member` performing `mode` on `object`.
    fn adjudicate(
        &self,
        member: ClientId,
        object: ObjectId,
        mode: AccessMode,
        activity: &ObjectActivity,
    ) -> RuleDecision;
}

impl AccessRule for Box<dyn AccessRule> {
    fn adjudicate(
        &self,
        member: ClientId,
        object: ObjectId,
        mode: AccessMode,
        activity: &ObjectActivity,
    ) -> RuleDecision {
        (**self).adjudicate(member, object, mode, activity)
    }
}

/// Everything is allowed; every access notifies all other active members.
/// (Figure 2b taken to its extreme: pure social-protocol regulation.)
#[derive(Debug, Clone, Copy, Default)]
pub struct CooperativeRule;

impl AccessRule for CooperativeRule {
    fn adjudicate(
        &self,
        member: ClientId,
        _object: ObjectId,
        _mode: AccessMode,
        activity: &ObjectActivity,
    ) -> RuleDecision {
        let others: Vec<ClientId> = activity
            .readers
            .iter()
            .copied()
            .chain(activity.writers.iter().copied())
            .filter(|&c| c != member)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        RuleDecision::AllowNotify(others)
    }
}

/// One writer per object at a time (first writer claims it until group
/// commit); reads always allowed and the writer is notified of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExclusiveWriterRule;

impl AccessRule for ExclusiveWriterRule {
    fn adjudicate(
        &self,
        member: ClientId,
        _object: ObjectId,
        mode: AccessMode,
        activity: &ObjectActivity,
    ) -> RuleDecision {
        match mode {
            AccessMode::Read => match activity.claimed_by {
                Some(writer) if writer != member => RuleDecision::AllowNotify(vec![writer]),
                _ => RuleDecision::Allow,
            },
            AccessMode::Write => match activity.claimed_by {
                None => RuleDecision::Allow,
                Some(writer) if writer == member => RuleDecision::Allow,
                Some(writer) => RuleDecision::Deny(format!("object claimed by {writer}")),
            },
        }
    }
}

/// Writers may write only objects they have previously read (reviewers
/// must read before amending); all writes notify prior readers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReviewerRule;

impl AccessRule for ReviewerRule {
    fn adjudicate(
        &self,
        member: ClientId,
        _object: ObjectId,
        mode: AccessMode,
        activity: &ObjectActivity,
    ) -> RuleDecision {
        match mode {
            AccessMode::Read => RuleDecision::Allow,
            AccessMode::Write => {
                if !activity.readers.contains(&member) {
                    return RuleDecision::Deny("must read before writing".to_owned());
                }
                let others: Vec<ClientId> = activity
                    .readers
                    .iter()
                    .copied()
                    .filter(|&c| c != member)
                    .collect();
                RuleDecision::AllowNotify(others)
            }
        }
    }
}

/// Awareness notification emitted by group accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupNotice {
    /// Addressee.
    pub to: ClientId,
    /// Acting member.
    pub by: ClientId,
    /// Object concerned.
    pub object: ObjectId,
    /// What the actor did.
    pub mode: AccessMode,
    /// When.
    pub at: SimTime,
}

/// The notice as a unified cooperation event: the acting member is the
/// actor, the notified member the (direct) audience, on the object's
/// artefact path (`obj/<id>`).
impl From<&GroupNotice> for CoopEvent {
    fn from(notice: &GroupNotice) -> CoopEvent {
        let mode = match notice.mode {
            AccessMode::Read => CoopMode::Shared,
            AccessMode::Write => CoopMode::Exclusive,
        };
        CoopEvent::direct(
            NodeId(notice.by.0),
            NodeId(notice.to.0),
            format!("obj/{}", notice.object.0),
            notice.at,
            CoopKind::GroupAccess { mode },
        )
    }
}

/// Errors from group operations.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupError {
    /// Actor is not a member of the group.
    NotMember(ClientId),
    /// The rule denied the access.
    Denied {
        /// Who was denied.
        member: ClientId,
        /// Target object.
        object: ObjectId,
        /// Rule's reason.
        reason: String,
    },
    /// Underlying store failure.
    Store(StoreError),
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::NotMember(c) => write!(f, "{c} is not a group member"),
            GroupError::Denied {
                member,
                object,
                reason,
            } => {
                write!(f, "access by {member} to {object} denied: {reason}")
            }
            GroupError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for GroupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GroupError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for GroupError {
    fn from(e: StoreError) -> Self {
        GroupError::Store(e)
    }
}

/// A transaction group over a shared store.
///
/// # Examples
///
/// ```
/// use odp_awareness::bus::EventBus;
/// use odp_concurrency::locks::ClientId;
/// use odp_concurrency::store::{ObjectId, ObjectStore};
/// use odp_concurrency::txgroup::{CooperativeRule, TransactionGroup};
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut bus = EventBus::new();
/// bus.register(NodeId(0), 0.0);
/// bus.register(NodeId(1), 0.0);
/// let mut store = ObjectStore::new();
/// store.create(ObjectId(1), "draft");
/// let mut g = TransactionGroup::new(store, [ClientId(0), ClientId(1)], CooperativeRule);
/// let (val, _) = g.read(ClientId(0), ObjectId(1), SimTime::ZERO)?;
/// assert_eq!(val, "draft");
/// let (_, notices) = g.write(ClientId(1), ObjectId(1), "draft v2", SimTime::ZERO)?;
/// let seen = bus.publish_all(&notices);
/// assert_eq!(seen.len(), 1, "reader 0 is notified of the write");
/// # Ok::<(), odp_concurrency::txgroup::GroupError>(())
/// ```
pub struct TransactionGroup<R> {
    /// Committed (outside-visible) state.
    committed: ObjectStore,
    /// Group-internal working state.
    working: ObjectStore,
    members: BTreeSet<ClientId>,
    rule: R,
    activity: BTreeMap<ObjectId, ObjectActivity>,
    notices_sent: u64,
    denials: u64,
}

impl<R: AccessRule> TransactionGroup<R> {
    /// Creates a group over `store` with the given members and rule.
    pub fn new(store: ObjectStore, members: impl IntoIterator<Item = ClientId>, rule: R) -> Self {
        TransactionGroup {
            working: store.clone(),
            committed: store,
            members: members.into_iter().collect(),
            rule,
            activity: BTreeMap::new(),
            notices_sent: 0,
            denials: 0,
        }
    }

    /// The cooperation rule.
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// Total awareness notices generated so far.
    pub fn notices_sent(&self) -> u64 {
        self.notices_sent
    }

    /// Total denials so far.
    pub fn denials(&self) -> u64 {
        self.denials
    }

    fn check(
        &mut self,
        member: ClientId,
        object: ObjectId,
        mode: AccessMode,
        at: SimTime,
    ) -> Result<Vec<GroupNotice>, GroupError> {
        if !self.members.contains(&member) {
            return Err(GroupError::NotMember(member));
        }
        let activity = self.activity.entry(object).or_default();
        match self.rule.adjudicate(member, object, mode, activity) {
            RuleDecision::Allow => Ok(Vec::new()),
            RuleDecision::AllowNotify(others) => {
                self.notices_sent += others.len() as u64;
                Ok(others
                    .into_iter()
                    .map(|to| GroupNotice {
                        to,
                        by: member,
                        object,
                        mode,
                        at,
                    })
                    .collect())
            }
            RuleDecision::Deny(reason) => {
                self.denials += 1;
                Err(GroupError::Denied {
                    member,
                    object,
                    reason,
                })
            }
        }
    }

    /// Reads the group-internal value of `object` — including dirty
    /// writes by other members ("reading over their shoulder") —
    /// returning it with the awareness notices the rule asked for.
    ///
    /// # Errors
    ///
    /// Denied accesses, non-members and unknown objects fail.
    pub fn read(
        &mut self,
        member: ClientId,
        object: ObjectId,
        at: SimTime,
    ) -> Result<(String, Vec<GroupNotice>), GroupError> {
        let notices = self.check(member, object, AccessMode::Read, at)?;
        let value = self.working.read(object)?.value.clone();
        self.activity
            .entry(object)
            .or_default()
            .readers
            .insert(member);
        Ok((value, notices))
    }

    /// Writes `object` inside the group, returning the new version with
    /// the awareness notices the rule asked for. The new value is
    /// immediately visible to other members but not outside the group.
    ///
    /// # Errors
    ///
    /// Denied accesses, non-members and unknown objects fail.
    pub fn write(
        &mut self,
        member: ClientId,
        object: ObjectId,
        value: impl Into<String>,
        at: SimTime,
    ) -> Result<(u64, Vec<GroupNotice>), GroupError> {
        let notices = self.check(member, object, AccessMode::Write, at)?;
        let version = self.working.write(object, value)?;
        let act = self.activity.entry(object).or_default();
        act.writers.push(member);
        act.claimed_by.get_or_insert(member);
        Ok((version, notices))
    }

    /// The value visible *outside* the group (last group commit).
    ///
    /// # Errors
    ///
    /// Fails for unknown objects.
    pub fn external_read(&self, object: ObjectId) -> Result<&str, GroupError> {
        Ok(&self.committed.read(object)?.value)
    }

    /// Commits the whole group: working state becomes the committed state
    /// and per-object claims reset.
    pub fn commit_group(&mut self) {
        self.committed = self.working.clone();
        self.activity.clear();
    }

    /// Aborts the whole group: working state resets to the last commit.
    pub fn abort_group(&mut self) {
        self.working = self.committed.clone();
        self.activity.clear();
    }

    /// A snapshot of the group-internal working state (used by nested
    /// groups to seed and publish between levels).
    pub fn working_snapshot(&self) -> ObjectStore {
        self.working.clone()
    }

    /// Replaces the working state (a subgroup publishing upward). Claims
    /// and activity are preserved — the parent's cooperation continues.
    pub fn adopt_working(&mut self, store: ObjectStore) {
        self.working = store;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_awareness::bus::EventBus;

    fn setup<R: AccessRule>(rule: R) -> TransactionGroup<R> {
        let mut store = ObjectStore::new();
        store.create(ObjectId(1), "v0");
        TransactionGroup::new(store, [ClientId(0), ClientId(1), ClientId(2)], rule)
    }

    const NOW: SimTime = SimTime::ZERO;

    #[test]
    fn via_accesses_publish_group_notices_on_the_bus() {
        let mut bus = EventBus::new();
        for i in 0..3 {
            bus.register(NodeId(i), 0.0);
        }
        let mut g = setup(CooperativeRule);
        g.read(ClientId(0), ObjectId(1), NOW).unwrap();
        g.read(ClientId(1), ObjectId(1), NOW).unwrap();
        let (_, notices) = g.write(ClientId(2), ObjectId(1), "x", NOW).unwrap();
        let seen = bus.publish_all(&notices);
        let observers: Vec<NodeId> = seen.iter().map(|d| d.observer).collect();
        assert_eq!(observers, vec![NodeId(0), NodeId(1)]);
        assert_eq!(seen[0].event.actor, NodeId(2));
        assert_eq!(seen[0].event.artefact, "obj/1");
        assert_eq!(seen[0].event.kind.label(), "group.access");
    }

    #[test]
    fn group_notice_conversion_maps_modes_onto_coop_modes() {
        let n = GroupNotice {
            to: ClientId(1),
            by: ClientId(2),
            object: ObjectId(9),
            mode: AccessMode::Write,
            at: SimTime::from_millis(3),
        };
        let ev = CoopEvent::from(&n);
        assert_eq!(ev.actor, NodeId(2));
        assert_eq!(ev.artefact, "obj/9");
        assert!(matches!(
            ev.kind,
            CoopKind::GroupAccess {
                mode: CoopMode::Exclusive
            }
        ));
    }

    #[test]
    fn dirty_reads_inside_the_group_are_visible() {
        let mut g = setup(CooperativeRule);
        g.write(ClientId(0), ObjectId(1), "dirty", NOW).unwrap();
        let (val, _) = g.read(ClientId(1), ObjectId(1), NOW).unwrap();
        assert_eq!(val, "dirty", "member sees uncommitted write");
        assert_eq!(
            g.external_read(ObjectId(1)).unwrap(),
            "v0",
            "outside sees committed"
        );
    }

    #[test]
    fn group_commit_publishes_externally() {
        let mut g = setup(CooperativeRule);
        g.write(ClientId(0), ObjectId(1), "done", NOW).unwrap();
        g.commit_group();
        assert_eq!(g.external_read(ObjectId(1)).unwrap(), "done");
    }

    #[test]
    fn group_abort_rolls_back_working_state() {
        let mut g = setup(CooperativeRule);
        g.write(ClientId(0), ObjectId(1), "scrap", NOW).unwrap();
        g.abort_group();
        let (val, _) = g.read(ClientId(1), ObjectId(1), NOW).unwrap();
        assert_eq!(val, "v0");
    }

    #[test]
    fn cooperative_rule_notifies_all_active_members() {
        let mut g = setup(CooperativeRule);
        g.read(ClientId(0), ObjectId(1), NOW).unwrap();
        g.read(ClientId(1), ObjectId(1), NOW).unwrap();
        let (_, notices) = g.write(ClientId(2), ObjectId(1), "x", NOW).unwrap();
        let to: Vec<ClientId> = notices.iter().map(|n| n.to).collect();
        assert_eq!(to, vec![ClientId(0), ClientId(1)]);
        assert_eq!(
            g.notices_sent(),
            3,
            "read by 1 notified 0; write by 2 notified both"
        );
    }

    #[test]
    fn exclusive_writer_rule_claims_and_denies() {
        let mut g = setup(ExclusiveWriterRule);
        g.write(ClientId(0), ObjectId(1), "a", NOW).unwrap();
        let err = g.write(ClientId(1), ObjectId(1), "b", NOW).unwrap_err();
        assert!(matches!(err, GroupError::Denied { member, .. } if member == ClientId(1)));
        // Claim holder may keep writing.
        g.write(ClientId(0), ObjectId(1), "a2", NOW).unwrap();
        // Readers are allowed, and the writer is told.
        let (_, notices) = g.read(ClientId(2), ObjectId(1), NOW).unwrap();
        assert_eq!(notices[0].to, ClientId(0));
        assert_eq!(g.denials(), 1);
    }

    #[test]
    fn exclusive_claim_resets_on_group_commit() {
        let mut g = setup(ExclusiveWriterRule);
        g.write(ClientId(0), ObjectId(1), "a", NOW).unwrap();
        g.commit_group();
        assert!(g.write(ClientId(1), ObjectId(1), "b", NOW).is_ok());
    }

    #[test]
    fn reviewer_rule_requires_read_before_write() {
        let mut g = setup(ReviewerRule);
        assert!(matches!(
            g.write(ClientId(0), ObjectId(1), "x", NOW),
            Err(GroupError::Denied { .. })
        ));
        g.read(ClientId(0), ObjectId(1), NOW).unwrap();
        assert!(g.write(ClientId(0), ObjectId(1), "x", NOW).is_ok());
    }

    #[test]
    fn non_members_are_rejected() {
        let mut g = setup(CooperativeRule);
        assert_eq!(
            g.read(ClientId(9), ObjectId(1), NOW).unwrap_err(),
            GroupError::NotMember(ClientId(9))
        );
    }

    #[test]
    fn unknown_objects_error_through() {
        let mut g = setup(CooperativeRule);
        assert!(matches!(
            g.read(ClientId(0), ObjectId(42), NOW),
            Err(GroupError::Store(StoreError::UnknownObject(_)))
        ));
    }
}
