//! Role-based, dynamic, fine-grained access control (Shen & Dewan,
//! "Access Control for Collaborative Environments", CSCW'92).
//!
//! The paper's requirements (§4.2.1), all realised here:
//!
//! - policies are based on **roles**, not individual identity;
//! - roles are **dynamic**: an assignment changes during a collaboration
//!   by touching that one subject's entry, without re-administering
//!   per-object lists;
//! - control is **fine-grained**: objects are hierarchical paths
//!   (`"report/sec2/para3"`, down to individual lines) and rules attach
//!   at any level, inherited downward;
//! - rules may be negative (**deny**), with conflict resolution: the more
//!   specific path wins, and at equal specificity deny beats allow;
//! - rights are **visible and easy to understand**: `explain` returns the
//!   rule that decided an access.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::matrix::Subject;
use crate::rights::Rights;

/// A hierarchical object path, e.g. `report/sec2/para3/line14` — the
/// workspace's shared name type, so the path an event carries off the
/// wire is the path the policy checks, uncopied and unparsed.
pub use odp_fabric::ObjectPath;

/// Names a role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoleId(pub u32);

impl fmt::Display for RoleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "role{}", self.0)
    }
}

/// Allow or deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Grants the rights.
    Allow,
    /// Forbids the rights (beats Allow at equal specificity).
    Deny,
}

/// One policy rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The role it applies to.
    pub role: RoleId,
    /// The object subtree it covers.
    pub path: ObjectPath,
    /// The rights concerned.
    pub rights: Rights,
    /// Allow or deny.
    pub effect: Effect,
}

/// The decision for one access check, with its justification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Whether access is granted.
    pub allowed: bool,
    /// The rule that decided it (None = default deny).
    pub because: Option<Rule>,
}

/// The roles one subject holds.
#[derive(Debug, Clone, Default)]
struct Held {
    /// Directly assigned.
    direct: BTreeSet<RoleId>,
    /// `direct` plus every transitively inherited junior role, sorted.
    /// Rebuilt by the three mutators that can change it (`assign`,
    /// `unassign`, `add_inheritance`), so a check reads it as it is.
    effective: Vec<RoleId>,
}

/// The Shen–Dewan policy engine.
///
/// A policy is *compiled* as it is edited: every subject's effective
/// role set is kept current by the mutators (all `&mut self`), so an
/// access check walks the rules against a ready sorted slice and
/// allocates nothing. Each mutator also moves the policy to a fresh
/// [`generation`](Self::generation), so a caller can keep a verdict for
/// as long as the generation it was decided under stands.
///
/// # Examples
///
/// ```
/// use odp_access::matrix::Subject;
/// use odp_access::rbac::{Effect, ObjectPath, RbacPolicy, RoleId};
/// use odp_access::rights::Rights;
///
/// let mut p = RbacPolicy::new();
/// let author = RoleId(1);
/// p.add_rule(author, "report".into(), Rights::READ | Rights::WRITE, Effect::Allow);
/// p.add_rule(author, "report/appendix".into(), Rights::WRITE, Effect::Deny);
/// p.assign(Subject(5), author);
/// assert!(p.check(Subject(5), &"report/sec1".into(), Rights::WRITE).allowed);
/// assert!(!p.allows(Subject(5), &"report/appendix/a1".into(), Rights::WRITE));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RbacPolicy {
    rules: Vec<Rule>,
    subjects: BTreeMap<Subject, Held>,
    /// role -> roles it inherits from (junior roles).
    inherits: BTreeMap<RoleId, BTreeSet<RoleId>>,
    generation: u64,
}

/// A generation no mutation in this process has taken yet. Unique
/// process-wide rather than per policy, so a policy swapped in whole
/// (`*bus.policy_mut() = other`) never reads as the one it replaced.
fn fresh_generation() -> u64 {
    // Relaxed: the value is an identity; it publishes no other data.
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// `direct` plus the junior roles reachable through `inherits`, sorted.
fn closure(
    direct: &BTreeSet<RoleId>,
    inherits: &BTreeMap<RoleId, BTreeSet<RoleId>>,
) -> Vec<RoleId> {
    let mut out = BTreeSet::new();
    let mut stack: Vec<RoleId> = direct.iter().copied().collect();
    while let Some(role) = stack.pop() {
        if out.insert(role) {
            if let Some(juniors) = inherits.get(&role) {
                stack.extend(juniors.iter().copied());
            }
        }
    }
    out.into_iter().collect()
}

/// Whether the deciding rule (None = default deny) grants `needed`.
fn grants(deciding: Option<&Rule>, needed: Rights) -> bool {
    needed.is_empty()
        || deciding.is_some_and(|rule| rule.effect == Effect::Allow && rule.rights.contains(needed))
}

impl RbacPolicy {
    /// Creates an empty (default-deny) policy.
    pub fn new() -> Self {
        RbacPolicy::default()
    }

    /// Identifies what the policy decides: `0` until its first
    /// mutation, then a value fresh from every mutator. Two policies
    /// share a generation only when one is an unmutated clone of the
    /// other, so equal generations mean equal verdicts.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Adds a rule.
    pub fn add_rule(&mut self, role: RoleId, path: ObjectPath, rights: Rights, effect: Effect) {
        self.rules.push(Rule {
            role,
            path,
            rights,
            effect,
        });
        self.generation = fresh_generation();
    }

    /// Declares that `senior` inherits all permissions of `junior`.
    pub fn add_inheritance(&mut self, senior: RoleId, junior: RoleId) {
        self.inherits.entry(senior).or_default().insert(junior);
        for held in self.subjects.values_mut() {
            held.effective = closure(&held.direct, &self.inherits);
        }
        self.generation = fresh_generation();
    }

    /// Assigns a role to a subject — a *dynamic* change touching that
    /// subject alone, the operation static schemes cannot express
    /// without re-administration.
    pub fn assign(&mut self, subject: Subject, role: RoleId) {
        let held = self.subjects.entry(subject).or_default();
        held.direct.insert(role);
        held.effective = closure(&held.direct, &self.inherits);
        self.generation = fresh_generation();
    }

    /// Removes a role from a subject (equally dynamic).
    pub fn unassign(&mut self, subject: Subject, role: RoleId) {
        if let Some(held) = self.subjects.get_mut(&subject) {
            held.direct.remove(&role);
            held.effective = closure(&held.direct, &self.inherits);
        }
        self.generation = fresh_generation();
    }

    /// The subject's effective roles (direct plus transitively inherited
    /// junior roles), ascending.
    pub(crate) fn effective_roles(&self, subject: Subject) -> &[RoleId] {
        self.subjects
            .get(&subject)
            .map_or(&[], |held| held.effective.as_slice())
    }

    /// The rule that decides whether `subject` may exercise `needed` on
    /// `path`: among the rules of the subject's effective roles that
    /// cover the path and speak of any needed right, the deepest path
    /// wins and deny beats allow at equal depth. `None` = no applicable
    /// rule (default deny). The one resolution every entry point —
    /// [`check`](Self::check), [`allows`](Self::allows),
    /// [`explain`](Self::explain) — goes through.
    fn decide(&self, subject: Subject, path: &ObjectPath, needed: Rights) -> Option<&Rule> {
        let roles = self.effective_roles(subject);
        let mut best: Option<(&Rule, usize)> = None;
        for rule in &self.rules {
            if rule.rights.intersection(needed).is_empty()
                || roles.binary_search(&rule.role).is_err()
                || !rule.path.covers(path)
            {
                continue;
            }
            let depth = rule.path.depth();
            let wins = match best {
                None => true,
                Some((cur, cur_depth)) => {
                    depth > cur_depth
                        || (depth == cur_depth
                            && rule.effect == Effect::Deny
                            && cur.effect == Effect::Allow)
                }
            };
            if wins {
                best = Some((rule, depth));
            }
        }
        best.map(|(rule, _)| rule)
    }

    /// Whether `subject` may exercise `needed` on `path` — the verdict
    /// of [`check`](Self::check) without its justification, and without
    /// a single allocation: what the per-delivery gates call.
    pub fn allows(&self, subject: Subject, path: &ObjectPath, needed: Rights) -> bool {
        grants(self.decide(subject, path, needed), needed)
    }

    /// Checks whether `subject` may exercise `needed` on `path`, and
    /// explains why. Conflict resolution: deepest matching path wins;
    /// deny beats allow at equal depth; default deny.
    pub fn check(&self, subject: Subject, path: &ObjectPath, needed: Rights) -> Decision {
        let because = self.decide(subject, path, needed);
        Decision {
            allowed: grants(because, needed),
            because: because.cloned(),
        }
    }

    /// Human-readable explanation of a check — the paper's demand that
    /// "access rights are both visible and easy to understand".
    pub fn explain(&self, subject: Subject, path: &ObjectPath, needed: Rights) -> String {
        let d = self.check(subject, path, needed);
        match (&d.because, d.allowed) {
            (Some(rule), true) => format!(
                "{subject} may {needed} on {path}: {} grants {} at '{}'",
                rule.role, rule.rights, rule.path
            ),
            (Some(rule), false) => format!(
                "{subject} may NOT {needed} on {path}: {} {} {} at '{}'",
                rule.role,
                match rule.effect {
                    Effect::Deny => "denies",
                    Effect::Allow => "only grants",
                },
                rule.rights,
                rule.path
            ),
            (None, _) => {
                format!("{subject} may NOT {needed} on {path}: no applicable rule (default deny)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RbacPolicy {
        let mut p = RbacPolicy::new();
        // role 1 = author, role 2 = reviewer, role 3 = editor-in-chief.
        p.add_rule(
            RoleId(1),
            "report".into(),
            Rights::READ | Rights::WRITE,
            Effect::Allow,
        );
        p.add_rule(
            RoleId(2),
            "report".into(),
            Rights::READ | Rights::ANNOTATE,
            Effect::Allow,
        );
        p.add_rule(
            RoleId(1),
            "report/reviews".into(),
            Rights::WRITE,
            Effect::Deny,
        );
        p.add_rule(RoleId(3), "report".into(), Rights::ALL, Effect::Allow);
        p.add_inheritance(RoleId(3), RoleId(1));
        p
    }

    #[test]
    fn roles_grant_rights() {
        let mut p = policy();
        p.assign(Subject(1), RoleId(1));
        assert!(
            p.check(Subject(1), &"report/sec1/para2".into(), Rights::WRITE)
                .allowed
        );
        assert!(
            !p.check(Subject(1), &"report/sec1".into(), Rights::DELETE)
                .allowed
        );
        assert!(
            !p.check(Subject(2), &"report/sec1".into(), Rights::READ)
                .allowed,
            "no role, default deny"
        );
    }

    #[test]
    fn deeper_deny_beats_shallower_allow() {
        let mut p = policy();
        p.assign(Subject(1), RoleId(1));
        assert!(
            p.check(Subject(1), &"report/sec1".into(), Rights::WRITE)
                .allowed
        );
        assert!(
            !p.check(Subject(1), &"report/reviews/r1".into(), Rights::WRITE)
                .allowed
        );
        // Reads in the denied subtree are still fine (deny only names WRITE).
        assert!(
            p.check(Subject(1), &"report/reviews/r1".into(), Rights::READ)
                .allowed
        );
    }

    #[test]
    fn deny_beats_allow_at_equal_depth() {
        let mut p = RbacPolicy::new();
        p.add_rule(RoleId(1), "doc".into(), Rights::WRITE, Effect::Allow);
        p.add_rule(RoleId(2), "doc".into(), Rights::WRITE, Effect::Deny);
        p.assign(Subject(1), RoleId(1));
        p.assign(Subject(1), RoleId(2));
        assert!(!p.check(Subject(1), &"doc/x".into(), Rights::WRITE).allowed);
    }

    #[test]
    fn dynamic_role_change_is_immediate() {
        let mut p = policy();
        let path: ObjectPath = "report/sec1".into();
        assert!(!p.check(Subject(9), &path, Rights::WRITE).allowed);
        p.assign(Subject(9), RoleId(1));
        assert!(p.check(Subject(9), &path, Rights::WRITE).allowed);
        p.unassign(Subject(9), RoleId(1));
        assert!(!p.check(Subject(9), &path, Rights::WRITE).allowed);
    }

    #[test]
    fn inheritance_carries_junior_permissions() {
        let mut p = policy();
        p.assign(Subject(3), RoleId(3)); // editor-in-chief inherits author
        assert!(p.effective_roles(Subject(3)).contains(&RoleId(1)));
        // But the author's deny at report/reviews is overridden by the
        // chief's own ALL at 'report'? No: deeper path wins regardless of
        // which role it came from.
        assert!(
            !p.check(Subject(3), &"report/reviews/r1".into(), Rights::WRITE)
                .allowed
        );
        assert!(
            p.check(Subject(3), &"report/sec1".into(), Rights::DELETE)
                .allowed
        );
    }

    #[test]
    fn fine_grained_line_level_rules() {
        let mut p = RbacPolicy::new();
        p.add_rule(RoleId(1), "doc".into(), Rights::READ, Effect::Allow);
        p.add_rule(
            RoleId(1),
            "doc/para3/line14".into(),
            Rights::WRITE,
            Effect::Allow,
        );
        p.assign(Subject(1), RoleId(1));
        assert!(
            p.check(Subject(1), &"doc/para3/line14".into(), Rights::WRITE)
                .allowed
        );
        assert!(
            !p.check(Subject(1), &"doc/para3/line15".into(), Rights::WRITE)
                .allowed
        );
    }

    #[test]
    fn explain_names_the_deciding_rule() {
        let mut p = policy();
        p.assign(Subject(1), RoleId(1));
        let why = p.explain(Subject(1), &"report/reviews/r1".into(), Rights::WRITE);
        assert!(why.contains("NOT"), "{why}");
        assert!(why.contains("report/reviews"), "{why}");
        let why_ok = p.explain(Subject(1), &"report/sec1".into(), Rights::WRITE);
        assert!(why_ok.contains("grants"), "{why_ok}");
        let why_none = p.explain(Subject(42), &"report".into(), Rights::READ);
        assert!(why_none.contains("default deny"), "{why_none}");
    }

    #[test]
    fn object_path_normalisation_and_covers() {
        let p = ObjectPath::new("/a//b/c/");
        assert_eq!(p.as_str(), "a/b/c");
        assert_eq!(p.depth(), 3);
        assert!(ObjectPath::new("a/b").covers(&p));
        assert!(!ObjectPath::new("a/bc").covers(&p));
        assert!(ObjectPath::new("").covers(&p), "root covers all");
        assert_eq!(p.parent().unwrap().as_str(), "a/b");
        assert_eq!(ObjectPath::new("a").parent(), None);
    }

    #[test]
    fn every_mutator_moves_the_policy_to_a_fresh_generation() {
        let mut p = RbacPolicy::new();
        assert_eq!(p.generation(), 0, "a policy never mutated");
        let mut seen = vec![p.generation()];
        let mut after = |p: &RbacPolicy, what: &str| {
            assert!(!seen.contains(&p.generation()), "{what} kept a generation");
            seen.push(p.generation());
        };
        p.add_rule(RoleId(1), "doc".into(), Rights::READ, Effect::Allow);
        after(&p, "add_rule");
        p.add_inheritance(RoleId(2), RoleId(1));
        after(&p, "add_inheritance");
        p.assign(Subject(1), RoleId(2));
        after(&p, "assign");
        p.unassign(Subject(1), RoleId(2));
        after(&p, "unassign");
        // A clone decides alike and says so; mutating either parts them.
        let mut q = p.clone();
        assert_eq!(q.generation(), p.generation());
        q.assign(Subject(1), RoleId(1));
        p.assign(Subject(1), RoleId(1));
        assert_ne!(q.generation(), p.generation(), "generations are unique");
        // Reads leave it alone.
        let g = p.generation();
        let _ = p.explain(Subject(1), &"doc/a".into(), Rights::READ);
        let _ = (
            p.allows(Subject(1), &"doc/a".into(), Rights::READ),
            p.effective_roles(Subject(1)).len(),
        );
        assert_eq!(p.generation(), g);
    }

    #[test]
    fn empty_rights_check_is_vacuously_true() {
        let p = RbacPolicy::new();
        assert!(p.check(Subject(0), &"x".into(), Rights::NONE).allowed);
    }
}
