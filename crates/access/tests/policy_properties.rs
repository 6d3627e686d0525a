//! Property tests for the access-control mechanisms.

use std::collections::{BTreeMap, BTreeSet};

use odp_access::matrix::{AccessMatrix, Protected, Subject};
use odp_access::rbac::{Effect, ObjectPath, RbacPolicy, RoleId};
use odp_access::rights::Rights;
use proptest::prelude::*;

fn arb_rights() -> impl Strategy<Value = Rights> {
    (0u8..32).prop_map(|bits| {
        let mut r = Rights::NONE;
        for (i, right) in [
            Rights::READ,
            Rights::WRITE,
            Rights::ANNOTATE,
            Rights::DELETE,
            Rights::GRANT,
        ]
        .iter()
        .enumerate()
        {
            if bits & (1 << i) != 0 {
                r = r | *right;
            }
        }
        r
    })
}

/// The paths policy scripts draw from: nested, sibling-with-a-shared-
/// prefix (`a/b` vs `a/bc`), the root, and one spelled with redundant
/// slashes.
const PATHS: [&str; 8] = ["", "a", "a/b", "a/b/c", "a/bc", "x", "x/y", "/a//b/"];

/// One step of a policy script: an edit of the policy or a check.
#[derive(Debug, Clone)]
enum Op {
    AddRule(u32, usize, Rights, bool),
    Assign(u32, u32),
    Unassign(u32, u32),
    Inherit(u32, u32),
    Check(u32, usize, Rights),
}

/// Scripts interleave edits and checks freely, so rules arrive after
/// assignments and inheritance edges (self-loops and cycles included:
/// both ends are drawn from the same four roles) after either.
fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..10,
        0u32..4,
        (0u32..4, 0u32..4),
        0usize..PATHS.len(),
        arb_rights(),
        any::<bool>(),
    )
        .prop_map(
            |(tag, subject, (role, other), path, rights, allow)| match tag {
                0 | 1 => Op::AddRule(role, path, rights, allow),
                2 | 3 => Op::Assign(subject, role),
                4 => Op::Unassign(subject, role),
                5 => Op::Inherit(role, other),
                _ => Op::Check(subject, path, rights),
            },
        )
}

/// A rule as the oracle keeps it: `(role, path, rights, allow)`.
type RuleRow = (u32, String, Rights, bool);

/// What a check answers: the verdict and the deciding rule.
type Verdict = (bool, Option<RuleRow>);

/// The oracle: the policy algorithm as it stood before it was compiled.
/// Paths are plain strings covered by `format!`, and every check
/// rebuilds the subject's role closure from the assignments.
#[derive(Default)]
struct Reference {
    rules: Vec<RuleRow>,
    assignments: BTreeMap<u32, BTreeSet<u32>>,
    inherits: BTreeMap<u32, BTreeSet<u32>>,
}

impl Reference {
    fn normalised(raw: &str) -> String {
        let parts: Vec<&str> = raw.split('/').filter(|s| !s.is_empty()).collect();
        parts.join("/")
    }

    fn covers(rule: &str, path: &str) -> bool {
        rule.is_empty() || path == rule || path.starts_with(&format!("{rule}/"))
    }

    fn depth(path: &str) -> usize {
        if path.is_empty() {
            0
        } else {
            path.split('/').count()
        }
    }

    fn closure(&self, subject: u32) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        let mut stack: Vec<u32> = self
            .assignments
            .get(&subject)
            .map(|roles| roles.iter().copied().collect())
            .unwrap_or_default();
        while let Some(role) = stack.pop() {
            if out.insert(role) {
                if let Some(juniors) = self.inherits.get(&role) {
                    stack.extend(juniors.iter().copied());
                }
            }
        }
        out
    }

    /// `roles` is the subject's closure — passed in so the known-bad
    /// below can hand over a stale one.
    fn check(&self, roles: &BTreeSet<u32>, path: &str, needed: Rights) -> Verdict {
        if needed.is_empty() {
            return (true, None);
        }
        let path = Self::normalised(path);
        let mut best: Option<(&RuleRow, usize)> = None;
        for rule in &self.rules {
            let (role, rule_path, rights, allow) = rule;
            if !roles.contains(role) || !Self::covers(rule_path, &path) {
                continue;
            }
            if !rights.intersection(needed).is_empty() || rights.contains(needed) {
                let depth = Self::depth(rule_path);
                let wins = match best {
                    None => true,
                    Some((cur, cur_depth)) => {
                        depth > cur_depth || (depth == cur_depth && !*allow && cur.3)
                    }
                };
                if wins {
                    best = Some((rule, depth));
                }
            }
        }
        match best {
            Some((rule, _)) => (rule.3 && rule.2.contains(needed), Some(rule.clone())),
            None => (false, None),
        }
    }

    fn edit(&mut self, op: &Op) {
        match *op {
            Op::AddRule(role, path, rights, allow) => {
                self.rules
                    .push((role, Self::normalised(PATHS[path]), rights, allow));
            }
            Op::Assign(subject, role) => {
                self.assignments.entry(subject).or_default().insert(role);
            }
            Op::Unassign(subject, role) => {
                if let Some(roles) = self.assignments.get_mut(&subject) {
                    roles.remove(&role);
                }
            }
            Op::Inherit(senior, junior) => {
                self.inherits.entry(senior).or_default().insert(junior);
            }
            Op::Check(..) => {}
        }
    }
}

/// A policy under test: takes the script's edits, answers its checks.
trait Scripted: Default {
    fn edit(&mut self, op: &Op);
    fn check(&self, subject: u32, path: &str, needed: Rights) -> Verdict;
}

impl Scripted for RbacPolicy {
    fn edit(&mut self, op: &Op) {
        match *op {
            Op::AddRule(role, path, rights, allow) => self.add_rule(
                RoleId(role),
                PATHS[path].into(),
                rights,
                if allow { Effect::Allow } else { Effect::Deny },
            ),
            Op::Assign(subject, role) => self.assign(Subject(subject), RoleId(role)),
            Op::Unassign(subject, role) => self.unassign(Subject(subject), RoleId(role)),
            Op::Inherit(senior, junior) => self.add_inheritance(RoleId(senior), RoleId(junior)),
            Op::Check(..) => {}
        }
    }

    fn check(&self, subject: u32, path: &str, needed: Rights) -> Verdict {
        let path = ObjectPath::new(path);
        let decision = RbacPolicy::check(self, Subject(subject), &path, needed);
        assert_eq!(
            self.allows(Subject(subject), &path, needed),
            decision.allowed,
            "allows and check disagree"
        );
        let because = decision.because.map(|rule| {
            let allow = rule.effect == Effect::Allow;
            (rule.role.0, rule.path.to_string(), rule.rights, allow)
        });
        (decision.allowed, because)
    }
}

/// The seeded known-bad: keeps each subject's closure beside the
/// assignments, as the compiled policy does, but does not refresh it
/// on `unassign`.
#[derive(Default)]
struct StaleOnUnassign {
    policy: Reference,
    closures: BTreeMap<u32, BTreeSet<u32>>,
}

impl Scripted for StaleOnUnassign {
    fn edit(&mut self, op: &Op) {
        self.policy.edit(op);
        match *op {
            Op::Assign(subject, _) => {
                self.closures.insert(subject, self.policy.closure(subject));
            }
            Op::Inherit(..) => {
                for (&subject, closure) in &mut self.closures {
                    *closure = self.policy.closure(subject);
                }
            }
            Op::Unassign(..) | Op::AddRule(..) | Op::Check(..) => {}
        }
    }

    fn check(&self, subject: u32, path: &str, needed: Rights) -> Verdict {
        let none = BTreeSet::new();
        let roles = self.closures.get(&subject).unwrap_or(&none);
        self.policy.check(roles, path, needed)
    }
}

/// Runs `script` against a fresh `P` and the oracle side by side; the
/// first check they answer differently is the error, named with the
/// edit that preceded it.
fn agrees_with_reference<P: Scripted>(script: &[Op]) -> Result<(), String> {
    let mut policy = P::default();
    let mut oracle = Reference::default();
    let mut last_edit = None;
    for (step, op) in script.iter().enumerate() {
        let Op::Check(subject, path, needed) = *op else {
            policy.edit(op);
            oracle.edit(op);
            last_edit = Some(op);
            continue;
        };
        let got = policy.check(subject, PATHS[path], needed);
        let want = oracle.check(&oracle.closure(subject), PATHS[path], needed);
        if got != want {
            return Err(format!(
                "step {step}, after {last_edit:?}: {op:?} answered {got:?}, the reference {want:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    /// The compiled policy — closures kept by the mutators, one
    /// `decide` under `check`/`allows` — answers every check of every
    /// script exactly as the reference model does: same verdict, same
    /// deciding rule.
    #[test]
    fn compiled_policy_matches_the_reference_model(
        script in prop::collection::vec(arb_op(), 0..80),
    ) {
        prop_assert_eq!(agrees_with_reference::<RbacPolicy>(&script), Ok(()));
    }

    /// The matrix, its ACL (column) view and its capability (row) view
    /// must always agree on every check.
    #[test]
    fn matrix_acl_capability_equivalence(
        grants in prop::collection::vec((0u32..6, 0u64..6, arb_rights()), 0..40),
        checks in prop::collection::vec((0u32..6, 0u64..6, arb_rights()), 0..20),
    ) {
        let mut m = AccessMatrix::new();
        for (s, o, r) in grants {
            m.grant(Subject(s), Protected(o), r);
        }
        for (s, o, needed) in checks {
            let subject = Subject(s);
            let object = Protected(o);
            let via_matrix = m.check(subject, object, needed);
            let via_caps = m
                .capabilities_of(subject)
                .iter()
                .any(|c| c.authorises(object, needed))
                || needed.is_empty();
            let via_acl = m
                .acl_of(object)
                .iter()
                .any(|&(subj, r)| subj == subject && r.contains(needed))
                || needed.is_empty();
            prop_assert_eq!(via_matrix, via_caps, "matrix vs caps");
            prop_assert_eq!(via_matrix, via_acl, "matrix vs acl");
        }
    }

    /// Rights set algebra: union/intersection/difference behave like
    /// set operations.
    #[test]
    fn rights_set_laws(a in arb_rights(), b in arb_rights(), c in arb_rights()) {
        prop_assert!( (a | b).contains(a) );
        prop_assert!( a.contains(a & b) );
        prop_assert_eq!(a & (b | c), (a & b) | (a & c), "distributivity");
        prop_assert_eq!((a - b) & b, Rights::NONE);
        prop_assert_eq!(a | Rights::NONE, a);
        prop_assert_eq!(a & Rights::ALL, a);
        prop_assert_eq!(!(!a), a, "double complement");
    }

    /// Revoking exactly what was granted returns the matrix to empty.
    #[test]
    fn grant_revoke_round_trip(
        grants in prop::collection::vec((0u32..6, 0u64..6, arb_rights()), 0..40),
    ) {
        let mut m = AccessMatrix::new();
        for &(s, o, r) in &grants {
            m.grant(Subject(s), Protected(o), r);
        }
        for &(s, o, r) in &grants {
            m.revoke(Subject(s), Protected(o), r);
        }
        // Some grants may overlap, so revoking each grant once must have
        // removed at least its own bits: final matrix grants nothing
        // beyond re-granted overlaps — and revoking everything again is
        // idempotent.
        let snapshot: Vec<_> = grants.iter().map(|&(s, o, _)| (s, o)).collect();
        for (s, o) in snapshot {
            m.revoke(Subject(s), Protected(o), Rights::ALL);
        }
        prop_assert!(m.is_empty());
    }

    /// RBAC monotonicity: adding an Allow rule never removes an existing
    /// permission; adding a Deny rule never adds one.
    #[test]
    fn rbac_rule_monotonicity(
        base_rules in prop::collection::vec((0u32..4, 0usize..4, arb_rights()), 1..10),
        check_paths in prop::collection::vec(0usize..4, 1..8),
        extra_allow in (0u32..4, 0usize..4, arb_rights()),
        extra_deny in (0u32..4, 0usize..4, arb_rights()),
    ) {
        let paths = ["docs", "docs/a", "docs/a/b", "other"];
        let mut policy = RbacPolicy::new();
        for &(role, p, rights) in &base_rules {
            policy.add_rule(RoleId(role), ObjectPath::new(paths[p]), rights, Effect::Allow);
        }
        for role in 0..4 {
            policy.assign(Subject(1), RoleId(role));
        }
        let check = |policy: &RbacPolicy| -> Vec<bool> {
            check_paths
                .iter()
                .map(|&p| policy.check(Subject(1), &ObjectPath::new(paths[p]), Rights::READ).allowed)
                .collect()
        };
        let before = check(&policy);
        // An extra *shallow* allow at the root can never remove access.
        let mut with_allow = policy.clone();
        with_allow.add_rule(RoleId(extra_allow.0), ObjectPath::new(""), extra_allow.2 | Rights::READ, Effect::Allow);
        let after_allow = check(&with_allow);
        for (b, a) in before.iter().zip(&after_allow) {
            prop_assert!(!b || *a, "allow rule removed access");
        }
        // An extra deny can never add access.
        let mut with_deny = policy.clone();
        with_deny.add_rule(
            RoleId(extra_deny.0),
            ObjectPath::new(paths[extra_deny.1]),
            extra_deny.2,
            Effect::Deny,
        );
        let after_deny = check(&with_deny);
        for (b, a) in before.iter().zip(&after_deny) {
            prop_assert!(*b || !a, "deny rule added access");
        }
    }

    /// `explain` always terminates with a consistent verdict.
    #[test]
    fn rbac_explain_matches_check(
        rules in prop::collection::vec((0u32..3, 0usize..4, arb_rights(), any::<bool>()), 0..12),
        path_idx in 0usize..4,
    ) {
        let paths = ["p", "p/q", "p/q/r", "x"];
        let mut policy = RbacPolicy::new();
        for &(role, p, rights, allow) in &rules {
            policy.add_rule(
                RoleId(role),
                ObjectPath::new(paths[p]),
                rights,
                if allow { Effect::Allow } else { Effect::Deny },
            );
        }
        policy.assign(Subject(2), RoleId(0));
        let path = ObjectPath::new(paths[path_idx]);
        let decision = policy.check(Subject(2), &path, Rights::WRITE);
        let why = policy.explain(Subject(2), &path, Rights::WRITE);
        if decision.allowed {
            prop_assert!(!why.contains("NOT"), "{why}");
        } else {
            prop_assert!(why.contains("NOT"), "{why}");
        }
    }
}

/// The differential catches its seeded known-bad, and says where: a
/// closure left stale by `unassign` still grants what the dropped role
/// granted.
#[test]
fn a_closure_not_refreshed_on_unassign_is_caught_by_name() {
    let script = [
        Op::AddRule(1, 1, Rights::WRITE, true),
        Op::Assign(0, 1),
        Op::Check(0, 2, Rights::WRITE),
        Op::Unassign(0, 1),
        Op::Check(0, 2, Rights::WRITE),
    ];
    assert_eq!(agrees_with_reference::<RbacPolicy>(&script), Ok(()));
    let caught = agrees_with_reference::<StaleOnUnassign>(&script).expect_err("stale closure");
    assert!(
        caught.starts_with("step 4, after Some(Unassign(0, 1))"),
        "{caught}"
    );
}
