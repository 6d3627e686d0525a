//! Experiment E5: static access-matrix mechanisms versus Shen–Dewan
//! role-based dynamic fine-grained control.
//!
//! Two measures: (a) the *administration cost* of a dynamic role change
//! mid-collaboration — the paper's core complaint about static schemes —
//! and (b) the negotiation protocol's cost in round trips.

use odp_access::matrix::{AccessMatrix, Protected, Subject};
use odp_access::negotiation::Negotiator;
use odp_access::rbac::{Effect, ObjectPath, RbacPolicy, RoleId};
use odp_access::rights::Rights;
use odp_sim::time::SimTime;

use super::{Shape, Table};

/// **E5 — access control.** A collaboration over `n_objects` shared
/// artefacts; mid-way, a participant's role changes from reviewer to
/// author. Static mechanisms must touch one matrix cell per object;
/// the role-based policy changes one assignment.
pub(crate) fn e5_access_control(seed: u64) -> Vec<Table> {
    let _ = seed; // fully deterministic
    let mut table = Table::new(
        "E5",
        "Dynamic role change: administration operations and check results",
        [
            "mechanism",
            "objects",
            "admin_ops_for_role_change",
            "checks_correct_after_change",
        ],
    );
    for &n_objects in &[10usize, 100, 1000] {
        // --- Static matrix ------------------------------------------------
        let mut matrix = AccessMatrix::new();
        let user = Subject(5);
        for o in 0..n_objects {
            matrix.grant(user, Protected(o as u64), Rights::READ | Rights::ANNOTATE);
        }
        // Role change: reviewer -> author. Every object's cell must be
        // re-administered.
        let mut matrix_admin_ops = 0u64;
        for o in 0..n_objects {
            matrix.grant(user, Protected(o as u64), Rights::WRITE);
            matrix_admin_ops += 1;
        }
        let matrix_ok =
            (0..n_objects).all(|o| matrix.check(user, Protected(o as u64), Rights::WRITE));
        table.push_row([
            format!("access-matrix(n={n_objects})"),
            n_objects.to_string(),
            matrix_admin_ops.to_string(),
            matrix_ok.to_string(),
        ]);

        // --- Role-based ----------------------------------------------------
        let mut policy = RbacPolicy::new();
        let reviewer = RoleId(1);
        let author = RoleId(2);
        policy.add_rule(
            reviewer,
            "project".into(),
            Rights::READ | Rights::ANNOTATE,
            Effect::Allow,
        );
        policy.add_rule(
            author,
            "project".into(),
            Rights::READ | Rights::WRITE,
            Effect::Allow,
        );
        policy.assign(user, reviewer);
        // Role change: one unassign + one assign, regardless of n.
        policy.unassign(user, reviewer);
        policy.assign(user, author);
        let rbac_admin_ops = 2u64;
        let rbac_ok = (0..n_objects).all(|o| {
            policy
                .check(
                    user,
                    &ObjectPath::new(format!("project/doc{o}")),
                    Rights::WRITE,
                )
                .allowed
        });
        table.push_row([
            format!("role-based(n={n_objects})"),
            n_objects.to_string(),
            rbac_admin_ops.to_string(),
            rbac_ok.to_string(),
        ]);
    }

    // Negotiation cost table.
    let mut nego = Table::new(
        "E5b",
        "Rights negotiation: round trips to agreement",
        ["path", "requested", "agreed", "round_trips"],
    );
    let mut negotiator = Negotiator::new();
    // Direct grant.
    let id = negotiator.request(
        Subject(1),
        Subject(0),
        "project/sec2".into(),
        Rights::WRITE,
        SimTime::ZERO,
    );
    let direct = negotiator
        .accept(Subject(0), id, SimTime::ZERO)
        .expect("owner accepts");
    nego.push_row([
        "direct".to_owned(),
        Rights::WRITE.to_string(),
        direct.rights.to_string(),
        direct.round_trips.to_string(),
    ]);
    // Countered: ask for write+delete, get write only.
    let id2 = negotiator.request(
        Subject(1),
        Subject(0),
        "project/sec3".into(),
        Rights::WRITE | Rights::DELETE,
        SimTime::ZERO,
    );
    negotiator
        .counter(Subject(0), id2, Rights::WRITE)
        .expect("narrowing counter");
    let countered = negotiator
        .accept(Subject(1), id2, SimTime::ZERO)
        .expect("requester accepts the counter");
    nego.push_row([
        "countered".to_owned(),
        (Rights::WRITE | Rights::DELETE).to_string(),
        countered.rights.to_string(),
        countered.round_trips.to_string(),
    ]);

    vec![table, nego]
}

/// The shapes the E5 verdict states, one per table.
pub(crate) const SHAPES: &[Shape] = &[
    Shape {
        table: "E5",
        claim: "a role change costs the matrix one operation per object (10, 1000) and the role policy 2 at any scale; both check correctly",
        holds: |t| {
            let admin = |r: &str| t.cell_f64(r, "admin_ops_for_role_change");
            let correct = |r: &str| t.cell(r, "checks_correct_after_change") == Some("true");
            Some(
                admin("access-matrix(n=10)")? == 10.0
                    && admin("access-matrix(n=1000)")? == 1000.0
                    && admin("role-based(n=10)")? == 2.0
                    && admin("role-based(n=1000)")? == 2.0
                    && correct("access-matrix(n=100)")
                    && correct("role-based(n=100)"),
            )
        },
    },
    Shape {
        table: "E5b",
        claim: "a counter costs an extra round trip and settles on write",
        holds: |t| {
            Some(
                t.cell_f64("countered", "round_trips")? > t.cell_f64("direct", "round_trips")?
                    && t.cell("countered", "agreed")? == "write",
            )
        },
    },
];

#[cfg(test)]
mod tests {
    use super::super::assert_detects;

    #[test]
    fn e5_fails_when_a_role_change_costs_the_policy_one_operation_per_object() {
        assert_detects(
            "E5",
            "role-based(n=1000)",
            "admin_ops_for_role_change",
            "1000",
        );
    }

    #[test]
    fn e5b_fails_when_a_counter_costs_no_extra_round_trip() {
        assert_detects("E5b", "countered", "round_trips", "2");
    }
}
