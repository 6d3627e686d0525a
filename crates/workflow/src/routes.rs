//! Routed office procedures: the Domino model with conditional routing.
//!
//! Domino (Kreifelts et al., cited in §3.2.1) modelled office procedures
//! as *routes*: each step is performed by a role and its **outcome**
//! selects the next step — including backward routes ("rejected → back to
//! drafting"), the rework loops real procedures are full of. This module
//! extends [`crate::models::ProcedureModel`]'s straight-line procedure
//! with that routing.

use std::collections::BTreeMap;
use std::fmt;

use crate::speechact::Party;

/// Names a step in a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StepId(pub u32);

impl fmt::Display for StepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step{}", self.0)
    }
}

/// Where an outcome routes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Continue at this step.
    Step(StepId),
    /// The procedure is complete.
    Done,
}

/// One routed step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteStep {
    /// Its id.
    pub id: StepId,
    /// The role that must perform it.
    pub role: Party,
    /// Human-readable purpose.
    pub description: String,
    /// Outcome label → next step.
    pub routes: BTreeMap<String, Next>,
}

/// One entry in the audit trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrailEntry {
    /// The step performed.
    pub step: StepId,
    /// Who performed it.
    pub by: Party,
    /// The outcome chosen.
    pub outcome: String,
}

/// Errors from routed procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The procedure has already finished.
    AlreadyDone,
    /// The actor is not the current step's role.
    WrongRole {
        /// Who tried.
        who: Party,
        /// Who is prescribed.
        required: Party,
    },
    /// The outcome is not on the step's route map.
    UnknownOutcome {
        /// The step.
        step: StepId,
        /// The offending outcome.
        outcome: String,
    },
    /// A route references a step that does not exist (definition error).
    DanglingRoute(StepId),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::AlreadyDone => write!(f, "procedure already complete"),
            RouteError::WrongRole { who, required } => {
                write!(f, "{who} may not perform this step (requires {required})")
            }
            RouteError::UnknownOutcome { step, outcome } => {
                write!(f, "outcome {outcome:?} is not routed from {step}")
            }
            RouteError::DanglingRoute(s) => write!(f, "route references missing {s}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// A running routed procedure.
///
/// # Examples
///
/// ```
/// use odp_workflow::routes::{Next, RouteStep, RoutedProcedure, StepId};
/// use odp_workflow::speechact::Party;
/// use std::collections::BTreeMap;
///
/// let draft = RouteStep {
///     id: StepId(0),
///     role: Party(1),
///     description: "draft the memo".into(),
///     routes: BTreeMap::from([("done".to_owned(), Next::Step(StepId(1)))]),
/// };
/// let approve = RouteStep {
///     id: StepId(1),
///     role: Party(2),
///     description: "approve".into(),
///     routes: BTreeMap::from([
///         ("approved".to_owned(), Next::Done),
///         ("rejected".to_owned(), Next::Step(StepId(0))),
///     ]),
/// };
/// let mut proc = RoutedProcedure::new(vec![draft, approve], StepId(0))?;
/// proc.perform(Party(1), "done")?;
/// proc.perform(Party(2), "rejected")?; // rework loop
/// proc.perform(Party(1), "done")?;
/// proc.perform(Party(2), "approved")?;
/// assert!(proc.is_done());
/// assert_eq!(proc.trail().len(), 4);
/// # Ok::<(), odp_workflow::routes::RouteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RoutedProcedure {
    steps: BTreeMap<StepId, RouteStep>,
    current: Option<StepId>,
    trail: Vec<TrailEntry>,
    rejections: u64,
}

impl RoutedProcedure {
    /// Builds a procedure, validating that every route points at a real
    /// step.
    ///
    /// # Errors
    ///
    /// [`RouteError::DanglingRoute`] on a broken definition.
    pub fn new(steps: Vec<RouteStep>, start: StepId) -> Result<Self, RouteError> {
        let map: BTreeMap<StepId, RouteStep> = steps.into_iter().map(|s| (s.id, s)).collect();
        for step in map.values() {
            for next in step.routes.values() {
                if let Next::Step(target) = next {
                    if !map.contains_key(target) {
                        return Err(RouteError::DanglingRoute(*target));
                    }
                }
            }
        }
        if !map.contains_key(&start) {
            return Err(RouteError::DanglingRoute(start));
        }
        Ok(RoutedProcedure {
            steps: map,
            current: Some(start),
            trail: Vec::new(),
            rejections: 0,
        })
    }

    /// The step currently awaiting performance (`None` when done).
    pub fn current(&self) -> Option<&RouteStep> {
        self.current.and_then(|id| self.steps.get(&id))
    }

    /// True once a route reached [`Next::Done`].
    pub fn is_done(&self) -> bool {
        self.current.is_none()
    }

    /// The audit trail, in performance order.
    pub fn trail(&self) -> &[TrailEntry] {
        &self.trail
    }

    /// Out-of-protocol attempts rejected so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Performs the current step with an outcome, advancing the route.
    ///
    /// # Errors
    ///
    /// See [`RouteError`]; rejected attempts are counted.
    pub fn perform(&mut self, who: Party, outcome: &str) -> Result<Next, RouteError> {
        let Some(current_id) = self.current else {
            self.rejections += 1;
            return Err(RouteError::AlreadyDone);
        };
        // Build-time validation guarantees every reachable id has a step.
        // odp-check: allow(unwrap)
        let step = self.steps.get(&current_id).expect("validated at build");
        if who != step.role {
            self.rejections += 1;
            return Err(RouteError::WrongRole {
                who,
                required: step.role,
            });
        }
        let Some(&next) = step.routes.get(outcome) else {
            self.rejections += 1;
            return Err(RouteError::UnknownOutcome {
                step: current_id,
                outcome: outcome.to_owned(),
            });
        };
        self.trail.push(TrailEntry {
            step: current_id,
            by: who,
            outcome: outcome.to_owned(),
        });
        self.current = match next {
            Next::Step(s) => Some(s),
            Next::Done => None,
        };
        Ok(next)
    }

    /// How many times a given step was performed (rework counting).
    pub fn times_performed(&self, step: StepId) -> usize {
        self.trail.iter().filter(|t| t.step == step).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(id: u32, role: u32, routes: &[(&str, Next)]) -> RouteStep {
        RouteStep {
            id: StepId(id),
            role: Party(role),
            description: format!("step {id}"),
            routes: routes.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    /// draft(1) -> review(2) -> {approved: file(3), rejected: draft}.
    fn expense_claim() -> RoutedProcedure {
        RoutedProcedure::new(
            vec![
                step(0, 1, &[("done", Next::Step(StepId(1)))]),
                step(
                    1,
                    2,
                    &[
                        ("approved", Next::Step(StepId(2))),
                        ("rejected", Next::Step(StepId(0))),
                    ],
                ),
                step(2, 3, &[("filed", Next::Done)]),
            ],
            StepId(0),
        )
        .expect("valid definition")
    }

    #[test]
    fn straight_through_route() {
        let mut p = expense_claim();
        p.perform(Party(1), "done").unwrap();
        p.perform(Party(2), "approved").unwrap();
        assert_eq!(p.perform(Party(3), "filed").unwrap(), Next::Done);
        assert!(p.is_done());
        assert_eq!(p.trail().len(), 3);
    }

    #[test]
    fn rework_loop_routes_backwards() {
        let mut p = expense_claim();
        p.perform(Party(1), "done").unwrap();
        p.perform(Party(2), "rejected").unwrap();
        assert_eq!(p.current().unwrap().id, StepId(0), "back to drafting");
        p.perform(Party(1), "done").unwrap();
        p.perform(Party(2), "approved").unwrap();
        p.perform(Party(3), "filed").unwrap();
        assert!(p.is_done());
        assert_eq!(p.times_performed(StepId(0)), 2, "drafted twice");
    }

    #[test]
    fn wrong_role_and_unknown_outcome_are_rejected() {
        let mut p = expense_claim();
        assert!(matches!(
            p.perform(Party(9), "done"),
            Err(RouteError::WrongRole { .. })
        ));
        assert!(matches!(
            p.perform(Party(1), "nope"),
            Err(RouteError::UnknownOutcome { .. })
        ));
        assert_eq!(p.rejections(), 2);
        assert!(p.trail().is_empty(), "rejected attempts leave no trail");
    }

    #[test]
    fn finished_procedures_accept_nothing() {
        let mut p = expense_claim();
        p.perform(Party(1), "done").unwrap();
        p.perform(Party(2), "approved").unwrap();
        p.perform(Party(3), "filed").unwrap();
        assert_eq!(
            p.perform(Party(1), "done").unwrap_err(),
            RouteError::AlreadyDone
        );
    }

    #[test]
    fn dangling_routes_are_definition_errors() {
        let bad = RoutedProcedure::new(
            vec![step(0, 1, &[("done", Next::Step(StepId(9)))])],
            StepId(0),
        );
        assert_eq!(bad.unwrap_err(), RouteError::DanglingRoute(StepId(9)));
        let bad_start = RoutedProcedure::new(vec![step(0, 1, &[])], StepId(5));
        assert_eq!(bad_start.unwrap_err(), RouteError::DanglingRoute(StepId(5)));
    }
}
