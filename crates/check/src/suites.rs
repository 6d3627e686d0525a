//! The registry of invariant suites: every explorer check the
//! workspace runs, declared once.
//!
//! A [`Suite`] pairs a scenario factory `sim(seed, armed)` with the
//! invariants that must hold on it and the fingerprint of the state
//! they read, erased over the scenario's message type so the
//! `odp-check` CLI, the known-bad tests and CI all iterate one list.
//! `armed = false` builds the suite's seeded known-bad variant, and
//! [`Suite::known_bad`] names what the invariants must then say.
//! A new suite is one entry in [`all`].

use odp_groupcomm::multicast::Ordering;
use odp_sim::sim::Sim;
use odp_sim::time::SimTime;

use crate::explore::{Budget, Counterexample, Explorer, Invariant, ReplayError, Report};
use crate::invariants::{
    awareness, federation, groupcomm, locks, placement, replication, tcp_driver, telemetry, trader,
    transport,
};

/// Which of the three stock budgets a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// `Budget::smoke`.
    Smoke,
    /// [`Budget::default`].
    Default,
    /// [`Budget::deep`].
    Deep,
}

impl BudgetKind {
    /// The name the statistics artifact records.
    pub fn label(self) -> &'static str {
        match self {
            BudgetKind::Smoke => "smoke",
            BudgetKind::Default => "default",
            BudgetKind::Deep => "deep",
        }
    }
}

/// Which variant of a suite's scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The protocol as shipped: the invariants must hold.
    Armed,
    /// The seeded known-bad variant: the invariants must object.
    Disarmed,
}

/// What a suite's disarmed arm must trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownBad {
    /// [`Invariant::name`] of the invariant that must fail.
    pub invariant: &'static str,
    /// A fragment its message must contain.
    pub needle: &'static str,
}

type Invariants<M> = Vec<Box<dyn Invariant<M>>>;
type Replayed = Result<Option<Counterexample>, ReplayError>;
type ReplayFn = dyn Fn(bool, Explorer, &[usize]) -> Replayed;

/// One named invariant suite.
pub struct Suite {
    /// The name `odp-check explore <CHECK>` takes.
    pub name: String,
    /// One line on what is held to what.
    pub about: String,
    /// What the disarmed arm must trip; `None` when the scenario has
    /// no known-bad variant.
    pub known_bad: Option<KnownBad>,
    horizon: Option<SimTime>,
    explore: Box<dyn Fn(bool, Explorer) -> Report>,
    replay: Box<ReplayFn>,
}

impl Suite {
    /// A suite over `sim(seed, armed)`, which must ignore `armed`
    /// unless [`Suite::known_bad`] is declared.
    fn new<M: 'static>(
        name: &str,
        about: &str,
        sim: impl Fn(u64, bool) -> Sim<M> + Copy + 'static,
        invariants: impl Fn() -> Invariants<M> + Copy + 'static,
        fingerprint: impl Fn(&Sim<M>) -> u64 + 'static,
    ) -> Suite {
        Suite {
            name: name.to_owned(),
            about: about.to_owned(),
            known_bad: None,
            horizon: None,
            explore: Box::new(move |armed, explorer| {
                explorer.explore_hashed(|seed| sim(seed, armed), invariants, &fingerprint)
            }),
            replay: Box::new(move |armed, explorer, choices| {
                explorer.replay(|seed| sim(seed, armed), invariants, choices)
            }),
        }
    }

    /// The scenario re-arms tick timers, so a run counts as quiescent
    /// once nothing is in flight and the next timer lies past 2 s.
    fn ticking(mut self) -> Suite {
        self.horizon = Some(SimTime::from_secs(2));
        self
    }

    fn disarmed_trips(mut self, invariant: &'static str, needle: &'static str) -> Suite {
        self.known_bad = Some(KnownBad { invariant, needle });
        self
    }

    fn explorer(&self, kind: BudgetKind, seed: u64) -> Explorer {
        let mut budget = match kind {
            BudgetKind::Smoke => Budget::smoke(),
            BudgetKind::Default => Budget::default(),
            BudgetKind::Deep => Budget::deep(),
        };
        budget.horizon = self.horizon;
        Explorer::new(seed, budget)
    }

    /// Explores the bounded schedule space of one arm with DPOR and
    /// state hashing.
    pub fn explore(&self, arm: Arm, kind: BudgetKind, seed: u64) -> Report {
        (self.explore)(arm == Arm::Armed, self.explorer(kind, seed))
    }

    /// Replays one schedule of one arm. `kind` must be the budget the
    /// trace was recorded under: it bounds how deep and how wide the
    /// choices are read.
    pub fn replay(&self, arm: Arm, kind: BudgetKind, seed: u64, choices: &[usize]) -> Replayed {
        (self.replay)(arm == Arm::Armed, self.explorer(kind, seed), choices)
    }
}

/// The strict-2PL ring of `n` transactions. [`all`] registers two and
/// three; the test suite also drives four.
pub fn locks_cycle(n: usize) -> Suite {
    Suite::new(
        &format!("locks-cycle-{n}"),
        &format!("strict 2PL: {n}-txn lock cycle resolves, victim is youngest"),
        move |seed, _| locks::cycle_sim(seed, n),
        move || {
            vec![
                Box::new(locks::LockTableConsistent),
                Box::new(locks::DeadlockResolved::new(n)),
            ]
        },
        locks::fingerprint,
    )
}

/// Every registered suite, in the order `odp-check list` prints them.
pub fn all() -> Vec<Suite> {
    let group = |seed, ordering| groupcomm::group_sim(seed, ordering, 2);
    let vclock = || -> Box<dyn Invariant<_>> {
        Box::new(groupcomm::VClockMonotone::new(groupcomm::group_members()))
    };
    let two_sites = || replication::dopt_sites(2);
    vec![
        locks_cycle(2),
        locks_cycle(3),
        Suite::new(
            "group-fifo",
            "multicast: vclock monotone + per-origin FIFO delivery",
            move |seed, _| group(seed, Ordering::Fifo),
            move || {
                let fifo = groupcomm::FifoDelivery::new(groupcomm::group_members(), 2);
                vec![vclock(), Box::new(fifo)]
            },
            groupcomm::fingerprint,
        )
        .ticking(),
        // Disarmed: the same three members on FIFO. They multicast 1 ms
        // apart, inside the 10 ms reordering window, so some schedule
        // delivers two origins in different orders at two members.
        Suite::new(
            "group-total",
            "multicast: vclock monotone + total-order delivery agreement",
            move |seed, armed| match armed {
                true => group(seed, Ordering::Total),
                false => group(seed, Ordering::Fifo),
            },
            move || {
                let agreement = groupcomm::DeliveryAgreement::new(groupcomm::group_members());
                vec![vclock(), Box::new(agreement)]
            },
            groupcomm::fingerprint,
        )
        .ticking()
        .disarmed_trips(
            "delivery-order-agreement",
            "disagree on the delivery prefix",
        ),
        Suite::new(
            "dopt-pair",
            "dOPT: two concurrent replicas converge at quiescence",
            |seed, _| replication::dopt_sim(seed, 2),
            move || vec![Box::new(replication::Converged::new(two_sites()))],
            replication::fingerprint_for(two_sites()),
        ),
        Suite::new(
            "dopt",
            "dOPT: six concurrent edits across two replicas converge (deep DPOR space)",
            |seed, _| replication::dopt_deep_sim(seed),
            move || vec![Box::new(replication::Converged::new(two_sites()))],
            replication::fingerprint_for(two_sites()),
        ),
        Suite::new(
            "trader-rebalance",
            "trader: importer caches stay coherent across a ring change",
            trader::rebalance_sim,
            || vec![Box::new(trader::CacheCoherent::for_rebalance_sim())],
            trader::fingerprint,
        )
        .ticking()
        .disarmed_trips("trader-cache-coherent", "is stale"),
        Suite::new(
            "trader-federation",
            "trader: federated imports are scope-sound and penalty-accounted",
            federation::federation_sim,
            || vec![Box::new(federation::FederationSound)],
            federation::fingerprint,
        )
        .disarmed_trips("trader-federation-sound", "penalty accounting broken"),
        Suite::new(
            "telemetry-spans",
            "telemetry: every span closes, parents precede children, DAGs acyclic",
            telemetry::telemetry_sim,
            || vec![Box::new(telemetry::TelemetrySpans)],
            telemetry::fingerprint,
        )
        .ticking()
        .disarmed_trips("telemetry-spans", "never closed"),
        Suite::new(
            "awareness-gating",
            "awareness: no event reaches an observer without rights on its artefact",
            awareness::gating_sim,
            || vec![Box::new(awareness::RightsGated::for_gating_sim())],
            awareness::fingerprint,
        )
        .ticking()
        .disarmed_trips("awareness-gating", "no read rights"),
        Suite::new(
            "awareness-deep",
            "awareness: four racing publications stay rights-gated (deep DPOR space)",
            awareness::gating_deep_sim,
            || vec![Box::new(awareness::RightsGated::for_gating_sim())],
            awareness::fingerprint,
        )
        .ticking()
        .disarmed_trips("awareness-gating", "no read rights"),
        Suite::new(
            "transport-fidelity",
            "net: no seq gaps after reconnect, forwarded broadcasts exactly-once",
            transport::transport_sim,
            || vec![Box::new(transport::TransportFidelity::for_transport_sim())],
            transport::fingerprint,
        )
        .ticking()
        .disarmed_trips("transport-fidelity", "duplicates or omissions"),
        Suite::new(
            "tcp-driver",
            "net: a connection's end drops only its own link; hello first, frames in order, stop flushes",
            tcp_driver::churn_sim,
            || vec![Box::new(tcp_driver::TcpDriverSound)],
            transport::fingerprint,
        )
        .disarmed_trips("tcp-driver", "another connection's end took its link"),
        Suite::new(
            "placement-soundness",
            "place: migration decisions replay from recorded inputs, transfers exactly-once",
            placement::placement_sim,
            || vec![Box::new(placement::PlacementSound::for_placement_sim())],
            placement::fingerprint,
        )
        .ticking()
        .disarmed_trips("placement-soundness", "freeze window"),
    ]
}

/// The registered suite called `name`.
pub fn find(name: &str) -> Option<Suite> {
    all().into_iter().find(|suite| suite.name == name)
}
