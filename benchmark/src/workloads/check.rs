//! `check_explore` — the schedule explorer on its deepest shipped
//! scenario.
//!
//! `Explorer::explore_hashed` over
//! `invariants::awareness::gating_deep_sim` — four publications racing
//! over causal multicast to three replicas — with `Budget::deep()`, the
//! 2 s quiescence horizon the `odp-check` binary uses, and `max_runs`
//! sized to the round. Each schedule is a tiny sim built by the factory
//! and advanced with `step_nth` / `pending_events`: the only workload
//! that exercises the calendar queue's ordered side index, so a queue
//! change that speeds `campus_rush` at this path's expense shows here.
//!
//! Set-up is the pre-flight the explorer's contract calls for: the
//! factory must build the same sim for the same seed every call, so the
//! round first builds it repeatedly, runs each copy to the horizon on
//! the default schedule and compares fingerprints.
//!
//! Seeded fault (`Spec::fault`): every replica's rights gate is
//! disarmed, so the invariant must report a violation.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use odp_awareness::dist::{BusActor, BusWire};
use odp_check::explore::{Budget, Explorer, Invariant};
use odp_check::invariants::awareness::{bus_members, fingerprint, gating_deep_sim, RightsGated};
use odp_groupcomm::multicast::GcMsg;
use odp_net::wire::WireCodec;
use odp_sim::prelude::{ActorHandle, Sim, Until};
use odp_sim::time::SimTime;

use super::{Round, Size, Spec, Stopwatch};
use crate::probe::{span, Mode, Span};

/// Schedules per round at the measured size.
pub const RUNS_FULL: usize = 6_000;
const RUNS_QUICK: usize = 400;
/// Factory builds compared by the pre-flight.
const PREFLIGHT_BUILDS: usize = 64;

type Msg = GcMsg<BusWire>;

/// The budget of one round.
pub fn budget(max_runs: usize) -> Budget {
    Budget {
        max_runs,
        ..Budget::deep().with_horizon(SimTime::from_secs(2))
    }
}

/// What the audited schedules surfaced, summed over the exploration.
#[derive(Default)]
struct Surfaced {
    deliveries: Cell<u64>,
    bytes: Cell<u64>,
    suppressed: Cell<u64>,
}

/// The rights invariant, with every delivery it audits counted.
struct Counted<Md> {
    inner: RightsGated,
    surfaced: Rc<Surfaced>,
    mode: std::marker::PhantomData<Md>,
}

impl<Md: Mode> Invariant<Msg> for Counted<Md> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn check_quiescent(&mut self, sim: &Sim<Msg>) -> Result<(), String> {
        span::<Md, _>(Span::CheckInvariant, || {
            let mut scratch = Vec::new();
            for member in bus_members() {
                if let Some(actor) = sim.get::<BusActor>(ActorHandle::of(member)) {
                    self.surfaced
                        .suppressed
                        .set(self.surfaced.suppressed.get() + actor.bus().suppressed_by_rights());
                    for d in actor.delivered() {
                        scratch.clear();
                        d.event.encode(&mut scratch);
                        self.surfaced
                            .deliveries
                            .set(self.surfaced.deliveries.get() + 1);
                        self.surfaced
                            .bytes
                            .set(self.surfaced.bytes.get() + scratch.len() as u64);
                    }
                }
            }
            self.inner.check_quiescent(sim)
        })
    }
}

/// Builds the scenario repeatedly and checks the copies agree.
fn preflight(seed: u64, gated: bool) -> Result<(), String> {
    let mut first = None;
    for _ in 0..PREFLIGHT_BUILDS {
        let mut sim = gating_deep_sim(seed, gated);
        sim.run(Until::At(SimTime::from_secs(2)));
        let print = (fingerprint(&sim), sim.events_processed());
        match first {
            None => first = Some(print),
            Some(f) if f != print => {
                return Err("the factory built two different sims for one seed".to_owned())
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// One round: pre-flight, explore, audit.
pub fn round<M: Mode>(spec: &Spec) -> Round {
    let max_runs = match spec.size {
        Size::Full => RUNS_FULL,
        Size::Quick => RUNS_QUICK,
    };
    let gated = !spec.fault;
    let mut out = Round::default();

    let t0 = Instant::now();
    if let Err(why) = preflight(spec.seed, gated) {
        out.fail(1, why);
    }
    let explorer = Explorer::new(spec.seed, budget(max_runs));
    let surfaced = Rc::new(Surfaced::default());
    out.setup_ns = t0.elapsed().as_nanos() as u64;
    out.actors = (bus_members().len() * PREFLIGHT_BUILDS) as u64;

    let watch = Stopwatch::start();
    let report = span::<M, _>(Span::Round, || {
        span::<M, _>(Span::Explore, || {
            explorer.explore_hashed(
                |s| span::<M, _>(Span::CheckFactory, || gating_deep_sim(s, gated)),
                || {
                    vec![Box::new(Counted::<M> {
                        inner: RightsGated::for_gating_sim(),
                        surfaced: Rc::clone(&surfaced),
                        mode: std::marker::PhantomData,
                    }) as Box<dyn Invariant<Msg>>]
                },
                |sim: &Sim<Msg>| span::<M, _>(Span::CheckFingerprint, || fingerprint(sim)),
            )
        })
    });
    watch.stop(&mut out);

    if let Some(cx) = &report.violation {
        out.fail(
            1,
            format!(
                "invariant {} violated: {} ({})",
                cx.invariant,
                cx.violation,
                cx.trace()
            ),
        );
    }
    if report.runs == 0 || report.events == 0 {
        out.fail(1, "the explorer ran nothing".to_owned());
    }
    if surfaced.deliveries.get() == 0 {
        out.fail(
            1,
            "no schedule reached quiescence with deliveries".to_owned(),
        );
    }

    out.events = report.events;
    out.deliveries = surfaced.deliveries.get();
    out.payload_bytes = surfaced.bytes.get();
    out.attempted = report.runs as u64;
    out.exact = vec![
        ("check.runs", report.runs as f64),
        ("check.events", report.events as f64),
        ("check.sleep_pruned", report.stats.sleep_pruned as f64),
        ("check.hash_pruned", report.stats.hash_pruned as f64),
        ("check.racing_pairs", report.stats.racing_pairs as f64),
        ("check.reduction_factor", report.stats.reduction_factor),
        (
            "awareness.suppressed_by_rights",
            surfaced.suppressed.get() as f64,
        ),
    ];
    out
}
