//! The placement controller: closes the telemetry → policy → migration
//! loop.
//!
//! [`PlacementActor`] is an ordinary [`Actor`] so the control loop
//! itself runs under the simulator or over TCP unchanged. It:
//!
//! 1. **ingests** [`PlaceWire::Stats`] reports into its own
//!    [`Collector`], folding every completed `tile.access` trace once:
//!    the root span's round trip becomes a *latency-weighted* usage
//!    sample (`MigrationManager::record_access` with observed
//!    microseconds, not a raw count) and the serve child yields two
//!    one-way [`LatencyMap`] samples;
//! 2. **plans** with [`MigrationManager::plan`] against the observed
//!    latency estimator, recording every decision's exact inputs in a
//!    [`DecisionRecord`] so the `placement-soundness` check can replay
//!    the scoring independently;
//! 3. **executes** the freeze → chunk → install → release protocol,
//!    one migration in flight at a time, with a per-epoch timeout. Any
//!    failure (transfer, install, timeout, peer death) aborts the epoch
//!    and the cluster stays at its old home;
//! 4. on commit, **re-registers** the cluster's service offer at the
//!    new node ([`OfferStore::rehome`]), publishes a
//!    [`CoopKind::ClusterMigrated`] notice through its awareness bus,
//!    and broadcasts the authoritative [`PlaceWire::HomeUpdate`].
//!
//! Session churn arrives as [`PlaceWire::ViewChange`]; usage recorded
//! from departed members is forgotten so a closed laptop stops
//! anchoring placement.

use std::collections::{BTreeMap, BTreeSet};

use odp_awareness::bus::{CoopEvent, CoopKind, EventBus};
use odp_mgmt::migration::{MigrationManager, MigrationPlan};
use odp_mgmt::model::{CapsuleId, ClusterId, EngRegistry, ManagedObjectId};
use odp_mgmt::placement::PlacementPolicy;
use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};
use odp_streams::qos::QosSpec;
use odp_telemetry::collector::Collector;
use odp_trader::offer::{OfferId, ServiceOffer, ServiceType, SessionKind};
use odp_trader::store::OfferStore;

use crate::latency::LatencyMap;
use crate::wire::PlaceWire;

const TAG_EVAL: u64 = 1 << 56;
const TAG_EPOCH: u64 = 2 << 56;
const TAG_MASK: u64 = 0xff << 56;

/// Root spans the controller folds (suffix is the cluster id).
pub const ACCESS_KIND_PREFIX: &str = "tile.access.c";

/// Tuning for the control loop.
#[derive(Debug, Clone)]
pub struct PlaceConfig {
    /// Placement scoring policy.
    pub policy: PlacementPolicy,
    /// Required relative improvement before migrating (e.g. `0.2`).
    pub hysteresis: f64,
    /// Modelled transfer bandwidth for `MigrationManager`'s cost model.
    pub bytes_per_sec: u64,
    /// Re-evaluation cadence.
    pub eval_every: SimDuration,
    /// Number of evaluation rounds to run (bounds the loop so a
    /// simulation quiesces; `0` disarms the timer entirely).
    pub eval_rounds: u32,
    /// Minimum folded accesses since the last evaluation before a
    /// cluster is even considered (hotness shortlist).
    pub min_accesses: u64,
    /// Pessimistic prior for unobserved links, in microseconds.
    pub default_latency_us: u64,
    /// Abort an epoch that has not committed within this window.
    pub epoch_timeout: SimDuration,
    /// When `false` the controller ingests and plans nothing — the
    /// "controller off" baseline arm still pays for
    /// telemetry but never migrates.
    pub active: bool,
}

impl Default for PlaceConfig {
    fn default() -> Self {
        PlaceConfig {
            policy: PlacementPolicy::GroupMean,
            hysteresis: 0.2,
            bytes_per_sec: 12_500_000,
            eval_every: SimDuration::from_millis(200),
            eval_rounds: 25,
            min_accesses: 4,
            default_latency_us: 30_000,
            epoch_timeout: SimDuration::from_secs(10),
            active: true,
        }
    }
}

/// The exact inputs and output of one migration decision, recorded so
/// an independent checker can replay `odp_mgmt::placement::place` and
/// reproduce the verdict bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// When the decision was taken.
    pub at: SimTime,
    /// The cluster moved.
    pub cluster: ClusterId,
    /// The epoch the decision started.
    pub epoch: u64,
    /// Source node.
    pub from: NodeId,
    /// Chosen destination.
    pub to: NodeId,
    /// Policy in force.
    pub policy: PlacementPolicy,
    /// Hysteresis in force.
    pub hysteresis: f64,
    /// The cluster's declared home at decision time.
    pub home: NodeId,
    /// Candidate nodes, ascending (the registry's capsule-bearing nodes).
    pub candidates: Vec<NodeId>,
    /// The usage pattern scored: `(site, weight)` ascending by site.
    pub weights: Vec<(NodeId, u64)>,
    /// Latency estimates consulted: `((from, to), micros)` for every
    /// observed-site × candidate pair.
    pub latency_us: Vec<((NodeId, NodeId), u64)>,
    /// Prior for pairs absent from `latency_us`.
    pub default_us: u64,
    /// Scored cost of staying put, microseconds.
    pub cost_before_us: f64,
    /// Scored cost at `to`, microseconds.
    pub cost_after_us: f64,
}

/// How an epoch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochOutcome {
    /// State installed at the destination, source released.
    Committed,
    /// Transfer or install failed (or timed out); source kept the state.
    Aborted,
}

/// One migration epoch's lifecycle, for the soundness invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// The migrating cluster.
    pub cluster: ClusterId,
    /// The epoch number (unique, increasing).
    pub epoch: u64,
    /// Source host.
    pub from: NodeId,
    /// Destination host.
    pub to: NodeId,
    /// When the freeze was issued.
    pub started: SimTime,
    /// When and how it ended (`None` while in flight).
    pub ended: Option<(SimTime, EpochOutcome)>,
}

#[derive(Debug)]
enum FlightState {
    Streaming,
    Committing,
}

#[derive(Debug)]
struct InFlight {
    plan: MigrationPlan,
    epoch: u64,
    state: FlightState,
    timer: TimerId,
}

/// The closed-loop placement controller.
#[derive(Debug)]
pub struct PlacementActor {
    me: NodeId,
    config: PlaceConfig,
    registry: EngRegistry,
    capsules: BTreeMap<NodeId, CapsuleId>,
    mgr: MigrationManager,
    latency: LatencyMap,
    collector: Collector,
    consumed: BTreeSet<u64>,
    hot: BTreeMap<ClusterId, u64>,
    homes: BTreeMap<ClusterId, NodeId>,
    offers: OfferStore,
    offer_ids: BTreeMap<ClusterId, OfferId>,
    bus: EventBus,
    view_id: u64,
    members: BTreeSet<NodeId>,
    in_flight: Option<InFlight>,
    next_epoch: u64,
    rounds_done: u32,
    decisions: Vec<DecisionRecord>,
    epochs: Vec<EpochRecord>,
}

impl PlacementActor {
    /// A controller at `me`. Populate it with
    /// `add_storage` and
    /// `add_cluster` before the simulation starts.
    pub fn new(me: NodeId, config: PlaceConfig) -> Self {
        let mgr = MigrationManager::new(config.policy, config.hysteresis, config.bytes_per_sec);
        let latency = LatencyMap::new(config.default_latency_us);
        PlacementActor {
            me,
            config,
            registry: EngRegistry::new(),
            capsules: BTreeMap::new(),
            mgr,
            latency,
            collector: Collector::new(),
            consumed: BTreeSet::new(),
            hot: BTreeMap::new(),
            homes: BTreeMap::new(),
            offers: OfferStore::new(),
            offer_ids: BTreeMap::new(),
            bus: EventBus::new(),
            view_id: 0,
            members: BTreeSet::new(),
            in_flight: None,
            next_epoch: 0,
            rounds_done: 0,
            decisions: Vec::new(),
            epochs: Vec::new(),
        }
    }

    /// Declares a storage node (migration candidate).
    pub(crate) fn add_storage(&mut self, node: NodeId) {
        let capsule = self.registry.create_capsule(node);
        self.capsules.insert(node, capsule);
    }

    /// Declares a cluster of `bytes` homed at `home` (a declared storage
    /// node) and exports its workspace offer. Returns the cluster id.
    pub(crate) fn add_cluster(&mut self, home: NodeId, bytes: usize) -> Option<ClusterId> {
        let capsule = *self.capsules.get(&home)?;
        let cluster = self.registry.create_cluster(capsule).ok()?;
        self.registry
            .create_object(ManagedObjectId(cluster.0 as u64 + 1), cluster, bytes)
            .ok()?;
        self.mgr.set_home(cluster, home);
        self.homes.insert(cluster, home);
        let mut offer = ServiceOffer::session(
            ServiceType::new(format!("workspace/raster/tile/{}", cluster.0)),
            SessionKind::Workspace,
            QosSpec::permissive(),
            home,
        );
        offer.id = OfferId(cluster.0 as u64 + 1);
        self.offer_ids.insert(cluster, offer.id);
        self.offers.insert(offer);
        Some(cluster)
    }

    /// Registers an awareness observer for placement notices.
    pub(crate) fn add_observer(&mut self, observer: NodeId, threshold: f64) {
        self.bus.register(observer, threshold);
    }

    /// Seeds the session view (who counts as a live editor).
    pub(crate) fn set_view(&mut self, view_id: u64, members: impl IntoIterator<Item = NodeId>) {
        self.view_id = view_id;
        self.members = members.into_iter().collect();
    }

    /// Every migration decision taken, with its replayable inputs.
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// Every migration epoch started, with its outcome.
    pub fn epochs(&self) -> &[EpochRecord] {
        &self.epochs
    }

    /// Committed migrations (the manager's event log).
    pub fn migrations(&self) -> &[odp_mgmt::migration::MigrationEvent] {
        self.mgr.events()
    }

    /// The authoritative home of a cluster.
    pub fn home_of(&self, cluster: ClusterId) -> Option<NodeId> {
        self.homes.get(&cluster).copied()
    }

    /// The cluster's current service offer.
    pub fn offer_of(&self, cluster: ClusterId) -> Option<&ServiceOffer> {
        self.offers.offer(*self.offer_ids.get(&cluster)?)
    }

    /// The observed link-latency estimates.
    pub fn latency(&self) -> &LatencyMap {
        &self.latency
    }

    /// The controller's trace collector (critical paths, histograms).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The controller's awareness bus (notice statistics).
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// The engineering registry mirror (cluster → node mapping).
    pub fn registry(&self) -> &EngRegistry {
        &self.registry
    }

    fn fold_traces(&mut self, ctx: &mut Ctx<'_, PlaceWire>) {
        struct Fold {
            trace_id: u64,
            cluster: ClusterId,
            site: NodeId,
            home: NodeId,
            rtt: SimDuration,
            reply: SimDuration,
        }
        let mut folds: Vec<Fold> = Vec::new();
        for (trace_id, dag) in self.collector.traces() {
            if self.consumed.contains(&trace_id) {
                continue;
            }
            let Some(root) = dag.spans().find(|s| s.ctx.parent.is_none()) else {
                continue;
            };
            let Some(root_closed) = root.closed else {
                continue;
            };
            let Some(rest) = root.kind.strip_prefix(ACCESS_KIND_PREFIX) else {
                continue;
            };
            let Ok(cluster) = rest.parse::<u32>() else {
                continue;
            };
            let Some(serve) = dag
                .spans()
                .find(|s| &*s.kind == "tile.serve" && s.closed.is_some())
            else {
                continue; // serve report not in yet; fold later
            };
            let Some(serve_closed) = serve.closed else {
                continue;
            };
            let rtt = root_closed.saturating_since(root.opened);
            // Only the reply leg (serve close -> editor close) is pure
            // network time. The request leg also contains freeze
            // stalls, refusal backoffs and redirect chases — genuine
            // user-felt latency (so it stays in the rtt weight) but a
            // poisonous link estimate: attributing a migration stall
            // to the *new* home would make the controller bounce the
            // cluster straight back.
            folds.push(Fold {
                trace_id,
                cluster: ClusterId(cluster),
                site: root.node,
                home: serve.node,
                rtt,
                reply: root_closed.saturating_since(serve_closed),
            });
        }
        for f in folds {
            self.consumed.insert(f.trace_id);
            self.latency.observe(f.site, f.home, f.reply);
            self.latency.observe(f.home, f.site, f.reply);
            // Weight the usage sample by the observed round trip.
            self.mgr
                .record_access(f.cluster, f.site, f.rtt.as_micros().max(1));
            *self.hot.entry(f.cluster).or_insert(0) += 1;
            ctx.metrics().incr("place.ctl.folds");
        }
    }

    /// Snapshot the latency pairs `place` will consult, so the decision
    /// is replayable from the record alone.
    fn latency_snapshot(
        &self,
        sites: &[NodeId],
        candidates: &[NodeId],
    ) -> Vec<((NodeId, NodeId), u64)> {
        let mut pairs = Vec::new();
        for &s in sites {
            for &c in candidates {
                pairs.push(((s, c), self.latency.estimate_us(s, c)));
            }
        }
        pairs
    }

    fn evaluate(&mut self, ctx: &mut Ctx<'_, PlaceWire>) {
        if self.in_flight.is_some() {
            return;
        }
        // Hotness shortlist: most-folded first, id breaks ties.
        let mut shortlist: Vec<(ClusterId, u64)> = self
            .hot
            .iter()
            .filter(|&(_, &n)| n >= self.config.min_accesses)
            .map(|(&c, &n)| (c, n))
            .collect();
        shortlist.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (cluster, _) in shortlist {
            let estimator = self.latency.estimator();
            let planned = self.mgr.plan(cluster, &self.registry, &estimator);
            drop(estimator);
            let Ok(Some(plan)) = planned else { continue };
            self.start_migration(ctx, plan);
            break;
        }
        // Old heat fades so one busy phase cannot anchor the shortlist.
        for n in self.hot.values_mut() {
            *n /= 2;
        }
        self.hot.retain(|_, &mut n| n > 0);
        self.mgr.age_usage();
    }

    fn start_migration(&mut self, ctx: &mut Ctx<'_, PlaceWire>, plan: MigrationPlan) {
        self.next_epoch += 1;
        let epoch = self.next_epoch;
        let now = ctx.now();
        let candidates = self.registry.candidate_nodes();
        let weights: Vec<(NodeId, u64)> = self
            .mgr
            .usage(plan.cluster)
            .map(|u| u.iter().collect())
            .unwrap_or_default();
        let sites: Vec<NodeId> = weights.iter().map(|&(s, _)| s).collect();
        let home = self.homes.get(&plan.cluster).copied().unwrap_or(plan.from);
        self.decisions.push(DecisionRecord {
            at: now,
            cluster: plan.cluster,
            epoch,
            from: plan.from,
            to: plan.to,
            policy: self.config.policy,
            hysteresis: self.config.hysteresis,
            home,
            candidates: candidates.clone(),
            weights,
            latency_us: self.latency_snapshot(&sites, &candidates),
            default_us: self.config.default_latency_us,
            cost_before_us: plan.cost_before_us,
            cost_after_us: plan.cost_after_us,
        });
        self.epochs.push(EpochRecord {
            cluster: plan.cluster,
            epoch,
            from: plan.from,
            to: plan.to,
            started: now,
            ended: None,
        });
        let timer = ctx.set_timer(self.config.epoch_timeout, TAG_EPOCH | epoch);
        ctx.metrics().incr("place.ctl.freezes");
        ctx.send(
            plan.from,
            PlaceWire::Freeze {
                cluster: plan.cluster,
                epoch,
                to: plan.to,
            },
        );
        self.in_flight = Some(InFlight {
            plan,
            epoch,
            state: FlightState::Streaming,
            timer,
        });
    }

    fn end_epoch(&mut self, epoch: u64, now: SimTime, outcome: EpochOutcome) {
        if let Some(rec) = self
            .epochs
            .iter_mut()
            .find(|r| r.epoch == epoch && r.ended.is_none())
        {
            rec.ended = Some((now, outcome));
        }
    }

    fn abort_epoch(&mut self, ctx: &mut Ctx<'_, PlaceWire>, reason: &str) {
        let Some(flight) = self.in_flight.take() else {
            return;
        };
        ctx.cancel_timer(flight.timer);
        let (cluster, epoch) = (flight.plan.cluster, flight.epoch);
        ctx.send(flight.plan.from, PlaceWire::Abort { cluster, epoch });
        ctx.send(flight.plan.to, PlaceWire::Abort { cluster, epoch });
        self.end_epoch(epoch, ctx.now(), EpochOutcome::Aborted);
        ctx.metrics().incr("place.ctl.aborts");
        ctx.trace("place.abort", format_args!("epoch {epoch}: {reason}"));
    }

    fn commit_epoch(&mut self, ctx: &mut Ctx<'_, PlaceWire>) {
        let Some(flight) = self.in_flight.take() else {
            return;
        };
        ctx.cancel_timer(flight.timer);
        let plan = flight.plan;
        let epoch = flight.epoch;
        let now = ctx.now();
        if self.mgr.commit(&plan, &mut self.registry, now).is_err() {
            // The registry refused (cannot happen unless storage nodes
            // were retired mid-flight): treat as an abort.
            ctx.send(
                plan.from,
                PlaceWire::Abort {
                    cluster: plan.cluster,
                    epoch,
                },
            );
            ctx.send(
                plan.to,
                PlaceWire::Abort {
                    cluster: plan.cluster,
                    epoch,
                },
            );
            self.end_epoch(epoch, now, EpochOutcome::Aborted);
            return;
        }
        // The manager's tie-break anchor must follow the authoritative
        // home, or a later decision for the same cluster would score
        // against a home the DecisionRecord no longer reports.
        self.mgr.set_home(plan.cluster, plan.to);
        self.homes.insert(plan.cluster, plan.to);
        if let Some(&offer) = self.offer_ids.get(&plan.cluster) {
            self.offers.rehome(offer, plan.to);
        }
        ctx.send(
            plan.from,
            PlaceWire::Release {
                cluster: plan.cluster,
                epoch,
                to: plan.to,
            },
        );
        // Authoritative home broadcast: every editor and every storage
        // node learns without chasing redirects.
        let mut audience: BTreeSet<NodeId> = self.members.clone();
        audience.extend(self.registry.candidate_nodes());
        for node in audience {
            if node != self.me {
                ctx.send(
                    node,
                    PlaceWire::HomeUpdate {
                        cluster: plan.cluster,
                        node: plan.to,
                    },
                );
            }
        }
        // Awareness: surface the move as a cooperation notice.
        let event = CoopEvent::broadcast(
            self.me,
            format!("raster/tile/{}", plan.cluster.0),
            now,
            CoopKind::ClusterMigrated {
                from: plan.from,
                to: plan.to,
            },
        );
        for grant in self.bus.publish(&event) {
            ctx.send(grant.observer, PlaceWire::Notice(event.clone()));
        }
        self.end_epoch(epoch, now, EpochOutcome::Committed);
        ctx.metrics().incr("place.ctl.migrations");
        ctx.trace(
            "place.migrated",
            format_args!(
                "cluster {} {} -> {} (epoch {epoch})",
                plan.cluster.0, plan.from.0, plan.to.0
            ),
        );
    }
}

impl Actor<PlaceWire> for PlacementActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, PlaceWire>) {
        if self.config.eval_rounds > 0 {
            ctx.set_timer(self.config.eval_every, TAG_EVAL);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, PlaceWire>, _from: NodeId, msg: PlaceWire) {
        match msg {
            PlaceWire::Stats { spans, accesses } => {
                if !self.config.active {
                    return;
                }
                for obs in &spans {
                    // Reports from nodes outside the session view are
                    // stale (a departed editor's last flush): drop them.
                    if !self.members.contains(&obs.node) && !self.capsules.contains_key(&obs.node) {
                        continue;
                    }
                    self.collector
                        .ingest_open(obs.opened, obs.node, obs.ctx, &obs.kind);
                    self.collector
                        .ingest_close(obs.closed, obs.ctx.trace_id, obs.ctx.span_id);
                }
                for (cluster, n) in accesses {
                    *self.hot.entry(ClusterId(cluster)).or_insert(0) += n;
                }
                self.fold_traces(ctx);
            }
            PlaceWire::ViewChange { view_id, members } => {
                if view_id <= self.view_id {
                    return; // stale view
                }
                self.view_id = view_id;
                // A view change, not a per-message cost.
                let new: BTreeSet<NodeId> = members.into_iter().collect();
                for departed in self.members.difference(&new) {
                    self.mgr.forget_site(*departed);
                }
                self.members = new;
                ctx.metrics().incr("place.ctl.view_changes");
            }
            PlaceWire::TransferDone {
                cluster,
                epoch,
                hash,
            } => {
                let matches = self.in_flight.as_ref().is_some_and(|f| {
                    f.epoch == epoch
                        && f.plan.cluster == cluster
                        && matches!(f.state, FlightState::Streaming)
                });
                if !matches {
                    return;
                }
                if let Some(f) = self.in_flight.as_mut() {
                    f.state = FlightState::Committing;
                    let to = f.plan.to;
                    ctx.send(
                        to,
                        PlaceWire::Commit {
                            cluster,
                            epoch,
                            hash,
                        },
                    );
                }
            }
            PlaceWire::TransferFailed { epoch, reason, .. }
                if self.in_flight.as_ref().is_some_and(|f| f.epoch == epoch) =>
            {
                // Abort path: a failed migration is a rare fault, not
                // per-delivery traffic.
                self.abort_epoch(ctx, &format!("transfer failed: {reason}"));
            }
            PlaceWire::Installed { cluster, epoch } => {
                let matches = self.in_flight.as_ref().is_some_and(|f| {
                    f.epoch == epoch
                        && f.plan.cluster == cluster
                        && matches!(f.state, FlightState::Committing)
                });
                if matches {
                    self.commit_epoch(ctx);
                }
            }
            PlaceWire::InstallFailed { epoch, reason, .. }
                if self.in_flight.as_ref().is_some_and(|f| f.epoch == epoch) =>
            {
                // Abort path, as above.
                self.abort_epoch(ctx, &format!("install failed: {reason}"));
            }
            // Workload-plane traffic is not addressed to the controller.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, PlaceWire>, _timer: TimerId, tag: u64) {
        match tag & TAG_MASK {
            TAG_EVAL => {
                self.rounds_done += 1;
                if self.config.active {
                    self.evaluate(ctx);
                }
                if self.rounds_done < self.config.eval_rounds {
                    ctx.set_timer(self.config.eval_every, TAG_EVAL);
                }
            }
            TAG_EPOCH => {
                let epoch = tag & !TAG_MASK;
                if self.in_flight.as_ref().is_some_and(|f| f.epoch == epoch) {
                    self.abort_epoch(ctx, "epoch timeout");
                }
            }
            _ => {}
        }
    }

    fn on_peer_down(&mut self, ctx: &mut Ctx<'_, PlaceWire>, peer: NodeId) {
        let involved = self
            .in_flight
            .as_ref()
            .is_some_and(|f| f.plan.to == peer || f.plan.from == peer);
        if involved {
            self.abort_epoch(ctx, "peer down mid-migration");
        }
    }
}
