//! Simulator actors: a trader shard and an importer with a lookup
//! cache, wired together over the deterministic simulator.
//!
//! A [`TraderActor`] serves one shard of the domain's offer space. On
//! withdraw or modify it multicasts an [`Invalidation`] note to the
//! cache-coherence group (traders + importers) through a reliable
//! `odp_groupcomm::GroupEngine`, hosted on each actor by an
//! `EngineHost` with a 100 ms tick, so importer caches converge
//! without polling. An [`ImporterActor`] runs a lookup workload: cache hits
//! resolve locally at zero latency; misses pay the round-trip to the
//! owning shard. Both record the metrics the acceptance experiments
//! read: the `lookup_latency` histogram and the `cache_hit_rate`
//! pseudo-histogram (1 µs per hit, 0 µs per miss, so its mean in
//! microseconds *is* the hit rate), plus plain counters.

use odp_fabric::SpanCarrier;
use odp_groupcomm::host::EngineHost;
use odp_groupcomm::membership::View;
use odp_groupcomm::multicast::{GcMsg, GroupEngine, Ordering, Reliability};
use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};
use odp_streams::qos::QosSpec;

use crate::cache::LookupCache;
use crate::offer::{OfferId, ServiceOffer, ServiceType};
use crate::select::{match_offers, select, SelectionLoad, SelectionPolicy};
use crate::store::{HashRing, OfferStore};

/// Why a cached entry went stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidationReason {
    /// The exporter withdrew the offer.
    Withdrawn,
    /// The exporter re-advertised with different QoS.
    Modified,
    /// The type's offers moved to a different shard (ring change), so
    /// resolutions cached against the old owner may be stale.
    Rebalanced,
}

/// The cache-coherence note traders multicast on withdraw/modify.
#[derive(Debug, Clone, PartialEq)]
pub struct Invalidation {
    /// The service type whose cached resolutions are stale.
    pub service_type: ServiceType,
    /// What happened.
    pub reason: InvalidationReason,
}

/// Messages exchanged by traders and importers.
#[derive(Debug, Clone)]
pub enum TraderMsg {
    /// Exporter → trader: advertise an offer.
    Export(ServiceOffer),
    /// Exporter → trader: withdraw an offer.
    Withdraw(OfferId),
    /// Exporter → trader: replace an offer's QoS.
    Modify(OfferId, QosSpec),
    /// Importer → trader: resolve a service type under a QoS
    /// requirement.
    Lookup {
        /// Correlation id, unique per importer.
        call: u64,
        /// The wanted type.
        service_type: ServiceType,
        /// The importer's requirement.
        required: QosSpec,
        /// Piggybacked telemetry span (the importer's `trader.import`
        /// root), if the importer has telemetry on.
        span: Option<SpanCarrier>,
    },
    /// Trader → importer: the offers that satisfied the requirement
    /// (selection-policy-ranked; best first).
    LookupReply {
        /// Correlation id from the lookup.
        call: u64,
        /// The resolved type.
        service_type: ServiceType,
        /// Satisfying offers, best first; empty = no match.
        resolved: Vec<ServiceOffer>,
        /// Piggybacked telemetry span (the trader's `trader.serve`
        /// child), if the trader minted one.
        span: Option<SpanCarrier>,
    },
    /// Operator → everyone: the trader ring changed. Traders rehome
    /// offers; importers re-route future lookups.
    ShardChange {
        /// Traders that joined the ring.
        added: Vec<NodeId>,
        /// Traders that left the ring.
        removed: Vec<NodeId>,
    },
    /// Trader → trader: an offer migrating to its new owner after a
    /// ring change.
    Transfer(ServiceOffer),
    /// Cache-coherence traffic (reliable multicast engine payloads).
    Gc(GcMsg<Invalidation>),
}

impl From<GcMsg<Invalidation>> for TraderMsg {
    fn from(msg: GcMsg<Invalidation>) -> Self {
        TraderMsg::Gc(msg)
    }
}

/// The coherence group's member, as traders and importers host it:
/// reliable FIFO, ticking every 100 ms.
fn coherence_host(me: NodeId, group: View) -> EngineHost<Invalidation> {
    EngineHost::new(
        GroupEngine::new(me, group, Ordering::Fifo, Reliability::reliable()),
        SimDuration::from_millis(100),
    )
}

const LOOKUP_TAG: u64 = 2;

/// One trader shard as a simulator actor.
pub struct TraderActor {
    store: OfferStore,
    host: EngineHost<Invalidation>,
    policy: SelectionPolicy,
    selection_load: SelectionLoad,
    ring: HashRing,
    rebalance_invalidations: bool,
    telemetry: bool,
    // Precomputed: exports arrive per message, and building the metric
    // name there would allocate on the delivery path.
    shard_counter: String,
}

impl TraderActor {
    /// A trader for node `me`, multicasting invalidations to
    /// `coherence_group` (traders + importers). The shard ring contains
    /// only `me`; deployments that rebalance use
    /// [`TraderActor::with_ring`].
    pub fn new(me: NodeId, coherence_group: View, policy: SelectionPolicy) -> Self {
        Self::with_ring(me, coherence_group, policy, HashRing::new([me]))
    }

    /// Like [`TraderActor::new`] but sharing the domain ring, so the
    /// trader can rehome offers when a [`TraderMsg::ShardChange`]
    /// arrives.
    pub fn with_ring(
        me: NodeId,
        coherence_group: View,
        policy: SelectionPolicy,
        ring: HashRing,
    ) -> Self {
        TraderActor {
            store: OfferStore::new(),
            host: coherence_host(me, coherence_group),
            policy,
            selection_load: SelectionLoad::new(),
            ring,
            rebalance_invalidations: true,
            telemetry: false,
            shard_counter: format!("trader.shard.{me}.offers"),
        }
    }

    /// Enables span telemetry. Off by default: minting spans draws from
    /// the actor's RNG stream, which would perturb existing seeded runs.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    /// The shard's store (assertions in tests).
    pub fn store(&self) -> &OfferStore {
        &self.store
    }

    /// The trader's view of the domain ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Fault injection for the coherence checker: when disabled, the
    /// trader rebalances shards *silently* — neither the old owner
    /// (after migrating offers out on a [`TraderMsg::ShardChange`]) nor
    /// the new owner (after adopting a [`TraderMsg::Transfer`])
    /// multicasts the `Rebalanced` invalidation. An importer whose
    /// lookup races the in-flight transfer then caches a stale (empty)
    /// resolution that nothing ever evicts — the exact bug the
    /// ROADMAP's "cache coherence under churn" item describes.
    /// Production code never calls this.
    pub fn set_rebalance_invalidations(&mut self, on: bool) {
        self.rebalance_invalidations = on;
    }

    fn invalidate(&mut self, note: Invalidation, ctx: &mut Ctx<'_, TraderMsg>) {
        self.host.mcast(ctx, note, None);
    }
}

impl Actor<TraderMsg> for TraderActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TraderMsg>) {
        self.host.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, TraderMsg>, from: NodeId, msg: TraderMsg) {
        match msg {
            TraderMsg::Export(offer) => {
                // A slow export can arrive after a ring change moved its
                // type to another shard; forward it to the owner rather
                // than stranding the offer here.
                let me = ctx.id();
                match self.ring.node_for(&offer.service_type) {
                    Some(owner) if owner != me => {
                        ctx.metrics().incr("trader.exports.forwarded");
                        ctx.send(owner, TraderMsg::Export(offer));
                    }
                    _ => {
                        ctx.metrics().incr("trader.exports");
                        ctx.metrics().add(&self.shard_counter, 1);
                        self.store.insert(offer);
                    }
                }
            }
            TraderMsg::Withdraw(id) => {
                if let Some(offer) = self.store.remove(id) {
                    ctx.metrics().incr("trader.withdrawals");
                    self.invalidate(
                        Invalidation {
                            service_type: offer.service_type,
                            reason: InvalidationReason::Withdrawn,
                        },
                        ctx,
                    );
                }
            }
            TraderMsg::Modify(id, qos) => {
                if self.store.modify_qos(id, qos) {
                    if let Some(service_type) = self.store.offer(id).map(|o| o.service_type.clone())
                    {
                        ctx.metrics().incr("trader.modifications");
                        self.invalidate(
                            Invalidation {
                                service_type,
                                reason: InvalidationReason::Modified,
                            },
                            ctx,
                        );
                    }
                }
            }
            TraderMsg::Lookup {
                call,
                service_type,
                required,
                span,
            } => {
                ctx.metrics().incr("trader.lookups");
                // Serve span: a child of the importer's import root,
                // open and closed here (service time is zero in the
                // simulator; the span marks where the work happened).
                let serve = match span.filter(|_| self.telemetry) {
                    Some(parent) => {
                        let serve = ctx.rng().span_child(&parent);
                        ctx.span_instant(serve, "trader.serve");
                        Some(serve)
                    }
                    None => None,
                };
                // The reply owns the offers it carries: the two lists
                // built here are the lookup's answer, one per request.
                let offers: Vec<ServiceOffer> = self
                    .store
                    .offers_of_type(&service_type)
                    .into_iter()
                    .cloned()
                    .collect();
                let mut matches = match_offers(&offers, &required);
                // Rank: the policy's pick first, the rest in store order
                // (importers cache the whole list and fail over down it).
                if let Some(best) = select(&matches, self.policy, &mut self.selection_load, None) {
                    matches.retain(|m| m.offer.id != best.offer.id);
                    matches.insert(0, best);
                }
                let resolved = matches.into_iter().map(|m| m.offer).collect();
                ctx.send(
                    from,
                    TraderMsg::LookupReply {
                        call,
                        service_type,
                        resolved,
                        span: serve,
                    },
                );
            }
            TraderMsg::ShardChange { added, removed } => {
                for t in &added {
                    self.ring.add(*t);
                }
                for t in &removed {
                    self.ring.remove(*t);
                }
                // Rehome: every held offer whose type now hashes
                // elsewhere migrates to its new owner, and the moved
                // types are invalidated so importers drop resolutions
                // cached against this shard.
                let me = ctx.id();
                // A ring change, not a per-message cost.
                let to_move: Vec<OfferId> = self
                    .store
                    .iter()
                    .filter(|o| self.ring.node_for(&o.service_type) != Some(me))
                    .map(|o| o.id)
                    .collect();
                let mut moved_types = std::collections::BTreeSet::new();
                for id in to_move {
                    let Some(offer) = self.store.remove(id) else {
                        continue;
                    };
                    let Some(owner) = self.ring.node_for(&offer.service_type) else {
                        continue;
                    };
                    ctx.metrics().incr("trader.transfers.out");
                    // Rebalances are rare ring reconfigurations, not
                    // per-delivery traffic.
                    moved_types.insert(offer.service_type.clone());
                    ctx.send(owner, TraderMsg::Transfer(offer));
                }
                if self.rebalance_invalidations {
                    for service_type in moved_types {
                        self.invalidate(
                            Invalidation {
                                service_type,
                                reason: InvalidationReason::Rebalanced,
                            },
                            ctx,
                        );
                    }
                }
            }
            TraderMsg::Transfer(offer) => {
                // Double churn: the type moved again while this transfer
                // was in flight, so pass the offer along to its current
                // owner instead of adopting it.
                let me = ctx.id();
                if let Some(owner) = self.ring.node_for(&offer.service_type) {
                    if owner != me {
                        ctx.metrics().incr("trader.transfers.forwarded");
                        ctx.send(owner, TraderMsg::Transfer(offer));
                        return;
                    }
                }
                ctx.metrics().incr("trader.transfers.in");
                let service_type = offer.service_type.clone();
                self.store.place(offer);
                // Announce the adopted type: importers that cached an
                // empty resolution while the offer was in flight (or a
                // resolution against the old owner) must re-resolve.
                if self.rebalance_invalidations {
                    self.invalidate(
                        Invalidation {
                            service_type,
                            reason: InvalidationReason::Rebalanced,
                        },
                        ctx,
                    );
                }
            }
            TraderMsg::Gc(gc) => {
                // Traders originate invalidations; delivered notes from
                // peer traders need no local action (no cache here).
                self.host.on_message(ctx, from, gc);
            }
            // Replies are importer-bound; a trader receiving one is a
            // misrouted duplicate.
            TraderMsg::LookupReply { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TraderMsg>, _timer: TimerId, tag: u64) {
        self.host.on_timer(ctx, tag, |_| {});
    }
}

/// One scripted lookup in an importer's workload.
#[derive(Debug, Clone)]
pub struct LookupJob {
    /// When to issue it.
    pub at: SimDuration,
    /// What to ask for.
    pub service_type: ServiceType,
    /// Under which requirement.
    pub required: QosSpec,
}

/// Counters an importer accumulates (read back by tests/experiments).
#[derive(Debug, Clone, Copy, Default)]
pub struct ImporterStats {
    /// Lookups resolved from the local cache.
    pub cache_hits: u64,
    /// Lookups that paid a trader round-trip.
    pub cold_lookups: u64,
    /// Replies that resolved at least one offer.
    pub resolved: u64,
    /// Replies with no satisfying offer.
    pub unresolved: u64,
}

/// An importing client as a simulator actor.
pub struct ImporterActor {
    ring: HashRing,
    cache: LookupCache,
    host: EngineHost<Invalidation>,
    jobs: Vec<LookupJob>,
    /// call → (type, issue time, the type's invalidation epoch at
    /// issue, the `trader.import` root span if telemetry is on).
    pending: std::collections::BTreeMap<u64, (ServiceType, SimTime, u64, Option<SpanCarrier>)>,
    /// Per-type count of invalidations seen. A reply that raced an
    /// invalidation (issued under an older epoch) is *used* but not
    /// *cached*: the result was valid when computed, but caching it
    /// would resurrect an entry the invalidation just evicted.
    epochs: std::collections::BTreeMap<ServiceType, u64>,
    next_call: u64,
    stats: ImporterStats,
    telemetry: bool,
    /// The most recent resolution per type (tests bind through this).
    pub last_resolved: std::collections::BTreeMap<ServiceType, Vec<ServiceOffer>>,
}

impl ImporterActor {
    /// An importer for node `me`: `ring` routes a type to its shard's
    /// trader (updated on [`TraderMsg::ShardChange`]), `ttl` bounds
    /// cache staleness, `coherence_group` delivers invalidations,
    /// `jobs` is the scripted workload.
    pub fn new(
        me: NodeId,
        coherence_group: View,
        ttl: SimDuration,
        ring: HashRing,
        jobs: Vec<LookupJob>,
    ) -> Self {
        ImporterActor {
            ring,
            cache: LookupCache::new(ttl),
            host: coherence_host(me, coherence_group),
            jobs,
            pending: std::collections::BTreeMap::new(),
            epochs: std::collections::BTreeMap::new(),
            next_call: 0,
            stats: ImporterStats::default(),
            telemetry: false,
            last_resolved: std::collections::BTreeMap::new(),
        }
    }

    /// Enables span telemetry. Off by default: minting spans draws from
    /// the actor's RNG stream, which would perturb existing seeded runs.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    fn epoch(&self, service_type: &ServiceType) -> u64 {
        self.epochs.get(service_type).copied().unwrap_or(0)
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ImporterStats {
        self.stats
    }

    /// The cache (tests assert on hit/miss/invalidation counts).
    pub fn cache(&self) -> &LookupCache {
        &self.cache
    }

    fn record_outcome(ctx: &mut Ctx<'_, TraderMsg>, latency: SimDuration, hit: bool) {
        ctx.metrics().observe("lookup_latency", latency);
        // Mean of this histogram in milliseconds = cache hit rate: each
        // hit observes 1 ms, each miss 0 ms.
        ctx.metrics().observe(
            "cache_hit_rate",
            if hit {
                SimDuration::from_millis(1)
            } else {
                SimDuration::ZERO
            },
        );
        ctx.metrics().incr(if hit {
            "importer.cache.hits"
        } else {
            "importer.cache.misses"
        });
    }

    fn issue(&mut self, job: LookupJob, ctx: &mut Ctx<'_, TraderMsg>) {
        if let Some(resolved) = self.cache.get(&job.service_type, ctx.now()) {
            // Served locally: zero added latency.
            self.stats.cache_hits += 1;
            if resolved.is_empty() {
                self.stats.unresolved += 1;
            } else {
                self.stats.resolved += 1;
            }
            self.last_resolved
                .insert(job.service_type.clone(), resolved);
            Self::record_outcome(ctx, SimDuration::ZERO, true);
            return;
        }
        self.stats.cold_lookups += 1;
        self.next_call += 1;
        let call = self.next_call;
        // Import span: the root of this lookup's trace, closed when the
        // reply is processed (or never, if the reply is lost — the
        // telemetry audit will flag the unclosed span).
        let root = if self.telemetry {
            let root = ctx.rng().span_root();
            ctx.span_open(root, "trader.import");
            Some(root)
        } else {
            None
        };
        self.pending.insert(
            call,
            (
                job.service_type.clone(),
                ctx.now(),
                self.epoch(&job.service_type),
                root,
            ),
        );
        let Some(trader) = self.ring.node_for(&job.service_type) else {
            return;
        };
        ctx.send(
            trader,
            TraderMsg::Lookup {
                call,
                service_type: job.service_type,
                required: job.required,
                span: root,
            },
        );
    }
}

impl Actor<TraderMsg> for ImporterActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TraderMsg>) {
        self.host.start(ctx);
        for (i, job) in self.jobs.iter().enumerate() {
            ctx.set_timer(job.at, LOOKUP_TAG + 1 + i as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, TraderMsg>, from: NodeId, msg: TraderMsg) {
        match msg {
            TraderMsg::LookupReply {
                call,
                service_type,
                resolved,
                span,
            } => {
                let Some((_, sent_at, issue_epoch, root)) = self.pending.remove(&call) else {
                    return; // stale duplicate
                };
                let latency = ctx.now().saturating_since(sent_at);
                // Reply span (a child of the trader's serve span), then
                // close the import root this reply completes.
                if self.telemetry {
                    if let Some(serve) = span {
                        let reply = ctx.rng().span_child(&serve);
                        ctx.span_instant(reply, "trader.reply");
                    }
                    if let Some(root) = root {
                        ctx.span_close(root);
                    }
                }
                if resolved.is_empty() {
                    self.stats.unresolved += 1;
                } else {
                    self.stats.resolved += 1;
                }
                Self::record_outcome(ctx, latency, false);
                // The epoch guard: an invalidation for this type arrived
                // while the lookup was in flight, so the reply reflects
                // a store state the coherence protocol already declared
                // stale. Use it for this resolution, but do not cache.
                if issue_epoch == self.epoch(&service_type) {
                    self.cache
                        .put(service_type.clone(), resolved.clone(), ctx.now());
                } else {
                    ctx.metrics().incr("importer.cache.raced_reply");
                }
                self.last_resolved.insert(service_type, resolved);
            }
            TraderMsg::Gc(gc) => {
                for delivery in self.host.on_message(ctx, from, gc) {
                    let service_type = &delivery.payload.service_type;
                    // Invalidations are rare coherence events; the epoch
                    // key must be owned.
                    *self.epochs.entry(service_type.clone()).or_insert(0) += 1;
                    if self.cache.invalidate(service_type) {
                        ctx.metrics().incr("importer.cache.invalidated");
                    }
                }
            }
            TraderMsg::ShardChange { added, removed } => {
                // Conservative eviction: any type whose owner moves —
                // cached *or* with a lookup in flight to the old owner —
                // is treated as invalidated immediately rather than
                // waiting for the rebalance multicast, so a reply
                // computed against the pre-change ring can never be
                // cached after the change. (A ring change, not a
                // per-message cost, so the two snapshots may allocate.)
                let affected: std::collections::BTreeSet<ServiceType> = self
                    .cache
                    .entries()
                    .map(|(t, _, _)| t.clone())
                    .chain(self.pending.values().map(|(t, ..)| t.clone()))
                    .collect();
                let owners_before: Vec<(ServiceType, Option<NodeId>)> = affected
                    .into_iter()
                    .map(|t| {
                        let owner = self.ring.node_for(&t);
                        (t, owner)
                    })
                    .collect();
                for t in &added {
                    self.ring.add(*t);
                }
                for t in &removed {
                    self.ring.remove(*t);
                }
                for (service_type, owner) in owners_before {
                    if self.ring.node_for(&service_type) != owner {
                        // Shard changes are rare ring reconfigurations.
                        *self.epochs.entry(service_type.clone()).or_insert(0) += 1;
                        if self.cache.invalidate(&service_type) {
                            ctx.metrics().incr("importer.cache.invalidated");
                        }
                    }
                }
            }
            // Importers ignore trader-side traffic.
            TraderMsg::Export(_)
            | TraderMsg::Withdraw(_)
            | TraderMsg::Modify(..)
            | TraderMsg::Transfer(_)
            | TraderMsg::Lookup { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TraderMsg>, _timer: TimerId, tag: u64) {
        if self.host.on_timer(ctx, tag, |_| {}).is_some() {
            return;
        }
        let idx = (tag - LOOKUP_TAG - 1) as usize;
        if let Some(job) = self.jobs.get(idx).cloned() {
            self.issue(job, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offer::SessionKind;
    use crate::store::HashRing;
    use odp_groupcomm::membership::GroupId;
    use odp_sim::prelude::{ActorHandle, SimBuilder, Until};
    use odp_sim::sim::Sim;

    const T1: NodeId = NodeId(0);
    const T2: NodeId = NodeId(1);
    const IMP: NodeId = NodeId(10);
    const EXP: NodeId = NodeId(20);

    fn st() -> ServiceType {
        ServiceType::new("video/conference")
    }

    fn view() -> View {
        View::initial(GroupId(7), [T1, T2, IMP])
    }

    fn offer() -> ServiceOffer {
        // In the actor protocol the *exporter* owns id uniqueness (the
        // shards are distributed and cannot coordinate a counter).
        let mut o = ServiceOffer::session(st(), SessionKind::Conference, QosSpec::video(), EXP);
        o.id = OfferId(1);
        o
    }

    fn jobs(times_ms: &[u64]) -> Vec<LookupJob> {
        times_ms
            .iter()
            .map(|ms| LookupJob {
                at: SimDuration::from_millis(*ms),
                service_type: st(),
                required: QosSpec::video(),
            })
            .collect()
    }

    fn build(jobs_ms: &[u64], ttl_ms: u64) -> Sim<TraderMsg> {
        let mut sim = SimBuilder::new(42).build();
        sim.add_actor(T1, TraderActor::new(T1, view(), SelectionPolicy::FirstFit));
        sim.add_actor(T2, TraderActor::new(T2, view(), SelectionPolicy::FirstFit));
        sim.add_actor(
            IMP,
            ImporterActor::new(
                IMP,
                view(),
                SimDuration::from_millis(ttl_ms),
                HashRing::new([T1, T2]),
                jobs(jobs_ms),
            ),
        );
        let shard = HashRing::new([T1, T2]).node_for(&st()).unwrap();
        sim.inject(SimTime::ZERO, EXP, shard, TraderMsg::Export(offer()));
        sim
    }

    #[test]
    fn telemetry_spans_form_a_well_formed_import_chain() {
        // One cold lookup with telemetry on everywhere: the importer
        // mints the trader.import root, the owning shard parents a
        // trader.serve under it, and the reply closes the chain with a
        // trader.reply leaf.
        let mut sim = SimBuilder::new(42).build();
        let mut t1 = TraderActor::new(T1, view(), SelectionPolicy::FirstFit);
        t1.set_telemetry(true);
        let mut t2 = TraderActor::new(T2, view(), SelectionPolicy::FirstFit);
        t2.set_telemetry(true);
        sim.add_actor(T1, t1);
        sim.add_actor(T2, t2);
        let mut imp = ImporterActor::new(
            IMP,
            view(),
            SimDuration::from_millis(10_000),
            HashRing::new([T1, T2]),
            jobs(&[10]),
        );
        imp.set_telemetry(true);
        sim.add_actor(IMP, imp);
        let shard = HashRing::new([T1, T2]).node_for(&st()).unwrap();
        sim.inject(SimTime::ZERO, EXP, shard, TraderMsg::Export(offer()));
        sim.run(Until::At(SimTime::ZERO + SimDuration::from_secs(2)));

        let collector = odp_telemetry::collector::Collector::from_trace(sim.trace());
        assert_eq!(collector.well_formed(), Ok(()), "span audit must pass");
        assert_eq!(collector.len(), 1, "one lookup, one trace");
        let dag = collector.traces().next().unwrap().1;
        assert_eq!(dag.len(), 3);
        let kinds: Vec<&str> = dag.critical_path().iter().map(|s| &*s.kind).collect();
        assert_eq!(kinds, ["trader.import", "trader.serve", "trader.reply"]);
    }

    #[test]
    fn telemetry_off_emits_no_trader_span_events() {
        let mut sim = build(&[10], 10_000);
        sim.run(Until::At(SimTime::ZERO + SimDuration::from_secs(2)));
        assert!(sim.trace().spans().is_empty());
    }

    #[test]
    fn cold_then_cached_lookup_hit_rates_and_latencies() {
        let mut sim = build(&[10, 20, 30], 10_000);
        sim.run(Until::At(SimTime::ZERO + SimDuration::from_secs(2)));
        let imp: &ImporterActor = sim.get(ActorHandle::of(IMP)).unwrap();
        let stats = imp.stats();
        assert_eq!(stats.cold_lookups, 1, "first lookup misses");
        assert_eq!(stats.cache_hits, 2, "subsequent lookups hit");
        assert_eq!(stats.resolved, 3);
        assert_eq!(sim.metrics().counter("importer.cache.hits"), 2);
        assert_eq!(sim.metrics().counter("importer.cache.misses"), 1);
        let lat = sim
            .metrics()
            .histogram("lookup_latency")
            .expect("latency histogram recorded");
        assert_eq!(lat.len(), 3);
        // Cold lookup pays network latency; hits are free.
        let mut lat = lat.clone();
        assert!(lat.max() > SimDuration::ZERO);
        assert_eq!(lat.min(), SimDuration::ZERO);
        let hit_rate = sim
            .metrics()
            .histogram("cache_hit_rate")
            .expect("hit-rate histogram recorded")
            .mean();
        // Two hits, one miss → mean 2/3 ms ≈ 666 µs.
        assert_eq!(hit_rate.as_micros(), 666);
    }

    #[test]
    fn ttl_expiry_forces_a_fresh_round_trip() {
        // Lookups at 10ms and 900ms with a 200ms TTL: both go cold.
        let mut sim = build(&[10, 900], 200);
        sim.run(Until::At(SimTime::ZERO + SimDuration::from_secs(2)));
        let imp: &ImporterActor = sim.get(ActorHandle::of(IMP)).unwrap();
        assert_eq!(imp.stats().cold_lookups, 2);
        assert_eq!(imp.stats().cache_hits, 0);
        assert_eq!(imp.cache().stats().expiries, 1);
    }

    #[test]
    fn withdraw_invalidates_importer_caches() {
        let mut sim = build(&[10, 1500], 60_000);
        // Withdraw the (sole) offer at t=1s; the trader multicasts an
        // invalidation, so the importer's 1.5s lookup must go cold and
        // resolve to nothing.
        let shard = HashRing::new([T1, T2]).node_for(&st()).unwrap();
        sim.inject(
            SimTime::ZERO + SimDuration::from_secs(1),
            EXP,
            shard,
            TraderMsg::Withdraw(OfferId(1)),
        );
        sim.run(Until::At(SimTime::ZERO + SimDuration::from_secs(3)));
        let imp: &ImporterActor = sim.get(ActorHandle::of(IMP)).unwrap();
        assert_eq!(
            sim.metrics().counter("importer.cache.invalidated"),
            1,
            "the multicast note must evict the cached type"
        );
        assert_eq!(
            imp.stats().cold_lookups,
            2,
            "post-withdraw lookup goes cold"
        );
        assert_eq!(imp.stats().unresolved, 1, "nothing left to resolve");
        assert!(imp.last_resolved.get(&st()).unwrap().is_empty());
    }

    #[test]
    fn modify_also_invalidates() {
        let mut sim = build(&[10], 60_000);
        let shard = HashRing::new([T1, T2]).node_for(&st()).unwrap();
        sim.inject(
            SimTime::ZERO + SimDuration::from_secs(1),
            EXP,
            shard,
            TraderMsg::Modify(OfferId(1), QosSpec::mobile_video()),
        );
        sim.run(Until::At(SimTime::ZERO + SimDuration::from_secs(2)));
        assert_eq!(sim.metrics().counter("importer.cache.invalidated"), 1);
        assert_eq!(sim.metrics().counter("trader.modifications"), 1);
    }

    #[test]
    fn rebalancing_migrates_offers_and_invalidates_caches() {
        // Both traders share the ring; the offer's owner is removed
        // from the ring mid-run, so the offer must migrate to the
        // survivor and the importer's cached resolution must go stale.
        let ring = || HashRing::new([T1, T2]);
        let owner = ring().node_for(&st()).unwrap();
        let survivor = if owner == T1 { T2 } else { T1 };
        let mut sim = SimBuilder::new(42).build();
        for t in [T1, T2] {
            sim.add_actor(
                t,
                TraderActor::with_ring(t, view(), SelectionPolicy::FirstFit, ring()),
            );
        }
        sim.add_actor(
            IMP,
            ImporterActor::new(
                IMP,
                view(),
                SimDuration::from_secs(60),
                ring(),
                jobs(&[10, 2000]),
            ),
        );
        sim.inject(SimTime::ZERO, EXP, owner, TraderMsg::Export(offer()));
        let change = || TraderMsg::ShardChange {
            added: vec![],
            removed: vec![owner],
        };
        for node in [T1, T2, IMP] {
            sim.inject(
                SimTime::ZERO + SimDuration::from_secs(1),
                NodeId(99),
                node,
                change(),
            );
        }
        sim.run(Until::At(SimTime::ZERO + SimDuration::from_secs(4)));
        assert_eq!(sim.metrics().counter("trader.transfers.out"), 1);
        assert_eq!(sim.metrics().counter("trader.transfers.in"), 1);
        let surv: &TraderActor = sim.get(ActorHandle::of(survivor)).unwrap();
        assert_eq!(surv.store().load().offers, 1, "offer migrated");
        let old: &TraderActor = sim.get(ActorHandle::of(owner)).unwrap();
        assert_eq!(old.store().load().offers, 0, "old owner drained");
        let imp: &ImporterActor = sim.get(ActorHandle::of(IMP)).unwrap();
        assert_eq!(
            imp.stats().cold_lookups,
            2,
            "post-rebalance lookup must go cold, not serve the stale entry"
        );
        assert_eq!(imp.stats().resolved, 2, "both lookups resolved the offer");
        assert!(
            !imp.last_resolved.get(&st()).unwrap().is_empty(),
            "the migrated offer is still discoverable"
        );
    }

    #[test]
    fn shard_export_counters_track_placement() {
        let mut sim = build(&[], 1000);
        // Export a second type; whichever shard owns it gets the count.
        let other = ServiceType::new("audio/talk");
        let ring = HashRing::new([T1, T2]);
        let mut audio = ServiceOffer::session(
            other.clone(),
            SessionKind::Conference,
            QosSpec::audio(),
            EXP,
        );
        audio.id = OfferId(2);
        sim.inject(
            SimTime::ZERO,
            EXP,
            ring.node_for(&other).unwrap(),
            TraderMsg::Export(audio),
        );
        sim.run(Until::At(SimTime::ZERO + SimDuration::from_secs(1)));
        assert_eq!(sim.metrics().counter("trader.exports"), 2);
        let total: u64 = [T1, T2]
            .iter()
            .map(|t| sim.metrics().counter(&format!("trader.shard.{t}.offers")))
            .sum();
        assert_eq!(total, 2, "every export lands on exactly one shard counter");
    }
}
