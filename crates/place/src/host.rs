//! The tile host: stores cluster state, serves reads/writes, enforces
//! the migration write-freeze, and streams state in bounded chunks.
//!
//! A host plays two roles in a migration:
//!
//! - **source** — on [`PlaceWire::Freeze`] it snapshots the cluster,
//!   refuses writes (reads keep flowing from the old copy), and
//!   stop-and-wait streams the snapshot to the destination in chunks
//!   planned by [`ChunkPlan`], retrying each chunk a bounded number of
//!   times before reporting [`PlaceWire::TransferFailed`]. The state is
//!   dropped only on [`PlaceWire::Release`] — an aborted transfer
//!   leaves the cluster fully readable (and writable again) at the old
//!   home;
//! - **destination** — chunks are staged per `(cluster, epoch)`,
//!   acknowledged (duplicates re-acknowledged, installed exactly once),
//!   and installed only when [`PlaceWire::Commit`] confirms the
//!   snapshot hash.
//!
//! The freeze window and every write are logged so the
//! `placement-soundness` invariant can independently check that no
//! acknowledged write ever falls inside an active epoch. The
//! `set_quiesce(false)` knob disables the
//! freeze *enforcement* (but not the logging) — the seeded known-bad
//! fixture proving the detector detects lost updates.

use std::collections::{BTreeMap, BTreeSet};

use odp_mgmt::model::ClusterId;
use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};
use odp_streams::transfer::ChunkPlan;

use crate::content_hash;
use crate::wire::{PlaceWire, SpanObs};

/// Timer-tag kinds (high byte) for the host's multiplexed timers.
const TAG_RETRY: u64 = 1 << 56;
const TAG_REPORT: u64 = 2 << 56;
const TAG_MASK: u64 = 0xff << 56;

/// One active outbound transfer (source role).
#[derive(Debug)]
struct Outbound {
    epoch: u64,
    to: NodeId,
    snapshot: Vec<u8>,
    hash: u64,
    plan: ChunkPlan,
    next: u32,
    retries: u32,
    timer: Option<TimerId>,
    failed: bool,
}

/// Staged inbound chunks (destination role).
#[derive(Debug, Default)]
struct Staging {
    chunks: BTreeMap<u32, Vec<u8>>,
    total: Option<u32>,
}

/// One freeze window at the source, for the soundness invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreezeRecord {
    /// The frozen cluster.
    pub cluster: ClusterId,
    /// The migration epoch.
    pub epoch: u64,
    /// When the freeze started.
    pub from: SimTime,
    /// When it ended (`None` while active).
    pub until: Option<SimTime>,
    /// Whether the epoch ended in a release (`true`), an abort
    /// (`false`), or is still open (`None`).
    pub committed: Option<bool>,
}

/// One exactly-once install at the destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallRecord {
    /// The installed cluster.
    pub cluster: ClusterId,
    /// The migration epoch.
    pub epoch: u64,
    /// When it installed.
    pub at: SimTime,
    /// Hash of the installed content.
    pub hash: u64,
}

/// The stats-report cadence.
const REPORT_EVERY: SimDuration = SimDuration::from_millis(100);
/// The per-chunk retransmit delay.
const RETRY_AFTER: SimDuration = SimDuration::from_millis(100);
/// Retransmits of one chunk before the transfer fails.
const MAX_RETRIES: u32 = 3;

/// Stores tiles and runs both ends of the chunked migration protocol.
#[derive(Debug)]
pub struct TileHostActor {
    me: NodeId,
    controller: NodeId,
    tiles: BTreeMap<ClusterId, Vec<u8>>,
    redirects: BTreeMap<ClusterId, NodeId>,
    write_seqs: BTreeMap<ClusterId, u64>,
    outbound: BTreeMap<ClusterId, Outbound>,
    staging: BTreeMap<(u32, u64), Staging>,
    aborted: BTreeSet<(u32, u64)>,
    // Telemetry buffered for the next stats report.
    span_buf: Vec<SpanObs>,
    report_timer: Option<TimerId>,
    // Transfer knobs.
    chunk_bytes: usize,
    quiesce: bool,
    // Logs read by tests and the soundness invariant.
    freeze_log: Vec<FreezeRecord>,
    installs: Vec<InstallRecord>,
    writes_in_freeze: Vec<(SimTime, ClusterId, u64)>,
    writes_refused: u64,
}

impl TileHostActor {
    /// A host at `me` reporting telemetry to `controller`.
    pub fn new(me: NodeId, controller: NodeId) -> Self {
        TileHostActor {
            me,
            controller,
            tiles: BTreeMap::new(),
            redirects: BTreeMap::new(),
            write_seqs: BTreeMap::new(),
            outbound: BTreeMap::new(),
            staging: BTreeMap::new(),
            aborted: BTreeSet::new(),
            span_buf: Vec::new(),
            report_timer: None,
            chunk_bytes: 8 * 1024,
            quiesce: true,
            freeze_log: Vec::new(),
            installs: Vec::new(),
            writes_in_freeze: Vec::new(),
            writes_refused: 0,
        }
    }

    /// Seeds a tile this host is home for.
    pub fn add_tile(&mut self, cluster: ClusterId, content: Vec<u8>) {
        self.tiles.insert(cluster, content);
    }

    /// Sets the chunk-size bound for outbound transfers.
    pub fn set_chunk_bytes(&mut self, bytes: usize) {
        self.chunk_bytes = bytes.max(1);
    }

    /// Arms or disarms write-freeze *enforcement*. Disarming keeps the
    /// freeze bookkeeping (the epoch is still logged) but applies
    /// writes that should have been refused — the seeded known-bad
    /// fixture for the `placement-soundness` explorer check.
    pub(crate) fn set_quiesce(&mut self, quiesce: bool) {
        self.quiesce = quiesce;
    }

    /// The tile content currently resident here, if any.
    pub fn tile(&self, cluster: ClusterId) -> Option<&[u8]> {
        self.tiles.get(&cluster).map(Vec::as_slice)
    }

    /// Clusters resident on this host, ascending.
    pub fn resident(&self) -> Vec<ClusterId> {
        self.tiles.keys().copied().collect()
    }

    /// Where a released cluster went, if this host redirected it.
    #[cfg(test)]
    pub(crate) fn redirect(&self, cluster: ClusterId) -> Option<NodeId> {
        self.redirects.get(&cluster).copied()
    }

    /// True while `cluster` is in an active outbound freeze.
    pub fn is_frozen(&self, cluster: ClusterId) -> bool {
        self.outbound.contains_key(&cluster)
    }

    /// Freeze windows this host has run as a source.
    pub fn freeze_log(&self) -> &[FreezeRecord] {
        &self.freeze_log
    }

    /// Exactly-once installs this host has run as a destination.
    pub fn installs(&self) -> &[InstallRecord] {
        &self.installs
    }

    /// Writes applied while their cluster was inside an active freeze
    /// window (only ever non-empty when quiescing is disarmed).
    pub fn writes_in_freeze(&self) -> &[(SimTime, ClusterId, u64)] {
        &self.writes_in_freeze
    }

    /// Writes refused because of an active freeze.
    pub fn writes_refused(&self) -> u64 {
        self.writes_refused
    }

    fn buffer_span(&mut self, ctx: &mut Ctx<'_, PlaceWire>, obs: SpanObs) {
        self.span_buf.push(obs);
        if self.report_timer.is_none() {
            self.report_timer = Some(ctx.set_timer(REPORT_EVERY, TAG_REPORT));
        }
    }

    fn flush_report(&mut self, ctx: &mut Ctx<'_, PlaceWire>) {
        self.report_timer = None;
        if self.span_buf.is_empty() {
            return;
        }
        let spans = std::mem::take(&mut self.span_buf);
        ctx.send(
            self.controller,
            PlaceWire::Stats {
                spans,
                accesses: Vec::new(),
            },
        );
    }

    /// Serves one access, minting the serve child span and buffering
    /// its observation for the controller.
    fn serve_span(
        &mut self,
        ctx: &mut Ctx<'_, PlaceWire>,
        parent: Option<odp_fabric::SpanCarrier>,
    ) {
        let Some(parent) = parent else { return };
        let child = ctx.rng().span_child(&parent);
        let now = ctx.now();
        ctx.span_instant(child, "tile.serve");
        let me = self.me;
        self.buffer_span(
            ctx,
            SpanObs {
                ctx: child,
                kind: "tile.serve".to_owned(),
                node: me,
                opened: now,
                closed: now,
            },
        );
    }

    fn send_chunk(&mut self, ctx: &mut Ctx<'_, PlaceWire>, cluster: ClusterId) {
        let Some(out) = self.outbound.get_mut(&cluster) else {
            return;
        };
        let range = out.plan.range_of(out.next);
        let data = out.snapshot[range].to_vec();
        let bytes = data.len() + 32;
        let msg = PlaceWire::Chunk {
            cluster,
            epoch: out.epoch,
            index: out.next,
            total: out.plan.count(),
            data,
        };
        let to = out.to;
        ctx.send_sized(to, msg, bytes);
        let timer = ctx.set_timer(RETRY_AFTER, TAG_RETRY | cluster.0 as u64);
        if let Some(out) = self.outbound.get_mut(&cluster) {
            out.timer = Some(timer);
        }
    }

    fn fail_transfer(&mut self, ctx: &mut Ctx<'_, PlaceWire>, cluster: ClusterId, reason: &str) {
        let Some(out) = self.outbound.get_mut(&cluster) else {
            return;
        };
        if out.failed {
            return; // already reported; awaiting the controller's Abort
        }
        out.failed = true;
        if let Some(t) = out.timer.take() {
            ctx.cancel_timer(t);
        }
        let epoch = out.epoch;
        ctx.metrics().incr("place.host.transfer_failed");
        ctx.send(
            self.controller,
            PlaceWire::TransferFailed {
                cluster,
                epoch,
                reason: reason.to_owned(),
            },
        );
    }

    fn end_freeze(&mut self, cluster: ClusterId, epoch: u64, now: SimTime, committed: bool) {
        if let Some(rec) = self
            .freeze_log
            .iter_mut()
            .rev()
            .find(|r| r.cluster == cluster && r.epoch == epoch && r.until.is_none())
        {
            rec.until = Some(now);
            rec.committed = Some(committed);
        }
    }

    fn on_wire(&mut self, ctx: &mut Ctx<'_, PlaceWire>, from: NodeId, msg: PlaceWire) {
        match msg {
            PlaceWire::Read { cluster, span } => {
                if self.tiles.contains_key(&cluster) {
                    self.serve_span(ctx, span);
                    ctx.metrics().incr("place.host.reads");
                    ctx.send(from, PlaceWire::ReadOk { cluster });
                } else if let Some(&to) = self.redirects.get(&cluster) {
                    ctx.send(from, PlaceWire::Moved { cluster, to });
                } else {
                    ctx.metrics().incr("place.host.unroutable");
                }
            }
            PlaceWire::Write {
                cluster,
                byte,
                span,
            } => {
                let frozen = self.outbound.contains_key(&cluster);
                if !self.tiles.contains_key(&cluster) {
                    if let Some(&to) = self.redirects.get(&cluster) {
                        ctx.send(from, PlaceWire::Moved { cluster, to });
                    } else {
                        ctx.metrics().incr("place.host.unroutable");
                    }
                    return;
                }
                if frozen && self.quiesce {
                    self.writes_refused += 1;
                    ctx.metrics().incr("place.host.writes_refused");
                    ctx.send(from, PlaceWire::WriteRefused { cluster });
                    return;
                }
                if frozen {
                    // Quiescing disarmed: the lost-update the soundness
                    // invariant exists to catch.
                    let epoch = self.outbound.get(&cluster).map_or(0, |o| o.epoch);
                    self.writes_in_freeze.push((ctx.now(), cluster, epoch));
                }
                let seq = self.write_seqs.entry(cluster).or_insert(0);
                *seq += 1;
                let at = (*seq) as usize;
                if let Some(content) = self.tiles.get_mut(&cluster) {
                    if !content.is_empty() {
                        let i = at % content.len();
                        content[i] = content[i].wrapping_add(byte);
                    }
                }
                self.serve_span(ctx, span);
                ctx.metrics().incr("place.host.writes");
                ctx.send(from, PlaceWire::WriteOk { cluster });
            }
            PlaceWire::Freeze { cluster, epoch, to } => {
                let Some(content) = self.tiles.get(&cluster) else {
                    ctx.send(
                        self.controller,
                        PlaceWire::TransferFailed {
                            cluster,
                            epoch,
                            reason: "not resident".to_owned(),
                        },
                    );
                    return;
                };
                if self.outbound.contains_key(&cluster) {
                    return; // already migrating; controller never does this
                }
                let snapshot = content.clone();
                let hash = content_hash(&snapshot);
                let plan = ChunkPlan::bounded(snapshot.len(), self.chunk_bytes);
                self.freeze_log.push(FreezeRecord {
                    cluster,
                    epoch,
                    from: ctx.now(),
                    until: None,
                    committed: None,
                });
                self.outbound.insert(
                    cluster,
                    Outbound {
                        epoch,
                        to,
                        snapshot,
                        hash,
                        plan,
                        next: 0,
                        retries: 0,
                        timer: None,
                        failed: false,
                    },
                );
                ctx.metrics().incr("place.host.freezes");
                if plan.count() == 0 {
                    ctx.send(
                        self.controller,
                        PlaceWire::TransferDone {
                            cluster,
                            epoch,
                            hash,
                        },
                    );
                } else {
                    self.send_chunk(ctx, cluster);
                }
            }
            PlaceWire::ChunkAck {
                cluster,
                epoch,
                index,
            } => {
                let Some(out) = self.outbound.get_mut(&cluster) else {
                    return;
                };
                if out.epoch != epoch || out.failed || index != out.next {
                    return; // stale or duplicate ack
                }
                if let Some(t) = out.timer.take() {
                    ctx.cancel_timer(t);
                }
                out.next += 1;
                out.retries = 0;
                if out.next >= out.plan.count() {
                    let (epoch, hash) = (out.epoch, out.hash);
                    ctx.send(
                        self.controller,
                        PlaceWire::TransferDone {
                            cluster,
                            epoch,
                            hash,
                        },
                    );
                } else {
                    self.send_chunk(ctx, cluster);
                }
            }
            PlaceWire::Release { cluster, epoch, to } => {
                if let Some(out) = self.outbound.get(&cluster) {
                    if out.epoch != epoch {
                        return;
                    }
                }
                if let Some(out) = self.outbound.remove(&cluster) {
                    if let Some(t) = out.timer {
                        ctx.cancel_timer(t);
                    }
                }
                self.tiles.remove(&cluster);
                self.redirects.insert(cluster, to);
                self.end_freeze(cluster, epoch, ctx.now(), true);
                ctx.metrics().incr("place.host.releases");
            }
            PlaceWire::Abort { cluster, epoch } => {
                // Source role: unfreeze, keep the state.
                if let Some(out) = self.outbound.get(&cluster) {
                    if out.epoch == epoch {
                        if let Some(out) = self.outbound.remove(&cluster) {
                            if let Some(t) = out.timer {
                                ctx.cancel_timer(t);
                            }
                        }
                        self.end_freeze(cluster, epoch, ctx.now(), false);
                        ctx.metrics().incr("place.host.aborts");
                    }
                }
                // Destination role: drop the staging.
                self.staging.remove(&(cluster.0, epoch));
                self.aborted.insert((cluster.0, epoch));
            }
            PlaceWire::Chunk {
                cluster,
                epoch,
                index,
                total,
                data,
            } => {
                if self.aborted.contains(&(cluster.0, epoch)) {
                    return;
                }
                let staging = self.staging.entry((cluster.0, epoch)).or_default();
                staging.total = Some(total);
                staging.chunks.entry(index).or_insert(data);
                // Always ack — the previous ack may have been lost.
                ctx.send(
                    from,
                    PlaceWire::ChunkAck {
                        cluster,
                        epoch,
                        index,
                    },
                );
            }
            PlaceWire::Commit {
                cluster,
                epoch,
                hash,
            } => {
                let Some(staging) = self.staging.get(&(cluster.0, epoch)) else {
                    ctx.send(
                        self.controller,
                        PlaceWire::InstallFailed {
                            cluster,
                            epoch,
                            reason: "no staging".to_owned(),
                        },
                    );
                    return;
                };
                let complete = staging
                    .total
                    .is_some_and(|t| staging.chunks.len() as u32 == t);
                if !complete {
                    ctx.send(
                        self.controller,
                        PlaceWire::InstallFailed {
                            cluster,
                            epoch,
                            reason: "incomplete staging".to_owned(),
                        },
                    );
                    return;
                }
                let assembled: Vec<u8> = staging
                    .chunks
                    .values()
                    .flat_map(|c| c.iter().copied())
                    .collect();
                if content_hash(&assembled) != hash {
                    ctx.send(
                        self.controller,
                        PlaceWire::InstallFailed {
                            cluster,
                            epoch,
                            reason: "hash mismatch".to_owned(),
                        },
                    );
                    return;
                }
                self.staging.remove(&(cluster.0, epoch));
                self.redirects.remove(&cluster);
                self.tiles.insert(cluster, assembled);
                self.installs.push(InstallRecord {
                    cluster,
                    epoch,
                    at: ctx.now(),
                    hash,
                });
                ctx.metrics().incr("place.host.installs");
                ctx.send(self.controller, PlaceWire::Installed { cluster, epoch });
            }
            // Keep redirects current so late readers chase at most
            // one hop.
            PlaceWire::HomeUpdate { cluster, node }
                if node != self.me && !self.tiles.contains_key(&cluster) =>
            {
                self.redirects.insert(cluster, node);
            }
            // Replies, stats and controller-plane messages are not for
            // hosts; ignore them rather than crash a storage node.
            _ => {}
        }
    }
}

impl Actor<PlaceWire> for TileHostActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, PlaceWire>, from: NodeId, msg: PlaceWire) {
        self.on_wire(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, PlaceWire>, _timer: TimerId, tag: u64) {
        match tag & TAG_MASK {
            TAG_REPORT => self.flush_report(ctx),
            TAG_RETRY => {
                let cluster = ClusterId((tag & 0xffff_ffff) as u32);
                let Some(out) = self.outbound.get_mut(&cluster) else {
                    return;
                };
                if out.failed {
                    return;
                }
                out.timer = None;
                if out.retries >= MAX_RETRIES {
                    self.fail_transfer(ctx, cluster, "chunk retry budget exhausted");
                } else {
                    out.retries += 1;
                    ctx.metrics().incr("place.host.chunk_retries");
                    self.send_chunk(ctx, cluster);
                }
            }
            _ => {}
        }
    }

    fn on_peer_down(&mut self, ctx: &mut Ctx<'_, PlaceWire>, peer: NodeId) {
        // Only a live transport raises this: the destination died
        // mid-transfer. Fail fast instead of burning the retry budget.
        let failing: Vec<ClusterId> = self
            .outbound
            .iter()
            .filter(|(_, o)| o.to == peer && !o.failed)
            .map(|(&c, _)| c)
            .collect();
        for cluster in failing {
            self.fail_transfer(ctx, cluster, "destination down");
        }
    }
}
