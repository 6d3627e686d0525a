//! The placement subsystem's wire envelope.
//!
//! One message type carries both planes so the whole protocol is
//! hostable on any backend with a single codec:
//!
//! - the **workload plane** — tile reads/writes with piggybacked
//!   [`SpanCarrier`]s, stale-home redirects, and the periodic
//!   [`PlaceWire::Stats`] reports (shipped span observations plus
//!   per-cluster access counts) the controller feeds on;
//! - the **migration plane** — the freeze → chunk → install → release
//!   handshake between the controller and the two tile hosts.
//!
//! Both codecs are declared, not written: the generated decoders are
//! total, so truncated or hostile bytes yield a typed
//! [`odp_net::error::NetError`], never a panic (`tests/wire_properties.rs`
//! feeds them through `odp_net::wire::laws`).

use odp_fabric::SpanCarrier;
use odp_mgmt::model::ClusterId;
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

use odp_awareness::bus::CoopEvent;

/// One closed span observed at a site, shipped to the controller so it
/// can rebuild the causal DAG in its own
/// [`odp_telemetry::collector::Collector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanObs {
    /// The span's identity and parent link.
    pub ctx: SpanCarrier,
    /// Span kind (`tile.access.c<id>` roots, `tile.serve` children).
    pub kind: String,
    /// The node the span ran on.
    pub node: NodeId,
    /// When it opened.
    pub opened: SimTime,
    /// When it closed.
    pub closed: SimTime,
}

odp_net::wire_struct!(SpanObs {
    ctx,
    kind,
    node,
    opened,
    closed
});

/// The placement protocol envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceWire {
    // ---- workload plane -------------------------------------------------
    /// Editor → home: read the cluster.
    Read {
        /// Target cluster.
        cluster: ClusterId,
        /// The editor's root `tile.access.c<id>` span.
        span: Option<SpanCarrier>,
    },
    /// Home → editor: read served.
    ReadOk {
        /// The cluster read.
        cluster: ClusterId,
    },
    /// Editor → home: write `byte` into the cluster.
    Write {
        /// Target cluster.
        cluster: ClusterId,
        /// Payload byte (the scenario paints single bytes; real tiles
        /// would carry patches).
        byte: u8,
        /// The editor's root span.
        span: Option<SpanCarrier>,
    },
    /// Home → editor: write applied.
    WriteOk {
        /// The cluster written.
        cluster: ClusterId,
    },
    /// Home → editor: the cluster is write-frozen mid-migration; retry
    /// after a short backoff.
    WriteRefused {
        /// The frozen cluster.
        cluster: ClusterId,
    },
    /// Old home → editor: the cluster moved; re-send to `to`.
    Moved {
        /// The moved cluster.
        cluster: ClusterId,
        /// Its new home.
        to: NodeId,
    },
    /// Site → controller: buffered span observations plus per-cluster
    /// access counts since the last report.
    Stats {
        /// Closed spans observed at the reporting site.
        spans: Vec<SpanObs>,
        /// Per-cluster accesses completed since the last report.
        accesses: Vec<(u32, u64)>,
    },
    /// Controller → everyone: authoritative home for a cluster.
    HomeUpdate {
        /// The cluster.
        cluster: ClusterId,
        /// Its (new) home.
        node: NodeId,
    },
    /// Session manager → controller: the session view changed (editors
    /// joined/departed); usage from departed members is forgotten.
    ViewChange {
        /// Monotonically increasing view number.
        view_id: u64,
        /// The new membership.
        members: Vec<NodeId>,
    },
    /// Controller → observer: a cooperation event surfaced by the
    /// controller's awareness bus (placement notices).
    Notice(CoopEvent),

    // ---- migration plane ------------------------------------------------
    /// Controller → source host: freeze writes on `cluster` and stream
    /// its state to `to` under `epoch`.
    Freeze {
        /// The cluster to move.
        cluster: ClusterId,
        /// The migration epoch (unique per attempt).
        epoch: u64,
        /// The destination host.
        to: NodeId,
    },
    /// Source → destination: one bounded chunk of cluster state.
    Chunk {
        /// The cluster in transfer.
        cluster: ClusterId,
        /// The migration epoch.
        epoch: u64,
        /// Chunk index (0-based, stop-and-wait).
        index: u32,
        /// Total chunks in this transfer.
        total: u32,
        /// The chunk's bytes.
        data: Vec<u8>,
    },
    /// Destination → source: chunk received (possibly a re-ack of a
    /// retransmitted duplicate).
    ChunkAck {
        /// The cluster in transfer.
        cluster: ClusterId,
        /// The migration epoch.
        epoch: u64,
        /// The acknowledged chunk.
        index: u32,
    },
    /// Source → controller: all chunks acknowledged; `hash` is the
    /// freeze-time snapshot hash the install must reproduce.
    TransferDone {
        /// The cluster transferred.
        cluster: ClusterId,
        /// The migration epoch.
        epoch: u64,
        /// FNV-1a of the snapshot.
        hash: u64,
    },
    /// Source → controller: the transfer failed (retry budget exhausted
    /// or destination declared down); the source keeps the state.
    TransferFailed {
        /// The cluster whose transfer failed.
        cluster: ClusterId,
        /// The migration epoch.
        epoch: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Controller → destination: install the staged state if complete
    /// and its hash matches.
    Commit {
        /// The cluster to install.
        cluster: ClusterId,
        /// The migration epoch.
        epoch: u64,
        /// Expected snapshot hash.
        hash: u64,
    },
    /// Destination → controller: staged state installed exactly once.
    Installed {
        /// The installed cluster.
        cluster: ClusterId,
        /// The migration epoch.
        epoch: u64,
    },
    /// Destination → controller: install refused (incomplete staging or
    /// hash mismatch).
    InstallFailed {
        /// The cluster that failed to install.
        cluster: ClusterId,
        /// The migration epoch.
        epoch: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Controller → source: the destination installed; drop the state,
    /// unfreeze, and redirect future requests to `to`.
    Release {
        /// The migrated cluster.
        cluster: ClusterId,
        /// The migration epoch.
        epoch: u64,
        /// The new home.
        to: NodeId,
    },
    /// Controller → source and destination: the migration is abandoned;
    /// the source unfreezes and keeps the state, the destination drops
    /// its staging.
    Abort {
        /// The cluster whose migration aborted.
        cluster: ClusterId,
        /// The migration epoch.
        epoch: u64,
    },
}

odp_net::wire_enum!(PlaceWire {
    0 => Read { cluster, span },
    1 => ReadOk { cluster },
    2 => Write { cluster, byte, span },
    3 => WriteOk { cluster },
    4 => WriteRefused { cluster },
    5 => Moved { cluster, to },
    6 => Stats { spans, accesses },
    7 => HomeUpdate { cluster, node },
    8 => ViewChange { view_id, members },
    9 => Notice(event),
    10 => Freeze { cluster, epoch, to },
    11 => Chunk { cluster, epoch, index, total, data },
    12 => ChunkAck { cluster, epoch, index },
    13 => TransferDone { cluster, epoch, hash },
    14 => TransferFailed { cluster, epoch, reason },
    15 => Commit { cluster, epoch, hash },
    16 => Installed { cluster, epoch },
    17 => InstallFailed { cluster, epoch, reason },
    18 => Release { cluster, epoch, to },
    19 => Abort { cluster, epoch },
});

#[cfg(test)]
mod tests {
    use odp_net::error::NetError;
    use odp_net::wire::WireReader;

    use super::*;

    #[test]
    fn unknown_tag_is_a_typed_error() {
        assert_eq!(
            WireReader::new(&[77]).finish::<PlaceWire>(),
            Err(NetError::BadTag {
                what: "PlaceWire",
                tag: 77
            })
        );
    }
}
