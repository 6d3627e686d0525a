//! The typed service-offer space.
//!
//! An exporter registers a [`ServiceOffer`] with the trader: a named
//! service type, the interface behind it (a continuous-media
//! [`StreamInterface`] or a session endpoint), the QoS the exporter can
//! sustain, the hosting node and free-form properties. Importers ask the
//! trader for offers of a type whose QoS satisfies their requirement
//! (paper §4.2.1: "mechanisms must be provided to locate services in the
//! environment ... the ODP trader is precisely this function").

use std::collections::BTreeMap;
use std::fmt;

use odp_sim::net::NodeId;
use odp_streams::binding::StreamInterface;
use odp_streams::qos::QosSpec;

/// Names a service type ("video/conference", "session/design-review").
///
/// Hierarchical slash-separated names are conventional but not enforced;
/// federation link scopes match on prefixes of this name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceType(pub String);

impl ServiceType {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>) -> Self {
        ServiceType(name.into())
    }

    /// True if this type falls under `prefix` ("video/" covers
    /// "video/conference"; the empty prefix covers everything).
    pub(crate) fn in_scope(&self, prefix: &str) -> bool {
        self.0.starts_with(prefix)
    }
}

impl fmt::Display for ServiceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Names an offer within one trading domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OfferId(pub u64);

impl fmt::Display for OfferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "offer#{}", self.0)
    }
}

/// The flavour of collaborative session an offer fronts (the trader is
/// deliberately ignorant of session internals — `cscw-core` maps its own
/// session machinery onto these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// A real-time conference.
    Conference,
    /// A shared workspace.
    Workspace,
}

/// What an offer actually exports: a stream endpoint or a session entry
/// point.
#[derive(Debug, Clone, PartialEq)]
pub enum OfferedInterface {
    /// A continuous-media producer interface, bindable through
    /// `odp_streams::binding::BindingRegistry`.
    Stream(StreamInterface),
    /// A session endpoint of the given kind.
    Session(SessionKind),
}

/// One entry in the trader's offer space.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOffer {
    /// Assigned by the store at export time.
    pub id: OfferId,
    /// The advertised type.
    pub service_type: ServiceType,
    /// The exported interface.
    pub interface: OfferedInterface,
    /// The QoS the exporter undertakes to sustain.
    pub qos: QosSpec,
    /// The hosting node.
    pub node: NodeId,
    /// Free-form matching properties ("codec" → "h261", ...).
    pub properties: BTreeMap<String, String>,
}

impl ServiceOffer {
    /// An offer fronting a stream producer; QoS and node are taken from
    /// the interface itself. The id is assigned at export.
    pub fn stream(service_type: ServiceType, iface: StreamInterface) -> Self {
        ServiceOffer {
            id: OfferId(0),
            service_type,
            qos: iface.qos,
            node: iface.node,
            interface: OfferedInterface::Stream(iface),
            properties: BTreeMap::new(),
        }
    }

    /// An offer fronting a session endpoint. The id is assigned at
    /// export.
    pub fn session(
        service_type: ServiceType,
        kind: SessionKind,
        qos: QosSpec,
        node: NodeId,
    ) -> Self {
        ServiceOffer {
            id: OfferId(0),
            service_type,
            interface: OfferedInterface::Session(kind),
            qos,
            node,
            properties: BTreeMap::new(),
        }
    }

    /// Builder-style property attachment.
    pub fn with_property(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.properties.insert(key.into(), value.into());
        self
    }

    /// The stream interface, if this offer fronts one.
    pub fn stream_interface(&self) -> Option<&StreamInterface> {
        match &self.interface {
            OfferedInterface::Stream(iface) => Some(iface),
            OfferedInterface::Session(_) => None,
        }
    }
}

// The store error enum used to live here; it is now one surface of the
// unified error. Re-exported so `odp_trader::offer::TraderError` paths
// keep compiling.
pub use crate::error::TraderError;

#[cfg(test)]
mod tests {
    use super::*;
    use odp_streams::binding::{Direction, InterfaceId};
    use odp_streams::media::MediaKind;

    #[test]
    fn scope_prefixes_cover_subtypes() {
        let t = ServiceType::new("video/conference");
        assert!(t.in_scope("video/"));
        assert!(t.in_scope(""));
        assert!(!t.in_scope("audio/"));
    }

    #[test]
    fn stream_offers_inherit_node_and_qos_from_the_interface() {
        let iface = StreamInterface {
            id: InterfaceId(7),
            node: NodeId(3),
            kind: MediaKind::Video,
            direction: Direction::Producer,
            qos: QosSpec::video(),
        };
        let offer = ServiceOffer::stream(ServiceType::new("video/live"), iface)
            .with_property("codec", "h261");
        assert_eq!(offer.node, NodeId(3));
        assert_eq!(offer.qos, QosSpec::video());
        assert_eq!(offer.stream_interface().unwrap().id, InterfaceId(7));
        assert_eq!(
            offer.properties.get("codec").map(String::as_str),
            Some("h261")
        );
    }

    #[test]
    fn session_offers_have_no_stream_interface() {
        let offer = ServiceOffer::session(
            ServiceType::new("session/review"),
            SessionKind::Conference,
            QosSpec::audio(),
            NodeId(1),
        );
        assert!(offer.stream_interface().is_none());
    }
}
