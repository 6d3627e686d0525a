//! Stream interfaces and bindings — the computational-viewpoint model
//! the paper reports ODP adding ("extensions have been made in terms of
//! stream interfaces and stream bindings. The draft standards also
//! include text on quality of service annotations of interfaces",
//! §4.2.2).
//!
//! A [`StreamInterface`] is a typed endpoint (media kind + direction)
//! annotated with a [`QosSpec`]. A [`BindingRegistry`] type-checks and
//! QoS-negotiates bindings between one producer and one or more consumers
//! (multicast bindings for "a video source displayed in a number of
//! distinct video windows simultaneously").

use std::collections::BTreeMap;
use std::fmt;

use odp_sim::net::NodeId;

use crate::media::MediaKind;
use crate::qos::QosSpec;

/// Names a stream interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InterfaceId(pub u32);

/// Whether an interface produces or consumes media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Emits frames.
    Producer,
    /// Receives frames.
    Consumer,
}

/// A QoS-annotated, typed stream endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamInterface {
    /// Its name.
    pub id: InterfaceId,
    /// The hosting node.
    pub node: NodeId,
    /// Media type (compatibility-checked at bind time).
    pub kind: MediaKind,
    /// Producer or consumer.
    pub direction: Direction,
    /// Producer: the QoS it can offer. Consumer: the QoS it requires.
    pub qos: QosSpec,
}

/// Names a binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BindingId(pub u32);

/// The lifecycle of a binding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BindingState {
    /// Running at the agreed contract.
    Established(QosSpec),
    /// Running at a renegotiated (weaker) contract.
    Degraded(QosSpec),
    /// Torn down.
    Failed,
}

/// A bound stream: one producer, N consumers, one agreed contract.
#[derive(Debug, Clone)]
pub struct StreamBinding {
    /// Its name.
    pub id: BindingId,
    /// The producing interface.
    pub producer: InterfaceId,
    /// The consuming interfaces.
    pub consumers: Vec<InterfaceId>,
    /// Current state.
    pub state: BindingState,
}

/// Why a bind attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub enum BindError {
    /// No such interface.
    UnknownInterface(InterfaceId),
    /// Producer/consumer roles are wrong.
    WrongDirection(InterfaceId),
    /// Media kinds differ.
    TypeMismatch {
        /// The producer's kind.
        producer: MediaKind,
        /// The offending consumer's kind.
        consumer: MediaKind,
    },
    /// The producer cannot satisfy a consumer even after degradation.
    QosUnsatisfiable {
        /// The consumer whose requirement failed.
        consumer: InterfaceId,
    },
    /// A binding needs at least one consumer.
    NoConsumers,
    /// Admitting the binding would exceed the producing node's capacity.
    AdmissionDenied {
        /// The producing node.
        node: NodeId,
        /// Its configured budget (frames/s across all its streams).
        budget_fps: u32,
        /// The load the new binding would bring it to.
        would_be_fps: u32,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::UnknownInterface(i) => write!(f, "unknown interface {}", i.0),
            BindError::WrongDirection(i) => write!(f, "interface {} has the wrong direction", i.0),
            BindError::TypeMismatch { producer, consumer } => {
                write!(f, "type mismatch: producer {producer} vs consumer {consumer}")
            }
            BindError::QosUnsatisfiable { consumer } => {
                write!(f, "qos unsatisfiable for consumer {}", consumer.0)
            }
            BindError::NoConsumers => write!(f, "binding requires at least one consumer"),
            BindError::AdmissionDenied { node, budget_fps, would_be_fps } => write!(
                f,
                "admission denied on {node}: {would_be_fps} fps would exceed the {budget_fps} fps budget"
            ),
        }
    }
}

impl std::error::Error for BindError {}

/// Registers interfaces and creates type-checked, QoS-negotiated
/// bindings.
///
/// # Examples
///
/// ```
/// use odp_sim::net::NodeId;
/// use odp_streams::binding::{BindingRegistry, Direction, InterfaceId, StreamInterface};
/// use odp_streams::media::MediaKind;
/// use odp_streams::qos::QosSpec;
///
/// let mut reg = BindingRegistry::new();
/// reg.register(StreamInterface {
///     id: InterfaceId(0), node: NodeId(0), kind: MediaKind::Video,
///     direction: Direction::Producer, qos: QosSpec::video(),
/// });
/// reg.register(StreamInterface {
///     id: InterfaceId(1), node: NodeId(1), kind: MediaKind::Video,
///     direction: Direction::Consumer, qos: QosSpec::video(),
/// });
/// let binding = reg.bind(InterfaceId(0), &[InterfaceId(1)])?;
/// assert_eq!(binding.consumers.len(), 1);
/// # Ok::<(), odp_streams::binding::BindError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct BindingRegistry {
    interfaces: BTreeMap<InterfaceId, StreamInterface>,
    bindings: BTreeMap<BindingId, StreamBinding>,
    /// Per-node admission budgets in aggregate frames/s (a deliberately
    /// simple capacity unit; absent = unlimited).
    budgets: BTreeMap<NodeId, u32>,
    next_binding: u32,
}

impl BindingRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        BindingRegistry::default()
    }

    /// Registers an interface.
    pub fn register(&mut self, iface: StreamInterface) {
        self.interfaces.insert(iface.id, iface);
    }

    /// Looks up an interface.
    pub fn interface(&self, id: InterfaceId) -> Option<&StreamInterface> {
        self.interfaces.get(&id)
    }

    /// Sets a node's admission budget: the aggregate frames/s its live
    /// bindings may carry. Unset nodes are unlimited.
    pub fn set_node_budget_fps(&mut self, node: NodeId, budget_fps: u32) {
        self.budgets.insert(node, budget_fps);
    }

    /// The aggregate contracted frames/s currently admitted on `node`'s
    /// producing interfaces (failed bindings do not count).
    pub fn admitted_fps(&self, node: NodeId) -> u32 {
        self.bindings
            .values()
            .filter_map(|b| {
                let spec = match b.state {
                    BindingState::Established(s) | BindingState::Degraded(s) => s,
                    BindingState::Failed => return None,
                };
                let producer = self.interfaces.get(&b.producer)?;
                (producer.node == node).then_some(spec.throughput_fps)
            })
            .sum()
    }

    /// Binds `producer` to `consumers`: checks directions and media
    /// types, requires the offer to satisfy **every** consumer, and
    /// establishes one shared contract — the pointwise-strictest of the
    /// consumer requirements, since a single multicast stream must meet
    /// them all. (Degrading an established binding is a separate,
    /// explicit renegotiation via [`BindingRegistry::degrade`].)
    ///
    /// # Errors
    ///
    /// See [`BindError`].
    pub fn bind(
        &mut self,
        producer: InterfaceId,
        consumers: &[InterfaceId],
    ) -> Result<StreamBinding, BindError> {
        if consumers.is_empty() {
            return Err(BindError::NoConsumers);
        }
        let p = self
            .interfaces
            .get(&producer)
            .ok_or(BindError::UnknownInterface(producer))?;
        if p.direction != Direction::Producer {
            return Err(BindError::WrongDirection(producer));
        }
        let mut agreed: Option<QosSpec> = None;
        for &cid in consumers {
            let c = self
                .interfaces
                .get(&cid)
                .ok_or(BindError::UnknownInterface(cid))?;
            if c.direction != Direction::Consumer {
                return Err(BindError::WrongDirection(cid));
            }
            if c.kind != p.kind {
                return Err(BindError::TypeMismatch {
                    producer: p.kind,
                    consumer: c.kind,
                });
            }
            if !p.qos.satisfies(&c.qos) {
                return Err(BindError::QosUnsatisfiable { consumer: cid });
            }
            agreed = Some(match agreed {
                None => c.qos,
                Some(prev) => strictest(prev, c.qos),
            });
        }
        let agreed = agreed.ok_or(BindError::NoConsumers)?;
        // Admission control: the producing node must have headroom for
        // the new contract on top of everything already admitted.
        let node = p.node;
        if let Some(&budget) = self.budgets.get(&node) {
            let would_be = self.admitted_fps(node) + agreed.throughput_fps;
            if would_be > budget {
                return Err(BindError::AdmissionDenied {
                    node,
                    budget_fps: budget,
                    would_be_fps: would_be,
                });
            }
        }
        let id = BindingId(self.next_binding);
        self.next_binding += 1;
        let binding = StreamBinding {
            id,
            producer,
            consumers: consumers.to_vec(),
            state: BindingState::Established(agreed),
        };
        self.bindings.insert(id, binding.clone());
        Ok(binding)
    }

    /// Binds a *trader-resolved* producer: registers the interface the
    /// trader handed back (typically hosted on a node this registry has
    /// never seen) and binds it to local consumers in one step. The
    /// normal [`BindingRegistry::bind`] checks all apply, so a stale
    /// trader resolution still fails cleanly rather than establishing a
    /// broken contract.
    ///
    /// # Errors
    ///
    /// See [`BindError`].
    pub fn bind_resolved(
        &mut self,
        producer: StreamInterface,
        consumers: &[InterfaceId],
    ) -> Result<StreamBinding, BindError> {
        self.register(producer);
        self.bind(producer.id, consumers)
    }

    /// Downgrades a binding's contract (renegotiation outcome).
    pub fn degrade(&mut self, id: BindingId, to: QosSpec) -> bool {
        match self.bindings.get_mut(&id) {
            Some(b) => {
                b.state = BindingState::Degraded(to);
                true
            }
            None => false,
        }
    }

    /// Tears a binding down.
    pub fn unbind(&mut self, id: BindingId) -> bool {
        match self.bindings.get_mut(&id) {
            Some(b) => {
                b.state = BindingState::Failed;
                true
            }
            None => false,
        }
    }

    /// Looks up a binding.
    pub fn binding(&self, id: BindingId) -> Option<&StreamBinding> {
        self.bindings.get(&id)
    }
}

/// The pointwise-stricter of two specs (what a shared multicast stream
/// must deliver so every consumer is satisfied).
fn strictest(a: QosSpec, b: QosSpec) -> QosSpec {
    QosSpec {
        throughput_fps: a.throughput_fps.max(b.throughput_fps),
        latency_bound: a.latency_bound.min(b.latency_bound),
        jitter_bound: a.jitter_bound.min(b.jitter_bound),
        loss_bound: a.loss_bound.min(b.loss_bound),
        min_connectivity: a.min_connectivity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with(kind_c: MediaKind, qos_c: QosSpec) -> BindingRegistry {
        let mut reg = BindingRegistry::new();
        reg.register(StreamInterface {
            id: InterfaceId(0),
            node: NodeId(0),
            kind: MediaKind::Video,
            direction: Direction::Producer,
            qos: QosSpec::video(),
        });
        reg.register(StreamInterface {
            id: InterfaceId(1),
            node: NodeId(1),
            kind: kind_c,
            direction: Direction::Consumer,
            qos: qos_c,
        });
        reg
    }

    #[test]
    fn successful_bind_establishes_a_contract() {
        let mut reg = reg_with(MediaKind::Video, QosSpec::video());
        let b = reg.bind(InterfaceId(0), &[InterfaceId(1)]).unwrap();
        assert!(matches!(b.state, BindingState::Established(_)));
        assert!(reg.binding(b.id).is_some());
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut reg = reg_with(MediaKind::Audio, QosSpec::audio());
        let err = reg.bind(InterfaceId(0), &[InterfaceId(1)]).unwrap_err();
        assert!(matches!(err, BindError::TypeMismatch { .. }));
    }

    #[test]
    fn wrong_direction_is_rejected() {
        let mut reg = reg_with(MediaKind::Video, QosSpec::video());
        assert!(matches!(
            reg.bind(InterfaceId(1), &[InterfaceId(0)]),
            Err(BindError::WrongDirection(_))
        ));
    }

    #[test]
    fn unknown_interfaces_and_empty_consumer_lists_error() {
        let mut reg = reg_with(MediaKind::Video, QosSpec::video());
        assert!(matches!(
            reg.bind(InterfaceId(9), &[InterfaceId(1)]),
            Err(BindError::UnknownInterface(_))
        ));
        assert!(matches!(
            reg.bind(InterfaceId(0), &[]),
            Err(BindError::NoConsumers)
        ));
    }

    #[test]
    fn multicast_binding_agrees_on_the_strictest_consumer() {
        let mut reg = reg_with(MediaKind::Video, QosSpec::video());
        reg.register(StreamInterface {
            id: InterfaceId(2),
            node: NodeId(2),
            kind: MediaKind::Video,
            direction: Direction::Consumer,
            qos: QosSpec::mobile_video(), // much weaker requirement
        });
        let b = reg
            .bind(InterfaceId(0), &[InterfaceId(1), InterfaceId(2)])
            .unwrap();
        let BindingState::Established(spec) = b.state else {
            panic!("expected establishment");
        };
        // The shared stream must meet the *strict* consumer (25 fps,
        // 150 ms) — the tolerant mobile consumer simply gets more.
        assert_eq!(spec.throughput_fps, 25);
        assert_eq!(spec.latency_bound, QosSpec::video().latency_bound);
    }

    #[test]
    fn unsatisfiable_consumer_fails_the_bind() {
        let demanding = QosSpec {
            throughput_fps: 1000,
            ..QosSpec::video()
        };
        let mut reg = reg_with(MediaKind::Video, demanding);
        assert!(matches!(
            reg.bind(InterfaceId(0), &[InterfaceId(1)]),
            Err(BindError::QosUnsatisfiable { .. })
        ));
    }

    #[test]
    fn admission_control_enforces_node_budgets() {
        let mut reg = reg_with(MediaKind::Video, QosSpec::video());
        reg.register(StreamInterface {
            id: InterfaceId(2),
            node: NodeId(2),
            kind: MediaKind::Video,
            direction: Direction::Consumer,
            qos: QosSpec::video(),
        });
        // Budget fits exactly one 25 fps video binding.
        reg.set_node_budget_fps(NodeId(0), 40);
        let b1 = reg.bind(InterfaceId(0), &[InterfaceId(1)]).unwrap();
        assert_eq!(reg.admitted_fps(NodeId(0)), 25);
        let err = reg.bind(InterfaceId(0), &[InterfaceId(2)]).unwrap_err();
        assert!(
            matches!(
                err,
                BindError::AdmissionDenied {
                    would_be_fps: 50,
                    budget_fps: 40,
                    ..
                }
            ),
            "{err:?}"
        );
        // Tearing the first binding down frees the budget.
        reg.unbind(b1.id);
        assert_eq!(reg.admitted_fps(NodeId(0)), 0);
        assert!(reg.bind(InterfaceId(0), &[InterfaceId(2)]).is_ok());
    }

    #[test]
    fn unbudgeted_nodes_admit_everything() {
        let mut reg = reg_with(MediaKind::Video, QosSpec::video());
        for _ in 0..10 {
            assert!(reg.bind(InterfaceId(0), &[InterfaceId(1)]).is_ok());
        }
        assert_eq!(reg.admitted_fps(NodeId(0)), 250);
    }

    #[test]
    fn bind_resolved_registers_and_binds_a_foreign_producer() {
        // Only the consumer is known locally; the producer arrives from
        // a trader lookup.
        let mut reg = BindingRegistry::new();
        reg.register(StreamInterface {
            id: InterfaceId(1),
            node: NodeId(1),
            kind: MediaKind::Video,
            direction: Direction::Consumer,
            qos: QosSpec::video(),
        });
        let resolved = StreamInterface {
            id: InterfaceId(40),
            node: NodeId(9),
            kind: MediaKind::Video,
            direction: Direction::Producer,
            qos: QosSpec::video(),
        };
        let b = reg.bind_resolved(resolved, &[InterfaceId(1)]).unwrap();
        assert!(matches!(b.state, BindingState::Established(_)));
        assert_eq!(reg.interface(InterfaceId(40)).unwrap().node, NodeId(9));
        // A resolved *consumer* interface still fails direction checks.
        let bogus = StreamInterface {
            id: InterfaceId(41),
            node: NodeId(9),
            kind: MediaKind::Video,
            direction: Direction::Consumer,
            qos: QosSpec::video(),
        };
        assert!(matches!(
            reg.bind_resolved(bogus, &[InterfaceId(1)]),
            Err(BindError::WrongDirection(_))
        ));
    }

    #[test]
    fn degrade_and_unbind_update_state() {
        let mut reg = reg_with(MediaKind::Video, QosSpec::video());
        let b = reg.bind(InterfaceId(0), &[InterfaceId(1)]).unwrap();
        assert!(reg.degrade(b.id, QosSpec::mobile_video()));
        assert!(matches!(
            reg.binding(b.id).unwrap().state,
            BindingState::Degraded(_)
        ));
        assert!(reg.unbind(b.id));
        assert!(matches!(
            reg.binding(b.id).unwrap().state,
            BindingState::Failed
        ));
        assert!(!reg.degrade(BindingId(99), QosSpec::video()));
    }
}
