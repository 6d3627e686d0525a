//! Integration across subsystems: one scenario threading sessions,
//! access control with negotiation, awareness with the spatial model,
//! and mobility — the "open" cooperative work the paper motivates.

use cscw::access::matrix::Subject;
use cscw::access::negotiation::Negotiator;
use cscw::access::rbac::{Effect, RoleId};
use cscw::access::rights::Rights;
use cscw::awareness::bus::{CoopEvent, EventBus};
use cscw::awareness::spatial::{Position, SpatialBody, SpatialModel};
use cscw::concurrency::store::{ObjectId as MobObj, ObjectStore};
use cscw::core::session::{Session, SessionId, SessionMode};
use cscw::core::workspace::{ObjectId, SharedWorkspace};
use cscw::mobility::host::MobileHost;
use cscw::mobility::reintegration::ConflictPolicy;
use cscw::streams::binding::{BindingRegistry, Direction, InterfaceId, StreamInterface};
use cscw::streams::media::MediaKind;
use cscw::streams::qos::{negotiate, NegotiationOutcome, QosSpec};
use cscw::trader::federation::{DomainId, Federation};
use cscw::trader::offer::{ServiceOffer, ServiceType};
use cscw::trader::select::SelectionPolicy;
use cscw::trader::store::ShardedStore;
use odp_sim::net::{Connectivity, NodeId};
use odp_sim::time::SimTime;
use std::sync::{Arc, Mutex};

/// A cross-organisation co-authoring session: a contractor must
/// negotiate write rights, edits flow as spatially weighted awareness,
/// and a mobile member's offline work reintegrates.
#[test]
fn cross_organisation_co_authoring() {
    let author = NodeId(0);
    let contractor = NodeId(1);
    let mobile = NodeId(2);

    // --- Session across the matrix -------------------------------------
    let mut session = Session::new(SessionId(1), SessionMode::SYNC_DISTRIBUTED);
    for n in [author, contractor, mobile] {
        session.join(n).expect("fresh membership");
    }
    session.share("project/spec");

    // --- Workspace with role-based policy -------------------------------
    let mut ws = SharedWorkspace::new();
    ws.policy_mut()
        .add_rule(RoleId(1), "project".into(), Rights::ALL, Effect::Allow);
    ws.policy_mut()
        .add_rule(RoleId(2), "project".into(), Rights::READ, Effect::Allow);
    ws.policy_mut().assign(Subject(author.0), RoleId(1));
    ws.policy_mut().assign(Subject(contractor.0), RoleId(2));
    ws.policy_mut().assign(Subject(mobile.0), RoleId(1));
    ws.create_artefact(ObjectId(1), "project/spec", "v0: skeleton");
    for n in [author, contractor, mobile] {
        ws.register_observer(n, 0.0);
    }

    // The contractor (read-only role) cannot write yet.
    assert!(ws
        .write(contractor, ObjectId(1), "sneaky edit", SimTime::ZERO)
        .is_err());

    // --- Rights negotiation ---------------------------------------------
    let mut negotiator = Negotiator::new();
    let ask = negotiator.request(
        Subject(contractor.0),
        Subject(author.0),
        "project/spec".into(),
        Rights::READ | Rights::WRITE,
        SimTime::from_secs(10),
    );
    let agreed = negotiator
        .accept(Subject(author.0), ask, SimTime::from_secs(12))
        .expect("author grants");
    // Apply the agreement as a dedicated role.
    let negotiated_role = RoleId(99);
    ws.policy_mut().add_rule(
        negotiated_role,
        agreed.path.clone(),
        agreed.rights,
        Effect::Allow,
    );
    ws.policy_mut()
        .assign(Subject(contractor.0), negotiated_role);

    // --- Spatially weighted awareness ------------------------------------
    let space = Arc::new(Mutex::new(SpatialModel::new()));
    space.lock().unwrap().place(
        author,
        SpatialBody::symmetric(Position::new(0.0, 0.0), 1000.0, 50.0),
    );
    space.lock().unwrap().place(
        contractor,
        SpatialBody::symmetric(Position::new(10.0, 0.0), 1000.0, 50.0),
    );
    space.lock().unwrap().place(
        mobile,
        SpatialBody::symmetric(Position::new(2000.0, 0.0), 1000.0, 50.0),
    );
    let space_for_ws = Arc::clone(&space);
    ws.set_weight_fn(Box::new(move |observer, event| {
        space_for_ws.lock().unwrap().weight(observer, event.actor)
    }));

    // The contractor's (now permitted) edit reaches the nearby author but
    // not the far-away mobile member.
    let deliveries = ws
        .write(
            contractor,
            ObjectId(1),
            "v1: contractor's section",
            SimTime::from_secs(20),
        )
        .expect("negotiated rights in force");
    let observers: Vec<NodeId> = deliveries.iter().map(|d| d.observer).collect();
    assert!(observers.contains(&author), "nearby author is aware");
    assert!(
        !observers.contains(&mobile),
        "distant member is outside the nimbus"
    );

    // --- Mobility: offline work on a parallel artefact -------------------
    // Cooperation events (reintegration conflicts, session transitions)
    // flow over a shared, open bus everyone observes.
    let mut bus = EventBus::new();
    for n in [author, contractor, mobile] {
        bus.register(n, 0.0);
    }
    let mut field_store = ObjectStore::new();
    field_store.create(MobObj(7), "site notes v0");
    let mut host = MobileHost::new(ConflictPolicy::ServerWins);
    host.read(MobObj(7), &mut field_store)
        .expect("cache while connected");
    host.set_connectivity(Connectivity::Disconnected);
    host.write(
        MobObj(7),
        "site notes v1 (offline)",
        &mut field_store,
        SimTime::from_secs(30),
    )
    .expect("cached base");
    let report = host
        .reconnect(mobile, &mut field_store, SimTime::from_secs(40))
        .expect("reintegration");
    let announced = bus.publish_all(report.replay.iter().filter_map(Option::<CoopEvent>::from));
    assert_eq!(report.conflicts(), 0);
    assert!(announced.is_empty(), "clean replays stay quiet on the bus");
    assert_eq!(
        field_store.read(MobObj(7)).expect("exists").value,
        "site notes v1 (offline)"
    );

    // --- Seamless transition to async ------------------------------------
    let t = session.switch_mode(
        author,
        SessionMode::ASYNC_DISTRIBUTED,
        SimTime::from_secs(3600),
    );
    let seam = bus.publish_all([&t]);
    assert_eq!(seam.len(), 2, "the others hear about the mode switch");
    assert_eq!(session.participants().len(), 3, "membership survives");
    assert!(t.cost.as_millis() > 0);
    // The public history carries everything for late joiners.
    assert_eq!(ws.history().len(), 1);
    let glance = ws.at_a_glance();
    assert_eq!(glance.len(), 1);
    assert_eq!(glance[0].who, contractor.0);
}

/// Trader → streams: an importer discovers a video producer through the
/// trading federation, binds to it through the binding registry, and
/// ends up with exactly the contract a direct negotiation would give.
#[test]
fn trader_resolved_producer_binds_with_negotiated_contract() {
    let producer_node = NodeId(10);
    let importer_node = NodeId(20);

    // The producer's interface, advertised to the trader rather than
    // configured into the importer.
    let producer_iface = StreamInterface {
        id: InterfaceId(1),
        node: producer_node,
        kind: MediaKind::Video,
        direction: Direction::Producer,
        qos: QosSpec::video(),
    };
    let mut federation = Federation::new();
    federation.add_domain(DomainId(0), ShardedStore::new([NodeId(100), NodeId(101)]));
    let st = ServiceType::new("video/conference");
    federation
        .domain_mut(DomainId(0))
        .unwrap()
        .export(ServiceOffer::stream(st.clone(), producer_iface))
        .unwrap();

    // The importer is on a weaker path: it asks for mobile-grade video.
    let required = QosSpec::mobile_video();
    let request = cscw::trader::plan::ImportRequest::for_type(st.clone())
        .qos(required)
        .rights(cscw::access::rights::Rights::READ)
        .policy(SelectionPolicy::FirstFit)
        .max_hops(2);
    let resolution = federation
        .resolve(DomainId(0), &request, None)
        .expect("trader resolves the producer");
    assert_eq!(resolution.hops, 0);
    let resolved = *resolution
        .matched
        .offer
        .stream_interface()
        .expect("offer fronts a stream");
    assert_eq!(resolved.node, producer_node);

    // Bind through the registry using the trader-resolved interface.
    let mut registry = BindingRegistry::new();
    registry.register(StreamInterface {
        id: InterfaceId(2),
        node: importer_node,
        kind: MediaKind::Video,
        direction: Direction::Consumer,
        qos: required,
    });
    let binding = registry
        .bind_resolved(resolved, &[InterfaceId(2)])
        .expect("resolved producer binds");

    // The binding's contract is what a direct negotiation would agree.
    let direct = match negotiate(&QosSpec::video(), &required) {
        NegotiationOutcome::Agreed(spec) => spec,
        NegotiationOutcome::BestEffortOnly(best) => panic!("unexpected best-effort: {best:?}"),
    };
    assert_eq!(binding.agreed, direct);
    assert_eq!(
        resolution.matched.agreed, direct,
        "trader and registry agree"
    );
}
