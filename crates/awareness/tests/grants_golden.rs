//! Golden grants: one seeded sequence of publishes on a rights-gated
//! bus — broadcast and direct audiences, per-observer thresholds, a
//! weight function, observers joining and policy edits mid-stream —
//! and every grant list it produced (observer, weight, in order) and
//! every observer's `BusStats`, as recorded in `golden/bus_grants.txt`.
//! A publish loop that grants, weighs, orders or counts differently
//! fails here at the first line that differs.

use std::fmt::Write as _;

use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, ObjectPath, RbacPolicy, RoleId};
use odp_access::rights::Rights;
use odp_awareness::bus::{CoopEvent, CoopKind, CoopMode, EventBus};
use odp_awareness::events::ActivityKind;
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

const GOLDEN: &str = include_str!("golden/bus_grants.txt");

const SEED: u64 = 0x6772_616e_7473;
const STEPS: u32 = 600;
const NODES: u32 = 8;
const PATHS: [&str; 5] = ["doc/a", "doc/b", "doc/a/x", "other/1", "obj/9"];
const PREFIXES: [&str; 4] = ["doc", "doc/a", "other", ""];

/// SplitMix64: the sequence depends on nothing outside this file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

fn kind(draw: u32) -> CoopKind {
    let activities = [
        ActivityKind::Edit,
        ActivityKind::View,
        ActivityKind::Enter,
        ActivityKind::Leave,
        ActivityKind::Gesture,
        ActivityKind::Move,
    ];
    match draw % 10 {
        0..=5 => CoopKind::Activity(activities[draw as usize % 6]),
        6 => CoopKind::LockGranted {
            mode: CoopMode::Exclusive,
        },
        7 => CoopKind::FloorIdle,
        8 => CoopKind::SessionSwitched {
            from: "tight".into(),
            to: "loose".into(),
        },
        _ => CoopKind::RemoteOp {
            site: NodeId(draw % NODES),
            seq: u64::from(draw),
        },
    }
}

/// Scores by observer, actor and the kind of activity: several weights
/// land exactly on the thresholds below, and some at zero.
fn weight(observer: NodeId, event: &CoopEvent) -> f64 {
    let activity = event.kind.activity() as u32;
    f64::from((observer.0 * 5 + event.actor.0 * 3 + activity) % 5) / 4.0
}

const THRESHOLDS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

fn stats_lines(out: &mut String, step: u32, bus: &EventBus) {
    for n in (0..NODES).map(NodeId) {
        if let Some(s) = bus.stats(n) {
            writeln!(
                out,
                "s{step} {n} received {} low {} rights {}",
                s.received, s.suppressed_low_weight, s.suppressed_by_rights
            )
            .unwrap();
        }
    }
}

/// The transcript of the seeded sequence: one line per step, and every
/// observer's statistics every fifty steps and at the end.
fn transcript() -> String {
    let mut rng = Rng(SEED);
    let mut bus = EventBus::new();
    bus.set_weight_fn(Box::new(weight));
    let mut policy = RbacPolicy::new();
    policy.add_rule(RoleId(0), "doc".into(), Rights::READ, Effect::Allow);
    policy.add_rule(RoleId(1), "".into(), Rights::ALL, Effect::Allow);
    for s in 0..NODES {
        policy.assign(Subject(s), RoleId(s % 3));
    }
    bus.set_policy(policy);
    for n in 0..NODES - 2 {
        bus.register(NodeId(n), THRESHOLDS[n as usize % 4]);
    }
    let shared: Vec<ObjectPath> = PATHS.iter().map(ObjectPath::new).collect();
    let mut out = String::new();
    for step in 0..STEPS {
        let draw = rng.below(100);
        let (a, b, c) = (rng.below(64), rng.below(64), rng.below(64));
        let role = RoleId(b % 3);
        match draw {
            0..=69 => {
                let path = shared[a as usize % PATHS.len()].clone();
                let actor = NodeId(b % NODES);
                let kind = kind(c);
                let label = kind.label();
                let event = if a % 4 == 0 {
                    CoopEvent::direct(actor, NodeId(c % NODES), path, SimTime::ZERO, kind)
                } else {
                    CoopEvent::broadcast(actor, path, SimTime::ZERO, kind)
                };
                write!(
                    out,
                    "p{step} {actor} {:?} {} {label}:",
                    event.audience, event.artefact
                )
                .unwrap();
                for d in bus.publish(event) {
                    write!(out, " {}={:?}", d.observer, d.weight).unwrap();
                }
                out.push('\n');
            }
            70..=79 => {
                let (rights, effect) = [
                    (Rights::READ, Effect::Allow),
                    (Rights::ALL, Effect::Allow),
                    (Rights::READ, Effect::Deny),
                    (Rights::WRITE, Effect::Allow),
                ][a as usize % 4];
                let prefix = PREFIXES[c as usize % 4];
                bus.policy_mut()
                    .add_rule(role, prefix.into(), rights, effect);
                writeln!(
                    out,
                    "e{step} rule {role:?} {prefix:?} {rights:?} {effect:?}"
                )
                .unwrap();
            }
            80..=85 => {
                let subject = Subject(a % NODES);
                bus.policy_mut().assign(subject, role);
                writeln!(out, "e{step} assign {subject:?} {role:?}").unwrap();
            }
            86..=89 => {
                let subject = Subject(a % NODES);
                bus.policy_mut().unassign(subject, role);
                writeln!(out, "e{step} unassign {subject:?} {role:?}").unwrap();
            }
            90..=93 => {
                let on = a % 3 != 0;
                bus.set_rights_gate(on);
                writeln!(out, "e{step} gate {on}").unwrap();
            }
            _ => {
                let observer = NodeId(a % NODES);
                let threshold = THRESHOLDS[c as usize % 4];
                bus.register(observer, threshold);
                writeln!(out, "e{step} register {observer} {threshold:?}").unwrap();
            }
        }
        if step % 50 == 49 {
            stats_lines(&mut out, step, &bus);
        }
    }
    writeln!(out, "suppressed_by_rights {}", bus.suppressed_by_rights()).unwrap();
    out
}

#[test]
fn a_seeded_publish_sequence_grants_what_the_golden_records() {
    let got = transcript();
    for (line, (got, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "golden/bus_grants.txt line {}", line + 1);
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "golden/bus_grants.txt length"
    );
}
