//! Group RPC: invoke an operation on every member of a group and collect
//! replies under a deadline and a quorum policy.
//!
//! The paper (§4.2.2 iv) notes "there is also a requirement to support
//! group invocation, for example if a group of cameras are to be started
//! simultaneously in a conference", and that "group RPC protocols are
//! required which provide bounded real-time performance". The engine here
//! supports both: plain collect-replies invocations, and *group
//! invocations* carrying an agreed future execution instant so all members
//! act simultaneously (skew is then bounded by clock agreement, which in
//! the simulator is exact).

use std::collections::BTreeMap;
use std::sync::Arc;

use odp_fabric::SpanCarrier;
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};

use crate::multicast::GcMsg;

/// The body of a [`GcMsg::RpcRequest`]: one allocation, shared by the
/// envelopes [`RpcEngine::invoke`] addresses to every target.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestBody<P> {
    /// Optional agreed execution instant (group invocation).
    pub execute_at: Option<SimTime>,
    /// Piggybacked telemetry span (the caller's `rpc.call` root).
    pub span: Option<SpanCarrier>,
    /// Application payload.
    pub payload: P,
}

/// The body of a [`GcMsg::RpcReply`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyBody<P> {
    /// Piggybacked telemetry span (the responder's `rpc.serve`).
    pub span: Option<SpanCarrier>,
    /// Application payload.
    pub payload: P,
}

/// How many replies complete a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quorum {
    /// Every target must reply.
    All,
    /// Strictly more than half of the targets.
    Majority,
    /// The first reply completes the call.
    First,
    /// At least `n` replies.
    AtLeast(usize),
}

impl Quorum {
    /// The number of replies needed for `targets` targets.
    pub fn required(self, targets: usize) -> usize {
        match self {
            Quorum::All => targets,
            Quorum::Majority => targets / 2 + 1,
            Quorum::First => 1.min(targets),
            Quorum::AtLeast(n) => n.min(targets),
        }
    }
}

/// Why a call finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallStatus {
    /// The quorum was met.
    Completed,
    /// The deadline passed first.
    TimedOut,
}

/// The result of a finished group call.
#[derive(Debug, Clone)]
pub struct CallOutcome<P> {
    /// Correlation id.
    pub call: u64,
    /// Completed or timed out.
    pub status: CallStatus,
    /// Replies gathered (keyed by responder), possibly short of quorum on
    /// timeout.
    pub replies: BTreeMap<NodeId, P>,
    /// When the call started.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
}

impl<P> CallOutcome<P> {
    /// Elapsed call duration.
    pub fn elapsed(&self) -> SimDuration {
        self.finished.saturating_since(self.started)
    }
}

struct PendingCall<P> {
    targets: Vec<NodeId>,
    required: usize,
    replies: BTreeMap<NodeId, P>,
    started: SimTime,
    deadline: SimTime,
}

/// The caller-side group RPC engine (sans-IO, like
/// [`crate::multicast::GroupEngine`]).
///
/// # Examples
///
/// ```
/// use odp_groupcomm::rpc::{Quorum, RpcEngine};
/// use odp_sim::net::NodeId;
/// use odp_sim::time::{SimDuration, SimTime};
///
/// let mut rpc: RpcEngine<&str> = RpcEngine::new(NodeId(0));
/// let (call, out) = rpc.invoke(
///     vec![NodeId(1), NodeId(2)], "start-camera", None,
///     SimTime::ZERO, SimDuration::from_millis(100), Quorum::All, None,
/// );
/// assert_eq!(out.len(), 2);
/// assert!(rpc.on_reply(call, NodeId(1), "ok", SimTime::from_millis(10)).is_none());
/// let done = rpc.on_reply(call, NodeId(2), "ok", SimTime::from_millis(12)).unwrap();
/// assert_eq!(done.replies.len(), 2);
/// ```
pub struct RpcEngine<P> {
    me: NodeId,
    next_call: u64,
    pending: BTreeMap<u64, PendingCall<P>>,
}

impl<P: Clone> RpcEngine<P> {
    /// Creates an engine for caller `me`.
    pub fn new(me: NodeId) -> Self {
        RpcEngine {
            me,
            next_call: 0,
            pending: BTreeMap::new(),
        }
    }

    /// The caller's node id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Starts a call to `targets`. Returns the call id and the request
    /// messages to transmit. `execute_at` turns the call into a *group
    /// invocation*: responders should perform the action exactly then.
    /// `span` (the caller's `rpc.call` root, if telemetry is on) rides
    /// every request so responders can parent their serve spans under it.
    #[allow(clippy::too_many_arguments)]
    pub fn invoke(
        &mut self,
        targets: Vec<NodeId>,
        payload: P,
        execute_at: Option<SimTime>,
        now: SimTime,
        timeout: SimDuration,
        quorum: Quorum,
        span: Option<SpanCarrier>,
    ) -> (u64, Vec<(NodeId, GcMsg<P>)>) {
        let call = self.next_call;
        self.next_call += 1;
        let required = quorum.required(targets.len());
        let body = Arc::new(RequestBody {
            execute_at,
            span,
            payload,
        });
        let outbound = targets
            .iter()
            .map(|&t| {
                let body = Arc::clone(&body);
                (t, GcMsg::RpcRequest { call, body })
            })
            .collect();
        self.pending.insert(
            call,
            PendingCall {
                targets,
                required,
                replies: BTreeMap::new(),
                started: now,
                deadline: now + timeout,
            },
        );
        (call, outbound)
    }

    /// Feeds one reply. Returns the outcome when the quorum is met, or a
    /// timed-out outcome if the reply arrived past the deadline (bounded
    /// real-time semantics: a late answer is a wrong answer).
    pub fn on_reply(
        &mut self,
        call: u64,
        from: NodeId,
        payload: P,
        now: SimTime,
    ) -> Option<CallOutcome<P>> {
        // Take the call out; it goes back in only while still waiting.
        let mut pending = self.pending.remove(&call)?;
        if !pending.targets.contains(&from) {
            self.pending.insert(call, pending);
            return None; // stray reply
        }
        if now >= pending.deadline {
            return Some(CallOutcome {
                call,
                status: CallStatus::TimedOut,
                replies: pending.replies,
                started: pending.started,
                finished: now,
            });
        }
        pending.replies.insert(from, payload);
        if pending.replies.len() >= pending.required {
            Some(CallOutcome {
                call,
                status: CallStatus::Completed,
                replies: pending.replies,
                started: pending.started,
                finished: now,
            })
        } else {
            self.pending.insert(call, pending);
            None
        }
    }

    /// Expires calls whose deadline has passed; returns their (timed-out)
    /// outcomes.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<CallOutcome<P>> {
        // Per tick, not per message, and both lists are empty (an empty
        // `collect` allocates nothing) unless a call timed out.
        let expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(&c, _)| c)
            .collect();
        expired
            .into_iter()
            .filter_map(|call| {
                let p = self.pending.remove(&call)?;
                Some(CallOutcome {
                    call,
                    status: CallStatus::TimedOut,
                    replies: p.replies,
                    started: p.started,
                    finished: now,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn quorum_arithmetic() {
        assert_eq!(Quorum::All.required(5), 5);
        assert_eq!(Quorum::Majority.required(5), 3);
        assert_eq!(Quorum::Majority.required(4), 3);
        assert_eq!(Quorum::First.required(5), 1);
        assert_eq!(Quorum::First.required(0), 0);
        assert_eq!(Quorum::AtLeast(3).required(5), 3);
        assert_eq!(Quorum::AtLeast(9).required(5), 5);
    }

    #[test]
    fn majority_completes_early() {
        let mut rpc: RpcEngine<&str> = RpcEngine::new(NodeId(0));
        let (call, out) = rpc.invoke(
            vec![NodeId(1), NodeId(2), NodeId(3)],
            "q",
            None,
            t(0),
            SimDuration::from_millis(100),
            Quorum::Majority,
            None,
        );
        assert_eq!(out.len(), 3);
        assert!(rpc.on_reply(call, NodeId(1), "a", t(5)).is_none());
        let done = rpc.on_reply(call, NodeId(3), "b", t(7)).unwrap();
        assert_eq!(done.status, CallStatus::Completed);
        assert_eq!(done.replies.len(), 2);
        assert_eq!(done.elapsed(), SimDuration::from_millis(7));
        // A late reply to a finished call is ignored.
        assert!(rpc.on_reply(call, NodeId(2), "c", t(9)).is_none());
    }

    #[test]
    fn deadline_times_out_with_partial_replies() {
        let mut rpc: RpcEngine<&str> = RpcEngine::new(NodeId(0));
        let (call, _) = rpc.invoke(
            vec![NodeId(1), NodeId(2)],
            "q",
            None,
            t(0),
            SimDuration::from_millis(50),
            Quorum::All,
            None,
        );
        rpc.on_reply(call, NodeId(1), "a", t(10));
        assert!(rpc.on_tick(t(49)).is_empty());
        let expired = rpc.on_tick(t(50));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].status, CallStatus::TimedOut);
        assert_eq!(expired[0].replies.len(), 1);
    }

    #[test]
    fn stray_replies_are_ignored() {
        let mut rpc: RpcEngine<&str> = RpcEngine::new(NodeId(0));
        let (call, _) = rpc.invoke(
            vec![NodeId(1)],
            "q",
            None,
            t(0),
            SimDuration::from_millis(50),
            Quorum::All,
            None,
        );
        assert!(rpc
            .on_reply(call, NodeId(9), "not-a-target", t(1))
            .is_none());
        assert!(rpc.on_reply(99, NodeId(1), "unknown-call", t(1)).is_none());
    }

    #[test]
    fn group_invocation_carries_execute_at() {
        let mut rpc: RpcEngine<&str> = RpcEngine::new(NodeId(0));
        let when = t(500);
        let (_, out) = rpc.invoke(
            vec![NodeId(1)],
            "start",
            Some(when),
            t(0),
            SimDuration::from_millis(50),
            Quorum::All,
            None,
        );
        match &out[0].1 {
            GcMsg::RpcRequest { body, .. } => assert_eq!(body.execute_at, Some(when)),
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn every_target_shares_one_request_body() {
        let mut rpc: RpcEngine<String> = RpcEngine::new(NodeId(0));
        let (_, out) = rpc.invoke(
            vec![NodeId(1), NodeId(2), NodeId(3)],
            "start-camera".to_owned(),
            None,
            t(0),
            SimDuration::from_millis(50),
            Quorum::All,
            None,
        );
        let bodies: Vec<&Arc<RequestBody<String>>> = out
            .iter()
            .map(|(_, msg)| match msg {
                GcMsg::RpcRequest { body, .. } => body,
                other => panic!("unexpected message {other:?}"),
            })
            .collect();
        assert_eq!(bodies.len(), 3);
        for body in &bodies {
            assert!(
                Arc::ptr_eq(body, bodies[0]),
                "one body, not a copy per target"
            );
        }
        assert_eq!(bodies[0].payload, "start-camera");
    }
}
