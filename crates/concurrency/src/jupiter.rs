//! Client–server operational transformation (the Jupiter / NLS "two-way
//! bridge" algorithm).
//!
//! GROVE's peer-to-peer dOPT (see [`crate::dopt`]) is the historically
//! faithful scheme; Jupiter is the provably convergent refinement used by
//! the experiments: each client synchronises with a central serialising
//! server over an independent two-party bridge, and only the TP1 property
//! of `crate::ot::transform` is required for convergence.
//!
//! Local edits apply immediately (the Ellis *response time* requirement);
//! propagation to peers costs one client→server→client relay (the
//! *notification time*).

use std::collections::BTreeMap;

use crate::ot::{transform_pair, CharOp, TieBreak};

/// An operation in flight between a client and the server, stamped with
/// the sender's bridge state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMsg {
    /// How many ops the sender had generated before this one.
    pub sent: u64,
    /// How many of the receiver's ops the sender had seen.
    pub seen: u64,
    /// The operation, in the sender's current context.
    pub op: CharOp,
}

/// One end of a client↔server bridge.
///
/// `tie` must be [`TieBreak::OpWins`] on exactly one end (we fix: the
/// **client** end wins insert ties), mirrored on the other.
#[derive(Debug, Clone)]
pub struct Bridge {
    generated: u64,
    received: u64,
    outgoing: Vec<(u64, CharOp)>,
    /// Tie-break applied to *incoming* ops transformed against local ones.
    incoming_tie: TieBreak,
}

impl Bridge {
    /// Creates the client end of a bridge.
    pub fn client_end() -> Self {
        Bridge {
            generated: 0,
            received: 0,
            outgoing: Vec::new(),
            // Incoming (server) ops lose ties to our local ops.
            incoming_tie: TieBreak::AgainstWins,
        }
    }

    /// Creates the server end of a bridge.
    pub(crate) fn server_end() -> Self {
        Bridge {
            generated: 0,
            received: 0,
            outgoing: Vec::new(),
            // Incoming (client) ops win ties over our local ops.
            incoming_tie: TieBreak::OpWins,
        }
    }

    /// Records a locally applied op and returns the message to transmit.
    pub fn send(&mut self, op: CharOp) -> OpMsg {
        let msg = OpMsg {
            sent: self.generated,
            seen: self.received,
            op,
        };
        self.outgoing.push((self.generated, op));
        self.generated += 1;
        msg
    }

    /// Processes an incoming message, returning the op transformed into
    /// the local context (apply it to the local document).
    pub fn receive(&mut self, msg: OpMsg) -> CharOp {
        // Drop ops the peer has acknowledged.
        self.outgoing.retain(|&(idx, _)| idx >= msg.seen);
        // Transform the incoming op across every op still in flight.
        let mut incoming = msg.op;
        for entry in self.outgoing.iter_mut() {
            let (inc2, out2) = transform_pair(incoming, entry.1, self.incoming_tie);
            incoming = inc2;
            entry.1 = out2;
        }
        self.received += 1;
        incoming
    }
}

/// The server side: one bridge per client plus the authoritative document.
///
/// # Examples
///
/// ```
/// use odp_concurrency::jupiter::{Bridge, OtServer};
/// use odp_concurrency::ot::{CharOp, TextDoc};
///
/// let mut server = OtServer::new("ab");
/// server.add_client(1);
/// server.add_client(2);
///
/// // Client 1 inserts 'X' at 0 locally and sends.
/// let mut c1 = Bridge::client_end();
/// let mut doc1 = TextDoc::from("ab");
/// doc1.apply(CharOp::Insert { pos: 0, ch: 'X' })?;
/// let msg = c1.send(CharOp::Insert { pos: 0, ch: 'X' });
/// let fanout = server.client_message(1, msg).unwrap();
/// assert_eq!(server.text(), "Xab");
/// assert_eq!(fanout.len(), 1, "relayed to client 2");
/// # Ok::<(), odp_concurrency::ot::ApplyError>(())
/// ```
#[derive(Debug)]
pub struct OtServer {
    doc: crate::ot::TextDoc,
    bridges: BTreeMap<u32, Bridge>,
}

/// Error for messages from unknown clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownClient(pub u32);

impl std::fmt::Display for UnknownClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown ot client {}", self.0)
    }
}

impl std::error::Error for UnknownClient {}

impl OtServer {
    /// Creates a server with an initial document.
    pub fn new(initial: &str) -> Self {
        OtServer {
            doc: crate::ot::TextDoc::from(initial),
            bridges: BTreeMap::new(),
        }
    }

    /// Registers a client connection.
    pub fn add_client(&mut self, client: u32) {
        self.bridges.insert(client, Bridge::server_end());
    }

    /// The authoritative text.
    pub fn text(&self) -> String {
        self.doc.text()
    }

    /// Handles a client message: applies it to the authoritative document
    /// and returns `(client, message)` relays for every *other* client.
    ///
    /// # Errors
    ///
    /// [`UnknownClient`] if the sender was never added.
    pub fn client_message(
        &mut self,
        from: u32,
        msg: OpMsg,
    ) -> Result<Vec<(u32, OpMsg)>, UnknownClient> {
        let bridge = self.bridges.get_mut(&from).ok_or(UnknownClient(from))?;
        let op = bridge.receive(msg);
        // The bridge transform keeps client ops applicable; a failure is
        // a transformation bug, and the authoritative doc must not drift.
        #[expect(clippy::expect_used, reason = "a transformed op applies")]
        self.doc
            .apply(op)
            .expect("transformed op applies to authoritative doc");
        let mut fanout = Vec::new();
        for (&client, bridge) in self.bridges.iter_mut() {
            if client != from {
                fanout.push((client, bridge.send(op)));
            }
        }
        Ok(fanout)
    }
}

/// The client side: a bridge plus the local replica.
#[derive(Debug)]
pub struct OtClient {
    /// Client identity (as registered with the server).
    pub id: u32,
    doc: crate::ot::TextDoc,
    bridge: Bridge,
}

impl OtClient {
    /// Creates a client replica with the same initial document as the
    /// server.
    pub fn new(id: u32, initial: &str) -> Self {
        OtClient {
            id,
            doc: crate::ot::TextDoc::from(initial),
            bridge: Bridge::client_end(),
        }
    }

    /// The local text.
    pub fn text(&self) -> String {
        self.doc.text()
    }

    /// Applies a local edit immediately and returns the message for the
    /// server.
    ///
    /// # Errors
    ///
    /// [`crate::ot::ApplyError`] if the op is out of bounds locally.
    pub fn local_edit(&mut self, op: CharOp) -> Result<OpMsg, crate::ot::ApplyError> {
        self.doc.apply(op)?;
        Ok(self.bridge.send(op))
    }

    /// Integrates a message from the server into the local replica.
    pub fn server_message(&mut self, msg: OpMsg) {
        let op = self.bridge.receive(msg);
        // Same invariant as the server side: transformed ops apply.
        #[expect(clippy::expect_used, reason = "a transformed op applies")]
        self.doc
            .apply(op)
            .expect("transformed op applies to replica");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ot::CharOp::*;

    /// A tiny in-order message fabric between clients and server.
    struct Fabric {
        server: OtServer,
        clients: Vec<OtClient>,
        to_server: Vec<(u32, OpMsg)>,
        to_client: Vec<(u32, OpMsg)>,
    }

    impl Fabric {
        fn new(n: u32, initial: &str) -> Self {
            let mut server = OtServer::new(initial);
            let clients = (0..n)
                .map(|i| {
                    server.add_client(i);
                    OtClient::new(i, initial)
                })
                .collect();
            Fabric {
                server,
                clients,
                to_server: Vec::new(),
                to_client: Vec::new(),
            }
        }

        fn edit(&mut self, client: u32, op: CharOp) {
            let msg = self.clients[client as usize].local_edit(op).unwrap();
            self.to_server.push((client, msg));
        }

        fn drain(&mut self) {
            // Links are FIFO: deliver in send order per queue.
            while !self.to_server.is_empty() || !self.to_client.is_empty() {
                if !self.to_server.is_empty() {
                    let (from, msg) = self.to_server.remove(0);
                    let fanout = self.server.client_message(from, msg).unwrap();
                    self.to_client.extend(fanout);
                }
                if !self.to_client.is_empty() {
                    let (to, msg) = self.to_client.remove(0);
                    self.clients[to as usize].server_message(msg);
                }
            }
        }

        fn assert_converged(&self) {
            for c in &self.clients {
                assert_eq!(c.text(), self.server.text(), "client {} diverged", c.id);
            }
        }
    }

    #[test]
    fn concurrent_inserts_converge() {
        let mut f = Fabric::new(2, "ab");
        f.edit(0, Insert { pos: 1, ch: 'X' });
        f.edit(1, Insert { pos: 1, ch: 'Y' });
        f.drain();
        f.assert_converged();
        assert_eq!(f.server.text().len(), 4);
    }

    #[test]
    fn concurrent_insert_and_delete_converge() {
        let mut f = Fabric::new(2, "abcd");
        f.edit(0, Delete { pos: 1 });
        f.edit(1, Insert { pos: 3, ch: 'Z' });
        f.drain();
        f.assert_converged();
    }

    #[test]
    fn duplicate_concurrent_deletes_converge() {
        let mut f = Fabric::new(3, "abcd");
        f.edit(0, Delete { pos: 2 });
        f.edit(1, Delete { pos: 2 });
        f.edit(2, Insert { pos: 0, ch: 'Q' });
        f.drain();
        f.assert_converged();
        assert_eq!(f.server.text(), "Qabd");
    }

    #[test]
    fn rapid_uncoordinated_typing_converges() {
        let mut f = Fabric::new(3, "");
        // Interleave local edits without draining (high concurrency).
        for k in 0..5 {
            for c in 0..3u32 {
                let pos = (k as usize).min(f.clients[c as usize].text().len());
                f.edit(
                    c,
                    Insert {
                        pos,
                        ch: char::from(b'a' + c as u8),
                    },
                );
            }
        }
        f.drain();
        f.assert_converged();
        assert_eq!(f.server.text().len(), 15);
    }

    #[test]
    fn local_edits_apply_immediately() {
        let mut c = OtClient::new(0, "hello");
        c.local_edit(Insert { pos: 5, ch: '!' }).unwrap();
        assert_eq!(c.text(), "hello!", "no round trip needed");
    }

    #[test]
    fn unknown_client_is_an_error() {
        let mut s = OtServer::new("");
        let msg = OpMsg {
            sent: 0,
            seen: 0,
            op: Noop,
        };
        assert_eq!(s.client_message(7, msg).unwrap_err(), UnknownClient(7));
    }

    #[test]
    fn out_of_bounds_local_edit_is_an_error() {
        let mut c = OtClient::new(0, "ab");
        assert!(c.local_edit(Delete { pos: 5 }).is_err());
        assert_eq!(c.text(), "ab");
    }
}
