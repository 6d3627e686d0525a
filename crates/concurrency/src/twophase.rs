//! Strict two-phase-locking transactions: the serialisability baseline of
//! Figure 2a ("the approach in transaction mechanisms is to control shared
//! access by creating walls between the different users").
//!
//! The [`TxnManager`] is a sans-IO engine: operations either complete
//! immediately or block on a lock; blocked operations resume (as
//! [`TxnEvent::OpCompleted`]) when a commit or abort releases the lock.
//! Deadlocks are detected on a wait-for graph and resolved by aborting the
//! youngest transaction in the cycle.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use odp_sim::time::SimTime;

use crate::granularity::{unit_at, Granularity};
use crate::locks::{
    ClientId, LockMode, LockReply, LockScheme, LockTable, Notice, NoticeKind, ResourceId,
};
use crate::store::{ObjectId, ObjectStore, StoreError};

/// Identifies a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// What an operation does at its target position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Read the object's value (shared lock on the containing unit).
    Read,
    /// Insert text at the position (exclusive lock).
    Insert(String),
    /// Delete this many chars at the position (exclusive lock).
    Delete(usize),
}

/// One positional operation within a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnOp {
    /// Target object.
    pub object: ObjectId,
    /// Char position of the user's cursor (selects the locked unit).
    pub pos: usize,
    /// The action.
    pub kind: OpKind,
}

/// The result of a completed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// The value read.
    Value(String),
    /// The new version after an edit.
    Applied {
        /// Post-edit version.
        version: u64,
    },
}

/// Immediate answer to [`TxnManager::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitReply {
    /// The operation completed.
    Done(OpResult),
    /// The operation is blocked on a lock; a [`TxnEvent`] will follow.
    Blocked,
}

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Chosen as deadlock victim.
    Deadlock,
    /// Application-requested abort.
    Requested,
}

/// Deferred outcomes emitted when locks move between transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnEvent {
    /// A previously blocked operation completed.
    OpCompleted {
        /// The transaction whose operation resumed.
        txn: TxnId,
        /// Its result.
        result: OpResult,
    },
    /// A transaction was aborted (deadlock victim).
    TxnAborted {
        /// The victim.
        txn: TxnId,
        /// Why.
        reason: AbortReason,
    },
}

/// Errors from transaction operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnError {
    /// The transaction id is unknown or already finished.
    UnknownTxn(TxnId),
    /// A second operation was submitted while one is blocked.
    AlreadyBlocked(TxnId),
    /// The underlying store rejected the edit.
    Store(StoreError),
    /// Internal bookkeeping broke an invariant (a bug, not a caller
    /// error); the message names the broken invariant.
    Inconsistent(&'static str),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::UnknownTxn(t) => write!(f, "unknown or finished transaction {t}"),
            TxnError::AlreadyBlocked(t) => write!(f, "{t} already has a blocked operation"),
            TxnError::Store(e) => write!(f, "store error: {e}"),
            TxnError::Inconsistent(what) => write!(f, "manager state inconsistent: {what}"),
        }
    }
}

impl std::error::Error for TxnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TxnError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for TxnError {
    fn from(e: StoreError) -> Self {
        TxnError::Store(e)
    }
}

struct Txn {
    held: HashSet<ResourceId>,
    pending: Option<TxnOp>,
    waiting_on: Option<ResourceId>,
}

/// A strict-2PL transaction manager over an [`ObjectStore`].
///
/// # Examples
///
/// ```
/// use odp_concurrency::granularity::Granularity;
/// use odp_concurrency::store::ObjectId;
/// use odp_concurrency::twophase::{OpKind, SubmitReply, TxnManager, TxnOp};
/// use odp_sim::time::SimTime;
///
/// let mut tm = TxnManager::new(Granularity::Document);
/// tm.store_mut().create(ObjectId(1), "shared text");
/// let t1 = tm.begin();
/// let reply = tm.submit(t1, TxnOp { object: ObjectId(1), pos: 0, kind: OpKind::Read }, SimTime::ZERO)?;
/// assert!(matches!(reply, SubmitReply::Done(_)));
/// tm.commit(t1, SimTime::ZERO)?;
/// # Ok::<(), odp_concurrency::twophase::TxnError>(())
/// ```
pub struct TxnManager {
    table: LockTable,
    store: ObjectStore,
    txns: BTreeMap<TxnId, Txn>,
    next: u64,
    granularity: Granularity,
    aborts: u64,
    commits: u64,
}

impl TxnManager {
    /// Creates a manager locking at the given granularity.
    pub fn new(granularity: Granularity) -> Self {
        TxnManager {
            table: LockTable::new(LockScheme::Hard),
            store: ObjectStore::new(),
            txns: BTreeMap::new(),
            next: 0,
            granularity,
            aborts: 0,
            commits: 0,
        }
    }

    /// The backing store (pre-populate objects here).
    pub fn store_mut(&mut self) -> &mut ObjectStore {
        &mut self.store
    }

    /// Read access to the store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The locking granularity in force.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Read access to the lock table (consistency checkers walk it).
    pub fn lock_table(&self) -> &LockTable {
        &self.table
    }

    /// Total committed transactions.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Total aborted transactions (deadlock victims + requested).
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Starts a transaction.
    pub fn begin(&mut self) -> TxnId {
        let id = TxnId(self.next);
        self.next += 1;
        self.txns.insert(
            id,
            Txn {
                held: HashSet::new(),
                pending: None,
                waiting_on: None,
            },
        );
        id
    }

    fn lock_client(txn: TxnId) -> ClientId {
        ClientId(txn.0 as u32)
    }

    fn resource_for(&self, op: &TxnOp) -> ResourceId {
        let text = self
            .store
            .read(op.object)
            .map(|v| v.value.clone())
            .unwrap_or_default();
        ResourceId::with_unit(op.object, unit_at(&text, op.pos, self.granularity))
    }

    /// Submits an operation. Completes immediately or blocks; blocked
    /// operations finish via events from a later `commit`/`abort`.
    ///
    /// # Errors
    ///
    /// Fails on unknown transactions, double-blocking, or store errors.
    /// A deadlock does **not** return an error here: the victim learns of
    /// its abort through [`TxnEvent::TxnAborted`] in the returned events.
    pub fn submit(&mut self, txn: TxnId, op: TxnOp, now: SimTime) -> Result<SubmitReply, TxnError> {
        let (reply, _events) = self.submit_with_events(txn, op, now)?;
        Ok(reply)
    }

    /// Like [`TxnManager::submit`] but also returns events caused by
    /// deadlock resolution (a victim's abort can resume other
    /// transactions).
    pub fn submit_with_events(
        &mut self,
        txn: TxnId,
        op: TxnOp,
        now: SimTime,
    ) -> Result<(SubmitReply, Vec<TxnEvent>), TxnError> {
        let state = self.txns.get(&txn).ok_or(TxnError::UnknownTxn(txn))?;
        if state.pending.is_some() {
            return Err(TxnError::AlreadyBlocked(txn));
        }
        let resource = self.resource_for(&op);
        let mode = match op.kind {
            OpKind::Read => LockMode::Shared,
            OpKind::Insert(_) | OpKind::Delete(_) => LockMode::Exclusive,
        };
        // Hard locks emit one thing on request: the grant of whoever an
        // upgrader's dropped read lock was holding back. `resume` turns
        // grants into TxnEvents, the scheduler's own cooperative surface.
        let (reply, notices) = self
            .table
            .request(Self::lock_client(txn), resource, mode, now);
        match reply {
            LockReply::Granted => {
                let result = self.perform(txn, &op)?;
                let state = self
                    .txns
                    .get_mut(&txn)
                    .ok_or(TxnError::Inconsistent("granted txn vanished"))?;
                state.held.insert(resource);
                Ok((SubmitReply::Done(result), Vec::new()))
            }
            LockReply::Queued => {
                let state = self
                    .txns
                    .get_mut(&txn)
                    .ok_or(TxnError::Inconsistent("queued txn vanished"))?;
                state.pending = Some(op);
                state.waiting_on = Some(resource);
                let mut events = self.resume(notices)?;
                events.extend(self.resolve_deadlocks(now));
                Ok((SubmitReply::Blocked, events))
            }
            LockReply::GrantedConflict(_) => unreachable!("hard locks never soft-grant"),
        }
    }

    fn perform(&mut self, _txn: TxnId, op: &TxnOp) -> Result<OpResult, TxnError> {
        match &op.kind {
            OpKind::Read => Ok(OpResult::Value(self.store.read(op.object)?.value.clone())),
            OpKind::Insert(text) => {
                let version = self.store.insert(op.object, op.pos, text)?;
                Ok(OpResult::Applied { version })
            }
            OpKind::Delete(len) => {
                let version = self.store.delete(op.object, op.pos, *len)?;
                Ok(OpResult::Applied { version })
            }
        }
    }

    /// Commits a transaction, releasing its locks. Returns resumption /
    /// abort events for other transactions.
    ///
    /// # Errors
    ///
    /// [`TxnError::UnknownTxn`] if the transaction is not active.
    pub fn commit(&mut self, txn: TxnId, now: SimTime) -> Result<Vec<TxnEvent>, TxnError> {
        self.txns.get(&txn).ok_or(TxnError::UnknownTxn(txn))?;
        self.commits += 1;
        self.finish(txn, now)
    }

    /// Aborts a transaction (voluntarily), releasing its locks.
    ///
    /// # Errors
    ///
    /// [`TxnError::UnknownTxn`] if the transaction is not active.
    pub fn abort(&mut self, txn: TxnId, now: SimTime) -> Result<Vec<TxnEvent>, TxnError> {
        self.txns.get(&txn).ok_or(TxnError::UnknownTxn(txn))?;
        self.aborts += 1;
        self.finish(txn, now)
    }

    fn finish(&mut self, txn: TxnId, now: SimTime) -> Result<Vec<TxnEvent>, TxnError> {
        self.txns.remove(&txn).ok_or(TxnError::UnknownTxn(txn))?;
        let notices = self.table.release_all(Self::lock_client(txn), now);
        self.resume(notices)
    }

    /// Performs the pending operation of every transaction a notice
    /// grants its awaited lock to.
    fn resume(&mut self, notices: Vec<Notice>) -> Result<Vec<TxnEvent>, TxnError> {
        let mut events = Vec::new();
        for notice in notices {
            if let NoticeKind::Granted { .. } = notice.kind {
                let resumed = TxnId(notice.to.0 as u64);
                if let Some(state) = self.txns.get_mut(&resumed) {
                    if state.waiting_on == Some(notice.resource) {
                        let op = state
                            .pending
                            .take()
                            .ok_or(TxnError::Inconsistent("blocked txn lost its pending op"))?;
                        state.waiting_on = None;
                        state.held.insert(notice.resource);
                        let result = self.perform(resumed, &op)?;
                        events.push(TxnEvent::OpCompleted {
                            txn: resumed,
                            result,
                        });
                    }
                }
            }
        }
        Ok(events)
    }

    /// Builds the wait-for graph and aborts the youngest transaction of
    /// any cycle until none remain.
    fn resolve_deadlocks(&mut self, now: SimTime) -> Vec<TxnEvent> {
        let mut events = Vec::new();
        while let Some(cycle) = self.find_cycle() {
            let Some(victim) = cycle.iter().max().copied() else {
                break; // find_cycle never returns an empty cycle
            };
            self.aborts += 1;
            events.push(TxnEvent::TxnAborted {
                txn: victim,
                reason: AbortReason::Deadlock,
            });
            match self.finish(victim, now) {
                Ok(more) => events.extend(more),
                Err(e) => unreachable!("victim was active: {e}"),
            }
        }
        events
    }

    fn find_cycle(&self) -> Option<Vec<TxnId>> {
        // Edges: waiter -> every holder of the resource it waits on.
        let mut edges: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
        for (&id, txn) in &self.txns {
            if let Some(resource) = txn.waiting_on {
                for (holder_client, _) in self.table.holders(resource) {
                    let holder = TxnId(holder_client.0 as u64);
                    if holder != id {
                        edges.entry(id).or_default().push(holder);
                    }
                }
            }
        }
        // DFS cycle detection.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks: HashMap<TxnId, Mark> = self.txns.keys().map(|&k| (k, Mark::White)).collect();
        fn dfs(
            node: TxnId,
            edges: &HashMap<TxnId, Vec<TxnId>>,
            marks: &mut HashMap<TxnId, Mark>,
            stack: &mut Vec<TxnId>,
        ) -> Option<Vec<TxnId>> {
            marks.insert(node, Mark::Grey);
            stack.push(node);
            for &next in edges.get(&node).map(|v| v.as_slice()).unwrap_or(&[]) {
                match marks.get(&next).copied().unwrap_or(Mark::Black) {
                    Mark::Grey => {
                        // A Grey node is on the DFS stack by construction.
                        // odp-check: allow(unwrap)
                        let pos = stack.iter().position(|&n| n == next).expect("on stack");
                        return Some(stack[pos..].to_vec());
                    }
                    Mark::White => {
                        if let Some(c) = dfs(next, edges, marks, stack) {
                            return Some(c);
                        }
                    }
                    Mark::Black => {}
                }
            }
            stack.pop();
            marks.insert(node, Mark::Black);
            None
        }
        let nodes: Vec<TxnId> = self.txns.keys().copied().collect();
        for node in nodes {
            if marks[&node] == Mark::White {
                let mut stack = Vec::new();
                if let Some(c) = dfs(node, &edges, &mut marks, &mut stack) {
                    return Some(c);
                }
            }
        }
        None
    }

    /// Number of active transactions.
    pub fn active(&self) -> usize {
        self.txns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn manager(g: Granularity) -> TxnManager {
        let mut tm = TxnManager::new(g);
        tm.store_mut().create(
            ObjectId(1),
            "First sentence. Second sentence. Third sentence.",
        );
        tm
    }

    fn read(obj: u64, pos: usize) -> TxnOp {
        TxnOp {
            object: ObjectId(obj),
            pos,
            kind: OpKind::Read,
        }
    }

    fn insert(obj: u64, pos: usize, s: &str) -> TxnOp {
        TxnOp {
            object: ObjectId(obj),
            pos,
            kind: OpKind::Insert(s.to_owned()),
        }
    }

    #[test]
    fn read_write_commit_cycle() {
        let mut tm = manager(Granularity::Document);
        let t1 = tm.begin();
        assert!(matches!(
            tm.submit(t1, read(1, 0), t(0)).unwrap(),
            SubmitReply::Done(OpResult::Value(_))
        ));
        assert!(matches!(
            tm.submit(t1, insert(1, 0, "X"), t(1)).unwrap(),
            SubmitReply::Done(OpResult::Applied { version: 1 })
        ));
        assert!(tm.commit(t1, t(2)).unwrap().is_empty());
        assert_eq!(tm.commits(), 1);
        assert_eq!(tm.active(), 0);
    }

    #[test]
    fn writer_blocks_writer_until_commit() {
        let mut tm = manager(Granularity::Document);
        let t1 = tm.begin();
        let t2 = tm.begin();
        assert!(matches!(
            tm.submit(t1, insert(1, 0, "A"), t(0)).unwrap(),
            SubmitReply::Done(_)
        ));
        assert_eq!(
            tm.submit(t2, insert(1, 5, "B"), t(1)).unwrap(),
            SubmitReply::Blocked
        );
        let events = tm.commit(t1, t(2)).unwrap();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], TxnEvent::OpCompleted { txn, .. } if txn == t2));
    }

    #[test]
    fn concurrent_readers_do_not_block() {
        let mut tm = manager(Granularity::Document);
        let t1 = tm.begin();
        let t2 = tm.begin();
        assert!(matches!(
            tm.submit(t1, read(1, 0), t(0)).unwrap(),
            SubmitReply::Done(_)
        ));
        assert!(matches!(
            tm.submit(t2, read(1, 0), t(0)).unwrap(),
            SubmitReply::Done(_)
        ));
    }

    #[test]
    fn sentence_granularity_allows_disjoint_writes() {
        let mut tm = manager(Granularity::Sentence);
        let t1 = tm.begin();
        let t2 = tm.begin();
        // Sentence 1 starts at 0; sentence 2 around pos 20.
        assert!(matches!(
            tm.submit(t1, insert(1, 2, "x"), t(0)).unwrap(),
            SubmitReply::Done(_)
        ));
        assert!(matches!(
            tm.submit(t2, insert(1, 20, "y"), t(0)).unwrap(),
            SubmitReply::Done(_)
        ));
    }

    #[test]
    fn document_granularity_serialises_the_same_writes() {
        let mut tm = manager(Granularity::Document);
        let t1 = tm.begin();
        let t2 = tm.begin();
        assert!(matches!(
            tm.submit(t1, insert(1, 2, "x"), t(0)).unwrap(),
            SubmitReply::Done(_)
        ));
        assert_eq!(
            tm.submit(t2, insert(1, 20, "y"), t(0)).unwrap(),
            SubmitReply::Blocked
        );
    }

    #[test]
    fn deadlock_is_detected_and_youngest_aborts() {
        let mut tm = TxnManager::new(Granularity::Document);
        tm.store_mut().create(ObjectId(1), "a");
        tm.store_mut().create(ObjectId(2), "b");
        let t1 = tm.begin();
        let t2 = tm.begin();
        // t1 holds obj1, t2 holds obj2.
        assert!(matches!(
            tm.submit(t1, insert(1, 0, "x"), t(0)).unwrap(),
            SubmitReply::Done(_)
        ));
        assert!(matches!(
            tm.submit(t2, insert(2, 0, "y"), t(0)).unwrap(),
            SubmitReply::Done(_)
        ));
        // t1 waits for obj2.
        assert_eq!(
            tm.submit(t1, insert(2, 0, "z"), t(1)).unwrap(),
            SubmitReply::Blocked
        );
        // t2 waits for obj1 -> cycle; t2 (youngest) aborts; t1 resumes.
        let (reply, events) = tm.submit_with_events(t2, insert(1, 0, "w"), t(2)).unwrap();
        assert_eq!(reply, SubmitReply::Blocked);
        assert!(events.contains(&TxnEvent::TxnAborted {
            txn: t2,
            reason: AbortReason::Deadlock
        }));
        assert!(events
            .iter()
            .any(|e| matches!(e, TxnEvent::OpCompleted { txn, .. } if *txn == t1)));
        assert_eq!(tm.aborts(), 1);
        assert_eq!(tm.active(), 1);
    }

    #[test]
    fn double_submit_while_blocked_is_an_error() {
        let mut tm = manager(Granularity::Document);
        let t1 = tm.begin();
        let t2 = tm.begin();
        tm.submit(t1, insert(1, 0, "a"), t(0)).unwrap();
        tm.submit(t2, insert(1, 0, "b"), t(0)).unwrap();
        assert_eq!(
            tm.submit(t2, read(1, 0), t(1)).unwrap_err(),
            TxnError::AlreadyBlocked(t2)
        );
    }

    #[test]
    fn operations_on_finished_txn_fail() {
        let mut tm = manager(Granularity::Document);
        let t1 = tm.begin();
        tm.commit(t1, t(0)).unwrap();
        assert_eq!(
            tm.submit(t1, read(1, 0), t(1)).unwrap_err(),
            TxnError::UnknownTxn(t1)
        );
        assert_eq!(tm.commit(t1, t(1)).unwrap_err(), TxnError::UnknownTxn(t1));
    }

    #[test]
    fn voluntary_abort_releases_locks() {
        let mut tm = manager(Granularity::Document);
        let t1 = tm.begin();
        let t2 = tm.begin();
        tm.submit(t1, insert(1, 0, "a"), t(0)).unwrap();
        tm.submit(t2, insert(1, 0, "b"), t(0)).unwrap();
        let events = tm.abort(t1, t(1)).unwrap();
        assert!(matches!(events[0], TxnEvent::OpCompleted { txn, .. } if txn == t2));
        assert_eq!(tm.aborts(), 1);
    }

    #[test]
    fn aborting_a_waiting_txn_resumes_the_compatible_txn_queued_behind_it() {
        let mut tm = manager(Granularity::Document);
        let t1 = tm.begin();
        let t2 = tm.begin();
        let t3 = tm.begin();
        assert!(matches!(
            tm.submit(t1, read(1, 0), t(0)).unwrap(),
            SubmitReply::Done(_)
        ));
        assert_eq!(
            tm.submit(t2, insert(1, 0, "w"), t(1)).unwrap(),
            SubmitReply::Blocked
        );
        assert_eq!(
            tm.submit(t3, read(1, 0), t(2)).unwrap(),
            SubmitReply::Blocked,
            "queued behind the waiting writer"
        );
        // T2 never held anything; with it gone T3's read is compatible
        // with T1's and must complete now, not at T1's commit.
        let events = tm.abort(t2, t(3)).unwrap();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            TxnEvent::OpCompleted { txn, result: OpResult::Value(_) } if *txn == t3
        ));
        assert!(tm.commit(t3, t(4)).unwrap().is_empty());
    }

    #[test]
    fn an_upgrade_behind_a_waiting_writer_resumes_the_writer() {
        let mut tm = manager(Granularity::Document);
        let t1 = tm.begin();
        let t2 = tm.begin();
        assert!(matches!(
            tm.submit(t1, read(1, 0), t(0)).unwrap(),
            SubmitReply::Done(_)
        ));
        assert_eq!(
            tm.submit(t2, insert(1, 0, "w"), t(1)).unwrap(),
            SubmitReply::Blocked
        );
        // T1 upgrades its read lock: it queues behind T2 and lets go of
        // the lock T2 was waiting for, so T2's insert runs now — not
        // never, with both blocked on a resource nobody holds.
        let (reply, events) = tm.submit_with_events(t1, insert(1, 0, "r"), t(2)).unwrap();
        assert_eq!(reply, SubmitReply::Blocked);
        assert!(matches!(
            &events[..],
            [TxnEvent::OpCompleted { txn, result: OpResult::Applied { .. } }] if *txn == t2
        ));
        let events = tm.commit(t2, t(3)).unwrap();
        assert!(matches!(
            &events[..],
            [TxnEvent::OpCompleted { txn, result: OpResult::Applied { .. } }] if *txn == t1
        ));
        assert!(tm.commit(t1, t(4)).unwrap().is_empty());
        assert_eq!(tm.active(), 0);
    }

    #[test]
    fn store_error_propagates() {
        let mut tm = manager(Granularity::Document);
        let t1 = tm.begin();
        let bad = TxnOp {
            object: ObjectId(99),
            pos: 0,
            kind: OpKind::Read,
        };
        assert!(matches!(
            tm.submit(t1, bad, t(0)),
            Err(TxnError::Store(StoreError::UnknownObject(_)))
        ));
    }
}
