//! Strict-2PL invariants: lock-table consistency at every step, and
//! deadlock resolution that aborts exactly the youngest transaction of
//! a cycle while every survivor commits.
//!
//! The harness hosts one [`TxnManager`] on a coordinator node and
//! scripts each transaction's operations as injected messages from
//! distinct client nodes — so the explorer permutes the order
//! operations reach the manager, covering every acquisition order of
//! the underlying locks.

use std::collections::VecDeque;

use odp_concurrency::granularity::Granularity;
use odp_concurrency::locks::LockMode;
use odp_concurrency::store::ObjectId;
use odp_concurrency::twophase::{
    AbortReason, OpKind, SubmitReply, TxnEvent, TxnId, TxnManager, TxnOp,
};
use odp_sim::net::NodeId;
use odp_sim::prelude::*;

use crate::explore::Invariant;

/// The coordinator node hosting the transaction manager.
pub const HOST: NodeId = NodeId(0);

/// Harness messages: a client submits the next operation of its
/// scripted transaction.
#[derive(Debug, Clone)]
pub enum TxnHarnessMsg {
    /// Run `op` under transaction `txn_ix` (index into the host's
    /// transaction table).
    Submit {
        /// Which scripted transaction.
        txn_ix: usize,
        /// The operation.
        op: TxnOp,
    },
}

/// The coordinator actor: owns the [`TxnManager`], pumps each scripted
/// transaction through submit → (block/resume) → commit, and records
/// outcomes for the invariants.
pub struct TxnHost {
    mgr: TxnManager,
    ids: Vec<TxnId>,
    /// Ops queued per transaction (arrived but not yet submitted).
    queued: Vec<VecDeque<TxnOp>>,
    /// Ops still expected to *complete* per transaction.
    outstanding: Vec<usize>,
    blocked: Vec<bool>,
    alive: Vec<bool>,
    /// Transactions that committed, in commit order.
    pub committed: Vec<TxnId>,
    /// Transactions aborted by deadlock resolution.
    pub aborted: Vec<TxnId>,
}

impl TxnHost {
    /// A host with `n` transactions over `objects` (each created with
    /// the given initial text), locking at document granularity so each
    /// object is one lock resource.
    pub fn new(n: usize, objects: &[(ObjectId, &str)], ops_per_txn: usize) -> Self {
        let mut mgr = TxnManager::new(Granularity::Document);
        for (id, text) in objects {
            mgr.store_mut().create(*id, *text);
        }
        let ids: Vec<TxnId> = (0..n).map(|_| mgr.begin()).collect();
        TxnHost {
            mgr,
            ids,
            queued: vec![VecDeque::new(); n],
            outstanding: vec![ops_per_txn; n],
            blocked: vec![false; n],
            alive: vec![true; n],
            committed: Vec::new(),
            aborted: Vec::new(),
        }
    }

    /// The manager (invariants inspect its lock table).
    pub fn manager(&self) -> &TxnManager {
        &self.mgr
    }

    /// The scripted transactions' ids, in begin order (so index `i` is
    /// older than index `i + 1`).
    pub fn txn_ids(&self) -> &[TxnId] {
        &self.ids
    }

    /// Canonical digest of the host's scheduling-relevant state: queued
    /// ops, progress counters, liveness flags and outcomes. Two hosts
    /// digesting equal behave identically on any future schedule.
    pub(crate) fn state_digest(&self) -> u64 {
        crate::explore::hash_of(&format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.queued, self.outstanding, self.blocked, self.alive, self.committed, self.aborted
        ))
    }

    fn ix_of(&self, txn: TxnId) -> Option<usize> {
        self.ids.iter().position(|&t| t == txn)
    }

    fn handle_events(&mut self, events: Vec<TxnEvent>, now: SimTime) {
        let mut work: VecDeque<TxnEvent> = events.into();
        while let Some(ev) = work.pop_front() {
            match ev {
                TxnEvent::OpCompleted { txn, .. } => {
                    let Some(ix) = self.ix_of(txn) else { continue };
                    self.blocked[ix] = false;
                    self.outstanding[ix] = self.outstanding[ix].saturating_sub(1);
                    self.pump(ix, now, &mut work);
                }
                TxnEvent::TxnAborted { txn, reason } => {
                    let Some(ix) = self.ix_of(txn) else { continue };
                    debug_assert_eq!(reason, AbortReason::Deadlock);
                    self.alive[ix] = false;
                    self.blocked[ix] = false;
                    self.queued[ix].clear();
                    self.aborted.push(txn);
                }
            }
        }
    }

    /// Submits queued ops for transaction `ix` until it blocks, runs
    /// dry, or finishes (at which point it commits).
    fn pump(&mut self, ix: usize, now: SimTime, work: &mut VecDeque<TxnEvent>) {
        while self.alive[ix] && !self.blocked[ix] {
            if self.outstanding[ix] == 0 {
                let txn = self.ids[ix];
                self.alive[ix] = false;
                match self.mgr.commit(txn, now) {
                    Ok(events) => {
                        self.committed.push(txn);
                        work.extend(events);
                    }
                    Err(e) => panic!("harness bug: commit of active {txn} failed: {e}"),
                }
                return;
            }
            let Some(op) = self.queued[ix].pop_front() else {
                return;
            };
            let txn = self.ids[ix];
            match self.mgr.submit_with_events(txn, op, now) {
                Ok((SubmitReply::Done(_), events)) => {
                    self.outstanding[ix] = self.outstanding[ix].saturating_sub(1);
                    work.extend(events);
                }
                Ok((SubmitReply::Blocked, events)) => {
                    self.blocked[ix] = true;
                    work.extend(events);
                }
                Err(e) => panic!("harness bug: submit to {txn} failed: {e}"),
            }
        }
    }
}

impl Actor<TxnHarnessMsg> for TxnHost {
    fn on_message(&mut self, ctx: &mut Ctx<'_, TxnHarnessMsg>, _from: NodeId, msg: TxnHarnessMsg) {
        let TxnHarnessMsg::Submit { txn_ix, op } = msg;
        if txn_ix >= self.ids.len() || !self.alive[txn_ix] {
            return; // op for an aborted transaction: dropped
        }
        self.queued[txn_ix].push_back(op);
        let mut work = VecDeque::new();
        self.pump(txn_ix, ctx.now(), &mut work);
        let events: Vec<TxnEvent> = work.into();
        self.handle_events(events, ctx.now());
    }
}

fn exclusive_op(object: ObjectId) -> TxnOp {
    TxnOp {
        object,
        pos: 0,
        kind: OpKind::Insert("x".into()),
    }
}

/// Builds the classic ring-deadlock scenario: `n` transactions, `n`
/// objects; transaction `i` first locks object `i`, then object
/// `(i + 1) % n`. Under the default schedule every first op lands
/// before any second op, so the full cycle forms and deadlock
/// resolution must fire; permuted schedules may dodge the deadlock
/// entirely, which the invariants also accept.
pub fn cycle_sim(seed: u64, n: usize) -> Sim<TxnHarnessMsg> {
    let objects: Vec<(ObjectId, String)> = (0..n)
        .map(|i| (ObjectId(i as u64), "seed".into()))
        .collect();
    let refs: Vec<(ObjectId, &str)> = objects.iter().map(|(o, t)| (*o, t.as_str())).collect();
    let mut sim = SimBuilder::new(seed).build();
    sim.add_actor(HOST, TxnHost::new(n, &refs, 2));
    for i in 0..n {
        let client = NodeId(10 + i as u32);
        sim.inject(
            SimTime::from_millis(1 + i as u64),
            client,
            HOST,
            TxnHarnessMsg::Submit {
                txn_ix: i,
                op: exclusive_op(ObjectId(i as u64)),
            },
        );
        sim.inject(
            SimTime::from_millis(20 + i as u64),
            client,
            HOST,
            TxnHarnessMsg::Submit {
                txn_ix: i,
                op: exclusive_op(ObjectId(((i + 1) % n) as u64)),
            },
        );
    }
    sim
}

/// Canonical [`crate::explore::StateFingerprint`] for lock scenarios:
/// the host digest plus the lock table's full grant map.
pub fn fingerprint(sim: &Sim<TxnHarnessMsg>) -> u64 {
    let Some(host) = sim.get::<TxnHost>(ActorHandle::of(HOST)) else {
        return 0;
    };
    let table = host.manager().lock_table();
    let grants: Vec<String> = table
        .resources()
        .into_iter()
        .map(|r| format!("{r:?}:{:?}", table.holders(r)))
        .collect();
    crate::explore::hash_of(&(host.state_digest(), grants))
}

/// Step invariant: the lock table never holds incompatible grants —
/// a resource has either one exclusive holder or only shared holders.
pub(crate) struct LockTableConsistent;

impl Invariant<TxnHarnessMsg> for LockTableConsistent {
    fn name(&self) -> &'static str {
        "lock-table-consistent"
    }

    fn check_step(&mut self, sim: &Sim<TxnHarnessMsg>) -> Result<(), String> {
        let host: &TxnHost = sim.get(ActorHandle::of(HOST)).ok_or("no host actor")?;
        let table = host.manager().lock_table();
        for resource in table.resources() {
            let holders = table.holders(resource);
            let exclusive = holders
                .iter()
                .filter(|(_, m)| *m == LockMode::Exclusive)
                .count();
            if exclusive > 1 || (exclusive == 1 && holders.len() > 1) {
                return Err(format!(
                    "resource {resource:?} has incompatible holders {holders:?}"
                ));
            }
        }
        Ok(())
    }
}

/// Quiescence invariant for [`cycle_sim`]: every transaction finished;
/// at most one abort; and any victim is the youngest transaction (the
/// ring cycle is the only possible cycle, and its youngest member has
/// the highest id).
pub(crate) struct DeadlockResolved {
    n: usize,
}

impl DeadlockResolved {
    /// For a [`cycle_sim`] of `n` transactions.
    pub fn new(n: usize) -> Self {
        DeadlockResolved { n }
    }
}

impl Invariant<TxnHarnessMsg> for DeadlockResolved {
    fn name(&self) -> &'static str {
        "deadlock-victim-youngest"
    }

    fn check_quiescent(&mut self, sim: &Sim<TxnHarnessMsg>) -> Result<(), String> {
        let host: &TxnHost = sim.get(ActorHandle::of(HOST)).ok_or("no host actor")?;
        if host.manager().active() != 0 {
            return Err(format!(
                "liveness: {} transaction(s) never finished (committed {:?}, aborted {:?})",
                host.manager().active(),
                host.committed,
                host.aborted
            ));
        }
        if host.committed.len() + host.aborted.len() != self.n {
            return Err(format!(
                "{} of {} transactions unaccounted for",
                self.n - host.committed.len() - host.aborted.len(),
                self.n
            ));
        }
        match host.aborted.as_slice() {
            [] => Ok(()),
            [victim] => {
                let youngest = *host.txn_ids().last().ok_or("no transactions")?;
                if *victim != youngest {
                    return Err(format!("victim {victim} is not the youngest ({youngest})"));
                }
                Ok(())
            }
            more => Err(format!("multiple victims {more:?} for a single cycle")),
        }
    }
}
