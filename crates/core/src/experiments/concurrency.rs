//! Experiments E2–E4: the concurrency-transparency-versus-awareness
//! trade-off (Figure 2 and the Ellis real-time requirements).

use odp_concurrency::granularity::{unit_count, Granularity};
use odp_concurrency::store::ObjectId;
use odp_concurrency::twophase::{OpKind, SubmitReply, TxnEvent, TxnManager, TxnOp};
use odp_sim::rng::DetRng;
use odp_sim::time::SimTime;

use super::schemes::{run_scheme, Scheme};
use super::{Shape, Table};

/// Mean of trace-derived notification latencies (issue → first peer
/// sees), in milliseconds; `None` if no pairs were observed.
fn notification_ms(sim: &odp_sim::sim::Sim<super::schemes::CcMsg>) -> Option<f64> {
    let pairs = sim.trace().cause_effect_pairs("op.issued", "op.seen");
    if pairs.is_empty() {
        return None;
    }
    let total_us: u64 = pairs
        .iter()
        .map(|(c, e)| e.time.saturating_since(c.time).as_micros())
        .sum();
    Some(total_us as f64 / pairs.len() as f64 / 1_000.0)
}

fn response_ms(sim: &odp_sim::sim::Sim<super::schemes::CcMsg>) -> f64 {
    sim.metrics()
        .histogram("cc.response")
        .map(|h| {
            let mut h = h.clone();
            h.summary().mean.as_micros() as f64 / 1_000.0
        })
        .unwrap_or(0.0)
}

/// **E2 — Figure 2a vs 2b.** N authors edit one shared document under
/// strict 2PL transactions versus a cooperative transaction group.
/// Expected shape: transactions block and push zero awareness; the group
/// never blocks and floods awareness.
pub(crate) fn e2_walls_vs_awareness(seed: u64) -> Vec<Table> {
    let mut table = Table::new(
        "E2",
        "Walls vs information flow: 2PL transactions vs transaction group (Figure 2)",
        [
            "scheme",
            "writers",
            "blocked_ops",
            "aborts",
            "awareness_notices",
            "mean_response_ms",
        ],
    );
    for &n in &[2u32, 4, 8] {
        for scheme in [Scheme::TwoPhase, Scheme::TxGroup] {
            let sim = run_scheme(scheme, n, 10, seed);
            table.push_row([
                format!("{}(n={n})", scheme.label()),
                n.to_string(),
                sim.metrics().counter("cc.blocked").to_string(),
                sim.metrics().counter("cc.aborts").to_string(),
                (sim.metrics().counter("cc.notices_sent")
                    + sim.metrics().counter("cc.group_notices"))
                .to_string(),
                format!("{:.2}", response_ms(&sim)),
            ]);
        }
    }
    vec![table]
}

/// **E3 — Ellis response & notification times.** Every scheme across a
/// latency sweep. Expected shape: OT's response time is flat (~0); the
/// lock-based schemes grow with latency; pull schemes have notification
/// times dominated by the polling interval.
pub(crate) fn e3_response_notification(seed: u64) -> Vec<Table> {
    let mut table = Table::new(
        "E3",
        "Response and notification time per scheme (3 users, latency sweep)",
        [
            "scheme",
            "latency_ms",
            "response_ms",
            "notification_ms",
            "blocked_ops",
        ],
    );
    for scheme in Scheme::ALL {
        for &latency in &[1u64, 25, 100] {
            let sim = run_scheme(scheme, 3, latency, seed);
            let notif = notification_ms(&sim)
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "-".to_owned());
            table.push_row([
                format!("{}@{latency}", scheme.label()),
                latency.to_string(),
                format!("{:.2}", response_ms(&sim)),
                notif,
                sim.metrics().counter("cc.blocked").to_string(),
            ]);
        }
    }
    vec![table]
}

/// **E4 — lock granularity.** The same interleaved edit workload under
/// the five granularities the paper names. Expected shape: finer
/// granularity lowers blocking but raises locking overhead (distinct
/// lock units touched).
pub(crate) fn e4_lock_granularity(seed: u64) -> Vec<Table> {
    const DOC_TEXT: &str = "Alpha beta gamma delta. Epsilon zeta eta theta! Iota kappa.\n\
                            Lambda mu nu xi. Omicron pi rho sigma?\n\n\
                            Tau upsilon phi chi. Psi omega alpha beta. Gamma delta epsilon.\n\
                            Zeta eta theta iota! Kappa lambda mu nu.";
    let mut table = Table::new(
        "E4",
        "Lock granularity: blocking vs overhead (4 writers, 40 rounds)",
        [
            "granularity",
            "units",
            "blocked_ops",
            "completed_ops",
            "lock_requests",
        ],
    );
    for g in Granularity::ALL {
        let mut rng = DetRng::seed_from(seed);
        let mut tm = TxnManager::new(g);
        tm.store_mut().create(ObjectId(1), DOC_TEXT);
        let users = 4usize;
        let rounds = 40usize;
        let mut blocked = 0u64;
        let mut completed = 0u64;
        let mut lock_requests = 0u64;
        // Interleave: each round every user begins a txn and edits; all
        // txns commit at round end — so within a round locks collide.
        for _round in 0..rounds {
            let mut txns = Vec::new();
            let mut round_blocked = Vec::new();
            for _u in 0..users {
                let txn = tm.begin();
                let len = tm.store().read(ObjectId(1)).unwrap().value.chars().count();
                let pos = rng.index(len);
                let op = TxnOp {
                    object: ObjectId(1),
                    pos,
                    kind: OpKind::Insert("x".to_owned()),
                };
                lock_requests += 1;
                match tm.submit(txn, op, SimTime::ZERO) {
                    Ok(SubmitReply::Done(_)) => {
                        completed += 1;
                        txns.push(txn);
                    }
                    Ok(SubmitReply::Blocked) => {
                        blocked += 1;
                        round_blocked.push(txn);
                        txns.push(txn);
                    }
                    Err(e) => panic!("unexpected txn error: {e}"),
                }
            }
            // Commit everyone; resumed ops count as completed.
            let mut done = std::collections::HashSet::new();
            let mut worklist: Vec<_> = txns
                .iter()
                .copied()
                .filter(|t| !round_blocked.contains(t))
                .collect();
            while let Some(t) = worklist.pop() {
                if !done.insert(t) {
                    continue;
                }
                for ev in tm.commit(t, SimTime::ZERO).unwrap_or_default() {
                    match ev {
                        TxnEvent::OpCompleted { txn, .. } => {
                            completed += 1;
                            worklist.push(txn);
                        }
                        TxnEvent::TxnAborted { .. } => {}
                    }
                }
            }
            // Any still-blocked txns (shouldn't remain) get aborted.
            for t in txns {
                if !done.contains(&t) {
                    let _ = tm.abort(t, SimTime::ZERO);
                }
            }
        }
        let text_now = tm.store().read(ObjectId(1)).unwrap().value.clone();
        table.push_row([
            g.to_string(),
            unit_count(&text_now, g).to_string(),
            blocked.to_string(),
            completed.to_string(),
            lock_requests.to_string(),
        ]);
    }
    vec![table]
}

/// The shapes the E2, E3 and E4 verdicts state.
pub(crate) const SHAPES: &[Shape] = &[
    Shape {
        table: "E2",
        claim: "at eight writers 2PL blocks and carries no awareness; the transaction group never blocks and carries awareness",
        holds: |t| {
            let walls = |c: &str| t.cell_f64("2pl-transactions(n=8)", c);
            let group = |c: &str| t.cell_f64("transaction-group(n=8)", c);
            Some(
                walls("blocked_ops")? > 0.0
                    && group("blocked_ops")? == 0.0
                    && walls("awareness_notices")? == 0.0
                    && group("awareness_notices")? > 0.0,
            )
        },
    },
    Shape {
        table: "E3",
        claim: "OT responds in 0 ms at 1 and 100 ms latency; 2PL response grows by over 100 ms across the sweep",
        holds: |t| {
            let response = |r: &str| t.cell_f64(r, "response_ms");
            Some(
                response("operation-transform@1")? == 0.0
                    && response("operation-transform@100")? == 0.0
                    && response("2pl-transactions@100")? > response("2pl-transactions@1")? + 100.0,
            )
        },
    },
    Shape {
        table: "E4",
        claim: "word locks block less than document locks and manage over ten times the units",
        holds: |t| {
            Some(
                t.cell_f64("document", "blocked_ops")? > t.cell_f64("word", "blocked_ops")?
                    && t.cell_f64("word", "units")? > t.cell_f64("document", "units")? * 10.0,
            )
        },
    },
];

#[cfg(test)]
mod tests {
    use super::super::assert_detects;

    #[test]
    fn e2_fails_when_transactions_carry_awareness() {
        assert_detects("E2", "2pl-transactions(n=8)", "awareness_notices", "1");
    }

    #[test]
    fn e3_fails_when_ot_response_waits_on_the_network() {
        assert_detects("E3", "operation-transform@100", "response_ms", "200.00");
    }

    #[test]
    fn e4_fails_when_word_locks_block_as_often_as_document_locks() {
        assert_detects("E4", "word", "blocked_ops", "120");
    }
}
