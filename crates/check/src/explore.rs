//! Bounded exploration of message-delivery interleavings with dynamic
//! partial-order reduction and state hashing.
//!
//! The default simulator schedule processes events in `(time, seq)`
//! order, which exercises exactly one interleaving per seed. Protocol
//! bugs of the kind the paper worries about — stale caches, divergent
//! replicas, mis-resolved deadlocks — hide in the *other* orders, so
//! this module drives [`Sim::step_nth`] through a bounded DFS over
//! pending-delivery permutations, in the style of stateless model
//! checkers for optimistic-replication algorithms.
//!
//! Exploration is stateless: a schedule is identified by the choice
//! indices taken at each branch point, and replaying a prefix means
//! rebuilding the simulation from its seed and stepping through the
//! same choices. That makes every counterexample a `(seed, choices)`
//! pair that reproduces exactly, on any machine.
//!
//! Naive enumeration visits `branch^depth` schedules. Two reductions
//! keep deeper spaces tractable without losing violations:
//!
//! * **Dynamic partial-order reduction** ([`Reduction::Dpor`], the
//!   default). Deliveries to *different* receivers commute — running
//!   them in either order reaches the same state — so reversing them
//!   is wasted work. Each run records a happens-before relation over
//!   its executed deliveries (vector clocks grown along the
//!   [`Sim::last_executed`] cause chain); after the run, every pair of
//!   same-receiver deliveries where the later one was *not* already
//!   caused by the earlier one is a race, and only schedules reversing
//!   such races are enqueued. Sleep sets carry "already explored from
//!   here" knowledge into sibling subtrees so the same reversal is
//!   never explored twice.
//! * **State hashing** (via [`StateFingerprint`]). Different
//!   interleavings often converge to the same protocol state. When a
//!   fingerprint is supplied, a branch point whose `(actor-state,
//!   pending-set)` digest was already expanded with at least as much
//!   remaining depth budget is pruned.
//!
//! Both reductions are audited by a differential test suite proving
//! they find exactly the violations plain enumeration finds (see
//! `tests/dpor_differential.rs`), and their effect is reported in
//! [`ExploreStats`].

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use odp_sim::net::NodeId;
use odp_sim::sim::{PendingEvent, Sim};
use odp_sim::time::{SimDuration, SimTime};

/// A safety/liveness predicate checked while a schedule runs.
///
/// An instance is created fresh (via the invariant factory handed to
/// [`Explorer::explore`]) for every explored schedule, so it may keep
/// per-run state such as "last vector clock seen per member".
pub trait Invariant<M> {
    /// Short stable name, quoted in counterexamples.
    fn name(&self) -> &'static str;

    /// Called after every processed event.
    fn check_step(&mut self, _sim: &Sim<M>) -> Result<(), String> {
        Ok(())
    }

    /// Called once the schedule quiesces (event queue drained).
    fn check_quiescent(&mut self, _sim: &Sim<M>) -> Result<(), String> {
        Ok(())
    }
}

/// A canonical digest of the protocol state relevant to a scenario.
///
/// Used by [`Explorer::explore_hashed`] to prune schedules that
/// converge to an already-expanded `(state, pending-set)` pair. The
/// digest must cover *all* state the scenario's invariants read —
/// missing state makes distinct states collide and can hide
/// violations, which is exactly what the differential suite checks.
///
/// Implemented for any `Fn(&Sim<M>) -> u64`, so invariant modules
/// expose plain `fn fingerprint(sim: &Sim<M>) -> u64` functions.
pub trait StateFingerprint<M> {
    /// Digest of the current actor state.
    fn fingerprint(&self, sim: &Sim<M>) -> u64;
}

impl<M, F> StateFingerprint<M> for F
where
    F: Fn(&Sim<M>) -> u64,
{
    fn fingerprint(&self, sim: &Sim<M>) -> u64 {
        self(sim)
    }
}

/// Hashes any `Hash` value with the deterministic std SipHash (fixed
/// keys), the convention for [`StateFingerprint`] impls.
pub fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Which schedule-space reduction the explorer applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Dynamic partial-order reduction with sleep sets (sound: finds
    /// every violation plain enumeration finds, in fewer runs).
    #[default]
    Dpor,
    /// Plain enumeration of every sibling at every branch point — the
    /// ground truth the differential suite compares against.
    Full,
    /// **Intentionally unsound**: treats every delivery pair as
    /// independent, so no reversals are ever enqueued. Exists so tests
    /// can prove a broken dependence relation is *detected* (it misses
    /// seeded violations that [`Reduction::Full`] finds).
    DisarmedDependence,
}

/// Exploration limits. Naive schedule spaces grow as `branch^depth`;
/// DPOR and hashing tame that, but `max_runs` still caps the total.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Branch points permuted per schedule; beyond this the run follows
    /// the default order.
    pub max_depth: usize,
    /// Alternatives considered per branch point (first `n` pending
    /// deliveries).
    pub max_branch: usize,
    /// Total schedules explored.
    pub max_runs: usize,
    /// Per-schedule event cap (runaway guard).
    pub max_events: u64,
    /// Treat a run as quiescent once no deliveries are in flight and
    /// the next event (necessarily a timer) lies past this time.
    /// Required for protocols with self-re-arming tick timers, whose
    /// event queue never empties on its own.
    pub horizon: Option<SimTime>,
    /// Only deliveries scheduled within this much of the earliest
    /// pending delivery count as concurrent (and thus permutable).
    /// Models bounded network reordering: a message is never delayed
    /// past traffic sent much later, so branch depth is spent on
    /// genuine races instead of wildly anachronistic orders.
    pub window: SimDuration,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_depth: 6,
            max_branch: 3,
            max_runs: 400,
            max_events: 200_000,
            horizon: None,
            window: SimDuration::from_millis(10),
        }
    }
}

impl Budget {
    /// A small budget for CI smoke runs.
    pub(crate) fn smoke() -> Self {
        Budget {
            max_depth: 4,
            max_branch: 3,
            max_runs: 60,
            max_events: 100_000,
            horizon: None,
            window: SimDuration::from_millis(10),
        }
    }

    /// A deep-search budget: depths naive enumeration cannot reach
    /// (`4^10` ≈ a million schedules naively), made tractable by DPOR
    /// and state hashing.
    pub fn deep() -> Self {
        Budget {
            max_depth: 10,
            max_branch: 4,
            max_runs: 20_000,
            max_events: 1_000_000,
            horizon: None,
            window: SimDuration::from_millis(10),
        }
    }

    /// The same budget with a quiescence horizon.
    pub fn with_horizon(mut self, at: SimTime) -> Self {
        self.horizon = Some(at);
        self
    }
}

/// A reproducible schedule that violated an invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The simulation seed.
    pub seed: u64,
    /// Branch choices taken, in order (indices into each branch point's
    /// candidate list).
    pub choices: Vec<usize>,
    /// Which invariant failed.
    pub invariant: String,
    /// The invariant's message.
    pub violation: String,
}

impl Counterexample {
    /// The compact replayable form: `seed:c0.c1.c2`.
    pub fn trace(&self) -> String {
        let choices: Vec<String> = self.choices.iter().map(|c| c.to_string()).collect();
        format!("{}:{}", self.seed, choices.join("."))
    }

    /// Parses the form produced by [`Counterexample::trace`].
    pub fn parse_trace(s: &str) -> Option<(u64, Vec<usize>)> {
        let (seed, rest) = s.split_once(':')?;
        let seed = seed.parse().ok()?;
        if rest.is_empty() {
            return Some((seed, Vec::new()));
        }
        let choices = rest
            .split('.')
            .map(|c| c.parse().ok())
            .collect::<Option<Vec<usize>>>()?;
        Some((seed, choices))
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant `{}` violated under schedule {} — {}",
            self.invariant,
            self.trace(),
            self.violation
        )
    }
}

/// A stale or corrupted trace handed to [`Explorer::replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A prescribed choice exceeded the candidate count at its branch
    /// point — the trace was recorded against a different scenario
    /// build, so replaying any *other* schedule would be misleading.
    ChoiceOutOfRange {
        /// Which branch point (index into the choice list).
        position: usize,
        /// The out-of-range choice.
        choice: usize,
        /// How many candidates the branch point actually had.
        candidates: usize,
    },
    /// The run finished clean without reading every prescribed choice:
    /// it met fewer branch points than the trace has entries — the
    /// trace was recorded under a deeper [`Budget`] or against a
    /// different scenario, so "clean" would be a verdict on some other
    /// schedule.
    UnconsumedChoices {
        /// How many choices the run read.
        consumed: usize,
        /// How many the trace prescribed.
        prescribed: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::ChoiceOutOfRange {
                position,
                choice,
                candidates,
            } => write!(
                f,
                "stale trace: choice {choice} at branch point {position} is out of range \
                 ({candidates} candidates) — the trace does not match this scenario"
            ),
            ReplayError::UnconsumedChoices {
                consumed,
                prescribed,
            } => write!(
                f,
                "stale trace: the run ended clean after reading {consumed} of {prescribed} \
                 choices — replay under the budget the trace was recorded with"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// How much work a reduction saved, reported alongside the run counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Naive size of the bounded schedule space, estimated by
    /// multiplying the branch widths seen along the default schedule.
    pub naive_bound: u64,
    /// Runs cut short because every branch candidate was in the sleep
    /// set (their subtrees were proven covered by sibling schedules).
    pub sleep_pruned: usize,
    /// Runs cut short at a branch point whose `(state, pending)`
    /// fingerprint was already expanded with at least as much remaining
    /// depth budget.
    pub hash_pruned: usize,
    /// Same-receiver delivery pairs found racing (neither causally
    /// ordered before the other) across all runs.
    pub racing_pairs: u64,
    /// `naive_bound / runs` — how much smaller the explored space was
    /// than the naive bound. 1.0 means no reduction (e.g. every pair
    /// of deliveries shared a receiver).
    pub reduction_factor: f64,
}

/// What an exploration did.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedules executed.
    pub runs: usize,
    /// Events processed across all schedules.
    pub events: u64,
    /// The first violation found, if any.
    pub violation: Option<Counterexample>,
    /// True when the whole bounded schedule space was covered before
    /// `max_runs` tripped.
    pub complete: bool,
    /// Reduction accounting.
    pub stats: ExploreStats,
}

/// The bounded-DFS schedule explorer.
pub struct Explorer {
    seed: u64,
    budget: Budget,
    reduction: Reduction,
}

/// A pending delivery eligible at a branch point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    /// Index into the sim's pending order (what `step_nth` takes).
    idx: usize,
    /// Stable event identity across interleavings.
    seq: u64,
    /// The receiver — the dependence relation keys on this.
    to: NodeId,
}

/// A delivery whose subtree is already covered by a sibling schedule.
/// It stays asleep until an event at its receiver executes (a
/// dependent transition invalidates the coverage argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SleepEntry {
    seq: u64,
    to: NodeId,
}

/// One branch point as a run saw it.
struct BranchPoint {
    /// Position of the chosen event in the run's execution order.
    pos: usize,
    /// Index into the run's choice vector.
    depth: usize,
    candidates: Vec<Candidate>,
    /// Index into `candidates` actually taken.
    choice: usize,
    /// The sleep entries active when the branch point was reached, as
    /// a range of [`RunData::asleep`].
    asleep: Range<usize>,
}

/// One executed event, as the reducer needs it.
struct ExecRec {
    seq: u64,
    /// The receiver's dense node index when the event was a delivery.
    to: Option<usize>,
    /// Position of the event during whose processing this one was
    /// enqueued, when that event ran in this run.
    cause: Option<usize>,
}

/// Marks an empty slot in [`HappensBefore`]'s position tables.
const NONE: u32 = u32::MAX;

/// Vector clocks over one run's executed events, in one flat arena.
///
/// Nodes get dense indices: first the sim's actors, then any receiver
/// without an actor, appended when first met (which re-strides the
/// rows). Row `pos` is the clock after the run's `pos`-th event: per
/// node, the ordinal of the latest event there in that event's causal
/// past. An event's own ordinal is its node's component of its row.
struct HappensBefore {
    /// Dense index → node.
    nodes: Vec<NodeId>,
    /// `len` rows of `nodes.len()` components each, back to back.
    rows: Vec<u32>,
    /// Events recorded so far.
    len: usize,
    /// Per node, the position of its latest event.
    latest: Vec<u32>,
    /// Per `seq`, the position of its event. A run's seqs are dense
    /// from the factory's sim, so this is a plain index.
    seq_pos: Vec<u32>,
}

impl HappensBefore {
    fn new(nodes: Vec<NodeId>) -> Self {
        HappensBefore {
            latest: vec![NONE; nodes.len()],
            nodes,
            rows: Vec::new(),
            len: 0,
            seq_pos: Vec::new(),
        }
    }

    /// Position of the event with this `seq`, if it ran in this run.
    fn pos_of(&self, seq: u64) -> Option<usize> {
        match self.seq_pos.get(seq as usize) {
            Some(&pos) if pos != NONE => Some(pos as usize),
            _ => None,
        }
    }

    /// `node`'s component of row `pos`.
    fn clock(&self, pos: usize, node: usize) -> u32 {
        self.rows[pos * self.nodes.len() + node]
    }

    /// The dense index of `node`, adding a column for it if it is new.
    fn index_of(&mut self, node: NodeId) -> usize {
        if let Some(k) = self.nodes.iter().position(|&n| n == node) {
            return k;
        }
        let (old, new) = (self.nodes.len(), self.nodes.len() + 1);
        self.rows.resize(self.len * new, 0);
        // Back to front, so no row is overwritten before it moves.
        for r in (0..self.len).rev() {
            self.rows.copy_within(r * old..r * old + old, r * new);
            self.rows[r * new + old] = 0;
        }
        self.nodes.push(node);
        self.latest.push(NONE);
        old
    }

    /// Appends the row of the event `seq`, executed at `node` and
    /// enqueued by the event at position `cause`: the node's previous
    /// clock joined with the cause's, then the node's own ordinal
    /// bumped. Returns the node's dense index.
    fn record(&mut self, seq: u64, node: Option<NodeId>, cause: Option<usize>) -> Option<usize> {
        let k = node.map(|n| self.index_of(n));
        let width = self.nodes.len();
        let base = self.rows.len();
        let pos = self.len;
        match k.map(|k| self.latest[k]) {
            Some(prev) if prev != NONE => {
                let prev = prev as usize * width;
                self.rows.extend_from_within(prev..prev + width);
            }
            _ => self.rows.resize(base + width, 0),
        }
        if let Some(cause) = cause {
            for c in 0..width {
                let seen = self.rows[cause * width + c];
                let slot = &mut self.rows[base + c];
                *slot = (*slot).max(seen);
            }
        }
        if let Some(k) = k {
            self.rows[base + k] += 1;
            self.latest[k] = pos as u32;
        }
        let seq = seq as usize;
        if seq >= self.seq_pos.len() {
            self.seq_pos.resize(seq + 1, NONE);
        }
        self.seq_pos[seq] = pos as u32;
        self.len += 1;
        k
    }
}

/// Everything a finished (non-violating) run learned.
struct RunData {
    taken: Vec<usize>,
    branch_points: Vec<BranchPoint>,
    /// Every branch point's sleep entries, back to back.
    asleep: Vec<SleepEntry>,
    execs: Vec<ExecRec>,
    clocks: HappensBefore,
    /// Run ended at a fingerprint hit.
    hash_pruned: bool,
    /// Run ended because every continuation was asleep.
    sleep_pruned: bool,
}

impl RunData {
    /// The sleep entries active when `bp` was reached.
    fn asleep_at(&self, bp: &BranchPoint) -> &[SleepEntry] {
        &self.asleep[bp.asleep.clone()]
    }
}

/// A schedule prefix queued for execution.
struct Job {
    choices: Vec<usize>,
    /// Sleep set in force at the deviation point (the state reached by
    /// the last prescribed choice's branch point).
    sleep: Vec<SleepEntry>,
}

enum RunOutcome {
    Violation(Counterexample),
    Finished(RunData),
    /// A prescribed choice was out of range (possible only for
    /// user-supplied replay traces; internal jobs replay exactly).
    BadChoice {
        position: usize,
        choice: usize,
        candidates: usize,
    },
}

impl Explorer {
    /// An explorer over schedules of `factory(seed)`, using
    /// [`Reduction::Dpor`].
    pub fn new(seed: u64, budget: Budget) -> Self {
        Explorer {
            seed,
            budget,
            reduction: Reduction::default(),
        }
    }

    /// The same explorer with an explicit reduction mode.
    pub fn with_reduction(mut self, reduction: Reduction) -> Self {
        self.reduction = reduction;
        self
    }

    /// The seed in force.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Explores the bounded schedule space. `factory` must build the
    /// *same* simulation for the same seed every call; `invariants`
    /// builds a fresh invariant set per schedule.
    pub fn explore<M, F, G>(&self, factory: F, invariants: G) -> Report
    where
        M: 'static,
        F: Fn(u64) -> Sim<M>,
        G: Fn() -> Vec<Box<dyn Invariant<M>>>,
    {
        self.drive(&factory, &invariants, None)
    }

    /// Like [`Explorer::explore`], additionally pruning branch points
    /// whose `(state, pending)` fingerprint was already expanded.
    pub fn explore_hashed<M, F, G, H>(&self, factory: F, invariants: G, fingerprint: H) -> Report
    where
        M: 'static,
        F: Fn(u64) -> Sim<M>,
        G: Fn() -> Vec<Box<dyn Invariant<M>>>,
        H: StateFingerprint<M>,
    {
        self.drive(&factory, &invariants, Some(&fingerprint))
    }

    fn drive<M, F, G>(
        &self,
        factory: &F,
        invariants: &G,
        fingerprint: Option<&dyn StateFingerprint<M>>,
    ) -> Report
    where
        M: 'static,
        F: Fn(u64) -> Sim<M>,
        G: Fn() -> Vec<Box<dyn Invariant<M>>>,
    {
        let mut report = Report {
            runs: 0,
            events: 0,
            violation: None,
            complete: false,
            stats: ExploreStats::default(),
        };
        // Fingerprint → largest remaining depth budget it was expanded
        // with. Shared across the whole exploration.
        let mut visited: BTreeMap<(u64, u64), usize> = BTreeMap::new();
        // Branch-point path → candidates already dispatched or queued
        // from that state. Sibling jobs sleep on these.
        let mut dispatched: BTreeMap<Vec<usize>, Vec<SleepEntry>> = BTreeMap::new();
        // Lazy DFS over the schedule tree: run a prefix past its end
        // following default choices, and enqueue reversal prefixes
        // discovered along the way.
        let mut stack: Vec<Job> = vec![Job {
            choices: Vec::new(),
            sleep: Vec::new(),
        }];
        while let Some(job) = stack.pop() {
            if report.runs >= self.budget.max_runs {
                self.finalize(&mut report);
                return report;
            }
            report.runs += 1;
            let prefix_len = job.choices.len();
            match self.run_schedule(
                factory,
                invariants,
                job,
                fingerprint,
                &mut visited,
                &mut report.events,
            ) {
                RunOutcome::Violation(cx) => {
                    report.violation = Some(cx);
                    self.finalize(&mut report);
                    return report;
                }
                RunOutcome::BadChoice { .. } => {
                    // Internally queued prefixes always replay within
                    // range; treat an impossible mismatch as a pruned
                    // run rather than exploring a wrong schedule.
                    debug_assert!(false, "internal prefix out of range");
                    continue;
                }
                RunOutcome::Finished(data) => {
                    if report.runs == 1 {
                        report.stats.naive_bound =
                            data.branch_points.iter().fold(1u64, |acc, bp| {
                                acc.saturating_mul(bp.candidates.len() as u64)
                            });
                    }
                    if data.hash_pruned {
                        report.stats.hash_pruned += 1;
                    }
                    if data.sleep_pruned {
                        report.stats.sleep_pruned += 1;
                    }
                    let exts = match self.reduction {
                        Reduction::Full => self.full_extensions(prefix_len, &data),
                        Reduction::Dpor | Reduction::DisarmedDependence => {
                            self.dpor_extensions(&data, &mut dispatched, &mut report.stats)
                        }
                    };
                    // Reverse keeps exploration order depth-first in
                    // discovery order.
                    stack.extend(exts.into_iter().rev());
                }
            }
        }
        report.complete = true;
        self.finalize(&mut report);
        report
    }

    fn finalize(&self, report: &mut Report) {
        let runs = report.runs.max(1) as f64;
        let bound = report.stats.naive_bound.max(1) as f64;
        report.stats.reduction_factor = bound / runs;
    }

    /// Plain enumeration: every sibling of every branch point past the
    /// prescribed prefix becomes a new prefix. Visits each bounded
    /// schedule exactly once.
    fn full_extensions(&self, prefix_len: usize, data: &RunData) -> Vec<Job> {
        let mut exts = Vec::new();
        for bp in &data.branch_points {
            if bp.depth < prefix_len {
                continue;
            }
            for c in 0..bp.candidates.len() {
                if c == bp.choice {
                    continue;
                }
                let mut choices = data.taken[..bp.depth].to_vec();
                choices.push(c);
                exts.push(Job {
                    choices,
                    sleep: Vec::new(),
                });
            }
        }
        exts
    }

    /// DPOR: enqueue only prefixes that reverse a racing pair of
    /// same-receiver deliveries, with sleep sets preventing the same
    /// reversal from being queued twice from one state.
    fn dpor_extensions(
        &self,
        data: &RunData,
        dispatched: &mut BTreeMap<Vec<usize>, Vec<SleepEntry>>,
        stats: &mut ExploreStats,
    ) -> Vec<Job> {
        // The choice this run took at each branch point is now covered:
        // siblings queued later from the same state sleep on it.
        for bp in &data.branch_points {
            let key = &data.taken[..bp.depth];
            let chosen = bp.candidates[bp.choice];
            let se = SleepEntry {
                seq: chosen.seq,
                to: chosen.to,
            };
            match dispatched.get_mut(key) {
                Some(entry) if !entry.contains(&se) => entry.push(se),
                Some(_) => {}
                None => {
                    // Once per state, when a run first reaches it.
                    dispatched.insert(key.to_vec(), vec![se]);
                }
            }
        }
        let mut exts = Vec::new();
        if self.reduction == Reduction::DisarmedDependence {
            // Every pair deemed independent: no races, no reversals.
            return exts;
        }
        for (j, q) in data.execs.iter().enumerate() {
            let Some(q_to) = q.to else { continue };
            // Branch points are recorded in execution order.
            for bp in data.branch_points.iter().take_while(|bp| bp.pos < j) {
                let i = bp.pos;
                if data.execs[i].to != Some(q_to) {
                    // Disjoint receivers commute.
                    continue;
                }
                // p happened-before q's *send* ⇒ the order is forced,
                // not a race. The send's causal past is the cause
                // event's clock; an injected q (no cause) races any
                // earlier same-receiver delivery.
                let p_ordinal = data.clocks.clock(i, q_to);
                if q.cause
                    .is_some_and(|cp| data.clocks.clock(cp, q_to) >= p_ordinal)
                {
                    continue;
                }
                stats.racing_pairs += 1;
                // Reverse the race at p's branch point: prefer running
                // q (or its earliest pending ancestor) instead of p.
                // If neither is a candidate there, conservatively queue
                // every alternative (Flanagan–Godefroid fallback).
                let mut promote: Option<usize> = None;
                let mut cur = Some(j);
                while let Some(cj) = cur {
                    if cj <= i {
                        break;
                    }
                    let seq = data.execs[cj].seq;
                    if let Some(k) = bp.candidates.iter().position(|c| c.seq == seq) {
                        promote = Some(k);
                        break;
                    }
                    cur = data.execs[cj].cause;
                }
                let targets = match promote {
                    Some(k) => k..k + 1,
                    None => 0..bp.candidates.len(),
                };
                let key = &data.taken[..bp.depth];
                let asleep = data.asleep_at(bp);
                for k in targets {
                    if k == bp.choice {
                        continue;
                    }
                    let cand = bp.candidates[k];
                    let se = SleepEntry {
                        seq: cand.seq,
                        to: cand.to,
                    };
                    if asleep.contains(&se) {
                        // Covered by a sibling subtree already.
                        continue;
                    }
                    // The first loop keyed every branch point's state.
                    let Some(entry) = dispatched.get_mut(key) else {
                        continue;
                    };
                    if entry.contains(&se) {
                        // Already run or queued from this state.
                        continue;
                    }
                    // The new job sleeps on everything already covered
                    // from this state: siblings dispatched/queued plus
                    // entries that were asleep here in this run.
                    let mut sleep = Vec::with_capacity(entry.len() + asleep.len());
                    sleep.extend_from_slice(entry);
                    for inherited in asleep {
                        if !sleep.contains(inherited) {
                            sleep.push(*inherited);
                        }
                    }
                    entry.push(se);
                    let mut choices = Vec::with_capacity(key.len() + 1);
                    choices.extend_from_slice(key);
                    choices.push(k);
                    exts.push(Job { choices, sleep });
                }
            }
        }
        exts
    }

    /// Replays one exact schedule (e.g. a counterexample's `choices`)
    /// and returns its violation, if it still fails.
    ///
    /// A trace recorded against a different scenario build or a deeper
    /// budget is rejected with a [`ReplayError`] instead of silently
    /// replaying some other schedule.
    pub fn replay<M, F, G>(
        &self,
        factory: F,
        invariants: G,
        choices: &[usize],
    ) -> Result<Option<Counterexample>, ReplayError>
    where
        M: 'static,
        F: Fn(u64) -> Sim<M>,
        G: Fn() -> Vec<Box<dyn Invariant<M>>>,
    {
        let mut events = 0;
        let mut visited = BTreeMap::new();
        let job = Job {
            choices: choices.to_vec(),
            sleep: Vec::new(),
        };
        match self.run_schedule(&factory, &invariants, job, None, &mut visited, &mut events) {
            RunOutcome::Violation(cx) => Ok(Some(cx)),
            RunOutcome::Finished(data) if data.taken.len() < choices.len() => {
                Err(ReplayError::UnconsumedChoices {
                    consumed: data.taken.len(),
                    prescribed: choices.len(),
                })
            }
            RunOutcome::Finished(_) => Ok(None),
            RunOutcome::BadChoice {
                position,
                choice,
                candidates,
            } => Err(ReplayError::ChoiceOutOfRange {
                position,
                choice,
                candidates,
            }),
        }
    }

    /// Runs one schedule: follow the job's choices at branch points,
    /// then default to the first non-sleeping candidate, recording
    /// branch structure and happens-before for the reducer.
    ///
    /// A step scans the pending set once, into a buffer the run reuses,
    /// and records its clock row in the run's arena: executing an event
    /// allocates nothing here beyond amortised growth.
    fn run_schedule<M, F, G>(
        &self,
        factory: &F,
        invariants: &G,
        job: Job,
        fingerprint: Option<&dyn StateFingerprint<M>>,
        visited: &mut BTreeMap<(u64, u64), usize>,
        total_events: &mut u64,
    ) -> RunOutcome
    where
        M: 'static,
        F: Fn(u64) -> Sim<M>,
        G: Fn() -> Vec<Box<dyn Invariant<M>>>,
    {
        let Job {
            choices: prefix,
            sleep: mut deviation_sleep,
        } = job;
        let mut sim = factory(self.seed);
        let mut invs = invariants();
        let dpor = self.reduction != Reduction::Full;
        let mut data = RunData {
            taken: Vec::new(),
            branch_points: Vec::new(),
            asleep: Vec::new(),
            execs: Vec::new(),
            clocks: HappensBefore::new(sim.node_ids()),
            hash_pruned: false,
            sleep_pruned: false,
        };
        // The job's sleep set describes the deviation state; it arms
        // when the run reaches that state and is woken (entries
        // removed) by dependent executions thereafter.
        let mut sleep: Vec<SleepEntry> = if prefix.is_empty() {
            std::mem::take(&mut deviation_sleep)
        } else {
            Vec::new()
        };
        let mut pending: Vec<PendingEvent> = Vec::new();
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut events_this_run = 0u64;

        loop {
            if sim.pending_len() == 0 {
                break;
            }
            if events_this_run >= self.budget.max_events {
                break;
            }
            sim.pending_events_into(&mut pending);
            branch_candidates(
                &pending,
                self.budget.max_branch,
                self.budget.window,
                &mut candidates,
            );
            if candidates.is_empty() {
                // Only timers/net-changes remain; past the horizon the
                // protocol is as settled as it will get.
                if let (Some(h), Some(next)) = (self.budget.horizon, sim.next_event_time()) {
                    if next > h {
                        break;
                    }
                }
            }
            let at_branch = candidates.len() >= 2 && data.taken.len() < self.budget.max_depth;
            let stepped = if at_branch {
                let depth = data.taken.len();
                if !prefix.is_empty() && depth == prefix.len() - 1 {
                    // Reached the deviation state the sleep set
                    // describes.
                    sleep = std::mem::take(&mut deviation_sleep);
                }
                let choice = if depth < prefix.len() {
                    let c = prefix[depth];
                    if c >= candidates.len() {
                        return RunOutcome::BadChoice {
                            position: depth,
                            choice: c,
                            candidates: candidates.len(),
                        };
                    }
                    c
                } else {
                    if let Some(fp) = fingerprint {
                        let key = (fp.fingerprint(&sim), pending_signature(&pending));
                        let remaining = self.budget.max_depth - depth;
                        match visited.get(&key) {
                            Some(&r) if r >= remaining => {
                                data.hash_pruned = true;
                                break;
                            }
                            _ => {
                                visited.insert(key, remaining);
                            }
                        }
                    }
                    let free = candidates
                        .iter()
                        .position(|c| !dpor || !sleep.iter().any(|e| e.seq == c.seq));
                    match free {
                        Some(c) => c,
                        None => {
                            // Every continuation is covered by a
                            // sibling subtree.
                            data.sleep_pruned = true;
                            break;
                        }
                    }
                };
                let idx = candidates[choice].idx;
                let asleep_from = data.asleep.len();
                data.asleep.extend_from_slice(&sleep);
                data.branch_points.push(BranchPoint {
                    pos: data.execs.len(),
                    depth,
                    candidates: std::mem::take(&mut candidates),
                    choice,
                    asleep: asleep_from..data.asleep.len(),
                });
                data.taken.push(choice);
                sim.step_nth(idx)
            } else {
                // A forced head that is asleep means the whole
                // remaining schedule is covered by a sibling subtree.
                if dpor && !sleep.is_empty() {
                    if let Some(head) = pending.first() {
                        if matches!(head, PendingEvent::Deliver { .. })
                            && sleep.iter().any(|e| e.seq == head.seq())
                        {
                            data.sleep_pruned = true;
                            break;
                        }
                    }
                }
                sim.step()
            };
            if !stepped {
                break;
            }
            events_this_run += 1;
            *total_events += 1;
            if let Some(done) = sim.last_executed() {
                let seq = done.desc.seq();
                let node = done.desc.node();
                let cause = done.caused_by.and_then(|cb| data.clocks.pos_of(cb));
                let at = data.clocks.record(seq, node, cause);
                let to = match done.desc {
                    PendingEvent::Deliver { .. } => at,
                    _ => None,
                };
                data.execs.push(ExecRec { seq, to, cause });
                // An execution at a sleeping delivery's receiver is a
                // dependent transition: the coverage argument for that
                // entry no longer holds, so it wakes.
                if let Some(n) = node {
                    sleep.retain(|e| e.to != n);
                }
            }
            for inv in &mut invs {
                if let Err(violation) = inv.check_step(&sim) {
                    return self.violated(data.taken, inv.name(), violation);
                }
            }
        }
        if !data.hash_pruned && !data.sleep_pruned {
            for inv in &mut invs {
                if let Err(violation) = inv.check_quiescent(&sim) {
                    return self.violated(data.taken, inv.name(), violation);
                }
            }
        }
        RunOutcome::Finished(data)
    }

    /// The outcome of a run that `invariant` rejected after `choices`.
    fn violated(&self, choices: Vec<usize>, invariant: &str, violation: String) -> RunOutcome {
        RunOutcome::Violation(Counterexample {
            seed: self.seed,
            choices,
            invariant: invariant.to_owned(),
            violation,
        })
    }
}

/// Digest of the pending event set (kinds, times, endpoints — *not*
/// seqs, which differ across interleavings that converge to the same
/// state). Combined with a [`StateFingerprint`] this identifies a
/// point in the bounded schedule space.
fn pending_signature(pending: &[PendingEvent]) -> u64 {
    let mut h = DefaultHasher::new();
    for ev in pending {
        match ev {
            PendingEvent::Start { node, time, .. } => (0u8, node, time.as_micros()).hash(&mut h),
            PendingEvent::Deliver { from, to, time, .. } => {
                (1u8, from, to, time.as_micros()).hash(&mut h)
            }
            PendingEvent::Timer { node, time, .. } => (2u8, node, time.as_micros()).hash(&mut h),
            PendingEvent::NetChange { time, .. } => (3u8, NodeId(0), time.as_micros()).hash(&mut h),
        }
    }
    h.finish()
}

/// The first `max_branch` in-flight deliveries that genuinely race the
/// head event. Branching happens only when the next-due event *is* a
/// delivery — timers and scheduled mutations fire exactly when the sim
/// says they do; reordering a delivery ahead of a pending timer would
/// fabricate schedules the deterministic runtime can never produce
/// (e.g. a node reacting to a message before generating its own
/// scripted event, changing the causal structure under test). Among
/// deliveries, only those ahead of the first non-delivery event in step
/// order — so not one due at a timer's instant but queued after it —
/// and due within `window` of the head count as concurrent. `pending`
/// is the sim's pending set in step order; `out` is overwritten.
fn branch_candidates(
    pending: &[PendingEvent],
    max_branch: usize,
    window: SimDuration,
    out: &mut Vec<Candidate>,
) {
    out.clear();
    let Some(PendingEvent::Deliver { time: head, .. }) = pending.first() else {
        return;
    };
    let cutoff = head.saturating_add(window);
    for (idx, ev) in pending.iter().enumerate().take(max_branch) {
        match *ev {
            PendingEvent::Deliver { to, time, seq, .. } if time <= cutoff => {
                out.push(Candidate { idx, seq, to })
            }
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_sim::net::NodeId;
    use odp_sim::prelude::*;

    /// An actor that records the order messages arrive in.
    struct Recorder {
        got: Vec<u32>,
    }
    impl Actor<u32> for Recorder {
        fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, msg: u32) {
            self.got.push(msg);
        }
    }

    fn build(seed: u64) -> Sim<u32> {
        let mut sim = SimBuilder::new(seed).build();
        sim.add_actor(NodeId(0), Recorder { got: Vec::new() });
        for (i, at) in [1u64, 2, 3].iter().enumerate() {
            sim.inject(
                SimTime::from_millis(*at),
                NodeId(9),
                NodeId(0),
                i as u32 + 1,
            );
        }
        sim
    }

    /// Rejects the order 3,1,2 — the explorer must find it.
    struct NoThreeFirst;
    impl Invariant<u32> for NoThreeFirst {
        fn name(&self) -> &'static str {
            "no-three-first"
        }
        fn check_quiescent(&mut self, sim: &Sim<u32>) -> Result<(), String> {
            let r: &Recorder = sim.get(ActorHandle::of(NodeId(0))).ok_or("no recorder")?;
            if r.got == vec![3, 1, 2] {
                return Err(format!("forbidden order {:?}", r.got));
            }
            Ok(())
        }
    }

    #[test]
    fn explorer_finds_a_specific_bad_order() {
        let ex = Explorer::new(7, Budget::default());
        let report = ex.explore(build, || vec![Box::new(NoThreeFirst)]);
        let cx = report.violation.expect("must find the 3,1,2 schedule");
        // The counterexample replays.
        let again = ex
            .replay(build, || vec![Box::new(NoThreeFirst)], &cx.choices)
            .expect("trace in range")
            .expect("replay reproduces");
        assert_eq!(again.violation, cx.violation);
    }

    #[test]
    fn exploration_covers_all_permutations_of_three_messages() {
        // With no invariant, a full exploration of 3 pending deliveries
        // needs 3! = 6 schedules (branch points shrink as messages
        // drain). All three share a receiver, so every pair is
        // dependent and DPOR must keep all six.
        let ex = Explorer::new(7, Budget::default());
        let report = ex.explore(build, Vec::new);
        assert!(report.complete);
        assert_eq!(report.runs, 6, "3! interleavings");
        assert_eq!(report.stats.naive_bound, 6);
    }

    #[test]
    fn full_enumeration_matches_dpor_on_dependent_space() {
        let ex = Explorer::new(7, Budget::default()).with_reduction(Reduction::Full);
        let report = ex.explore(build, Vec::new);
        assert!(report.complete);
        assert_eq!(report.runs, 6);
    }

    #[test]
    fn clean_invariants_pass_and_space_is_complete() {
        struct AllThree;
        impl Invariant<u32> for AllThree {
            fn name(&self) -> &'static str {
                "all-three-arrive"
            }
            fn check_quiescent(&mut self, sim: &Sim<u32>) -> Result<(), String> {
                let r: &Recorder = sim.get(ActorHandle::of(NodeId(0))).ok_or("no recorder")?;
                if r.got.len() != 3 {
                    return Err(format!("only {:?}", r.got));
                }
                Ok(())
            }
        }
        let ex = Explorer::new(7, Budget::default());
        let report = ex.explore(build, || vec![Box::new(AllThree)]);
        assert!(report.violation.is_none());
        assert!(report.complete);
    }

    #[test]
    fn trace_round_trips() {
        let cx = Counterexample {
            seed: 42,
            choices: vec![2, 0, 1],
            invariant: "x".into(),
            violation: "y".into(),
        };
        assert_eq!(cx.trace(), "42:2.0.1");
        assert_eq!(
            Counterexample::parse_trace(&cx.trace()),
            Some((42, vec![2, 0, 1]))
        );
        assert_eq!(Counterexample::parse_trace("5:"), Some((5, vec![])));
        assert_eq!(Counterexample::parse_trace("bogus"), None);
    }

    #[test]
    fn max_runs_truncates() {
        let ex = Explorer::new(
            7,
            Budget {
                max_runs: 2,
                ..Budget::default()
            },
        );
        let report = ex.explore(build, Vec::new);
        assert_eq!(report.runs, 2);
        assert!(!report.complete);
    }

    #[test]
    fn replay_rejects_out_of_range_choice() {
        let ex = Explorer::new(7, Budget::default());
        // The first branch point has 3 candidates; choice 9 is stale.
        let err = ex
            .replay(build, Vec::new, &[9])
            .expect_err("stale trace must be rejected");
        assert_eq!(
            err,
            ReplayError::ChoiceOutOfRange {
                position: 0,
                choice: 9,
                candidates: 3,
            }
        );
    }

    #[test]
    fn replay_rejects_choices_it_never_read() {
        // Three messages make two branch points (3 then 2 candidates);
        // a four-choice trace belongs to some deeper run.
        let err = Explorer::new(7, Budget::default())
            .replay(build, Vec::new, &[0, 0, 0, 0])
            .expect_err("a clean verdict on a shorter schedule would mislead");
        assert_eq!(
            err,
            ReplayError::UnconsumedChoices {
                consumed: 2,
                prescribed: 4,
            }
        );
    }

    /// Two disjoint receivers: the two deliveries commute, so DPOR
    /// needs a single run where full enumeration needs two.
    fn build_disjoint(seed: u64) -> Sim<u32> {
        let mut sim = SimBuilder::new(seed).build();
        sim.add_actor(NodeId(0), Recorder { got: Vec::new() });
        sim.add_actor(NodeId(1), Recorder { got: Vec::new() });
        sim.inject(SimTime::from_millis(1), NodeId(9), NodeId(0), 1);
        sim.inject(SimTime::from_millis(2), NodeId(9), NodeId(1), 2);
        sim
    }

    #[test]
    fn dpor_skips_commuting_reversals() {
        let dpor = Explorer::new(7, Budget::default()).explore(build_disjoint, Vec::new);
        assert!(dpor.complete);
        assert_eq!(dpor.runs, 1, "disjoint receivers commute");
        let full = Explorer::new(7, Budget::default())
            .with_reduction(Reduction::Full)
            .explore(build_disjoint, Vec::new);
        assert!(full.complete);
        assert_eq!(full.runs, 2);
        assert!(dpor.stats.racing_pairs == 0);
    }

    /// Node 0 arms a timer for 10 ms and pings node 1 over a 5 ms
    /// link; the echo lands back at 10 ms, the same instant, but was
    /// scheduled after the timer, so the sim fires the timer first.
    struct Pinger {
        log: Vec<&'static str>,
    }
    impl Actor<u32> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
            ctx.send(NodeId(1), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, u32>, from: NodeId, _: u32) {
            self.log
                .push(if from == NodeId(1) { "echo" } else { "inject" });
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: TimerId, _: u64) {
            self.log.push("timer");
        }
    }

    struct Echo;
    impl Actor<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            ctx.send(from, msg);
        }
    }

    /// The pinger, plus a message injected for 10 ms before anything
    /// else is scheduled: at 10 ms the queue reads delivery, timer,
    /// delivery, so the head is a delivery and the explorer branches.
    fn build_same_instant(seed: u64) -> Sim<u32> {
        let link = LinkSpec {
            latency: SimDuration::from_millis(5),
            ..LinkSpec::ideal()
        };
        let mut sim = SimBuilder::new(seed)
            .topology(|net| net.set_default_link(link))
            .build();
        sim.inject(SimTime::from_millis(10), NodeId(9), NodeId(0), 7);
        sim.add_actor(NodeId(0), Pinger { log: Vec::new() });
        sim.add_actor(NodeId(1), Echo);
        sim
    }

    struct TimerFiresFirst;
    impl Invariant<u32> for TimerFiresFirst {
        fn name(&self) -> &'static str {
            "timer-fires-first"
        }
        fn check_step(&mut self, sim: &Sim<u32>) -> Result<(), String> {
            let p: &Pinger = sim.get(ActorHandle::of(NodeId(0))).ok_or("no pinger")?;
            match (
                p.log.iter().position(|&e| e == "timer"),
                p.log.iter().position(|&e| e == "echo"),
            ) {
                (None, Some(_)) => Err(format!("the echo overtook the timer: {:?}", p.log)),
                _ => Ok(()),
            }
        }
    }

    #[test]
    fn a_delivery_never_overtakes_a_timer_due_at_the_same_instant() {
        let mut sim = build_same_instant(7);
        sim.run(Until::Idle);
        let p: &Pinger = sim.get(ActorHandle::of(NodeId(0))).expect("pinger");
        assert_eq!(p.log, ["inject", "timer", "echo"], "the sim's own order");
        for reduction in [Reduction::Dpor, Reduction::Full] {
            let report = Explorer::new(7, Budget::default())
                .with_reduction(reduction)
                .explore(build_same_instant, || vec![Box::new(TimerFiresFirst)]);
            assert_eq!(report.violation, None, "{reduction:?}");
            assert!(report.complete, "{reduction:?}");
        }
    }
}
