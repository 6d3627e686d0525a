//! Bounded exploration of message-delivery interleavings with optimal
//! dynamic partial-order reduction and state hashing.
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
//! * **Optimal dynamic partial-order reduction** ([`Reduction::Dpor`],
//!   the default; Abdulla, Aronis, Jonsson & Sagonas, POPL 2014).
//!   Deliveries to *different* receivers commute, so reversing them is
//!   wasted work. Each run records a happens-before relation over its
//!   executed events (vector clocks grown along the
//!   [`Sim::last_executed`] cause chain). After the run, every pair of
//!   same-receiver deliveries `p`, `q` where `q`'s send did not follow
//!   `p` is a race. The race is reversed by inserting the *wakeup
//!   sequence* `notdep(p).q` — the events between `p` and `q` that do
//!   not follow `p`, then `q` — into the *wakeup tree* at `p`'s branch
//!   point, unless a sleeping sibling already covers it or the tree
//!   already holds an equivalent prefix. A later run follows the
//!   sequence, so it wakes every sibling that sleeps there: no run ends
//!   with only sleeping deliveries left, and each Mazurkiewicz trace is
//!   run once, where no bound intervenes (below).
//! * **State hashing** (via [`StateFingerprint`]). Different
//!   interleavings often converge to the same protocol state. When a
//!   fingerprint is supplied, a branch point whose `(actor-state,
//!   pending-set)` digest was already expanded with at least as much
//!   remaining depth budget is pruned.
//!
//! *Event keys.* A wakeup sequence names events of a run that has
//! ended, and an event enqueued after a branch point gets a different
//! `seq` when the schedule is re-run in another order. Sequences
//! therefore name an event by who enqueued it: the enqueuing node, that
//! node's ordinal for the enqueuing event, and the push's rank within
//! that handler. Equivalent schedules agree on all three. Events the
//! factory enqueues keep their `seq`.
//!
//! *Bounds.* A schedule branches only where the budget allows: at most
//! `max_depth` branch points, among the first `max_branch` pending
//! deliveries within `window` of the head, ahead of the first timer,
//! start or net change. The bounded space is not closed under swapping
//! independent events, so the optimal algorithm's guarantees hold only
//! inside it, and three rules cover its edges; each fallback is counted
//! ([`ExploreStats::fallbacks`]).
//!
//! * A wakeup sequence's first event may not be a candidate at its
//!   branch point. The explorer then falls back as source-set DPOR
//!   does: it queues the race's earliest pending cause, else every
//!   sibling. A later event may not be a candidate when the run reaches
//!   it; the run takes the first awake candidate and keeps the rest of
//!   the sequence for later branch points.
//! * Past the depth cap nothing branches, so a race whose earlier
//!   delivery ran there, or ran as the only candidate, cannot be
//!   reversed where it happened. The last branch point before it queues
//!   the later delivery's earliest cause that it offers.
//! * Past the depth cap a sleeping delivery at the head does not end the
//!   run: the schedule that runs it first may need one choice more than
//!   the budget allows, so its sibling's subtree need not hold this one
//!   ([`ExploreStats::asleep_past_depth`]). Before the cap, a run left
//!   with only sleeping deliveries ends, counted under the bound that
//!   hid the awake ones: the branch width or window, or a non-delivery
//!   at the head.
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
    /// Optimal dynamic partial-order reduction with wakeup trees and
    /// sleep sets (sound: finds every violation plain enumeration
    /// finds, in fewer runs).
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
    /// Runs cut short because every delivery they could run next was
    /// in the sleep set (their subtrees were proven covered by sibling
    /// schedules). Each is also counted under the bound that left it
    /// no awake delivery, in `blocked_by_width` or `blocked_by_head`, or
    /// in neither when no bound was involved.
    pub sleep_pruned: usize,
    /// Sleep-blocked runs whose awake deliveries lay past the first
    /// `max_branch` pending deliveries or outside `window`.
    pub blocked_by_width: usize,
    /// Sleep-blocked runs whose awake deliveries lay behind a timer,
    /// start or net change due first.
    pub blocked_by_head: usize,
    /// Runs that met a sleeping delivery at the head past the depth
    /// cap. They are not cut: the schedule that runs that delivery
    /// first may need one choice more than the budget allows, so the
    /// sleeping sibling's subtree need not hold it. Not in
    /// `sleep_pruned`.
    pub asleep_past_depth: usize,
    /// Runs cut short at a branch point whose `(state, pending)`
    /// fingerprint was already expanded with at least as much remaining
    /// depth budget.
    pub hash_pruned: usize,
    /// Same-receiver delivery pairs found racing (neither causally
    /// ordered before the other) across all runs.
    pub racing_pairs: u64,
    /// First steps queued, or sibling sequences dropped, because a bound
    /// kept a race from being reversed by its wakeup sequence: the
    /// race's pending cause or every sibling, queued where the
    /// sequence's first event was not a candidate; the pending cause,
    /// queued at the last branch point before a race whose earlier
    /// delivery could not branch; a sibling sequence whose first event
    /// was not a candidate where the run branched.
    pub fallbacks: usize,
    /// The most wakeup-sequence events held at once, summed over the
    /// branch points on the DFS path.
    pub peak_wakeup: usize,
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
    /// Known-bad: reverse a race with the sequence `q` alone instead of
    /// `notdep(p).q`.
    #[cfg(test)]
    race_tail_only: bool,
}

/// The bound that ended a state's candidate list before its pending
/// deliveries did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bound {
    /// The delivery lay past the first `max_branch` pending deliveries
    /// or outside `window` of the head.
    Width,
    /// A timer, start or net change was due ahead of it.
    Head,
}

/// An event's identity across runs: see the module docs. `origin` is
/// the enqueuing node's raw id, [`FACTORY`] for events the factory
/// enqueued (then `push` is their `seq`), or [`NODELESS`] for events a
/// net change enqueued (then `ordinal` is its `seq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventKey {
    origin: u32,
    ordinal: u32,
    push: u32,
}

const FACTORY: u32 = u32::MAX;
const NODELESS: u32 = u32::MAX - 1;

impl EventKey {
    const UNSEEN: EventKey = EventKey {
        origin: FACTORY,
        ordinal: u32::MAX,
        push: u32::MAX,
    };
}

/// One event of a wakeup sequence: its key and the raw id of the node
/// whose state it touches ([`NODELESS`] for a net change). Dependence
/// is "same node".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    key: EventKey,
    node: u32,
}

/// A pending delivery eligible at a branch point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    /// Index into the sim's pending order (what `step_nth` takes).
    idx: usize,
    /// Identity across runs.
    key: EventKey,
    /// The receiver — the dependence relation keys on this.
    to: NodeId,
}

impl Candidate {
    fn ev(&self) -> Ev {
        Ev {
            key: self.key,
            node: self.to.0,
        }
    }
}

/// A delivery whose subtree is already covered by a sibling schedule.
/// It stays asleep until an event at its receiver executes (a
/// dependent transition invalidates the coverage argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SleepEntry {
    key: EventKey,
    to: NodeId,
}

impl SleepEntry {
    fn of(c: &Candidate) -> Self {
        SleepEntry {
            key: c.key,
            to: c.to,
        }
    }
}

fn asleep(sleep: &[SleepEntry], key: EventKey) -> bool {
    sleep.iter().any(|e| e.key == key)
}

/// Where `e` stands in the sequence `v`, as a first step from the state
/// `v` starts at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Initial {
    /// `e` is in `v` at this index, and nothing before it there touches
    /// its node: `v` may run it first.
    At(usize),
    /// `e` is not in `v` and touches no node `v` touches: running it
    /// first leaves `v` runnable and equivalent.
    Independent,
    /// `v` must run something that `e` conflicts with before it.
    Not,
}

/// Whether `e` is a weak initial of `v` (POPL 2014, §4): a first step
/// that some execution extending `v` takes.
fn weak_initial(e: Ev, v: &[Ev]) -> Initial {
    for (i, x) in v.iter().enumerate() {
        if x.key == e.key {
            return Initial::At(i);
        }
        if e.node != NODELESS && x.node == e.node {
            return Initial::Not;
        }
    }
    Initial::Independent
}

/// One entry of a [`Forest`]: an event and the size of its subtree,
/// itself included.
#[derive(Debug, Clone, Copy)]
struct WakeupNode {
    ev: Ev,
    size: u32,
}

/// A wakeup tree below one state: the sequences still to be explored
/// from it, sharing prefixes, in preorder. The entries from `i` to
/// `i + size` are entry `i`'s subtree, so a top-level entry's next
/// sibling starts where its subtree ends.
#[derive(Debug, Default)]
struct Forest {
    nodes: Vec<WakeupNode>,
}

/// What [`Forest::insert`] did with a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placed {
    Inserted,
    /// An existing sequence already extends it, up to equivalence.
    Covered,
    /// It needed a new top-level entry and `first` found no runnable
    /// first step.
    NoFirstStep,
}

impl Forest {
    fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The top-level entries from `from` (a top-level index) to `to`.
    fn top_level(&self, from: usize, to: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(from), move |&i| {
            self.nodes.get(i).map(|n| i + n.size as usize)
        })
        .take_while(move |&i| i < to)
    }

    fn has_top_level(&self, key: EventKey) -> bool {
        self.top_level(0, self.nodes.len())
            .any(|i| self.nodes[i].ev.key == key)
    }

    /// Inserts the sequence `v` (Algorithm 2's `insert`): descend into
    /// the first child that is a weak initial of what is left of `v`,
    /// taking that child out of `v`; stop if the child is a leaf, or
    /// once `v` is used up, since the explored continuation will cover
    /// it; otherwise append what is left as a new last child. A new
    /// top-level entry must be a choice the branch point offers, so
    /// `first` reorders `v` to start with one, or fails. `ancestors` is
    /// scratch.
    fn insert(
        &mut self,
        v: &mut Vec<Ev>,
        ancestors: &mut Vec<usize>,
        first: impl FnOnce(&mut Vec<Ev>) -> bool,
    ) -> Placed {
        ancestors.clear();
        let (mut lo, mut hi) = (0, self.nodes.len());
        loop {
            if v.is_empty() {
                return Placed::Covered;
            }
            let found =
                self.top_level(lo, hi)
                    .find_map(|c| match weak_initial(self.nodes[c].ev, v) {
                        Initial::Not => None,
                        at => Some((c, at)),
                    });
            let Some((c, at)) = found else { break };
            let size = self.nodes[c].size as usize;
            if size == 1 {
                return Placed::Covered;
            }
            if let Initial::At(i) = at {
                v.remove(i);
            }
            ancestors.push(c);
            (lo, hi) = (c + 1, c + size);
        }
        if ancestors.is_empty() && !first(v) {
            return Placed::NoFirstStep;
        }
        let n = v.len() as u32;
        let chain = v
            .iter()
            .zip(0..)
            .map(|(&ev, k)| WakeupNode { ev, size: n - k });
        self.nodes.splice(hi..hi, chain);
        for &a in ancestors.iter() {
            self.nodes[a].size += n;
        }
        Placed::Inserted
    }

    /// Appends `ev` as a last top-level leaf, unless it is a top-level
    /// entry already. Returns whether it was appended.
    fn push_leaf(&mut self, ev: Ev) -> bool {
        if self.has_top_level(ev.key) {
            return false;
        }
        self.nodes.push(WakeupNode { ev, size: 1 });
        true
    }

    /// Removes the first top-level entry; its subtree goes to `below`.
    fn take_first(&mut self, below: &mut Forest) -> Option<WakeupNode> {
        let first = *self.nodes.first()?;
        let end = first.size as usize;
        below.nodes.clear();
        below.nodes.extend_from_slice(&self.nodes[1..end]);
        self.nodes.drain(..end);
        Some(first)
    }

    /// A forced step ran `key`: a top-level entry for it is consumed,
    /// and its children take its place.
    fn consume(&mut self, key: EventKey) {
        let found = self
            .top_level(0, self.nodes.len())
            .find(|&i| self.nodes[i].ev.key == key);
        if let Some(i) = found {
            self.nodes.remove(i);
        }
    }

    /// At a branch point, the index of the first candidate that a
    /// top-level entry names and that is awake. The forest becomes that
    /// entry's subtree; its other top-level entries that name awake
    /// candidates move to `siblings`, and the rest are dropped, counted
    /// in `dropped`. With no such entry the forest is left whole, to be
    /// met at a later branch point.
    fn choose(
        &mut self,
        candidates: &[Candidate],
        sleep: &[SleepEntry],
        siblings: &mut Forest,
        dropped: &mut usize,
    ) -> Option<usize> {
        let offered = |ev: Ev| {
            candidates
                .iter()
                .position(|c| c.key == ev.key && !asleep(sleep, c.key))
        };
        let len = self.nodes.len();
        let (at, choice) = self
            .top_level(0, len)
            .find_map(|i| offered(self.nodes[i].ev).map(|c| (i, c)))?;
        let end = at + self.nodes[at].size as usize;
        for i in self.top_level(0, at).chain(self.top_level(end, len)) {
            let subtree = &self.nodes[i..i + self.nodes[i].size as usize];
            if offered(subtree[0].ev).is_some() {
                siblings.nodes.extend_from_slice(subtree);
            } else {
                *dropped += 1;
            }
        }
        self.nodes.truncate(end);
        self.nodes.drain(..=at);
        Some(choice)
    }
}

/// One branch point on the DFS path, kept across the runs that share
/// the prefix reaching it.
struct PathNode {
    candidates: Vec<Candidate>,
    /// The candidate the current run took.
    choice: usize,
    /// The sleep set on arrival, then each explored child as its
    /// exploration completes.
    sleep: Vec<SleepEntry>,
    /// The children still to explore, with the sequences below them.
    wakeup: Forest,
}

/// One branch point as a run saw it.
struct BranchPoint {
    /// Position of the chosen event in the run's execution order.
    pos: usize,
    /// Index into the run's choice vector.
    depth: usize,
    /// The candidates, as a range of [`RunData::candidates`].
    candidates: Range<usize>,
    /// Index into the candidates actually taken.
    choice: usize,
    /// The sleep entries active when the branch point was reached, as
    /// a range of [`RunData::asleep`].
    asleep: Range<usize>,
    /// Top-level entries of the followed wakeup tree that named other
    /// candidates here: this branch point's siblings to explore.
    siblings: Forest,
}

/// One executed event, as the reducer needs it.
struct ExecRec {
    ev: Ev,
    /// The receiver's dense node index when the event was a delivery.
    to: Option<usize>,
    /// Position of the event during whose processing this one was
    /// enqueued, when that event ran in this run.
    cause: Option<usize>,
    /// Branch points recorded when it ran, the one it was chosen at
    /// included.
    branches: u32,
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
    fn new() -> Self {
        HappensBefore {
            nodes: Vec::new(),
            rows: Vec::new(),
            len: 0,
            latest: Vec::new(),
            seq_pos: Vec::new(),
        }
    }

    /// Empties the clocks for a run over `nodes`, keeping the buffers.
    fn reset(&mut self, nodes: Vec<NodeId>) {
        self.latest.clear();
        self.latest.resize(nodes.len(), NONE);
        self.nodes = nodes;
        self.rows.clear();
        self.len = 0;
        self.seq_pos.clear();
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

/// Each event's [`EventKey`], assigned when a pending scan first sees
/// it. Scans follow every step, so the events a scan sees for the first
/// time were all enqueued by the step just taken.
struct Keys {
    /// Per `seq`, the event's key.
    by_seq: Vec<EventKey>,
    /// One past the largest `seq` seen.
    seen: u64,
    /// Scratch: the seqs one scan saw first.
    fresh: Vec<u64>,
}

impl Keys {
    fn new() -> Self {
        Keys {
            by_seq: Vec::new(),
            seen: 0,
            fresh: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.by_seq.clear();
        self.seen = 0;
    }

    /// Keys the events of `pending` not seen before, as pushes of the
    /// event `origin` names (`(origin, ordinal)` of its key), or as the
    /// factory's before the first step.
    fn observe(&mut self, pending: &[PendingEvent], origin: Option<(u32, u32)>) {
        self.fresh.clear();
        self.fresh.extend(
            pending
                .iter()
                .map(PendingEvent::seq)
                .filter(|&s| s >= self.seen),
        );
        let Some(&top) = self.fresh.iter().max() else {
            return;
        };
        self.fresh.sort_unstable();
        if self.by_seq.len() <= top as usize {
            self.by_seq.resize(top as usize + 1, EventKey::UNSEEN);
        }
        for (rank, &seq) in self.fresh.iter().enumerate() {
            self.by_seq[seq as usize] = match origin {
                None => EventKey {
                    origin: FACTORY,
                    ordinal: 0,
                    push: seq as u32,
                },
                Some((origin, ordinal)) => EventKey {
                    origin,
                    ordinal,
                    push: rank as u32,
                },
            };
        }
        self.seen = top + 1;
    }

    fn of(&self, seq: u64) -> EventKey {
        self.by_seq
            .get(seq as usize)
            .copied()
            .unwrap_or(EventKey::UNSEEN)
    }
}

/// Everything a run learned. One is kept for the whole exploration, and
/// each run clears and refills its buffers.
struct RunData {
    taken: Vec<usize>,
    branch_points: Vec<BranchPoint>,
    /// Every branch point's candidates, back to back.
    candidates: Vec<Candidate>,
    /// Every branch point's sleep entries, back to back.
    asleep: Vec<SleepEntry>,
    execs: Vec<ExecRec>,
    clocks: HappensBefore,
    keys: Keys,
    /// Events executed.
    events: u64,
    /// Run ended at a fingerprint hit.
    hash_pruned: bool,
    /// Run ended because every continuation was asleep; the bound that
    /// left it no awake delivery, if one did.
    sleep_pruned: Option<Option<Bound>>,
    /// Past the depth cap, a sleeping delivery was forced at the head.
    asleep_past_depth: bool,
    /// Sibling sequences dropped while following the wakeup tree.
    dropped: usize,
}

impl RunData {
    fn new() -> Self {
        RunData {
            taken: Vec::new(),
            branch_points: Vec::new(),
            candidates: Vec::new(),
            asleep: Vec::new(),
            execs: Vec::new(),
            clocks: HappensBefore::new(),
            keys: Keys::new(),
            events: 0,
            hash_pruned: false,
            sleep_pruned: None,
            asleep_past_depth: false,
            dropped: 0,
        }
    }

    fn reset(&mut self, nodes: Vec<NodeId>) {
        self.taken.clear();
        self.branch_points.clear();
        self.candidates.clear();
        self.asleep.clear();
        self.execs.clear();
        self.clocks.reset(nodes);
        self.keys.reset();
        self.events = 0;
        self.hash_pruned = false;
        self.sleep_pruned = None;
        self.asleep_past_depth = false;
        self.dropped = 0;
    }

    fn candidates_at(&self, bp: &BranchPoint) -> &[Candidate] {
        &self.candidates[bp.candidates.clone()]
    }
}

/// A schedule to run: a prefix of choices, then the wakeup tree below
/// the last one.
struct Job {
    choices: Vec<usize>,
    /// Sleep set in force at the deviation point (the state reached by
    /// the last prescribed choice's branch point).
    sleep: Vec<SleepEntry>,
    /// The sequences to follow once the prefix is run.
    guide: Forest,
}

impl Job {
    fn exact(choices: Vec<usize>) -> Self {
        Job {
            choices,
            sleep: Vec::new(),
            guide: Forest::default(),
        }
    }
}

enum RunOutcome {
    Violation(Counterexample),
    Finished,
    /// A prescribed choice was out of range (possible only for
    /// user-supplied replay traces; internal jobs replay exactly).
    BadChoice {
        position: usize,
        choice: usize,
        candidates: usize,
    },
}

/// Scratch for reversing races: the wakeup sequence being built, which
/// of its events could run at the branch point, insertion's path, and
/// per executed delivery the one before it at its receiver.
#[derive(Default)]
struct RaceScratch {
    v: Vec<Ev>,
    runnable: Vec<bool>,
    ancestors: Vec<usize>,
    previous: Vec<u32>,
    latest: Vec<u32>,
}

impl Explorer {
    /// An explorer over schedules of `factory(seed)`, using
    /// [`Reduction::Dpor`].
    pub fn new(seed: u64, budget: Budget) -> Self {
        Explorer {
            seed,
            budget,
            reduction: Reduction::default(),
            #[cfg(test)]
            race_tail_only: false,
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
        // The branch points of the current run, each with the children
        // still to explore below it. The DFS takes the deepest first.
        let mut path: Vec<PathNode> = Vec::new();
        let mut data = RunData::new();
        let mut scratch = RaceScratch::default();
        let mut next = Some(Job::exact(Vec::new()));
        while let Some(job) = next {
            if report.runs >= self.budget.max_runs {
                self.finalize(&mut report);
                return report;
            }
            report.runs += 1;
            let known = job.choices.len();
            let outcome = self.run_schedule(
                factory,
                invariants,
                job,
                fingerprint,
                &mut visited,
                &mut data,
            );
            report.events += data.events;
            match outcome {
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
                }
                RunOutcome::Finished => {
                    let stats = &mut report.stats;
                    if report.runs == 1 {
                        stats.naive_bound = data.branch_points.iter().fold(1u64, |acc, bp| {
                            acc.saturating_mul(bp.candidates.len() as u64)
                        });
                    }
                    if data.hash_pruned {
                        stats.hash_pruned += 1;
                    }
                    if let Some(bound) = data.sleep_pruned {
                        stats.sleep_pruned += 1;
                        match bound {
                            Some(Bound::Width) => stats.blocked_by_width += 1,
                            Some(Bound::Head) => stats.blocked_by_head += 1,
                            None => {}
                        }
                    }
                    if data.asleep_past_depth {
                        stats.asleep_past_depth += 1;
                    }
                    stats.fallbacks += data.dropped;
                    self.extend_path(&mut path, &mut data, known);
                    if matches!(self.reduction, Reduction::Dpor) {
                        self.reverse_races(&data, &mut path, &mut scratch, stats);
                    }
                    let held = path.iter().map(|n| n.wakeup.nodes.len()).sum();
                    stats.peak_wakeup = stats.peak_wakeup.max(held);
                }
            }
            next = next_job(&mut path);
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

    /// Puts the run's branch points past the first `known` (those the
    /// path already holds) on the path. Plain enumeration queues every
    /// sibling of each; the reductions queue what the followed wakeup
    /// tree left there.
    fn extend_path(&self, path: &mut Vec<PathNode>, data: &mut RunData, known: usize) {
        let full = self.reduction == Reduction::Full;
        for bp in data.branch_points.iter_mut().skip(known) {
            let candidates = data.candidates[bp.candidates.clone()].to_vec();
            let mut wakeup = std::mem::take(&mut bp.siblings);
            if full {
                for (k, c) in candidates.iter().enumerate() {
                    if k != bp.choice {
                        wakeup.push_leaf(c.ev());
                    }
                }
            }
            path.push(PathNode {
                candidates,
                choice: bp.choice,
                sleep: data.asleep[bp.asleep.clone()].to_vec(),
                wakeup,
            });
        }
    }

    /// Reverses every race of the run. A delivery `q` races an earlier
    /// delivery `p` to the same receiver when `q`'s send did not follow
    /// `p`. If `p` was chosen at a branch point, `notdep(p).q` goes into
    /// the wakeup tree there. If `p` ran where the run could not branch
    /// (past the depth cap, or as the only candidate), no branch point
    /// lets `q` overtake `p` directly: the nearest one before `p` queues
    /// `q`'s earliest cause that is a candidate there, as source-set DPOR
    /// would.
    fn reverse_races(
        &self,
        data: &RunData,
        path: &mut [PathNode],
        scratch: &mut RaceScratch,
        stats: &mut ExploreStats,
    ) {
        // The delivery before each one at its receiver.
        scratch.latest.clear();
        scratch.latest.resize(data.clocks.nodes.len(), NONE);
        scratch.previous.clear();
        for (pos, x) in data.execs.iter().enumerate() {
            let before = x.to.map_or(NONE, |n| {
                std::mem::replace(&mut scratch.latest[n], pos as u32)
            });
            scratch.previous.push(before);
        }
        for (j, q) in data.execs.iter().enumerate() {
            let Some(q_to) = q.to else { continue };
            let mut earlier = scratch.previous[j];
            while earlier != NONE {
                let i = earlier as usize;
                earlier = scratch.previous[i];
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
                // The branch point p ran at, or the last one before it.
                let Some(b) = data.execs[i].branches.checked_sub(1) else {
                    continue;
                };
                let bp = &data.branch_points[b as usize];
                let node = &mut path[bp.depth];
                if bp.pos == i {
                    self.insert_reversal(data, bp, node, j, scratch, stats);
                } else {
                    queue_cause(data, bp, node, j, stats);
                }
            }
        }
    }

    /// Inserts `notdep(p).q` into the wakeup tree of `p`'s branch point
    /// `bp`, unless a sleeping sibling or a queued sequence covers it.
    fn insert_reversal(
        &self,
        data: &RunData,
        bp: &BranchPoint,
        node: &mut PathNode,
        j: usize,
        scratch: &mut RaceScratch,
        stats: &mut ExploreStats,
    ) {
        let (i, q) = (bp.pos, &data.execs[j]);
        let Some(q_to) = q.to else { return };
        let p_ordinal = data.clocks.clock(i, q_to);
        // notdep(p).q: the events between p and q that do not follow p,
        // then q. One can run first at p's branch point when its cause
        // ran before p.
        let RaceScratch {
            v,
            runnable,
            ancestors,
            ..
        } = scratch;
        v.clear();
        runnable.clear();
        let before_p = |x: &ExecRec| x.cause.is_none_or(|c| c < i);
        for (pos, x) in data.execs.iter().enumerate().take(j).skip(i + 1) {
            if data.clocks.clock(pos, q_to) < p_ordinal {
                v.push(x.ev);
                runnable.push(before_p(x));
            }
        }
        #[cfg(test)]
        if self.race_tail_only {
            v.clear();
            runnable.clear();
        }
        v.push(q.ev);
        runnable.push(before_p(q));
        // A sleeping sibling that is a weak initial of the sequence
        // already covers it.
        if node.sleep.iter().any(|s| {
            let ev = Ev {
                key: s.key,
                node: s.to.0,
            };
            weak_initial(ev, v) != Initial::Not
        }) {
            return;
        }
        let candidates = data.candidates_at(bp);
        let first = |v: &mut Vec<Ev>| {
            // The first event that can run first and that the branch
            // point offers leads the sequence.
            let lead = (0..v.len()).find(|&m| {
                runnable[m]
                    && weak_initial(v[m], v) == Initial::At(m)
                    && candidates.iter().any(|c| c.key == v[m].key)
            });
            match lead {
                Some(m) => {
                    let ev = v.remove(m);
                    v.insert(0, ev);
                    true
                }
                None => false,
            }
        };
        if node.wakeup.insert(v, ancestors, first) != Placed::NoFirstStep {
            return;
        }
        // The bounds hide every first step of the sequence here. Fall
        // back as source-set DPOR does: the earliest pending cause of q
        // if it is a candidate, else every sibling.
        if !queue_cause(data, bp, node, j, stats) {
            for (k, cand) in candidates.iter().enumerate() {
                if k != bp.choice
                    && !asleep(&node.sleep, cand.key)
                    && node.wakeup.push_leaf(cand.ev())
                {
                    stats.fallbacks += 1;
                }
            }
        }
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
        let mut visited = BTreeMap::new();
        let mut data = RunData::new();
        let job = Job::exact(choices.to_vec());
        match self.run_schedule(&factory, &invariants, job, None, &mut visited, &mut data) {
            RunOutcome::Violation(cx) => Ok(Some(cx)),
            RunOutcome::Finished if data.taken.len() < choices.len() => {
                Err(ReplayError::UnconsumedChoices {
                    consumed: data.taken.len(),
                    prescribed: choices.len(),
                })
            }
            RunOutcome::Finished => Ok(None),
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
    /// then its wakeup tree, then the first non-sleeping candidate,
    /// recording branch structure and happens-before for the reducer.
    ///
    /// A step scans the pending set once, into a buffer the run reuses,
    /// and records its clock row and event key in buffers the
    /// exploration reuses: executing an event allocates nothing here
    /// beyond amortised growth.
    fn run_schedule<M, F, G>(
        &self,
        factory: &F,
        invariants: &G,
        job: Job,
        fingerprint: Option<&dyn StateFingerprint<M>>,
        visited: &mut BTreeMap<(u64, u64), usize>,
        data: &mut RunData,
    ) -> RunOutcome
    where
        M: 'static,
        F: Fn(u64) -> Sim<M>,
        G: Fn() -> Vec<Box<dyn Invariant<M>>>,
    {
        let Job {
            choices: prefix,
            sleep: mut deviation_sleep,
            mut guide,
        } = job;
        let mut sim = factory(self.seed);
        let mut invs = invariants();
        let dpor = self.reduction != Reduction::Full;
        data.reset(sim.node_ids());
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
        // `(origin, ordinal)` of the last executed event's key.
        let mut origin: Option<(u32, u32)> = None;

        loop {
            if sim.pending_len() == 0 {
                break;
            }
            if data.events >= self.budget.max_events {
                break;
            }
            sim.pending_events_into(&mut pending);
            data.keys.observe(&pending, origin);
            let cut = branch_candidates(
                &pending,
                &data.keys,
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
            let depth = data.taken.len();
            let guiding = depth >= prefix.len() && !guide.is_empty();
            let at_branch = candidates.len() >= 2 && depth < self.budget.max_depth;
            let stepped = if at_branch {
                if !prefix.is_empty() && depth == prefix.len() - 1 {
                    // Reached the deviation state the sleep set
                    // describes.
                    sleep = std::mem::take(&mut deviation_sleep);
                }
                let mut siblings = Forest::default();
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
                    let guided = if guiding {
                        guide.choose(&candidates, &sleep, &mut siblings, &mut data.dropped)
                    } else {
                        None
                    };
                    let free = || {
                        candidates
                            .iter()
                            .position(|c| !dpor || !asleep(&sleep, c.key))
                    };
                    match guided.or_else(free) {
                        Some(c) => c,
                        None => {
                            // Every continuation is covered by a
                            // sibling subtree.
                            data.sleep_pruned = Some(cut);
                            break;
                        }
                    }
                };
                let idx = candidates[choice].idx;
                let candidates_from = data.candidates.len();
                data.candidates.extend_from_slice(&candidates);
                let asleep_from = data.asleep.len();
                data.asleep.extend_from_slice(&sleep);
                data.branch_points.push(BranchPoint {
                    pos: data.execs.len(),
                    depth,
                    candidates: candidates_from..data.candidates.len(),
                    choice,
                    asleep: asleep_from..data.asleep.len(),
                    siblings,
                });
                data.taken.push(choice);
                sim.step_nth(idx)
            } else {
                let Some(head) = pending.first() else { break };
                let key = data.keys.of(head.seq());
                if guiding {
                    guide.consume(key);
                }
                // A forced head that is asleep means the whole
                // remaining schedule is covered by a sibling subtree —
                // except past the depth cap, where the schedule that
                // runs it first may need one choice more than the
                // budget allows: the run goes on.
                if dpor && matches!(head, PendingEvent::Deliver { .. }) && asleep(&sleep, key) {
                    if depth < self.budget.max_depth {
                        data.sleep_pruned = Some(cut);
                        break;
                    }
                    data.asleep_past_depth = true;
                }
                sim.step()
            };
            if !stepped {
                break;
            }
            data.events += 1;
            if let Some(done) = sim.last_executed() {
                let seq = done.desc.seq();
                let node = done.desc.node();
                let cause = done.caused_by.and_then(|cb| data.clocks.pos_of(cb));
                let pos = data.execs.len();
                let at = data.clocks.record(seq, node, cause);
                let to = match done.desc {
                    PendingEvent::Deliver { .. } => at,
                    _ => None,
                };
                origin = Some(match (node, at) {
                    (Some(n), Some(k)) => (n.0, data.clocks.clock(pos, k)),
                    _ => (NODELESS, seq as u32),
                });
                let ev = Ev {
                    key: data.keys.of(seq),
                    node: node.map_or(NODELESS, |n| n.0),
                };
                let branches = data.branch_points.len() as u32;
                data.execs.push(ExecRec {
                    ev,
                    to,
                    cause,
                    branches,
                });
                // An execution at a sleeping delivery's receiver is a
                // dependent transition: the coverage argument for that
                // entry no longer holds, so it wakes.
                if let Some(n) = node {
                    sleep.retain(|e| e.to != n);
                }
            }
            for inv in &mut invs {
                if let Err(violation) = inv.check_step(&sim) {
                    return self.violated(data.taken.clone(), inv.name(), violation);
                }
            }
        }
        if !data.hash_pruned && data.sleep_pruned.is_none() {
            for inv in &mut invs {
                if let Err(violation) = inv.check_quiescent(&sim) {
                    return self.violated(data.taken.clone(), inv.name(), violation);
                }
            }
        }
        RunOutcome::Finished
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

/// Queues, at `bp`, the earliest event of `q`'s cause chain (`q`
/// included) that `bp` offers as a candidate, unless it is `bp`'s
/// choice, asleep or queued already. Returns whether one was offered.
fn queue_cause(
    data: &RunData,
    bp: &BranchPoint,
    node: &mut PathNode,
    j: usize,
    stats: &mut ExploreStats,
) -> bool {
    let candidates = data.candidates_at(bp);
    let mut cur = Some(j);
    while let Some(cj) = cur.filter(|&cj| cj > bp.pos) {
        let key = data.execs[cj].ev.key;
        if let Some(k) = candidates.iter().position(|c| c.key == key) {
            let cand = candidates[k];
            if k != bp.choice && !asleep(&node.sleep, cand.key) && node.wakeup.push_leaf(cand.ev())
            {
                stats.fallbacks += 1;
            }
            return true;
        }
        cur = data.execs[cj].cause;
    }
    false
}

/// The next schedule of the DFS: the first child still to explore at
/// the deepest branch point that has one. The child it replaces there
/// is explored and goes to sleep for every later sibling. `None` once
/// the whole bounded space is covered.
fn next_job(path: &mut Vec<PathNode>) -> Option<Job> {
    let mut guide = Forest::default();
    while let Some(node) = path.last_mut() {
        while let Some(child) = node.wakeup.take_first(&mut guide) {
            // Every top-level entry was queued as one of these
            // candidates; a stale one is skipped, not explored.
            let Some(k) = node.candidates.iter().position(|c| c.key == child.ev.key) else {
                continue;
            };
            let explored = SleepEntry::of(&node.candidates[node.choice]);
            node.sleep.push(explored);
            node.choice = k;
            let sleep = node.sleep.clone();
            return Some(Job {
                choices: path.iter().map(|n| n.choice).collect(),
                sleep,
                guide,
            });
        }
        path.pop();
    }
    None
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
/// Returns the bound that ended the list, or `None` when every pending
/// event is a candidate.
fn branch_candidates(
    pending: &[PendingEvent],
    keys: &Keys,
    max_branch: usize,
    window: SimDuration,
    out: &mut Vec<Candidate>,
) -> Option<Bound> {
    out.clear();
    let Some(PendingEvent::Deliver { time: head, .. }) = pending.first() else {
        return pending.first().map(|_| Bound::Head);
    };
    let cutoff = head.saturating_add(window);
    for (idx, ev) in pending.iter().enumerate() {
        match *ev {
            _ if idx == max_branch => return Some(Bound::Width),
            PendingEvent::Deliver { to, time, seq, .. } if time <= cutoff => out.push(Candidate {
                idx,
                key: keys.of(seq),
                to,
            }),
            PendingEvent::Deliver { .. } => return Some(Bound::Width),
            _ => return Some(Bound::Head),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_sim::net::NodeId;
    use odp_sim::prelude::*;
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::rc::Rc;

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

    /// Logs every message it receives, and sends on the ones its rules
    /// name: `(received, to, sent)`.
    struct Relay {
        log: Vec<u64>,
        rules: Vec<(u64, NodeId, u64)>,
    }
    impl Actor<u64> for Relay {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _: NodeId, msg: u64) {
            self.log.push(msg);
            for &(received, to, sent) in &self.rules {
                if received == msg {
                    ctx.send(to, sent);
                }
            }
        }
    }

    /// Relays on nodes `0..nodes`, rules `(node, received, to, sent)`,
    /// and `injected` messages `(to, msg)` all due at 1 ms, in that
    /// order, over links of `latency_ms`.
    fn relays(
        seed: u64,
        nodes: u32,
        latency_ms: u64,
        injected: &[(u32, u64)],
        rules: &[(u32, u64, u32, u64)],
    ) -> Sim<u64> {
        let link = LinkSpec {
            latency: SimDuration::from_millis(latency_ms),
            ..LinkSpec::ideal()
        };
        let mut sim = SimBuilder::new(seed)
            .topology(|net| net.set_default_link(link))
            .build();
        for n in 0..nodes {
            let rules = rules
                .iter()
                .filter(|r| r.0 == n)
                .map(|&(_, received, to, sent)| (received, NodeId(to), sent))
                .collect();
            sim.add_actor(
                NodeId(n),
                Relay {
                    log: Vec::new(),
                    rules,
                },
            );
        }
        for &(to, msg) in injected {
            sim.inject(SimTime::from_millis(1), NodeId(9), NodeId(to), msg);
        }
        sim
    }

    type Logs = Rc<RefCell<BTreeSet<Vec<Vec<u64>>>>>;

    /// Records every node's log at quiescence: one entry per
    /// Mazurkiewicz trace, since a node's log is the order of the
    /// events at it.
    struct RecordLogs {
        nodes: u32,
        seen: Logs,
    }
    impl Invariant<u64> for RecordLogs {
        fn name(&self) -> &'static str {
            "record-logs"
        }
        fn check_quiescent(&mut self, sim: &Sim<u64>) -> Result<(), String> {
            let logs = (0..self.nodes)
                .map(|n| {
                    let relay: &Relay = sim.get(ActorHandle::of(NodeId(n))).ok_or("no relay")?;
                    Ok(relay.log.clone())
                })
                .collect::<Result<_, String>>()?;
            self.seen.borrow_mut().insert(logs);
            Ok(())
        }
    }

    /// The report and the distinct final logs of one exploration.
    fn logs_of(
        explorer: &Explorer,
        nodes: u32,
        build: impl Fn(u64) -> Sim<u64>,
    ) -> (Report, BTreeSet<Vec<Vec<u64>>>) {
        let seen = Logs::default();
        let sink = Rc::clone(&seen);
        let report = explorer.explore(build, move || {
            vec![Box::new(RecordLogs {
                nodes,
                seen: Rc::clone(&sink),
            }) as Box<dyn Invariant<u64>>]
        });
        let logs = seen.borrow().clone();
        (report, logs)
    }

    /// Bounds wide and deep enough that no bound shapes the space.
    fn unbounded() -> Budget {
        Budget {
            max_depth: 20,
            max_branch: 10,
            window: SimDuration::from_millis(100),
            ..Budget::default()
        }
    }

    /// The writer/writer/reader example of Abdulla et al. (POPL 2014),
    /// as messages: p writes the register on node 0 directly, q writes
    /// it through its proxy on node 1, r reads it through its proxy on
    /// node 2. The register's three operations are pairwise dependent,
    /// so there are 3! = 6 traces. Source-set DPOR with sleep sets runs
    /// 9 schedules here, one of them ending sleep-blocked; wakeup trees
    /// run each trace once.
    #[test]
    fn the_writer_writer_reader_example_runs_one_schedule_per_trace() {
        let build = |seed| {
            relays(
                seed,
                3,
                1,
                &[(0, 1), (2, 10), (1, 20)],
                &[(2, 10, 0, 11), (1, 20, 0, 21)],
            )
        };
        let (dpor, traces) = logs_of(&Explorer::new(7, unbounded()), 3, build);
        let (full, all) = logs_of(
            &Explorer::new(7, unbounded()).with_reduction(Reduction::Full),
            3,
            build,
        );
        assert!(dpor.complete && full.complete);
        assert_eq!(all.len(), 6, "3! orders at the register");
        assert_eq!(traces, all, "wakeup trees lost or invented a trace");
        assert_eq!(dpor.stats.sleep_pruned, 0, "no run ends sleep-blocked");
        assert_eq!(dpor.runs, 6, "one schedule per trace");
    }

    /// Known-bad: reversing a race with `q` alone instead of
    /// `notdep(p).q`. Node 0 gets 11 directly and 100 from the relay on
    /// node 2, which sends it on receiving 13; 12 also goes to node 2.
    /// Once 12 has been explored first at node 2, it sleeps where the
    /// race between 11 and 100 is reversed. The sequence `13.100` wakes
    /// it, since 13 also runs at node 2; `100` alone looks independent
    /// of it, so the reversal seems covered, and one trace is lost.
    #[test]
    fn a_race_reversed_by_its_last_delivery_alone_loses_a_trace() {
        let build = |seed| {
            relays(
                seed,
                3,
                1,
                &[(1, 10), (0, 11), (2, 12), (2, 13)],
                &[(2, 13, 0, 100)],
            )
        };
        let (_, all) = logs_of(
            &Explorer::new(1, unbounded()).with_reduction(Reduction::Full),
            3,
            build,
        );
        let (dpor, traces) = logs_of(&Explorer::new(1, unbounded()), 3, build);
        assert_eq!(all.len(), 4);
        assert_eq!((traces.len(), dpor.runs), (4, 4), "one schedule per trace");
        let mut tail_only = Explorer::new(1, unbounded());
        tail_only.race_tail_only = true;
        let (_, missed) = logs_of(&tail_only, 3, build);
        assert_eq!(missed.len(), 3, "the known-bad must lose a trace");
        assert!(missed.is_subset(&all));
    }

    /// Past the depth cap nothing branches, so a race whose earlier
    /// delivery ran there cannot be reversed where it happened. Node 0
    /// gets 11 and 12, and both run past the cap of one choice. The
    /// branch point before them queues 12, so both orders are seen, as
    /// plain enumeration sees them. Reversing only races whose earlier
    /// delivery was a choice sees one.
    #[test]
    fn a_race_past_the_depth_cap_is_reversed_at_the_branch_point_before_it() {
        let budget = Budget {
            max_depth: 1,
            max_branch: 4,
            window: SimDuration::from_millis(2),
            ..Budget::default()
        };
        let build = |seed| relays(seed, 2, 0, &[(1, 10), (0, 11), (0, 12)], &[(0, 12, 1, 100)]);
        let (_, all) = logs_of(
            &Explorer::new(1, budget).with_reduction(Reduction::Full),
            2,
            build,
        );
        let (dpor, traces) = logs_of(&Explorer::new(1, budget), 2, build);
        assert!(dpor.complete);
        assert_eq!(all.len(), 2);
        assert_eq!(traces, all);
    }
}
