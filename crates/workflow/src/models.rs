//! The three coordination models of experiment E11, behind one trait, so
//! the same cooperative task can run under each and the paper's
//! prescriptiveness critique (§4.1) becomes measurable.
//!
//! - [`SpeechActModel`] — Coordinator-style: every work item is wrapped
//!   in a conversation for action; the protocol's speech acts are forced
//!   on the participants and deviations are rejected.
//! - [`ProcedureModel`] — Domino-style office procedure: items must be
//!   performed in the prescribed order by the prescribed role.
//! - [`FreeFormModel`] — Object-Lens-style informal coordination: shared
//!   state, no prescriptions, social protocol assumed.

use std::collections::BTreeMap;
use std::fmt;

use crate::speechact::{Conversation, ConversationState, Party, SpeechAct};

/// Names a unit of work in the shared task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkItem(pub u32);

impl fmt::Display for WorkItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item{}", self.0)
    }
}

/// What a participant tries to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkAction {
    /// Begin working on an item.
    Start(WorkItem),
    /// Finish an item.
    Finish(WorkItem),
}

/// Prescriptiveness accounting for one model run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrescriptivenessStats {
    /// Actions the participants wanted to take.
    pub attempts: u64,
    /// Protocol acts the model *forced* beyond the work itself
    /// (requests, promises, reports, declarations, sign-offs).
    pub forced_acts: u64,
    /// Attempts the model rejected as out of protocol.
    pub rejections: u64,
}

/// A coordination model that the E11 task script can run against.
pub trait CoordinationModel {
    /// A short model name for reports.
    fn name(&self) -> &'static str;

    /// A participant attempts an action. `Ok(())` means the work
    /// happened (plus whatever protocol the model imposed, counted in
    /// the stats); `Err` describes a rejected deviation.
    fn attempt(&mut self, who: Party, action: WorkAction) -> Result<(), String>;

    /// True once every declared item is finished.
    fn is_complete(&self) -> bool;

    /// The accounting.
    fn stats(&self) -> PrescriptivenessStats;
}

// ---------------------------------------------------------------------
// Free-form
// ---------------------------------------------------------------------

/// Informal coordination: a shared checklist, no prescriptions.
#[derive(Debug, Default)]
pub struct FreeFormModel {
    items: BTreeMap<WorkItem, bool>, // finished?
    stats: PrescriptivenessStats,
}

impl FreeFormModel {
    /// Declares the items to be done (any order, any participant).
    pub fn new(items: impl IntoIterator<Item = WorkItem>) -> Self {
        FreeFormModel {
            items: items.into_iter().map(|i| (i, false)).collect(),
            stats: PrescriptivenessStats::default(),
        }
    }
}

impl CoordinationModel for FreeFormModel {
    fn name(&self) -> &'static str {
        "free-form"
    }

    fn attempt(&mut self, _who: Party, action: WorkAction) -> Result<(), String> {
        self.stats.attempts += 1;
        match action {
            WorkAction::Start(_) => Ok(()), // starting is nobody's business
            WorkAction::Finish(item) => {
                // Even finishing an undeclared item is tolerated.
                self.items.insert(item, true);
                Ok(())
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.items.values().all(|&done| done)
    }

    fn stats(&self) -> PrescriptivenessStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// Office procedure
// ---------------------------------------------------------------------

/// One prescribed step of an office procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcedureStep {
    /// The item this step produces.
    pub item: WorkItem,
    /// The only participant allowed to perform it.
    pub role: Party,
}

/// Domino-style procedure: steps happen in order, by role.
#[derive(Debug)]
pub struct ProcedureModel {
    steps: Vec<ProcedureStep>,
    /// Index of the next step; items before it are finished.
    cursor: usize,
    started: bool,
    stats: PrescriptivenessStats,
}

impl ProcedureModel {
    /// Declares the procedure.
    pub fn new(steps: Vec<ProcedureStep>) -> Self {
        ProcedureModel {
            steps,
            cursor: 0,
            started: false,
            stats: PrescriptivenessStats::default(),
        }
    }

    /// The step currently expected, if any.
    pub fn expected(&self) -> Option<ProcedureStep> {
        self.steps.get(self.cursor).copied()
    }
}

impl CoordinationModel for ProcedureModel {
    fn name(&self) -> &'static str {
        "office-procedure"
    }

    fn attempt(&mut self, who: Party, action: WorkAction) -> Result<(), String> {
        self.stats.attempts += 1;
        let Some(step) = self.steps.get(self.cursor).copied() else {
            self.stats.rejections += 1;
            return Err("procedure already finished".to_owned());
        };
        let item = match action {
            WorkAction::Start(i) | WorkAction::Finish(i) => i,
        };
        if item != step.item {
            self.stats.rejections += 1;
            return Err(format!("{item} is out of order; expected {}", step.item));
        }
        if who != step.role {
            self.stats.rejections += 1;
            return Err(format!("{who} is not the prescribed role for {item}"));
        }
        match action {
            WorkAction::Start(_) => {
                if self.started {
                    self.stats.rejections += 1;
                    return Err(format!("{item} already started"));
                }
                self.started = true;
                Ok(())
            }
            WorkAction::Finish(_) => {
                if !self.started {
                    // The procedure forces an explicit start first.
                    self.stats.forced_acts += 1;
                }
                self.started = false;
                self.cursor += 1;
                Ok(())
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.cursor >= self.steps.len()
    }

    fn stats(&self) -> PrescriptivenessStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// Speech act (Coordinator)
// ---------------------------------------------------------------------

/// Coordinator-style: a conversation for action wraps every item. The
/// `coordinator` party plays the customer of every conversation; each
/// item has a designated performer.
#[derive(Debug)]
pub struct SpeechActModel {
    coordinator: Party,
    conversations: BTreeMap<WorkItem, (Party, Conversation)>,
    stats: PrescriptivenessStats,
}

impl SpeechActModel {
    /// Declares the items and who must perform each.
    pub fn new(coordinator: Party, items: impl IntoIterator<Item = (WorkItem, Party)>) -> Self {
        SpeechActModel {
            coordinator,
            conversations: items
                .into_iter()
                .map(|(item, performer)| {
                    (item, (performer, Conversation::new(coordinator, performer)))
                })
                .collect(),
            stats: PrescriptivenessStats::default(),
        }
    }
}

impl CoordinationModel for SpeechActModel {
    fn name(&self) -> &'static str {
        "speech-act"
    }

    fn attempt(&mut self, who: Party, action: WorkAction) -> Result<(), String> {
        self.stats.attempts += 1;
        let item = match action {
            WorkAction::Start(i) | WorkAction::Finish(i) => i,
        };
        let Some((performer, convo)) = self.conversations.get_mut(&item) else {
            self.stats.rejections += 1;
            return Err(format!("{item} is not part of the plan"));
        };
        let performer = *performer;
        if who != performer {
            self.stats.rejections += 1;
            return Err(format!("{who} is not the designated performer of {item}"));
        }
        match action {
            WorkAction::Start(_) => {
                if convo.state() != ConversationState::Initial {
                    self.stats.rejections += 1;
                    return Err(format!("{item} already under way"));
                }
                // The protocol forces an explicit request and promise
                // before anyone lifts a finger.
                let coordinator = self.coordinator;
                convo
                    .act(coordinator, SpeechAct::Request)
                    .map_err(|e| e.to_string())?;
                convo
                    .act(performer, SpeechAct::Promise)
                    .map_err(|e| e.to_string())?;
                self.stats.forced_acts += 2;
                Ok(())
            }
            WorkAction::Finish(_) => {
                if convo.state() != ConversationState::Promised {
                    self.stats.rejections += 1;
                    return Err(format!("{item} has no promised work to finish"));
                }
                let coordinator = self.coordinator;
                convo
                    .act(performer, SpeechAct::ReportCompletion)
                    .map_err(|e| e.to_string())?;
                convo
                    .act(coordinator, SpeechAct::DeclareComplete)
                    .map_err(|e| e.to_string())?;
                self.stats.forced_acts += 2;
                Ok(())
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.conversations
            .values()
            .all(|(_, c)| c.state() == ConversationState::Completed)
    }

    fn stats(&self) -> PrescriptivenessStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: u32) -> Vec<WorkItem> {
        (0..n).map(WorkItem).collect()
    }

    #[test]
    fn freeform_accepts_anything_and_forces_nothing() {
        let mut m = FreeFormModel::new(items(3));
        // Finish out of order, start after finish, whatever.
        m.attempt(Party(2), WorkAction::Finish(WorkItem(2)))
            .unwrap();
        m.attempt(Party(0), WorkAction::Start(WorkItem(0))).unwrap();
        m.attempt(Party(1), WorkAction::Finish(WorkItem(0)))
            .unwrap();
        m.attempt(Party(1), WorkAction::Finish(WorkItem(1)))
            .unwrap();
        assert!(m.is_complete());
        let s = m.stats();
        assert_eq!(s.forced_acts, 0);
        assert_eq!(s.rejections, 0);
    }

    #[test]
    fn procedure_rejects_out_of_order_and_wrong_role() {
        let steps = vec![
            ProcedureStep {
                item: WorkItem(0),
                role: Party(0),
            },
            ProcedureStep {
                item: WorkItem(1),
                role: Party(1),
            },
        ];
        let mut m = ProcedureModel::new(steps);
        assert!(
            m.attempt(Party(1), WorkAction::Finish(WorkItem(1)))
                .is_err(),
            "out of order"
        );
        assert!(
            m.attempt(Party(1), WorkAction::Finish(WorkItem(0)))
                .is_err(),
            "wrong role"
        );
        m.attempt(Party(0), WorkAction::Finish(WorkItem(0)))
            .unwrap();
        m.attempt(Party(1), WorkAction::Finish(WorkItem(1)))
            .unwrap();
        assert!(m.is_complete());
        assert_eq!(m.stats().rejections, 2);
    }

    #[test]
    fn speech_act_forces_four_acts_per_item() {
        let mut m = SpeechActModel::new(Party(9), [(WorkItem(0), Party(1))]);
        m.attempt(Party(1), WorkAction::Start(WorkItem(0))).unwrap();
        m.attempt(Party(1), WorkAction::Finish(WorkItem(0)))
            .unwrap();
        assert!(m.is_complete());
        let s = m.stats();
        assert_eq!(s.forced_acts, 4, "request+promise+report+declare");
        assert_eq!(s.rejections, 0);
    }

    #[test]
    fn speech_act_rejects_finish_before_start_and_wrong_performer() {
        let mut m = SpeechActModel::new(Party(9), [(WorkItem(0), Party(1))]);
        assert!(m
            .attempt(Party(1), WorkAction::Finish(WorkItem(0)))
            .is_err());
        assert!(m.attempt(Party(2), WorkAction::Start(WorkItem(0))).is_err());
        assert!(m.attempt(Party(1), WorkAction::Start(WorkItem(9))).is_err());
        assert_eq!(m.stats().rejections, 3);
        assert!(!m.is_complete());
    }

    #[test]
    fn models_agree_on_completion_of_the_same_task() {
        // Two items, two workers, a coordinator.
        let script = [
            (Party(1), WorkAction::Start(WorkItem(0))),
            (Party(1), WorkAction::Finish(WorkItem(0))),
            (Party(2), WorkAction::Start(WorkItem(1))),
            (Party(2), WorkAction::Finish(WorkItem(1))),
        ];
        let mut free = FreeFormModel::new(items(2));
        let mut proc = ProcedureModel::new(vec![
            ProcedureStep {
                item: WorkItem(0),
                role: Party(1),
            },
            ProcedureStep {
                item: WorkItem(1),
                role: Party(2),
            },
        ]);
        let mut speech =
            SpeechActModel::new(Party(0), [(WorkItem(0), Party(1)), (WorkItem(1), Party(2))]);
        let run = |m: &mut dyn CoordinationModel| {
            for &(who, action) in &script {
                let _ = m.attempt(who, action);
            }
            assert!(m.is_complete(), "{} did not complete", m.name());
            m.stats()
        };
        let sf = run(&mut free);
        let sp = run(&mut proc);
        let ss = run(&mut speech);
        // The prescriptiveness ladder the paper implies:
        assert!(sf.forced_acts < ss.forced_acts);
        assert!(sp.forced_acts <= ss.forced_acts);
        assert_eq!(ss.forced_acts, 8);
    }
}
