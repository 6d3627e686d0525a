//! Experiment E11: the prescriptiveness ladder — quantifying the §4.1
//! critique of overly prescriptive coordination models.

use odp_workflow::models::{
    CoordinationModel, FreeFormModel, ProcedureModel, ProcedureStep, SpeechActModel, WorkAction,
    WorkItem,
};
use odp_workflow::speechact::Party;

use super::{Shape, Table};

/// The shared 8-item task: two authors and a reviewer produce a report.
/// The script contains a few *natural deviations* — helping a colleague
/// with their item, finishing something early — of the kind ethnography
/// shows real work is full of ("the process of allocating tasks amongst
/// individuals can be very flexible", §2.2).
fn script() -> Vec<(Party, WorkAction)> {
    use WorkAction::*;
    vec![
        (Party(1), Start(WorkItem(0))),
        (Party(1), Finish(WorkItem(0))),
        (Party(2), Start(WorkItem(1))),
        // Deviation: party 1 helps finish party 2's item.
        (Party(1), Finish(WorkItem(1))),
        (Party(2), Finish(WorkItem(1))),
        // Deviation: party 3 starts reviewing before drafting item 2 done.
        (Party(3), Start(WorkItem(3))),
        (Party(2), Start(WorkItem(2))),
        (Party(2), Finish(WorkItem(2))),
        (Party(3), Finish(WorkItem(3))),
        (Party(1), Start(WorkItem(4))),
        (Party(1), Finish(WorkItem(4))),
        (Party(2), Start(WorkItem(5))),
        (Party(2), Finish(WorkItem(5))),
        (Party(3), Start(WorkItem(6))),
        (Party(3), Finish(WorkItem(6))),
        (Party(1), Start(WorkItem(7))),
        (Party(1), Finish(WorkItem(7))),
    ]
}

fn run(model: &mut dyn CoordinationModel) -> (u64, u64, u64, bool) {
    let mut retried = 0u64;
    for (who, action) in script() {
        if model.attempt(who, action).is_err() {
            // The participant conforms: the right party retries the item
            // in protocol order where possible.
            retried += 1;
            let item = match action {
                WorkAction::Start(i) | WorkAction::Finish(i) => i,
            };
            // Designated performers: item k belongs to party (k % 3) + 1.
            let designated = Party(item.0 % 3 + 1);
            let _ = model.attempt(designated, WorkAction::Start(item));
            let _ = model.attempt(designated, WorkAction::Finish(item));
        }
    }
    // Mop up: ensure completion by letting designated performers finish
    // anything outstanding.
    for k in 0..8u32 {
        if !model.is_complete() {
            let designated = Party(k % 3 + 1);
            let _ = model.attempt(designated, WorkAction::Start(WorkItem(k)));
            let _ = model.attempt(designated, WorkAction::Finish(WorkItem(k)));
        }
    }
    let s = model.stats();
    (s.forced_acts, s.rejections, retried, model.is_complete())
}

/// **E11 — prescriptiveness.** Expected shape: free-form forces nothing
/// and rejects nothing; the office procedure rejects out-of-order and
/// wrong-role deviations; the speech-act model maximises both forced
/// explicit acts (4 per item) and rejected deviations — the Coordinator
/// critique made measurable.
pub(crate) fn e11_prescriptiveness() -> Vec<Table> {
    let mut table = Table::new(
        "E11",
        "Prescriptiveness of coordination models on the same 8-item task",
        ["model", "forced_acts", "rejections", "retries", "completed"],
    );
    let items: Vec<WorkItem> = (0..8).map(WorkItem).collect();

    let mut free = FreeFormModel::new(items.clone());
    let (fa, rj, rt, done) = run(&mut free);
    table.push_row([
        "free-form".to_owned(),
        fa.to_string(),
        rj.to_string(),
        rt.to_string(),
        done.to_string(),
    ]);

    let steps: Vec<ProcedureStep> = (0..8)
        .map(|k| ProcedureStep {
            item: WorkItem(k),
            role: Party(k % 3 + 1),
        })
        .collect();
    let mut proc = ProcedureModel::new(steps);
    let (fa, rj, rt, done) = run(&mut proc);
    table.push_row([
        "office-procedure".to_owned(),
        fa.to_string(),
        rj.to_string(),
        rt.to_string(),
        done.to_string(),
    ]);

    let mut speech = SpeechActModel::new(Party(0), (0..8).map(|k| (WorkItem(k), Party(k % 3 + 1))));
    let (fa, rj, rt, done) = run(&mut speech);
    table.push_row([
        "speech-act".to_owned(),
        fa.to_string(),
        rj.to_string(),
        rt.to_string(),
        done.to_string(),
    ]);

    vec![table]
}

/// The shape the E11 verdict states.
pub(crate) const SHAPES: &[Shape] = &[Shape {
    table: "E11",
    claim: "every model completes; free-form forces and rejects nothing; speech acts force at least 32 acts, more than the procedure, and reject deviations",
    holds: |t| {
        let cell = |r: &str, c: &str| t.cell_f64(r, c);
        let completed = ["free-form", "office-procedure", "speech-act"]
            .iter()
            .all(|m| t.cell(m, "completed") == Some("true"));
        Some(
            completed
                && cell("free-form", "forced_acts")? == 0.0
                && cell("speech-act", "forced_acts")? >= 32.0
                && cell("speech-act", "forced_acts")? > cell("office-procedure", "forced_acts")?
                && cell("free-form", "rejections")? == 0.0
                && cell("speech-act", "rejections")? > 0.0,
        )
    },
}];

#[cfg(test)]
mod tests {
    use super::super::assert_detects;

    #[test]
    fn e11_fails_when_free_form_forces_protocol_acts() {
        assert_detects("E11", "free-form", "forced_acts", "8");
    }
}
