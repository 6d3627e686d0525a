//! The conversation-for-action state machine underlying Coordinator and
//! Action Workflow (Winograd/Flores, Medina-Mora et al.) — the paper's
//! §3.2.1 "formal models based on speech act theory".
//!
//! A conversation runs between a *customer* (who requests) and a
//! *performer*. Every move is an explicit, typed speech act; moves not
//! permitted in the current state are rejected. This explicitness is
//! exactly what the paper's §4.1 critique targets ("Co-ordinator makes
//! explicit and textual a dimension of human communication which is
//! otherwise contained in the overall context of interaction"), and what
//! experiment E11 quantifies.

use std::fmt;

/// A participant in a conversation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Party(pub u32);

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The speech acts of the conversation-for-action network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeechAct {
    /// Customer asks for something.
    Request,
    /// Performer commits.
    Promise,
    /// Performer proposes different conditions.
    CounterOffer,
    /// Customer accepts the counter.
    AcceptCounter,
    /// Performer refuses.
    Decline,
    /// Customer withdraws the request.
    Withdraw,
    /// Performer asserts the work is done.
    ReportCompletion,
    /// Customer declares satisfaction (closes successfully).
    DeclareComplete,
    /// Customer rejects the reported work.
    DeclineReport,
}

impl fmt::Display for SpeechAct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpeechAct::Request => "request",
            SpeechAct::Promise => "promise",
            SpeechAct::CounterOffer => "counter-offer",
            SpeechAct::AcceptCounter => "accept-counter",
            SpeechAct::Decline => "decline",
            SpeechAct::Withdraw => "withdraw",
            SpeechAct::ReportCompletion => "report-completion",
            SpeechAct::DeclareComplete => "declare-complete",
            SpeechAct::DeclineReport => "decline-report",
        };
        f.write_str(s)
    }
}

/// The conversation states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConversationState {
    /// Nothing asked yet.
    Initial,
    /// Requested, awaiting the performer.
    Requested,
    /// Counter-offered, awaiting the customer.
    Countered,
    /// Promised: work in progress.
    Promised,
    /// Completion reported, awaiting the customer's declaration.
    Reported,
    /// Closed with satisfaction.
    Completed,
    /// Closed without (declined/withdrawn).
    Cancelled,
}

/// A rejected move: the act was not legal in the current state or was
/// made by the wrong party.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// The offending act.
    pub act: SpeechAct,
    /// Who tried it.
    pub by: Party,
    /// The state it was attempted in.
    pub state: ConversationState,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} may not {} in state {:?}",
            self.by, self.act, self.state
        )
    }
}

impl std::error::Error for Rejected {}

/// One conversation for action.
///
/// # Examples
///
/// ```
/// use odp_workflow::speechact::{Conversation, ConversationState, Party, SpeechAct};
///
/// let mut c = Conversation::new(Party(0), Party(1));
/// c.act(Party(0), SpeechAct::Request)?;
/// c.act(Party(1), SpeechAct::Promise)?;
/// c.act(Party(1), SpeechAct::ReportCompletion)?;
/// c.act(Party(0), SpeechAct::DeclareComplete)?;
/// assert_eq!(c.state(), ConversationState::Completed);
/// assert_eq!(c.acts_taken(), 4);
/// # Ok::<(), odp_workflow::speechact::Rejected>(())
/// ```
#[derive(Debug, Clone)]
pub struct Conversation {
    customer: Party,
    performer: Party,
    state: ConversationState,
    acts: Vec<(Party, SpeechAct)>,
    rejections: u64,
}

impl Conversation {
    /// Opens a conversation between a customer and a performer.
    pub fn new(customer: Party, performer: Party) -> Self {
        Conversation {
            customer,
            performer,
            state: ConversationState::Initial,
            acts: Vec::new(),
            rejections: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> ConversationState {
        self.state
    }

    /// Moves taken so far (the "forced explicitness" count).
    pub fn acts_taken(&self) -> u64 {
        self.acts.len() as u64
    }

    /// Moves rejected so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// The transcript.
    pub fn transcript(&self) -> &[(Party, SpeechAct)] {
        &self.acts
    }

    /// Attempts a speech act.
    ///
    /// # Errors
    ///
    /// [`Rejected`] when the act is illegal in the current state or made
    /// by the wrong party; the rejection is counted.
    pub fn act(&mut self, by: Party, act: SpeechAct) -> Result<ConversationState, Rejected> {
        use ConversationState::*;
        use SpeechAct::*;
        let customer = self.customer;
        let performer = self.performer;
        let next = match (self.state, act) {
            (Initial, Request) if by == customer => Requested,
            (Requested, Promise) if by == performer => Promised,
            (Requested, CounterOffer) if by == performer => Countered,
            (Requested, Decline) if by == performer => Cancelled,
            (Requested, Withdraw) if by == customer => Cancelled,
            (Countered, AcceptCounter) if by == customer => Promised,
            (Countered, Withdraw) if by == customer => Cancelled,
            (Promised, ReportCompletion) if by == performer => Reported,
            (Promised, Withdraw) if by == customer => Cancelled,
            (Promised, Decline) if by == performer => Cancelled,
            (Reported, DeclareComplete) if by == customer => Completed,
            (Reported, DeclineReport) if by == customer => Promised,
            _ => {
                self.rejections += 1;
                return Err(Rejected {
                    act,
                    by,
                    state: self.state,
                });
            }
        };
        self.acts.push((by, act));
        self.state = next;
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ConversationState::*;
    use SpeechAct::*;

    fn convo() -> Conversation {
        Conversation::new(Party(0), Party(1))
    }

    #[test]
    fn happy_path_takes_four_explicit_acts() {
        let mut c = convo();
        c.act(Party(0), Request).unwrap();
        c.act(Party(1), Promise).unwrap();
        c.act(Party(1), ReportCompletion).unwrap();
        c.act(Party(0), DeclareComplete).unwrap();
        assert_eq!(c.state(), Completed);
        assert_eq!(c.acts_taken(), 4);
        assert_eq!(c.rejections(), 0);
    }

    #[test]
    fn counter_offer_path() {
        let mut c = convo();
        c.act(Party(0), Request).unwrap();
        c.act(Party(1), CounterOffer).unwrap();
        assert_eq!(c.state(), Countered);
        c.act(Party(0), AcceptCounter).unwrap();
        assert_eq!(c.state(), Promised);
    }

    #[test]
    fn decline_and_withdraw_cancel() {
        let mut c = convo();
        c.act(Party(0), Request).unwrap();
        c.act(Party(1), Decline).unwrap();
        assert_eq!(c.state(), Cancelled);

        let mut c2 = convo();
        c2.act(Party(0), Request).unwrap();
        c2.act(Party(0), Withdraw).unwrap();
        assert_eq!(c2.state(), Cancelled);
    }

    #[test]
    fn declined_report_reopens_the_work() {
        let mut c = convo();
        c.act(Party(0), Request).unwrap();
        c.act(Party(1), Promise).unwrap();
        c.act(Party(1), ReportCompletion).unwrap();
        c.act(Party(0), DeclineReport).unwrap();
        assert_eq!(c.state(), Promised);
        c.act(Party(1), ReportCompletion).unwrap();
        c.act(Party(0), DeclareComplete).unwrap();
        assert_eq!(c.state(), Completed);
        assert_eq!(c.acts_taken(), 6, "rework costs two more explicit acts");
    }

    #[test]
    fn wrong_party_is_rejected() {
        let mut c = convo();
        // The performer cannot request.
        let err = c.act(Party(1), Request).unwrap_err();
        assert_eq!(err.state, Initial);
        // The customer cannot promise.
        c.act(Party(0), Request).unwrap();
        assert!(c.act(Party(0), Promise).is_err());
        assert_eq!(c.rejections(), 2);
    }

    #[test]
    fn out_of_order_acts_are_rejected() {
        let mut c = convo();
        assert!(
            c.act(Party(1), ReportCompletion).is_err(),
            "no work promised yet"
        );
        c.act(Party(0), Request).unwrap();
        assert!(
            c.act(Party(0), DeclareComplete).is_err(),
            "nothing reported"
        );
        assert_eq!(c.rejections(), 2);
        assert_eq!(c.acts_taken(), 1);
    }

    #[test]
    fn closed_conversations_accept_nothing() {
        let mut c = convo();
        c.act(Party(0), Request).unwrap();
        c.act(Party(1), Decline).unwrap();
        assert!(c.act(Party(0), Request).is_err());
        assert!(c.act(Party(1), ReportCompletion).is_err());
    }
}
