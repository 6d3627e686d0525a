#![warn(missing_docs)]

//! # odp-concurrency — cooperation-aware concurrency control
//!
//! The paper's central technical argument (§4.2.1) is that strict
//! serialisability — concurrency *transparency* — is the wrong tool for
//! cooperative work: it "masks out" other users exactly where CSCW needs
//! *awareness*. This crate implements the full spectrum the paper
//! surveys, so the trade-off can be measured:
//!
//! | Module | Scheme | Source |
//! |---|---|---|
//! | [`twophase`] | strict 2PL serialisable transactions (baseline, Figure 2a) | Bernstein & Goodman |
//! | [`locks`] | tickle locks | Greif & Sarin |
//! | [`locks`] | soft locks | Stefik et al. (Cognoter/Colab) |
//! | [`locks`] | notification locks | Hornick & Zdonik |
//! | [`txgroup`] | transaction groups with tailorable access rules | Skarra & Zdonik |
//! | [`ot`], [`dopt`] | operation transformation (GROVE) | Ellis & Gibbs |
//! | [`jupiter`] | client–server OT (provably convergent refinement) | Nichols et al. |
//! | [`floor`] | reservation / floor passing | Colab et al. |
//! | [`granularity`] | document/section/paragraph/sentence/word lock units | §4.2.1 |
//!
//! Every scheme reports the two Ellis real-time measures — *response
//! time* and *notification time* — plus the awareness events it lets
//! flow, which is what experiments E2–E4 compare.
//!
//! No engine here knows the cooperation-event bus. Each operation has
//! one method, which returns its typed outcome ([`Notice`],
//! [`FloorEvent`], [`GroupNotice`], [`AppliedOp`]); every outcome carries
//! what its `From<&_> for CoopEvent` projection needs, and a caller that
//! wants it seen hands it to `EventBus::publish_all`.

pub mod dopt;
pub mod floor;
pub mod granularity;
pub mod jupiter;
pub mod locks;
pub mod ot;
pub mod store;
pub mod twophase;
pub mod txgroup;

pub use dopt::{AppliedOp, DoptSite, RemoteOp};
pub use floor::{FloorControl, FloorError, FloorEvent, FloorPolicy};
pub use granularity::{unit_at, unit_count, unit_ranges, Granularity, UnitId};
pub use jupiter::{Bridge, OpMsg, OtClient, OtServer};
pub use locks::{
    ClientId, LockError, LockMode, LockReply, LockScheme, LockTable, Notice, NoticeKind, ResourceId,
};
pub use ot::{transform_pair, CharOp, TextDoc, TieBreak};
pub use store::{ObjectId, ObjectStore, StoreError, Versioned};
pub use twophase::{
    AbortReason, OpKind, OpResult, SubmitReply, TxnError, TxnEvent, TxnId, TxnManager, TxnOp,
};
pub use txgroup::{
    AccessMode, AccessRule, CooperativeRule, GroupError, GroupNotice, RuleDecision,
    TransactionGroup,
};
