#![warn(missing_docs)]

//! # cscw-core — the groupware toolkit
//!
//! The paper's primary "contribution" is a requirements catalogue; this
//! crate is the toolkit that meets it, tying the substrate crates
//! together into the application concepts of §2–§3:
//!
//! - [`session`] — sessions across the Figure-1 space–time matrix with
//!   seamless transitions;
//! - [`workspace`] — shared workspaces: store + Shen–Dewan access control
//!   + awareness + public history;
//! - [`document`] — Quilt-style co-authoring (base + annotations);
//! - [`conference`] — collaboration-transparent (floor controlled) and
//!   collaboration-aware conferencing;
//! - [`rooms`] — the rooms metaphor (offices, meeting rooms, doors);
//! - [`flightstrips`] — the Lancaster ATC flight-strip board;
//! - [`replicated`] — workspace replicas over totally-ordered multicast;
//! - [`experiments`] — the derived evaluation suite E1–E12.

pub mod conference;
pub mod document;
pub mod experiments;
pub mod flightstrips;
pub mod replicated;
pub mod rooms;
pub mod session;
pub mod workspace;
