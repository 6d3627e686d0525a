#![warn(missing_docs)]

//! # odp-mobility — mobile computing support
//!
//! Implements §3.3.3/§4.2.2 ("The impact of mobility") of the paper:
//!
//! - [`cache`] — client-side caching with hoarding ("cache significant
//!   portions of the data on the mobile computer");
//! - [`reintegration`] — Coda-style disconnected-operation logging with
//!   log optimisation, replay, and conflict policies;
//! - [`host`] — the mobile host across the three connectivity levels
//!   (disconnected / partially / fully connected), with bulk updates on
//!   reconnection;
//! - [`addressing`] — home-agent addressing for mobile hosts (mobile-IP
//!   style).
//!
//! The network-side behaviour of the three levels (radio latency, loss,
//! total disconnection) lives in the simulator:
//! [`odp_sim::net::Connectivity`].
//!
//! ```
//! use odp_concurrency::store::{ObjectId, ObjectStore};
//! use odp_mobility::host::MobileHost;
//! use odp_mobility::reintegration::ConflictPolicy;
//! use odp_sim::net::Connectivity;
//!
//! let mut server = ObjectStore::new();
//! server.create(ObjectId(1), "survey form");
//! let mut host = MobileHost::new(ConflictPolicy::ServerWins);
//! host.read(ObjectId(1), &mut server)?; // caches while connected
//! host.set_connectivity(Connectivity::Disconnected);
//! let (value, _) = host.read(ObjectId(1), &mut server)?; // served offline
//! assert_eq!(value, "survey form");
//! # Ok::<(), odp_mobility::host::MobileError>(())
//! ```

pub mod addressing;
pub mod cache;
pub mod host;
pub mod reintegration;

pub use addressing::{AddressingError, HomeAgent, MobileId};
pub use cache::{CachedObject, MobileCache};
pub use host::{MobileError, MobileHost, ReconnectReport, Served};
pub use reintegration::{
    reintegrate, ChangeLog, ConflictPolicy, LogEntry, ReintegrationError, ReplayOutcome,
};
