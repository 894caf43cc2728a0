//! Snoop-based cache-coherence protocol for the CMP simulator.
//!
//! The modelled protocol is "an extension of that found in IBM's POWER4
//! systems, which supports cache-to-cache transfers (interventions) for
//! all dirty lines and a subset of lines in the shared state" (paper §1).
//! We implement a MESI variant with two extra states:
//!
//! * [`L2State::SharedLast`] (POWER4 "SL") — the one shared copy allowed
//!   to source clean interventions, and
//! * [`L2State::Tagged`] (POWER4 "T") — a shared *dirty* owner created
//!   when a modified line is read by a peer: it keeps responsibility for
//!   the dirty data while other caches hold `Shared` copies.
//!
//! The crate provides:
//!
//! * [`L2State`] / [`L3State`] — per-line coherence states,
//! * [`TxnKind`] / [`BusTxn`] — address-ring transaction types,
//! * [`SnoopResponse`] — per-agent snoop replies,
//! * [`SnoopCollector`] — the central entity that combines snoop replies
//!   into a [`CombinedResponse`], including fair round-robin selection of
//!   a snarf winner (paper §3), and
//! * pure state-transition helpers used by the L2 model.
//!
//! All functions here are *pure protocol logic*: resource availability
//! (queue space, ring bandwidth) is judged by the callers, which then
//! feed `Retry`-style responses into the collector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collector;
mod ids;
mod state;
mod txn;

pub use collector::{CombinedResponse, DataSource, SnoopCollector, WbOutcome};
pub use ids::{AgentId, L2Id, TxnId};
pub use state::{L2State, L3State};
pub use txn::{BusTxn, SnoopResponse, TxnKind, TxnPath, TxnState};
