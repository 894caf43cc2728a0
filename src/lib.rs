//! # cmp-hierarchies
//!
//! A reproduction of *"Adaptive Mechanisms and Policies for Managing
//! Cache Hierarchies in Chip Multiprocessors"* (Speight, Shafi, Zhang,
//! Rajamony — ISCA 2005).
//!
//! This umbrella crate re-exports the whole simulator stack:
//!
//! * [`engine`] — discrete-event simulation substrate,
//! * [`cache`] — tag arrays, MSHRs, write-back queues, history tables,
//! * [`coherence`] — the snoop-based coherence protocol,
//! * [`ring`] — the bidirectional intrachip ring,
//! * [`mem`] — the L3 victim cache and memory controller,
//! * [`trace`] — trace records and synthetic commercial workloads,
//! * [`adaptive`] — the paper's contribution: write-back policies (WBHT,
//!   L2 snarfing) and the full CMP system model.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture.

#![forbid(unsafe_code)]

pub use cmp_adaptive_wb as adaptive;
pub use cmpsim_cache as cache;
pub use cmpsim_coherence as coherence;
pub use cmpsim_engine as engine;
pub use cmpsim_mem as mem;
pub use cmpsim_ring as ring;
pub use cmpsim_trace as trace;
