//! The L3 victim cache and the memory controller.
//!
//! In the modelled CMP the L3 "may be used as a victim cache for both
//! modified and clean lines evicted from on-chip level 2 caches" and
//! "resides on its own dedicated off-chip pathway that is distinct from
//! the pathway to and from memory" (paper §1). Inclusion is *not*
//! maintained; on a read hit the L3 keeps its copy (which is exactly why
//! so many clean write-backs are redundant — Table 1).
//!
//! Finite incoming queues make the L3 reject transactions with *Retry*
//! responses under pressure ("lines may be rejected by the L3 if there
//! are not enough hardware resources to take the line immediately", §2);
//! those retries are the signal the paper's adaptive WBHT switch keys on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod l3;
mod memory;

pub use l3::{L3Cache, L3Config, L3Stats};
pub use memory::{MemoryConfig, MemoryController, MemoryStats};
