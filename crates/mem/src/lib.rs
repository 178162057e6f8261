//! # br-mem — the memory-hierarchy substrate
//!
//! The Branch Runahead paper evaluates on a system with 32 KB L1 caches, a
//! 2 MB L2, a stream prefetcher, and a DDR4 memory system modelled by
//! Ramulator (Table 1). Chain *timeliness* — the paper's hardest problem
//! (Figure 12) — is a direct function of load-latency distribution, so
//! this crate reproduces that distribution shape from scratch:
//!
//! * [`Cache`] — set-associative, write-back, LRU tag store,
//! * `MshrFile` — miss-status holding registers with request merging,
//! * `StreamPrefetcher` — 64 streams, distance 16, prefetching
//!   into the L2 (Table 1),
//! * `Dram` — banked DDR4-style timing with open rows and FR-FCFS-like
//!   scheduling,
//! * [`MemorySystem`] — the composed, tick-driven hierarchy shared by the
//!   core and the Dependence Chain Engine (§4.2: "The DCE shares the
//!   D-Cache and D-TLB with the core").
//!
//! The memory system is *timing only*: data values live in the functional
//! emulator (`br-isa`), which is how execution-driven simulators such as
//! Scarab are organised as well.
//!
//! ```
//! use br_mem::{MemorySystem, MemoryConfig, ReqSource};
//!
//! let mut mem = MemorySystem::new(MemoryConfig::default());
//! let id = mem.request(0x4000, false, ReqSource::Core, 0).unwrap();
//! let mut cycle = 0;
//! let done = loop {
//!     let resp = mem.tick(cycle);
//!     if let Some(r) = resp.iter().find(|r| r.id == id) { break cycle; }
//!     cycle += 1;
//! };
//! assert!(done >= 3, "at least the L1 hit latency");
//! ```

#![warn(missing_docs)]

mod cache;
pub mod counters;
mod dram;
mod mshr;
mod prefetch;
mod system;
mod tlb;

pub use cache::Cache;
pub use cache::CacheAccess;
pub use cache::CacheConfig;
pub use cache::CacheStats;
pub use counters::Counters;
pub use dram::DramConfig;
pub use dram::DramStats;
pub use system::MemResp;
pub use system::MemoryConfig;
pub use system::MemoryStats;
pub use system::MemorySystem;
pub use system::ReqId;
pub use system::ReqSource;
pub use system::RequestError;

/// Cache line size in bytes of every cache in the hierarchy, the
/// I-cache included (Table 1).
pub const LINE_BYTES: u64 = 64;

/// The line-aligned address containing `addr`.
#[must_use]
pub(crate) fn line_addr(addr: u64) -> u64 {
    addr / LINE_BYTES * LINE_BYTES
}
