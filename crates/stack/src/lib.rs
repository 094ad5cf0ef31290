//! # idio-stack
//!
//! The DPDK-like userspace software stack of the IDIO reproduction: the
//! Table II network functions expressed as per-packet memory-access
//! programs (descriptor read, mbuf metadata write, header/payload touches,
//! zero-copy TX), the polling-mode-driver batch size, the LLCAntagonist
//! contention workload, and the parametric core timing model that converts
//! cache hit levels into service time.
//!
//! # Examples
//!
//! ```
//! use idio_cache::addr::Addr;
//! use idio_stack::nf::{NfKind, PacketAction, PacketCtx};
//!
//! let ctx = PacketCtx {
//!     buf: Addr::new(0x10000),
//!     desc: Addr::new(0x20000),
//!     meta: Addr::new(0x30000),
//!     app: Addr::new(0x40000),
//!     len: 1514,
//! };
//! let work = NfKind::L2Fwd.packet_work(&ctx);
//! assert_eq!(work.action, PacketAction::Tx { lines: 24 });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antagonist;
pub mod nf;
pub mod pmd;
pub mod timing;

/// Descriptor bytes used when constructing NF programs (kept in sync with
/// `idio_nic::ring::DESC_BYTES`).
pub(crate) const DESC_BYTES_FOR_WORK: u64 = idio_nic::ring::DESC_BYTES;

pub use antagonist::{AntagonistConfig, AntagonistStats, LlcAntagonist};
pub use nf::{
    ChainStage, MemOp, NfChain, NfKind, PacketAction, PacketCtx, PacketWork, StageMark,
    MAX_CHAIN_STAGES, MBUF_META_BYTES,
};
pub use pmd::DEFAULT_BATCH;
pub use timing::CoreTiming;
