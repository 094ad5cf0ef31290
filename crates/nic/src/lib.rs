//! # idio-nic
//!
//! The NIC substrate of the IDIO reproduction: receive descriptor rings
//! with fixed 2 KiB DMA buffers, a PCIe DMA pacing engine, Ethernet Flow
//! Director steering (EP and ATR modes), the **IDIO classifier** of
//! Sec. V-A (application class from DSCP, header-line detection, per-core
//! 1 µs burst counters), and the Fig. 7 **TLP reserved-bit encoding** that
//! carries classifier metadata to the on-chip IDIO controller.
//!
//! The NIC produces *plans* ([`nic::RxDma`]) — which line transactions
//! happen when, with what metadata — and the full-system simulator in
//! `idio-core` enacts them against the cache hierarchy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod dma;
pub mod flow_director;
pub mod nic;
pub mod ring;
pub mod tlp;
pub mod tx;

pub use classifier::{IdioClassifier, PacketClass};
pub use dma::{DmaEngine, DmaSchedule};
pub use flow_director::{
    FdStats, FilterInstall, FlowDirector, QueueId, SteeringSource, DEFAULT_FILTER_TABLE_ENTRIES,
    PERFECT_WAYS,
};
pub use nic::{Nic, NicConfig, NicStats, RingLayout, RxDma};
pub use ring::{ReserveError, RxRing, RxSlot, DEFAULT_BUF_BYTES, DESC_BYTES};
pub use tlp::{AppClass, CoreRangeError, TlpHeader, TlpMeta};
pub use tx::{TxRing, TxRingFullError, TxSlot, TX_DESC_BYTES};
