//! # idio-core
//!
//! The paper's contribution, end to end: **IDIO — Intelligent Direct I/O**
//! (Alian et al., MICRO 2022), a next-generation DDIO that dynamically
//! steers inbound network data between DRAM, the shared LLC, and per-core
//! MLCs, plus the full-system simulator that evaluates it.
//!
//! The three synergistic mechanisms live here:
//!
//! 1. **Self-invalidating I/O buffers** — the stack drops dead DMA buffers
//!    without writebacks (enacted through `idio-cache`'s
//!    invalidate-without-writeback maintenance op);
//! 2. **Network-driven MLC prefetching** — the [`controller::IdioController`]
//!    turns classifier metadata into MLC prefetch hints, gated per core by
//!    the [`fsm::PrefetchFsm`] fed with MLC-writeback telemetry;
//! 3. **Selective direct DRAM access** — class-1 payloads bypass the cache
//!    hierarchy entirely.
//!
//! [`system::System`] wires the substrates (`idio-cache`, `idio-mem`,
//! `idio-net`, `idio-nic`, `idio-stack`) into one deterministic
//! discrete-event simulation; [`experiments`] re-creates every figure of
//! the paper's evaluation on top of it.
//!
//! # Quick start
//!
//! ```
//! use idio_core::config::SystemConfig;
//! use idio_core::policy::SteeringPolicy;
//! use idio_core::system::System;
//! use idio_engine::time::SimTime;
//! use idio_net::gen::TrafficPattern;
//!
//! // Two TouchDrop NFs at 5 Gbps each, under full IDIO.
//! let mut cfg = SystemConfig::touchdrop_scenario(
//!     2,
//!     TrafficPattern::Steady { rate_gbps: 5.0 },
//! );
//! cfg.duration = SimTime::from_us(200);
//! let report = System::new(cfg.with_policy(SteeringPolicy::Idio)).run();
//! assert!(report.totals.self_inval > 0, "buffers were self-invalidated");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod controller;
pub mod experiments;
mod fd;
pub mod fsm;
pub mod layout;
pub mod policy;
mod pools;
pub mod prefetcher;
pub mod report;
pub mod sweep;
pub mod system;

pub use config::{AntagonistSpec, SloSpec, SystemConfig, TenantSpec};
pub use controller::{IdioConfig, IdioController, Placement};
pub use fsm::{MlcStatus, PrefetchFsm};
pub use policy::{PrefetchMode, SteeringPolicy};
pub use prefetcher::{MlcPrefetcher, PrefetcherConfig, PrefetcherStats};
pub use report::{BurstWindow, LatencySummary, RunReport, RunTotals, Timelines};
pub use system::System;

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use idio_cache as cache;
pub use idio_engine as engine;
pub use idio_mem as mem;
pub use idio_net as net;
pub use idio_nic as nic;
pub use idio_pool as pool;
pub use idio_stack as stack;
