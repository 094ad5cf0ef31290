//! # idio-net
//!
//! Packet and traffic-generation substrate of the IDIO reproduction:
//! structural packets (length + the header fields the NIC classifier
//! inspects), five-tuple flows with a stable hardware-style hash, and the
//! steady / bursty traffic generators defined in Sec. VI of the paper.
//!
//! The paper's evaluation drives the simulated server with a hardware load
//! generator model; [`gen::TrafficGen`] plays that role here.
//!
//! # Examples
//!
//! ```
//! use idio_engine::time::{Duration, SimTime};
//! use idio_net::{BurstSpec, FlowSpec, TrafficGen, TrafficPattern};
//!
//! // The paper's Fig. 9 load: 1024-packet bursts of MTU frames at
//! // 100 Gbps, every 10 ms.
//! let spec = BurstSpec::for_ring(1024, 1514, 100.0, Duration::from_ms(10));
//! let gen = TrafficGen::new(
//!     FlowSpec::udp_to_port(5000, 1514),
//!     TrafficPattern::Bursty(spec),
//!     SimTime::from_ms(10),
//! );
//! assert_eq!(gen.count(), 1024); // exactly one ring-size burst per period
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod packet;
pub mod trace;

pub use gen::{
    Arrival, BurstSpec, FlowSet, FlowSpec, MultiFlowGen, TrafficGen, TrafficPattern,
    MAX_FLOW_SET_FLOWS, MAX_FLOW_SET_TAG,
};
pub use packet::{Dscp, FiveTuple, Packet, HEADER_BYTES, MIN_FRAME_BYTES, MTU_FRAME_BYTES};
pub use trace::{read_trace, write_trace, TraceError};
