//! # idio-engine
//!
//! Discrete-event simulation core for the IDIO reproduction: picosecond
//! simulated time, a deterministic event queue, seeded randomness, and the
//! statistics primitives (counters, rate-sampled time series, latency
//! percentiles) from which the paper's evaluation figures are rebuilt.
//!
//! This crate is deliberately free of any networking or cache semantics —
//! it is the substrate every other crate in the workspace builds on.
//!
//! # Examples
//!
//! A minimal simulation loop:
//!
//! ```
//! use idio_engine::queue::EventQueue;
//! use idio_engine::stats::Counter;
//! use idio_engine::time::{Duration, SimTime};
//!
//! #[derive(Debug)]
//! enum Event {
//!     Tick,
//! }
//!
//! let mut q = EventQueue::new();
//! let mut ticks = Counter::new();
//! q.schedule_at(SimTime::ZERO, Event::Tick);
//! while let Some((now, ev)) = q.pop() {
//!     match ev {
//!         Event::Tick => {
//!             ticks.inc();
//!             if now < SimTime::from_us(1) {
//!                 q.schedule_after(Duration::from_ns(100), Event::Tick);
//!             }
//!         }
//!     }
//! }
//! assert_eq!(ticks.get(), 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod json;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{Counter, LatencyRecorder, RateSampler, Sample, TimeSeries};
pub use telemetry::{MetricsRegistry, MetricsSnapshot, TraceFilter, TraceRecord, Tracer};
pub use time::{wire_time, Duration, Freq, SimTime};
