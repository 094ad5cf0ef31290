//! Traffic generators: steady-rate and bursty streams (Sec. VI).
//!
//! The paper defines a burst by three parameters: the **burst period** (time
//! between the starts of two consecutive bursts, fixed at 10 ms), the
//! **burst rate** (bits per second during a burst), and the **burst length**
//! (time from the first to the last packet of a burst). The burst length is
//! chosen so each burst delivers exactly `ring_size` packets — preventing
//! drops within a single burst — which [`BurstSpec::for_ring`] computes.

use idio_engine::rng::SimRng;
use idio_engine::time::{wire_time, Duration, SimTime};

use crate::packet::{Dscp, FiveTuple, Packet};

/// One packet arrival produced by a generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Time the last bit of the frame arrives at the NIC.
    pub at: SimTime,
    /// The packet.
    pub packet: Packet,
}

/// Static description of the packets a generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// The flow's five-tuple.
    pub tuple: FiveTuple,
    /// DSCP marking (application class signalling).
    pub dscp: Dscp,
    /// Frame length in bytes.
    pub packet_len: u16,
}

impl FlowSpec {
    /// A UDP flow of `packet_len`-byte best-effort frames to `dst_port`.
    pub fn udp_to_port(dst_port: u16, packet_len: u16) -> Self {
        FlowSpec {
            tuple: FiveTuple::udp(0x0a00_0001, 0x0a00_0002, 40_000 + dst_port, dst_port),
            dscp: Dscp::BEST_EFFORT,
            packet_len,
        }
    }

    /// Returns the spec with a different DSCP marking.
    pub fn with_dscp(mut self, dscp: Dscp) -> Self {
        self.dscp = dscp;
        self
    }
}

/// Parameters of a periodic burst pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSpec {
    /// Time between the starts of two consecutive bursts.
    pub period: Duration,
    /// Number of packets in each burst.
    pub packets_per_burst: u32,
    /// Interarrival time of packets within a burst (the burst rate).
    pub intra_gap: Duration,
}

impl BurstSpec {
    /// The paper's burst construction: `ring_size` packets per burst at
    /// `rate_gbps`, every `period` (10 ms in the evaluation).
    ///
    /// # Panics
    ///
    /// Panics if the burst does not fit in the period or any parameter is
    /// zero.
    pub fn for_ring(ring_size: u32, packet_len: u16, rate_gbps: f64, period: Duration) -> Self {
        assert!(ring_size > 0, "empty burst");
        let intra_gap = wire_time(u64::from(packet_len), rate_gbps);
        let burst_len = Duration::from_ps(intra_gap.as_ps().saturating_mul(u64::from(ring_size)));
        assert!(
            burst_len < period,
            "burst of {burst_len} does not fit in period {period}"
        );
        BurstSpec {
            period,
            packets_per_burst: ring_size,
            intra_gap,
        }
    }

    /// Duration from the first to the last packet of one burst.
    pub fn burst_length(&self) -> Duration {
        self.intra_gap * u64::from(self.packets_per_burst.saturating_sub(1))
    }
}

/// The arrival pattern of a traffic source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// A constant packet rate from time zero.
    Steady {
        /// Line rate in gigabits per second.
        rate_gbps: f64,
    },
    /// Periodic bursts (Sec. VI).
    Bursty(BurstSpec),
    /// Memoryless (Poisson) arrivals at a mean rate — the classic open-loop
    /// datacenter load model; exposes policies to irregular instantaneous
    /// rates without the regular structure of [`TrafficPattern::Bursty`].
    Poisson {
        /// Mean offered load in gigabits per second.
        rate_gbps: f64,
        /// Seed for the exponential interarrival draws (keeps runs
        /// deterministic).
        seed: u64,
    },
}

/// A deterministic packet-arrival generator for one flow.
///
/// Implements [`Iterator`], yielding [`Arrival`]s in time order until the
/// configured horizon.
///
/// # Examples
///
/// ```
/// use idio_engine::time::{Duration, SimTime};
/// use idio_net::gen::{FlowSpec, TrafficGen, TrafficPattern};
///
/// // 10 Gbps of MTU frames for 1 ms: one frame every ~1.2 us.
/// let gen = TrafficGen::new(
///     FlowSpec::udp_to_port(5000, 1514),
///     TrafficPattern::Steady { rate_gbps: 10.0 },
///     SimTime::from_ms(1),
/// );
/// let arrivals: Vec<_> = gen.collect();
/// assert_eq!(arrivals.len(), 826);
/// assert!(arrivals.windows(2).all(|w| w[0].at < w[1].at));
/// ```
#[derive(Debug, Clone)]
pub struct TrafficGen {
    flow: FlowSpec,
    pattern: TrafficPattern,
    until: SimTime,
    next_id: u64,
    /// Index of the next packet within the current burst (bursty only).
    burst_pos: u32,
    /// Start time of the current burst / next steady arrival.
    cursor: SimTime,
    /// RNG for stochastic patterns.
    rng: SimRng,
}

impl TrafficGen {
    /// Creates a generator emitting until `until` (exclusive).
    pub fn new(flow: FlowSpec, pattern: TrafficPattern, until: SimTime) -> Self {
        let seed = match pattern {
            TrafficPattern::Steady { rate_gbps } | TrafficPattern::Poisson { rate_gbps, .. } => {
                assert!(rate_gbps > 0.0, "rate must be positive");
                if let TrafficPattern::Poisson { seed, .. } = pattern {
                    seed
                } else {
                    0
                }
            }
            TrafficPattern::Bursty(_) => 0,
        };
        TrafficGen {
            flow,
            pattern,
            until,
            next_id: 0,
            burst_pos: 0,
            cursor: SimTime::ZERO,
            rng: SimRng::seed_from(seed),
        }
    }

    /// The flow specification this generator emits.
    pub fn flow(&self) -> &FlowSpec {
        &self.flow
    }

    fn make(&mut self, at: SimTime) -> Arrival {
        let id = self.next_id;
        self.next_id += 1;
        Arrival {
            at,
            packet: Packet::new(id, self.flow.packet_len, self.flow.tuple, self.flow.dscp),
        }
    }
}

impl Iterator for TrafficGen {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        match self.pattern {
            TrafficPattern::Steady { rate_gbps } => {
                let at = self.cursor;
                if at >= self.until {
                    return None;
                }
                self.cursor = at + wire_time(u64::from(self.flow.packet_len), rate_gbps);
                Some(self.make(at))
            }
            TrafficPattern::Poisson { rate_gbps, .. } => {
                let at = self.cursor;
                if at >= self.until {
                    return None;
                }
                // Exponential interarrival with the packet's mean service
                // slot as the mean.
                let mean = wire_time(u64::from(self.flow.packet_len), rate_gbps);
                let u = self.rng.unit_f64().max(f64::MIN_POSITIVE);
                let gap_ps = (-u.ln() * mean.as_ps() as f64).round().max(1.0) as u64;
                self.cursor = at + Duration::from_ps(gap_ps);
                Some(self.make(at))
            }
            TrafficPattern::Bursty(spec) => {
                let at = self.cursor + spec.intra_gap * u64::from(self.burst_pos);
                if at >= self.until {
                    return None;
                }
                let arrival = self.make(at);
                self.burst_pos += 1;
                if self.burst_pos == spec.packets_per_burst {
                    self.burst_pos = 0;
                    self.cursor += spec.period;
                }
                Some(arrival)
            }
        }
    }
}

/// Maximum concurrently-active flows one [`FlowSet`] can carry.
pub const MAX_FLOW_SET_FLOWS: u32 = 1 << 24;

/// Maximum tenant tag a wide [`FlowSet`] accepts (the tag occupies the
/// first source-IP octet above the `11.0.0.0` base). Narrow sets ignore
/// the tag and accept any value.
pub const MAX_FLOW_SET_TAG: u16 = 239;

/// Number of flow generations a churning [`FlowSet`] distinguishes before
/// flow identifiers repeat (port/address reuse, as on real networks).
const CHURN_GENERATIONS: u64 = 256;

/// A streaming flow population: derives each flow's five-tuple on demand
/// from `(tenant tag, flow index)` instead of materialising a `Vec`, so a
/// tenant can carry millions of flows with O(1) memory.
///
/// Two derivations exist, picked automatically:
///
/// * **narrow** — the flow count fits the tenant's port range
///   (`base_port + flows <= 65536`) and no churn is configured. The
///   five-tuples are exactly [`FlowSpec::udp_to_port`]`(base_port + i)`,
///   byte-compatible with the materialised flow lists earlier versions
///   built.
/// * **wide** — larger populations (or churning ones) spill the flow
///   index into the source address: the low 16 bits offset the ports, the
///   high bits land in the source IP together with the tenant tag, so
///   tenants can never alias each other's flows.
///
/// With churn configured, each of the `flows` active slots hosts a
/// sequence of flow *incarnations*: slot `j` retires its flow and starts
/// a fresh one (new index, new five-tuple) every `lifetime`, staggered
/// across slots so the population turns over smoothly. The mapping is a
/// pure function of `(slot, time)` — no per-flow state exists anywhere.
///
/// # Examples
///
/// ```
/// use idio_engine::time::{Duration, SimTime};
/// use idio_net::gen::{FlowSet, FlowSpec};
/// use idio_net::packet::Dscp;
///
/// // A small set is byte-compatible with the legacy materialised list.
/// let small = FlowSet::new(0, 4, 5000, 1514, Dscp::BEST_EFFORT);
/// assert_eq!(small.tuple_of(2), FlowSpec::udp_to_port(5002, 1514).tuple);
///
/// // A million-flow set derives tuples on demand and inverts them.
/// let big = FlowSet::new(3, 1_000_000, 5000, 1514, Dscp::BEST_EFFORT);
/// let t = big.tuple_of(900_001);
/// assert_eq!(big.slot_of(&t), Some(900_001));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSet {
    /// Tenant tag disambiguating wide sets (unused by narrow sets).
    tag: u16,
    /// Concurrently-active flows (the working-set width).
    flows: u32,
    base_port: u16,
    packet_len: u16,
    dscp: Dscp,
    /// Packets dealt to a flow per visit before rotating to the next
    /// (a packet train; 1 = plain round-robin).
    train: u32,
    /// Flow lifetime: how long a slot keeps one flow before churning to a
    /// fresh one. `None` = the population never turns over.
    churn: Option<Duration>,
}

impl FlowSet {
    /// Source address of every narrow flow (shared with
    /// [`FlowSpec::udp_to_port`]).
    const NARROW_SRC_IP: u32 = 0x0a00_0001;
    /// Destination of every synthetic flow.
    const DST_IP: u32 = 0x0a00_0002;
    /// Base of the wide source-address space (`11.0.0.1`); the tenant tag
    /// selects the first octet above it.
    const WIDE_SRC_BASE: u32 = 0x0b00_0001;
    /// Source ports sit this far above the destination port.
    const SRC_PORT_BASE: u16 = 40_000;

    /// Creates a flow set of `flows` active flows.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero or exceeds [`MAX_FLOW_SET_FLOWS`], or if
    /// the set is wide and `tag` exceeds [`MAX_FLOW_SET_TAG`] (narrow sets
    /// never use the tag).
    pub fn new(tag: u16, flows: u32, base_port: u16, packet_len: u16, dscp: Dscp) -> Self {
        assert!(flows > 0, "a tenant needs at least one flow");
        assert!(
            flows <= MAX_FLOW_SET_FLOWS,
            "flow set of {flows} exceeds the {MAX_FLOW_SET_FLOWS} maximum"
        );
        FlowSet {
            tag,
            flows,
            base_port,
            packet_len,
            dscp,
            train: 1,
            churn: None,
        }
        .checked_tag()
    }

    /// Rejects a tag past [`MAX_FLOW_SET_TAG`] once the set is wide: the
    /// tag must fit the source-address octet only when it is used.
    fn checked_tag(self) -> Self {
        assert!(
            !self.is_wide() || self.tag <= MAX_FLOW_SET_TAG,
            "tenant tag {} exceeds the {MAX_FLOW_SET_TAG} maximum",
            self.tag
        );
        self
    }

    /// Sets the packet-train length: how many consecutive packets each
    /// flow receives per visit.
    ///
    /// # Panics
    ///
    /// Panics if `train` is zero.
    pub fn with_train(mut self, train: u32) -> Self {
        assert!(train > 0, "packet train must hold at least one packet");
        self.train = train;
        self
    }

    /// Enables churn: each flow lives `lifetime`, then its slot starts a
    /// fresh flow. Forces the wide derivation.
    ///
    /// # Panics
    ///
    /// Panics if `lifetime` is zero or the tag exceeds
    /// [`MAX_FLOW_SET_TAG`].
    pub fn with_churn(mut self, lifetime: Duration) -> Self {
        assert!(lifetime > Duration::ZERO, "flow lifetime must be positive");
        self.churn = Some(lifetime);
        self.checked_tag()
    }

    /// Number of concurrently-active flows.
    pub fn flows(&self) -> u32 {
        self.flows
    }

    /// The packet-train length.
    pub fn train(&self) -> u32 {
        self.train
    }

    /// Frame length of every packet in the set.
    pub fn packet_len(&self) -> u16 {
        self.packet_len
    }

    /// Whether the set uses the wide (source-address-spilling) derivation.
    pub fn is_wide(&self) -> bool {
        self.churn.is_some() || u32::from(self.base_port) + self.flows > 65536
    }

    /// The five-tuple of flow `idx`.
    pub fn tuple_of(&self, idx: u32) -> FiveTuple {
        let lo = (idx & 0xffff) as u16;
        let dst_port = self.base_port.wrapping_add(lo);
        let src_port = Self::SRC_PORT_BASE.wrapping_add(dst_port);
        let src_ip = if self.is_wide() {
            Self::WIDE_SRC_BASE + (u32::from(self.tag) << 24) + (idx >> 16)
        } else {
            Self::NARROW_SRC_IP
        };
        FiveTuple::udp(src_ip, Self::DST_IP, src_port, dst_port)
    }

    /// The flow index slot `slot` hosts at time `at` (its current
    /// incarnation under churn; `slot` itself without).
    ///
    /// Incarnation `k` of slot `j` is flow index `j + flows * k`: always
    /// congruent to `j` modulo `flows`, so the slot (and with it the home
    /// queue) is recoverable from any index.
    pub fn index_at(&self, slot: u32, at: SimTime) -> u32 {
        debug_assert!(slot < self.flows);
        match self.churn {
            None => slot,
            Some(life) => {
                // Stagger slot churn uniformly across one lifetime so the
                // population turns over smoothly instead of in lockstep.
                let stagger = life.as_ps() / u64::from(self.flows) * u64::from(slot);
                let k = (at.as_ps() + stagger) / life.as_ps() % CHURN_GENERATIONS;
                slot + self.flows * k as u32
            }
        }
    }

    /// The first time after `at` at which slot `slot` turns over to a new
    /// flow index ([`FlowSet::index_at`] changes there and nowhere in
    /// between), or `None` without churn.
    ///
    /// Consecutive generations always differ, even across the
    /// wrap of the generation counter, so every lifetime boundary is a
    /// turnover.
    pub fn next_turnover(&self, slot: u32, at: SimTime) -> Option<SimTime> {
        debug_assert!(slot < self.flows);
        let life = self.churn?.as_ps();
        let stagger = life / u64::from(self.flows) * u64::from(slot);
        let generation = (at.as_ps() + stagger) / life;
        Some(SimTime::from_ps((generation + 1) * life - stagger))
    }

    /// Inverts [`FlowSet::tuple_of`]: the active slot a five-tuple
    /// belongs to, or `None` if the tuple is not from this set.
    pub fn slot_of(&self, flow: &FiveTuple) -> Option<u32> {
        if flow.proto != 17 || flow.dst_ip != Self::DST_IP {
            return None;
        }
        let lo = flow.dst_port.wrapping_sub(self.base_port);
        if flow.src_port != Self::SRC_PORT_BASE.wrapping_add(flow.dst_port) {
            return None;
        }
        let idx = if self.is_wide() {
            let rel = flow
                .src_ip
                .wrapping_sub(Self::WIDE_SRC_BASE + (u32::from(self.tag) << 24));
            if rel > 0xffff {
                return None;
            }
            (rel << 16) | u32::from(lo)
        } else {
            if flow.src_ip != Self::NARROW_SRC_IP {
                return None;
            }
            u32::from(lo)
        };
        let slot = idx % self.flows;
        // Narrow sets cover exactly [0, flows); wide indices wrap by
        // construction.
        if !self.is_wide() && idx >= self.flows {
            return None;
        }
        Some(slot)
    }
}

/// A deterministic multi-flow generator: one aggregate arrival pattern
/// dealt over a streaming [`FlowSet`].
///
/// The timing of the merged stream is *exactly* that of a single
/// [`TrafficGen`] driven by `pattern` (so a tenant's aggregate offered
/// load is independent of its flow count); only the five-tuple rotates
/// per packet, round-robin over the set's active slots (in packet trains,
/// with churn when the set has them). This is how a multi-tenant scenario
/// spreads one tenant's load across many queues: each flow is pinned to a
/// queue via the flow director (or hashed there by RSS), so consecutive
/// packets fan out over the tenant's cores. A one-flow set is exactly the
/// [`TrafficGen`] of that flow.
///
/// Packet ids stay monotonic across the merged stream.
///
/// # Examples
///
/// ```
/// use idio_engine::time::SimTime;
/// use idio_net::gen::{FlowSet, MultiFlowGen, TrafficPattern};
/// use idio_net::packet::Dscp;
///
/// let set = FlowSet::new(0, 3, 6000, 1514, Dscp::BEST_EFFORT);
/// let pattern = TrafficPattern::Steady { rate_gbps: 10.0 };
/// let mut g = MultiFlowGen::streaming(set, pattern, SimTime::from_us(50));
/// let a = g.next().unwrap();
/// let b = g.next().unwrap();
/// assert_ne!(a.packet.flow, b.packet.flow);
/// assert_eq!(b.packet.id, a.packet.id + 1);
/// ```
#[derive(Debug, Clone)]
pub struct MultiFlowGen {
    inner: TrafficGen,
    set: FlowSet,
    /// Rotation cursor: the active slot the next packet goes to.
    cursor: u32,
    /// Packets left before the cursor rotates (packet trains).
    train_left: u32,
}

impl MultiFlowGen {
    /// Creates a generator dealing `pattern` arrivals over a streaming
    /// [`FlowSet`] until `until` (exclusive).
    pub fn streaming(set: FlowSet, pattern: TrafficPattern, until: SimTime) -> Self {
        let timing = FlowSpec {
            tuple: set.tuple_of(0),
            dscp: set.dscp,
            packet_len: set.packet_len,
        };
        MultiFlowGen {
            inner: TrafficGen::new(timing, pattern, until),
            set,
            cursor: 0,
            train_left: set.train,
        }
    }
}

impl Iterator for MultiFlowGen {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let a = self.inner.next()?;
        let set = &self.set;
        let tuple = set.tuple_of(set.index_at(self.cursor, a.at));
        self.train_left -= 1;
        if self.train_left == 0 {
            self.cursor = (self.cursor + 1) % set.flows;
            self.train_left = set.train;
        }
        Some(Arrival {
            at: a.at,
            packet: Packet::new(a.packet.id, set.packet_len, tuple, set.dscp),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowSpec {
        FlowSpec::udp_to_port(5000, 1514)
    }

    #[test]
    fn steady_rate_interarrival() {
        let g = TrafficGen::new(
            flow(),
            TrafficPattern::Steady { rate_gbps: 100.0 },
            SimTime::from_us(10),
        );
        let a: Vec<_> = g.collect();
        // 1514 B at 100 Gbps = 121.12 ns per frame; 10 us / 121.12 ns = 82+.
        assert_eq!(a.len(), 83);
        let gap = a[1].at - a[0].at;
        assert_eq!(gap, wire_time(1514, 100.0));
    }

    #[test]
    fn burst_spec_matches_paper_lengths() {
        // Sec. VI: ring 1024, 1514 B packets — burst lengths 1.155 / 0.231 /
        // 0.115 ms (packets_per_burst ends 1 gap earlier; compare the full
        // span including the last frame's slot).
        for (rate, expect_ms) in [(10.0, 1.24), (25.0, 0.496), (100.0, 0.124)] {
            let s = BurstSpec::for_ring(1024, 1514, rate, Duration::from_ms(10));
            let span = (s.intra_gap * 1024).as_secs_f64() * 1e3;
            assert!(
                (span - expect_ms).abs() / expect_ms < 0.08,
                "rate {rate}: span {span} vs {expect_ms}"
            );
        }
    }

    #[test]
    fn bursty_generator_emits_exact_burst_sizes() {
        let spec = BurstSpec::for_ring(8, 1514, 100.0, Duration::from_us(100));
        let g = TrafficGen::new(flow(), TrafficPattern::Bursty(spec), SimTime::from_us(250));
        let a: Vec<_> = g.collect();
        // Bursts start at 0, 100 us, 200 us: 3 bursts x 8 packets.
        assert_eq!(a.len(), 24);
        // First burst confined to its burst length.
        assert!(a[7].at - a[0].at == spec.burst_length());
        // Gap between bursts is the period minus the intra-burst span.
        assert_eq!(a[8].at, SimTime::from_us(100));
        assert_eq!(a[16].at, SimTime::from_us(200));
    }

    #[test]
    fn ids_are_monotonic() {
        let spec = BurstSpec::for_ring(4, 1514, 25.0, Duration::from_us(50));
        let g = TrafficGen::new(flow(), TrafficPattern::Bursty(spec), SimTime::from_us(120));
        let ids: Vec<_> = g.map(|a| a.packet.id).collect();
        assert_eq!(ids, (0..ids.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_is_exclusive() {
        let g = TrafficGen::new(
            flow(),
            TrafficPattern::Steady { rate_gbps: 10.0 },
            SimTime::ZERO,
        );
        assert_eq!(g.count(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_burst_rejected() {
        let _ = BurstSpec::for_ring(1024, 1514, 10.0, Duration::from_us(100));
    }

    #[test]
    fn poisson_mean_rate_approximates_target() {
        let g = TrafficGen::new(
            flow(),
            TrafficPattern::Poisson {
                rate_gbps: 10.0,
                seed: 42,
            },
            SimTime::from_ms(10),
        );
        let n = g.count() as f64;
        // 10 Gbps of 1514 B frames over 10 ms = ~8256 packets expected.
        let expect = 10e9 / (1514.0 * 8.0) * 10e-3;
        assert!((n - expect).abs() / expect < 0.05, "{n} vs {expect}");
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let collect = |seed| {
            TrafficGen::new(
                flow(),
                TrafficPattern::Poisson {
                    rate_gbps: 25.0,
                    seed,
                },
                SimTime::from_us(200),
            )
            .map(|a| a.at)
            .collect::<Vec<_>>()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn poisson_arrivals_strictly_ordered() {
        let g = TrafficGen::new(
            flow(),
            TrafficPattern::Poisson {
                rate_gbps: 100.0,
                seed: 3,
            },
            SimTime::from_us(100),
        );
        let times: Vec<_> = g.map(|a| a.at).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn multi_flow_keeps_aggregate_timing_and_rotates_flows() {
        let until = SimTime::from_us(60);
        let pattern = TrafficPattern::Steady { rate_gbps: 25.0 };
        let single: Vec<_> = TrafficGen::new(flow(), pattern, until).collect();
        let set = FlowSet::new(0, 3, 6000, 1514, Dscp::CLASS1_DEFAULT);
        let multi: Vec<_> = MultiFlowGen::streaming(set, pattern, until).collect();
        assert_eq!(multi.len(), single.len(), "same aggregate offered load");
        for (i, (s, m)) in single.iter().zip(&multi).enumerate() {
            assert_eq!(m.at, s.at, "arrival {i} keeps the aggregate schedule");
            assert_eq!(m.packet.id, i as u64, "ids monotonic across flows");
            let dealt = FlowSpec::udp_to_port(6000 + (i % 3) as u16, 1514);
            assert_eq!(m.packet.flow, dealt.tuple, "round-robin dealing");
            assert_eq!(m.packet.dscp, Dscp::CLASS1_DEFAULT);
        }
    }

    #[test]
    fn one_flow_set_is_the_single_flow_generator() {
        // A one-flow tenant's stream must be exactly the single-flow
        // generator's.
        let until = SimTime::from_us(300);
        let spec = BurstSpec::for_ring(64, 1024, 40.0, Duration::from_us(100));
        for pattern in [
            TrafficPattern::Steady { rate_gbps: 10.0 },
            TrafficPattern::Poisson {
                rate_gbps: 10.0,
                seed: 5,
            },
            TrafficPattern::Bursty(spec),
        ] {
            let f = FlowSpec::udp_to_port(5003, 1024).with_dscp(Dscp::CLASS1_DEFAULT);
            let single: Vec<_> = TrafficGen::new(f, pattern, until).collect();
            let set = FlowSet::new(3, 1, 5003, 1024, Dscp::CLASS1_DEFAULT);
            let streamed: Vec<_> = MultiFlowGen::streaming(set, pattern, until).collect();
            assert!(!single.is_empty());
            assert_eq!(single, streamed, "{pattern:?}");
        }
    }

    #[test]
    fn dscp_marking_propagates() {
        let f = flow().with_dscp(Dscp::CLASS1_DEFAULT);
        let mut g = TrafficGen::new(
            f,
            TrafficPattern::Steady { rate_gbps: 10.0 },
            SimTime::from_us(10),
        );
        assert_eq!(g.next().unwrap().packet.dscp, Dscp::CLASS1_DEFAULT);
    }

    #[test]
    fn narrow_flow_set_matches_legacy_flow_specs() {
        let set = FlowSet::new(7, 64, 6000, 1514, Dscp::CLASS1_DEFAULT);
        assert!(!set.is_wide(), "64 flows at port 6000 fit the port range");
        for i in 0..64u32 {
            let legacy = FlowSpec::udp_to_port(6000 + i as u16, 1514);
            assert_eq!(set.tuple_of(i), legacy.tuple, "flow {i}");
        }
    }

    #[test]
    fn streaming_narrow_set_is_byte_identical_to_explicit_list() {
        let until = SimTime::from_us(50);
        let pattern = TrafficPattern::Poisson {
            rate_gbps: 25.0,
            seed: 9,
        };
        let flows: Vec<_> = (0..5)
            .map(|i| FlowSpec::udp_to_port(6000 + i, 1514).with_dscp(Dscp::CLASS1_DEFAULT))
            .collect();
        // The explicit list dealt round-robin over one aggregate schedule.
        let explicit: Vec<_> = TrafficGen::new(flows[0], pattern, until)
            .enumerate()
            .map(|(i, a)| {
                let f = flows[i % flows.len()];
                Arrival {
                    at: a.at,
                    packet: Packet::new(a.packet.id, f.packet_len, f.tuple, f.dscp),
                }
            })
            .collect();
        let set = FlowSet::new(0, 5, 6000, 1514, Dscp::CLASS1_DEFAULT);
        let streamed: Vec<_> = MultiFlowGen::streaming(set, pattern, until).collect();
        assert!(explicit.len() > 5);
        assert_eq!(explicit, streamed);
    }

    #[test]
    fn wide_flow_set_round_trips_every_index_shape() {
        let set = FlowSet::new(3, 1_000_000, 5000, 1514, Dscp::BEST_EFFORT);
        assert!(set.is_wide());
        for idx in [0u32, 1, 65_535, 65_536, 131_072, 999_999] {
            let t = set.tuple_of(idx);
            assert_eq!(set.slot_of(&t), Some(idx), "index {idx}");
        }
    }

    #[test]
    fn flow_sets_of_distinct_tenants_never_alias() {
        let a = FlowSet::new(0, 100_000, 5000, 1514, Dscp::BEST_EFFORT);
        let b = FlowSet::new(1, 100_000, 5000, 1514, Dscp::BEST_EFFORT);
        let narrow = FlowSet::new(2, 64, 5000, 1514, Dscp::BEST_EFFORT);
        for idx in [0u32, 63, 65_536, 99_999] {
            assert_eq!(b.slot_of(&a.tuple_of(idx)), None);
            assert_eq!(a.slot_of(&b.tuple_of(idx)), None);
        }
        assert_eq!(a.slot_of(&narrow.tuple_of(3)), None, "narrow vs wide");
        assert_eq!(narrow.slot_of(&a.tuple_of(3)), None, "wide vs narrow");
    }

    #[test]
    fn churn_turns_the_population_over_and_keeps_slots_invertible() {
        let life = Duration::from_us(10);
        let set = FlowSet::new(0, 8, 5000, 1514, Dscp::BEST_EFFORT).with_churn(life);
        assert!(set.is_wide(), "churn forces the wide derivation");
        let early = set.index_at(2, SimTime::from_us(1));
        let late = set.index_at(2, SimTime::from_us(21));
        assert_ne!(early, late, "slot 2 churned to a fresh flow");
        assert_eq!(early % 8, 2, "incarnations stay congruent to the slot");
        assert_eq!(late % 8, 2);
        assert_eq!(set.slot_of(&set.tuple_of(late)), Some(2));
        // Stagger: not every slot churns at the same instant.
        let at = SimTime::from_us(5);
        let gens: Vec<_> = (0..8).map(|j| set.index_at(j, at) / 8).collect();
        assert!(
            gens.iter().any(|&g| g != gens[0]),
            "staggered churn: generations {gens:?} should be mixed"
        );
    }

    #[test]
    fn next_turnover_is_the_next_change_of_the_index() {
        // Lifetimes shorter than the flow count (zero stagger), ragged
        // ones, and a 3 ps one whose generation counter wraps within the
        // walk.
        for (flows, life_ps) in [(8u32, 10_000u64), (5, 7), (3, 3), (1, 1)] {
            let set = FlowSet::new(0, flows, 5000, 1514, Dscp::BEST_EFFORT)
                .with_churn(Duration::from_ps(life_ps));
            for slot in 0..flows {
                let mut at = SimTime::ZERO;
                for _ in 0..600 {
                    let next = set.next_turnover(slot, at).unwrap();
                    assert!(next > at);
                    let idx = set.index_at(slot, at);
                    for ps in [
                        at.as_ps(),
                        (at.as_ps() + next.as_ps()) / 2,
                        next.as_ps() - 1,
                    ] {
                        assert_eq!(set.index_at(slot, SimTime::from_ps(ps)), idx);
                    }
                    assert_ne!(set.index_at(slot, next), idx, "slot {slot} at {next}");
                    at = next;
                }
            }
        }
        let still = FlowSet::new(0, 8, 5000, 1514, Dscp::BEST_EFFORT);
        assert_eq!(still.next_turnover(3, SimTime::ZERO), None);
    }

    #[test]
    fn packet_trains_deal_consecutive_packets_to_one_flow() {
        let set = FlowSet::new(0, 4, 6000, 1514, Dscp::BEST_EFFORT).with_train(3);
        let g = MultiFlowGen::streaming(
            set,
            TrafficPattern::Steady { rate_gbps: 25.0 },
            SimTime::from_us(20),
        );
        let arrivals: Vec<_> = g.collect();
        assert!(arrivals.len() > 12);
        for (i, a) in arrivals.iter().enumerate() {
            let slot = (i as u32 / 3) % 4;
            assert_eq!(a.packet.flow, set.tuple_of(slot), "packet {i}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 16777216 maximum")]
    fn oversized_flow_set_rejected() {
        let _ = FlowSet::new(0, MAX_FLOW_SET_FLOWS + 1, 5000, 1514, Dscp::BEST_EFFORT);
    }

    #[test]
    #[should_panic(expected = "tenant tag 240 exceeds")]
    fn oversized_tenant_tag_rejected() {
        let _ = FlowSet::new(240, 100_000, 5000, 1514, Dscp::BEST_EFFORT);
    }

    #[test]
    #[should_panic(expected = "tenant tag 240 exceeds")]
    fn churn_rejects_an_oversized_tenant_tag() {
        let _ =
            FlowSet::new(240, 64, 5000, 1514, Dscp::BEST_EFFORT).with_churn(Duration::from_us(10));
    }

    #[test]
    fn narrow_flow_sets_accept_any_tenant_tag() {
        // Narrow sets never encode the tag, so tenant 240 and beyond are
        // as valid as tenant 0.
        let set = FlowSet::new(240, 64, 5000, 1514, Dscp::BEST_EFFORT);
        assert!(!set.is_wide());
        for idx in [0u32, 1, 63] {
            assert_eq!(set.slot_of(&set.tuple_of(idx)), Some(idx), "index {idx}");
            assert_eq!(
                set.tuple_of(idx),
                FlowSpec::udp_to_port(5000 + idx as u16, 1514).tuple
            );
        }
        let _ = FlowSet::new(u16::MAX, 1, 5000, 1514, Dscp::BEST_EFFORT);
    }
}
