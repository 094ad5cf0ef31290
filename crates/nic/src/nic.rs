//! The NIC composite: queues, steering, classification, and DMA pacing.
//!
//! [`Nic`] glues the substrate pieces together the way the hardware does:
//! an inbound packet is steered to a queue by Flow Director (queues are
//! pinned to cores ADQ-style), classified by the IDIO classifier, given a
//! descriptor and DMA buffer from the queue's ring, and its line
//! transactions are paced onto the PCIe link. The host-side simulator
//! (`idio-core`) turns the returned [`RxDma`] plan into cache-hierarchy
//! events.

use idio_cache::addr::CoreId;
use idio_engine::stats::Counter;
use idio_engine::time::{Duration, SimTime};
use idio_net::packet::Packet;

use crate::classifier::{IdioClassifier, PacketClass};
use crate::dma::{DmaEngine, DmaSchedule, DESC_WRITEBACK_DELAY, LINE_TIME};
use crate::flow_director::{FlowDirector, QueueId, SteeringSource, DEFAULT_FILTER_TABLE_ENTRIES};
use crate::ring::{RxRing, RxSlot, DESC_BYTES};
#[cfg(test)]
use crate::tlp::AppClass;
use crate::tlp::{TlpHeader, TlpMeta};

/// Address layout of one receive queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingLayout {
    /// Base address of the queue's DMA buffer pool.
    pub buf_base: idio_cache::addr::Addr,
    /// Base address of the queue's descriptor array.
    pub desc_base: idio_cache::addr::Addr,
}

/// NIC configuration.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Descriptor-ring size per queue (DPDK default: 1024).
    pub ring_size: u32,
    /// Core each queue is pinned to (ADQ); also defines the queue count.
    pub queue_core: Vec<CoreId>,
    /// Flow Director ATR filter-table entries.
    pub filter_table_entries: usize,
    /// Flow Director perfect-match (EP) filter slots.
    pub perfect_filter_entries: usize,
    /// ATR entries older than this age out on first touch; `None`
    /// disables aging.
    pub atr_lifetime: Option<Duration>,
    /// Steering-policy domain of each queue, parallel to `queue_core`.
    /// Domains are opaque ids resolved by the host: the NIC only stamps
    /// them into each packet's DMA plan so the receive path can look up
    /// the queue's policy without a per-line table walk. Empty means
    /// every queue is in domain 0 (the system default policy).
    pub queue_policy_domain: Vec<u16>,
}

impl NicConfig {
    /// A NIC with one queue per core in `cores` and 1024-deep rings.
    pub fn per_core_queues(cores: &[CoreId]) -> Self {
        NicConfig {
            ring_size: 1024,
            queue_core: cores.to_vec(),
            filter_table_entries: DEFAULT_FILTER_TABLE_ENTRIES,
            perfect_filter_entries: DEFAULT_FILTER_TABLE_ENTRIES,
            atr_lifetime: None,
            queue_policy_domain: Vec::new(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message for an empty queue map, zero ring size, or a
    /// policy-domain map of the wrong length.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_core.is_empty() {
            return Err("NIC needs at least one queue".into());
        }
        if self.ring_size == 0 {
            return Err("ring size must be positive".into());
        }
        if !self.queue_policy_domain.is_empty()
            && self.queue_policy_domain.len() != self.queue_core.len()
        {
            return Err(format!(
                "queue_policy_domain has {} entries for {} queues",
                self.queue_policy_domain.len(),
                self.queue_core.len()
            ));
        }
        Ok(())
    }
}

/// The DMA plan for one received packet, to be enacted by the host-side
/// simulator.
#[derive(Debug, Clone)]
pub struct RxDma {
    /// The reserved descriptor/buffer slot.
    pub slot: RxSlot,
    /// Queue the packet landed on.
    pub queue: QueueId,
    /// Core the queue is pinned to.
    pub dest_core: CoreId,
    /// Classification outcome.
    pub class: PacketClass,
    /// Pacing of the payload line writes (one PCIe write per 64 B).
    pub payload: DmaSchedule,
    /// Pacing of the descriptor writeback lines (after the coalescing
    /// delay).
    pub descriptor: DmaSchedule,
    /// TLP metadata of the header line (line 0). Payload-line metadata
    /// is derived on demand via [`RxDma::line_meta`] — only the header
    /// carries the header/burst flags, so storing one meta per line was
    /// a per-packet allocation carrying no information.
    pub head_meta: TlpMeta,
    /// Steering-policy domain of the queue the packet landed on (from
    /// [`NicConfig::queue_policy_domain`]; 0 when unconfigured).
    pub policy_domain: u16,
    /// How the Flow Director resolved the queue, so the host can account
    /// the perfect/ATR/RSS steering mix and attribute mis-steers.
    pub steer: SteeringSource,
}

impl RxDma {
    /// Time the descriptor becomes visible to the polling driver.
    pub fn visible_at(&self) -> SimTime {
        self.descriptor.done()
    }

    /// TLP metadata of payload line `i` (line 0 is the header line).
    #[inline]
    pub fn line_meta(&self, i: u32) -> TlpMeta {
        if i == 0 {
            self.head_meta
        } else {
            TlpMeta {
                is_header: false,
                is_burst: false,
                ..self.head_meta
            }
        }
    }
}

/// NIC-level counters.
#[derive(Debug, Clone, Default)]
pub struct NicStats {
    /// Packets successfully queued.
    pub rx_packets: Counter,
    /// Bytes successfully queued.
    pub rx_bytes: Counter,
    /// Packets dropped because the destination ring was full.
    pub rx_drops: Counter,
    /// Packets transmitted (TX path).
    pub tx_packets: Counter,
    /// Descriptor writebacks performed.
    pub desc_writebacks: Counter,
}

/// Per-queue receive counters (the device-level breakdown of
/// [`NicStats::rx_packets`] / [`NicStats::rx_drops`], needed to attribute
/// load and loss to the tenant that owns each queue).
#[derive(Debug, Clone, Default)]
pub struct QueueStats {
    /// Packets successfully queued on this queue.
    pub rx_packets: Counter,
    /// Packets dropped because this queue's ring was full.
    pub rx_drops: Counter,
}

/// The NIC model.
///
/// # Examples
///
/// ```
/// use idio_cache::addr::{Addr, CoreId};
/// use idio_engine::time::SimTime;
/// use idio_net::packet::{Dscp, FiveTuple, Packet};
/// use idio_nic::nic::{Nic, NicConfig, RingLayout};
///
/// let cfg = NicConfig::per_core_queues(&[CoreId::new(0)]);
/// let layout = vec![RingLayout {
///     buf_base: Addr::new(0x10_0000),
///     desc_base: Addr::new(0x50_0000),
/// }];
/// let mut nic = Nic::new(cfg, layout);
/// let pkt = Packet::new(0, 1514, FiveTuple::default(), Dscp::BEST_EFFORT);
/// let dma = nic.rx_packet(SimTime::ZERO, pkt).expect("ring has space");
/// assert_eq!(dma.payload.lines, 24);
/// assert!(dma.line_meta(0).is_header);
/// assert!(dma.visible_at() > dma.payload.done());
/// ```
#[derive(Debug)]
pub struct Nic {
    cfg: NicConfig,
    rings: Vec<RxRing>,
    flow_director: FlowDirector,
    classifier: IdioClassifier,
    dma: DmaEngine,
    stats: NicStats,
    queue_stats: Vec<QueueStats>,
    num_cores: usize,
}

impl Nic {
    /// Creates a NIC with the given queue layouts (one per configured
    /// queue).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `layouts` does not match
    /// the queue count.
    pub fn new(cfg: NicConfig, layouts: Vec<RingLayout>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid NIC config: {e}");
        }
        assert_eq!(
            layouts.len(),
            cfg.queue_core.len(),
            "one ring layout per queue required"
        );
        let rings = layouts
            .iter()
            .map(|l| RxRing::new(cfg.ring_size, l.buf_base, l.desc_base))
            .collect();
        let num_cores = cfg
            .queue_core
            .iter()
            .map(|c| c.index() + 1)
            .max()
            .unwrap_or(1);
        let mut flow_director = FlowDirector::with_tables(
            cfg.queue_core.len() as u16,
            cfg.perfect_filter_entries,
            cfg.filter_table_entries,
        );
        flow_director.set_atr_lifetime(cfg.atr_lifetime);
        let classifier = IdioClassifier::new(num_cores);
        let dma = DmaEngine::default();
        let queue_stats = (0..cfg.queue_core.len())
            .map(|_| QueueStats::default())
            .collect();
        Nic {
            cfg,
            rings,
            flow_director,
            classifier,
            dma,
            stats: NicStats::default(),
            queue_stats,
            num_cores,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// NIC counters.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// Per-queue receive counters, indexed by queue.
    pub fn queue_stats(&self) -> &[QueueStats] {
        &self.queue_stats
    }

    /// The Flow Director (steering-mix counters and table occupancy).
    pub fn flow_director(&self) -> &FlowDirector {
        &self.flow_director
    }

    /// The Flow Director (to install EP filters or drive ATR learning).
    pub fn flow_director_mut(&mut self) -> &mut FlowDirector {
        &mut self.flow_director
    }

    /// The receive ring of `queue`.
    ///
    /// # Panics
    ///
    /// Panics if `queue` is out of range.
    pub fn ring(&self, queue: QueueId) -> &RxRing {
        &self.rings[queue.index()]
    }

    /// Mutable access to the receive ring of `queue` (the driver side:
    /// `pop_completed` / `free`).
    ///
    /// # Panics
    ///
    /// Panics if `queue` is out of range.
    pub fn ring_mut(&mut self, queue: QueueId) -> &mut RxRing {
        &mut self.rings[queue.index()]
    }

    /// Number of cores addressable by this NIC's queues.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Handles one inbound packet: steer, classify, reserve a descriptor,
    /// and pace its DMA. Returns `None` (and counts a drop) when the
    /// destination ring is full.
    pub fn rx_packet(&mut self, now: SimTime, packet: Packet) -> Option<RxDma> {
        let (queue, steer) = self.flow_director.lookup(now, &packet.flow);
        let dest_core = self.cfg.queue_core[queue.index()];
        let class = self.classifier.classify(now, &packet, dest_core);

        let slot = match self.rings[queue.index()].reserve(packet, now) {
            Ok(s) => s,
            // Ring-full and pool-starved drops both land here; the pool's
            // own `starved` counter attributes the cause.
            Err(_) => {
                self.stats.rx_drops.inc();
                self.queue_stats[queue.index()].rx_drops.inc();
                return None;
            }
        };
        self.stats.rx_packets.inc();
        self.stats.rx_bytes.add(u64::from(packet.len));
        self.queue_stats[queue.index()].rx_packets.inc();

        let lines = packet.lines();
        let payload = self.dma.schedule(now, lines);
        let head_meta = TlpMeta {
            dest_core,
            app_class: class.app_class,
            is_header: true,
            is_burst: class.burst_started,
        };

        // Descriptor writeback: coalesced, visible after the delay.
        let desc_lines = (DESC_BYTES / 64) as u32;
        let desc_start = payload.done() + DESC_WRITEBACK_DELAY;
        let descriptor = DmaSchedule {
            first: desc_start,
            gap: LINE_TIME,
            lines: desc_lines,
        };
        self.stats.desc_writebacks.inc();

        let policy_domain = self
            .cfg
            .queue_policy_domain
            .get(queue.index())
            .copied()
            .unwrap_or(0);

        Some(RxDma {
            slot,
            queue,
            dest_core,
            class,
            payload,
            descriptor,
            head_meta,
            policy_domain,
            steer,
        })
    }

    /// Schedules the PCIe reads for transmitting `lines` cache lines
    /// (zero-copy TX of a forwarded packet). Returns the read pacing.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn tx_packet(&mut self, now: SimTime, lines: u32) -> DmaSchedule {
        let sched = self.dma.schedule(now, lines);
        self.stats.tx_packets.inc();
        sched
    }

    /// Encodes a line's metadata into a TLP header (exercises the Fig. 7
    /// encoding; the simulator ships metadata in decoded form for speed,
    /// but the encoding is validated here and in tests).
    ///
    /// # Errors
    ///
    /// Returns an error if the destination core exceeds the 6-bit encoding.
    pub fn encode_tlp(meta: TlpMeta) -> Result<TlpHeader, crate::tlp::CoreRangeError> {
        TlpHeader::encode(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idio_cache::addr::Addr;
    use idio_net::packet::{Dscp, FiveTuple};

    fn nic(cores: usize, ring_size: u32) -> Nic {
        let core_ids: Vec<CoreId> = (0..cores as u16).map(CoreId::new).collect();
        let mut cfg = NicConfig::per_core_queues(&core_ids);
        cfg.ring_size = ring_size;
        let layouts = (0..cores as u64)
            .map(|i| RingLayout {
                buf_base: Addr::new(0x100_0000 + i * 0x40_0000),
                desc_base: Addr::new(0x800_0000 + i * 0x10_0000),
            })
            .collect();
        Nic::new(cfg, layouts)
    }

    fn pkt(id: u64, port: u16) -> Packet {
        Packet::new(
            id,
            1514,
            FiveTuple::udp(1, 2, 1000, port),
            Dscp::BEST_EFFORT,
        )
    }

    #[test]
    fn rx_reserves_and_paces() {
        let mut n = nic(1, 8);
        let dma = n.rx_packet(SimTime::ZERO, pkt(0, 1)).unwrap();
        assert_eq!(dma.payload.lines, 24);
        assert_eq!(dma.descriptor.lines, 2);
        // Descriptor lands after payload + 1.9 us coalescing delay.
        let gap = dma.descriptor.first - dma.payload.done();
        assert_eq!(gap, DESC_WRITEBACK_DELAY);
        assert_eq!(n.stats().rx_packets.get(), 1);
    }

    #[test]
    fn ring_full_drops_are_counted() {
        let mut n = nic(1, 2);
        assert!(n.rx_packet(SimTime::ZERO, pkt(0, 1)).is_some());
        assert!(n.rx_packet(SimTime::ZERO, pkt(1, 1)).is_some());
        assert!(n.rx_packet(SimTime::ZERO, pkt(2, 1)).is_none());
        assert_eq!(n.stats().rx_drops.get(), 1);
        assert_eq!(n.stats().rx_packets.get(), 2);
        assert_eq!(n.queue_stats()[0].rx_packets.get(), 2);
        assert_eq!(n.queue_stats()[0].rx_drops.get(), 1);
    }

    #[test]
    fn queue_stats_attribute_per_queue() {
        let mut n = nic(2, 8);
        let flow = FiveTuple::udp(1, 2, 1000, 7);
        n.flow_director_mut().install_perfect(flow, QueueId(1));
        let _ = n.rx_packet(SimTime::ZERO, Packet::new(0, 1514, flow, Dscp::BEST_EFFORT));
        assert_eq!(n.queue_stats()[1].rx_packets.get(), 1);
        assert_eq!(n.queue_stats()[0].rx_packets.get(), 0);
    }

    #[test]
    fn policy_domain_is_stamped_per_queue() {
        let core_ids = [CoreId::new(0), CoreId::new(1)];
        let mut cfg = NicConfig::per_core_queues(&core_ids);
        cfg.ring_size = 8;
        cfg.queue_policy_domain = vec![0, 3];
        let layouts = (0..2u64)
            .map(|i| RingLayout {
                buf_base: Addr::new(0x100_0000 + i * 0x40_0000),
                desc_base: Addr::new(0x800_0000 + i * 0x10_0000),
            })
            .collect();
        let mut n = Nic::new(cfg, layouts);
        let flow = FiveTuple::udp(1, 2, 1000, 7);
        n.flow_director_mut().install_perfect(flow, QueueId(1));
        let dma = n
            .rx_packet(SimTime::ZERO, Packet::new(0, 1514, flow, Dscp::BEST_EFFORT))
            .unwrap();
        assert_eq!(dma.policy_domain, 3);
        // Unconfigured (empty) map means everything is domain 0.
        let mut plain = nic(1, 8);
        assert_eq!(
            plain
                .rx_packet(SimTime::ZERO, pkt(0, 1))
                .unwrap()
                .policy_domain,
            0
        );
    }

    #[test]
    fn mismatched_policy_domain_length_rejected() {
        let mut cfg = NicConfig::per_core_queues(&[CoreId::new(0), CoreId::new(1)]);
        cfg.queue_policy_domain = vec![0];
        assert!(cfg.validate().unwrap_err().contains("queue_policy_domain"));
    }

    #[test]
    fn perfect_filters_steer_to_pinned_queue() {
        let mut n = nic(2, 8);
        let flow = FiveTuple::udp(1, 2, 1000, 7);
        n.flow_director_mut().install_perfect(flow, QueueId(1));
        let dma = n
            .rx_packet(SimTime::ZERO, Packet::new(0, 1514, flow, Dscp::BEST_EFFORT))
            .unwrap();
        assert_eq!(dma.queue, QueueId(1));
        assert_eq!(dma.dest_core, CoreId::new(1));
    }

    #[test]
    fn first_line_is_header_and_carries_burst() {
        let mut n = nic(1, 8);
        let dma = n.rx_packet(SimTime::ZERO, pkt(0, 1)).unwrap();
        assert!(dma.line_meta(0).is_header);
        assert!(dma.line_meta(0).is_burst, "MTU frame crosses rxBurstTHR");
        assert!((1..dma.payload.lines)
            .map(|i| dma.line_meta(i))
            .all(|m| !m.is_header && !m.is_burst));
    }

    #[test]
    fn class1_dscp_propagates_to_all_lines() {
        let mut n = nic(1, 8);
        let p = Packet::new(0, 1514, FiveTuple::udp(1, 2, 3, 4), Dscp::CLASS1_DEFAULT);
        let dma = n.rx_packet(SimTime::ZERO, p).unwrap();
        assert!((0..dma.payload.lines)
            .map(|i| dma.line_meta(i))
            .all(|m| m.app_class == AppClass::Class1));
        // Metadata survives the Fig. 7 TLP encoding for payload lines.
        let tlp = Nic::encode_tlp(dma.line_meta(1)).unwrap();
        assert_eq!(tlp.decode().app_class, AppClass::Class1);
    }

    #[test]
    fn rx_and_tx_share_the_link() {
        let mut n = nic(1, 8);
        let dma = n.rx_packet(SimTime::ZERO, pkt(0, 1)).unwrap();
        let tx = n.tx_packet(SimTime::ZERO, 24);
        assert_eq!(tx.first, dma.payload.done(), "TX queues behind RX DMA");
    }

    #[test]
    #[should_panic(expected = "one ring layout per queue")]
    fn layout_count_must_match() {
        let cfg = NicConfig::per_core_queues(&[CoreId::new(0), CoreId::new(1)]);
        let _ = Nic::new(
            cfg,
            vec![RingLayout {
                buf_base: Addr::new(0),
                desc_base: Addr::new(0x1000),
            }],
        );
    }
}
