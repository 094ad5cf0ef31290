//! Explicit mbuf pools: the queues that configured one, their `pool.*`
//! metrics and tick-log section, and the latency-aware idle flush.

use std::fmt::Write as _;

use idio_cache::addr::Addr;
use idio_engine::telemetry::MetricsRegistry;
use idio_engine::time::{Duration, SimTime};
use idio_nic::flow_director::QueueId;
use idio_nic::nic::Nic;
use idio_pool::PoolMode;

use crate::config::SystemConfig;
use crate::layout::QueueRegions;
use crate::report::write_counts;

/// Pool counters of the tick log's `pool` section; the `pool.q{q}.*`
/// metrics export them from `recycled` on.
const KEYS: [&str; 4] = ["live", "recycled", "starved", "spilled"];

/// The queues that configured an explicit pool (implicit status-quo
/// rings export nothing), in queue order.
pub(crate) struct Pools {
    queues: Vec<QueueId>,
    /// Present only with [`SystemConfig::pool_idle_flush`].
    idle: Option<IdleFlush>,
}

/// Latency-aware recycler flush: a recycle pool with no live buffer and
/// no RX or buffer-release activity for `window` self-invalidates its
/// DMA buffers, releasing its LLC footprint to other tenants until
/// traffic resumes.
struct IdleFlush {
    window: Duration,
    /// Lines of one queue's whole buffer region.
    region_lines: u32,
    /// The recycle pools' queues, with each one's NF core and buffer base.
    watched: Vec<(QueueId, usize, Addr)>,
    /// Per queue: last RX accept or buffer release.
    last_active: Vec<SimTime>,
    /// Per queue: flushed since its last activity.
    flushed: Vec<bool>,
    /// Per queue: `pool.q{q}.idle_flushed`.
    count: Vec<u64>,
}

impl Pools {
    /// The pools `cfg` configured, as installed in `nic` over the queues'
    /// `regions`; `None` when no tenant has one.
    pub(crate) fn new(cfg: &SystemConfig, nic: &Nic, regions: &[QueueRegions]) -> Option<Self> {
        let queues: Vec<QueueId> = (cfg.queues().enumerate())
            .filter(|(_, (_, t))| t.pool.is_some())
            .map(|(q, _)| QueueId(q as u16))
            .collect();
        let first = nic.ring(*queues.first()?).pool();
        let n = regions.len();
        let idle = cfg.pool_idle_flush.map(|window| IdleFlush {
            window,
            region_lines: cfg.ring_size * first.lines_per_buf(),
            watched: (queues.iter().filter(|&&q| nic.ring(q).pool().is_recycle()))
                .map(|&q| {
                    let i = q.index();
                    (q, nic.config().queue_core[i].index(), regions[i].buf_base)
                })
                .collect(),
            last_active: vec![SimTime::ZERO; n],
            flushed: vec![false; n],
            count: vec![0; n],
        });
        Some(Pools { queues, idle })
    }

    /// Marks `queue`'s pool active (an RX accept or a buffer release),
    /// restarting its idle-flush window.
    pub(crate) fn mark_active(&mut self, now: SimTime, queue: QueueId) {
        if let Some(idle) = &mut self.idle {
            idle.last_active[queue.index()] = now;
            idle.flushed[queue.index()] = false;
        }
    }

    /// The next idle flush due at `now`, as the `(core, buffer base,
    /// lines)` to self-invalidate; that pool counts as flushed from here
    /// on. A pool holding a live buffer is never flushed: its DMA'd lines
    /// are still to be read.
    pub(crate) fn next_idle_flush(
        &mut self,
        now: SimTime,
        nic: &Nic,
    ) -> Option<(usize, Addr, u32)> {
        let idle = self.idle.as_mut()?;
        for &(queue, core, base) in &idle.watched {
            let q = queue.index();
            if !idle.flushed[q]
                && now.saturating_since(idle.last_active[q]) > idle.window
                && nic.ring(queue).pool().live_bufs() == 0
            {
                idle.flushed[q] = true;
                idle.count[q] += 1;
                return Some((core, base, idle.region_lines));
            }
        }
        None
    }

    /// Exports each pool's counters, its `slots` if it recycles, and its
    /// `idle_flushed` count with the idle flush on.
    pub(crate) fn export(&self, metrics: &mut MetricsRegistry, nic: &Nic) {
        for &queue in &self.queues {
            let (q, p) = (queue.index(), nic.ring(queue).pool());
            if let PoolMode::Recycle { slots } = p.mode() {
                metrics.counter_set(&format!("pool.q{q}.slots"), u64::from(slots));
            }
            let s = p.stats();
            for (key, v) in KEYS[1..].iter().zip([s.recycled, s.starved, s.spilled]) {
                metrics.counter_set(&format!("pool.q{q}.{key}"), v);
            }
            if let Some(idle) = &self.idle {
                metrics.counter_set(&format!("pool.q{q}.idle_flushed"), idle.count[q]);
            }
        }
    }

    /// Appends the tick log's `pool` section: each pool's live buffers
    /// and cumulative counters.
    pub(crate) fn tick_section(&self, line: &mut String, nic: &Nic) {
        line.push_str(",\"pool\":{");
        for (i, &queue) in self.queues.iter().enumerate() {
            let (p, sep) = (nic.ring(queue).pool(), if i > 0 { "," } else { "" });
            let s = p.stats();
            let _ = write!(line, "{sep}\"q{}\":", queue.index());
            let live = u64::from(p.live_bufs());
            write_counts(line, &KEYS, &[live, s.recycled, s.starved, s.spilled]);
        }
        line.push('}');
    }
}
