//! Flow-director pressure accounting, active only when some tenant's
//! flows can outrun the NIC's steering state (wide or churning flow sets,
//! or more flows than the tenant's perfect-filter budget): the steering
//! mix of every arrival per *home* queue (where its flow's NF runs), the
//! driver's refresh of churned flows' perfect filters, and the `fd.*`
//! metrics and tick-log section.

use idio_engine::telemetry::{MetricsRegistry, Tracer};
use idio_engine::time::SimTime;
use idio_net::gen::FlowSet;
use idio_net::packet::FiveTuple;
use idio_nic::flow_director::{FdStats, FlowDirector, QueueId, SteeringSource};

use crate::report::{column_sums, write_counts};

/// Steering-mix keys shared by the `fd.q{q}.*` metrics and the tick log's
/// `fd` section, in [`FdAccounting`] mix order.
const MIX_KEYS: [&str; 5] = ["perfect", "atr", "collision", "rss", "mis"];

/// Flow-director bookkeeping for one streaming tenant: the flow set its
/// arrivals derive from, its queue group, and which flow slots the driver
/// holds perfect filters for.
pub(crate) struct FdTenant {
    pub(crate) set: FlowSet,
    pub(crate) queues: Vec<QueueId>,
    /// Pinned flow slots with the flow index last installed for each —
    /// the driver's view of its own filters. Under churn, a slot whose
    /// live index moved past the pinned one is refreshed at the next
    /// control tick (install the new incarnation, evicting if full).
    pub(crate) pinned: Vec<(u32, u32)>,
}

impl FdTenant {
    /// The home queue of flow slot `slot`.
    fn queue_of(&self, slot: u32) -> QueueId {
        self.queues[slot as usize % self.queues.len()]
    }
}

/// Flow-director accounting of one run.
pub(crate) struct FdAccounting {
    /// One entry per arrival source; `None` for replay tenants (their
    /// flows are not derivable, so every flow seen in the trace is
    /// pinned up front).
    tenants: Vec<Option<FdTenant>>,
    /// Per home queue: packet counts in [`MIX_KEYS`] order.
    mix: Vec<[u64; 5]>,
    /// Mix totals at the previous control tick (tick-log delta source).
    tick_last: [u64; 5],
}

impl FdAccounting {
    /// Accounting over `tenants` (one per arrival source) and `queues`
    /// home queues.
    pub(crate) fn new(tenants: Vec<Option<FdTenant>>, queues: usize) -> Self {
        FdAccounting {
            tenants,
            mix: vec![[0; 5]; queues],
            tick_last: [0; 5],
        }
    }

    /// The home queue of a packet of arrival source `gen` (one inverse
    /// lookup: streaming sets are invertible).
    pub(crate) fn home(&self, gen: usize, flow: &FiveTuple) -> Option<QueueId> {
        let t = self.tenants.get(gen)?.as_ref()?;
        Some(t.queue_of(t.set.slot_of(flow)?))
    }

    /// The home queue of any tenant's five-tuple.
    pub(crate) fn home_of(&self, flow: &FiveTuple) -> Option<QueueId> {
        self.tenants
            .iter()
            .flatten()
            .find_map(|t| Some(t.queue_of(t.set.slot_of(flow)?)))
    }

    /// Counts one accepted arrival for `home`, steered by `steer` onto
    /// `got`. Off its home queue it is a mis-steer: its lines land in (and
    /// its NF work charges) the wrong core's caches.
    pub(crate) fn tally(
        &mut self,
        now: SimTime,
        home: QueueId,
        steer: SteeringSource,
        got: QueueId,
        tracer: &mut Tracer,
    ) {
        let m = &mut self.mix[home.index()];
        m[match steer {
            SteeringSource::PerfectMatch => 0,
            SteeringSource::FilterTable => 1,
            SteeringSource::FilterTableCollision => 2,
            SteeringSource::Rss => 3,
        }] += 1;
        if got != home {
            m[4] += 1;
            tracer.record(now, "fd", "mis_steer", move || {
                format!("home=q{} got=q{} via={steer:?}", home.index(), got.index())
            });
        }
    }

    /// Control-tick driver refresh: for churning tenants, re-install the
    /// perfect filter of any pinned slot whose flow turned over since the
    /// filter was programmed (evicting the oldest co-resident entry when
    /// its filter set is full, exactly as a real driver's install would).
    /// The stale filter for the retired flow is left behind to age out or
    /// be evicted — matching drivers that do not garbage-collect rules.
    pub(crate) fn refresh(&mut self, now: SimTime, fdir: &mut FlowDirector) {
        for t in self.tenants.iter_mut().flatten() {
            if t.set.churn().is_none() {
                continue;
            }
            for i in 0..t.pinned.len() {
                let (slot, last) = t.pinned[i];
                let idx = t.set.index_at(slot, now);
                if idx != last {
                    fdir.install_perfect_evicting(t.set.tuple_of(idx), t.queue_of(slot));
                    t.pinned[i].1 = idx;
                }
            }
        }
    }

    /// Exports the flow director's counters and the per-queue mix.
    pub(crate) fn export(&self, m: &mut MetricsRegistry, s: &FdStats) {
        for (name, v) in [
            ("fd.perfect_hits", s.perfect_hits),
            ("fd.atr_hits", s.atr_hits),
            ("fd.atr_collisions", s.atr_collisions),
            ("fd.rss_fallbacks", s.rss_fallbacks),
            ("fd.perfect_installed", s.perfect_installed),
            ("fd.perfect_updated", s.perfect_updated),
            ("fd.perfect_evicted", s.perfect_evicted),
            ("fd.perfect_rejected", s.perfect_rejected),
            ("fd.atr_learned", s.atr_learned),
            ("fd.atr_aged", s.atr_aged),
        ] {
            m.counter_set(name, v);
        }
        for (q, mix) in self.mix.iter().enumerate() {
            for (key, &v) in MIX_KEYS.iter().zip(mix) {
                m.counter_set(&format!("fd.q{q}.{key}"), v);
            }
        }
        m.counter_set("fd.mis_steered", column_sums(&self.mix)[4]);
    }

    /// Appends the tick log's `fd` section: the mix since the previous
    /// tick.
    pub(crate) fn tick_section(&mut self, line: &mut String) {
        let total = column_sums(&self.mix);
        let delta: [u64; 5] = std::array::from_fn(|i| total[i] - self.tick_last[i]);
        self.tick_last = total;
        line.push_str(",\"fd\":");
        write_counts(line, &MIX_KEYS, &delta);
    }
}
