//! Flow-director pressure accounting, active only when some tenant's
//! flows can outrun the NIC's steering state (wide or churning flow sets,
//! or more flows than the tenant's perfect-filter budget): the steering
//! mix of every arrival per *home* queue (where its flow's NF runs), the
//! driver's refresh of churned flows' perfect filters, and the `fd.*`
//! metrics and tick-log section.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    set: FlowSet,
    queues: Vec<QueueId>,
    /// Pinned flow slots with the flow index last installed for each —
    /// the driver's view of its own filters. Under churn, a slot whose
    /// live index moved past the pinned one is refreshed at the next
    /// control tick (install the new incarnation, evicting if full).
    pinned: Vec<(u32, u32)>,
    /// Under churn, a min-heap of each pinned slot's next turnover time
    /// with its position in `pinned`; empty without churn. A tick looks
    /// only at the slots whose turnover has passed.
    turnovers: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Positions in `pinned` due at the current tick (kept to reuse its
    /// allocation).
    due: Vec<u32>,
}

impl FdTenant {
    /// Bookkeeping for a tenant whose driver holds perfect filters for the
    /// flow slots `pinned`, each installed with its first incarnation.
    pub(crate) fn new(set: FlowSet, queues: Vec<QueueId>, pinned: Vec<u32>) -> Self {
        let turnovers = pinned
            .iter()
            .enumerate()
            .filter_map(|(i, &slot)| {
                Some(Reverse((set.next_turnover(slot, SimTime::ZERO)?, i as u32)))
            })
            .collect();
        FdTenant {
            set,
            queues,
            pinned: pinned.into_iter().map(|slot| (slot, slot)).collect(),
            turnovers,
            due: Vec::new(),
        }
    }

    /// The home queue of flow slot `slot`.
    fn queue_of(&self, slot: u32) -> QueueId {
        self.queues[slot as usize % self.queues.len()]
    }

    /// Hands `install` the new flow and home queue of every pinned slot
    /// whose flow turned over since it was last looked at, in pinned
    /// order, as a scan of every pinned slot would, and re-arms each such
    /// slot's next turnover. A slot whose index came back to the
    /// installed one (the generation counter wrapped between ticks) is
    /// not re-installed, as the scan would not.
    fn refresh(&mut self, now: SimTime, mut install: impl FnMut(FiveTuple, QueueId)) {
        while let Some(&Reverse((at, i))) = self.turnovers.peek() {
            if at > now {
                break;
            }
            self.turnovers.pop();
            self.due.push(i);
        }
        self.due.sort_unstable();
        for &i in &self.due {
            let (slot, last) = self.pinned[i as usize];
            let idx = self.set.index_at(slot, now);
            if idx != last {
                install(self.set.tuple_of(idx), self.queue_of(slot));
                self.pinned[i as usize].1 = idx;
            }
            let next = self.set.next_turnover(slot, now).expect("a churning set");
            self.turnovers.push(Reverse((next, i)));
        }
        self.due.clear();
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
            t.refresh(now, |flow, queue| {
                fdir.install_perfect_evicting(flow, queue);
            });
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

#[cfg(test)]
mod tests {
    use super::*;
    use idio_engine::check::Cases;
    use idio_engine::time::Duration;
    use idio_net::packet::Dscp;

    /// The refresh the heap replaces: every pinned slot's index at `now`,
    /// in pinned order.
    fn scan(
        set: &FlowSet,
        queues: &[QueueId],
        pinned: &mut [(u32, u32)],
        now: SimTime,
    ) -> Vec<(FiveTuple, QueueId)> {
        let mut installs = Vec::new();
        for (slot, last) in pinned.iter_mut() {
            let idx = set.index_at(*slot, now);
            if idx != *last {
                installs.push((set.tuple_of(idx), queues[*slot as usize % queues.len()]));
                *last = idx;
            }
        }
        installs
    }

    #[test]
    fn heap_refresh_matches_the_full_scan() {
        Cases::new(200).run(|g| {
            let flows = g.u32(1..3000);
            // Lifetimes from a few picoseconds (the generation counter
            // wraps between ticks) to many control intervals.
            let life = match g.u64(0..3) {
                0 => Duration::from_ps(g.u64(1..2000)),
                1 => Duration::from_ns(g.u64(1..3000)),
                _ => Duration::from_us(g.u64(1..50)),
            };
            let set = FlowSet::new(1, flows, 5000, 64, Dscp::BEST_EFFORT).with_churn(life);
            let queues: Vec<QueueId> = (0..g.u16(1..5)).map(QueueId).collect();
            let pins = g.u32(1..flows.min(200) + 1);
            let slots: Vec<u32> = (0..pins)
                .map(|p| (u64::from(p) * u64::from(flows) / u64::from(pins)) as u32)
                .collect();
            let mut heap = FdTenant::new(set, queues.clone(), slots.clone());
            let mut pinned: Vec<(u32, u32)> = slots.iter().map(|&s| (s, s)).collect();
            let interval = Duration::from_ns(g.u64(1..3000));
            let mut now = SimTime::ZERO;
            for tick in 0..300 {
                let mut got = Vec::new();
                heap.refresh(now, |flow, q| got.push((flow, q)));
                let want = scan(&set, &queues, &mut pinned, now);
                assert_eq!(got, want, "tick {tick} at {now}, life {life}");
                assert_eq!(heap.pinned, pinned);
                now += interval;
            }
        });
    }
}
