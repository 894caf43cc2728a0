//! Replay microbenchmarks for the layers the stage profiler cannot
//! separate: the tag arrays and history tables inside the pipeline
//! stages, the event queue, and the snoop collector.
//!
//! Each one times a layer's public calls on an op stream derived from the
//! workload's own `SyntheticWorkload` addresses and the paper geometry.
//! A simplified functional pass (probe, touch or insert, store
//! invalidates peers) turns the reference stream into per-L2 probes,
//! misses, castout victims and snoop responses; the timed passes then
//! replay those ops. Results are nanoseconds per call, each the median of
//! several passes.

use std::hint::black_box;
use std::time::Instant;

use cmpsim_cache::{
    HistoryTable, InsertPosition, LineAddr, ReplacementPolicy, SlicedGeometry, TagArray,
};
use cmpsim_coherence::{BusTxn, L2Id, L2State, SnoopCollector, SnoopResponse, TxnId, TxnKind};
use cmpsim_engine::profiler::{now_ticks, ticks_to_ns};
use cmpsim_engine::EventQueue;
use cmpsim_trace::ThreadId;

use crate::stats::median;
use crate::workload::Spec;

/// References replayed (round-robin over the 16 threads).
const REFS: usize = 1 << 20;
/// Timed passes per measurement; the median is reported.
const PASSES: usize = 5;
/// Event delay of a reference that hits in its L2 and of one that misses
/// to memory: the paper's L2 hit latency and memory-path latency
/// (Table 3), so queue depth and spread follow the workload's hit rate.
const HIT_CYCLES: u64 = 20;
const MISS_CYCLES: u64 = 431;

/// Nanoseconds per call of each replayed layer function.
#[derive(Debug, Clone, Copy)]
pub struct ReplayNs {
    /// `TagArray::probe` on warm L2 slices.
    pub probe: f64,
    /// `TagArray::insert` of a missing line (victim selection included).
    pub insert: f64,
    /// `HistoryTable::lookup` on castout victims (WBHT geometry).
    pub wbht_lookup: f64,
    /// `HistoryTable::record` of castout victims.
    pub wbht_record: f64,
    /// `EventQueue::push` + `pop`, per call.
    pub push_pop: f64,
    /// `SnoopCollector::combine`, per transaction.
    pub combine: f64,
}

/// One L2 of the replay: its slices under the paper geometry.
struct L2 {
    geometry: SlicedGeometry,
    slices: Vec<TagArray<L2State>>,
}

impl L2 {
    fn new(spec: &Spec) -> L2 {
        let cfg = spec.config(0);
        let geometry = SlicedGeometry::new(
            cfg.l2_slices,
            cfg.l2_slice_bytes,
            cfg.l2_assoc,
            cfg.line_bytes,
        )
        .expect("paper L2 geometry is valid");
        let slices = (0..cfg.l2_slices)
            .map(|_| TagArray::new(geometry.per_slice(), ReplacementPolicy::Lru))
            .collect();
        L2 { geometry, slices }
    }

    fn slot(&self, line: LineAddr) -> (usize, LineAddr) {
        (
            self.geometry.slice_of(line) as usize,
            self.geometry.slice_local(line),
        )
    }

    fn state(&self, line: LineAddr) -> Option<L2State> {
        let (s, local) = self.slot(line);
        self.slices[s].probe(local).map(|(_, st)| st)
    }

    fn global(&self, slice: usize, local: LineAddr) -> LineAddr {
        // Inverse of `slice_local`: the slice index sits in the low bits.
        let slices = self.geometry.slices();
        LineAddr::new(local.raw() * slices + slice as u64)
    }
}

/// The op streams the functional pass derives from the references.
struct Ops {
    /// Every reference: (L2, slice, slice-local line).
    probes: Vec<(u8, u8, LineAddr)>,
    /// Every reference: whether it hit in its L2.
    hit: Vec<bool>,
    /// Misses: (L2, line, store).
    misses: Vec<(u8, LineAddr, bool)>,
    /// Castout victims: (L2, line, dirty).
    victims: Vec<(u8, LineAddr, bool)>,
    /// Snoop responses for each miss and victim, in that order.
    snoops: Vec<(BusTxn, Vec<SnoopResponse>)>,
    /// Ticks spent inside `insert`, timer reads included.
    insert_ticks: u64,
}

/// Runs the functional pass on fresh L2s.
fn functional_pass(spec: &Spec, seed: u64) -> Ops {
    let cfg = spec.config(seed);
    let mut gen = spec.generator(seed);
    let threads = cfg.num_threads() as usize;
    let mut l2s: Vec<L2> = (0..cfg.num_l2).map(|_| L2::new(spec)).collect();
    let mut ops = Ops {
        probes: Vec::with_capacity(REFS),
        hit: Vec::with_capacity(REFS),
        misses: Vec::new(),
        victims: Vec::new(),
        snoops: Vec::new(),
        insert_ticks: 0,
    };
    for i in 0..REFS {
        let t = ThreadId::new((i % threads) as u16);
        let rec = gen.next_record(t);
        let me = cfg.l2_of_thread(t).index();
        let line = rec.addr.line(cfg.line_bytes);
        let store = rec.op.is_store();
        let (slice, local) = l2s[me].slot(line);
        ops.probes.push((me as u8, slice as u8, local));
        let hit = l2s[me].slices[slice].probe(local).is_some();
        ops.hit.push(hit);
        if hit {
            l2s[me].slices[slice].touch(local);
        } else {
            ops.misses.push((me as u8, line, store));
            let t0 = now_ticks();
            let evicted = l2s[me].slices[slice].insert(local, L2State::Shared, InsertPosition::Mru);
            ops.insert_ticks += now_ticks() - t0;
            if let Some(v) = evicted {
                let victim = l2s[me].global(slice, v.line);
                ops.victims.push((me as u8, victim, v.state.is_dirty()));
            }
        }
        if store {
            // Write-invalidate: the store leaves the only (dirty) copy.
            l2s[me].slices[slice].set_state(local, L2State::Modified);
            for (j, peer) in l2s.iter_mut().enumerate() {
                if j != me {
                    let (s, l) = peer.slot(line);
                    peer.slices[s].invalidate(l);
                }
            }
        }
    }
    // Snoop responses against the final cache contents.
    let mut id = TxnId::ZERO;
    let peers = |line: LineAddr, src: usize, castout: bool| -> Vec<SnoopResponse> {
        let mut r: Vec<SnoopResponse> = l2s
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != src)
            .map(|(j, l2)| {
                let who = L2Id::new(j as u8);
                match l2.state(line) {
                    None => SnoopResponse::Null,
                    Some(_) if castout => SnoopResponse::PeerHasCopy(who),
                    Some(st) if st.is_dirty() => SnoopResponse::DirtyIntervene(who),
                    Some(_) => SnoopResponse::SharedNoIntervene(who),
                }
            })
            .collect();
        r.push(if castout {
            SnoopResponse::L3Accept
        } else {
            SnoopResponse::L3Miss
        });
        r.push(SnoopResponse::MemoryAck);
        r
    };
    for &(src, line, store) in &ops.misses {
        let kind = if store {
            TxnKind::ReadExclusive
        } else {
            TxnKind::ReadShared
        };
        let txn = BusTxn::new(id.bump(), kind, line, L2Id::new(src));
        ops.snoops.push((txn, peers(line, src as usize, false)));
    }
    for &(src, line, dirty) in &ops.victims {
        let kind = if dirty {
            TxnKind::CastoutDirty
        } else {
            TxnKind::CastoutClean
        };
        let txn = BusTxn::new(id.bump(), kind, line, L2Id::new(src));
        ops.snoops.push((txn, peers(line, src as usize, true)));
    }
    ops
}

/// Nanoseconds per op of `f`, median over [`PASSES`] runs of `ops` calls.
fn time_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Runs every replay microbenchmark for `spec` at `seed`. `timer_ns` is
/// the cost of one clock read, subtracted from per-call timings.
pub fn run(spec: &Spec, seed: u64, timer_ns: f64) -> ReplayNs {
    let passes: Vec<Ops> = (0..PASSES).map(|_| functional_pass(spec, seed)).collect();
    let insert = median(
        &passes
            .iter()
            .map(|o| ticks_to_ns(o.insert_ticks) as f64 / o.misses.len().max(1) as f64 - timer_ns)
            .collect::<Vec<_>>(),
    );
    let ops = passes.into_iter().next().expect("at least one pass");

    // Warm L2s for the probe pass: the functional pass's final contents.
    let mut l2s: Vec<L2> = (0..spec.config(seed).num_l2)
        .map(|_| L2::new(spec))
        .collect();
    for &(me, slice, local) in &ops.probes {
        let arr = &mut l2s[me as usize].slices[slice as usize];
        if arr.probe(local).is_none() {
            arr.insert(local, L2State::Shared, InsertPosition::Mru);
        }
    }
    let probe = time_per_op(ops.probes.len(), || {
        for &(me, slice, local) in &ops.probes {
            black_box(l2s[me as usize].slices[slice as usize].probe(black_box(local)));
        }
    });

    let entries = spec
        .config(seed)
        .policy
        .wbht
        .map_or(32 * 1024, |w| w.entries);
    let mut wbht: HistoryTable<()> =
        HistoryTable::new(entries, 16).expect("paper WBHT geometry is valid");
    for &(_, line, _) in &ops.victims {
        if wbht.lookup(line).is_none() {
            wbht.record(line, ());
        }
    }
    let wbht_lookup = time_per_op(ops.victims.len(), || {
        for &(_, line, _) in &ops.victims {
            black_box(wbht.lookup(black_box(line)));
        }
    });
    let wbht_record = time_per_op(ops.victims.len(), || {
        for &(_, line, _) in &ops.victims {
            wbht.record(black_box(line), ());
        }
    });

    let threads = spec.config(seed).num_threads() as u64;
    let in_flight = threads * u64::from(spec.outstanding);
    let push_pop = time_per_op(2 * ops.hit.len(), || {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(1 << 16);
        for i in 0..in_flight {
            q.push(i % threads, i as u32);
        }
        for &hit in &ops.hit {
            let (now, ev) = q.pop().expect("queue holds in-flight events");
            let delay = if hit { HIT_CYCLES } else { MISS_CYCLES };
            q.push(now + delay, black_box(ev));
        }
        black_box(q.len());
    });

    let combine = time_per_op(ops.snoops.len(), || {
        let mut c = SnoopCollector::new();
        for (txn, responses) in &ops.snoops {
            black_box(c.combine(txn, black_box(responses)));
        }
    });

    ReplayNs {
        probe,
        insert,
        wbht_lookup,
        wbht_record,
        push_pop,
        combine,
    }
}
