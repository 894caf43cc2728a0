//! Property-based tests for cache structure invariants.

use cmpsim_cache::{
    CacheGeometry, HistoryTable, InsertPosition, LineAddr, MshrFile, ReplacementPolicy, TagArray,
    WbEntry, WriteBackQueue,
};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// A tag array never holds more valid lines than its capacity, never
    /// holds duplicates, and every probe hit returns the inserted state.
    #[test]
    fn tag_array_capacity_and_uniqueness(
        lines in proptest::collection::vec(0u64..256, 1..300),
        policy_idx in 0usize..3,
    ) {
        let policy = [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Random][policy_idx];
        let geom = CacheGeometry::new(4096, 4, 128).unwrap(); // 8 sets x 4 ways
        let mut t: TagArray<u16> = TagArray::new(geom, policy);
        for &l in &lines {
            let la = LineAddr::new(l);
            if let Some((_, s)) = t.probe(la) {
                prop_assert_eq!(s, (l * 3) as u16);
                t.touch(la);
            } else {
                t.insert(la, (l * 3) as u16, InsertPosition::Mru);
            }
            prop_assert!(t.valid_lines() <= geom.num_lines());
            let mut seen = HashSet::new();
            for (line, _) in t.iter_valid() {
                prop_assert!(seen.insert(line), "duplicate line {line}");
            }
        }
    }

    /// After inserting a line it is always probeable until evicted or
    /// invalidated; eviction only happens from the same set.
    #[test]
    fn tag_array_eviction_same_set(lines in proptest::collection::vec(0u64..512, 1..200)) {
        let geom = CacheGeometry::new(2048, 2, 128).unwrap(); // 8 sets x 2 ways
        let mut t: TagArray<()> = TagArray::new(geom, ReplacementPolicy::Lru);
        for &l in &lines {
            let la = LineAddr::new(l);
            if t.probe(la).is_some() {
                continue;
            }
            if let Some(ev) = t.insert(la, (), InsertPosition::Mru) {
                prop_assert_eq!(geom.set_of(ev.line), geom.set_of(la));
            }
            prop_assert!(t.probe(la).is_some());
        }
    }

    /// History table: recorded entries remain visible until they age out;
    /// capacity is never exceeded; hit+miss equals lookups.
    #[test]
    fn history_table_bounds(ops in proptest::collection::vec((0u64..128, any::<bool>()), 1..400)) {
        let mut h: HistoryTable<()> = HistoryTable::new(32, 4).unwrap();
        let mut lookups = 0u64;
        for &(l, write) in &ops {
            let la = LineAddr::new(l);
            if write {
                h.record(la, ());
                prop_assert!(h.peek(la).is_some(), "just-recorded entry missing");
            } else {
                let _ = h.lookup(la);
                lookups += 1;
            }
            prop_assert!(h.len() <= h.capacity());
        }
        prop_assert_eq!(h.stats().hits + h.stats().misses, lookups);
    }

    /// MSHR file: waiters are returned exactly once, in order,
    /// occupancy never exceeds capacity, and each register keeps its
    /// primary miss's issue time.
    #[test]
    fn mshr_waiters_conserved(ops in proptest::collection::vec((0u64..16, 0u32..8), 1..200)) {
        let mut m: MshrFile<(u64, u32)> = MshrFile::new(4);
        // (line, primary issue step), oldest first.
        let mut outstanding: Vec<(u64, u64)> = Vec::new();
        let mut issued = 0usize;
        let mut returned = 0usize;
        for (step, &(l, w)) in ops.iter().enumerate() {
            let la = LineAddr::new(l);
            match m.allocate(la, (l, w), step as u64) {
                Ok(true) => { outstanding.push((l, step as u64)); issued += 1; }
                Ok(false) => { issued += 1; }
                Err(_) => {
                    // Full: complete the oldest to make room.
                    let (done, t0) = outstanding.remove(0);
                    prop_assert_eq!(m.issued_at(LineAddr::new(done)), Some(t0));
                    let ws = m.complete(LineAddr::new(done)).unwrap();
                    for (wl, _) in &ws { prop_assert_eq!(*wl, done); }
                    returned += ws.len();
                }
            }
            prop_assert!(m.len() <= m.capacity());
        }
        for (l, t0) in outstanding {
            let mut ws = Vec::new();
            prop_assert_eq!(m.complete_into(LineAddr::new(l), &mut ws), Some(t0));
            returned += ws.len();
        }
        prop_assert!(m.is_empty());
        prop_assert_eq!(issued, returned);
    }

    /// Write-back queue preserves FIFO order among retained entries and
    /// never exceeds capacity.
    #[test]
    fn wb_queue_fifo(lines in proptest::collection::vec(0u64..64, 1..100), cap in 1usize..12) {
        let mut q = WriteBackQueue::new(cap);
        let mut model: Vec<u64> = Vec::new();
        for &l in &lines {
            if q.push(WbEntry { line: LineAddr::new(l), dirty: l % 2 == 0 }) {
                model.push(l);
            } else {
                prop_assert_eq!(q.len(), cap);
                let popped = q.pop().unwrap();
                prop_assert_eq!(popped.line.raw(), model.remove(0));
            }
        }
        while let Some(e) = q.pop() {
            prop_assert_eq!(e.line.raw(), model.remove(0));
        }
        prop_assert!(model.is_empty());
    }

    /// The write-back queue's on-bus marks against the line-level set
    /// they replaced: a FIFO of entries plus a set of lines on the bus,
    /// where the drain issues the first entry whose line is not in the
    /// set, and claim, recovery and resolution remove a line's oldest
    /// entry. Few distinct lines, so duplicates are common.
    #[test]
    fn wb_queue_marks_match_line_set_model(
        ops in proptest::collection::vec((0u8..5, 0u64..6), 1..300),
    ) {
        let mut q = WriteBackQueue::new(8);
        let mut fifo: Vec<u64> = Vec::new();
        let mut on_bus: HashSet<u64> = HashSet::new();
        let remove_oldest = |fifo: &mut Vec<u64>, l: u64| {
            fifo.iter().position(|&x| x == l).map(|k| fifo.remove(k))
        };
        for &(op, l) in &ops {
            let la = LineAddr::new(l);
            match op {
                // Eviction into the queue.
                0 => {
                    let ok = fifo.len() < 8;
                    if ok {
                        fifo.push(l);
                    }
                    prop_assert_eq!(q.push(WbEntry { line: la, dirty: false }), ok);
                }
                // Drain: issue the next castout.
                1 => {
                    let next = fifo.iter().copied().find(|x| !on_bus.contains(x));
                    prop_assert_eq!(q.next_to_issue().map(|e| e.line.raw()), next);
                    if let Some(x) = next {
                        on_bus.insert(x);
                        prop_assert!(q.mark_on_bus(LineAddr::new(x)));
                    }
                }
                // A bus event for `l` fires: it resolves only if the line
                // is still on the bus, else it is stale and moves on.
                2 => {
                    let live = on_bus.contains(&l) && fifo.contains(&l);
                    prop_assert_eq!(q.on_bus(la), live);
                    if live {
                        remove_oldest(&mut fifo, l);
                        on_bus.remove(&l);
                        prop_assert!(q.remove(la).is_some());
                    }
                }
                // A peer's RFO claims the entry.
                3 => {
                    let claimed = remove_oldest(&mut fifo, l).is_some();
                    if claimed {
                        on_bus.remove(&l);
                    }
                    prop_assert_eq!(q.remove(la).is_some(), claimed);
                }
                // The frontend recovers the line.
                _ => {
                    let ok = !on_bus.contains(&l) && remove_oldest(&mut fifo, l).is_some();
                    prop_assert_eq!(q.recover(la).is_some(), ok);
                }
            }
            prop_assert_eq!(q.in_flight(), on_bus.len());
            let queued: Vec<u64> = (0..q.len()).map(|k| q.nth(k).unwrap().line.raw()).collect();
            prop_assert_eq!(&queued, &fifo);
            for x in 0..6 {
                prop_assert_eq!(q.on_bus(LineAddr::new(x)), on_bus.contains(&x));
            }
        }
    }
}
