//! The bounded per-cache write-back (castout) queue.

use crate::LineAddr;

/// One pending write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WbEntry {
    /// The victimized line.
    pub line: LineAddr,
    /// `true` for a dirty castout (must reach the L3 or a peer), `false`
    /// for a clean write-back (a performance optimization only).
    pub dirty: bool,
}

/// A bounded FIFO of write-backs awaiting the intrachip ring.
///
/// The paper uses an eight-entry queue and notes that consulting the WBHT
/// happens *after* the victim enters this queue — off the miss critical
/// path — and that a full queue blocks further L2 misses (§2.1). The
/// queue is snoopable: a request for a line sitting here is serviced from
/// the queue (the line is still logically owned by this cache).
///
/// The queue also tracks which castouts are on the bus. A line can sit
/// in the queue twice (an entry on the bus cannot be recovered, so a
/// re-miss may re-install and re-evict the line), and the on-bus state
/// is a property of the line, kept as a mark on its oldest entry:
///
/// * a line is [on the bus](Self::on_bus) iff its oldest entry is marked;
/// * [`next_to_issue`](Self::next_to_issue) skips every entry whose line
///   is on the bus;
/// * [`in_flight`](Self::in_flight) counts the marked entries;
/// * [`remove`](Self::remove) always takes a line's oldest entry, so the
///   next entry of that line becomes the oldest, unmarked.
///
/// # Example
///
/// ```
/// use cmpsim_cache::{WriteBackQueue, WbEntry, LineAddr};
///
/// let mut q = WriteBackQueue::new(8);
/// assert!(q.push(WbEntry { line: LineAddr::new(3), dirty: true }));
/// assert_eq!(q.pop().map(|e| e.line), Some(LineAddr::new(3)));
/// ```
#[derive(Debug, Clone)]
pub struct WriteBackQueue {
    capacity: usize,
    /// One word per queued entry, oldest first: the raw line address
    /// with the [`DIRTY`] and [`ON_BUS`] flags in the top bits (line
    /// addresses are far narrower). The snoop and drain scans read only
    /// this dense array.
    slots: Vec<u64>,
    /// Number of marked (on-bus) entries.
    in_flight: usize,
    high_water: usize,
    full_rejections: u64,
    pushed: u64,
}

/// Slot flag: a dirty castout.
const DIRTY: u64 = 1 << 62;
/// Slot flag: the entry's castout transaction is on the bus.
const ON_BUS: u64 = 1 << 63;
/// The line-address bits of a slot.
const LINE: u64 = DIRTY - 1;

impl WriteBackQueue {
    /// Creates a queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write-back queue needs capacity > 0");
        WriteBackQueue {
            capacity,
            slots: Vec::with_capacity(capacity),
            in_flight: 0,
            high_water: 0,
            full_rejections: 0,
            pushed: 0,
        }
    }

    #[inline]
    fn entry(&self, k: usize) -> WbEntry {
        WbEntry {
            line: LineAddr::new(self.slots[k] & LINE),
            dirty: self.slots[k] & DIRTY != 0,
        }
    }

    /// Removes entry `k` (entries behind it move up one place).
    #[inline]
    fn take(&mut self, k: usize) -> WbEntry {
        let e = self.entry(k);
        self.in_flight -= usize::from(self.slots[k] & ON_BUS != 0);
        self.slots.remove(k);
        e
    }

    /// Enqueues a write-back (not on the bus). Returns `false` (recording
    /// a rejection) when the queue is full — the cache must block the
    /// triggering miss.
    ///
    /// # Panics
    ///
    /// Panics if the line address reaches bit 62, where the entry flags
    /// live (tag arrays already reject such addresses).
    pub fn push(&mut self, e: WbEntry) -> bool {
        if self.slots.len() >= self.capacity {
            self.full_rejections += 1;
            return false;
        }
        assert_eq!(
            e.line.raw() & !LINE,
            0,
            "line {} overlaps the write-back queue's flag bits",
            e.line
        );
        self.slots
            .push(e.line.raw() | if e.dirty { DIRTY } else { 0 });
        self.pushed += 1;
        self.high_water = self.high_water.max(self.slots.len());
        true
    }

    /// Dequeues the oldest write-back.
    pub fn pop(&mut self) -> Option<WbEntry> {
        (!self.slots.is_empty()).then(|| self.take(0))
    }

    /// Peeks at the oldest write-back without removing it.
    pub fn front(&self) -> Option<WbEntry> {
        self.nth(0)
    }

    #[inline]
    fn oldest(&self, line: LineAddr) -> Option<usize> {
        self.slots.iter().position(|&s| s & LINE == line.raw())
    }

    /// Snoop: is `line` sitting in the queue?
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.oldest(line).is_some()
    }

    /// Snoop: the oldest queued entry for `line`, if any.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<WbEntry> {
        self.oldest(line).map(|k| self.entry(k))
    }

    /// The `k`-th oldest entry (0 = front), if any.
    pub fn nth(&self, k: usize) -> Option<WbEntry> {
        (k < self.slots.len()).then(|| self.entry(k))
    }

    /// Removes the oldest entry for `line` (issued, squashed by a snoop
    /// response, claimed, recovered or aborted), returning it. If that
    /// entry was on the bus, the line no longer is.
    #[inline]
    pub fn remove(&mut self, line: LineAddr) -> Option<WbEntry> {
        let k = self.oldest(line)?;
        Some(self.take(k))
    }

    /// Recovery: removes and returns `line`'s oldest entry unless that
    /// entry is on the bus (a castout on the bus cannot be pulled back).
    #[inline]
    pub fn recover(&mut self, line: LineAddr) -> Option<WbEntry> {
        let k = self.oldest(line)?;
        (self.slots[k] & ON_BUS == 0).then(|| self.take(k))
    }

    /// `true` when `line`'s castout is on the bus (its oldest entry is
    /// marked). `false` when the line is not queued.
    #[inline]
    pub fn on_bus(&self, line: LineAddr) -> bool {
        self.oldest(line)
            .is_some_and(|k| self.slots[k] & ON_BUS != 0)
    }

    /// The oldest entry whose line is not on the bus: the next castout
    /// to issue. It is always its line's oldest entry.
    #[inline]
    pub fn next_to_issue(&self) -> Option<WbEntry> {
        // An unmarked entry's line is on the bus iff a marked entry (its
        // line's oldest) carries the same line.
        let marked = |line: u64| {
            self.slots
                .iter()
                .any(|&s| s & ON_BUS != 0 && s & LINE == line)
        };
        self.slots
            .iter()
            .position(|&s| s & ON_BUS == 0 && (self.in_flight == 0 || !marked(s & LINE)))
            .map(|k| self.entry(k))
    }

    /// Marks `line`'s oldest entry as on the bus. Returns `false` when the
    /// line is not queued.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is already on the bus.
    #[inline]
    pub fn mark_on_bus(&mut self, line: LineAddr) -> bool {
        let Some(k) = self.oldest(line) else {
            return false;
        };
        debug_assert!(self.slots[k] & ON_BUS == 0, "{line} is already on the bus");
        self.slots[k] |= ON_BUS;
        self.in_flight += 1;
        true
    }

    /// Number of castouts on the bus (marked entries).
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// `true` when at capacity (misses must block).
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Peak occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of pushes rejected because the queue was full.
    pub fn full_rejections(&self) -> u64 {
        self.full_rejections
    }

    /// Total successful pushes.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(line: u64, dirty: bool) -> WbEntry {
        WbEntry {
            line: LineAddr::new(line),
            dirty,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = WriteBackQueue::new(4);
        q.push(e(1, true));
        q.push(e(2, false));
        assert_eq!(q.pop(), Some(e(1, true)));
        assert_eq!(q.pop(), Some(e(2, false)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rejects_when_full() {
        let mut q = WriteBackQueue::new(2);
        assert!(q.push(e(1, true)));
        assert!(q.push(e(2, true)));
        assert!(q.is_full());
        assert!(!q.push(e(3, true)));
        assert_eq!(q.full_rejections(), 1);
        q.pop();
        assert!(q.push(e(3, true)));
    }

    #[test]
    fn snoop_and_remove() {
        let mut q = WriteBackQueue::new(4);
        q.push(e(1, true));
        q.push(e(2, false));
        q.push(e(3, true));
        assert!(q.contains(LineAddr::new(2)));
        assert_eq!(q.remove(LineAddr::new(2)), Some(e(2, false)));
        assert!(!q.contains(LineAddr::new(2)));
        assert_eq!(q.len(), 2);
        // FIFO order preserved after mid-removal.
        assert_eq!(q.pop(), Some(e(1, true)));
        assert_eq!(q.pop(), Some(e(3, true)));
    }

    #[test]
    fn high_water_and_counts() {
        let mut q = WriteBackQueue::new(8);
        for i in 0..5 {
            q.push(e(i, false));
        }
        q.pop();
        q.pop();
        assert_eq!(q.high_water(), 5);
        assert_eq!(q.pushed(), 5);
        assert_eq!(q.len(), 3);
        assert_eq!(q.front(), Some(e(2, false)));
    }

    #[test]
    fn duplicate_line_marks_only_its_oldest_entry() {
        let mut q = WriteBackQueue::new(4);
        q.push(e(1, true));
        q.push(e(2, false));
        assert_eq!(q.next_to_issue(), Some(e(1, true)));
        assert!(q.mark_on_bus(LineAddr::new(1)));
        assert!(q.on_bus(LineAddr::new(1)));
        // Line 1 re-evicted while its first castout is on the bus.
        q.push(e(1, false));
        assert!(q.on_bus(LineAddr::new(1)), "the oldest entry decides");
        assert_eq!(q.in_flight(), 1);
        // The drain skips both entries of line 1.
        assert_eq!(q.next_to_issue(), Some(e(2, false)));
        assert!(q.mark_on_bus(LineAddr::new(2)));
        assert_eq!(q.in_flight(), 2);
        assert_eq!(q.next_to_issue(), None, "newer line-1 entry must wait");
        // Resolution retires the oldest (marked) entry of line 1; the
        // newer one is now the oldest, unmarked and drainable.
        assert_eq!(q.remove(LineAddr::new(1)), Some(e(1, true)));
        assert!(!q.on_bus(LineAddr::new(1)));
        assert_eq!(q.in_flight(), 1);
        assert_eq!(q.next_to_issue(), Some(e(1, false)));
        // Removing an unmarked entry leaves the count alone; removing a
        // marked one (a claim) takes the line off the bus.
        assert_eq!(q.remove(LineAddr::new(1)), Some(e(1, false)));
        assert_eq!(q.in_flight(), 1);
        assert_eq!(q.pop(), Some(e(2, false)));
        assert_eq!(q.in_flight(), 0);
        assert!(!q.mark_on_bus(LineAddr::new(2)), "not queued");
    }

    #[test]
    fn recovery_skips_a_line_on_the_bus() {
        let mut q = WriteBackQueue::new(4);
        q.push(e(1, true));
        q.push(e(2, false));
        q.mark_on_bus(LineAddr::new(1));
        assert_eq!(q.recover(LineAddr::new(1)), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.recover(LineAddr::new(2)), Some(e(2, false)));
        assert_eq!(q.recover(LineAddr::new(3)), None);
        assert_eq!(q.in_flight(), 1);
    }

    #[test]
    #[should_panic(expected = "flag bits")]
    fn line_reaching_the_flag_bits_panics() {
        let _ = WriteBackQueue::new(2).push(e(1 << 62, false));
    }

    #[test]
    #[should_panic(expected = "capacity > 0")]
    fn zero_capacity_panics() {
        let _ = WriteBackQueue::new(0);
    }
}
