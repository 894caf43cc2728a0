//! Miss-status holding registers (MSHRs).

use std::error::Error;
use std::fmt;

use cmpsim_engine::Cycle;

use crate::LineAddr;

/// Identifier of an allocated MSHR entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MshrId(usize);

impl MshrId {
    /// Raw index (for logging).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors from MSHR allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrError {
    /// All MSHRs are in use; the miss must stall.
    Full,
}

impl fmt::Display for MshrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MshrError::Full => f.write_str("all MSHRs in use"),
        }
    }
}

impl Error for MshrError {}

/// Key of a free register in [`MshrFile::keys`]. Line addresses are
/// far below it (an address divided by the line size).
const FREE: u64 = u64::MAX;

/// One register's payload. Freed slots keep their `waiters` vector so
/// its buffer is recycled by the next allocation (no per-miss
/// allocation once the file has warmed up).
#[derive(Debug, Clone)]
struct Slot<W> {
    /// Cycle the primary miss was issued (set by the primary
    /// allocation, untouched by merges).
    issued: Cycle,
    waiters: Vec<W>,
}

/// A file of miss-status holding registers with secondary-miss merging.
///
/// A *primary* miss allocates an entry and triggers a bus request; a
/// *secondary* miss to the same line merges into the existing entry and
/// waits for the same fill. `W` is the waiter token type (thread ids in
/// this simulator). Each register also holds the cycle its primary miss
/// was issued, which completion reads back for the miss latency.
///
/// The file is a fixed slab of `capacity` slots. A hardware MSHR file is
/// a handful of CAM entries; here the CAM is a dense array of raw line
/// keys (one `u64` per register, [`FREE`] when unused), searched
/// linearly — at that size a key scan beats any hash map.
///
/// # Example
///
/// ```
/// use cmpsim_cache::{MshrFile, LineAddr};
///
/// let mut mshrs: MshrFile<u32> = MshrFile::new(4);
/// let line = LineAddr::new(7);
/// assert!(mshrs.allocate(line, 0, 100).unwrap()); // primary, issued at 100
/// assert!(!mshrs.allocate(line, 1, 130).unwrap()); // secondary, merged
/// assert_eq!(mshrs.issued_at(line), Some(100));
/// let waiters = mshrs.complete(line).unwrap();
/// assert_eq!(waiters, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile<W> {
    /// Raw line address per register, [`FREE`] when unused.
    keys: Vec<u64>,
    slots: Vec<Slot<W>>,
    len: usize,
    /// Highest simultaneous occupancy seen (for sizing studies).
    high_water: usize,
    primary: u64,
    secondary: u64,
    stalls: u64,
}

impl<W> MshrFile<W> {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file must have at least one register");
        MshrFile {
            keys: vec![FREE; capacity],
            slots: (0..capacity)
                .map(|_| Slot {
                    issued: 0,
                    waiters: Vec::new(),
                })
                .collect(),
            len: 0,
            high_water: 0,
            primary: 0,
            secondary: 0,
            stalls: 0,
        }
    }

    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        self.keys.iter().position(|&k| k == line.raw())
    }

    /// Registers a miss on `line` by `waiter` at cycle `now`.
    ///
    /// Returns `Ok(true)` for a primary miss (caller must issue the bus
    /// request; `now` becomes the register's issue time), `Ok(false)`
    /// for a merged secondary miss (the issue time stays the primary's).
    ///
    /// # Errors
    ///
    /// [`MshrError::Full`] when the miss would need a new register and
    /// none is free: the cache must stall the request.
    pub fn allocate(&mut self, line: LineAddr, waiter: W, now: Cycle) -> Result<bool, MshrError> {
        debug_assert_ne!(line.raw(), FREE, "line address collides with the free key");
        // One pass finds the line's register or else the first free one.
        let mut free = None;
        for (i, &k) in self.keys.iter().enumerate() {
            if k == line.raw() {
                self.slots[i].waiters.push(waiter);
                self.secondary += 1;
                return Ok(false);
            }
            if k == FREE && free.is_none() {
                free = Some(i);
            }
        }
        let Some(i) = free else {
            self.stalls += 1;
            return Err(MshrError::Full);
        };
        self.keys[i] = line.raw();
        let slot = &mut self.slots[i];
        slot.issued = now;
        slot.waiters.clear();
        slot.waiters.push(waiter);
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        self.primary += 1;
        Ok(true)
    }

    /// The cycle the outstanding miss on `line` was issued, if any.
    #[inline]
    pub fn issued_at(&self, line: LineAddr) -> Option<Cycle> {
        self.find(line).map(|i| self.slots[i].issued)
    }

    /// Completes the miss on `line`, appending all merged waiters to
    /// `out` (which is *not* cleared first). Returns the primary miss's
    /// issue cycle when an MSHR was outstanding for the line, `None`
    /// (leaving `out` untouched) otherwise.
    ///
    /// This is the allocation-free form of [`complete`](Self::complete):
    /// the register's waiter buffer stays in the slab for reuse and the
    /// caller recycles its own scratch vector.
    pub fn complete_into(&mut self, line: LineAddr, out: &mut Vec<W>) -> Option<Cycle> {
        let i = self.find(line)?;
        self.keys[i] = FREE;
        let slot = &mut self.slots[i];
        out.append(&mut slot.waiters);
        self.len -= 1;
        Some(slot.issued)
    }

    /// Completes the miss on `line`, returning all merged waiters.
    ///
    /// Returns `None` when no MSHR is outstanding for the line.
    pub fn complete(&mut self, line: LineAddr) -> Option<Vec<W>> {
        let mut out = Vec::new();
        self.complete_into(line, &mut out).map(|_| out)
    }

    /// `true` when a miss on `line` is already outstanding.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Number of registers currently in use.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no registers are in use.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Register capacity.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Highest simultaneous occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// (primary, secondary, stall) counts.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.primary, self.secondary, self.stalls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_secondary() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        assert_eq!(m.allocate(LineAddr::new(1), 10, 0), Ok(true));
        assert_eq!(m.allocate(LineAddr::new(1), 11, 0), Ok(false));
        assert_eq!(m.len(), 1);
        assert_eq!(m.complete(LineAddr::new(1)), Some(vec![10, 11]));
        assert!(m.is_empty());
        assert_eq!(m.counts(), (1, 1, 0));
    }

    #[test]
    fn full_file_stalls() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        m.allocate(LineAddr::new(1), 0, 0).unwrap();
        m.allocate(LineAddr::new(2), 0, 0).unwrap();
        assert_eq!(m.allocate(LineAddr::new(3), 0, 0), Err(MshrError::Full));
        // Secondary to an existing line still merges even when full.
        assert_eq!(m.allocate(LineAddr::new(2), 1, 0), Ok(false));
        assert_eq!(m.counts().2, 1);
    }

    #[test]
    fn complete_unknown_is_none() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        assert_eq!(m.complete(LineAddr::new(9)), None);
        let mut scratch = Vec::new();
        assert_eq!(m.complete_into(LineAddr::new(9), &mut scratch), None);
        assert!(scratch.is_empty());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut m: MshrFile<u32> = MshrFile::new(4);
        m.allocate(LineAddr::new(1), 0, 0).unwrap();
        m.allocate(LineAddr::new(2), 0, 0).unwrap();
        m.allocate(LineAddr::new(3), 0, 0).unwrap();
        m.complete(LineAddr::new(1));
        m.complete(LineAddr::new(2));
        assert_eq!(m.high_water(), 3);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn contains_reflects_outstanding() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        assert!(!m.contains(LineAddr::new(5)));
        m.allocate(LineAddr::new(5), 0, 0).unwrap();
        assert!(m.contains(LineAddr::new(5)));
        m.complete(LineAddr::new(5));
        assert!(!m.contains(LineAddr::new(5)));
    }

    #[test]
    fn slots_recycle_after_complete() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        let mut scratch = Vec::new();
        for round in 0..100 {
            m.allocate(LineAddr::new(round), 0, 0).unwrap();
            m.allocate(LineAddr::new(round), 1, 0).unwrap();
            assert_eq!(m.complete_into(LineAddr::new(round), &mut scratch), Some(0));
            assert_eq!(scratch, vec![0, 1]);
            scratch.clear();
            assert!(m.is_empty());
        }
        assert_eq!(m.counts(), (100, 100, 0));
        assert_eq!(m.high_water(), 1);
    }

    #[test]
    fn complete_into_appends() {
        let mut m: MshrFile<u32> = MshrFile::new(4);
        m.allocate(LineAddr::new(1), 7, 0).unwrap();
        let mut out = vec![99];
        assert!(m.complete_into(LineAddr::new(1), &mut out).is_some());
        assert_eq!(out, vec![99, 7]);
    }

    #[test]
    fn issue_time_round_trips() {
        let mut m: MshrFile<u32> = MshrFile::new(3);
        assert_eq!(m.issued_at(LineAddr::new(4)), None);
        assert_eq!(m.allocate(LineAddr::new(4), 0, 100), Ok(true));
        assert_eq!(m.allocate(LineAddr::new(5), 1, 120), Ok(true));
        // A merge keeps the primary's issue time.
        assert_eq!(m.allocate(LineAddr::new(4), 2, 150), Ok(false));
        assert_eq!(m.issued_at(LineAddr::new(4)), Some(100));
        assert_eq!(m.issued_at(LineAddr::new(5)), Some(120));
        let mut out = Vec::new();
        assert_eq!(m.complete_into(LineAddr::new(4), &mut out), Some(100));
        assert_eq!(out, vec![0, 2]);
        assert_eq!(m.issued_at(LineAddr::new(4)), None);
        // The freed register is reused with the new primary's time, and
        // the other register's time is untouched.
        assert_eq!(m.allocate(LineAddr::new(6), 3, 200), Ok(true));
        assert_eq!(m.allocate(LineAddr::new(4), 4, 210), Ok(true));
        assert_eq!(m.issued_at(LineAddr::new(4)), Some(210));
        assert_eq!(m.issued_at(LineAddr::new(5)), Some(120));
        assert_eq!(m.issued_at(LineAddr::new(6)), Some(200));
        // A stalled allocation records nothing.
        assert_eq!(m.allocate(LineAddr::new(7), 5, 220), Err(MshrError::Full));
        assert_eq!(m.issued_at(LineAddr::new(7)), None);
        out.clear();
        assert_eq!(m.complete_into(LineAddr::new(5), &mut out), Some(120));
        assert_eq!(out, vec![1]);
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_capacity_panics() {
        let _m: MshrFile<u32> = MshrFile::new(0);
    }
}
