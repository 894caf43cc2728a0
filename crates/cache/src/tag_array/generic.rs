//! The pre-packing tag-array backend: a `Vec` of struct-of-enums lines.
//!
//! Kept for two jobs:
//!
//! * **Differential oracle.** `--features legacy-tags` re-points the
//!   [`TagArray`](crate::TagArray) alias here, so a whole simulator
//!   build runs on this backend and its `--json`/span/audit output can
//!   be diffed byte-for-byte against the packed build (verify.sh does
//!   exactly that), and `tests/mirror.rs` drives both backends through
//!   randomized op sequences asserting identical results.
//! * **Wide payloads.** State types that cannot fit the packed word's
//!   spare bits (e.g. the reuse-distance predictor's two-`u64` entry)
//!   store here via [`WideHistoryTable`](crate::WideHistoryTable).

use std::cell::Cell;

use cmpsim_engine::SplitMix64;

use super::{plru, Evicted, InsertPosition, TagStorage, WayIdx, NO_HINT};
use crate::{CacheGeometry, GeometryError, LineAddr, ReplacementPolicy};

#[derive(Debug, Clone)]
struct Way<S> {
    tag: u64,
    valid: bool,
    state: S,
    stamp: u64,
}

/// A set-associative tag array storing each line as a padded struct.
///
/// Generic over any `Copy + Default` per-line state payload — unlike
/// [`PackedTagArray`](super::PackedTagArray) it imposes no bit-width
/// limit, at the cost of a padded struct per way. Semantics (probe scan
/// order, recency stamps, victim tie-breaks, the deterministic Random
/// rng stream, way-memoization hints) are identical to the packed
/// backend by construction; the mirror test enforces it.
#[derive(Debug, Clone)]
pub struct GenericTagArray<S> {
    geom: CacheGeometry,
    policy: ReplacementPolicy,
    ways: Vec<Way<S>>,
    plru: Vec<u64>,
    stamp: u64,
    rng: SplitMix64,
    valid_count: u64,
    /// Way memoization: per-set index of the last way that hit (or was
    /// filled), `NO_HINT` when unknown. Hints are *validated* on use
    /// (valid bit and tag compare), so a stale hint after an eviction or
    /// invalidation degrades to the full way scan — it can never return
    /// a wrong answer, and therefore never needs clearing. `Cell` keeps
    /// [`probe`](Self::probe) shared (`&self`); the array stays `Send`,
    /// which is all the parallel sweep driver needs (each worker builds
    /// its own systems).
    way_hint: Vec<Cell<u32>>,
    /// Consult the hint on probes? Always updated, consulted only when
    /// `true`; tests flip it off to prove probe/LRU behaviour is
    /// identical either way.
    memo: bool,
}

impl<S: Copy + Default> GenericTagArray<S> {
    /// Creates an empty tag array.
    ///
    /// # Panics
    ///
    /// Panics if `policy` is [`ReplacementPolicy::TreePlru`] and the
    /// associativity is not a power of two.
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy) -> Self {
        if policy == ReplacementPolicy::TreePlru {
            assert!(
                geom.assoc().is_power_of_two(),
                "tree-PLRU requires power-of-two associativity"
            );
        }
        let n = geom.num_lines() as usize;
        GenericTagArray {
            geom,
            policy,
            ways: vec![
                Way {
                    tag: 0,
                    valid: false,
                    state: S::default(),
                    stamp: 0,
                };
                n
            ],
            plru: vec![0; geom.num_sets() as usize],
            stamp: 0,
            rng: SplitMix64::new(0xCAFE_F00D),
            valid_count: 0,
            way_hint: vec![Cell::new(NO_HINT); geom.num_sets() as usize],
            memo: true,
        }
    }

    /// Like [`new`](Self::new) but fallible, for [`TagStorage`] parity
    /// with the packed backend (this backend has no width limits).
    ///
    /// # Errors
    ///
    /// Never errors today; the `Result` mirrors
    /// [`PackedTagArray::try_new`](super::PackedTagArray::try_new).
    pub fn try_new(geom: CacheGeometry, policy: ReplacementPolicy) -> Result<Self, GeometryError> {
        Ok(Self::new(geom, policy))
    }

    /// Enables or disables the way-memoization fast path (on by
    /// default). Probe results, recency stamps, and victim choices are
    /// identical either way — tests flip this to prove it.
    pub fn set_way_memo(&mut self, on: bool) {
        self.memo = on;
    }

    /// The geometry this array was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The replacement policy in force.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of valid lines currently resident.
    pub fn valid_lines(&self) -> u64 {
        self.valid_count
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = self.geom.set_of(line) as usize;
        let a = self.geom.assoc() as usize;
        set * a..(set + 1) * a
    }

    /// Looks up a line without updating recency. Returns the way and its
    /// state when present.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> Option<(WayIdx, S)> {
        let set = self.geom.set_of(line) as usize;
        let a = self.geom.assoc() as usize;
        let base = set * a;
        if self.memo {
            let h = self.way_hint[set].get() as usize;
            if h < a {
                let w = &self.ways[base + h];
                if w.valid && w.tag == line.raw() {
                    return Some((base + h, w.state));
                }
            }
        }
        let hit = self.ways[base..base + a]
            .iter()
            .position(|w| w.valid && w.tag == line.raw())?;
        self.way_hint[set].set(hit as u32);
        Some((base + hit, self.ways[base + hit].state))
    }

    /// Rewrites a resident line's state in place (no recency update),
    /// e.g. for coherence state transitions on snoops. Returns `false`
    /// when the line is absent.
    #[inline]
    pub fn update_state(&mut self, line: LineAddr, f: impl FnOnce(&mut S)) -> bool {
        let Some((way, _)) = self.probe(line) else {
            return false;
        };
        f(&mut self.ways[way].state);
        true
    }

    /// Overwrites a resident line's state. Returns `false` when absent.
    #[inline]
    pub fn set_state(&mut self, line: LineAddr, state: S) -> bool {
        self.update_state(line, |s| *s = state)
    }

    /// Marks a line as just-used (hit path) and returns its state, so a
    /// caller that needs both probes the set once. Returns `None` (and
    /// touches nothing) when the line is absent.
    #[inline]
    pub fn touch(&mut self, line: LineAddr) -> Option<S> {
        let (way, state) = self.probe(line)?;
        self.promote(line, way);
        Some(state)
    }

    fn promote(&mut self, line: LineAddr, way: WayIdx) {
        self.stamp += 1;
        self.ways[way].stamp = self.stamp;
        if self.policy == ReplacementPolicy::TreePlru {
            let set = self.geom.set_of(line) as usize;
            let local = way - self.set_range(line).start;
            plru::touch(&mut self.plru[set], self.geom.assoc() as usize, local);
        }
    }

    /// Inserts a line, evicting a victim when the set is full.
    ///
    /// Returns the evicted line, if any. The victim is an invalid way when
    /// one exists, otherwise chosen by the replacement policy.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is already present — callers must
    /// [`probe`](Self::probe) first and update state in place on a hit.
    pub fn insert(&mut self, line: LineAddr, state: S, pos: InsertPosition) -> Option<Evicted<S>> {
        debug_assert!(
            self.probe(line).is_none(),
            "insert of already-present line {line}"
        );
        let way = match self.invalid_way(line) {
            Some(w) => w,
            None => self.victim_way(line),
        };
        self.fill_way(line, way, state, pos)
    }

    /// Inserts a line into a *specific* way (used by the snarf mechanism,
    /// which picks its own victim with state preferences).
    ///
    /// Returns the previous occupant, if any.
    pub fn insert_into(
        &mut self,
        line: LineAddr,
        way: WayIdx,
        state: S,
        pos: InsertPosition,
    ) -> Option<Evicted<S>> {
        debug_assert!(self.set_range(line).contains(&way), "way not in line's set");
        self.fill_way(line, way, state, pos)
    }

    fn fill_way(
        &mut self,
        line: LineAddr,
        way: WayIdx,
        state: S,
        pos: InsertPosition,
    ) -> Option<Evicted<S>> {
        let evicted = if self.ways[way].valid {
            Some(Evicted {
                line: LineAddr::new(self.ways[way].tag),
                state: self.ways[way].state,
            })
        } else {
            self.valid_count += 1;
            None
        };
        let stamp = self.stamp_for(line, pos);
        let w = &mut self.ways[way];
        w.tag = line.raw();
        w.valid = true;
        w.state = state;
        w.stamp = stamp;
        let set = self.geom.set_of(line) as usize;
        let local = way - set * self.geom.assoc() as usize;
        // A just-filled line is the likeliest next probe target.
        self.way_hint[set].set(local as u32);
        if self.policy == ReplacementPolicy::TreePlru && pos == InsertPosition::Mru {
            plru::touch(&mut self.plru[set], self.geom.assoc() as usize, local);
        }
        evicted
    }

    fn stamp_for(&mut self, line: LineAddr, pos: InsertPosition) -> u64 {
        match pos {
            InsertPosition::Mru => {
                self.stamp += 1;
                self.stamp
            }
            InsertPosition::Lru => {
                let range = self.set_range(line);
                self.ways[range]
                    .iter()
                    .filter(|w| w.valid)
                    .map(|w| w.stamp)
                    .min()
                    .map_or(0, |m| m.saturating_sub(1))
            }
            InsertPosition::Mid => {
                let range = self.set_range(line);
                let (mut lo, mut hi) = (u64::MAX, 0u64);
                let mut any = false;
                for w in &self.ways[range] {
                    if w.valid {
                        lo = lo.min(w.stamp);
                        hi = hi.max(w.stamp);
                        any = true;
                    }
                }
                if any {
                    lo / 2 + hi / 2
                } else {
                    self.stamp += 1;
                    self.stamp
                }
            }
        }
    }

    /// First invalid way in the line's set, if any.
    pub fn invalid_way(&self, line: LineAddr) -> Option<WayIdx> {
        let range = self.set_range(line);
        let base = range.start;
        self.ways[range]
            .iter()
            .position(|w| !w.valid)
            .map(|i| base + i)
    }

    /// The way the replacement policy would victimize in this line's set
    /// (assumes the set has at least one valid way; invalid ways are
    /// preferred by [`insert`](Self::insert) before this is consulted).
    pub fn victim_way(&mut self, line: LineAddr) -> WayIdx {
        let range = self.set_range(line);
        let base = range.start;
        match self.policy {
            ReplacementPolicy::Lru => {
                let mut best = base;
                let mut best_stamp = u64::MAX;
                for (i, w) in self.ways[range].iter().enumerate() {
                    if w.stamp < best_stamp {
                        best_stamp = w.stamp;
                        best = base + i;
                    }
                }
                best
            }
            ReplacementPolicy::TreePlru => {
                let set = self.geom.set_of(line) as usize;
                base + plru::victim(self.plru[set], self.geom.assoc() as usize)
            }
            ReplacementPolicy::Random => base + self.rng.gen_range(self.geom.assoc()) as usize,
        }
    }

    /// Finds the best victim way among valid ways whose state satisfies
    /// `pred`, preferring the least recently used. Returns `None` when no
    /// way qualifies. Invalid ways are *not* returned — use
    /// [`invalid_way`](Self::invalid_way) first.
    ///
    /// This implements the snarf victim policy of §3: the caller first
    /// asks for an invalid way, then for the LRU way in `Shared` state.
    pub fn victim_way_by(&self, line: LineAddr, pred: impl Fn(&S) -> bool) -> Option<WayIdx> {
        let range = self.set_range(line);
        let base = range.start;
        self.ways[range]
            .iter()
            .enumerate()
            .filter(|(_, w)| w.valid && pred(&w.state))
            .min_by_key(|(i, w)| (w.stamp, *i))
            .map(|(i, _)| base + i)
    }

    /// The `k` least-recently-used valid ways in the line's set, most
    /// evictable first. Used by cost-aware replacement policies that
    /// re-rank the LRU tail (e.g. preferring victims known to be cheap
    /// to re-fetch). Returns fewer than `k` entries when the set has
    /// fewer valid ways.
    pub fn victim_candidates(&self, line: LineAddr, k: usize) -> Vec<(WayIdx, LineAddr)> {
        let range = self.set_range(line);
        let base = range.start;
        let mut ways: Vec<(u64, WayIdx, LineAddr)> = self.ways[range]
            .iter()
            .enumerate()
            .filter(|(_, w)| w.valid)
            .map(|(i, w)| (w.stamp, base + i, LineAddr::new(w.tag)))
            .collect();
        ways.sort_unstable_by_key(|&(stamp, i, _)| (stamp, i));
        ways.truncate(k);
        ways.into_iter().map(|(_, i, l)| (i, l)).collect()
    }

    /// Removes a line, returning its state if it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<S> {
        let range = self.set_range(line);
        for w in &mut self.ways[range] {
            if w.valid && w.tag == line.raw() {
                w.valid = false;
                self.valid_count -= 1;
                return Some(w.state);
            }
        }
        None
    }

    /// The line currently occupying `way`, if valid.
    pub fn line_at(&self, way: WayIdx) -> Option<(LineAddr, S)> {
        let w = &self.ways[way];
        w.valid.then(|| (LineAddr::new(w.tag), w.state))
    }

    /// Iterates over all valid lines (for verification and debug dumps).
    pub fn iter_valid(&self) -> impl Iterator<Item = (LineAddr, S)> + '_ {
        self.ways
            .iter()
            .filter(|w| w.valid)
            .map(|w| (LineAddr::new(w.tag), w.state))
    }
}

impl<S: Copy + Default + std::fmt::Debug> TagStorage<S> for GenericTagArray<S> {
    fn try_new(geom: CacheGeometry, policy: ReplacementPolicy) -> Result<Self, GeometryError> {
        GenericTagArray::try_new(geom, policy)
    }

    fn geometry(&self) -> CacheGeometry {
        GenericTagArray::geometry(self)
    }

    fn valid_lines(&self) -> u64 {
        GenericTagArray::valid_lines(self)
    }

    fn probe(&self, line: LineAddr) -> Option<(WayIdx, S)> {
        GenericTagArray::probe(self, line)
    }

    fn touch(&mut self, line: LineAddr) -> Option<S> {
        GenericTagArray::touch(self, line)
    }

    fn update_state(&mut self, line: LineAddr, f: impl FnOnce(&mut S)) -> bool {
        GenericTagArray::update_state(self, line, f)
    }

    fn insert(&mut self, line: LineAddr, state: S, pos: InsertPosition) -> Option<Evicted<S>> {
        GenericTagArray::insert(self, line, state, pos)
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<S> {
        GenericTagArray::invalidate(self, line)
    }
}
