//! Typed protocol-invariant checking: at most one dirty owner per line,
//! `E`/`M` exclusivity, at most one `SL` holder, and — once the event
//! queue has run dry — no work left behind in any L2. Violations are
//! reported as structured [`InvariantViolation`] values so tools (the
//! `debug_invariant` bisector) can act on them without parsing panic
//! strings; tests use the panicking [`System::assert_invariants`]
//! wrapper.

use cmpsim_coherence::L2State;

use crate::system::System;

/// A violated coherence-protocol invariant, naming the line and every
/// L2 holding it (index, state) at the time of the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// More than one L2 holds the line in a dirty (`M`/`T`) state.
    MultipleDirtyOwners {
        /// The line's raw address.
        line: u64,
        /// Every holder of the line as `(l2 index, state)`.
        holders: Vec<(usize, L2State)>,
    },
    /// An `E`/`M` holder coexists with other copies of the line.
    ExclusiveWithSharers {
        /// The line's raw address.
        line: u64,
        /// Every holder of the line as `(l2 index, state)`.
        holders: Vec<(usize, L2State)>,
    },
    /// More than one L2 claims the `SL` (shared-last, intervener) state.
    MultipleSharedLast {
        /// The line's raw address.
        line: u64,
        /// Every holder of the line as `(l2 index, state)`.
        holders: Vec<(usize, L2State)>,
    },
    /// The event queue is empty, yet an L2 structure still holds work
    /// that no pending event will finish: a lost wake-up or a leaked
    /// entry.
    NotDrained {
        /// Index of the L2 the work belongs to.
        l2: usize,
        /// The structure still holding it.
        structure: &'static str,
        /// Entries left in that structure for this L2.
        entries: usize,
    },
}

impl InvariantViolation {
    /// The raw address of the offending line (`None` for
    /// [`NotDrained`](Self::NotDrained), which concerns a structure).
    pub fn line(&self) -> Option<u64> {
        match self {
            InvariantViolation::MultipleDirtyOwners { line, .. }
            | InvariantViolation::ExclusiveWithSharers { line, .. }
            | InvariantViolation::MultipleSharedLast { line, .. } => Some(*line),
            InvariantViolation::NotDrained { .. } => None,
        }
    }

    /// Every L2 holding the offending line, as `(l2 index, state)`.
    pub fn holders(&self) -> &[(usize, L2State)] {
        match self {
            InvariantViolation::MultipleDirtyOwners { holders, .. }
            | InvariantViolation::ExclusiveWithSharers { holders, .. }
            | InvariantViolation::MultipleSharedLast { holders, .. } => holders,
            InvariantViolation::NotDrained { .. } => &[],
        }
    }
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::MultipleDirtyOwners { line, holders } => {
                let dirty = holders.iter().filter(|(_, s)| s.is_dirty()).count();
                write!(f, "line {line:#x}: {dirty} dirty owners: {holders:?}")
            }
            InvariantViolation::ExclusiveWithSharers { line, holders } => {
                write!(f, "line {line:#x}: E/M with sharers: {holders:?}")
            }
            InvariantViolation::MultipleSharedLast { line, holders } => {
                let sl = holders
                    .iter()
                    .filter(|(_, s)| *s == L2State::SharedLast)
                    .count();
                write!(f, "line {line:#x}: {sl} SL holders: {holders:?}")
            }
            InvariantViolation::NotDrained {
                l2,
                structure,
                entries,
            } => write!(
                f,
                "L2#{l2} not drained: {entries} entries left in its {structure}"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

impl System {
    /// Verifies protocol invariants across all caches: at most one dirty
    /// owner per line, `E`/`M` exclusivity, at most one `SL` holder.
    /// When the event queue is empty (a run has drained) it also
    /// requires every L2 to be idle: no parked fills, no MSHRs (and so
    /// no miss issue times), no castouts in flight (marked write-back
    /// queue entries), an empty write-back queue, and no inbound
    /// transfers left for it.
    ///
    /// Returns the first violation found, with the offending line and
    /// its holders (or the undrained L2 and structure), or `Ok(())` when
    /// the caches are consistent. Coherence violations are found in
    /// (slice, set, tag) order, so the one reported is deterministic.
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantViolation`] describing the violated rule.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.check_coherence()?;
        if self.queue.is_empty() {
            self.check_drained()?;
        }
        Ok(())
    }

    /// The coherence half of [`check_invariants`](Self::check_invariants),
    /// as a set walk. Every L2 shares one sliced geometry, so a line's
    /// holders are exactly the equal-tag valid ways of one (slice, set)
    /// across the L2s: each set's entries are gathered into one buffer
    /// reused for the whole sweep, sorted by (line, L2), and each
    /// equal-line group is checked. Nothing is allocated per line, and
    /// the first violation reported is the first in (slice, set, tag)
    /// order.
    fn check_coherence(&self) -> Result<(), InvariantViolation> {
        let Some(first) = self.l2s.first() else {
            return Ok(());
        };
        let geom = first.geometry();
        debug_assert!(self.l2s.iter().all(|l2| l2.geometry() == geom));
        let per_slice = geom.per_slice();
        let slice_bits = geom.slices().trailing_zeros();
        let mut set_entries: Vec<(u64, usize, L2State)> =
            Vec::with_capacity(self.l2s.len() * per_slice.assoc() as usize);
        for slice in 0..geom.slices() as usize {
            for set in 0..per_slice.num_sets() as usize {
                set_entries.clear();
                for (i, l2) in self.l2s.iter().enumerate() {
                    set_entries.extend(
                        l2.set_lines(slice, set)
                            .map(|(local, st)| (local.raw(), i, st)),
                    );
                }
                // A lone holder satisfies every rule.
                if set_entries.len() < 2 {
                    continue;
                }
                set_entries.sort_unstable_by_key(|&(local, i, _)| (local, i));
                for group in set_entries.chunk_by(|a, b| a.0 == b.0) {
                    let line = (group[0].0 << slice_bits) | slice as u64;
                    check_line(line, group)?;
                }
            }
        }
        Ok(())
    }

    /// The drain half of [`check_invariants`](Self::check_invariants).
    fn check_drained(&self) -> Result<(), InvariantViolation> {
        for (i, l2) in self.l2s.iter().enumerate() {
            let keyed = |k: &(u8, u64)| usize::from(k.0) == i;
            let left = [
                ("parked fills", l2.parked.len()),
                // Each register holds its primary miss's issue time.
                ("MSHRs and miss issue times", l2.mshrs.len()),
                // Marked (on-bus) entries before the whole queue: the
                // more specific leak is named first.
                ("castouts in flight", l2.wbq.in_flight()),
                ("write-back queue", l2.wbq.len()),
                (
                    "inbound transfers",
                    self.inbound.keys().filter(|k| keyed(k)).count(),
                ),
            ];
            if let Some(&(structure, entries)) = left.iter().find(|(_, n)| *n > 0) {
                return Err(InvariantViolation::NotDrained {
                    l2: i,
                    structure,
                    entries,
                });
            }
        }
        Ok(())
    }

    /// [`check_invariants`](Self::check_invariants), panicking on the
    /// first violation (the test-friendly form).
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn assert_invariants(&self) {
        if let Err(v) = self.check_invariants() {
            panic!("coherence invariant violated: {v}");
        }
    }
}

/// Applies the three coherence rules to one line's holders, given as
/// `(slice-local line, l2 index, state)` in L2 order.
fn check_line(line: u64, group: &[(u64, usize, L2State)]) -> Result<(), InvariantViolation> {
    let holders = || group.iter().map(|&(_, i, st)| (i, st)).collect();
    let count = |pred: fn(L2State) -> bool| group.iter().filter(|e| pred(e.2)).count();
    if count(L2State::is_dirty) > 1 {
        return Err(InvariantViolation::MultipleDirtyOwners {
            line,
            holders: holders(),
        });
    }
    if group.len() != 1 && count(L2State::is_exclusive) > 0 {
        return Err(InvariantViolation::ExclusiveWithSharers {
            line,
            holders: holders(),
        });
    }
    if count(|st| st == L2State::SharedLast) > 1 {
        return Err(InvariantViolation::MultipleSharedLast {
            line,
            holders: holders(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use cmpsim_cache::{InsertPosition, LineAddr};
    use cmpsim_coherence::L2State;
    use cmpsim_engine::SplitMix64;
    use cmpsim_trace::Workload;

    use super::InvariantViolation;
    use crate::config::SystemConfig;
    use crate::policy::PolicyConfig;
    use crate::system::testutil::system;
    use crate::system::System;

    #[test]
    fn violations_are_typed_and_described() {
        let mut sys = system(PolicyConfig::baseline());
        assert_eq!(sys.check_invariants(), Ok(()));

        // Two dirty owners of one line.
        let line = LineAddr::new(40);
        sys.l2s[0].fill(line, L2State::Modified, InsertPosition::Mru);
        sys.l2s[1].fill(line, L2State::Tagged, InsertPosition::Mru);
        let v = sys.check_invariants().unwrap_err();
        assert!(matches!(v, InvariantViolation::MultipleDirtyOwners { .. }));
        assert_eq!(v.line(), Some(line.raw()));
        assert_eq!(v.holders().len(), 2);
        assert!(v.to_string().contains("dirty owners"));

        // Demote one copy: now it is an E/M-with-sharers violation.
        sys.l2s[1].set_state(line, L2State::Shared);
        let v = sys.check_invariants().unwrap_err();
        assert!(matches!(v, InvariantViolation::ExclusiveWithSharers { .. }));

        // Two SL claimants.
        sys.l2s[0].set_state(line, L2State::SharedLast);
        sys.l2s[1].set_state(line, L2State::SharedLast);
        let v = sys.check_invariants().unwrap_err();
        assert!(matches!(v, InvariantViolation::MultipleSharedLast { .. }));

        // Repair and re-verify.
        sys.l2s[1].set_state(line, L2State::Shared);
        sys.assert_invariants();
    }

    #[test]
    fn drain_check_names_the_l2_and_structure() {
        let mut sys = system(PolicyConfig::baseline());
        sys.run(300);
        sys.assert_invariants();
        let line = LineAddr::new(64);
        let drained = |sys: &System, l2, structure, entries| {
            assert_eq!(
                sys.check_invariants(),
                Err(InvariantViolation::NotDrained {
                    l2,
                    structure,
                    entries,
                })
            );
        };
        // A queued castout, then the same castout marked on the bus.
        let wb = cmpsim_cache::WbEntry { line, dirty: true };
        sys.l2s[2].wbq.push(wb);
        drained(&sys, 2, "write-back queue", 1);
        sys.l2s[2].wbq.mark_on_bus(line);
        drained(&sys, 2, "castouts in flight", 1);
        let v = sys.check_invariants().unwrap_err();
        assert_eq!(v.line(), None);
        assert!(v.holders().is_empty());
        assert!(v.to_string().contains("L2#2 not drained"));
        sys.l2s[2].wbq.remove(line);
        // A miss left in an MSHR, with the issue time it holds.
        let t = cmpsim_trace::ThreadId::new(0);
        assert_eq!(sys.l2s[1].mshrs.allocate(line, t, 7), Ok(true));
        drained(&sys, 1, "MSHRs and miss issue times", 1);
        sys.l2s[1].mshrs.complete(line);
        sys.inbound.insert((3, 7), System::INBOUND_FILL);
        let v = sys.check_invariants().unwrap_err();
        assert!(matches!(
            v,
            InvariantViolation::NotDrained {
                l2: 3,
                structure: "inbound transfers",
                ..
            }
        ));
    }

    /// The per-line reference formulation: one holder list per resident
    /// line in a `HashMap`, filled by probing every line of `pool` (which
    /// must cover every resident line) in every L2. Returns *every*
    /// violation, ordered as the set walk meets them: by (slice, set,
    /// tag).
    fn reference_violations(sys: &System, pool: &[LineAddr]) -> Vec<InvariantViolation> {
        let mut holders: HashMap<u64, Vec<(usize, L2State)>> = HashMap::new();
        for (i, l2) in sys.l2s.iter().enumerate() {
            for &line in pool {
                if let Some(st) = l2.state_of(line) {
                    holders.entry(line.raw()).or_default().push((i, st));
                }
            }
        }
        let resident: usize = holders.values().map(Vec::len).sum();
        let valid: u64 = sys.l2s.iter().map(|l2| l2.valid_lines()).sum();
        assert_eq!(
            resident as u64, valid,
            "pool must cover every resident line"
        );

        let mut out = Vec::new();
        for (line, hs) in holders {
            let dirty = hs.iter().filter(|(_, s)| s.is_dirty()).count();
            let excl = hs.iter().filter(|(_, s)| s.is_exclusive()).count();
            let sl = hs.iter().filter(|(_, s)| *s == L2State::SharedLast).count();
            if dirty > 1 {
                out.push(InvariantViolation::MultipleDirtyOwners { line, holders: hs });
            } else if excl > 0 && hs.len() != 1 {
                out.push(InvariantViolation::ExclusiveWithSharers { line, holders: hs });
            } else if sl > 1 {
                out.push(InvariantViolation::MultipleSharedLast { line, holders: hs });
            }
        }
        let geom = sys.l2s[0].geometry();
        let slice_bits = geom.slices().trailing_zeros();
        let set_mask = geom.per_slice().num_sets() - 1;
        out.sort_by_key(|v| {
            let line = v.line().expect("coherence violation");
            let local = line >> slice_bits;
            (line & (geom.slices() - 1), local & set_mask, local)
        });
        out
    }

    /// A system of `cores` cores (`cores / 2` L2s) with `slices` L2
    /// slices of 16 KB (16 sets of 8 ways), so random fills contend for
    /// ways and evict.
    fn small_system(cores: u8, slices: u64) -> System {
        let mut cfg = SystemConfig::with_cores(cores);
        cfg.l2_slices = slices;
        cfg.l2_slice_bytes = 16 * 1024;
        let wl = Workload::Trade2.params(cfg.num_threads(), cfg.cache_scale());
        System::new(cfg, wl).unwrap()
    }

    fn pick<T: Copy>(rng: &mut SplitMix64, xs: &[T]) -> T {
        xs[rng.gen_range(xs.len() as u64) as usize]
    }

    /// `k` distinct L2 indices out of `n`.
    fn distinct_l2s(rng: &mut SplitMix64, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + rng.gen_range((n - i) as u64) as usize;
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }

    /// Installs `line` in exactly the given `(l2, state)` holders.
    fn place(sys: &mut System, line: LineAddr, holders: &[(usize, L2State)]) {
        for l2 in &mut sys.l2s {
            l2.invalidate(line);
        }
        for &(i, st) in holders {
            sys.l2s[i].fill(line, st, InsertPosition::Mru);
        }
    }

    /// A legal holder pattern for one line: nothing, a lone `E`/`M`, or
    /// `S` sharers with at most one `SL` and at most one `T` owner.
    fn legal_holders(rng: &mut SplitMix64, n: usize) -> Vec<(usize, L2State)> {
        match rng.gen_range(3) {
            0 => Vec::new(),
            1 => {
                let st = pick(rng, &[L2State::Exclusive, L2State::Modified]);
                vec![(rng.gen_range(n as u64) as usize, st)]
            }
            _ => {
                let k = 1 + rng.gen_range(n as u64) as usize;
                let l2s = distinct_l2s(rng, n, k);
                let special = [L2State::SharedLast, L2State::Tagged];
                l2s.iter()
                    .enumerate()
                    .map(|(j, &i)| {
                        let st = if j < 2 && rng.gen_bool(0.5) {
                            special[j]
                        } else {
                            L2State::Shared
                        };
                        (i, st)
                    })
                    .collect()
            }
        }
    }

    /// A holder pattern breaking exactly the rule `kind` names (0: two
    /// dirty owners, 1: `E`/`M` with sharers, 2: two `SL` holders).
    fn violating_holders(rng: &mut SplitMix64, n: usize, kind: u64) -> Vec<(usize, L2State)> {
        let k = 2 + rng.gen_range(n as u64 - 1) as usize;
        let l2s = distinct_l2s(rng, n, k);
        l2s.iter()
            .enumerate()
            .map(|(j, &i)| {
                let st = match (kind, j) {
                    (0, 0 | 1) => pick(rng, &[L2State::Modified, L2State::Tagged]),
                    (1, 0) => pick(rng, &[L2State::Exclusive, L2State::Modified]),
                    (1, 1) => pick(rng, &[L2State::Shared, L2State::SharedLast]),
                    (2, 0 | 1) => L2State::SharedLast,
                    (2, 2) => pick(rng, &[L2State::Shared, L2State::Tagged]),
                    _ => L2State::Shared,
                };
                (i, st)
            })
            .collect()
    }

    fn same_kind(v: &InvariantViolation, kind: u64) -> bool {
        matches!(
            (v, kind),
            (InvariantViolation::MultipleDirtyOwners { .. }, 0)
                | (InvariantViolation::ExclusiveWithSharers { .. }, 1)
                | (InvariantViolation::MultipleSharedLast { .. }, 2)
        )
    }

    /// Random legal states, then planted violations of every kind: the
    /// set walk must report exactly the reference's first violation
    /// (variant, line and L2-ordered holders), and, as each reported
    /// line is repaired, every later one in order, ending at `Ok`.
    fn differential(cores: u8, slices: u64, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for trial in 0..12 {
            let mut sys = small_system(cores, slices);
            let n = sys.l2s.len();
            let capacity = sys.l2s[0].geometry().total_bytes() / 128;
            // Twice one L2's capacity in distinct lines: sets overflow.
            let mut pool: Vec<LineAddr> = (0..capacity * 2)
                .map(|_| LineAddr::new(rng.gen_range(capacity * 8)))
                .collect();
            pool.sort_unstable_by_key(|l| l.raw());
            pool.dedup();
            for &line in &pool {
                let hs = legal_holders(&mut rng, n);
                place(&mut sys, line, &hs);
            }
            assert_eq!(reference_violations(&sys, &pool), Vec::new());
            assert_eq!(sys.check_invariants(), Ok(()), "clean state, trial {trial}");

            // One planted violation of each kind: reported as planted.
            for kind in 0..3 {
                let line = pick(&mut rng, &pool);
                let saved: Vec<_> = (0..n)
                    .filter_map(|i| sys.l2s[i].state_of(line).map(|st| (i, st)))
                    .collect();
                let mut planted = violating_holders(&mut rng, n, kind);
                place(&mut sys, line, &planted);
                planted.sort_unstable_by_key(|&(i, _)| i);
                let want = reference_violations(&sys, &pool);
                assert_eq!(want.len(), 1);
                assert!(same_kind(&want[0], kind), "{}", want[0]);
                assert_eq!(want[0].line(), Some(line.raw()));
                assert_eq!(want[0].holders(), planted.as_slice());
                assert_eq!(sys.check_invariants(), Err(want[0].clone()));
                place(&mut sys, line, &saved);
            }

            // Several at once, walked in sweep order.
            for _ in 0..1 + rng.gen_range(6) {
                let line = pick(&mut rng, &pool);
                let kind = rng.gen_range(3);
                let hs = violating_holders(&mut rng, n, kind);
                place(&mut sys, line, &hs);
            }
            let mut want = reference_violations(&sys, &pool);
            assert!(!want.is_empty());
            for v in want.drain(..) {
                assert_eq!(sys.check_invariants(), Err(v.clone()));
                let line = LineAddr::new(v.line().unwrap());
                place(&mut sys, line, &[]);
            }
            assert_eq!(sys.check_invariants(), Ok(()));
        }
    }

    #[test]
    fn set_walk_matches_per_line_reference_4_l2s() {
        differential(8, 4, 0x5EED_0004);
    }

    #[test]
    fn set_walk_matches_per_line_reference_4_l2s_2_slices() {
        differential(8, 2, 0x5EED_0402);
    }

    #[test]
    fn set_walk_matches_per_line_reference_16_l2s_8_slices() {
        differential(32, 8, 0x5EED_1608);
    }
}
