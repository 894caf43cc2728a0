//! Differential oracle for the packed tag-array backend.
//!
//! Drives [`PackedTagArray`] and [`GenericTagArray`] through identical
//! randomized probe/touch/insert/insert_into/update_state/invalidate
//! sequences and asserts identical probe results, victims, recency
//! orderings, and evicted payloads for all three replacement policies —
//! plus the satellite regressions: stale way-hints on both backends and
//! geometry extremes under the packed word-layout rules.

use cmpsim_cache::{
    packed_fits, CacheGeometry, GenericTagArray, GeometryError, InsertPosition, LineAddr,
    PackedLine, PackedTagArray, ReplacementPolicy, PACKED_LINE_ADDR_BITS,
};
use cmpsim_engine::SplitMix64;

/// One randomized mirror run: every operation must produce the same
/// observable result on both backends, and the final resident state
/// (lines, payloads, victim orderings) must match exactly.
fn mirror_run(policy: ReplacementPolicy, geom: CacheGeometry, line_space: u64, seed: u64) {
    let mut p: PackedTagArray<u8> = PackedTagArray::new(geom, policy);
    let mut g: GenericTagArray<u8> = GenericTagArray::new(geom, policy);
    let mut rng = SplitMix64::new(seed);
    for step in 0..30_000u64 {
        let line = LineAddr::new(rng.gen_range(line_space));
        match rng.gen_range(6) {
            0 => {
                assert_eq!(p.probe(line), g.probe(line), "probe @ {step}");
            }
            1 => {
                // `touch` hands back the touched line's state: both
                // backends must agree on it, and it must be what a probe
                // just before the touch saw.
                let probed = g.probe(line).map(|(_, st)| st);
                let touched = p.touch(line);
                assert_eq!(touched, g.touch(line), "touch state @ {step}");
                assert_eq!(touched, probed, "touch vs probe @ {step}");
            }
            2 => {
                let st = (step & 0xFF) as u8;
                if p.probe(line).is_none() {
                    assert_eq!(
                        p.insert(line, st, InsertPosition::Mru),
                        g.insert(line, st, InsertPosition::Mru),
                        "insert eviction @ {step}"
                    );
                }
            }
            3 => {
                // insert_into a policy-chosen way with a non-Mru position
                // (the snarf path). Skip when the line is resident
                // (insert_into does not handle duplicates).
                if p.probe(line).is_none() {
                    let pos = if step % 2 == 0 {
                        InsertPosition::Mid
                    } else {
                        InsertPosition::Lru
                    };
                    let wp = p.invalid_way(line).unwrap_or_else(|| p.victim_way(line));
                    let wg = g.invalid_way(line).unwrap_or_else(|| g.victim_way(line));
                    assert_eq!(wp, wg, "victim way @ {step}");
                    // The chosen way may hold a different line; only
                    // proceed if that occupant is not `line` itself.
                    assert_eq!(
                        p.insert_into(line, wp, (step & 0x7F) as u8, pos),
                        g.insert_into(line, wg, (step & 0x7F) as u8, pos),
                        "insert_into @ {step}"
                    );
                }
            }
            4 => {
                let st = (step & 0x3F) as u8;
                assert_eq!(
                    p.update_state(line, |s| *s = st),
                    g.update_state(line, |s| *s = st),
                    "update_state @ {step}"
                );
                assert_eq!(p.probe(line), g.probe(line), "state after update @ {step}");
            }
            _ => {
                assert_eq!(
                    p.invalidate(line),
                    g.invalidate(line),
                    "invalidate @ {step}"
                );
            }
        }
        assert_eq!(p.valid_lines(), g.valid_lines(), "occupancy @ {step}");
    }
    // Terminal full-state comparison.
    let pv: Vec<_> = p.iter_valid().collect();
    let gv: Vec<_> = g.iter_valid().collect();
    assert_eq!(pv, gv, "final resident lines diverge");
    for set in 0..geom.num_sets() {
        let l = LineAddr::new(set);
        assert_eq!(
            p.victim_candidates(l, geom.assoc() as usize),
            g.victim_candidates(l, geom.assoc() as usize),
            "victim ordering diverges in set {set}"
        );
        assert_eq!(p.invalid_way(l), g.invalid_way(l));
    }
}

#[test]
fn mirror_lru() {
    let geom = CacheGeometry::new(4096, 8, 128).unwrap(); // 4 sets x 8 ways
    mirror_run(ReplacementPolicy::Lru, geom, 64, 0x51AB_1E5E);
}

#[test]
fn mirror_tree_plru() {
    let geom = CacheGeometry::new(4096, 8, 128).unwrap();
    mirror_run(ReplacementPolicy::TreePlru, geom, 64, 0x7EE9_1A02);
}

#[test]
fn mirror_random() {
    // Both backends consume the same seeded SplitMix64 stream only on
    // Random victim selection, so the streams stay in lockstep.
    let geom = CacheGeometry::new(4096, 8, 128).unwrap();
    mirror_run(ReplacementPolicy::Random, geom, 64, 0xBAD5_EED5);
}

#[test]
fn mirror_wider_geometry() {
    // More sets, lower pressure: exercises set indexing and tag
    // reconstruction across set boundaries.
    let geom = CacheGeometry::new(16384, 4, 128).unwrap(); // 32 sets x 4 ways
    mirror_run(ReplacementPolicy::Lru, geom, 4096, 0x0DDC_0FFE);
}

/// Satellite regression: a way-hint that survives an `invalidate` +
/// re-`insert` of a *different* tag into the same way must never
/// short-circuit to a wrong hit — on either backend.
#[test]
fn stale_hint_after_reuse_never_lies() {
    macro_rules! check {
        ($t:expr) => {{
            let t = &mut $t;
            let a = LineAddr::new(0); // set 0
            let b = LineAddr::new(8); // same set (8 sets x 2 ways)
            t.insert(a, 1, InsertPosition::Mru);
            assert!(t.probe(a).is_some()); // seeds the hint with a's way
            let way = t.probe(a).unwrap().0;
            t.invalidate(a);
            // A *different* tag now occupies the hinted way.
            t.insert_into(b, way, 9, InsertPosition::Mru);
            assert_eq!(t.probe(a), None, "stale hint returned a wrong hit");
            assert_eq!(t.probe(b).map(|(_, s)| s), Some(9));
        }};
    }

    let geom = CacheGeometry::new(2048, 2, 128).unwrap(); // 8 sets x 2 ways
    let mut p: PackedTagArray<u8> = PackedTagArray::new(geom, ReplacementPolicy::Lru);
    check!(p);
    let mut g: GenericTagArray<u8> = GenericTagArray::new(geom, ReplacementPolicy::Lru);
    check!(g);
}

// --- geometry extremes under the packed layout (satellite) -------------

#[test]
fn direct_mapped_1_way() {
    // 1-way: every set is a single word; insert always replaces.
    let geom = CacheGeometry::new(1024, 1, 128).unwrap(); // 8 sets x 1 way
    mirror_run(ReplacementPolicy::Lru, geom, 64, 0xD1CE_0001);
    let mut t: PackedTagArray<u8> = PackedTagArray::new(geom, ReplacementPolicy::Lru);
    t.insert(LineAddr::new(0), 1, InsertPosition::Mru);
    let ev = t.insert(LineAddr::new(8), 2, InsertPosition::Mru).unwrap();
    assert_eq!(ev.line, LineAddr::new(0));
    assert_eq!(ev.state, 1);
}

#[test]
fn max_associativity_single_set() {
    // Fully associative: one set holding every line; the probe loop
    // scans all 32 ways.
    let geom = CacheGeometry::new(4096, 32, 128).unwrap(); // 1 set x 32 ways
    assert_eq!(geom.num_sets(), 1);
    mirror_run(ReplacementPolicy::Lru, geom, 64, 0xF011_A550);
}

#[test]
fn non_power_of_two_sets_rejected_by_geometry() {
    // The packed backend never sees a non-power-of-two set count: every
    // route to one is rejected by CacheGeometry before any backend is
    // built (set indexing is a mask; tag packing drops exactly
    // log2(num_sets) bits).
    assert!(matches!(
        CacheGeometry::new(128 * 24, 8, 128), // 24 sets via non-pow2 size
        Err(GeometryError::NotPowerOfTwo("size_bytes", _))
    ));
    assert!(matches!(
        CacheGeometry::new(4096, 12, 128), // 32 lines / 12-way
        Err(GeometryError::Indivisible { .. })
    ));
    assert!(matches!(
        CacheGeometry::from_entries(24, 2, 1), // 12 sets via entry count
        Err(GeometryError::NotPowerOfTwo(_, _))
    ));
}

#[test]
fn packed_fits_boundary() {
    // u8 payload: 8 state bits leave 55 tag bits — plenty for 48-bit
    // line addresses at any set count.
    assert!(packed_fits(8, 1));
    // u16 payload: 16 state bits leave 47 tag bits. A single set needs
    // all 48 — one too many; two sets shave one bit and fit exactly.
    assert!(!packed_fits(16, 1));
    assert!(packed_fits(16, 2));
    // L2State-sized payloads always fit real geometries.
    assert!(packed_fits(3, 512));
    // Nothing wider than the word can ever fit.
    assert!(!packed_fits(64, 1 << 20));
}

#[test]
fn oversized_tag_geometry_rejected_at_construction() {
    // 16 state bits + 1 set = 48 needed tag bits > 47 available.
    let geom = CacheGeometry::new(4096, 32, 128).unwrap(); // 1 set
    match PackedTagArray::<u16>::try_new(geom, ReplacementPolicy::Lru) {
        Err(GeometryError::PackedTagOverflow {
            state_bits: 16,
            num_sets: 1,
        }) => {}
        other => panic!("expected PackedTagOverflow, got {other:?}"),
    }
    // The generic backend has no such limit.
    assert!(GenericTagArray::<u16>::try_new(geom, ReplacementPolicy::Lru).is_ok());
}

#[test]
#[should_panic(expected = "packed tag word overflow")]
fn oversized_tag_geometry_panics_in_new() {
    let geom = CacheGeometry::new(4096, 32, 128).unwrap();
    let _ = PackedTagArray::<u16>::new(geom, ReplacementPolicy::Lru);
}

#[test]
fn line_addresses_up_to_packed_width_roundtrip() {
    // The largest supported line address must store and reconstruct
    // exactly (tag reconstruction = stored tag bits ‖ set index).
    let geom = CacheGeometry::new(4096, 8, 128).unwrap(); // 4 sets
    let mut t: PackedTagArray<u8> = PackedTagArray::new(geom, ReplacementPolicy::Lru);
    let top = LineAddr::new((1u64 << PACKED_LINE_ADDR_BITS) - 1);
    t.insert(top, 0xAB, InsertPosition::Mru);
    assert_eq!(t.probe(top).map(|(_, s)| s), Some(0xAB));
    assert_eq!(t.iter_valid().collect::<Vec<_>>(), vec![(top, 0xAB)]);
    assert_eq!(t.invalidate(top), Some(0xAB));
}

#[test]
fn layout_size_assertions() {
    // The packed word is exactly 8 bytes; per-line hot state is the
    // word plus one epoch stamp (16 bytes/line total vs the generic
    // backend's padded struct).
    assert_eq!(std::mem::size_of::<PackedLine>(), 8);
    assert_eq!(std::mem::align_of::<PackedLine>(), 8);
}
