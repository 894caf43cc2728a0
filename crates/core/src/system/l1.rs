//! Private per-core L1 filter caches.

use cmpsim_cache::{CacheGeometry, InsertPosition, LineAddr, ReplacementPolicy, TagArray};

use crate::config::L1Config;

/// A private L1 data cache.
///
/// Modelled as a write-through, no-write-allocate filter in front of the
/// L2 (the POWER-style organization the paper's CMP uses): loads that hit
/// here never reach the L2, stores always do. The L1 holds no coherence
/// state of its own — the L2 is the point of coherence and back-
/// invalidates L1 copies whenever it loses a line.
#[derive(Debug, Clone)]
pub struct L1Cache {
    tags: TagArray<()>,
    hits: u64,
    misses: u64,
}

impl L1Cache {
    /// Creates an L1.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not form a valid geometry (the
    /// system validates configs before construction).
    pub fn new(cfg: L1Config, line_bytes: u64) -> Self {
        let geom = CacheGeometry::new(cfg.size_bytes, cfg.assoc, line_bytes)
            .expect("validated L1 geometry");
        L1Cache {
            tags: TagArray::new(geom, ReplacementPolicy::Lru),
            hits: 0,
            misses: 0,
        }
    }

    /// Load lookup; returns `true` on hit (and refreshes recency).
    pub fn load(&mut self, line: LineAddr) -> bool {
        if self.tags.touch(line).is_some() {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Fills a line after an L2 hit or miss completion. The evicted L1
    /// victim needs no write-back (write-through).
    pub fn fill(&mut self, line: LineAddr) {
        if self.tags.probe(line).is_none() {
            self.tags.insert(line, (), InsertPosition::Mru);
        }
    }

    /// Back-invalidation from the L2.
    pub fn invalidate(&mut self, line: LineAddr) {
        self.tags.invalidate(line);
    }

    /// (hits, misses).
    pub fn counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Cache {
        L1Cache::new(
            L1Config {
                size_bytes: 4096,
                assoc: 2,
            },
            128,
        )
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = l1();
        let line = LineAddr::new(10);
        assert!(!c.load(line));
        c.fill(line);
        assert!(c.load(line));
        assert_eq!(c.counts(), (1, 1));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = l1();
        c.fill(LineAddr::new(3));
        c.invalidate(LineAddr::new(3));
        assert!(!c.load(LineAddr::new(3)));
    }

    #[test]
    fn refill_is_idempotent() {
        let mut c = l1();
        c.fill(LineAddr::new(3));
        c.fill(LineAddr::new(3));
        assert!(c.load(LineAddr::new(3)));
    }

    #[test]
    fn capacity_evictions_silent() {
        let mut c = l1();
        // 4096/128 = 32 lines, 2-way, 16 sets: lines 0,16,32 collide.
        c.fill(LineAddr::new(0));
        c.fill(LineAddr::new(16));
        c.fill(LineAddr::new(32));
        assert!(!c.load(LineAddr::new(0)));
        assert!(c.load(LineAddr::new(32)));
    }
}
