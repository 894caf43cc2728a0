//! Host-speed probe for normalizing host times.
//!
//! On a shared host the simulator's speed drifts by tens of percent within
//! seconds to minutes as other tenants load the shared caches and memory.
//! The probe is a fixed miniature of the simulator's hot loop that shares
//! no code with it: a binary-heap event queue driving probes of four small
//! LRU tag arrays and a larger shared one over a synthetic address stream.
//! The benchmark times it between runs and scales each run's host times by
//! the mean of the probes on either side of the run. On a 2-vCPU Xeon VM,
//! over three minutes of alternating short `trade2_snarf_o6` and
//! `notesbench_wbht_o1` runs whose times spread by 31% to 35%
//! (interquartile range over median), run time over adjacent probe time
//! spread by 11% to 14%, and medians of ten consecutive normalized runs by
//! 5% to 8%, against 33% to 34% raw; a random read-modify-write sweep of a
//! 32 MiB table tracked the runs less closely (correlation 0.65 against
//! 0.80). Comparing two commits' normalized figures therefore compares run
//! time against probe time measured on the same host at about the same
//! moment; the probe never changes with the simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Operations per probe (about 0.3 s).
const OPS: u64 = 1_500_000;
/// Nanoseconds per probe operation that normalized figures are scaled
/// to: the probe's typical speed on the 2-vCPU Xeon VM the bounds were
/// set on, so normalized figures read close to raw ones there.
pub const NOMINAL_NS: f64 = 150.0;

fn mix(mut z: u64) -> u64 {
    // SplitMix64 finalizer: a cheap, well-spread address stream.
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A set-associative tag array with exact LRU by access stamps.
struct Tags {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    sets: usize,
    ways: usize,
    clock: u32,
}

impl Tags {
    fn new(sets: usize, ways: usize) -> Tags {
        Tags {
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            sets,
            ways,
            clock: 0,
        }
    }

    /// Looks `line` up, filling it over the LRU way on a miss.
    fn access(&mut self, line: u64) -> bool {
        self.clock = self.clock.wrapping_add(1);
        let base = (line as usize & (self.sets - 1)) * self.ways;
        let set = base..base + self.ways;
        if let Some(w) = self.tags[set.clone()].iter().position(|&t| t == line) {
            self.stamps[base + w] = self.clock;
            return true;
        }
        let stamps = &self.stamps[set];
        let lru = (1..self.ways).fold(0, |v, w| if stamps[w] < stamps[v] { w } else { v });
        self.tags[base + lru] = line;
        self.stamps[base + lru] = self.clock;
        false
    }
}

/// The probe's state, built once and kept warm across probes.
pub struct Probe {
    l2: Vec<Tags>,
    l3: Tags,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    rng: u64,
}

impl Probe {
    /// Builds the probe and runs it once to warm its arrays.
    pub fn new() -> Probe {
        let mut p = Probe {
            l2: (0..4).map(|_| Tags::new(4096, 8)).collect(),
            l3: Tags::new(32768, 16),
            queue: (0..96u32).map(|i| Reverse((u64::from(i), i))).collect(),
            rng: 7,
        };
        p.ns_per_op();
        p
    }

    /// Runs one probe; returns nanoseconds per operation.
    pub fn ns_per_op(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..OPS {
            let Reverse((now, id)) = self.queue.pop().expect("probe queue is never empty");
            self.rng = mix(self.rng);
            let r = self.rng;
            // Three in four references go to a hot 200K-line region.
            let line = if r & 3 != 0 {
                (r >> 8) % 200_000
            } else {
                (r >> 8) % 4_000_000
            };
            let latency = if self.l2[(id & 3) as usize].access(line) {
                20
            } else if self.l3.access(line) {
                160
            } else {
                430
            };
            self.queue.push(Reverse((now + latency, id)));
        }
        black_box(self.queue.len());
        t0.elapsed().as_nanos() as f64 / OPS as f64
    }
}
