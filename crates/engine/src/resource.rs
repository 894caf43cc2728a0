//! Contention-modelling resources with busy-until semantics.
//!
//! These primitives are only correct when driven in non-decreasing time
//! order, which the [`EventQueue`](crate::EventQueue) guarantees.

use crate::Cycle;

/// A single-ported unit that serves requests one at a time, FIFO.
///
/// Typical uses: a cache tag port, a directory pipeline stage, a bus
/// arbitration slot. A request arriving at `now` starts service at
/// `max(now, busy_until)` and occupies the server for its service time.
///
/// # Example
///
/// ```
/// use cmpsim_engine::FifoServer;
///
/// let mut tag_port = FifoServer::new(2);
/// assert_eq!(tag_port.reserve(10), 12); // idle: starts immediately
/// assert_eq!(tag_port.reserve(10), 14); // queues behind the first
/// assert_eq!(tag_port.reserve(20), 22); // idle again by cycle 20
/// ```
#[derive(Debug, Clone)]
pub struct FifoServer {
    service: Cycle,
    busy_until: Cycle,
    /// Total cycles the server spent occupied (for utilization stats).
    busy_cycles: Cycle,
    served: u64,
}

impl FifoServer {
    /// Creates a server with a fixed per-request service time.
    pub fn new(service: Cycle) -> Self {
        FifoServer {
            service,
            busy_until: 0,
            busy_cycles: 0,
            served: 0,
        }
    }

    /// Reserves the server for one request arriving at `now`, using the
    /// default service time. Returns the completion time.
    #[inline]
    pub fn reserve(&mut self, now: Cycle) -> Cycle {
        self.reserve_for(now, self.service)
    }

    /// Reserves the server for a request with an explicit service time.
    /// Returns the completion time.
    #[inline]
    pub fn reserve_for(&mut self, now: Cycle, service: Cycle) -> Cycle {
        self.reserve_for_timed(now, service).1
    }

    /// Like [`FifoServer::reserve`], but also returns the queueing delay:
    /// `(wait, completion)` where service began at `now + wait`. Used by
    /// the span tracer to split latency into queue-wait vs. service.
    #[inline]
    pub fn reserve_timed(&mut self, now: Cycle) -> (Cycle, Cycle) {
        self.reserve_for_timed(now, self.service)
    }

    /// Like [`FifoServer::reserve_for`], but also returns the queueing
    /// delay as `(wait, completion)`.
    #[inline]
    pub fn reserve_for_timed(&mut self, now: Cycle, service: Cycle) -> (Cycle, Cycle) {
        let start = self.busy_until.max(now);
        self.busy_until = start + service;
        self.busy_cycles += service;
        self.served += 1;
        (start - now, self.busy_until)
    }

    /// The earliest time a new request arriving at `now` would complete,
    /// without reserving.
    pub fn completion_if_reserved(&self, now: Cycle) -> Cycle {
        self.busy_until.max(now) + self.service
    }

    /// The time until which the server is currently booked.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Total cycles of booked service time.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

/// A `k`-lane bandwidth resource.
///
/// Models an interconnect with `k` independent transfer slots (e.g. a ring
/// whose aggregate bandwidth admits `k` concurrent line transfers). A
/// transfer reserves the earliest-free lane.
///
/// # Example
///
/// ```
/// use cmpsim_engine::Channel;
///
/// let mut data_ring = Channel::new(2, 8); // 2 lanes, 8-cycle occupancy
/// assert_eq!(data_ring.reserve(0), 8);
/// assert_eq!(data_ring.reserve(0), 8);  // second lane
/// assert_eq!(data_ring.reserve(0), 16); // queues
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    lanes: Vec<Cycle>,
    occupancy: Cycle,
    busy_cycles: Cycle,
    served: u64,
}

impl Channel {
    /// Creates a channel with `lanes` parallel slots and a default
    /// per-transfer occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize, occupancy: Cycle) -> Self {
        assert!(lanes > 0, "channel must have at least one lane");
        Channel {
            lanes: vec![0; lanes],
            occupancy,
            busy_cycles: 0,
            served: 0,
        }
    }

    /// Reserves a lane for a transfer arriving at `now` with the default
    /// occupancy. Returns the completion time.
    #[inline]
    pub fn reserve(&mut self, now: Cycle) -> Cycle {
        self.reserve_for(now, self.occupancy)
    }

    /// Reserves a lane with an explicit occupancy. Returns completion time.
    #[inline]
    pub fn reserve_for(&mut self, now: Cycle, occupancy: Cycle) -> Cycle {
        self.reserve_for_timed(now, occupancy).1
    }

    /// Like [`Channel::reserve`], but also returns the queueing delay:
    /// `(wait, completion)` where the transfer began at `now + wait`.
    #[inline]
    pub fn reserve_timed(&mut self, now: Cycle) -> (Cycle, Cycle) {
        self.reserve_for_timed(now, self.occupancy)
    }

    /// Like [`Channel::reserve_for`], but also returns the queueing delay
    /// as `(wait, completion)`.
    #[inline]
    pub fn reserve_for_timed(&mut self, now: Cycle, occupancy: Cycle) -> (Cycle, Cycle) {
        // Earliest-free lane; ties go to the lowest index.
        let mut idx = 0;
        let mut free = self.lanes[0];
        for (i, &t) in self.lanes.iter().enumerate().skip(1) {
            if t < free {
                idx = i;
                free = t;
            }
        }
        let start = free.max(now);
        self.lanes[idx] = start + occupancy;
        self.busy_cycles += occupancy;
        self.served += 1;
        (start - now, self.lanes[idx])
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Total booked occupancy across all lanes.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Number of transfers served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Would a transfer arriving at `now` start immediately (no queueing)?
    pub fn idle_lane_at(&self, now: Cycle) -> bool {
        self.lanes.iter().any(|&t| t <= now)
    }
}

/// A finite pool of slots that are held for a time interval.
///
/// Models a finite queue (e.g. the L3 incoming-request queue): a slot is
/// acquired at `now` and released at a caller-specified time. When no slot
/// is free the acquire fails — in the simulator that failure surfaces as a
/// *Retry* snoop response.
///
/// Pools are small (at most 16 slots in every shipped configuration),
/// so the held slots' release times sit unordered in a `Vec` that is
/// swept with `retain` rather than kept in a heap.
///
/// # Example
///
/// ```
/// use cmpsim_engine::SlotPool;
///
/// let mut q = SlotPool::new(1);
/// assert!(q.try_acquire(0, 100));  // held until cycle 100
/// assert!(!q.try_acquire(50, 60)); // full -> retry
/// assert!(q.try_acquire(100, 120));
/// ```
#[derive(Debug, Clone)]
pub struct SlotPool {
    capacity: usize,
    /// Release times of the held slots, in no particular order.
    releases: Vec<Cycle>,
    acquired: u64,
    rejected: u64,
    high_water: usize,
}

impl SlotPool {
    /// Creates a pool with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "slot pool must have at least one slot");
        SlotPool {
            capacity,
            releases: Vec::new(),
            acquired: 0,
            rejected: 0,
            high_water: 0,
        }
    }

    /// Attempts to acquire a slot at `now`, holding it until `release_at`.
    ///
    /// Returns `false` (and records a rejection) when all slots are held.
    pub fn try_acquire(&mut self, now: Cycle, release_at: Cycle) -> bool {
        self.expire(now);
        if self.releases.len() < self.capacity {
            self.releases.push(release_at.max(now));
            self.acquired += 1;
            self.high_water = self.high_water.max(self.releases.len());
            true
        } else {
            self.rejected += 1;
            false
        }
    }

    /// Number of slots in use at time `now`.
    #[inline]
    pub fn in_use(&mut self, now: Cycle) -> usize {
        self.expire(now);
        self.releases.len()
    }

    /// Pool capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Successful acquisitions so far.
    pub fn acquired(&self) -> u64 {
        self.acquired
    }

    /// Failed acquisitions so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Peak number of slots held at once (occupancy gauge, sampled on
    /// every successful acquire).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    #[inline]
    fn expire(&mut self, now: Cycle) {
        self.releases.retain(|&t| t > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_server_queues() {
        let mut s = FifoServer::new(5);
        assert_eq!(s.reserve(0), 5);
        assert_eq!(s.reserve(0), 10);
        assert_eq!(s.reserve(3), 15);
        assert_eq!(s.reserve(100), 105);
        assert_eq!(s.served(), 4);
        assert_eq!(s.busy_cycles(), 20);
    }

    #[test]
    fn fifo_server_explicit_service() {
        let mut s = FifoServer::new(5);
        assert_eq!(s.reserve_for(0, 1), 1);
        assert_eq!(s.reserve_for(0, 9), 10);
        assert_eq!(s.completion_if_reserved(0), 15);
        // completion_if_reserved does not book.
        assert_eq!(s.busy_until(), 10);
    }

    #[test]
    fn channel_uses_all_lanes() {
        let mut c = Channel::new(3, 4);
        assert_eq!(c.reserve(0), 4);
        assert_eq!(c.reserve(0), 4);
        assert_eq!(c.reserve(0), 4);
        assert_eq!(c.reserve(0), 8); // all lanes busy, queue
        assert!(c.idle_lane_at(4));
        assert!(!c.idle_lane_at(3));
        assert_eq!(c.lanes(), 3);
        assert_eq!(c.served(), 4);
    }

    #[test]
    fn channel_picks_earliest_lane() {
        let mut c = Channel::new(2, 10);
        c.reserve(0); // lane0 -> 10
        c.reserve_for(0, 2); // lane1 -> 2
                             // Next transfer at t=3 should use lane1 (free at 2), not lane0.
        assert_eq!(c.reserve(3), 13);
    }

    #[test]
    fn timed_variants_expose_queueing_delay() {
        let mut s = FifoServer::new(5);
        assert_eq!(s.reserve_timed(0), (0, 5)); // idle: no wait
        assert_eq!(s.reserve_timed(2), (3, 10)); // queued behind the first
        assert_eq!(s.reserve_for_timed(10, 3), (0, 13));
        // The untimed path books identically: state continues seamlessly.
        assert_eq!(s.reserve(13), 18);

        let mut c = Channel::new(2, 4);
        assert_eq!(c.reserve_timed(0), (0, 4));
        assert_eq!(c.reserve_timed(0), (0, 4)); // second lane, still no wait
        assert_eq!(c.reserve_timed(1), (3, 8)); // both lanes busy until 4
        assert_eq!(c.reserve_for_timed(8, 2), (0, 10));
    }

    #[test]
    fn slot_pool_high_water_tracks_peak() {
        let mut p = SlotPool::new(3);
        assert_eq!(p.high_water(), 0);
        p.try_acquire(0, 10);
        p.try_acquire(0, 10);
        assert_eq!(p.high_water(), 2);
        // Slots expire at 10; occupancy drops, peak stays.
        p.try_acquire(20, 30);
        assert_eq!(p.in_use(20), 1);
        assert_eq!(p.high_water(), 2);
    }

    #[test]
    fn slot_pool_rejects_when_full() {
        let mut p = SlotPool::new(2);
        assert!(p.try_acquire(0, 10));
        assert!(p.try_acquire(0, 20));
        assert!(!p.try_acquire(5, 30));
        assert_eq!(p.rejected(), 1);
        // One slot frees at 10.
        assert!(p.try_acquire(10, 40));
        assert_eq!(p.in_use(10), 2);
        assert_eq!(p.in_use(25), 1);
        assert_eq!(p.in_use(40), 0);
        assert_eq!(p.acquired(), 3);
    }

    #[test]
    fn slot_pool_release_never_before_now() {
        let mut p = SlotPool::new(1);
        // release_at in the past is clamped to now, so the slot frees
        // immediately at the next query.
        assert!(p.try_acquire(10, 5));
        assert!(p.try_acquire(11, 20));
    }

    /// The `Vec` + `retain` pool against the min-heap formulation it
    /// replaced: same verdicts, occupancy and counters on random streams
    /// of acquires (some with release times already past) and queries.
    #[test]
    fn slot_pool_matches_heap_model() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        use crate::SplitMix64;

        for capacity in [1, 4, 8, 16] {
            let mut rng = SplitMix64::new(0x5107 + capacity as u64);
            let mut pool = SlotPool::new(capacity);
            let mut model: BinaryHeap<Reverse<Cycle>> = BinaryHeap::new();
            let (mut acquired, mut rejected, mut high_water) = (0, 0, 0);
            let mut now = 0;
            for step in 0..20_000 {
                now += rng.gen_range(4);
                while matches!(model.peek(), Some(&Reverse(t)) if t <= now) {
                    model.pop();
                }
                if rng.gen_bool(0.7) {
                    let release_at = (now + rng.gen_range(40)).saturating_sub(5);
                    let ok = model.len() < capacity;
                    if ok {
                        model.push(Reverse(release_at.max(now)));
                        acquired += 1;
                        high_water = high_water.max(model.len());
                    } else {
                        rejected += 1;
                    }
                    assert_eq!(
                        pool.try_acquire(now, release_at),
                        ok,
                        "cap {capacity} @ {step}"
                    );
                } else {
                    assert_eq!(pool.in_use(now), model.len(), "cap {capacity} @ {step}");
                }
            }
            assert_eq!(pool.acquired(), acquired);
            assert_eq!(pool.rejected(), rejected);
            assert_eq!(pool.high_water(), high_water);
            assert!(
                rejected > 0 && acquired > 1000,
                "cap {capacity}: stream too tame"
            );
        }
    }

    #[test]
    fn channel_ties_go_to_the_lowest_lane() {
        let mut c = Channel::new(3, 5);
        c.reserve_for(0, 9); // lane0 -> 9
        c.reserve_for(0, 4); // lane1 -> 4
        c.reserve_for(0, 4); // lane2 -> 4
                             // Lanes 1 and 2 tie at 4: lane 1 takes the transfer.
        assert_eq!(c.reserve_timed(2), (2, 9));
        assert_eq!(c.lanes, [9, 9, 4]);
        // Lane 2 (free at 4) is now the earliest.
        assert_eq!(c.reserve_timed(2), (2, 9));
        // A three-way tie at 9 goes to lane 0.
        assert_eq!(c.reserve_for(0, 1), 10);
        assert_eq!(c.lanes, [10, 9, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn slot_pool_zero_capacity_panics() {
        let _ = SlotPool::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn channel_zero_lanes_panics() {
        let _ = Channel::new(0, 1);
    }
}
