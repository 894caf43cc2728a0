//! Completion layer: demand fills into the requesting L2 (with install
//! sanitizing and eviction into the write-back queue), fills parked on a
//! full write-back queue and their three wake sources, snarf-fill
//! absorption at peer L2s, system-wide invalidations, and MSHR / thread
//! wake-up on miss completion.

use cmpsim_cache::{InsertPosition, LineAddr};
use cmpsim_coherence::{L2Id, L2State};
use cmpsim_engine::spans::{SpanId, SpanKind, SpanOutcome, SpanPhase};
use cmpsim_engine::Cycle;

use crate::config::L3Organization;
use crate::system::l2::{ParkedFill, SnarfFlags};
use crate::system::system::Ev;
use crate::system::thread::Park;
use crate::system::System;

/// Span id of the `nth` fill to park on L2 `i`: the top bit set, so it
/// never collides with a transaction id (those stay far below 2^63).
fn stall_span(i: usize, nth: u64) -> SpanId {
    1 << 63 | (i as u64) << 40 | nth
}

impl System {
    pub(super) fn handle_fill(&mut self, now: Cycle, l2id: L2Id, line: LineAddr, state: L2State) {
        let i = l2id.index();
        // A woken fill comes back through here with its parked entry
        // still queued.
        let parked = self.l2s[i].parked_index(line);
        if self.l2s[i].state_of(line).is_some() {
            self.inbound_remove(i as u8, line.raw(), Self::INBOUND_FILL);
            if let Some(k) = parked {
                self.unpark(now, i, k);
            }
            // Upgrade completion, or the line arrived by other means.
            if state == L2State::Modified {
                self.l2s[i].set_state(line, L2State::Modified);
                // Claim any copy that slipped in since the upgrade's
                // combined response.
                self.apply_invalidations(l2id, line, Some(()));
            }
            self.l2s[i].touch(line);
            self.complete_miss(now, l2id, line);
            if parked.is_some() {
                self.wake_parked_fills(i, now);
            }
            return;
        }
        // A fill that must evict needs write-back queue space (§2.1:
        // a full queue blocks L2 misses): it parks until a slot frees,
        // its set gains an invalid way, or a snarf lands its line. The
        // inbound-fill marker stays set while the fill is parked — the
        // line is still in transit and snoops must keep retrying
        // against it.
        if self.l2s[i].wbq.is_full() && !self.l2s[i].has_invalid_way(line) {
            match parked {
                // Woken, but the slot was taken first: back to sleep in
                // the same place in line.
                Some(k) => self.l2s[i].parked[k].woken = false,
                None => {
                    self.stats.l2[i].fill_wbq_stalls += 1;
                    let span = stall_span(i, self.stats.l2[i].fill_wbq_stalls);
                    self.spans
                        .start(span, SpanKind::WbqStall, i as u32, line.raw(), now);
                    self.l2s[i].parked.push_back(ParkedFill {
                        line,
                        state,
                        span,
                        since: now,
                        woken: false,
                    });
                }
            }
            return;
        }
        if let Some(k) = parked {
            self.unpark(now, i, k);
        }
        self.inbound_remove(i as u8, line.raw(), Self::INBOUND_FILL);
        let state = self.sanitize_install(i, line, state);
        self.trace(line, &|| format!("fill {l2id} install={state}"));
        if state == L2State::Modified {
            // Late-claim any stale copies that slipped in between the
            // combined response and this fill (e.g. a snarf landing).
            self.apply_invalidations(l2id, line, Some(()));
        }
        let evicted = if self.cfg.history_aware_replacement && self.policy.caps().knows_lines {
            let policy = &self.policy;
            self.l2s[i].fill_history_aware(line, state, InsertPosition::Mru, 4, |l| {
                policy.knows_line(i, l)
            })
        } else {
            self.l2s[i].fill(line, state, InsertPosition::Mru)
        };
        if let Some((vline, vst)) = evicted {
            self.on_l2_eviction(now, i, vline, vst);
        }
        self.complete_miss(now, l2id, line);
        if parked.is_some() {
            // The slot this fill was woken for may have gone unused (it
            // found an invalid way): pass it on.
            self.wake_parked_fills(i, now);
        }
    }

    /// Removes parked entry `k` of L2 `i` as its fill completes,
    /// charging the wait to the stall counter and the stall span.
    fn unpark(&mut self, now: Cycle, i: usize, k: usize) {
        let p = self.l2s[i].parked.remove(k).expect("parked index in range");
        self.stats.l2[i].fill_wbq_stall_cycles += now - p.since;
        self.spans.mark(p.span, SpanPhase::WbqBlocked, now);
        self.spans.finish(p.span, SpanOutcome::ResolvedLocal, now);
    }

    /// Re-dispatches parked entry `k` of L2 `i` as a fill at `at`.
    fn wake_parked(&mut self, i: usize, k: usize, at: Cycle) {
        let p = &mut self.l2s[i].parked[k];
        p.woken = true;
        let ev = Ev::Fill {
            l2: L2Id::new(i as u8),
            line: p.line,
            state: p.state,
        };
        self.queue.push(at, ev);
    }

    /// The write-back-queue wake source, run whenever an entry of L2
    /// `i`'s queue retires: wakes the oldest un-woken parked fills until
    /// the woken count equals the free slots. Waking more would only
    /// re-park them.
    pub(super) fn wake_parked_fills(&mut self, i: usize, at: Cycle) {
        let l2 = &self.l2s[i];
        if l2.parked.is_empty() {
            return;
        }
        let free = l2.wbq.capacity() - l2.wbq.len();
        let mut woken = l2.parked.iter().filter(|p| p.woken).count();
        for k in 0..l2.parked.len() {
            if woken >= free {
                break;
            }
            if !self.l2s[i].parked[k].woken {
                self.wake_parked(i, k, at);
                woken += 1;
            }
        }
    }

    /// The invalidation wake source: a line just left L2 `i`'s tags,
    /// so parked fills whose set now has an invalid way can install
    /// without evicting.
    fn wake_fills_with_free_way(&mut self, i: usize) {
        let at = self.queue.now();
        for k in 0..self.l2s[i].parked.len() {
            let p = self.l2s[i].parked[k];
            if !p.woken && self.l2s[i].has_invalid_way(p.line) {
                self.wake_parked(i, k, at);
            }
        }
    }

    /// Downgrades an install state that a concurrent snarf or fill has
    /// made stale (the combined response was computed before the other
    /// line movement landed). Keeps the E/SL-uniqueness invariants.
    pub(super) fn sanitize_install(&self, i: usize, line: LineAddr, state: L2State) -> L2State {
        if !matches!(state, L2State::Exclusive | L2State::SharedLast) {
            return state;
        }
        let mut peer_any = false;
        let mut peer_intervener = false;
        for (j, l2) in self.l2s.iter().enumerate() {
            if j == i {
                continue;
            }
            if let Some(st) = l2.state_of(line) {
                peer_any = true;
                if st.can_intervene() {
                    peer_intervener = true;
                }
            }
        }
        match state {
            L2State::Exclusive if peer_any => {
                if peer_intervener {
                    L2State::Shared
                } else {
                    L2State::SharedLast
                }
            }
            L2State::SharedLast if peer_intervener => L2State::Shared,
            other => other,
        }
    }

    /// Invalidates `line` in every L2 except `keeper`, in their L1s, in
    /// peer write-back queues (the dirt, if any, has been claimed by the
    /// requester), and in the L3 (unless the L3 already invalidated as
    /// the data source, signalled by `l3_done`).
    pub(super) fn apply_invalidations(
        &mut self,
        keeper: L2Id,
        line: LineAddr,
        l3_done: Option<()>,
    ) {
        for j in 0..self.l2s.len() {
            if j == keeper.index() {
                continue;
            }
            if self.l2s[j].invalidate(line).is_some() {
                self.trace(line, &|| format!("invalidate L2#{j} (keeper {keeper})"));
                self.invalidate_l1s_of(j, line);
                self.finalize_snarf_flags(j, line);
                self.wake_fills_with_free_way(j);
            }
            if self.l2s[j].wbq.remove(line).is_some() {
                // The entry was claimed; if its castout was on the bus the
                // pending bus event finds the line off the bus and moves on.
                self.wake_parked_fills(j, self.queue.now());
            }
        }
        if l3_done.is_none() {
            match self.cfg.l3_organization {
                L3Organization::SharedVictim => self.l3.invalidate(line),
                L3Organization::PrivatePerL2 => {
                    // A stale copy may sit in any private L3 (the line
                    // may have been cast out by a previous owner).
                    for l3 in &mut self.private_l3s {
                        l3.invalidate(line);
                    }
                }
            }
        }
    }

    pub(super) fn invalidate_l1s_of(&mut self, l2_idx: usize, line: LineAddr) {
        if self.l1s.is_empty() {
            return;
        }
        let cores_per_l2 = self.cfg.cores as usize / self.cfg.num_l2 as usize;
        for c in l2_idx * cores_per_l2..(l2_idx + 1) * cores_per_l2 {
            self.l1s[c].invalidate(line);
        }
    }

    pub(super) fn finalize_snarf_flags(&mut self, l2_idx: usize, line: LineAddr) {
        if let Some(f) = self.l2s[l2_idx].retire_snarf_flags(line) {
            let used = f.used_locally || f.used_for_intervention;
            if !used {
                self.stats.snarf.evicted_unused += 1;
            }
            if let Some(a) = &mut self.audit {
                a.resolve_snarf(l2_idx, line.raw(), used);
            }
        }
    }

    pub(super) fn complete_miss(&mut self, now: Cycle, l2id: L2Id, line: LineAddr) {
        let i = l2id.index();
        let mut waiters = std::mem::take(&mut self.waiter_scratch);
        waiters.clear();
        let Some(t0) = self.l2s[i].mshrs.complete_into(line, &mut waiters) else {
            self.waiter_scratch = waiters;
            return;
        };
        self.stats.miss_latency.add(now.saturating_sub(t0));
        for &t in &waiters {
            let ti = t.index();
            self.threads[ti].outstanding = self.threads[ti].outstanding.saturating_sub(1);
            if !self.l1s.is_empty() {
                let core = self.cfg.core_of_thread(t);
                self.l1s[core].fill(line);
            }
            match self.threads[ti].park {
                Park::Outstanding => {
                    self.threads[ti].park = Park::Running;
                    let at = self.threads[ti].next_time.max(now);
                    self.queue.push(at, Ev::ThreadStep(t));
                }
                Park::Done => self.note_possible_completion(now, t),
                _ => {}
            }
        }
        self.waiter_scratch = waiters;
        // An MSHR freed: wake threads blocked on exhaustion.
        let waiting = std::mem::take(&mut self.l2s[i].waiting_threads);
        for t in waiting {
            let ti = t.index();
            if self.threads[ti].park == Park::MshrFull {
                self.threads[ti].park = Park::Running;
                let at = self.threads[ti].next_time.max(now);
                self.queue.push(at, Ev::ThreadStep(t));
            }
        }
    }

    pub(super) fn handle_snarf_fill(
        &mut self,
        now: Cycle,
        l2id: L2Id,
        line: LineAddr,
        dirty: bool,
    ) {
        let i = l2id.index();
        self.inbound_remove(i as u8, line.raw(), Self::INBOUND_SNARF);
        if self.l2s[i].state_of(line).is_some() {
            return;
        }
        // A peer may have re-fetched the line since the castout snooped
        // (combined responses are not atomic with data movement): if so,
        // the snarf is stale — drop clean data, forward dirty to the L3.
        let peer_has_copy = (0..self.l2s.len()).any(|j| {
            j != i
                && (self.l2s[j].state_of(line).is_some()
                    || self.l2s[j].wbq.contains(line)
                    || self.inbound_has(j as u8, line.raw(), Self::INBOUND_FILL))
        });
        match (!peer_has_copy)
            .then(|| self.l2s[i].snarf_victim(line))
            .flatten()
        {
            Some(way) => {
                let st = if dirty {
                    L2State::Modified
                } else {
                    L2State::SharedLast
                };
                let displaced = if let Some((vline, vst)) =
                    self.l2s[i].snarf_insert(line, way, st, self.policy.snarf_insert_pos())
                {
                    // Victims are Invalid or plain Shared: droppable.
                    debug_assert!(!vst.is_dirty(), "snarf displaced dirty line");
                    self.invalidate_l1s_of(i, vline);
                    self.finalize_snarf_flags(i, vline);
                    true
                } else {
                    false
                };
                if let Some(a) = &mut self.audit {
                    a.record_snarf(i, line.raw(), displaced);
                }
                self.trace(line, &|| format!("snarf-fill L2#{i}"));
                self.l2s[i]
                    .snarfed_lines
                    .insert(line.raw(), SnarfFlags::default());
                self.stats.snarf.snarfed += 1;
                self.stats.l2[i].snarfs_accepted += 1;
                // The snarf wake source: this L2's own demand fill for
                // the line was parked; it now completes as a hit.
                if let Some(k) = self.l2s[i].parked_index(line) {
                    if !self.l2s[i].parked[k].woken {
                        self.wake_parked(i, k, now);
                    }
                }
            }
            None => {
                // Resources changed since the snoop; fall back to the L3
                // (dirty data must not be dropped).
                if dirty {
                    match self.l3.accept_castout(now, line, true) {
                        Some((done, victim)) => {
                            if let Some(v) = victim {
                                self.mem.write(done, v);
                            }
                        }
                        None => {
                            self.mem.write(now, line);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use cmpsim_cache::{InsertPosition, LineAddr, WbEntry};
    use cmpsim_coherence::{L2Id, L2State};
    use cmpsim_engine::spans::{SpanKind, SpanPhase, SpanTracer};
    use cmpsim_engine::Cycle;
    use cmpsim_trace::ThreadId;

    use crate::policy::{PolicyConfig, SnarfConfig};
    use crate::system::system::Ev;
    use crate::system::testutil::system;
    use crate::system::System;

    /// The `k`-th line of the L2 set `base` maps to (same slice, same
    /// set, at the 1/16-scale geometry of `testutil::system`).
    fn in_set(sys: &System, base: u64, k: u64) -> LineAddr {
        let cfg = sys.config();
        let sets = cfg.l2_slice_bytes / cfg.line_bytes / cfg.l2_assoc;
        LineAddr::new(base + k * cfg.l2_slices * sets)
    }

    /// Fills every way of `base`'s set in L2#0 with clean shared lines.
    fn fill_set(sys: &mut System, base: u64) {
        for k in 0..sys.config().l2_assoc {
            let line = in_set(sys, base, k);
            sys.l2s[0].fill(line, L2State::Shared, InsertPosition::Mru);
        }
    }

    /// Fills L2#0's write-back queue to capacity.
    fn fill_wbq(sys: &mut System) {
        let mut raw = 1 << 30;
        while !sys.l2s[0].wbq.is_full() {
            let line = LineAddr::new(raw);
            assert!(sys.l2s[0].wbq.push(WbEntry { line, dirty: false }));
            raw += 1;
        }
    }

    /// Delivers a demand fill of `line` to L2#0 at `now`.
    fn deliver(sys: &mut System, now: Cycle, line: LineAddr) {
        sys.handle_fill(now, L2Id::new(0), line, L2State::SharedLast);
    }

    /// Every fill the event queue holds, in pop order.
    fn queued_fills(sys: &mut System) -> Vec<(Cycle, LineAddr)> {
        let mut fills = Vec::new();
        while let Some((t, ev)) = sys.queue.pop() {
            if let Ev::Fill { line, .. } = ev {
                fills.push((t, line));
            }
        }
        fills
    }

    /// Frees the oldest slot of L2#0's write-back queue at `now`, as a
    /// castout retiring would.
    fn retire_oldest_castout(sys: &mut System, now: Cycle) {
        let line = sys.l2s[0].wbq.nth(0).expect("queue not empty").line;
        sys.l2s[0].wbq.remove(line);
        sys.wake_parked_fills(0, now);
    }

    fn parked_lines(sys: &System) -> Vec<(LineAddr, bool)> {
        sys.l2s[0]
            .parked
            .iter()
            .map(|p| (p.line, p.woken))
            .collect()
    }

    #[test]
    fn freed_slot_wakes_only_the_oldest_parked_fill() {
        let mut sys = system(PolicyConfig::baseline());
        let spans = SpanTracer::sampled(1);
        sys.set_span_tracer(spans.clone());
        fill_set(&mut sys, 8);
        fill_wbq(&mut sys);
        let (a, b) = (in_set(&sys, 8, 100), in_set(&sys, 8, 101));
        deliver(&mut sys, 10, a);
        deliver(&mut sys, 12, b);
        assert_eq!(parked_lines(&sys), [(a, false), (b, false)]);
        assert_eq!(sys.stats.l2[0].fill_wbq_stalls, 2);
        assert!(sys.queue.is_empty(), "a parked fill schedules nothing");

        retire_oldest_castout(&mut sys, 30);
        assert_eq!(parked_lines(&sys), [(a, true), (b, false)]);
        assert_eq!(queued_fills(&mut sys), [(30, a)]);
        // The woken fill installs, evicting into the freed slot; the
        // pump re-run after it finds no slot left for the younger one.
        deliver(&mut sys, 30, a);
        assert!(sys.l2s[0].state_of(a).is_some());
        assert!(sys.l2s[0].wbq.is_full());
        assert_eq!(parked_lines(&sys), [(b, false)]);
        assert_eq!(sys.stats.l2[0].fill_wbq_stall_cycles, 20);
        assert_eq!(queued_fills(&mut sys), []);
        // The wait is a stall span of its own: one wbq_blocked segment.
        let stall = &spans.finished_spans()[0];
        assert_eq!(stall.kind, SpanKind::WbqStall);
        assert_eq!(stall.line, a.raw());
        assert_eq!(stall.marks, [(SpanPhase::WbqBlocked, 30)]);
        assert_eq!(stall.queue_wait(), 20);
    }

    #[test]
    fn invalidation_wakes_only_the_set_matching_fill() {
        let mut sys = system(PolicyConfig::baseline());
        fill_set(&mut sys, 8);
        fill_set(&mut sys, 12);
        fill_wbq(&mut sys);
        let (a, c) = (in_set(&sys, 8, 100), in_set(&sys, 12, 100));
        deliver(&mut sys, 10, a);
        deliver(&mut sys, 11, c);
        // A peer's RFO invalidates one line of `c`'s set in L2#0.
        let victim = in_set(&sys, 12, 3);
        sys.apply_invalidations(L2Id::new(1), victim, None);
        assert_eq!(parked_lines(&sys), [(a, false), (c, true)]);
        assert_eq!(queued_fills(&mut sys), [(0, c)]);
        // It installs into the invalid way without touching the queue.
        deliver(&mut sys, 40, c);
        assert!(sys.l2s[0].state_of(c).is_some());
        assert!(sys.l2s[0].wbq.is_full());
        assert_eq!(parked_lines(&sys), [(a, false)]);
    }

    #[test]
    fn snarf_of_a_parked_fills_line_completes_its_miss() {
        let mut sys = system(PolicyConfig::snarf(SnarfConfig::default()));
        sys.run(50); // thread contexts for the MSHR waiter
        sys.assert_invariants();
        let t0 = sys.queue.now();
        let misses_before = sys.stats.miss_latency.count();
        fill_set(&mut sys, 8);
        fill_wbq(&mut sys);
        let a = in_set(&sys, 8, 100);
        let t = ThreadId::new(0);
        assert_eq!(sys.l2s[0].mshrs.allocate(a, t, t0), Ok(true));
        sys.inbound_insert(0, a.raw(), System::INBOUND_FILL);
        deliver(&mut sys, t0 + 60, a);
        assert_eq!(parked_lines(&sys), [(a, false)]);

        // A peer's castout of the same line is snarfed into L2#0.
        sys.inbound_insert(0, a.raw(), System::INBOUND_SNARF);
        sys.handle_snarf_fill(t0 + 75, L2Id::new(0), a, false);
        assert_eq!(sys.l2s[0].state_of(a), Some(L2State::SharedLast));
        assert_eq!(parked_lines(&sys), [(a, true)]);
        assert_eq!(queued_fills(&mut sys), [(t0 + 75, a)]);
        deliver(&mut sys, t0 + 75, a);
        assert!(sys.l2s[0].parked.is_empty());
        assert!(sys.l2s[0].mshrs.is_empty(), "the miss completed");
        assert!(!sys.inbound_any(0, a.raw()));
        // The latency came from the issue time held in the MSHR.
        assert_eq!(sys.stats.miss_latency.count(), misses_before + 1);
        assert_eq!(sys.stats.l2[0].fill_wbq_stall_cycles, 15);
    }

    #[test]
    fn woken_fill_that_loses_the_slot_stays_parked_in_order() {
        let mut sys = system(PolicyConfig::baseline());
        fill_set(&mut sys, 8);
        fill_set(&mut sys, 12);
        fill_wbq(&mut sys);
        let (a, b) = (in_set(&sys, 8, 100), in_set(&sys, 8, 101));
        deliver(&mut sys, 10, a);
        deliver(&mut sys, 11, b);
        retire_oldest_castout(&mut sys, 20);
        assert_eq!(queued_fills(&mut sys), [(20, a)]);
        // A fresh fill in another set takes the slot before `a` runs.
        let fresh = in_set(&sys, 12, 100);
        deliver(&mut sys, 20, fresh);
        assert!(sys.l2s[0].wbq.is_full());
        deliver(&mut sys, 20, a);
        assert_eq!(parked_lines(&sys), [(a, false), (b, false)]);
        assert_eq!(
            sys.stats.l2[0].fill_wbq_stalls, 2,
            "re-parking is no new stall"
        );
        // The next free slot goes to `a` again: it kept its place.
        retire_oldest_castout(&mut sys, 25);
        assert_eq!(parked_lines(&sys), [(a, true), (b, false)]);
    }

    #[test]
    fn sanitize_demotes_exclusive_against_peers() {
        let mut sys = system(PolicyConfig::baseline());
        let line = LineAddr::new(100);
        sys.l2s[0].fill(line, L2State::SharedLast, InsertPosition::Mru);
        // Installing E at L2#1 while L2#0 holds an intervener: demote to S.
        assert_eq!(
            sys.sanitize_install(1, line, L2State::Exclusive),
            L2State::Shared
        );
        // SL against an SL holder also demotes.
        assert_eq!(
            sys.sanitize_install(1, line, L2State::SharedLast),
            L2State::Shared
        );
        // Against a plain-S holder, E demotes to SL (keeps intervention).
        sys.l2s[0].set_state(line, L2State::Shared);
        assert_eq!(
            sys.sanitize_install(1, line, L2State::Exclusive),
            L2State::SharedLast
        );
        // With no peers at all, E survives.
        sys.l2s[0].invalidate(line);
        assert_eq!(
            sys.sanitize_install(1, line, L2State::Exclusive),
            L2State::Exclusive
        );
    }

    #[test]
    fn apply_invalidations_clears_tags_queues_and_l1s() {
        let mut sys = system(PolicyConfig::baseline());
        let line = LineAddr::new(64);
        sys.l2s[1].fill(line, L2State::Shared, InsertPosition::Mru);
        sys.l2s[2]
            .wbq
            .push(cmpsim_cache::WbEntry { line, dirty: false });
        sys.l1s[2].fill(line); // core 2 belongs to L2#1
        sys.apply_invalidations(L2Id::new(0), line, None);
        assert_eq!(sys.l2s[1].state_of(line), None);
        assert!(!sys.l2s[2].wbq.contains(line));
        assert!(!sys.l1s[2].load(line));
        assert!(!sys.l3.peek(line));
    }
}
