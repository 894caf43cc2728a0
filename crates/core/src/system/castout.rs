//! Write-back layer: L2 eviction into the snoopable write-back queue,
//! policy filtering at drain time (WBHT, reuse-distance copy-back),
//! castout bus issue (ring or private L3 bus), squash/snarf/accept
//! outcome handling, and redundant-clean-WB accounting.

use cmpsim_cache::LineAddr;
use cmpsim_coherence::{
    AgentId, BusTxn, CombinedResponse, L2Id, L2State, SnoopResponse, TxnKind, TxnPath, TxnState,
    WbOutcome,
};
use cmpsim_engine::spans::{SpanOutcome, SpanPhase};
use cmpsim_engine::telemetry::{SimEvent, SquashReason};
use cmpsim_engine::Cycle;

use crate::config::L3Organization;
use crate::policy::{CastoutCtx, CastoutDecision};
use crate::system::system::Ev;
use crate::system::System;

impl System {
    pub(super) fn bus_issue_castout(&mut self, now: Cycle, state: TxnState, dirty: bool) {
        let TxnState { txn, attempt, .. } = state;
        let i = txn.src.index();
        let line = txn.line;
        let sid = txn.span_id();
        // The entry may have been claimed (RFO) since the drain picked
        // it, taking the line off the bus.
        if !self.l2s[i].wbq.on_bus(line) {
            self.spans.finish(sid, SpanOutcome::ResolvedLocal, now);
            self.queue.push(now, Ev::WbDrain(txn.src));
            return;
        }
        // First attempt: the segment since span start is the drain-to-bus
        // issue gap. Retries: back-off queueing.
        if attempt == 0 {
            self.spans.mark(sid, SpanPhase::Issue, now);
        } else {
            self.spans.mark(sid, SpanPhase::RetryBackoff, now);
        }
        if self.cfg.l3_organization == L3Organization::PrivatePerL2 {
            self.private_castout(now, txn, dirty, attempt);
            return;
        }

        if attempt == 0 {
            if dirty {
                self.stats.wb.dirty_requests += 1;
            } else {
                self.stats.wb.clean_requests += 1;
            }
            self.stats.wb_reuse.total += 1;
            // New write-back generation: overwriting clears any stale
            // accepted mark from an earlier castout of the same line.
            self.wb_lines.insert(line.raw(), false);
            self.policy.on_castout_issued(line);
            let snarf_eligible = txn.snarf_eligible;
            self.telemetry.emit(now, || SimEvent::CastoutIssued {
                l2: i as u32,
                line: line.raw(),
                dirty,
                snarf_eligible,
            });
        } else {
            self.stats.wb.retried_attempts += 1;
        }

        let src_agent = AgentId::L2(txn.src);
        let (arb_wait, t_ring) = self.ring.issue_address_timed(now, src_agent);
        self.spans.mark(sid, SpanPhase::RingArb, now + arb_wait);
        self.spans.mark(sid, SpanPhase::RingTransit, t_ring);

        // Snoop phase (squash/snarf responses: see the snoop layer).
        // Wall time here is carved out for `HostStage::Snoop` when the
        // host profiler sampled this dispatch.
        let t_snoop = if self.host_sampling {
            cmpsim_engine::profiler::now_ticks()
        } else {
            0
        };
        let (responses, t_collect) = self.collect_castout_snoops(&txn, dirty, t_ring);
        if self.host_sampling {
            self.host_nested += cmpsim_engine::profiler::now_ticks().saturating_sub(t_snoop);
        }

        let combined = self.collector.combine(&txn, &responses);
        self.snoop_scratch = responses;
        let t_seen = self.ring.combined_arrival(t_collect, src_agent);
        self.spans.mark(sid, SpanPhase::SnoopWindow, t_seen);

        let outcome = match combined {
            CombinedResponse::Retry { l3_issued } => {
                self.record_retry(t_seen, l3_issued);
                self.queue.push(
                    t_seen + self.retry_delay(&txn, attempt),
                    Ev::BusIssue(TxnState {
                        txn,
                        path: TxnPath::Castout { dirty },
                        attempt: attempt + 1,
                    }),
                );
                return;
            }
            CombinedResponse::Wb(o) => o,
            other => unreachable!("read response {other:?} to a castout"),
        };

        self.trace(line, &|| {
            format!("castout {} from {} outcome {outcome:?}", txn.kind, txn.src)
        });
        if txn.snarf_eligible {
            let winner = match outcome {
                WbOutcome::SnarfedBy(p) => Some(p.index() as u32),
                _ => None,
            };
            self.policy
                .on_snarf_arbitration(t_seen, i as u32, line, winner);
        }
        if let Some(a) = &mut self.audit {
            // Terminal outcome for an audited allow verdict: an
            // already-in-L3 squash marks it a missed abort.
            a.resolve_allow(
                i,
                line.raw(),
                matches!(outcome, WbOutcome::SquashedAlreadyInL3),
            );
        }
        match outcome {
            WbOutcome::SquashedAlreadyInL3 => {
                self.spans.finish(sid, SpanOutcome::Squashed, t_seen);
                self.stats.wb.clean_squashed_l3 += 1;
                self.telemetry.emit(t_seen, || SimEvent::CastoutSquashed {
                    l2: i as u32,
                    line: line.raw(),
                    reason: SquashReason::AlreadyInL3,
                });
                self.policy.note_redundant_copy_back(t_seen, txn.src, line);
            }
            WbOutcome::SquashedPeerHasCopy(p) => {
                self.spans.finish(sid, SpanOutcome::Squashed, t_seen);
                self.stats.wb.squashed_peer += 1;
                self.telemetry.emit(t_seen, || SimEvent::CastoutSquashed {
                    l2: i as u32,
                    line: line.raw(),
                    reason: SquashReason::PeerHasCopy,
                });
                if dirty {
                    // Ownership transfer: the peer's clean copy becomes
                    // the dirty owner without a data transfer.
                    let pj = p.index();
                    if let Some(cur) = self.l2s[pj].state_of(line) {
                        if !cur.is_dirty() {
                            self.l2s[pj].set_state(line, L2State::Tagged);
                        }
                    }
                }
            }
            WbOutcome::SnarfedBy(p) => {
                self.stats.wb.snarfed += 1;
                self.telemetry.emit(t_seen, || SimEvent::CastoutSnarfed {
                    l2: i as u32,
                    by: p.index() as u32,
                    line: line.raw(),
                });
                self.inbound_insert(p.index() as u8, line.raw(), Self::INBOUND_SNARF);
                let arrival = self.ring.transfer_data(t_seen, src_agent, AgentId::L2(p));
                self.spans.mark(sid, SpanPhase::DataReturn, arrival);
                self.spans.finish(sid, SpanOutcome::Snarfed, arrival);
                self.queue
                    .push(arrival, Ev::SnarfFill { l2: p, line, dirty });
            }
            WbOutcome::AcceptedByL3 { .. } => {
                let t_arr = self.l3_link.reserve_for(t_seen, self.cfg.l3_link_occupancy)
                    + self.cfg.l3_link_delay;
                self.spans.mark(sid, SpanPhase::DataReturn, t_arr);
                match self.l3.accept_castout_timed(t_arr, line, dirty) {
                    Some((done, victim, l3_wait)) => {
                        self.spans.mark(sid, SpanPhase::L3Queue, t_arr + l3_wait);
                        self.spans.mark(sid, SpanPhase::L3Service, done);
                        self.spans.finish(sid, SpanOutcome::AcceptedL3, done);
                        self.stats.wb.accepted_l3 += 1;
                        self.telemetry.emit(t_arr, || SimEvent::CastoutAccepted {
                            l2: i as u32,
                            line: line.raw(),
                        });
                        if let Some(accepted) = self.wb_lines.get_mut(&line.raw()) {
                            *accepted = true;
                        }
                        self.stats.wb_reuse.accepted += 1;
                        if let Some(v) = victim {
                            self.mem.write(done, v);
                        }
                    }
                    None => {
                        // Queue filled between snoop and data arrival.
                        self.record_retry(t_arr, true);
                        self.queue.push(
                            t_arr + self.retry_delay(&txn, attempt),
                            Ev::BusIssue(TxnState {
                                txn,
                                path: TxnPath::Castout { dirty },
                                attempt: attempt + 1,
                            }),
                        );
                        return;
                    }
                }
            }
        }

        // Resolution: retire the entry (the line's oldest, the one on
        // the bus) and continue draining.
        self.l2s[i].wbq.remove(line);
        self.queue.push(t_seen + 1, Ev::WbDrain(txn.src));
        self.wake_parked_fills(i, now);
    }

    /// Castout over a dedicated private-L3 bus (§7 organization): no
    /// ring address phase, no peer snoops, no Snoop Collector — and
    /// therefore no snarfing. The WBHT still learns from the private
    /// bus's squash responses.
    fn private_castout(&mut self, now: Cycle, txn: BusTxn, dirty: bool, attempt: u32) {
        let i = txn.src.index();
        let line = txn.line;
        let sid = txn.span_id();
        if attempt == 0 {
            if dirty {
                self.stats.wb.dirty_requests += 1;
            } else {
                self.stats.wb.clean_requests += 1;
            }
            self.stats.wb_reuse.total += 1;
            self.wb_lines.insert(line.raw(), false);
            self.telemetry.emit(now, || SimEvent::CastoutIssued {
                l2: i as u32,
                line: line.raw(),
                dirty,
                snarf_eligible: false,
            });
        } else {
            self.stats.wb.retried_attempts += 1;
        }
        let occ = self.cfg.l3_link_occupancy;
        let delay = self.cfg.l3_link_delay;
        let arrive = self.private_l3_links[i].reserve_for(now, occ) + delay;
        self.spans.mark(sid, SpanPhase::DataReturn, arrive);
        let resp = self.l3_for(i).snoop_castout(arrive, line, dirty);
        self.trace(line, &|| {
            format!("private castout from {} -> {resp:?}", txn.src)
        });
        if !matches!(&resp, SnoopResponse::L3Retry) {
            if let Some(a) = &mut self.audit {
                a.resolve_allow(
                    i,
                    line.raw(),
                    matches!(&resp, SnoopResponse::L3Hit(_)) && !dirty,
                );
            }
        }
        match resp {
            SnoopResponse::L3Hit(_) if !dirty => {
                self.spans.finish(sid, SpanOutcome::Squashed, arrive);
                self.stats.wb.clean_squashed_l3 += 1;
                self.telemetry.emit(arrive, || SimEvent::CastoutSquashed {
                    l2: i as u32,
                    line: line.raw(),
                    reason: SquashReason::AlreadyInL3,
                });
                self.policy.note_redundant_copy_back(arrive, txn.src, line);
            }
            SnoopResponse::L3Hit(_) | SnoopResponse::L3Accept => {
                match self.l3_for(i).accept_castout_timed(arrive, line, dirty) {
                    Some((done, victim, l3_wait)) => {
                        self.spans.mark(sid, SpanPhase::L3Queue, arrive + l3_wait);
                        self.spans.mark(sid, SpanPhase::L3Service, done);
                        self.spans.finish(sid, SpanOutcome::AcceptedL3, done);
                        self.stats.wb.accepted_l3 += 1;
                        self.telemetry.emit(arrive, || SimEvent::CastoutAccepted {
                            l2: i as u32,
                            line: line.raw(),
                        });
                        if let Some(accepted) = self.wb_lines.get_mut(&line.raw()) {
                            *accepted = true;
                        }
                        self.stats.wb_reuse.accepted += 1;
                        if let Some(v) = victim {
                            self.mem.write(done, v);
                        }
                    }
                    None => {
                        self.record_retry(arrive, true);
                        self.queue.push(
                            arrive + self.retry_delay(&txn, attempt),
                            Ev::BusIssue(TxnState {
                                txn,
                                path: TxnPath::Castout { dirty },
                                attempt: attempt + 1,
                            }),
                        );
                        return;
                    }
                }
            }
            SnoopResponse::L3Retry => {
                self.record_retry(arrive, true);
                self.queue.push(
                    arrive + self.retry_delay(&txn, attempt),
                    Ev::BusIssue(TxnState {
                        txn,
                        path: TxnPath::Castout { dirty },
                        attempt: attempt + 1,
                    }),
                );
                return;
            }
            other => unreachable!("private L3 castout response {other:?}"),
        }
        self.l2s[i].wbq.remove(line);
        self.queue.push(arrive + 1, Ev::WbDrain(txn.src));
        self.wake_parked_fills(i, now);
    }

    pub(super) fn handle_wb_drain(&mut self, now: Cycle, l2id: L2Id) {
        let i = l2id.index();
        loop {
            if self.l2s[i].wbq.in_flight() >= self.cfg.castout_inflight_max {
                return;
            }
            // Oldest entry whose line is not already on the bus.
            let Some(entry) = self.l2s[i].wbq.next_to_issue() else {
                return;
            };
            // Policy filtering: consulted off the miss path, after the
            // victim entered the queue (§2).
            if !entry.dirty && self.policy.caps().filters_clean_castouts {
                let engaged = self.policy.castout_gate_engaged(now);
                // The oracle peek feeds only engaged WBHT verdicts.
                let in_l3 = engaged
                    && match self.cfg.l3_organization {
                        L3Organization::SharedVictim => self.l3.peek(entry.line),
                        L3Organization::PrivatePerL2 => self.private_l3s[i].peek(entry.line),
                    };
                let ctx = CastoutCtx {
                    now,
                    l2: i,
                    line: entry.line,
                    engaged,
                    in_l3,
                };
                let abort = self.policy.on_castout_candidate(&ctx) == CastoutDecision::Abort;
                if let Some(a) = &mut self.audit {
                    a.record_wbht_decision(i, entry.line.raw(), engaged, abort);
                }
                if abort {
                    self.l2s[i].wbq.remove(entry.line);
                    self.wake_parked_fills(i, now);
                    self.stats.wb.clean_aborted += 1;
                    self.telemetry.emit(now, || SimEvent::CastoutAborted {
                        l2: i as u32,
                        line: entry.line.raw(),
                    });
                    continue;
                }
            }
            let eligible = self.policy.snarf_eligible(entry.line);
            let mut txn = BusTxn::new(
                self.txn_seq.bump(),
                if entry.dirty {
                    TxnKind::CastoutDirty
                } else {
                    TxnKind::CastoutClean
                },
                entry.line,
                l2id,
            );
            if eligible {
                txn = txn.with_snarf();
            }
            self.spans.start(
                txn.span_id(),
                txn.span_kind(),
                i as u32,
                entry.line.raw(),
                now,
            );
            self.l2s[i].wbq.mark_on_bus(entry.line);
            self.queue
                .push(now + 1, Ev::BusIssue(TxnState::castout(txn, entry.dirty)));
            // Loop: issue more if the concurrency limit allows.
        }
    }

    pub(super) fn on_l2_eviction(&mut self, now: Cycle, i: usize, vline: LineAddr, vst: L2State) {
        self.trace(vline, &|| format!("evict L2#{i} state={vst} -> wbq"));
        self.invalidate_l1s_of(i, vline);
        self.finalize_snarf_flags(i, vline);
        let pushed = self.l2s[i].wbq.push(cmpsim_cache::WbEntry {
            line: vline,
            dirty: vst.is_dirty(),
        });
        debug_assert!(pushed, "wbq overflow despite fill gating");
        if self.l2s[i].wbq.in_flight() < self.cfg.castout_inflight_max {
            self.queue.push(
                now.max(self.queue.now()) + 1,
                Ev::WbDrain(L2Id::new(i as u8)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use cmpsim_cache::{LineAddr, WbEntry};
    use cmpsim_coherence::{BusTxn, L2Id, TxnKind, TxnState};
    use cmpsim_engine::Cycle;

    use crate::config::{L3Organization, SystemConfig};
    use crate::policy::{PolicyConfig, UpdateScope, WbhtConfig};
    use crate::system::system::Ev;
    use crate::system::testutil::{system, tiny_workload};
    use crate::system::System;

    /// Cycle the L3 data-in slots are jammed from (far past the test's
    /// early castouts) and a cycle safely after the jam has cleared.
    const JAM: Cycle = 10_000;
    const LATE: Cycle = 20_000;

    /// Pops events up to and including the next bus transaction.
    fn next_bus_issue(sys: &mut System) -> (Cycle, TxnState) {
        while let Some((t, ev)) = sys.queue.pop() {
            match ev {
                Ev::BusIssue(state) => return (t, state),
                other => sys.dispatch(t, other),
            }
        }
        panic!("no bus transaction queued");
    }

    /// Queues a castout of `line` in L2#0 and drains it onto the bus,
    /// returning its first bus transaction.
    fn drain_castout(sys: &mut System, line: LineAddr, dirty: bool) -> (Cycle, TxnState) {
        assert!(sys.l2s[0].wbq.push(WbEntry { line, dirty }));
        sys.handle_wb_drain(sys.queue.now(), L2Id::new(0));
        assert!(sys.l2s[0].wbq.on_bus(line));
        next_bus_issue(sys)
    }

    /// L2#1's demand read of `line` on the bus (its fill stays queued).
    fn demand_read(sys: &mut System, line: LineAddr) {
        let txn = BusTxn::new(sys.txn_seq.bump(), TxnKind::ReadShared, line, L2Id::new(1));
        sys.handle_bus_issue(sys.queue.now(), TxnState::miss(txn));
    }

    /// Holds every data-in slot of the L3 slice L2#0 casts `line` out to
    /// from [`JAM`] on, so a castout snooped before then is retried.
    fn jam_l3(sys: &mut System, line: LineAddr) {
        for k in 1..=64u64 {
            let filler = LineAddr::new(line.raw() + (k << 20));
            sys.l3_for(0).accept_castout_timed(JAM, filler, false);
        }
    }

    /// The Table 2 reuse accounting (`wb_lines`) through one line's
    /// castout generations, on the shared and the private-L3 bus.
    #[test]
    fn wb_lines_track_each_write_back_generation() {
        for org in [L3Organization::SharedVictim, L3Organization::PrivatePerL2] {
            let mut cfg = SystemConfig::scaled(16);
            cfg.l3_organization = org;
            let mut sys = System::new(cfg, tiny_workload()).unwrap();
            let [a, b, c] = [0x40, 0x41, 0x42].map(LineAddr::new);
            let pending = |sys: &System, line: LineAddr| sys.wb_lines.get(&line.raw()).copied();

            // `a`: the first attempt is retried, and records the line as
            // pending, not accepted.
            jam_l3(&mut sys, a);
            let (t, first) = drain_castout(&mut sys, a, false);
            sys.handle_bus_issue(t, first);
            assert_eq!(pending(&sys, a), Some(false), "{org:?}");
            assert_eq!(sys.stats.wb_reuse.total, 1);
            assert_eq!(sys.stats.wb.retried_attempts, 0);
            // A demand read while the retry waits counts the reuse and
            // clears the entry.
            demand_read(&mut sys, a);
            assert_eq!(pending(&sys, a), None, "{org:?}");
            assert_eq!(sys.stats.wb_reuse.reused_total, 1);
            assert_eq!(sys.stats.wb_reuse.reused_accepted, 0);
            // The retry, once the jam clears, is accepted but does not
            // record the line again.
            let (_, retry) = next_bus_issue(&mut sys);
            assert_eq!(retry.attempt, 1);
            sys.handle_bus_issue(LATE, retry);
            assert_eq!(pending(&sys, a), None, "{org:?}");
            assert_eq!(sys.stats.wb.retried_attempts, 1);
            assert_eq!(sys.stats.wb_reuse.total, 1);
            assert_eq!(sys.stats.wb_reuse.accepted, 1);
            assert!(!sys.l2s[0].wbq.contains(a));

            // `b`: an L3 accept marks it accepted; the next write-back
            // generation (re-installed, evicted again) resets the mark.
            // The L3 now holds the clean line, so that castout is
            // squashed and stays unaccepted.
            let (t, first) = drain_castout(&mut sys, b, false);
            sys.handle_bus_issue(t, first);
            assert_eq!(pending(&sys, b), Some(true), "{org:?}");
            let (t, first) = drain_castout(&mut sys, b, false);
            sys.handle_bus_issue(t, first);
            assert_eq!(pending(&sys, b), Some(false), "{org:?}");
            assert_eq!(sys.stats.wb.clean_squashed_l3, 1);
            demand_read(&mut sys, b);
            assert_eq!(pending(&sys, b), None, "{org:?}");
            assert_eq!(sys.stats.wb_reuse.reused_total, 2);
            assert_eq!(sys.stats.wb_reuse.reused_accepted, 0);

            // `c`: the re-read of an accepted write-back counts as reuse
            // of an accepted one too.
            let (t, first) = drain_castout(&mut sys, c, true);
            sys.handle_bus_issue(t, first);
            assert_eq!(pending(&sys, c), Some(true), "{org:?}");
            demand_read(&mut sys, c);
            assert_eq!(pending(&sys, c), None, "{org:?}");
            assert_eq!(sys.stats.wb_reuse.reused_total, 3);
            assert_eq!(sys.stats.wb_reuse.reused_accepted, 1);
            assert!(sys.wb_lines.is_empty());
            assert_eq!(sys.stats.wb_reuse.total, 4);
            assert_eq!(sys.stats.wb_reuse.accepted, 3);
        }
    }

    #[test]
    fn global_scope_notes_redundant_in_every_table() {
        let mut sys = system(PolicyConfig::wbht(WbhtConfig {
            entries: 256,
            assoc: 16,
            scope: UpdateScope::Global,
            granularity: 1,
        }));
        let line = LineAddr::new(16);
        sys.policy.note_redundant_copy_back(0, L2Id::new(0), line);
        for i in 0..sys.l2s.len() {
            assert!(sys.policy.knows_line(i, line));
        }
        // Local scope: only the writer's table.
        let mut sys = system(PolicyConfig::wbht(WbhtConfig {
            entries: 256,
            assoc: 16,
            scope: UpdateScope::Local,
            granularity: 1,
        }));
        sys.policy.note_redundant_copy_back(0, L2Id::new(2), line);
        for i in 0..sys.l2s.len() {
            assert_eq!(sys.policy.knows_line(i, line), i == 2);
        }
    }
}
