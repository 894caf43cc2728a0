//! The pluggable policy framework: the [`CachePolicy`] trait and the
//! [`PolicyStack`] the system dispatches through.
//!
//! Each adaptive mechanism (WBHT, snarf, reuse-distance copy-back,
//! hybrid update/invalidate) implements [`CachePolicy`] and plugs into
//! a [`PolicyStack`] owned by the `System`. The pipeline stages call
//! fixed hook points on the stack instead of reaching into concrete
//! mechanism state, so policies compose freely and new ones ride along
//! without touching the pipeline.
//!
//! # Hook points and ordering guarantees
//!
//! | Hook                        | Pipeline stage (caller)               |
//! |-----------------------------|---------------------------------------|
//! | `on_castout_candidate`      | `castout::handle_wb_drain`, clean victims only, after the retry-switch gate is sampled and the L3 presence peek is taken |
//! | `on_castout_issued`         | `castout::bus_issue_castout`, first attempt only, before the castout telemetry event |
//! | `snarf_eligible`            | `castout::handle_wb_drain`, after the abort decision allowed the write-back |
//! | `on_snarf_arbitration`      | `castout::bus_issue_castout`, at combine time, before audit allow-resolution |
//! | `observe_combined_response` | `bus_issue::apply_read`, after write-back-reuse accounting, before the install matrix |
//! | `note_redundant_copy_back`  | `castout` squash paths (shared and private L3), at combine time |
//! | `on_store_to_shared`        | `frontend::process_reference`, stores hitting non-writable lines, before the Upgrade is issued |
//! | `knows_line`                | `fill` victim selection (history-aware replacement) |
//!
//! Policies are consulted in stack order (WBHT, reuse-distance,
//! snarf, hybrid); the first abort/update verdict short-circuits.
//! Decision lineage: the `System` records every castout verdict and
//! coherence action with the decision-audit layer, so plugged-in
//! policies inherit abort-precision/useful-snarf-style outcome
//! tracking without audit-specific code of their own.

use std::any::Any;

use cmpsim_cache::{GeometryError, InsertPosition, LineAddr};
use cmpsim_coherence::L2Id;
use cmpsim_engine::telemetry::Telemetry;
use cmpsim_engine::Cycle;

use super::hybrid::{CoherenceAction, HybridStats, HybridUpdateInvalidate};
use super::rdcb::{RdcbStats, ReuseDistanceCopyBack};
use super::retry_switch::{RetrySwitch, RetrySwitchConfig};
use super::snarf::{SnarfStats, SnarfTable};
use super::wbht::{UpdateScope, Wbht, WbhtStats};
use super::PolicyConfig;

/// What a policy participates in; the union across a stack lets the
/// pipeline skip whole hook sites (and their context computation) when
/// no plugged-in policy cares, keeping the baseline path byte-identical
/// to a build without the framework.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyCaps {
    /// Consulted on clean castout candidates (may veto the write-back).
    pub filters_clean_castouts: bool,
    /// The castout-candidate gate samples the retry-rate switch.
    pub uses_retry_switch: bool,
    /// Participates in castout snarfing (reuse table + placement).
    pub snarfs_castouts: bool,
    /// Decides update-vs-invalidate on stores to shared lines.
    pub adapts_coherence: bool,
    /// Supplies line-history knowledge to victim selection.
    pub knows_lines: bool,
}

impl PolicyCaps {
    fn union(self, other: PolicyCaps) -> PolicyCaps {
        PolicyCaps {
            filters_clean_castouts: self.filters_clean_castouts || other.filters_clean_castouts,
            uses_retry_switch: self.uses_retry_switch || other.uses_retry_switch,
            snarfs_castouts: self.snarfs_castouts || other.snarfs_castouts,
            adapts_coherence: self.adapts_coherence || other.adapts_coherence,
            knows_lines: self.knows_lines || other.knows_lines,
        }
    }
}

/// Context for a clean castout candidate about to drain from a WBQ.
#[derive(Debug, Clone, Copy)]
pub struct CastoutCtx {
    /// Drain time.
    pub now: Cycle,
    /// The evicting L2.
    pub l2: usize,
    /// The clean victim line.
    pub line: LineAddr,
    /// Retry-rate switch state at `now` (`true` when no stacked policy
    /// uses the switch).
    pub engaged: bool,
    /// Whether the L3 (shared or this L2's private slice) already holds
    /// the line: the oracle behind the WBHT's correctness statistic.
    /// Only peeked when `engaged` (a disengaged verdict never reads it);
    /// `false` otherwise.
    pub in_l3: bool,
}

/// Verdict for a castout candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastoutDecision {
    /// Let the write-back proceed.
    Allow,
    /// Drop the clean victim without writing it back.
    Abort,
}

/// Context for a combined read/read-exclusive response (a miss that is
/// about to fill).
#[derive(Debug, Clone, Copy)]
pub struct ResponseCtx {
    /// Combine time.
    pub now: Cycle,
    /// The requesting L2.
    pub l2: usize,
    /// The missing line.
    pub line: LineAddr,
}

/// A pluggable adaptive cache-management policy.
///
/// Every hook has a no-op default so a policy only implements the
/// stages it participates in; [`CachePolicy::caps`] must advertise
/// exactly those stages (the stack trusts it to skip hook sites).
pub trait CachePolicy {
    /// Short stable name (used in labels and reports).
    fn name(&self) -> &'static str;

    /// The pipeline stages this policy participates in.
    fn caps(&self) -> PolicyCaps;

    /// Attaches an event-trace handle to the policy's internals.
    fn attach_telemetry(&mut self, _telemetry: &Telemetry) {}

    /// Clean castout candidate: allow or veto the write-back.
    fn on_castout_candidate(&mut self, _ctx: &CastoutCtx) -> CastoutDecision {
        CastoutDecision::Allow
    }

    /// A castout transaction was put on the ring (first attempt only).
    fn on_castout_issued(&mut self, _line: LineAddr) {}

    /// Should this write-back be offered to peer L2s for snarfing?
    fn snarf_eligible(&mut self, _line: LineAddr) -> bool {
        false
    }

    /// A snarf-eligible castout combined; `winner` is the accepting L2.
    fn on_snarf_arbitration(&self, _now: Cycle, _l2: u32, _line: LineAddr, _winner: Option<u32>) {}

    /// A miss for `line` by `l2` combined (the line is about to fill).
    fn observe_combined_response(&mut self, _ctx: &ResponseCtx) {}

    /// A clean write-back from `src` was squashed as redundant.
    fn note_redundant_copy_back(&mut self, _now: Cycle, _src: L2Id, _line: LineAddr) {}

    /// Does this policy's history say `l2` recently saw `line`?
    fn knows_line(&self, _l2: usize, _line: LineAddr) -> bool {
        false
    }

    /// Insert position for lines this policy places into peers.
    fn snarf_insert_pos(&self) -> Option<InsertPosition> {
        None
    }

    /// Store hit a non-writable (shared) line: update or invalidate?
    fn on_store_to_shared(&mut self, _now: Cycle, _line: LineAddr) -> Option<CoherenceAction> {
        None
    }

    /// Downcast access for concrete-stats reporting.
    fn as_any(&self) -> &dyn Any;
}

/// The write-back history table as a plugged-in policy (one table per
/// L2, scope-aware redundancy updates, gated by the retry-rate switch).
pub struct WbhtPolicy {
    tables: Vec<Wbht>,
    scope: UpdateScope,
}

impl CachePolicy for WbhtPolicy {
    fn name(&self) -> &'static str {
        "wbht"
    }

    fn caps(&self) -> PolicyCaps {
        PolicyCaps {
            filters_clean_castouts: true,
            uses_retry_switch: true,
            knows_lines: true,
            ..Default::default()
        }
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        for (i, w) in self.tables.iter_mut().enumerate() {
            w.attach_telemetry(telemetry.clone(), i as u32);
        }
    }

    fn on_castout_candidate(&mut self, ctx: &CastoutCtx) -> CastoutDecision {
        if self.tables[ctx.l2].should_abort(ctx.now, ctx.line, ctx.engaged, ctx.in_l3) {
            CastoutDecision::Abort
        } else {
            CastoutDecision::Allow
        }
    }

    fn note_redundant_copy_back(&mut self, now: Cycle, src: L2Id, line: LineAddr) {
        match self.scope {
            UpdateScope::Local => self.tables[src.index()].note_redundant(now, line),
            UpdateScope::Global => {
                for w in &mut self.tables {
                    w.note_redundant(now, line);
                }
            }
        }
    }

    fn knows_line(&self, l2: usize, line: LineAddr) -> bool {
        self.tables[l2].knows(line)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The snarf mechanism as a plugged-in policy (chip-wide reuse table
/// plus the peer-placement insert position).
pub struct SnarfPolicy {
    table: SnarfTable,
    insert_pos: InsertPosition,
}

impl CachePolicy for SnarfPolicy {
    fn name(&self) -> &'static str {
        "snarf"
    }

    fn caps(&self) -> PolicyCaps {
        PolicyCaps {
            snarfs_castouts: true,
            ..Default::default()
        }
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.table.attach_telemetry(telemetry.clone());
    }

    fn on_castout_issued(&mut self, line: LineAddr) {
        self.table.observe_writeback(line);
    }

    fn snarf_eligible(&mut self, line: LineAddr) -> bool {
        self.table.check_eligible(line)
    }

    fn on_snarf_arbitration(&self, now: Cycle, l2: u32, line: LineAddr, winner: Option<u32>) {
        self.table.record_arbitration(now, l2, line, winner);
    }

    fn observe_combined_response(&mut self, ctx: &ResponseCtx) {
        self.table.observe_miss(ctx.line);
    }

    fn snarf_insert_pos(&self) -> Option<InsertPosition> {
        Some(self.insert_pos)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Reuse-distance copy-back as a plugged-in policy (one sampled
/// predictor per L2).
pub struct RdcbPolicy {
    predictors: Vec<ReuseDistanceCopyBack>,
}

impl CachePolicy for RdcbPolicy {
    fn name(&self) -> &'static str {
        "rdcb"
    }

    fn caps(&self) -> PolicyCaps {
        PolicyCaps {
            filters_clean_castouts: true,
            ..Default::default()
        }
    }

    fn on_castout_candidate(&mut self, ctx: &CastoutCtx) -> CastoutDecision {
        if self.predictors[ctx.l2].should_abort(ctx.line) {
            CastoutDecision::Abort
        } else {
            CastoutDecision::Allow
        }
    }

    fn observe_combined_response(&mut self, ctx: &ResponseCtx) {
        self.predictors[ctx.l2].observe_miss(ctx.line);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Hybrid update/invalidate as a plugged-in policy (chip-wide mode
/// table).
pub struct HybridPolicy {
    dir: HybridUpdateInvalidate,
}

impl CachePolicy for HybridPolicy {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn caps(&self) -> PolicyCaps {
        PolicyCaps {
            adapts_coherence: true,
            ..Default::default()
        }
    }

    fn observe_combined_response(&mut self, ctx: &ResponseCtx) {
        self.dir.observe_miss(ctx.now, ctx.line);
    }

    fn on_store_to_shared(&mut self, now: Cycle, line: LineAddr) -> Option<CoherenceAction> {
        Some(self.dir.on_store_to_shared(now, line))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The ordered set of plugged-in policies the `System` dispatches
/// through, plus the shared retry-rate switch they may consult.
///
/// Hook methods mirror [`CachePolicy`]; the stack consults policies in
/// order and short-circuits on the first decisive verdict. Capability
/// queries ([`PolicyStack::caps`]) let hot paths skip hook sites whose
/// context (retry-switch state, L3 presence) would otherwise have to be
/// computed.
pub struct PolicyStack {
    policies: Vec<Box<dyn CachePolicy + Send>>,
    retry_switch: RetrySwitch,
    caps: PolicyCaps,
}

impl std::fmt::Debug for PolicyStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyStack")
            .field(
                "policies",
                &self.policies.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .field("caps", &self.caps)
            .finish_non_exhaustive()
    }
}

impl PolicyStack {
    /// Builds the stack for a policy configuration: one plugged-in
    /// policy per configured mechanism, in canonical order (WBHT,
    /// reuse-distance, snarf, hybrid).
    pub fn new(
        cfg: &PolicyConfig,
        num_l2: usize,
        retry: RetrySwitchConfig,
    ) -> Result<Self, GeometryError> {
        let mut policies: Vec<Box<dyn CachePolicy + Send>> = Vec::new();
        if let Some(w) = cfg.wbht {
            let tables = (0..num_l2)
                .map(|_| Wbht::new(w))
                .collect::<Result<_, _>>()?;
            policies.push(Box::new(WbhtPolicy {
                tables,
                scope: w.scope,
            }));
        }
        if let Some(r) = cfg.rdcb {
            let predictors = (0..num_l2)
                .map(|_| ReuseDistanceCopyBack::new(r))
                .collect::<Result<_, _>>()?;
            policies.push(Box::new(RdcbPolicy { predictors }));
        }
        if let Some(s) = cfg.snarf {
            policies.push(Box::new(SnarfPolicy {
                table: SnarfTable::new(s)?,
                insert_pos: s.insert_pos,
            }));
        }
        if let Some(h) = cfg.hybrid {
            policies.push(Box::new(HybridPolicy {
                dir: HybridUpdateInvalidate::new(h)?,
            }));
        }
        let caps = policies
            .iter()
            .fold(PolicyCaps::default(), |acc, p| acc.union(p.caps()));
        Ok(PolicyStack {
            policies,
            retry_switch: RetrySwitch::new(retry),
            caps,
        })
    }

    /// The union of the stacked policies' capabilities.
    pub fn caps(&self) -> PolicyCaps {
        self.caps
    }

    /// Replaces the retry-rate switch configuration (testing knob).
    pub fn set_retry_switch(&mut self, cfg: RetrySwitchConfig) {
        self.retry_switch = RetrySwitch::new(cfg);
    }

    /// Attaches an event-trace handle to the switch and every policy.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.retry_switch.attach_telemetry(telemetry.clone());
        for p in &mut self.policies {
            p.attach_telemetry(telemetry);
        }
    }

    /// Records one bus retry (feeds the retry-rate switch).
    #[inline]
    pub fn record_retry(&mut self, now: Cycle) {
        self.retry_switch.record_retry(now);
    }

    /// (engaged windows, total completed windows) of the retry switch.
    pub fn retry_window_counts(&self) -> (u64, u64) {
        self.retry_switch.window_counts()
    }

    /// Samples the retry-rate switch for a castout-candidate gate:
    /// `true` when no stacked policy uses the switch (the gate is then
    /// unconditional for the policies that do filter).
    #[inline]
    pub fn castout_gate_engaged(&mut self, now: Cycle) -> bool {
        if self.caps.uses_retry_switch {
            self.retry_switch.engaged(now)
        } else {
            true
        }
    }

    /// Consults the filtering policies on a clean castout candidate;
    /// the first veto wins.
    #[inline]
    pub fn on_castout_candidate(&mut self, ctx: &CastoutCtx) -> CastoutDecision {
        for p in &mut self.policies {
            if p.caps().filters_clean_castouts
                && p.on_castout_candidate(ctx) == CastoutDecision::Abort
            {
                return CastoutDecision::Abort;
            }
        }
        CastoutDecision::Allow
    }

    /// A castout hit the ring (first attempt).
    #[inline]
    pub fn on_castout_issued(&mut self, line: LineAddr) {
        for p in &mut self.policies {
            p.on_castout_issued(line);
        }
    }

    /// Should this write-back be offered for snarfing?
    #[inline]
    pub fn snarf_eligible(&mut self, line: LineAddr) -> bool {
        self.policies.iter_mut().any(|p| p.snarf_eligible(line))
    }

    /// A snarf-eligible castout combined.
    #[inline]
    pub fn on_snarf_arbitration(&self, now: Cycle, l2: u32, line: LineAddr, winner: Option<u32>) {
        for p in &self.policies {
            p.on_snarf_arbitration(now, l2, line, winner);
        }
    }

    /// A miss combined and is about to fill.
    #[inline]
    pub fn observe_combined_response(&mut self, ctx: &ResponseCtx) {
        for p in &mut self.policies {
            p.observe_combined_response(ctx);
        }
    }

    /// A clean write-back was squashed as redundant.
    #[inline]
    pub fn note_redundant_copy_back(&mut self, now: Cycle, src: L2Id, line: LineAddr) {
        for p in &mut self.policies {
            p.note_redundant_copy_back(now, src, line);
        }
    }

    /// Does any stacked policy's history know `line` at `l2`?
    #[inline]
    pub fn knows_line(&self, l2: usize, line: LineAddr) -> bool {
        self.policies.iter().any(|p| p.knows_line(l2, line))
    }

    /// Insert position for snarfed lines (MRU when no policy placed).
    pub fn snarf_insert_pos(&self) -> InsertPosition {
        self.policies
            .iter()
            .find_map(|p| p.snarf_insert_pos())
            .unwrap_or(InsertPosition::Mru)
    }

    /// Update-vs-invalidate verdict for a store to a shared line; the
    /// base protocol (invalidate) applies when no policy decides.
    #[inline]
    pub fn on_store_to_shared(&mut self, now: Cycle, line: LineAddr) -> CoherenceAction {
        for p in &mut self.policies {
            if let Some(action) = p.on_store_to_shared(now, line) {
                return action;
            }
        }
        CoherenceAction::Invalidate
    }

    fn find<P: 'static>(&self) -> Option<&P> {
        self.policies.iter().find_map(|p| p.as_any().downcast_ref())
    }

    /// Merged WBHT counters across the per-L2 tables (all-zero when the
    /// WBHT is not stacked, matching the hard-wired reporting).
    pub fn wbht_stats(&self) -> WbhtStats {
        let mut merged = WbhtStats::default();
        if let Some(w) = self.find::<WbhtPolicy>() {
            for t in &w.tables {
                let s = t.stats();
                merged.decisions += s.decisions;
                merged.aborted += s.aborted;
                merged.correct += s.correct;
                merged.allocated += s.allocated;
            }
        }
        merged
    }

    /// Snarf reuse-table counters, when the snarf policy is stacked.
    pub fn snarf_stats(&self) -> Option<SnarfStats> {
        self.find::<SnarfPolicy>().map(|s| s.table.stats())
    }

    /// Merged reuse-distance predictor counters, when stacked.
    pub fn rdcb_stats(&self) -> Option<RdcbStats> {
        self.find::<RdcbPolicy>().map(|r| {
            let mut merged = RdcbStats::default();
            for p in &r.predictors {
                let s = p.stats();
                merged.decisions += s.decisions;
                merged.aborted += s.aborted;
                merged.trained += s.trained;
                merged.unknown += s.unknown;
            }
            merged
        })
    }

    /// Hybrid update/invalidate counters, when stacked.
    pub fn hybrid_stats(&self) -> Option<HybridStats> {
        self.find::<HybridPolicy>().map(|h| h.dir.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{HybridConfig, RdcbConfig, SnarfConfig, WbhtConfig};

    fn line(raw: u64) -> LineAddr {
        LineAddr::new(raw)
    }

    fn stack(cfg: PolicyConfig) -> PolicyStack {
        PolicyStack::new(&cfg, 4, RetrySwitchConfig::default()).unwrap()
    }

    #[test]
    fn baseline_stack_has_no_capabilities() {
        let s = stack(PolicyConfig::baseline());
        assert_eq!(s.caps(), PolicyCaps::default());
        assert_eq!(s.wbht_stats(), WbhtStats::default());
        assert!(s.snarf_stats().is_none());
        assert!(s.rdcb_stats().is_none());
        assert!(s.hybrid_stats().is_none());
    }

    #[test]
    fn caps_union_matches_configuration() {
        let s = stack(PolicyConfig::combined_paper());
        assert!(s.caps().filters_clean_castouts);
        assert!(s.caps().uses_retry_switch);
        assert!(s.caps().snarfs_castouts);
        assert!(!s.caps().adapts_coherence);

        let s = stack(PolicyConfig::rdcb(RdcbConfig::default()));
        assert!(s.caps().filters_clean_castouts);
        assert!(
            !s.caps().uses_retry_switch,
            "rdcb must not gate on the switch"
        );

        let s = stack(PolicyConfig::hybrid(HybridConfig::default()));
        assert!(s.caps().adapts_coherence);
        assert!(!s.caps().filters_clean_castouts);
    }

    #[test]
    fn rdcb_vetoes_through_the_stack() {
        let mut s = stack(PolicyConfig::rdcb(RdcbConfig {
            entries: 256,
            assoc: 4,
            sample_shift: 0,
            max_distance: 2,
        }));
        // Train a distance of 8 on L2 0 (above the bound of 2).
        s.observe_combined_response(&ResponseCtx {
            now: 0,
            l2: 0,
            line: line(1),
        });
        for k in 0..7 {
            s.observe_combined_response(&ResponseCtx {
                now: 0,
                l2: 0,
                line: line(100 + k),
            });
        }
        s.observe_combined_response(&ResponseCtx {
            now: 0,
            l2: 0,
            line: line(1),
        });
        let ctx = CastoutCtx {
            now: 10,
            l2: 0,
            line: line(1),
            engaged: true,
            in_l3: false,
        };
        assert_eq!(s.on_castout_candidate(&ctx), CastoutDecision::Abort);
        // The other L2's predictor is untrained: allow.
        let ctx = CastoutCtx { l2: 1, ..ctx };
        assert_eq!(s.on_castout_candidate(&ctx), CastoutDecision::Allow);
        assert_eq!(s.rdcb_stats().unwrap().aborted, 1);
    }

    #[test]
    fn snarf_insert_pos_defaults_to_mru() {
        let s = stack(PolicyConfig::baseline());
        assert_eq!(s.snarf_insert_pos(), InsertPosition::Mru);
        let s = stack(PolicyConfig::snarf(SnarfConfig {
            entries: 512,
            insert_pos: InsertPosition::Lru,
            ..Default::default()
        }));
        assert_eq!(s.snarf_insert_pos(), InsertPosition::Lru);
    }

    #[test]
    fn castout_gate_is_unconditional_without_the_switch() {
        let mut s = stack(PolicyConfig::rdcb(RdcbConfig::default()));
        assert!(s.castout_gate_engaged(0), "no switch user: always engaged");
        let mut s = stack(PolicyConfig::wbht(WbhtConfig::default()));
        assert!(!s.castout_gate_engaged(0), "switch starts disengaged");
    }

    #[test]
    fn composed_filters_short_circuit_on_first_veto() {
        // WBHT stacked with rdcb: an untrained rdcb never vetoes, so a
        // WBHT-known line under an engaged gate still aborts.
        let mut s = stack(PolicyConfig {
            wbht: Some(WbhtConfig {
                entries: 512,
                ..Default::default()
            }),
            rdcb: Some(RdcbConfig {
                entries: 256,
                assoc: 4,
                ..Default::default()
            }),
            ..Default::default()
        });
        s.note_redundant_copy_back(0, L2Id::new(0), line(7));
        let ctx = CastoutCtx {
            now: 10,
            l2: 0,
            line: line(7),
            engaged: true,
            in_l3: false,
        };
        assert_eq!(s.on_castout_candidate(&ctx), CastoutDecision::Abort);
        let r = s.rdcb_stats().unwrap();
        assert_eq!(r.decisions, 0, "short-circuit must skip the second filter");
    }
}
