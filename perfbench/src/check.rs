//! Correctness check applied to every run.
//!
//! A run's outputs are rendered through the simulator's own `--json`
//! export (`RunReport::to_json`), and the check works on that rendered
//! text, so it sees exactly what a user of `cmpsim --json` sees. Host
//! counters (events dispatched, wall time) are deliberately not part of
//! the report: a speed-only change must leave its digest unchanged.

use cmp_adaptive_wb::{RunReport, System, SystemStats};

/// What one run produced, as far as the check is concerned.
#[derive(Debug, Clone)]
pub struct Report {
    /// The run's `--json` export.
    pub json: String,
    /// `check_invariants()` after the drain, as an error message.
    pub invariants: Result<(), String>,
}

impl Report {
    /// Collects the report of a system that has finished `run`.
    pub fn collect(sys: &System, workload: &str, stats: SystemStats) -> Report {
        let report = RunReport {
            workload: workload.to_string(),
            policy: sys.config().policy.label(),
            max_outstanding: sys.config().max_outstanding,
            stats,
            l3: sys.l3_stats(),
            mem: sys.memory().stats(),
            ring: sys.ring_stats(),
            wbht: sys.wbht_stats(),
            snarf_table: sys.snarf_table_stats(),
            rdcb: sys.rdcb_stats(),
            hybrid: sys.hybrid_stats(),
            intervals: Vec::new(),
            spans: Vec::new(),
            span_summary: None,
            host: None,
            audit: sys.decision_audit_summary(),
        };
        Report {
            json: report.to_json(),
            invariants: sys.check_invariants().map_err(|v| v.to_string()),
        }
    }

    /// FNV-1a 64 of the serialized stats: equal digests mean
    /// byte-identical simulated results.
    pub fn digest(&self) -> u64 {
        self.json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A counter of the export, by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        let key = format!("\"{name}\":");
        let start = self.json.find(&key)? + key.len();
        let rest = &self.json[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].parse().ok()
    }
}

/// Checks one run's report. `expected_refs` is the references the run
/// was asked for; `reference` is the digest every run of this workload
/// and seed must reproduce (the first run's).
pub fn check(report: &Report, expected_refs: u64, reference: u64) -> Result<(), String> {
    report
        .invariants
        .clone()
        .map_err(|v| format!("coherence invariant violated after drain: {v}"))?;
    let field = |name: &str| {
        report
            .counter(name)
            .ok_or_else(|| format!("report has no counter {name}"))
    };
    let refs = field("refs")?;
    if refs != expected_refs {
        return Err(format!(
            "simulated {refs} references, asked for {expected_refs}"
        ));
    }
    let (requests, dirty, clean) = (
        field("wb_requests")?,
        field("wb_dirty")?,
        field("wb_clean")?,
    );
    if requests != dirty + clean {
        return Err(format!(
            "wb_requests {requests} != wb_dirty {dirty} + wb_clean {clean}"
        ));
    }
    if field("cycles")? == 0 {
        return Err("run took 0 simulated cycles".into());
    }
    let digest = report.digest();
    if digest != reference {
        return Err(format!(
            "stats digest {digest:016x} differs from {reference:016x} for the same workload and seed"
        ));
    }
    Ok(())
}

/// Proves the check is not vacuous: a copy of a passing report with one
/// write-back counter bumped must fail it.
pub fn altered_report_fails(report: &Report, expected_refs: u64, reference: u64) -> bool {
    let Some(dirty) = report.counter("wb_dirty") else {
        return false;
    };
    let mut altered = report.clone();
    altered.json = altered.json.replacen(
        &format!("\"wb_dirty\":{dirty},"),
        &format!("\"wb_dirty\":{},", dirty + 1),
        1,
    );
    altered.json != report.json && check(&altered, expected_refs, reference).is_err()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_trace::Workload;

    fn small_report(seed: u64) -> Report {
        let mut cfg = cmp_adaptive_wb::SystemConfig::scaled(16);
        cfg.seed = seed;
        let params = Workload::Trade2.params(cfg.num_threads(), cfg.cache_scale());
        let mut sys = System::new(cfg, params).unwrap();
        let stats = sys.run(500);
        Report::collect(&sys, "Trade2", stats)
    }

    #[test]
    fn passing_report_passes_and_altered_report_fails() {
        let r = small_report(1);
        assert_eq!(check(&r, 500 * 16, r.digest()), Ok(()));
        assert!(altered_report_fails(&r, 500 * 16, r.digest()));
        assert!(check(&r, 500 * 16 + 1, r.digest()).is_err());
        assert!(check(&r, 500 * 16, r.digest() ^ 1).is_err());
    }

    #[test]
    fn same_seed_repeats_and_another_seed_differs() {
        assert_eq!(small_report(1).digest(), small_report(1).digest());
        assert_ne!(small_report(1).digest(), small_report(2).digest());
    }
}
