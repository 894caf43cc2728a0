//! Deterministic work-counter gates: how much simulator work a run
//! dispatches per reference. The counts are exact on any host, so these
//! tests fail for code changes only, never for host noise.

use cmp_hierarchies::adaptive::{PolicyConfig, SnarfConfig, System, SystemConfig};
use cmp_hierarchies::trace::Workload;

/// A fill blocked on a full write-back queue parks until a wake source
/// re-dispatches it; it does not re-poll the event queue. On this
/// high-pressure run (Trade2, snarf, 6 outstanding misses per thread)
/// re-polling blocked fills every 8 cycles dispatches ~20 events per
/// reference; parking them dispatches ~4.
#[test]
fn blocked_fills_park_instead_of_polling() {
    let mut cfg = SystemConfig::scaled(16);
    cfg.max_outstanding = 6;
    cfg.policy = PolicyConfig::snarf(SnarfConfig {
        entries: 1024,
        ..Default::default()
    });
    let params = Workload::Trade2.params(cfg.num_threads(), cfg.cache_scale());
    let mut sys = System::new(cfg, params).unwrap();
    let stats = sys.run(2_000);
    // The drain check: nothing parked, queued or in flight is left.
    sys.assert_invariants();
    assert!(
        stats.fill_wbq_stalls() > 1_000,
        "the run must exercise the full-write-back-queue path, got {} stalls",
        stats.fill_wbq_stalls()
    );
    let per_ref = sys.events_processed() as f64 / stats.refs as f64;
    assert!(
        per_ref < 5.0,
        "{per_ref:.2} events per reference ({} events, {} refs)",
        sys.events_processed(),
        stats.refs
    );
}
