//! The benchmark's workloads and how each one builds its `System`.
//!
//! Every workload runs at paper scale (`SystemConfig::paper()`: 8 cores,
//! 16 threads, 4 L2s) with the modelled caches starting empty, and fixes
//! its own references per thread, so `refs_per_s` is throughput at a
//! stated input size. Table sizes follow `cmpsim`'s scale-1 defaults
//! (32K entries per mechanism, split in half for `combined`).

use cmp_adaptive_wb::{
    HybridConfig, PolicyConfig, SnarfConfig, System, SystemConfig, UpdateScope, WbhtConfig,
};
use cmpsim_engine::telemetry::DEFAULT_INTERVAL;
use cmpsim_trace::{ReferenceSource, SyntheticWorkload, Workload};

/// Table entries per mechanism at paper scale (`cmpsim --scale 1`).
const ENTRIES: u64 = 32 * 1024;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Commercial-workload model driving the reference stream.
    pub workload: Workload,
    /// Adaptive mechanisms switched on (`cmpsim --policy` syntax).
    pub policy: &'static str,
    /// Outstanding misses per thread (the paper's memory-pressure knob).
    pub outstanding: u32,
    /// References each of the 16 threads executes per run.
    pub refs_per_thread: u64,
    /// Decision audit and interval sampling on (the observability
    /// layer's active path).
    pub observed: bool,
}

/// The workloads, in the order `--workload all` runs them. Why each was
/// chosen is in `perfbench/README.md`.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "trade2_snarf_o6",
        workload: Workload::Trade2,
        policy: "snarf",
        outstanding: 6,
        refs_per_thread: 100_000,
        observed: false,
    },
    Spec {
        name: "notesbench_wbht_o1",
        workload: Workload::NotesBench,
        policy: "wbht",
        outstanding: 1,
        refs_per_thread: 400_000,
        observed: false,
    },
    Spec {
        name: "tp_hybrid_audit_o3",
        workload: Workload::Tp,
        policy: "combined+hybrid",
        outstanding: 3,
        refs_per_thread: 120_000,
        observed: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

fn wbht(entries: u64) -> WbhtConfig {
    WbhtConfig {
        entries,
        assoc: 16,
        scope: UpdateScope::Local,
        granularity: 1,
    }
}

fn snarf(entries: u64) -> SnarfConfig {
    SnarfConfig {
        entries,
        ..Default::default()
    }
}

impl Spec {
    /// The paper-scale configuration for this workload and seed.
    pub fn config(&self, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::paper();
        cfg.max_outstanding = self.outstanding;
        cfg.seed = seed;
        cfg.policy = match self.policy {
            "snarf" => PolicyConfig::snarf(snarf(ENTRIES)),
            "wbht" => PolicyConfig::wbht(wbht(ENTRIES)),
            "combined+hybrid" => PolicyConfig {
                hybrid: Some(HybridConfig {
                    entries: ENTRIES,
                    ..Default::default()
                }),
                ..PolicyConfig::combined(wbht(ENTRIES / 2), snarf(ENTRIES / 2))
            },
            other => unreachable!("workload table names unknown policy {other}"),
        };
        cfg
    }

    /// The workload's reference generator for `seed`.
    pub fn generator(&self, seed: u64) -> SyntheticWorkload {
        let cfg = self.config(seed);
        let params = self.workload.params(cfg.num_threads(), cfg.cache_scale());
        SyntheticWorkload::new(params, seed).expect("benchmark workload parameters are valid")
    }

    /// Builds the system over `source` (the generator, possibly wrapped),
    /// with this workload's observability switched on. This is the set-up
    /// `setup_s` times.
    pub fn build(&self, seed: u64, source: Box<dyn ReferenceSource>) -> System {
        let mut sys =
            System::with_source(self.config(seed), source).expect("benchmark config is valid");
        if self.observed {
            sys.enable_decision_audit();
            sys.enable_interval_sampling(DEFAULT_INTERVAL);
        }
        sys
    }

    /// Total references one run simulates.
    pub fn total_refs(&self) -> u64 {
        self.refs_per_thread * u64::from(SystemConfig::paper().num_threads())
    }
}
