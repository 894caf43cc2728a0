//! Internal debugging driver: runs random-ish configs until the
//! coherence invariant checker trips, then reports the failing setup.

#![forbid(unsafe_code)]

use cmp_adaptive_wb::{PolicyConfig, SnarfConfig, System, SystemConfig};
use cmpsim_trace::{SegmentMix, WorkloadParams};

fn params(seed: u64) -> WorkloadParams {
    WorkloadParams {
        name: format!("dbg{seed}"),
        line_bytes: 128,
        threads: 16,
        issue_interval: 1,
        mix: SegmentMix {
            private: 0.1,
            bounce: 0.1,
            rotor: 0.5,
            shared: 0.2,
            migratory: 0.05,
            streaming: 0.05,
        },
        private_lines: 128,
        private_theta: 2.0,
        private_store_frac: 0.3,
        bounce_lines: 512,
        bounce_group_threads: 4,
        bounce_cross_frac: 0.2,
        bounce_theta: 1.5,
        bounce_store_frac: 0.2,
        rotor_lines: 900,
        rotor_store_frac: 0.3,
        shared_lines: 200,
        shared_theta: 1.5,
        shared_store_frac: 0.2,
        migratory_lines: 64,
        migratory_rmw_frac: 0.5,
    }
}

fn main() {
    for seed in 0..40u64 {
        let mut cfg = SystemConfig::scaled(16);
        cfg.policy = PolicyConfig::snarf(SnarfConfig {
            entries: 512,
            ..Default::default()
        });
        cfg.max_outstanding = 6;
        cfg.seed = seed;
        let mut sys = System::new(cfg, params(seed)).unwrap();
        sys.run(1500);
        if let Err(v) = sys.check_invariants() {
            println!("VIOLATION at seed {seed}: {v}");
            if let Some(line) = v.line() {
                println!("  line {line:#x}, holders {:?}", v.holders());
            }
            return;
        }
    }
    println!("no violation in 40 seeds");
}
