//! `trace-stats` — offline analysis of synthetic or recorded traces:
//! footprint, sharing, store mix, reuse-distance curve, and predicted
//! LRU hit rates at the modelled cache capacities.
//!
//! ```sh
//! trace-stats [workload] [records]      # synthetic (default trade2, 200k)
//! trace-stats --file trace.bin          # recorded CMPTRC01 trace
//! ```

#![forbid(unsafe_code)]

use cmpsim_trace::analysis::{profile, ReuseDistances};
use cmpsim_trace::{file, CacheScale, SyntheticWorkload, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let records = if args.first().map(|s| s.as_str()) == Some("--file") {
        let path = args.get(1).expect("--file needs a path");
        let data = std::fs::read(path).expect("readable trace file");
        file::read_trace(&data[..]).expect("valid CMPTRC01 trace")
    } else {
        let wl = match args.first().map(|s| s.to_lowercase()) {
            Some(ref s) if s == "tp" => Workload::Tp,
            Some(ref s) if s == "cpw2" => Workload::Cpw2,
            Some(ref s) if s == "notesbench" => Workload::NotesBench,
            _ => Workload::Trade2,
        };
        let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(200_000);
        let params = wl.params(16, CacheScale::scaled(8));
        let mut g = SyntheticWorkload::new(params, 2026).expect("valid preset");
        g.generate(n)
    };

    let p = profile(&records, 128, 4);
    println!("records          : {}", p.records);
    println!("stores           : {:.1}%", p.store_permille as f64 / 10.0);
    println!(
        "footprint        : {} lines ({} KB)",
        p.footprint_lines,
        p.footprint_lines * 128 / 1024
    );
    println!(
        "shared lines     : {} ({:.1}%)",
        p.shared_lines,
        100.0 * p.shared_lines as f64 / p.footprint_lines.max(1) as f64
    );
    println!(
        "cross-L2 lines   : {} ({:.1}%)",
        p.cross_l2_lines,
        100.0 * p.cross_l2_lines as f64 / p.footprint_lines.max(1) as f64
    );
    println!("hottest line     : {} touches", p.max_line_touches);

    let rd = ReuseDistances::from_records(&records, 128);
    println!(
        "cold misses      : {} ({:.1}%)",
        rd.cold_misses(),
        100.0 * rd.cold_misses() as f64 / rd.total().max(1) as f64
    );
    println!("\npredicted fully-associative LRU hit rates:");
    for (label, lines) in [
        ("L1 (32 KB)", 256u64),
        ("L2 share (512 KB)", 4096),
        ("one L2 (2 MB)", 16384),
        ("all L2s (8 MB)", 65536),
        ("L3 (16 MB)", 131072),
    ] {
        println!("  {label:<18} {:>5.1}%", rd.hit_rate_at(lines) * 100.0);
    }
}
