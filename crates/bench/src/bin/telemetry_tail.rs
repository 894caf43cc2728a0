//! `telemetry_tail` — attach to a live telemetry stream and render a
//! refreshing console view of the simulator: per-stage wall-time bars,
//! cycles/sec, queue depths, and (when the run has `--audit` on)
//! adaptive-decision quality, one block per grid cell.
//!
//! ```text
//! telemetry_tail [--once] [--wait SECS] [--refresh MS] PATH|-
//! ```
//!
//! `PATH` is the Unix socket a simulator is serving via
//! `--stream-telemetry=PATH`; `-` reads a stream from stdin (e.g.
//! `cmpsim -q --stream-telemetry | telemetry_tail -`). `--wait` retries
//! the connection until the socket exists (default 5 s), so the tail
//! can be started before the sweep. `--once` prints one plain-text
//! snapshot after the first host sample (or at end of stream) and
//! exits — 0 only if a host sample was consumed, making it a cheap
//! end-to-end check that streaming works.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};

use cmpsim_engine::profiler::{HostStage, TIMED_STAGES};
use cmpsim_engine::stream::{frame_str, frame_u64, read_frame, STREAM_SCHEMA};

struct Args {
    once: bool,
    wait_secs: u64,
    refresh_ms: u64,
    source: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        once: false,
        wait_secs: 5,
        refresh_ms: 250,
        source: String::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--once" => args.once = true,
            "--wait" => {
                args.wait_secs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--wait expects seconds"));
            }
            "--refresh" => {
                args.refresh_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--refresh expects milliseconds"));
            }
            other if !other.starts_with("--") => args.source = other.to_string(),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.source.is_empty() {
        usage("missing stream source (socket PATH or -)");
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "telemetry_tail: {msg}\n\
         usage: telemetry_tail [--once] [--wait SECS] [--refresh MS] PATH|-"
    );
    std::process::exit(2);
}

/// Latest known state of one grid cell, folded from its frames.
#[derive(Default)]
struct CellView {
    workload: String,
    policy: String,
    cycles: u64,
    cycles_per_sec: u64,
    events_per_sec: u64,
    eq_ring: u64,
    eq_overflow: u64,
    mshr_used: u64,
    mshr_cap: u64,
    wbq_depth: u64,
    rss_kb: u64,
    stage_ns: [u64; TIMED_STAGES],
    host_samples: u64,
    intervals: u64,
    decisions: u64,
    aborts_correct: u64,
    aborts_mispredicted: u64,
    snarfs_useful: u64,
    snarfs_wasted: u64,
    wbht_engaged: bool,
    done: bool,
}

fn ingest(cells: &mut BTreeMap<u64, CellView>, json: &str) -> bool {
    let cell = frame_u64(json, "cell").unwrap_or(0);
    let view = cells.entry(cell).or_default();
    match frame_str(json, "type") {
        Some("run_start") => {
            view.workload = frame_str(json, "workload").unwrap_or("?").to_string();
            view.policy = frame_str(json, "policy").unwrap_or("?").to_string();
            view.done = false;
        }
        Some("interval") => {
            view.intervals += 1;
            if let Some(end) = frame_u64(json, "end") {
                view.cycles = view.cycles.max(end);
            }
        }
        Some("host_sample") => {
            view.host_samples += 1;
            let get = |k| frame_u64(json, k).unwrap_or(0);
            view.cycles = view.cycles.max(get("cycles"));
            view.cycles_per_sec = get("cycles_per_sec");
            view.events_per_sec = get("events_per_sec");
            view.eq_ring = get("eq_ring_len");
            view.eq_overflow = get("eq_overflow_len");
            view.mshr_used = get("mshr_used");
            view.mshr_cap = get("mshr_cap");
            view.wbq_depth = get("wbq_depth");
            view.rss_kb = get("rss_kb");
            for st in HostStage::all().iter().take(TIMED_STAGES) {
                view.stage_ns[*st as usize] =
                    frame_u64(json, &format!("{}_ns", st.as_str())).unwrap_or(0);
            }
            return true;
        }
        Some("decision") => {
            let get = |k| frame_u64(json, k).unwrap_or(0);
            view.decisions = get("decisions");
            view.aborts_correct = get("aborts_correct");
            view.aborts_mispredicted = get("aborts_mispredicted");
            view.snarfs_useful = get("snarfs_useful");
            view.snarfs_wasted = get("snarfs_wasted");
            view.wbht_engaged = get("engaged") != 0;
        }
        Some("run_end") => {
            view.done = true;
            if let Some(c) = frame_u64(json, "cycles") {
                view.cycles = view.cycles.max(c);
            }
        }
        _ => {} // unknown types are forward-compatible: skip
    }
    false
}

fn render(cells: &BTreeMap<u64, CellView>) -> String {
    let mut out = String::new();
    for (id, v) in cells {
        let status = if v.done { "done" } else { "running" };
        out.push_str(&format!(
            "cell {id} {}/{} [{status}]  {:.1}M cycles  {:.2}M cyc/s  {:.2}M ev/s\n",
            v.workload,
            v.policy,
            v.cycles as f64 / 1e6,
            v.cycles_per_sec as f64 / 1e6,
            v.events_per_sec as f64 / 1e6,
        ));
        out.push_str(&format!(
            "  queues: eq ring {} + overflow {}, mshr {}/{}, wbq {}  rss {} kB  \
             ({} host samples, {} intervals)\n",
            v.eq_ring,
            v.eq_overflow,
            v.mshr_used,
            v.mshr_cap,
            v.wbq_depth,
            v.rss_kb,
            v.host_samples,
            v.intervals,
        ));
        if v.decisions > 0 {
            // Rates over *resolved* outcomes only; early in a run most
            // decisions are still pending, so show "--" instead of a
            // 0/0 artifact.
            let rate = |num: u64, den: u64| {
                if den == 0 {
                    "--".to_string()
                } else {
                    format!("{:.0}%", 100.0 * num as f64 / den as f64)
                }
            };
            // Label the audit block with the cell's configured policy
            // (from its run_start frame) rather than assuming the WBHT
            // is the only decision-maker.
            let policy = if v.policy.is_empty() { "?" } else { &v.policy };
            out.push_str(&format!(
                "  audit[{policy}]: {} castout decisions [{}], abort precision {}, \
                 useful snarfs {}\n",
                v.decisions,
                if v.wbht_engaged { "engaged" } else { "off" },
                rate(v.aborts_correct, v.aborts_correct + v.aborts_mispredicted),
                rate(v.snarfs_useful, v.snarfs_useful + v.snarfs_wasted),
            ));
        }
        let attributed: u64 = v.stage_ns.iter().sum();
        if attributed > 0 {
            for st in HostStage::all().iter().take(TIMED_STAGES) {
                let share = v.stage_ns[*st as usize] as f64 / attributed as f64;
                let bar = "#".repeat((share * 30.0).round() as usize);
                out.push_str(&format!(
                    "  {:<12} {:>5.1}% |{bar:<30}|\n",
                    st.as_str(),
                    share * 100.0
                ));
            }
        }
    }
    out
}

fn open_source(args: &Args) -> Box<dyn BufRead> {
    if args.source == "-" {
        return Box::new(BufReader::new(std::io::stdin()));
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(args.wait_secs);
    loop {
        match std::os::unix::net::UnixStream::connect(&args.source) {
            Ok(s) => return Box::new(BufReader::new(s)),
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    eprintln!("telemetry_tail: {}: {e}", args.source);
                    std::process::exit(1);
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let mut reader = open_source(&args);

    let hello = match read_frame(&mut reader) {
        Ok(Some(h)) => h,
        Ok(None) => {
            eprintln!("telemetry_tail: stream closed before the hello frame");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("telemetry_tail: bad frame: {e}");
            std::process::exit(1);
        }
    };
    if frame_str(&hello, "type") != Some("hello")
        || frame_str(&hello, "schema") != Some(STREAM_SCHEMA)
    {
        eprintln!("telemetry_tail: unsupported stream header: {hello}");
        std::process::exit(1);
    }

    let mut cells: BTreeMap<u64, CellView> = BTreeMap::new();
    let mut saw_host_sample = false;
    let mut last_draw = std::time::Instant::now();
    let refresh = std::time::Duration::from_millis(args.refresh_ms);
    loop {
        match read_frame(&mut reader) {
            Ok(Some(json)) => {
                saw_host_sample |= ingest(&mut cells, &json);
                if args.once {
                    if saw_host_sample {
                        break;
                    }
                    continue;
                }
                if last_draw.elapsed() >= refresh {
                    last_draw = std::time::Instant::now();
                    // Clear screen + home, then the current view.
                    print!("\x1b[2J\x1b[H{}", render(&cells));
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                }
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("telemetry_tail: bad frame: {e}");
                std::process::exit(1);
            }
        }
    }
    // Final plain snapshot (also the entire output under --once).
    print!("{}", render(&cells));
    if args.once && !saw_host_sample {
        eprintln!("telemetry_tail: stream ended without a host sample");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_throughput_first_sample_renders_finite() {
        let mut cells = BTreeMap::new();
        ingest(
            &mut cells,
            r#"{"type":"run_start","cell":0,"workload":"tp","policy":"combined"}"#,
        );
        // First sample window with nothing simulated yet: all rates 0.
        let saw = ingest(
            &mut cells,
            r#"{"type":"host_sample","cell":0,"cycles":0,"cycles_per_sec":0,
               "events_per_sec":0,"mshr_used":0,"mshr_cap":0,"wbq_depth":0}"#,
        );
        assert!(saw);
        let out = render(&cells);
        assert!(out.contains("0.00M cyc/s"), "{out}");
        assert!(!out.contains("NaN") && !out.contains("inf"), "{out}");
    }

    #[test]
    fn decision_frames_fold_into_the_view() {
        let mut cells = BTreeMap::new();
        ingest(
            &mut cells,
            r#"{"type":"run_start","cell":3,"workload":"tp","policy":"wbht+snarf"}"#,
        );
        ingest(
            &mut cells,
            r#"{"type":"decision","cell":3,"cycle":500,"decisions":10,"aborts":4,
               "aborts_correct":3,"aborts_mispredicted":1,"allows_redundant":2,
               "snarfs":5,"snarfs_useful":2,"snarfs_wasted":1,"engaged":1}"#,
        );
        let out = render(&cells);
        // The audit block is labelled with the configured policy from
        // the run_start frame, not a hard-wired mechanism name.
        assert!(
            out.contains("audit[wbht+snarf]: 10 castout decisions [engaged]"),
            "{out}"
        );
        assert!(out.contains("abort precision 75%"), "{out}");
        assert!(out.contains("useful snarfs 67%"), "{out}");
    }

    #[test]
    fn unresolved_decisions_render_dashes_not_nan() {
        let mut cells = BTreeMap::new();
        // Early frame: decisions recorded, nothing resolved yet (0/0).
        ingest(
            &mut cells,
            r#"{"type":"decision","cell":0,"cycle":100,"decisions":7,"engaged":0}"#,
        );
        let out = render(&cells);
        // No run_start seen for this cell: the policy label degrades to
        // "?" instead of guessing a mechanism from metric presence.
        assert!(out.contains("audit[?]: 7 castout decisions [off]"), "{out}");
        assert!(out.contains("abort precision --"), "{out}");
        assert!(out.contains("useful snarfs --"), "{out}");
        assert!(!out.contains("NaN"), "{out}");
    }

    #[test]
    fn unknown_frame_types_are_skipped() {
        let mut cells = BTreeMap::new();
        assert!(!ingest(
            &mut cells,
            r#"{"type":"mystery","cell":0,"weird":1}"#
        ));
        // The cell exists (forward-compatible) but carries no data.
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[&0].decisions, 0);
    }
}
