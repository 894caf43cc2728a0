//! `telemetry_report` — summarizes a `cmpsim --trace-events` JSONL file:
//! event counts per type, the traced time range, and per-interval rates.
//!
//! ```sh
//! cmpsim -p combined --trace-events out.jsonl --interval-stats 100000
//! telemetry_report out.jsonl
//! ```
//!
//! The trace format is one JSON object per line with at least `"t"`
//! (cycle) and `"type"` (event kind); this tool extracts both with
//! plain string scanning so it needs no JSON dependency. Event kinds it
//! does not recognize (from a newer simulator) are skipped and counted
//! rather than folded into the per-type table, so the report never
//! misattributes statistics it does not understand.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::process::ExitCode;

/// Every event kind this report understands — the `SimEvent::kind`
/// vocabulary as of this tool's build. Traces from newer simulators may
/// contain more; those are skipped and counted as unknown.
const KNOWN_KINDS: &[&str] = &[
    "l2_miss",
    "l2_fill",
    "castout_issued",
    "castout_aborted",
    "castout_squashed",
    "castout_snarfed",
    "castout_accepted",
    "wbht_allocate",
    "wbht_predict",
    "wbht_mispredict",
    "retry_switch_flip",
    "snarf_arbitration",
    "snarf_buffer_declined",
    "l3_retry",
    "interval",
];

/// Extracts the string value of `"key":"..."` from one JSON line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Extracts the integer value of `"key":N` from one JSON line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: telemetry_report TRACE.jsonl");
        return ExitCode::FAILURE;
    };
    let file = match File::open(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("telemetry_report: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut first_t: Option<u64> = None;
    let mut last_t: u64 = 0;
    let mut lines: u64 = 0;
    let mut malformed: u64 = 0;
    let mut unknown: BTreeMap<String, u64> = BTreeMap::new();
    let mut intervals: Vec<(u64, u64)> = Vec::new(); // (start, end)

    for line in BufReader::new(file).lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("telemetry_report: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let (Some(kind), Some(t)) = (str_field(&line, "type"), num_field(&line, "t")) else {
            malformed += 1;
            continue;
        };
        if !KNOWN_KINDS.contains(&kind) {
            *unknown.entry(kind.to_string()).or_insert(0) += 1;
            continue;
        }
        *counts.entry(kind.to_string()).or_insert(0) += 1;
        first_t.get_or_insert(t);
        last_t = last_t.max(t);
        if kind == "interval" {
            if let (Some(s), Some(e)) = (num_field(&line, "start"), num_field(&line, "end")) {
                intervals.push((s, e));
            }
        }
    }

    let total: u64 = counts.values().sum();
    let skipped: u64 = unknown.values().sum();
    println!("trace         : {path}");
    println!(
        "events        : {total} ({lines} lines, {malformed} malformed, {skipped} unknown-kind)"
    );
    if let Some(first) = first_t {
        println!("time range    : [{first}, {last_t}]");
    }
    println!("by type:");
    let mut by_count: Vec<(&String, &u64)> = counts.iter().collect();
    by_count.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (kind, n) in by_count {
        let share = if total == 0 {
            0.0
        } else {
            *n as f64 * 100.0 / total as f64
        };
        println!("  {kind:<24} {n:>10}  {share:5.1}%");
    }
    if !unknown.is_empty() {
        println!("skipped unknown kinds:");
        for (kind, n) in &unknown {
            println!("  {kind:<24} {n:>10}");
        }
    }
    if !intervals.is_empty() {
        let covered: u64 = intervals.iter().map(|(s, e)| e.saturating_sub(*s)).sum();
        let (s0, _) = intervals[0];
        let (_, e_last) = intervals[intervals.len() - 1];
        println!(
            "intervals     : {} covering {covered} cycles ([{s0}, {e_last}))",
            intervals.len()
        );
    }
    ExitCode::SUCCESS
}
