//! One benchmark session: repeated runs of one workload and seed for the
//! requested wall time, checked run by run.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use cmp_adaptive_wb::SystemStats;
use cmpsim_engine::profiler::{
    now_ticks, rss_kb, ticks_to_ns, HostProfiler, HostReport, HostStage,
};
use cmpsim_mem::{L3Stats, MemoryStats};
use cmpsim_ring::RingStats;
use cmpsim_trace::{ReferenceSource, SyntheticWorkload, ThreadId, TraceRecord};

use crate::check::{self, Report};
use crate::probe::{self, Probe};
use crate::replay;
use crate::stats::{median, ratio};
use crate::workload::Spec;

/// One named metric value with its unit.
pub type Metric = (String, f64, &'static str);

/// What a session produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs made (every simulation, traced or not).
    pub attempted: u64,
    /// Runs whose correctness check failed.
    pub failed: u64,
    /// Metrics in reporting order.
    pub metrics: Vec<Metric>,
}

/// The generator wrapped in a clock: the `trace` layer's share of the
/// frontend, measured around each `next_record` call.
#[derive(Debug)]
struct TimedSource {
    inner: SyntheticWorkload,
    ticks: Rc<Cell<u64>>,
    calls: Rc<Cell<u64>>,
}

impl ReferenceSource for TimedSource {
    fn next_record(&mut self, thread: ThreadId) -> TraceRecord {
        let t0 = now_ticks();
        let r = self.inner.next_record(thread);
        self.ticks.set(self.ticks.get() + (now_ticks() - t0));
        self.calls.set(self.calls.get() + 1);
        r
    }

    fn issue_interval(&self) -> u64 {
        self.inner.issue_interval()
    }

    fn name(&self) -> &str {
        ReferenceSource::name(&self.inner)
    }
}

/// One simulation of a workload.
struct Run {
    setup_s: f64,
    wall_s: f64,
    stats: SystemStats,
    events: u64,
    ring: RingStats,
    l3: L3Stats,
    mem: MemoryStats,
    report: Report,
    /// Stride-1 stage attribution, `next_record` ticks and calls (traced
    /// runs only).
    traced: Option<(HostReport, u64, u64)>,
}

fn simulate(spec: &Spec, seed: u64, traced: bool) -> Run {
    let ticks = Rc::new(Cell::new(0));
    let calls = Rc::new(Cell::new(0));
    let t0 = Instant::now();
    let generator = spec.generator(seed);
    let source: Box<dyn ReferenceSource> = if traced {
        Box::new(TimedSource {
            inner: generator,
            ticks: ticks.clone(),
            calls: calls.clone(),
        })
    } else {
        Box::new(generator)
    };
    let mut sys = spec.build(seed, source);
    let setup_s = t0.elapsed().as_secs_f64();
    let host = if traced {
        HostProfiler::with_stride(1)
    } else {
        HostProfiler::disabled()
    };
    if traced {
        sys.set_host_profiler(host.clone());
    }
    let t1 = Instant::now();
    let stats = sys.run(spec.refs_per_thread);
    let wall_s = t1.elapsed().as_secs_f64();
    let report = Report::collect(&sys, spec.workload.name(), stats.clone());
    Run {
        setup_s,
        wall_s,
        events: sys.events_processed(),
        ring: sys.ring_stats(),
        l3: sys.l3_stats(),
        mem: sys.memory().stats(),
        stats,
        report,
        traced: traced.then(|| (host.report(), ticks.get(), calls.get())),
    }
}

/// Checks each run against the session's first digest; returns the
/// number of failed runs, printing each failure.
fn check_runs(spec: &Spec, runs: &[&Run]) -> u64 {
    let reference = runs[0].report.digest();
    let mut failed = 0;
    if !check::altered_report_fails(&runs[0].report, spec.total_refs(), reference) {
        eprintln!(
            "{}: the check accepted a deliberately altered report",
            spec.name
        );
        failed += 1;
    }
    for r in runs {
        if let Err(e) = check::check(&r.report, spec.total_refs(), reference) {
            eprintln!("{}: run failed its check: {e}", spec.name);
            failed += 1;
        }
    }
    eprintln!(
        "{}: stats digest {reference:016x} over {} runs",
        spec.name,
        runs.len()
    );
    failed
}

/// Set-ups timed after the first run, on top of one per run, so the
/// `setup_s` median rests on enough samples however long runs take.
const EXTRA_SETUPS: usize = 100;

/// End-to-end session: untraced runs until `seconds` have passed, each
/// followed by a host-speed probe. Host times are scaled by the probe
/// (see [`probe`](crate::probe)); raw figures are printed alongside.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: u64) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let first = simulate(spec, seed, false);
    // Read before the probe table exists: the simulator's own peak.
    let (_, peak_kb) = rss_kb();
    let mut probe = Probe::new();
    let mut probes = vec![probe.ns_per_op()];
    let setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| {
            let t0 = Instant::now();
            let sys = spec.build(seed, Box::new(spec.generator(seed)));
            let s = t0.elapsed().as_secs_f64();
            drop(black_box(sys));
            s
        })
        .collect();
    probes.push(probe.ns_per_op());
    // Each run (and each batch of set-ups) is scaled by the mean of the
    // probes on either side of it; the first run has only the one after.
    let mut scaled_setups: Vec<f64> = setups
        .iter()
        .map(|s| s * probe::NOMINAL_NS / ((probes[0] + probes[1]) / 2.0))
        .collect();
    let mut runs = vec![(first, probes[0])];
    while Instant::now() < deadline {
        let run = simulate(spec, seed, false);
        let before = probes[probes.len() - 1];
        probes.push(probe.ns_per_op());
        let ns = (before + probes[probes.len() - 1]) / 2.0;
        runs.push((run, ns));
    }
    scaled_setups.extend(
        runs.iter()
            .map(|(r, ns)| r.setup_s * probe::NOMINAL_NS / ns),
    );
    let refs = spec.total_refs() as f64;
    let rate = |per_run: &dyn Fn(&Run) -> f64, scaled: bool| -> f64 {
        let xs: Vec<f64> = runs
            .iter()
            .map(|(r, ns)| {
                let raw = per_run(r) / r.wall_s;
                if scaled {
                    raw * ns / probe::NOMINAL_NS
                } else {
                    raw
                }
            })
            .collect();
        median(&xs)
    };
    eprintln!(
        "{}: {} runs; raw medians {:.0} refs/s, {:.0} cycles/s, setup {:.6} s; probe {:.2} ns \
         per op (median of {})",
        spec.name,
        runs.len(),
        rate(&|_| refs, false),
        rate(&|r| r.stats.cycles as f64, false),
        median(&setups),
        median(&probes),
        probes.len()
    );
    let failed = check_runs(spec, &runs.iter().map(|(r, _)| r).collect::<Vec<_>>());
    Outcome {
        attempted: runs.len() as u64,
        failed,
        metrics: vec![
            ("refs_per_s".into(), rate(&|_| refs, true), "refs/s"),
            (
                "sim_cycles_per_s".into(),
                rate(&|r| r.stats.cycles as f64, true),
                "cycles/s",
            ),
            ("setup_s".into(), median(&scaled_setups), "s"),
            ("peak_rss_mb".into(), peak_kb as f64 / 1024.0, "MB"),
        ],
    }
}

/// Cost of one `now_ticks` read in nanoseconds, subtracted from the
/// profiler's and the wrappers' per-call windows.
fn timer_ns() -> f64 {
    const READS: u64 = 1 << 20;
    let t0 = now_ticks();
    for _ in 0..READS {
        black_box(now_ticks());
    }
    ticks_to_ns(now_ticks() - t0) as f64 / READS as f64
}

/// Minimum share of run wall time the stride-1 profiler must attribute.
const MIN_COVERAGE: f64 = 0.99;

/// Traced session: alternating untraced and traced runs of the same
/// workload and seed until `seconds` have passed, then the replay
/// microbenchmarks. Reports the per-layer metrics.
pub fn per_layer(spec: &Spec, seed: u64, seconds: u64) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let timer = timer_ns();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    loop {
        plain.push(simulate(spec, seed, false));
        traced.push(simulate(spec, seed, true));
        if Instant::now() >= deadline {
            break;
        }
    }
    let all: Vec<&Run> = plain.iter().chain(&traced).collect();
    let mut failed = check_runs(spec, &all);

    // Host time per layer: medians over the traced runs.
    let host_s = |f: &dyn Fn(&HostReport, u64, u64, u64) -> f64| -> f64 {
        let xs: Vec<f64> = traced
            .iter()
            .map(|r| {
                let (h, ticks, calls) = r.traced.as_ref().expect("traced run");
                f(h, ticks_to_ns(*ticks), *calls, r.events).max(0.0) / 1e9
            })
            .collect();
        median(&xs)
    };
    let stage = |h: &HostReport, s: HostStage| h.stage_ns[s as usize] as f64;
    let next_record_s = host_s(&|_, ns, calls, _| ns as f64 - calls as f64 * timer);
    // The wrapper's two clock reads sit inside the frontend's window.
    let frontend_s =
        host_s(&|h, ns, calls, _| stage(h, HostStage::Frontend) - ns as f64 - calls as f64 * timer);
    let observe_s = host_s(&|h, _, _, events| stage(h, HostStage::Observe) - events as f64 * timer);
    let stage_s = |s: HostStage| host_s(&|h, _, _, _| stage(h, s));

    let last = traced.last().expect("at least one traced run");
    let (host, _, calls) = last.traced.as_ref().expect("traced run");
    let coverages: Vec<f64> = traced
        .iter()
        .map(|r| r.traced.as_ref().expect("traced run").0.coverage())
        .collect();
    for c in coverages.iter().filter(|&&c| c < MIN_COVERAGE) {
        eprintln!(
            "{}: stride-1 profile covers {c:.4} of run wall time (< {MIN_COVERAGE})",
            spec.name
        );
        failed += 1;
    }
    let coverage = median(&coverages);
    let s = &last.stats;
    let refs = s.refs as f64;
    let kref = refs / 1000.0;
    let fills = (s.fills_from_l2 + s.fills_from_l3 + s.fills_from_memory) as f64;
    let fill_events = host.stage_events[HostStage::Fill as usize] as f64;
    let fill_events_per_fill = ratio(fill_events, fills + s.upgrades as f64);
    let events_per_ref = ratio(last.events as f64, refs);
    let overhead = ratio(
        median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
    );
    let (ring, l3, mem) = (&last.ring, &last.l3, &last.mem);
    let cycles = s.cycles as f64;
    let replay = replay::run(spec, seed, timer);

    eprintln!(
        "{}: baseline facts: engine.events_per_ref {events_per_ref:.3} (ROADMAP: ~16.9 on \
         trade2_snarf_o6), core.fill_events_per_fill {fill_events_per_fill:.6} = {fill_events} \
         / ({fills} fills + {} upgrades) (ROADMAP: exactly 1.0 on notesbench_wbht_o1), \
         core.profile_coverage {coverage:.4} (>= {MIN_COVERAGE}); tracing overhead {overhead:.3}x",
        spec.name, s.upgrades
    );
    // At one outstanding miss a blocked fill cannot occur, so every fill
    // and upgrade is exactly one fill-stage event; anything else means the
    // stage attribution has gone wrong.
    if spec.outstanding == 1 && fill_events != fills + s.upgrades as f64 {
        eprintln!(
            "{}: fill-stage events do not match fills + upgrades",
            spec.name
        );
        failed += 1;
    }

    let metrics: Vec<(&str, f64, &'static str)> = vec![
        ("engine.events_per_ref", events_per_ref, "events/ref"),
        ("engine.queue_self_s", stage_s(HostStage::EventQueue), "s"),
        (
            "engine.queue_high_water",
            s.event_queue_high_water as f64,
            "count",
        ),
        ("engine.push_pop_ns", replay.push_pop, "ns"),
        (
            "core.fill_events_per_fill",
            fill_events_per_fill,
            "events/fill",
        ),
        ("core.fill_self_s", stage_s(HostStage::Fill), "s"),
        ("core.castout_self_s", stage_s(HostStage::Castout), "s"),
        ("core.frontend_self_s", frontend_s, "s"),
        ("trace.next_record_s", next_record_s, "s"),
        (
            "trace.next_record_ns",
            ratio(next_record_s * 1e9, *calls as f64),
            "ns",
        ),
        ("core.snoop_self_s", stage_s(HostStage::Snoop), "s"),
        ("core.bus_issue_self_s", stage_s(HostStage::BusIssue), "s"),
        (
            "coherence.addr_txns_per_ref",
            ratio(ring.addr_issued as f64, refs),
            "txns/ref",
        ),
        (
            "coherence.retries_per_kref",
            ratio(s.retries_total as f64, kref),
            "1/kref",
        ),
        ("coherence.combine_ns", replay.combine, "ns"),
        ("core.observe_self_s", observe_s, "s"),
        ("cache.probe_ns", replay.probe, "ns"),
        ("cache.insert_ns", replay.insert, "ns"),
        ("cache.wbht_lookup_ns", replay.wbht_lookup, "ns"),
        ("cache.wbht_record_ns", replay.wbht_record, "ns"),
        ("cache.l2_hit_rate", s.l2_hit_rate(), "ratio"),
        ("cache.mshr_high_water", s.mshr_high_water as f64, "count"),
        ("cache.wbq_high_water", s.wbq_high_water as f64, "count"),
        (
            "ring.addr_busy_frac",
            ratio(ring.addr_busy_cycles as f64, cycles),
            "ratio",
        ),
        (
            "ring.data_busy_frac",
            ratio(ring.data_busy_cycles as f64, cycles),
            "ratio",
        ),
        (
            "mem.l3_load_hit_rate",
            ratio(l3.read_hits as f64, (l3.read_hits + l3.read_misses) as f64),
            "ratio",
        ),
        ("mem.l3_retries_issued", l3.retries_issued as f64, "count"),
        (
            "mem.reads_per_kref",
            ratio(mem.reads as f64, kref),
            "1/kref",
        ),
        (
            "mem.writes_per_kref",
            ratio(mem.writes as f64, kref),
            "1/kref",
        ),
        (
            "policy.clean_wb_aborted_frac",
            ratio(
                s.wb.clean_aborted as f64,
                (s.wb.clean_aborted + s.wb.clean_requests) as f64,
            ),
            "ratio",
        ),
        (
            "policy.snarfs_per_kref",
            ratio(s.wb.snarfed as f64, kref),
            "1/kref",
        ),
        (
            "policy.coherence_updates_per_kref",
            ratio(s.coherence_updates as f64, kref),
            "1/kref",
        ),
        ("core.sim_cycles", s.cycles as f64, "cycles"),
        ("core.cycles_per_kref", ratio(cycles, kref), "cycles/kref"),
        (
            "core.mean_miss_latency_cycles",
            s.miss_latency.mean(),
            "cycles",
        ),
        ("core.profile_coverage", coverage, "ratio"),
        ("trace.overhead_ratio", overhead, "ratio"),
    ];
    Outcome {
        attempted: all.len() as u64,
        failed,
        metrics: metrics
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect(),
    }
}
