//! Runs one registered experiment by id, or every experiment with
//! `all` (the source of `EXPERIMENTS.md`).
//!
//! ```text
//! exp <id> [--jobs N]
//! exp all [--jobs N]
//! exp policy-faceoff --check [--jobs N]
//! ```
//!
//! `<id>` is one of [`cmpsim_bench::experiments::all`]'s ids (`table1`
//! … `table5`, `fig2` … `fig7`, `ext-*`, `workloads`, `policy-audit`,
//! `policy-faceoff`). The scale comes from `CMPSIM_PROFILE`; the worker
//! count from `--jobs` / `CMPSIM_JOBS`. `--check` self-checks the
//! policy face-off harness instead of printing its tables. An unknown
//! id exits 2 and lists the valid ones.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Instant;

use cmpsim_bench::experiments;

fn main() -> ExitCode {
    cmpsim_bench::jobs_from_args();
    let mut id = None;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => {
                args.next(); // consumed by jobs_from_args
            }
            "--check" => check = true,
            a if a.starts_with("--jobs=") => {}
            a if id.is_none() && !a.starts_with('-') => id = Some(a.to_string()),
            other => return usage(&format!("unexpected argument {other}")),
        }
    }
    let Some(id) = id else {
        return usage("missing experiment id");
    };
    let profile = cmpsim_bench::Profile::from_env();
    if check {
        if id != "policy-faceoff" {
            return usage("--check applies to policy-faceoff only");
        }
        let fails = experiments::policy_faceoff::check(&profile);
        for f in &fails {
            eprintln!("policy-faceoff check: FAIL: {f}");
        }
        if !fails.is_empty() {
            return ExitCode::FAILURE;
        }
        println!("policy-faceoff check: PASS");
        return ExitCode::SUCCESS;
    }
    if id == "all" {
        println!(
            "# Experiment report (scale factor {}, {} refs/thread)\n",
            profile.scale_factor, profile.refs_per_thread
        );
        for e in experiments::all() {
            let t0 = Instant::now();
            let out = (e.run)(&profile);
            println!("== {} ==", e.title);
            println!("{}", out);
            println!("({}: {:.1}s)\n", e.id, t0.elapsed().as_secs_f64());
        }
        return ExitCode::SUCCESS;
    }
    let Some(e) = experiments::by_id(&id) else {
        return usage(&format!("unknown experiment {id}"));
    };
    println!("== {} ==", e.title);
    println!("{}", (e.run)(&profile));
    ExitCode::SUCCESS
}

/// Reports `msg` with the valid ids on stderr; exit status 2.
fn usage(msg: &str) -> ExitCode {
    let ids: Vec<&str> = experiments::all().iter().map(|e| e.id).collect();
    eprintln!(
        "exp: {msg}\nusage: exp <id>|all [--jobs N]   (policy-faceoff also takes --check)\n\
         ids: all {}",
        ids.join(" ")
    );
    ExitCode::from(2)
}
