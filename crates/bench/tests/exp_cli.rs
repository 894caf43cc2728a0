//! The `exp` driver's command-line contract.

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_and_lists_the_valid_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .arg("nope")
        .output()
        .expect("exp runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment nope"), "{stderr}");
    for e in cmpsim_bench::experiments::all() {
        assert!(stderr.contains(e.id), "{} missing from: {stderr}", e.id);
    }
}
