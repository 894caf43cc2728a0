//! `cmpsim` argument validation, driven through the built binary.

use std::process::Command;

fn cmpsim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cmpsim"))
        .args(args)
        .output()
        .expect("cmpsim runs")
}

#[test]
fn out_of_range_counts_are_rejected_not_truncated() {
    // 258 once wrapped to a 2-core chip and 256 to "got 0".
    for (flag, value) in [
        ("--cores", "258"),
        ("--cores", "256"),
        ("--outstanding", "4294967297"),
        ("--profile-stride", "4294967296"),
    ] {
        let out = cmpsim(&[flag, value, "--refs", "200", "--json"]);
        assert!(!out.status.success(), "{flag} {value} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{flag} {value}")), "{stderr}");
    }
}
