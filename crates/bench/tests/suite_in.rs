//! `suite --in` re-checks the paper's claims from a document alone.

use std::process::Command;

use bft_bench::paper::CLAIMS;

#[test]
fn suite_in_rechecks_the_committed_baseline_without_simulating() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_56.json");
    let out = Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(["--in", baseline])
        .output()
        .expect("suite runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    // Every family announces itself on stderr before it simulates.
    assert!(!stderr.contains("suite: "), "{stderr}");
    for claim in CLAIMS {
        let line = stdout
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{} ", claim.id)))
            .unwrap_or_else(|| panic!("claim {} not printed:\n{stdout}", claim.id));
        assert!(line.ends_with("| ok"), "{line}");
    }
}
