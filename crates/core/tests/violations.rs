//! Directed coverage of every [`Violation`] variant.
//!
//! The chaos battery's failure reports are these `Display` strings; a
//! garbled or swapped field turns a real safety violation into an
//! undebuggable message. This test constructs each variant exactly as
//! its checker does and pins the rendered report, so every alarm the
//! invariant checker can raise has at least one test that has heard it
//! (enforced by `bft-lint`'s invariant-coverage rule).

use bft_core::Violation;
use bft_crypto::md5::Digest;

fn digest(byte: u8) -> Digest {
    Digest([byte; 16])
}

#[test]
fn agreement_report_names_both_replicas_and_digests() {
    let (a, b) = (digest(0xaa), digest(0xbb));
    let v = Violation::Agreement {
        seq: 42,
        a: (0, a),
        b: (3, b),
    };
    assert_eq!(
        v.to_string(),
        format!("agreement: replica 0 finalized {a} at seq 42 but replica 3 finalized {b}")
    );
}

#[test]
fn view_regression_report_shows_the_backwards_step() {
    let v = Violation::ViewRegression {
        replica: 2,
        from: 9,
        to: 4,
    };
    assert_eq!(
        v.to_string(),
        "view regression: replica 2 went from view 9 back to 4"
    );
}

#[test]
fn checkpoint_divergence_report_names_both_announcements() {
    let (a, b) = (digest(0x0c), digest(0x0d));
    let v = Violation::CheckpointDivergence {
        seq: 128,
        a: (0, a),
        b: (1, b),
    };
    assert_eq!(
        v.to_string(),
        format!(
            "checkpoint divergence at seq 128: replica 0 announced {a} but replica 1 announced {b}"
        )
    );
}

#[test]
fn linearizability_report_carries_client_and_detail() {
    let v = Violation::Linearizability {
        client: 5,
        timestamp: 33,
        detail: "read 10 older than completed read 12".to_string(),
    };
    assert_eq!(
        v.to_string(),
        "linearizability: client 5 op ts 33: read 10 older than completed read 12"
    );
}

#[test]
fn liveness_report_carries_the_detail() {
    let v = Violation::Liveness {
        detail: "client 0 stuck at 17/50 ops".to_string(),
    };
    assert_eq!(v.to_string(), "liveness: client 0 stuck at 17/50 ops");
}

#[test]
fn recovery_divergence_report_contrasts_ours_with_quorum() {
    let (ours, quorum) = (digest(0xe0), digest(0xe1));
    let v = Violation::RecoveryDivergence {
        replica: 3,
        seq: 256,
        ours,
        quorum,
    };
    assert_eq!(
        v.to_string(),
        format!(
            "recovery divergence: replica 3 rejoined at seq 256 with state {ours} but the \
             quorum's checkpoint digest is {quorum}"
        )
    );
}

#[test]
fn stale_lease_read_report_names_replica_client_and_detail() {
    let v = Violation::StaleLeaseRead {
        replica: 1,
        client: 8,
        timestamp: 21,
        detail: "lease value 3 behind completed 5".to_string(),
    };
    assert_eq!(
        v.to_string(),
        "stale lease read: replica 1 served client 8 ts 21: lease value 3 behind completed 5"
    );
}

#[test]
fn unhealed_corruption_report_shows_the_missed_deadline() {
    let v = Violation::UnhealedCorruption {
        replica: 2,
        corrupted_at_ns: 1_000_000,
        deadline_ns: 5_000_000,
    };
    assert_eq!(
        v.to_string(),
        "unhealed corruption: replica 2 corrupted at 1000000ns had not completed a clean \
         recovery by 5000000ns"
    );
}

#[test]
fn unbounded_growth_report_names_queue_and_cap() {
    let v = Violation::UnboundedGrowth {
        replica: 1,
        queue: "ingest_backlog",
        len: 5000,
        cap: 4096,
    };
    assert_eq!(
        v.to_string(),
        "unbounded growth: replica 1 queue ingest_backlog holds 5000 entries, cap 4096"
    );
}

#[test]
fn client_starvation_report_counts_starved_ops() {
    let v = Violation::ClientStarvation {
        client: 6,
        starved_ops: 3,
    };
    assert_eq!(
        v.to_string(),
        "client starvation: honest client 6 exhausted its retry budget (3 starved ops)"
    );
}

#[test]
fn violations_are_distinguishable_by_equality() {
    // The chaos minimizer dedups violations by equality; two different
    // variants over the same ids must never compare equal.
    let d = digest(0x42);
    let agreement = Violation::Agreement {
        seq: 1,
        a: (0, d),
        b: (1, d),
    };
    let checkpoint = Violation::CheckpointDivergence {
        seq: 1,
        a: (0, d),
        b: (1, d),
    };
    assert_ne!(agreement, checkpoint);
    assert_eq!(agreement.clone(), agreement);
}
