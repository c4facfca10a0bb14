//! View-change regression tests for the optimistic fast path.
//!
//! The dangerous window is a slot that fast-committed (all `n` prepare
//! votes seen, result released to the client, **no** Commit messages
//! ever sent) and then loses its primary before any classic commit
//! certificate exists. The new view must re-adopt that slot with the
//! same request: every non-faulty replica lists its fast votes in its
//! VIEW-CHANGE message, and `f + 1` matching reports form a provable
//! certificate the new primary must honour (see `viewchange.rs` and
//! DESIGN.md §5.13 for the quorum-intersection argument).
//!
//! These tests drive that window end to end through the simulator; the
//! per-message adoption logic is unit-tested next to `compute_plan`.

use bft_core::fuzz::{ChaosDriver, Workload, FASTPATH};
use bft_core::prelude::*;
use bft_sim::chaos::{Fault, FaultEvent, NodeFault};
use bft_sim::dur;

/// A fast-committed-but-not-classically-committed slot must survive a
/// primary crash and re-election with the same request.
///
/// Construction: a fault-free prefix fast-commits a stream of slots
/// (two-round commits, zero Commit messages on the wire), then the
/// primary fail-stops mid-stream. The backups elect a new primary whose
/// NEW-VIEW must carry every fast-committed slot — adopted from `f + 1`
/// matching fast-vote reports — or the executed-but-uncertified suffix
/// would be re-ordered with different requests and the linearizability
/// and agreement invariants would trip. With the primary gone only
/// `n - 1` replicas remain, so every post-crash slot falls back to the
/// classic path; the run ends with a mixed fast/classic history that
/// the fast-commit safety invariant cross-checks replica by replica.
#[test]
fn fast_committed_slot_survives_primary_crash() {
    let mut cluster = Cluster::builder(FASTPATH.config(1))
        .seed(0xFC_01)
        .build_counter();
    // Enough closed-loop work that both clients are still mid-stream at
    // the crash instant (a fast-committed op completes in ~a millisecond).
    cluster.add_client(ChaosDriver::new(0xFC_02, 300, Workload::Adds));
    cluster.add_client(ChaosDriver::new(0xFC_03, 300, Workload::Mixed).delayed(dur::millis(1)));
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at_ns: dur::millis(100),
            fault: Fault::Node {
                node: 0,
                fault: NodeFault::Crash,
            },
        }],
    };
    let mut checker = InvariantChecker::new();
    cluster
        .run_with_plan::<CounterService, ChaosDriver>(&plan, dur::secs(15), &mut checker)
        .expect("no invariant may break");
    checker.finish().expect("linearizability must hold");
    assert_eq!(cluster.completed_ops(), 600, "progress must resume");
    let health = cluster.sim.health();
    assert!(
        health.total(Counter::FastCommits) > 0,
        "the fault-free prefix must have fast-committed slots"
    );
    assert!(
        health.total(Counter::ViewChanges) > 0,
        "the backups must have run a view change"
    );
    assert!(
        health.total(Counter::FastFallbacks) > 0,
        "post-crash slots (n - 1 voters) must fall back to the classic path"
    );
    // The survivors converge on one stable checkpoint root covering the
    // full history — crash-straddling fast slots included.
    let reference = cluster.replica::<CounterService>(1).stable_proof();
    assert!(reference.0 > 0, "the run must have produced a checkpoint");
    for r in 2..4 {
        assert_eq!(
            cluster.replica::<CounterService>(r).stable_proof(),
            reference,
            "replica {r} diverges after the view change"
        );
    }
}

/// Repeated primary crashes across several views: each view change must
/// carry the fast-committed suffix of the previous view forward. Runs
/// the same construction as above through two successive primary
/// fail-stops (views 0 → 1 → 2) to cover fast votes cast *in a view
/// that was itself installed by a view change*.
#[test]
fn fast_path_survives_cascaded_view_changes() {
    let mut cluster = Cluster::builder(FASTPATH.config(1))
        .seed(0xFC_11)
        .build_counter();
    cluster.add_client(ChaosDriver::new(0xFC_12, 600, Workload::Mixed));
    cluster.add_client(ChaosDriver::new(0xFC_13, 600, Workload::Adds));
    // Timeline (view-change timeout is 400ms): the view-0 primary
    // crashes mid-stream, view 1 is installed around 450ms, and its
    // primary crashes in turn while the ex-primary is still down — the
    // second view change must re-carry everything the first one adopted.
    // The ex-primary restarts afterwards and rejoins via NEW-VIEW
    // retransmission, leaving replicas 0, 2, 3 to finish the run.
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                at_ns: dur::millis(30),
                fault: Fault::Node {
                    node: 0,
                    fault: NodeFault::Crash,
                },
            },
            FaultEvent {
                at_ns: dur::millis(600),
                fault: Fault::Node {
                    node: 1,
                    fault: NodeFault::Crash,
                },
            },
            FaultEvent {
                at_ns: dur::millis(700),
                fault: Fault::Node {
                    node: 0,
                    fault: NodeFault::Restart,
                },
            },
        ],
    };
    let mut checker = InvariantChecker::new();
    cluster
        .run_with_plan::<CounterService, ChaosDriver>(&plan, dur::secs(60), &mut checker)
        .expect("no invariant may break");
    checker.finish().expect("linearizability must hold");
    assert_eq!(cluster.completed_ops(), 1_200, "progress must resume");
    assert!(
        cluster.sim.health().total(Counter::ViewChanges) > 0,
        "the crashes must have forced view changes"
    );
    assert!(
        cluster.sim.health().total(Counter::FastCommits) > 0,
        "fast commits must happen around the crash windows"
    );
}
