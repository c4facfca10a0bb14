//! View-change regression tests run end to end through the simulator;
//! the per-message rules are unit-tested next to `compute_plan`.

use bft_core::fuzz::{ChaosDriver, Workload, CLASSIC};
use bft_core::prelude::*;
use bft_sim::chaos::{Fault, FaultEvent, NodeFault};
use bft_sim::dur;

/// Repeated primary crashes across several views: each view change must
/// carry the committed suffix of the previous view forward, including
/// certificates prepared *in a view that was itself installed by a view
/// change*. Two successive primary fail-stops (views 0 → 1 → 2) with
/// closed-loop clients mid-stream; the invariant checker cross-checks
/// agreement replica by replica and linearizability at the end.
#[test]
fn committed_suffix_survives_cascaded_view_changes() {
    let mut cluster = Cluster::builder(CLASSIC.config(1))
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
    for r in [0, 2, 3] {
        assert_eq!(
            cluster.replica::<CounterService>(r).view(),
            2,
            "replica {r} must be in the view after both crashes"
        );
    }
}
