//! Time-to-heal probe for proactive recovery (extension of the OSDI '00
//! recovery evaluation): a replica's state is silently corrupted under
//! load, and we measure how long until the next watchdog audit catches
//! the bad partition, re-fetches it, and the replica replays the ordered
//! work it discarded. The heal time is dominated by the wait for the
//! staggered watchdog, so it is flat across payload sizes — the payload
//! column instead moves the steady-state throughput and the depth of
//! the dip while the corrupt replica sits outside checkpoint quorum.
//!
//! Run with `cargo run -p bft-bench --bin recovery [--release]`.

use bft_bench::{figure_header, observe, ops, ratio, secs, table_header, table_row};
use bft_core::prelude::*;
use bft_sim::dur;

/// Closed-loop writer issuing `add 1` ops padded to a target size (the
/// counter ignores bytes past the operand, so padding only exercises the
/// transport, batching and replay paths).
struct PaddedAdds {
    pad: usize,
}

impl PaddedAdds {
    fn op(&self) -> Vec<u8> {
        let mut op = CounterService::add_op(1);
        op.resize(2 + self.pad, 0);
        op
    }
}

impl ClientDriver for PaddedAdds {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        api.submit(self.op(), false);
    }
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], _lat: u64) {
        api.submit(self.op(), false);
    }
}

/// The corruption XORs the counter's top bit (salt 63), so until the
/// audit restores a quorum-attested copy the victim's register sits
/// ~2^63 away from any value the cluster could legitimately reach, no
/// matter how many ops execute on top of it. Healed = top bit clear.
fn healed(cluster: &Cluster, victim: u32) -> bool {
    cluster.replica::<CounterService>(victim).service().value() < 1 << 62
}

fn main() {
    figure_header(
        "Recovery",
        "time to heal a silently corrupted replica vs request payload size",
        "proactive recovery bounds the damage a corrupt replica can do to one recovery period",
    );
    table_header(&["payload", "steady ops/s", "heal ops/s", "dip", "heal time"]);
    for pad in [0usize, 1024, 4096] {
        let mut cfg = Config::new(1);
        cfg.checkpoint_interval = 8;
        // Wide window: a corrupt replica stops stabilising checkpoints
        // (its digests mismatch the quorum), so its log GC stalls and a
        // small window would wedge it out of the water marks within
        // tens of milliseconds — healing via the lag-triggered state
        // transfer backstop instead of the recovery audit this bench
        // measures. 1024 slots outlasts any watchdog interval here.
        cfg.log_window = 1024;
        cfg.proactive_recovery_interval_ns = dur::millis(500);
        let mut cluster = Cluster::builder(cfg)
            .seed(0xBEEF ^ pad as u64)
            .net(NetConfig::SWITCHED_100MBPS)
            .build_counter();
        for _ in 0..6 {
            cluster.add_client(PaddedAdds { pad });
        }
        // Warm up, then take the undisturbed baseline.
        cluster.run_for(dur::secs(1));
        let warm = cluster.completed_ops();
        cluster.run_for(dur::secs(1));
        let steady = (cluster.completed_ops() - warm) as f64;

        // Land the corruption mid-interval: the victim's watchdog fires
        // at 375 ms + k*500 ms, so injecting at 2.6 s leaves its ongoing
        // recovery finished and the next fire ~275 ms out. (Injecting at
        // exactly 2.0 s races an in-flight audit whose fetched partition
        // overwrites the corruption within milliseconds — measuring
        // nothing.)
        cluster.run_for(dur::millis(600));
        // Lease contention (watchdogs fire cluster-wide every 125 ms
        // but the lease is 300 ms) skews the staggered schedule, so the
        // victim may still be mid-recovery here — and right after one it
        // trails the group and heals trivially through its rejoin
        // catch-up transfer. Wait until it is idle AND caught up, so the
        // corruption can only be healed by the next watchdog audit.
        loop {
            let victim = cluster.replica::<CounterService>(2);
            let peer = cluster.replica::<CounterService>(3);
            if !victim.recovering() && victim.last_executed() + 4 >= peer.last_executed() {
                break;
            }
            cluster.run_for(dur::millis(5));
        }
        // Flip the top bit of replica 2's register (odd salt: its
        // retained checkpoint copies are corrupted too, forcing the
        // audit's re-fetch path), then step until the next watchdog
        // fire audits and heals it.
        cluster.replica_mut::<CounterService>(2).corrupt_state(63);
        let corrupted = cluster.completed_ops();
        let step = dur::millis(5);
        let mut waited = 0u64;
        while !healed(&cluster, 2) && waited < dur::secs(30) {
            cluster.run_for(step);
            waited += step;
        }
        let heal_secs = waited as f64 / 1e9;
        let during = (cluster.completed_ops() - corrupted) as f64 / heal_secs;
        assert!(
            healed(&cluster, 2),
            "cluster failed to heal within 30 s at payload {pad}"
        );
        assert!(
            cluster.sim.health().total(Counter::RecoveryAuditRefetch) > 0,
            "the heal must have come through the recovery audit"
        );
        table_row(&[
            format!("{pad}B"),
            ops(steady),
            ops(during),
            ratio(during / steady),
            secs(heal_secs),
        ]);
    }
    observe(
        "heal time is bounded by the watchdog period regardless of payload; \
         throughput dips while the corrupt replica is outside checkpoint quorum",
    );
}
