//! Read/write-mix client driver and runner for the read-lease
//! experiments (arXiv:2107.11144): closed-loop clients that interleave
//! read-only and read-write operations at a configured ratio against the
//! stateful counter service, keeping read and write latencies in
//! separate histograms — the shared `client.latency` metric lumps both,
//! which would hide exactly the effect the lease experiments measure.
//!
//! The counter service (not the stateless micro-benchmark skeleton) is
//! essential here: its read results depend on the write history, so
//! replicas answering at diverging states return mismatched replies and
//! the leases-off read-only path genuinely retries and falls back. The
//! zero-filled simple service can never conflict.

use bft_core::client::{ClientApi, ClientDriver};
use bft_core::cluster::Cluster;
use bft_core::config::Config;
use bft_core::service::CounterService;
use bft_sim::time::dur;
use bft_sim::{Counter, NetConfig};

/// A closed-loop client issuing counter reads and writes at a fixed
/// ratio, with the per-operation choice drawn from a deterministic
/// per-client PRNG so runs replay exactly. Latencies are collected per
/// kind.
#[derive(Debug, Clone)]
pub struct ReadMixDriver {
    /// Writes per 1000 operations (the "conflict rate": every write the
    /// primary orders fences or revokes outstanding leases, and changes
    /// the value concurrent reads observe).
    pub write_permille: u32,
    /// Stop after this many operations (`u64::MAX` = run forever).
    pub max_ops: u64,
    /// Delay before the first operation (client ramp-up stagger).
    pub start_delay_ns: u64,
    /// Completed read-only operation latencies, in nanoseconds.
    pub read_latencies_ns: Vec<u64>,
    /// Completed read-write operation latencies, in nanoseconds.
    pub write_latencies_ns: Vec<u64>,
    rng: u64,
    issued: u64,
    last_was_read: bool,
}

impl ReadMixDriver {
    /// A driver issuing `write_permille` writes (`add 1`) per 1000 ops,
    /// the rest reads (`get`), seeded deterministically.
    pub fn new(write_permille: u32, seed: u64) -> ReadMixDriver {
        ReadMixDriver {
            write_permille,
            max_ops: u64::MAX,
            start_delay_ns: 0,
            read_latencies_ns: Vec::new(),
            write_latencies_ns: Vec::new(),
            rng: seed | 1,
            issued: 0,
            last_was_read: false,
        }
    }

    /// Sets the ramp-up delay before the first operation.
    pub fn with_start_delay(mut self, delay_ns: u64) -> ReadMixDriver {
        self.start_delay_ns = delay_ns;
        self
    }

    /// Limits the number of operations.
    pub fn with_max_ops(mut self, max_ops: u64) -> ReadMixDriver {
        self.max_ops = max_ops;
        self
    }

    fn next_is_write(&mut self) -> bool {
        // splitmix64 step: well-distributed low bits from a cheap state.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % 1000) < u64::from(self.write_permille)
    }

    fn submit(&mut self, api: &mut ClientApi<'_, '_>) {
        if self.issued < self.max_ops {
            self.issued += 1;
            let write = self.next_is_write();
            self.last_was_read = !write;
            let op = if write {
                CounterService::add_op(1)
            } else {
                CounterService::get_op()
            };
            api.submit(op, !write);
        }
    }
}

impl ClientDriver for ReadMixDriver {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        if self.start_delay_ns > 0 {
            api.set_timer(self.start_delay_ns, 0);
        } else {
            self.submit(api);
        }
    }

    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], latency: u64) {
        if self.last_was_read {
            self.read_latencies_ns.push(latency);
        } else {
            self.write_latencies_ns.push(latency);
        }
        self.submit(api);
    }

    fn on_timer(&mut self, api: &mut ClientApi<'_, '_>, _token: u64) {
        if self.issued == 0 {
            self.submit(api);
        }
    }
}

/// Aggregate results of a read/write-mix run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixStats {
    /// Read-only operations completed across all clients.
    pub reads: u64,
    /// Read-write operations completed across all clients.
    pub writes: u64,
    /// Median read latency, microseconds.
    pub read_p50_us: f64,
    /// 99th-percentile read latency, microseconds.
    pub read_p99_us: f64,
    /// Median write latency, microseconds.
    pub write_p50_us: f64,
    /// Reads answered from a live lease (one round at a holder).
    pub lease_reads: u64,
    /// Read-only rounds re-tried after replicas answered at diverging
    /// states (no `2f+1` matching replies).
    pub ro_retries: u64,
    /// Reads that exhausted the read-only path and were re-issued on the
    /// ordered read-write path.
    pub ro_fallbacks: u64,
}

fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64 / 1e3
}

/// Runs `clients` closed-loop mix clients for `ops_per_client` operations
/// each and reports per-kind latency percentiles plus the lease-path
/// counters. `jitter_ns` adds uniform random per-message delay, widening
/// the window in which replicas answer reads at diverging states.
/// Deterministic in `seed`.
pub fn read_mix_run(
    cfg: Config,
    clients: u32,
    ops_per_client: u64,
    write_permille: u32,
    jitter_ns: u64,
    seed: u64,
) -> MixStats {
    let mut cluster = Cluster::new(seed, NetConfig::SWITCHED_100MBPS, cfg, |_| {
        CounterService::default()
    });
    cluster.sim.network_mut().set_jitter_ns(jitter_ns);
    let mut ids = Vec::new();
    for i in 0..clients {
        ids.push(
            cluster.add_client(
                ReadMixDriver::new(write_permille, seed ^ (0xc11e57 + u64::from(i)))
                    .with_start_delay(u64::from(i) * dur::micros(400))
                    .with_max_ops(ops_per_client),
            ),
        );
    }
    let total = u64::from(clients) * ops_per_client;
    let mut guard = 0;
    while cluster.completed_ops() < total && guard < 10_000 {
        cluster.run_for(dur::millis(50));
        guard += 1;
    }
    assert_eq!(cluster.completed_ops(), total, "mix run did not finish");
    let mut reads_ns = Vec::new();
    let mut writes_ns = Vec::new();
    for &id in &ids {
        let d = cluster.client::<ReadMixDriver>(id).driver();
        reads_ns.extend_from_slice(&d.read_latencies_ns);
        writes_ns.extend_from_slice(&d.write_latencies_ns);
    }
    reads_ns.sort_unstable();
    writes_ns.sort_unstable();
    let health = cluster.sim.health();
    MixStats {
        reads: reads_ns.len() as u64,
        writes: writes_ns.len() as u64,
        read_p50_us: percentile_us(&reads_ns, 0.50),
        read_p99_us: percentile_us(&reads_ns, 0.99),
        write_p50_us: percentile_us(&writes_ns, 0.50),
        lease_reads: health.total(Counter::LeaseReads),
        ro_retries: health.total(Counter::RoRetries),
        ro_fallbacks: health.total(Counter::RoFallbacks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leased(cfg: &mut Config) {
        cfg.read_leases = true;
        cfg.read_lease_ns = dur::millis(100);
    }

    #[test]
    fn mix_ratio_is_respected() {
        let mut cfg = Config::new(1);
        leased(&mut cfg);
        let stats = read_mix_run(cfg, 2, 100, 100, 0, 7);
        assert_eq!(stats.reads + stats.writes, 200);
        // 10% writes ± sampling noise.
        assert!(
            stats.writes >= 8 && stats.writes <= 40,
            "write count {} far from 10% of 200",
            stats.writes
        );
    }

    #[test]
    fn pure_read_mix_issues_no_writes() {
        let mut cfg = Config::new(1);
        leased(&mut cfg);
        let stats = read_mix_run(cfg, 1, 50, 0, 0, 7);
        assert_eq!(stats.writes, 0);
        assert_eq!(stats.reads, 50);
    }

    #[test]
    fn leases_serve_reads_under_write_conflicts() {
        let mut cfg = Config::new(1);
        leased(&mut cfg);
        let stats = read_mix_run(cfg, 4, 150, 100, 0, 11);
        assert!(stats.lease_reads > 0, "no reads served from leases");
        assert_eq!(stats.ro_fallbacks, 0, "leased reads must not fall back");
    }

    #[test]
    fn lease_reads_beat_ordered_writes() {
        let mut cfg = Config::new(1);
        leased(&mut cfg);
        let stats = read_mix_run(cfg, 4, 150, 100, 0, 13);
        assert!(
            stats.read_p50_us < stats.write_p50_us,
            "leased read p50 {}us should undercut ordered write p50 {}us",
            stats.read_p50_us,
            stats.write_p50_us
        );
    }
}
