//! Extension: incremental hierarchical checkpointing.
//!
//! The paper keeps checkpoints cheap by digesting only the state
//! partitions modified since the previous checkpoint and folding the
//! changes up a tree of partition digests. This bench drives the real
//! replica stack over BFS filesystems of growing size (1x / 10x / 100x
//! files) with a workload that keeps touching the same few partitions,
//! and compares the simulated checkpoint digest CPU between the
//! incremental path and the full-recompute baseline
//! (`incremental_checkpoints = false`). The full cost grows linearly
//! with state size; the incremental cost tracks the working set.

use bft_bench::{figure_header, observe, ratio, table_header, table_row, us};
use bft_core::prelude::*;
use bft_core::wire::Wire;
use bft_fs::disk::ServerMode;
use bft_fs::ops::{NfsOp, ROOT_FH};
use bft_fs::service::FsService;

/// A pre-populated BFS service with `files` empty files under the root.
/// Applied outside the protocol so every replica starts from the same
/// state without paying agreement for the setup ops.
fn populated(files: u32) -> FsService {
    let mut svc = FsService::for_benchmarks(ServerMode::Bfs);
    for i in 0..files {
        svc.apply_encoded(
            &NfsOp::Create {
                dir: ROOT_FH,
                name: format!("f{i}"),
            }
            .to_bytes(),
        );
    }
    svc.commit_prefix(usize::MAX);
    svc
}

/// Submits `count` writes to the first created file, one at a time.
struct WriteDriver {
    remaining: u64,
    op: Vec<u8>,
}

impl WriteDriver {
    fn new(count: u64) -> WriteDriver {
        WriteDriver {
            remaining: count,
            op: NfsOp::Write {
                fh: 2,
                offset: 0,
                data: vec![7; 1024],
            }
            .to_bytes(),
        }
    }
}

impl ClientDriver for WriteDriver {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            api.submit(self.op.clone(), false);
        }
    }
    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _result: &[u8], _lat: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            api.submit(self.op.clone(), false);
        }
    }
}

/// Mean simulated checkpoint digest cost (ns per checkpoint) for a
/// cluster of replicas holding `files` files.
fn checkpoint_ns(files: u32, incremental: bool) -> f64 {
    let mut cfg = Config::new(1);
    cfg.checkpoint_interval = 16;
    cfg.log_window = 32;
    cfg.incremental_checkpoints = incremental;
    let template = populated(files);
    let mut cluster = Cluster::new(31, NetConfig::SWITCHED_100MBPS, cfg, |_| template.clone());
    cluster.add_client(WriteDriver::new(96));
    cluster.run_for(dur::secs(60));
    let made = cluster.sim.health().total(Counter::CheckpointsMade);
    let spent = cluster.sim.health().total(Counter::CheckpointDigestNs);
    assert!(made > 0, "no checkpoints happened");
    spent as f64 / made as f64
}

fn main() {
    figure_header(
        "Extension",
        "checkpoint digest CPU vs state size: full recompute vs incremental",
        "hierarchical state digests make checkpoint cost O(dirty), not O(state)",
    );
    table_header(&["files", "full/ckpt", "incr/ckpt", "speedup"]);
    let mut speedups = Vec::new();
    for files in [100u32, 1_000, 10_000] {
        let full = checkpoint_ns(files, false);
        let incr = checkpoint_ns(files, true);
        speedups.push(full / incr);
        table_row(&[files.to_string(), us(full), us(incr), ratio(full / incr)]);
    }
    observe(&format!(
        "incremental checkpoints win {} at 1x and {} at 100x state size",
        ratio(speedups[0]),
        ratio(speedups[2]),
    ));
    assert!(
        speedups[2] >= 5.0,
        "incremental must be at least 5x cheaper at 100x state (got {:.1}x)",
        speedups[2]
    );
    assert!(
        speedups.windows(2).all(|w| w[1] > w[0]),
        "the incremental advantage must grow with state size"
    );
}
