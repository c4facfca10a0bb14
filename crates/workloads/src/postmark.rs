//! The PostMark benchmark (Katcher, 1997) — "models the load on Internet
//! Service Providers": a pool of many small files churned by
//! create/delete and read/append transactions.
//!
//! The paper "configured PostMark with an initial pool of files with
//! sizes between 512 bytes and 16 Kbytes". Each transaction pairs a
//! create-or-delete with a read-or-append, following the original
//! benchmark. Unlike Andrew, the client does almost no computation
//! between operations, which is why the relative overhead of replication
//! is highest here (BFS throughput 47% below NO-REP).

use crate::script::{Script, WorkItem};
use bft_fs::client::FileAction;
use bft_sim::time::dur;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// PostMark configuration.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostmarkConfig {
    /// Initial number of files in the pool.
    pub initial_files: u32,
    /// Number of transactions.
    pub transactions: u32,
    /// Minimum file size.
    pub min_size: u64,
    /// Maximum file size.
    pub max_size: u64,
    /// Subdirectories the pool is spread over.
    pub subdirs: u32,
    /// Client compute per transaction (benchmark bookkeeping only).
    pub per_txn_ns: u64,
    /// RNG seed for the transaction mix.
    pub seed: u64,
}

impl Default for PostmarkConfig {
    fn default() -> Self {
        PostmarkConfig {
            initial_files: 400,
            transactions: 2_000,
            min_size: 512,
            max_size: 16 * 1024,
            subdirs: 10,
            per_txn_ns: dur::micros(300),
            seed: 0x9057_0a1c,
        }
    }
}

/// Generates the PostMark script: pool setup, then the transaction mix,
/// then pool teardown (as the original benchmark does).
pub fn postmark_script(cfg: PostmarkConfig) -> Script {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut items = Vec::new();
    let mut next_id: u32 = 0;
    // Live pool: file id → (path, size).
    let mut pool: Vec<(u32, String, u64)> = Vec::new();
    let size_of = |rng: &mut StdRng| -> u64 { rng.gen_range(cfg.min_size..=cfg.max_size) };

    for d in 0..cfg.subdirs {
        items.push(WorkItem::Action(FileAction::Mkdir(format!("s{d}"))));
    }
    for _ in 0..cfg.initial_files {
        let id = next_id;
        next_id += 1;
        let dir = id % cfg.subdirs;
        let size = size_of(&mut rng);
        let path = format!("s{dir}/file{id}");
        items.push(WorkItem::Action(FileAction::CreateFile(path.clone(), size)));
        pool.push((id, path, size));
    }

    for _ in 0..cfg.transactions {
        items.push(WorkItem::Compute(cfg.per_txn_ns));
        // Half A: create or delete.
        if rng.gen_bool(0.5) || pool.len() < 2 {
            let id = next_id;
            next_id += 1;
            let dir = id % cfg.subdirs;
            let size = size_of(&mut rng);
            let path = format!("s{dir}/file{id}");
            items.push(WorkItem::Action(FileAction::CreateFile(path.clone(), size)));
            pool.push((id, path, size));
        } else {
            let victim = rng.gen_range(0..pool.len());
            let (_, path, _) = pool.swap_remove(victim);
            items.push(WorkItem::Action(FileAction::Remove(path)));
        }
        // Half B: read or append.
        let target = rng.gen_range(0..pool.len());
        if rng.gen_bool(0.5) {
            items.push(WorkItem::Action(FileAction::ReadFile(
                pool[target].1.clone(),
            )));
        } else {
            let bytes = size_of(&mut rng).min(4096);
            pool[target].2 += bytes;
            items.push(WorkItem::Action(FileAction::Append(
                pool[target].1.clone(),
                bytes,
            )));
        }
        items.push(WorkItem::Mark);
    }

    // Teardown: delete the remaining pool.
    for (_, path, _) in pool {
        items.push(WorkItem::Action(FileAction::Remove(path)));
    }
    Script { items }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_has_expected_shape() {
        let cfg = PostmarkConfig {
            initial_files: 50,
            transactions: 100,
            ..PostmarkConfig::default()
        };
        let s = postmark_script(cfg);
        assert_eq!(s.mark_count(), 100);
        // Setup (subdirs + files) + 2 actions per txn + teardown.
        assert!(s.action_count() >= (10 + 50 + 200) as usize);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = postmark_script(PostmarkConfig::default());
        let b = postmark_script(PostmarkConfig::default());
        assert_eq!(a.items.len(), b.items.len());
        assert_eq!(a.items, b.items);
    }

    #[test]
    fn different_seed_differs() {
        let cfg = PostmarkConfig {
            seed: 1,
            ..PostmarkConfig::default()
        };
        let a = postmark_script(cfg);
        let b = postmark_script(PostmarkConfig::default());
        assert_ne!(a.items, b.items);
    }

    #[test]
    fn script_executes_cleanly() {
        let cfg = PostmarkConfig {
            initial_files: 30,
            transactions: 60,
            ..PostmarkConfig::default()
        };
        let runner = crate::script::run_script_locally(postmark_script(cfg));
        assert_eq!(runner.failed, 0, "all transactions must succeed");
        assert_eq!(runner.marks, 60);
    }

    /// Pins what the benchmarks' metadata-only file service computes over
    /// the first 600 items of the default script (pool setup and the first
    /// transactions), driven as `run_script_locally` drives it, with each
    /// RPC costed after it applies, as a replica charges it.
    ///
    /// The final `state_digest()` hashes every inode's `Content::Print`,
    /// so a change to how a write is fingerprinted fails here. That
    /// digest also seeds the disk model's per-op index in
    /// `FsService::op_cost_ns`: under NFS-STD every metadata op's
    /// synchronous disk charge depends on it, so such a change moves
    /// simulated time too. Under BFS the charge is zero until the working
    /// set outgrows the server's memory, as it never does here. Values
    /// taken at commit 258ba88.
    #[test]
    fn metadata_only_prints_and_costs_are_unchanged() {
        use crate::script::{Drive, ScriptRunner};
        use bft_core::service::Service;
        use bft_core::wire::Wire;
        use bft_fs::client::NfsClientConfig;
        use bft_fs::disk::ServerMode;
        use bft_fs::ops::NfsResult;
        use bft_fs::service::FsService;

        let mut script = postmark_script(PostmarkConfig::default());
        script.items.truncate(600);
        let mut runner = ScriptRunner::new(script, NfsClientConfig::default());
        let mut bfs = FsService::for_benchmarks(ServerMode::Bfs);
        let mut nfsstd = FsService::for_benchmarks(ServerMode::NfsStd);
        let (mut rpcs, mut bfs_ns, mut nfsstd_ns) = (0u64, 0u64, 0u64);
        let mut response: Option<NfsResult> = None;
        loop {
            match runner.advance(response.take().as_ref()) {
                Drive::Rpc(op) => {
                    let op = op.to_bytes();
                    let result = bfs.apply_encoded(&op);
                    assert_eq!(nfsstd.apply_encoded(&op), result);
                    bfs_ns += bfs.op_cost_ns(&op, &result);
                    nfsstd_ns += nfsstd.op_cost_ns(&op, &result);
                    rpcs += 1;
                    response = Some(NfsResult::from_bytes(&result).expect("decodes"));
                }
                Drive::Compute(_) => {}
                Drive::Done => break,
            }
        }
        assert_eq!(runner.failed, 0);
        assert_eq!(rpcs, 1904);
        assert_eq!(
            bfs.state_digest().to_string(),
            "7c39b156582948bf40c66bae10223744"
        );
        assert_eq!((bfs_ns, nfsstd_ns), (67_842_032, 382_197_872));
    }

    #[test]
    fn file_sizes_in_configured_range() {
        let cfg = PostmarkConfig::default();
        let s = postmark_script(cfg);
        for item in &s.items {
            if let WorkItem::Action(FileAction::CreateFile(_, size)) = item {
                assert!(*size >= cfg.min_size && *size <= cfg.max_size);
            }
        }
    }
}
