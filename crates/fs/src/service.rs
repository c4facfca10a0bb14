//! `FsService`: the BFS file service as a replicated state machine.
//!
//! Operations arrive as encoded [`NfsOp`]s and results leave as encoded
//! [`NfsResult`]s; the BFT library treats both as opaque bytes. The same
//! type also backs the unreplicated baselines (NO-REP, NFS-STD) through
//! the `direct` module of `bft-workloads`.

use crate::disk::{FsCostModel, ServerMode};
use crate::ops::{NfsOp, NfsResult};
use crate::state::{DataMode, FsState, FS_PARTITIONS};
use bft_core::service::{RestoreError, Service};
use bft_core::types::ClientId;
use bft_core::wire::Wire;
use bft_crypto::md5::Digest;

/// The BFS file service.
#[derive(Debug, Clone)]
pub struct FsService {
    state: FsState,
    cost: FsCostModel,
}

impl FsService {
    /// Creates the service with the given data mode and cost model.
    pub fn new(data_mode: DataMode, cost: FsCostModel) -> FsService {
        FsService {
            state: FsState::new(data_mode),
            cost,
        }
    }

    /// A test-friendly instance: real bytes, BFS cost model.
    pub fn in_memory() -> FsService {
        FsService::new(DataMode::Store, FsCostModel::new(ServerMode::Bfs))
    }

    /// A benchmark instance: metadata only, chosen server mode.
    pub fn for_benchmarks(mode: ServerMode) -> FsService {
        FsService::new(DataMode::MetadataOnly, FsCostModel::new(mode))
    }

    /// Read access to the filesystem state.
    pub fn state(&self) -> &FsState {
        &self.state
    }

    /// Decodes, applies, and re-encodes an operation (shared with the
    /// unreplicated baselines).
    pub fn apply_encoded(&mut self, op: &[u8]) -> Vec<u8> {
        let result = match NfsOp::from_bytes(op) {
            Ok(op) => self.state.apply(&op),
            Err(_) => NfsResult::Err(crate::ops::NfsError::Inval),
        };
        result.to_bytes()
    }

    /// Simulated server time (CPU + synchronous disk) for an encoded
    /// operation, computed deterministically from the current state.
    pub fn op_cost_ns(&self, op: &[u8], result: &[u8]) -> u64 {
        let Ok(op) = NfsOp::from_bytes(op) else {
            return self.cost.base_cpu_ns;
        };
        let data_bytes = match &op {
            NfsOp::Write { data, .. } => data.len(),
            NfsOp::Read { .. } => result.len().saturating_sub(40),
            _ => 0,
        };
        let is_write = matches!(op, NfsOp::Write { .. });
        let cpu = self.cost.cpu_ns(data_bytes);
        let disk = self.cost.sync_disk_ns(
            op.is_metadata_write(),
            is_write,
            data_bytes,
            self.state.data_bytes(),
            // A per-op index drawn from the state fingerprint, which
            // hashes every inode, `Content::Print` included: a change to
            // how a print is computed moves every NFS-STD metadata charge
            // and every over-memory eviction.
            self.state.state_digest().short() ^ self.state.data_bytes(),
        );
        cpu + disk
    }
}

impl Service for FsService {
    fn execute(&mut self, _client: ClientId, op: &[u8]) -> Vec<u8> {
        self.apply_encoded(op)
    }

    fn execute_read_only(&self, _client: ClientId, op: &[u8]) -> Vec<u8> {
        let result = match NfsOp::from_bytes(op) {
            Ok(op) if op.is_read_only() => self.state.query(&op),
            _ => NfsResult::Err(crate::ops::NfsError::Inval),
        };
        result.to_bytes()
    }

    fn is_read_only(&self, op: &[u8]) -> bool {
        NfsOp::from_bytes(op).is_ok_and(|op| op.is_read_only())
    }

    fn exec_cost_ns(&self, op: &[u8], result: &[u8]) -> u64 {
        self.op_cost_ns(op, result)
    }

    fn state_digest(&self) -> Digest {
        self.state.state_digest()
    }

    fn snapshot(&self) -> Vec<u8> {
        self.state.snapshot()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), RestoreError> {
        self.state
            .restore(snapshot)
            .map_err(|e| RestoreError(e.to_string()))
    }

    fn commit_prefix(&mut self, ops: usize) {
        self.state.commit_prefix(ops);
    }

    fn rollback_suffix(&mut self, ops: usize) {
        self.state.rollback_suffix(ops);
    }

    fn partition_count(&self) -> u32 {
        FS_PARTITIONS
    }

    fn partition_digest(&self, p: u32) -> Digest {
        self.state.partition_digest(p)
    }

    fn partition_snapshot(&self, p: u32) -> Vec<u8> {
        self.state.encode_partition(p)
    }

    fn partition_size(&self, p: u32) -> usize {
        self.state.partition_byte_size(p)
    }

    fn take_dirty_partitions(&mut self) -> Vec<u32> {
        self.state.take_dirty_partitions()
    }

    fn restore_partition(
        &mut self,
        p: u32,
        bytes: &[u8],
        expect: &Digest,
    ) -> Result<(), RestoreError> {
        self.state.restore_partition(p, bytes, expect)
    }

    fn retain_checkpoint(&mut self, token: u64) -> bool {
        self.state.retain_checkpoint(token);
        true
    }

    fn retained_partition(&self, token: u64, p: u32) -> Option<Vec<u8>> {
        self.state.retained_partition(token, p)
    }

    fn release_checkpoints_below(&mut self, token: u64) {
        self.state.release_checkpoints_below(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Fh, ROOT_FH};

    fn op_bytes(op: &NfsOp) -> Vec<u8> {
        op.to_bytes()
    }

    fn result_of(bytes: &[u8]) -> NfsResult {
        NfsResult::from_bytes(bytes).expect("valid result encoding")
    }

    #[test]
    fn execute_roundtrips_through_bytes() {
        let mut svc = FsService::in_memory();
        let res = svc.execute(
            9,
            &op_bytes(&NfsOp::Create {
                dir: ROOT_FH,
                name: "f".into(),
            }),
        );
        let fh: Fh = match result_of(&res) {
            NfsResult::Handle(a) => a.fh,
            other => panic!("unexpected {other:?}"),
        };
        let res = svc.execute(
            9,
            &op_bytes(&NfsOp::Write {
                fh,
                offset: 0,
                data: vec![3; 10],
            }),
        );
        assert!(!result_of(&res).is_err());
        let res = svc.execute_read_only(
            9,
            &op_bytes(&NfsOp::Read {
                fh,
                offset: 0,
                count: 10,
            }),
        );
        match result_of(&res) {
            NfsResult::Data { data, .. } => assert_eq!(data, vec![3; 10]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn read_only_read_past_the_offset_space_is_inval() {
        let mut svc = FsService::in_memory();
        let res = svc.execute(
            1,
            &op_bytes(&NfsOp::Create {
                dir: ROOT_FH,
                name: "f".into(),
            }),
        );
        let fh = result_of(&res).handle().expect("created");
        let res = svc.execute_read_only(
            1,
            &op_bytes(&NfsOp::Read {
                fh,
                offset: u64::MAX - 10,
                count: 4096,
            }),
        );
        assert_eq!(result_of(&res), NfsResult::Err(crate::ops::NfsError::Inval));
    }

    #[test]
    fn garbage_ops_fail_gracefully() {
        let mut svc = FsService::in_memory();
        let res = svc.execute(1, &[0xff, 0xff]);
        assert!(result_of(&res).is_err());
        assert!(!svc.is_read_only(&[0xff]));
    }

    #[test]
    fn write_misclassified_as_read_only_is_refused() {
        // A faulty client cannot mutate state through the read-only path.
        let svc = FsService::in_memory();
        let digest_before = svc.state_digest();
        let res = svc.execute_read_only(
            1,
            &op_bytes(&NfsOp::Create {
                dir: ROOT_FH,
                name: "evil".into(),
            }),
        );
        assert!(result_of(&res).is_err());
        assert_eq!(svc.state_digest(), digest_before);
    }

    #[test]
    fn rollback_through_service_trait() {
        let mut svc = FsService::in_memory();
        let d0 = svc.state_digest();
        svc.execute(
            1,
            &op_bytes(&NfsOp::Mkdir {
                dir: ROOT_FH,
                name: "d".into(),
            }),
        );
        svc.rollback_suffix(1);
        assert_eq!(svc.state_digest(), d0);
    }

    #[test]
    fn snapshot_restore_through_service_trait() {
        let mut svc = FsService::in_memory();
        svc.execute(
            1,
            &op_bytes(&NfsOp::Mkdir {
                dir: ROOT_FH,
                name: "d".into(),
            }),
        );
        let snap = svc.snapshot();
        let d = svc.state_digest();
        let mut other = FsService::in_memory();
        other.restore(&snap).expect("restore");
        assert_eq!(other.state_digest(), d);
        assert!(other.restore(&[1]).is_err());
    }

    #[test]
    fn cost_grows_with_data_size() {
        let mut svc = FsService::in_memory();
        let res = svc.execute(
            1,
            &op_bytes(&NfsOp::Create {
                dir: ROOT_FH,
                name: "f".into(),
            }),
        );
        let fh = result_of(&res).handle().expect("created");
        let small = NfsOp::Write {
            fh,
            offset: 0,
            data: vec![0; 64],
        };
        let big = NfsOp::Write {
            fh,
            offset: 0,
            data: vec![0; 8192],
        };
        assert!(svc.op_cost_ns(&op_bytes(&big), &[]) > svc.op_cost_ns(&op_bytes(&small), &[]));
    }

    #[test]
    fn deterministic_across_instances() {
        let script = [
            NfsOp::Mkdir {
                dir: ROOT_FH,
                name: "a".into(),
            },
            NfsOp::Create {
                dir: 2,
                name: "f".into(),
            },
            NfsOp::Write {
                fh: 3,
                offset: 0,
                data: vec![7; 128],
            },
        ];
        let mut a = FsService::in_memory();
        let mut b = FsService::in_memory();
        for op in &script {
            let ra = a.execute(1, &op_bytes(op));
            let rb = b.execute(1, &op_bytes(op));
            assert_eq!(ra, rb);
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }
}
