//! Property-based tests for the filesystem state machine: determinism,
//! rollback as a perfect inverse, snapshot/restore fidelity, and agreement
//! with a naive reference model.

use bft_core::wire::Wire;
use bft_fs::ops::{Fattr, Fh, FileKind, NfsError, NfsOp, NfsResult, ROOT_FH};
use bft_fs::state::{DataMode, FsState, FS_PARTITIONS};
use proptest::prelude::*;

/// A workload step over a small namespace (8 names, depth ≤ 2).
#[derive(Debug, Clone)]
enum FsStep {
    Create(u8),
    Mkdir(u8),
    Write(u8, u16, Vec<u8>),
    Read(u8, u16, u16),
    Remove(u8),
    Rmdir(u8),
    Truncate(u8, u16),
    Rename(u8, u8),
    Link(u8, u8),
}

fn arb_step() -> impl Strategy<Value = FsStep> {
    prop_oneof![
        (0u8..8).prop_map(FsStep::Create),
        (0u8..8).prop_map(FsStep::Mkdir),
        (
            0u8..8,
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(n, off, data)| FsStep::Write(n, off % 256, data)),
        (0u8..8, any::<u16>(), any::<u16>()).prop_map(|(n, off, len)| FsStep::Read(
            n,
            off % 256,
            len % 128
        )),
        (0u8..8).prop_map(FsStep::Remove),
        (0u8..8).prop_map(FsStep::Rmdir),
        (0u8..8, any::<u16>()).prop_map(|(n, sz)| FsStep::Truncate(n, sz % 512)),
        (0u8..8, 0u8..8).prop_map(|(a, b)| FsStep::Rename(a, b)),
        (0u8..8, 0u8..8).prop_map(|(a, b)| FsStep::Link(a, b)),
    ]
}

fn name(n: u8) -> String {
    format!("n{n}")
}

/// Translates a step to an op against the root directory, resolving the
/// name through the live state (so ops reference real handles when the
/// name exists).
fn to_op(fs: &FsState, step: &FsStep) -> NfsOp {
    let resolve = |n: u8| -> Fh {
        match fs.query(&NfsOp::Lookup {
            dir: ROOT_FH,
            name: name(n),
        }) {
            NfsResult::Handle(a) => a.fh,
            _ => 0xdead, // stale handle: ops must fail cleanly
        }
    };
    match step {
        FsStep::Create(n) => NfsOp::Create {
            dir: ROOT_FH,
            name: name(*n),
        },
        FsStep::Mkdir(n) => NfsOp::Mkdir {
            dir: ROOT_FH,
            name: name(*n),
        },
        FsStep::Write(n, off, data) => NfsOp::Write {
            fh: resolve(*n),
            offset: *off as u64,
            data: data.clone(),
        },
        FsStep::Read(n, off, len) => NfsOp::Read {
            fh: resolve(*n),
            offset: *off as u64,
            count: *len as u32,
        },
        FsStep::Remove(n) => NfsOp::Remove {
            dir: ROOT_FH,
            name: name(*n),
        },
        FsStep::Rmdir(n) => NfsOp::Rmdir {
            dir: ROOT_FH,
            name: name(*n),
        },
        FsStep::Truncate(n, sz) => NfsOp::SetAttr {
            fh: resolve(*n),
            size: Some(*sz as u64),
        },
        FsStep::Rename(a, b) => NfsOp::Rename {
            from_dir: ROOT_FH,
            from_name: name(*a),
            to_dir: ROOT_FH,
            to_name: name(*b),
        },
        FsStep::Link(a, b) => NfsOp::Link {
            fh: resolve(*a),
            dir: ROOT_FH,
            name: name(*b),
        },
    }
}

/// A place in a three-directory tree: a directory (0 = root, 1 = `d0`,
/// 2 = `d1`, both children of the root) and an entry name.
type Place = (u8, u8);

/// A workload step over the three-directory tree, so that RENAME and LINK
/// cross directories and change non-empty ones.
#[derive(Debug, Clone)]
enum TreeStep {
    Create(Place),
    Mkdir(Place),
    Symlink(Place),
    Write(Place, u16, Vec<u8>),
    Remove(Place),
    Rmdir(Place),
    Truncate(Place, u16),
    Rename(Place, Place),
    Link(Place, Place),
}

fn arb_place() -> impl Strategy<Value = Place> {
    (0u8..3, 0u8..4)
}

fn arb_tree_step() -> impl Strategy<Value = TreeStep> {
    prop_oneof![
        arb_place().prop_map(TreeStep::Create),
        arb_place().prop_map(TreeStep::Mkdir),
        arb_place().prop_map(TreeStep::Symlink),
        (
            arb_place(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(at, off, data)| TreeStep::Write(at, off % 256, data)),
        arb_place().prop_map(TreeStep::Remove),
        arb_place().prop_map(TreeStep::Rmdir),
        (arb_place(), any::<u16>()).prop_map(|(at, sz)| TreeStep::Truncate(at, sz % 512)),
        (arb_place(), arb_place()).prop_map(|(a, b)| TreeStep::Rename(a, b)),
        (arb_place(), arb_place()).prop_map(|(a, b)| TreeStep::Link(a, b)),
    ]
}

/// A fresh state holding the tree's two subdirectories, committed.
fn tree(mode: DataMode) -> FsState {
    let mut fs = FsState::new(mode);
    for dir in ["d0", "d1"] {
        fs.apply(&NfsOp::Mkdir {
            dir: ROOT_FH,
            name: dir.into(),
        });
    }
    fs.commit_prefix(2);
    fs
}

/// Translates a tree step to an op, resolving directories and names
/// through the live state (a missing name becomes a stale handle).
fn tree_op(fs: &FsState, step: &TreeStep) -> NfsOp {
    let lookup = |dir: Fh, name: String| match fs.query(&NfsOp::Lookup { dir, name }) {
        NfsResult::Handle(a) => a.fh,
        _ => 0xdead,
    };
    let dir = |d: u8| match d {
        0 => ROOT_FH,
        d => lookup(ROOT_FH, format!("d{}", d - 1)),
    };
    let resolve = |(d, n): Place| lookup(dir(d), name(n));
    match step {
        TreeStep::Create((d, n)) => NfsOp::Create {
            dir: dir(*d),
            name: name(*n),
        },
        TreeStep::Mkdir((d, n)) => NfsOp::Mkdir {
            dir: dir(*d),
            name: name(*n),
        },
        TreeStep::Symlink((d, n)) => NfsOp::Symlink {
            dir: dir(*d),
            name: name(*n),
            target: format!("../t{n}"),
        },
        TreeStep::Write(at, off, data) => NfsOp::Write {
            fh: resolve(*at),
            offset: *off as u64,
            data: data.clone(),
        },
        TreeStep::Remove((d, n)) => NfsOp::Remove {
            dir: dir(*d),
            name: name(*n),
        },
        TreeStep::Rmdir((d, n)) => NfsOp::Rmdir {
            dir: dir(*d),
            name: name(*n),
        },
        TreeStep::Truncate(at, sz) => NfsOp::SetAttr {
            fh: resolve(*at),
            size: Some(*sz as u64),
        },
        TreeStep::Rename((fd, fnm), (td, tnm)) => NfsOp::Rename {
            from_dir: dir(*fd),
            from_name: name(*fnm),
            to_dir: dir(*td),
            to_name: name(*tnm),
        },
        TreeStep::Link(at, (d, n)) => NfsOp::Link {
            fh: resolve(*at),
            dir: dir(*d),
            name: name(*n),
        },
    }
}

/// Everything a checkpoint or a state transfer reads of one partition.
fn partition_view(fs: &FsState, token: u64, p: u32) -> (String, usize, Vec<u8>, Option<Vec<u8>>) {
    (
        fs.partition_digest(p).to_string(),
        fs.partition_byte_size(p),
        fs.encode_partition(p),
        fs.retained_partition(token, p),
    )
}

/// A name of up to 12 characters, some of them more than one byte long.
fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x800, 0..12)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn arb_op() -> impl Strategy<Value = NfsOp> {
    let fh = any::<u64>;
    prop_oneof![
        (fh(), arb_name()).prop_map(|(dir, name)| NfsOp::Lookup { dir, name }),
        fh().prop_map(|fh| NfsOp::GetAttr { fh }),
        (fh(), any::<bool>(), any::<u64>()).prop_map(|(fh, some, size)| NfsOp::SetAttr {
            fh,
            size: some.then_some(size),
        }),
        (fh(), any::<u64>(), any::<u32>()).prop_map(|(fh, offset, count)| NfsOp::Read {
            fh,
            offset,
            count
        }),
        (
            fh(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..300)
        )
            .prop_map(|(fh, offset, data)| NfsOp::Write { fh, offset, data }),
        (fh(), arb_name()).prop_map(|(dir, name)| NfsOp::Create { dir, name }),
        (fh(), arb_name()).prop_map(|(dir, name)| NfsOp::Remove { dir, name }),
        (fh(), arb_name(), fh(), arb_name()).prop_map(|(from_dir, from_name, to_dir, to_name)| {
            NfsOp::Rename {
                from_dir,
                from_name,
                to_dir,
                to_name,
            }
        }),
        (fh(), arb_name()).prop_map(|(dir, name)| NfsOp::Mkdir { dir, name }),
        (fh(), arb_name()).prop_map(|(dir, name)| NfsOp::Rmdir { dir, name }),
        fh().prop_map(|dir| NfsOp::ReadDir { dir }),
        (fh(), arb_name(), arb_name()).prop_map(|(dir, name, target)| NfsOp::Symlink {
            dir,
            name,
            target
        }),
        fh().prop_map(|fh| NfsOp::ReadLink { fh }),
        (fh(), fh(), arb_name()).prop_map(|(fh, dir, name)| NfsOp::Link { fh, dir, name }),
    ]
}

fn arb_attr() -> impl Strategy<Value = Fattr> {
    (any::<u64>(), 0u8..3, any::<u64>(), any::<u64>()).prop_map(|(fh, kind, size, mtime)| Fattr {
        fh,
        kind: [FileKind::File, FileKind::Dir, FileKind::Symlink][kind as usize],
        size,
        mtime,
    })
}

fn arb_result() -> impl Strategy<Value = NfsResult> {
    prop_oneof![
        arb_attr().prop_map(NfsResult::Attr),
        arb_attr().prop_map(NfsResult::Handle),
        (proptest::collection::vec(any::<u8>(), 0..300), arb_attr())
            .prop_map(|(data, attr)| NfsResult::Data { data, attr }),
        Just(NfsResult::Ok),
        proptest::collection::vec((arb_name(), any::<u64>()), 0..8).prop_map(NfsResult::Entries),
        arb_name().prop_map(NfsResult::Link),
        Just(NfsResult::Err(NfsError::NotEmpty)),
    ]
}

proptest! {
    /// Two instances fed the same steps agree on every result and on the
    /// state digest (replica determinism).
    #[test]
    fn determinism(steps in proptest::collection::vec(arb_step(), 0..60)) {
        let mut a = FsState::new(DataMode::Store);
        let mut b = FsState::new(DataMode::Store);
        for step in &steps {
            let op_a = to_op(&a, step);
            let op_b = to_op(&b, step);
            prop_assert_eq!(&op_a, &op_b);
            let ra = a.apply(&op_a);
            let rb = b.apply(&op_b);
            prop_assert_eq!(ra, rb);
        }
        prop_assert_eq!(a.state_digest(), b.state_digest());
    }

    /// Rolling back all uncommitted operations restores the exact digest.
    #[test]
    fn rollback_is_a_perfect_inverse(
        committed in proptest::collection::vec(arb_step(), 0..20),
        speculative in proptest::collection::vec(arb_step(), 0..20),
    ) {
        let mut fs = FsState::new(DataMode::Store);
        for step in &committed {
            let op = to_op(&fs, step);
            fs.apply(&op);
        }
        fs.commit_prefix(committed.len());
        let checkpoint = fs.state_digest();
        let bytes = fs.data_bytes();
        for step in &speculative {
            let op = to_op(&fs, step);
            fs.apply(&op);
        }
        fs.rollback_suffix(speculative.len());
        prop_assert_eq!(fs.state_digest(), checkpoint);
        prop_assert_eq!(fs.data_bytes(), bytes);
        prop_assert_eq!(fs.uncommitted_ops(), 0);
    }

    /// Rolling back a speculative suffix restores the snapshot and, for
    /// every partition, its digest, size, encoding and the version a
    /// checkpoint retained before the suffix, in both data modes. The
    /// retained version must also hold while the suffix is applied.
    #[test]
    fn rollback_restores_every_partition(
        committed in proptest::collection::vec(arb_tree_step(), 0..24),
        speculative in proptest::collection::vec(arb_tree_step(), 0..24),
    ) {
        for mode in [DataMode::Store, DataMode::MetadataOnly] {
            let mut fs = tree(mode);
            for step in &committed {
                let op = tree_op(&fs, step);
                fs.apply(&op);
            }
            fs.commit_prefix(committed.len());
            let token = 7;
            fs.retain_checkpoint(token);
            let snapshot = fs.snapshot();
            let before: Vec<_> = (0..FS_PARTITIONS).map(|p| partition_view(&fs, token, p)).collect();
            for step in &speculative {
                let op = tree_op(&fs, step);
                fs.apply(&op);
            }
            for p in 0..FS_PARTITIONS {
                prop_assert!(
                    fs.retained_partition(token, p).as_ref() == Some(&before[p as usize].2),
                    "partition {} lost its retained version in {:?}",
                    p,
                    mode
                );
            }
            fs.rollback_suffix(speculative.len());
            prop_assert_eq!(fs.uncommitted_ops(), 0);
            prop_assert!(fs.snapshot() == snapshot, "snapshot differs in {:?}", mode);
            for p in 0..FS_PARTITIONS {
                prop_assert!(
                    partition_view(&fs, token, p) == before[p as usize],
                    "partition {} differs in {:?}",
                    p,
                    mode
                );
            }
        }
    }

    /// The arithmetic `wire_len` of an operation and of a result is the
    /// length of their encoding, and the encoding decodes back.
    #[test]
    fn wire_len_is_the_encoded_length(op in arb_op(), result in arb_result()) {
        let bytes = op.to_bytes();
        prop_assert_eq!(op.wire_len(), bytes.len());
        prop_assert_eq!(NfsOp::from_bytes(&bytes).expect("decodes"), op);
        let bytes = result.to_bytes();
        prop_assert_eq!(result.wire_len(), bytes.len());
        prop_assert_eq!(NfsResult::from_bytes(&bytes).expect("decodes"), result);
    }

    /// Snapshot/restore reproduces the digest and observable contents.
    #[test]
    fn snapshot_restore_fidelity(steps in proptest::collection::vec(arb_step(), 0..40)) {
        let mut fs = FsState::new(DataMode::Store);
        for step in &steps {
            let op = to_op(&fs, step);
            fs.apply(&op);
        }
        let snap = fs.snapshot();
        let mut restored = FsState::new(DataMode::Store);
        restored.restore(&snap).expect("restore");
        prop_assert_eq!(restored.state_digest(), fs.state_digest());
        prop_assert_eq!(restored.inode_count(), fs.inode_count());
        // Every file reads back identically.
        if let NfsResult::Entries(entries) = fs.query(&NfsOp::ReadDir { dir: ROOT_FH }) {
            for (_, fh) in entries {
                let read = NfsOp::Read { fh, offset: 0, count: 1024 };
                prop_assert_eq!(fs.query(&read), restored.query(&read));
            }
        }
    }

    /// File contents match a naive byte-array reference model.
    #[test]
    fn contents_match_reference(
        writes in proptest::collection::vec(
            (any::<u16>(), proptest::collection::vec(any::<u8>(), 1..48)),
            1..20,
        ),
    ) {
        let mut fs = FsState::new(DataMode::Store);
        let fh = match fs.apply(&NfsOp::Create { dir: ROOT_FH, name: "f".into() }) {
            NfsResult::Handle(a) => a.fh,
            other => return Err(TestCaseError::fail(format!("create failed: {other:?}"))),
        };
        let mut reference: Vec<u8> = Vec::new();
        for (off, data) in &writes {
            let off = (*off % 512) as usize;
            if reference.len() < off + data.len() {
                reference.resize(off + data.len(), 0);
            }
            reference[off..off + data.len()].copy_from_slice(data);
            fs.apply(&NfsOp::Write { fh, offset: off as u64, data: data.clone() });
        }
        match fs.query(&NfsOp::Read { fh, offset: 0, count: 4096 }) {
            NfsResult::Data { data, attr } => {
                prop_assert_eq!(&data, &reference);
                prop_assert_eq!(attr.size, reference.len() as u64);
            }
            other => return Err(TestCaseError::fail(format!("read failed: {other:?}"))),
        }
    }

    /// Store and MetadataOnly modes agree on every attribute-visible fact
    /// (sizes, namespace, errors) for the same step sequence.
    #[test]
    fn metadata_mode_agrees_on_attributes(steps in proptest::collection::vec(arb_step(), 0..50)) {
        let mut full = FsState::new(DataMode::Store);
        let mut meta = FsState::new(DataMode::MetadataOnly);
        for step in &steps {
            let op_full = to_op(&full, step);
            let op_meta = to_op(&meta, step);
            prop_assert_eq!(&op_full, &op_meta, "namespaces diverged");
            let rf = full.apply(&op_full);
            let rm = meta.apply(&op_meta);
            prop_assert_eq!(rf.is_err(), rm.is_err());
            if let (Some(af), Some(am)) = (rf.attr(), rm.attr()) {
                prop_assert_eq!(af.size, am.size);
                prop_assert_eq!(af.kind, am.kind);
                prop_assert_eq!(af.fh, am.fh);
            }
        }
        prop_assert_eq!(full.inode_count(), meta.inode_count());
        prop_assert_eq!(full.data_bytes(), meta.data_bytes());
    }
}
