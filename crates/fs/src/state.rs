//! The filesystem state machine: a deterministic in-memory NFS server
//! core with operation-level undo (for BFT's tentative execution), an
//! incrementally maintained state fingerprint (for cheap checkpoints), and
//! canonical snapshot/restore (for state transfer).
//!
//! Two data modes: [`DataMode::Store`] keeps real file bytes (used by
//! correctness tests), [`DataMode::MetadataOnly`] keeps only sizes and a
//! content fingerprint — reads return zero-filled data. The benchmarks use
//! the latter so an Andrew500-scale run does not hold a gigabyte of file
//! data per replica; the protocol-visible behaviour (message sizes,
//! digests, determinism) is identical because the workloads write
//! zero-filled data anyway.

use crate::ops::{Fattr, Fh, FileKind, NfsError, NfsOp, NfsResult, ROOT_FH};
use bft_core::service::RestoreError;
use bft_core::wire::{Reader, Wire, WireError};
use bft_crypto::md5::{digest_parts, Digest};
use std::collections::{BTreeMap, HashMap};

/// Number of fixed state partitions for incremental checkpointing. Inodes
/// hash to partitions by handle; partition 0 additionally carries the
/// filesystem metadata (`next_fh`, logical clock).
pub const FS_PARTITIONS: u32 = 64;

/// The partition an inode belongs to.
fn partition_of(fh: Fh) -> u32 {
    (fh % u64::from(FS_PARTITIONS)) as u32
}

/// How file contents are represented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Keep real bytes (tests).
    Store,
    /// Keep only size + fingerprint; reads return zeros (benchmarks).
    MetadataOnly,
}

/// File content representation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Content {
    /// Real bytes.
    Bytes(Vec<u8>),
    /// Fingerprint of the write history.
    ///
    /// It reaches simulated time, not just digests: the state fingerprint
    /// hashes it, and `FsService::op_cost_ns` seeds the disk model's
    /// per-op index with that fingerprint. Changing how a print is
    /// computed moves NFS-STD's metadata disk charges (pinned by
    /// `bft-workloads`' `metadata_only_prints_and_costs_are_unchanged`).
    Print(u64),
}

/// One inode.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Inode {
    kind: FileKind,
    size: u64,
    mtime: u64,
    /// Number of directory entries referring to this inode.
    nlink: u32,
    content: Content,
    /// Directory entries (empty for non-directories).
    entries: BTreeMap<String, Fh>,
    /// Symlink target (empty otherwise).
    target: String,
}

impl Inode {
    fn new(kind: FileKind, mtime: u64, mode: DataMode) -> Inode {
        let content = match mode {
            DataMode::Store => Content::Bytes(Vec::new()),
            DataMode::MetadataOnly => Content::Print(0),
        };
        Inode {
            kind,
            size: 0,
            mtime,
            nlink: 1,
            content,
            entries: BTreeMap::new(),
            target: String::new(),
        }
    }

    /// A stable hash of this inode for the incremental state fingerprint.
    fn fingerprint(&self, fh: Fh) -> u128 {
        let mut meta = Vec::with_capacity(64 + self.entries.len() * 16);
        meta.extend_from_slice(&fh.to_le_bytes());
        meta.push(match self.kind {
            FileKind::File => 0,
            FileKind::Dir => 1,
            FileKind::Symlink => 2,
        });
        meta.extend_from_slice(&self.size.to_le_bytes());
        meta.extend_from_slice(&self.mtime.to_le_bytes());
        meta.extend_from_slice(&self.nlink.to_le_bytes());
        match &self.content {
            Content::Bytes(b) => {
                let d = bft_crypto::digest(b);
                meta.extend_from_slice(&d.as_bytes()[..8]);
            }
            Content::Print(p) => meta.extend_from_slice(&p.to_le_bytes()),
        }
        for (name, child) in &self.entries {
            meta.extend_from_slice(name.as_bytes());
            meta.push(0);
            meta.extend_from_slice(&child.to_le_bytes());
        }
        meta.extend_from_slice(self.target.as_bytes());
        let d = bft_crypto::digest(&meta);
        u128::from_le_bytes(*d.as_bytes())
    }

    /// Approximate canonical-encoding size, tracked per partition so
    /// checkpoint CPU charges scale with the bytes actually re-hashed.
    fn approx_encoded_size(&self) -> u64 {
        let content = match &self.content {
            Content::Bytes(b) => 8 + b.len() as u64,
            Content::Print(_) => 8,
        };
        let entries: u64 = self
            .entries
            .keys()
            .map(|name| 8 + name.len() as u64 + 8)
            .sum();
        38 + content + 8 + entries + 8 + self.target.len() as u64
    }

    fn encode(&self, fh: Fh, buf: &mut Vec<u8>) {
        fh.encode(buf);
        self.kind.encode(buf);
        self.size.encode(buf);
        self.mtime.encode(buf);
        self.nlink.encode(buf);
        match &self.content {
            Content::Bytes(b) => {
                buf.push(0);
                b.encode(buf);
            }
            Content::Print(p) => {
                buf.push(1);
                p.encode(buf);
            }
        }
        (self.entries.len() as u64).encode(buf);
        for (name, child) in &self.entries {
            name.as_bytes().to_vec().encode(buf);
            child.encode(buf);
        }
        self.target.as_bytes().to_vec().encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<(Fh, Inode), WireError> {
        let fh = u64::decode(r)?;
        let kind = FileKind::decode(r)?;
        let size = u64::decode(r)?;
        let mtime = u64::decode(r)?;
        let nlink = u32::decode(r)?;
        let content = match u8::decode(r)? {
            0 => Content::Bytes(Vec::<u8>::decode(r)?),
            1 => Content::Print(u64::decode(r)?),
            t => return Err(WireError::BadTag(t)),
        };
        let n_entries = u64::decode(r)?;
        let mut entries = BTreeMap::new();
        for _ in 0..n_entries {
            let name =
                String::from_utf8(Vec::<u8>::decode(r)?).map_err(|_| WireError::BadTag(0xfe))?;
            entries.insert(name, u64::decode(r)?);
        }
        let target =
            String::from_utf8(Vec::<u8>::decode(r)?).map_err(|_| WireError::BadTag(0xfe))?;
        Ok((
            fh,
            Inode {
                kind,
                size,
                mtime,
                nlink,
                content,
                entries,
                target,
            },
        ))
    }
}

/// Undo information for one executed operation.
#[derive(Debug, Clone)]
struct UndoRecord {
    /// Inodes touched, with their prior contents (`None` = did not exist).
    touched: Vec<(Fh, Option<Inode>)>,
    next_fh: Fh,
    clock: u64,
    data_bytes: u64,
}

/// The deterministic filesystem state.
#[derive(Debug, Clone)]
pub struct FsState {
    mode: DataMode,
    inodes: HashMap<Fh, Inode>,
    next_fh: Fh,
    /// Logical clock stamped into mtimes (deterministic across replicas).
    clock: u64,
    /// Wrapping sum of per-inode fingerprints: an incremental set hash.
    print_sum: u128,
    /// Cached per-inode fingerprints backing `print_sum`.
    prints: HashMap<Fh, u128>,
    /// Total file data bytes resident (drives the disk/cache cost model).
    data_bytes: u64,
    /// Undo log for uncommitted operations, oldest first.
    undo: Vec<UndoRecord>,
    /// Per-partition wrapping fingerprint sums (incremental leaf hashes).
    part_sums: Vec<u128>,
    /// Per-partition inode counts.
    part_counts: Vec<u64>,
    /// Per-partition approximate encoded sizes.
    part_bytes: Vec<u64>,
    /// Partitions modified since the last [`FsState::take_dirty_partitions`].
    dirty: Vec<bool>,
    /// Retained copy-on-write checkpoints: token -> partition encodings
    /// saved at the first mutation after the token was retained. A
    /// partition absent from every retained map at or above a token is
    /// unmodified since that token, so the current encoding serves it.
    retained: BTreeMap<u64, HashMap<u32, Vec<u8>>>,
}

impl FsState {
    /// Creates an empty filesystem with a root directory.
    pub fn new(mode: DataMode) -> FsState {
        let mut fs = FsState {
            mode,
            inodes: HashMap::new(),
            next_fh: ROOT_FH + 1,
            clock: 0,
            print_sum: 0,
            prints: HashMap::new(),
            data_bytes: 0,
            undo: Vec::new(),
            part_sums: vec![0; FS_PARTITIONS as usize],
            part_counts: vec![0; FS_PARTITIONS as usize],
            part_bytes: vec![0; FS_PARTITIONS as usize],
            dirty: vec![false; FS_PARTITIONS as usize],
            retained: BTreeMap::new(),
        };
        let root = Inode::new(FileKind::Dir, 0, mode);
        fs.install(ROOT_FH, root);
        fs
    }

    /// The data mode.
    pub fn mode(&self) -> DataMode {
        self.mode
    }

    /// Number of inodes (including the root).
    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }

    /// Total file data bytes (logical, both modes).
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Number of uncommitted operations in the undo log.
    pub fn uncommitted_ops(&self) -> usize {
        self.undo.len()
    }

    /// Saves partition `p`'s current encoding into the newest retained
    /// checkpoint that has not yet copied it, so the version as of that
    /// checkpoint survives the mutation about to happen. Older retained
    /// checkpoints without a copy resolve through the forward scan in
    /// [`FsState::retained_partition`]: the set of retained tokens still
    /// lacking a copy of `p` is always a suffix (newest ones), because
    /// every mutation fills the newest gap first.
    fn cow_guard(&mut self, p: u32) {
        let Some((&token, saved)) = self.retained.iter().next_back() else {
            return;
        };
        if saved.contains_key(&p) {
            return;
        }
        let bytes = self.encode_partition(p);
        self.retained
            .get_mut(&token)
            .expect("just observed")
            .insert(p, bytes);
    }

    /// Marks the metadata partition (0) dirty before `next_fh`/`clock`
    /// change, preserving any retained version first.
    fn touch_meta(&mut self) {
        self.cow_guard(0);
        self.dirty[0] = true;
    }

    fn install(&mut self, fh: Fh, inode: Inode) {
        let part = partition_of(fh);
        self.cow_guard(part);
        self.dirty[part as usize] = true;
        let old_bytes = self.inodes.get(&fh).map_or(0, Inode::approx_encoded_size);
        match self.prints.remove(&fh) {
            Some(old) => {
                self.print_sum = self.print_sum.wrapping_sub(old);
                self.part_sums[part as usize] = self.part_sums[part as usize].wrapping_sub(old);
            }
            None => self.part_counts[part as usize] += 1,
        }
        let p = inode.fingerprint(fh);
        self.print_sum = self.print_sum.wrapping_add(p);
        self.part_sums[part as usize] = self.part_sums[part as usize].wrapping_add(p);
        self.part_bytes[part as usize] =
            self.part_bytes[part as usize] - old_bytes + inode.approx_encoded_size();
        self.prints.insert(fh, p);
        self.inodes.insert(fh, inode);
    }

    fn uninstall(&mut self, fh: Fh) {
        let part = partition_of(fh);
        self.cow_guard(part);
        if let Some(old) = self.prints.remove(&fh) {
            self.print_sum = self.print_sum.wrapping_sub(old);
            self.part_sums[part as usize] = self.part_sums[part as usize].wrapping_sub(old);
            self.part_counts[part as usize] -= 1;
            self.part_bytes[part as usize] -=
                self.inodes.get(&fh).map_or(0, Inode::approx_encoded_size);
            self.dirty[part as usize] = true;
        }
        self.inodes.remove(&fh);
    }

    fn attr_of(&self, fh: Fh) -> Option<Fattr> {
        self.inodes.get(&fh).map(|i| Fattr {
            fh,
            kind: i.kind,
            size: i.size,
            mtime: i.mtime,
        })
    }

    /// Applies a mutating operation, recording undo information.
    pub fn apply(&mut self, op: &NfsOp) -> NfsResult {
        let mut undo = UndoRecord {
            touched: Vec::new(),
            next_fh: self.next_fh,
            clock: self.clock,
            data_bytes: self.data_bytes,
        };
        let result = self.apply_inner(op, &mut undo);
        self.undo.push(undo);
        result
    }

    /// Saves the prior state of `fh` into the undo record (first touch
    /// only).
    fn touch(&self, fh: Fh, undo: &mut UndoRecord) {
        if undo.touched.iter().any(|(f, _)| *f == fh) {
            return;
        }
        undo.touched.push((fh, self.inodes.get(&fh).cloned()));
    }

    fn tick(&mut self) -> u64 {
        self.touch_meta();
        self.clock += 1;
        self.clock
    }

    fn apply_inner(&mut self, op: &NfsOp, undo: &mut UndoRecord) -> NfsResult {
        match op {
            NfsOp::Lookup { .. }
            | NfsOp::GetAttr { .. }
            | NfsOp::Read { .. }
            | NfsOp::ReadDir { .. }
            | NfsOp::ReadLink { .. } => self.query(op),
            NfsOp::SetAttr { fh, size } => {
                let Some(inode) = self.inodes.get(fh) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if inode.kind == FileKind::Dir && size.is_some() {
                    return NfsResult::Err(NfsError::IsDir);
                }
                self.touch(*fh, undo);
                let mtime = self.tick();
                let mut inode = self.inodes.get(fh).cloned().expect("checked");
                if let Some(new_size) = size {
                    let old = inode.size;
                    inode.size = *new_size;
                    match &mut inode.content {
                        Content::Bytes(b) => b.resize(*new_size as usize, 0),
                        Content::Print(p) => *p = mix(*p, 0x5e7a_77f1, *new_size),
                    }
                    self.data_bytes = self.data_bytes + *new_size
                        - old.min(*new_size)
                        - old.saturating_sub(*new_size);
                }
                inode.mtime = mtime;
                self.install(*fh, inode);
                NfsResult::Attr(self.attr_of(*fh).expect("present"))
            }
            NfsOp::Write { fh, offset, data } => {
                let Some(inode) = self.inodes.get(fh) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if inode.kind != FileKind::File {
                    return NfsResult::Err(NfsError::IsDir);
                }
                self.touch(*fh, undo);
                let mtime = self.tick();
                let mut inode = self.inodes.get(fh).cloned().expect("checked");
                let end = offset + data.len() as u64;
                let old_size = inode.size;
                match &mut inode.content {
                    Content::Bytes(b) => {
                        if b.len() < end as usize {
                            b.resize(end as usize, 0);
                        }
                        b[*offset as usize..end as usize].copy_from_slice(data);
                    }
                    Content::Print(p) => {
                        let chunk = bft_crypto::digest(data).short();
                        *p = mix(mix(*p, *offset, data.len() as u64), chunk, 0);
                    }
                }
                inode.size = inode.size.max(end);
                inode.mtime = mtime;
                let grown = inode.size - old_size;
                self.data_bytes += grown;
                self.install(*fh, inode);
                NfsResult::Attr(self.attr_of(*fh).expect("present"))
            }
            NfsOp::Create { dir, name } => self.make_entry(undo, *dir, name, FileKind::File, ""),
            NfsOp::Mkdir { dir, name } => self.make_entry(undo, *dir, name, FileKind::Dir, ""),
            NfsOp::Symlink { dir, name, target } => {
                self.make_entry(undo, *dir, name, FileKind::Symlink, target)
            }
            NfsOp::Link { fh, dir, name } => {
                let Some(existing) = self.inodes.get(fh) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if existing.kind == FileKind::Dir {
                    // NFS forbids hard links to directories.
                    return NfsResult::Err(NfsError::IsDir);
                }
                let Some(parent) = self.inodes.get(dir) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if parent.kind != FileKind::Dir {
                    return NfsResult::Err(NfsError::NotDir);
                }
                if parent.entries.contains_key(name) {
                    return NfsResult::Err(NfsError::Exists);
                }
                if name.is_empty() || name.contains('/') {
                    return NfsResult::Err(NfsError::Inval);
                }
                self.touch(*dir, undo);
                self.touch(*fh, undo);
                let mtime = self.tick();
                let mut target = self.inodes.get(fh).cloned().expect("checked");
                target.nlink += 1;
                target.mtime = mtime;
                self.install(*fh, target);
                let mut parent = self.inodes.get(dir).cloned().expect("checked");
                parent.entries.insert(name.clone(), *fh);
                parent.mtime = mtime;
                self.install(*dir, parent);
                NfsResult::Handle(self.attr_of(*fh).expect("present"))
            }
            NfsOp::Remove { dir, name } => self.remove_entry(undo, *dir, name, false),
            NfsOp::Rmdir { dir, name } => self.remove_entry(undo, *dir, name, true),
            NfsOp::Rename {
                from_dir,
                from_name,
                to_dir,
                to_name,
            } => {
                let Some(src) = self.inodes.get(from_dir) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if src.kind != FileKind::Dir {
                    return NfsResult::Err(NfsError::NotDir);
                }
                let Some(&moved) = src.entries.get(from_name) else {
                    return NfsResult::Err(NfsError::NoEnt);
                };
                let Some(dst) = self.inodes.get(to_dir) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if dst.kind != FileKind::Dir {
                    return NfsResult::Err(NfsError::NotDir);
                }
                // Replacing a non-empty directory is refused.
                if let Some(&existing) = dst.entries.get(to_name) {
                    if let Some(e) = self.inodes.get(&existing) {
                        if e.kind == FileKind::Dir && !e.entries.is_empty() {
                            return NfsResult::Err(NfsError::NotEmpty);
                        }
                    }
                }
                self.touch(*from_dir, undo);
                self.touch(*to_dir, undo);
                let mtime = self.tick();
                let displaced = {
                    let mut src_inode = self.inodes.get(from_dir).cloned().expect("checked");
                    src_inode.entries.remove(from_name);
                    src_inode.mtime = mtime;
                    self.install(*from_dir, src_inode);
                    let mut dst_inode = self.inodes.get(to_dir).cloned().expect("checked");
                    let displaced = dst_inode.entries.insert(to_name.clone(), moved);
                    dst_inode.mtime = mtime;
                    self.install(*to_dir, dst_inode);
                    displaced
                };
                if let Some(old) = displaced {
                    if old != moved {
                        self.touch(old, undo);
                        self.unlink_inode(old, mtime);
                    }
                }
                NfsResult::Ok
            }
        }
    }

    fn make_entry(
        &mut self,
        undo: &mut UndoRecord,
        dir: Fh,
        name: &str,
        kind: FileKind,
        target: &str,
    ) -> NfsResult {
        let Some(parent) = self.inodes.get(&dir) else {
            return NfsResult::Err(NfsError::Stale);
        };
        if parent.kind != FileKind::Dir {
            return NfsResult::Err(NfsError::NotDir);
        }
        if parent.entries.contains_key(name) {
            return NfsResult::Err(NfsError::Exists);
        }
        if name.is_empty() || name.contains('/') {
            return NfsResult::Err(NfsError::Inval);
        }
        self.touch(dir, undo);
        let mtime = self.tick();
        let fh = self.next_fh;
        self.next_fh += 1;
        self.touch(fh, undo); // records "did not exist"
        let mut inode = Inode::new(kind, mtime, self.mode);
        inode.target = target.to_owned();
        self.install(fh, inode);
        let mut parent = self.inodes.get(&dir).cloned().expect("checked");
        parent.entries.insert(name.to_owned(), fh);
        parent.mtime = mtime;
        self.install(dir, parent);
        NfsResult::Handle(self.attr_of(fh).expect("just installed"))
    }

    fn remove_entry(
        &mut self,
        undo: &mut UndoRecord,
        dir: Fh,
        name: &str,
        want_dir: bool,
    ) -> NfsResult {
        let Some(parent) = self.inodes.get(&dir) else {
            return NfsResult::Err(NfsError::Stale);
        };
        if parent.kind != FileKind::Dir {
            return NfsResult::Err(NfsError::NotDir);
        }
        let Some(&fh) = parent.entries.get(name) else {
            return NfsResult::Err(NfsError::NoEnt);
        };
        let victim = self.inodes.get(&fh).expect("directory entries are valid");
        match (want_dir, victim.kind) {
            (true, FileKind::Dir) => {
                if !victim.entries.is_empty() {
                    return NfsResult::Err(NfsError::NotEmpty);
                }
            }
            (true, _) => return NfsResult::Err(NfsError::NotDir),
            (false, FileKind::Dir) => return NfsResult::Err(NfsError::IsDir),
            (false, _) => {}
        }
        self.touch(dir, undo);
        self.touch(fh, undo);
        let mtime = self.tick();
        self.unlink_inode(fh, mtime);
        let mut parent = self.inodes.get(&dir).cloned().expect("checked");
        parent.entries.remove(name);
        parent.mtime = mtime;
        self.install(dir, parent);
        NfsResult::Ok
    }

    /// Drops one name referring to `fh`: decrements the link count and
    /// destroys the inode when the last name goes away.
    fn unlink_inode(&mut self, fh: Fh, mtime: u64) {
        let Some(inode) = self.inodes.get(&fh) else {
            return;
        };
        if inode.nlink <= 1 {
            self.data_bytes -= inode.size;
            self.uninstall(fh);
        } else {
            let mut inode = inode.clone();
            inode.nlink -= 1;
            inode.mtime = mtime;
            self.install(fh, inode);
        }
    }

    /// Evaluates a read-only operation without mutating anything.
    pub fn query(&self, op: &NfsOp) -> NfsResult {
        match op {
            NfsOp::Lookup { dir, name } => {
                let Some(parent) = self.inodes.get(dir) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if parent.kind != FileKind::Dir {
                    return NfsResult::Err(NfsError::NotDir);
                }
                match parent.entries.get(name) {
                    Some(&fh) => NfsResult::Handle(self.attr_of(fh).expect("valid entry")),
                    None => NfsResult::Err(NfsError::NoEnt),
                }
            }
            NfsOp::GetAttr { fh } => match self.attr_of(*fh) {
                Some(a) => NfsResult::Attr(a),
                None => NfsResult::Err(NfsError::Stale),
            },
            NfsOp::Read { fh, offset, count } => {
                let Some(inode) = self.inodes.get(fh) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if inode.kind == FileKind::Dir {
                    return NfsResult::Err(NfsError::IsDir);
                }
                let start = (*offset).min(inode.size);
                let end = (offset + *count as u64).min(inode.size);
                let data = match &inode.content {
                    Content::Bytes(b) => b[start as usize..end as usize].to_vec(),
                    Content::Print(_) => vec![0u8; (end - start) as usize],
                };
                NfsResult::Data {
                    data,
                    attr: self.attr_of(*fh).expect("present"),
                }
            }
            NfsOp::ReadDir { dir } => {
                let Some(inode) = self.inodes.get(dir) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if inode.kind != FileKind::Dir {
                    return NfsResult::Err(NfsError::NotDir);
                }
                NfsResult::Entries(inode.entries.iter().map(|(n, &f)| (n.clone(), f)).collect())
            }
            NfsOp::ReadLink { fh } => {
                let Some(inode) = self.inodes.get(fh) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if inode.kind != FileKind::Symlink {
                    return NfsResult::Err(NfsError::Inval);
                }
                NfsResult::Link(inode.target.clone())
            }
            _ => NfsResult::Err(NfsError::Inval),
        }
    }

    /// Discards undo information for the `ops` oldest uncommitted
    /// operations.
    pub fn commit_prefix(&mut self, ops: usize) {
        let n = ops.min(self.undo.len());
        self.undo.drain(..n);
    }

    /// Undoes the `ops` newest uncommitted operations.
    pub fn rollback_suffix(&mut self, ops: usize) {
        for _ in 0..ops {
            let Some(rec) = self.undo.pop() else { break };
            // Restore newest-first within the record too.
            for (fh, prior) in rec.touched.into_iter().rev() {
                match prior {
                    Some(inode) => self.install(fh, inode),
                    None => self.uninstall(fh),
                }
            }
            if rec.next_fh != self.next_fh || rec.clock != self.clock {
                self.touch_meta();
            }
            self.next_fh = rec.next_fh;
            self.clock = rec.clock;
            self.data_bytes = rec.data_bytes;
        }
    }

    /// A digest of the logical state, maintained incrementally.
    pub fn state_digest(&self) -> Digest {
        digest_parts(&[
            b"FS",
            &self.print_sum.to_le_bytes(),
            &self.next_fh.to_le_bytes(),
            &self.clock.to_le_bytes(),
            &(self.inodes.len() as u64).to_le_bytes(),
        ])
    }

    /// Serializes the full state canonically.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.push(match self.mode {
            DataMode::Store => 0u8,
            DataMode::MetadataOnly => 1,
        });
        self.next_fh.encode(&mut buf);
        self.clock.encode(&mut buf);
        let mut fhs: Vec<&Fh> = self.inodes.keys().collect();
        fhs.sort_unstable();
        (fhs.len() as u64).encode(&mut buf);
        for &fh in fhs {
            self.inodes[&fh].encode(fh, &mut buf);
        }
        buf
    }

    /// Rebuilds the state from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input; the state is then
    /// unspecified.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(bytes);
        let mode = match u8::decode(&mut r)? {
            0 => DataMode::Store,
            1 => DataMode::MetadataOnly,
            t => return Err(WireError::BadTag(t)),
        };
        let next_fh = u64::decode(&mut r)?;
        let clock = u64::decode(&mut r)?;
        let count = u64::decode(&mut r)?;
        let mut inodes = HashMap::with_capacity(count as usize);
        let mut data_bytes = 0u64;
        for _ in 0..count {
            let (fh, inode) = Inode::decode(&mut r)?;
            data_bytes += inode.size;
            inodes.insert(fh, inode);
        }
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        self.mode = mode;
        self.next_fh = next_fh;
        self.clock = clock;
        self.inodes = inodes;
        self.data_bytes = data_bytes;
        self.undo.clear();
        self.retained.clear();
        self.prints.clear();
        self.print_sum = 0;
        self.part_sums = vec![0; FS_PARTITIONS as usize];
        self.part_counts = vec![0; FS_PARTITIONS as usize];
        self.part_bytes = vec![0; FS_PARTITIONS as usize];
        self.dirty = vec![true; FS_PARTITIONS as usize];
        let fhs: Vec<Fh> = self.inodes.keys().copied().collect();
        for fh in fhs {
            let part = partition_of(fh) as usize;
            let inode = &self.inodes[&fh];
            let p = inode.fingerprint(fh);
            self.print_sum = self.print_sum.wrapping_add(p);
            self.part_sums[part] = self.part_sums[part].wrapping_add(p);
            self.part_counts[part] += 1;
            self.part_bytes[part] += inode.approx_encoded_size();
            self.prints.insert(fh, p);
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Partitioned checkpointing
    // -----------------------------------------------------------------

    /// Digest of partition `p`, computed in O(1) from the incrementally
    /// maintained fingerprint sum. Partition 0 additionally commits to
    /// the filesystem metadata (`next_fh`, logical clock).
    pub fn partition_digest(&self, p: u32) -> Digest {
        let meta = if p == 0 {
            Some((self.next_fh, self.clock))
        } else {
            None
        };
        Self::partition_digest_of(
            p,
            self.part_sums[p as usize],
            self.part_counts[p as usize],
            meta,
        )
    }

    fn partition_digest_of(p: u32, sum: u128, count: u64, meta: Option<(u64, u64)>) -> Digest {
        let (next_fh, clock) = meta.unwrap_or((0, 0));
        digest_parts(&[
            b"FSP",
            &p.to_le_bytes(),
            &sum.to_le_bytes(),
            &count.to_le_bytes(),
            &next_fh.to_le_bytes(),
            &clock.to_le_bytes(),
        ])
    }

    /// Approximate encoded size of partition `p` in bytes.
    pub fn partition_byte_size(&self, p: u32) -> usize {
        let meta = if p == 0 { 16 } else { 0 };
        self.part_bytes[p as usize] as usize + meta
    }

    /// Serializes partition `p` canonically: metadata (partition 0 only),
    /// then the partition's inodes sorted by handle.
    pub fn encode_partition(&self, p: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        if p == 0 {
            self.next_fh.encode(&mut buf);
            self.clock.encode(&mut buf);
        }
        let mut fhs: Vec<Fh> = self
            .inodes
            .keys()
            .copied()
            .filter(|&fh| partition_of(fh) == p)
            .collect();
        fhs.sort_unstable();
        (fhs.len() as u64).encode(&mut buf);
        for fh in fhs {
            self.inodes[&fh].encode(fh, &mut buf);
        }
        buf
    }

    /// Replaces partition `p` from `bytes`, verifying that the decoded
    /// content digests to `expect` *before* mutating anything.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] on malformed bytes, inodes outside the
    /// partition, or a digest mismatch; the state is untouched on error.
    pub fn restore_partition(
        &mut self,
        p: u32,
        bytes: &[u8],
        expect: &Digest,
    ) -> Result<(), RestoreError> {
        if p >= FS_PARTITIONS {
            return Err(RestoreError(format!("partition {p} out of range")));
        }
        let mut r = Reader::new(bytes);
        let wire = |e: WireError| RestoreError(format!("bad partition encoding: {e:?}"));
        let meta = if p == 0 {
            Some((
                u64::decode(&mut r).map_err(wire)?,
                u64::decode(&mut r).map_err(wire)?,
            ))
        } else {
            None
        };
        let count = u64::decode(&mut r).map_err(wire)?;
        let mut incoming = Vec::with_capacity(count as usize);
        let mut sum = 0u128;
        let mut last_fh = None;
        for _ in 0..count {
            let (fh, inode) = Inode::decode(&mut r).map_err(wire)?;
            if partition_of(fh) != p {
                return Err(RestoreError(format!("inode {fh} outside partition {p}")));
            }
            if last_fh.is_some_and(|prev| fh <= prev) {
                return Err(RestoreError("partition inodes not sorted".into()));
            }
            last_fh = Some(fh);
            sum = sum.wrapping_add(inode.fingerprint(fh));
            incoming.push((fh, inode));
        }
        if r.remaining() != 0 {
            return Err(RestoreError("trailing bytes in partition".into()));
        }
        if Self::partition_digest_of(p, sum, count, meta) != *expect {
            return Err(RestoreError("partition digest mismatch".into()));
        }
        // Verified: replace the partition's inodes through install/
        // uninstall so fingerprint sums and retained copies stay correct.
        let current: Vec<Fh> = self
            .inodes
            .keys()
            .copied()
            .filter(|&fh| partition_of(fh) == p)
            .collect();
        for fh in current {
            self.data_bytes -= self.inodes[&fh].size;
            self.uninstall(fh);
        }
        for (fh, inode) in incoming {
            self.data_bytes += inode.size;
            self.install(fh, inode);
        }
        if let Some((next_fh, clock)) = meta {
            self.touch_meta();
            self.next_fh = next_fh;
            self.clock = clock;
        }
        // Undo records predating the transfer are meaningless now.
        self.undo.clear();
        Ok(())
    }

    /// Partitions modified since the previous call; resets the dirty set.
    pub fn take_dirty_partitions(&mut self) -> Vec<u32> {
        let mut out = Vec::new();
        for (p, d) in self.dirty.iter_mut().enumerate() {
            if std::mem::take(d) {
                out.push(p as u32);
            }
        }
        out
    }

    /// Retains a copy-on-write version of the current state under
    /// `token`. Partition encodings are saved lazily at the first
    /// mutation after this point.
    pub fn retain_checkpoint(&mut self, token: u64) {
        self.retained.entry(token).or_default();
    }

    /// Serializes partition `p` as of retained checkpoint `token`, or
    /// `None` if that version is not retained.
    pub fn retained_partition(&self, token: u64, p: u32) -> Option<Vec<u8>> {
        if p >= FS_PARTITIONS || !self.retained.contains_key(&token) {
            return None;
        }
        // The first save at or after `token` is the version as of
        // `token`: partition `p` was unmodified between the two points,
        // or the intervening checkpoint would hold a save itself.
        for saved in self.retained.range(token..).map(|(_, s)| s) {
            if let Some(bytes) = saved.get(&p) {
                return Some(bytes.clone());
            }
        }
        Some(self.encode_partition(p))
    }

    /// Discards retained checkpoints older than `token`.
    pub fn release_checkpoints_below(&mut self, token: u64) {
        self.retained = self.retained.split_off(&token);
    }
}

/// Cheap deterministic mixer for content fingerprints.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x = seed ^ a.rotate_left(17) ^ b.rotate_left(41);
    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 29;
    x.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> FsState {
        FsState::new(DataMode::Store)
    }

    fn create(fs: &mut FsState, dir: Fh, name: &str) -> Fh {
        fs.apply(&NfsOp::Create {
            dir,
            name: name.into(),
        })
        .handle()
        .expect("create succeeds")
    }

    fn mkdir(fs: &mut FsState, dir: Fh, name: &str) -> Fh {
        fs.apply(&NfsOp::Mkdir {
            dir,
            name: name.into(),
        })
        .handle()
        .expect("mkdir succeeds")
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = fs();
        let f = create(&mut fs, ROOT_FH, "hello.txt");
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 0,
            data: b"hello world".to_vec(),
        });
        let res = fs.query(&NfsOp::Read {
            fh: f,
            offset: 6,
            count: 5,
        });
        match res {
            NfsResult::Data { data, attr } => {
                assert_eq!(data, b"world");
                assert_eq!(attr.size, 11);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut fs = fs();
        let f = create(&mut fs, ROOT_FH, "sparse");
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 10,
            data: vec![7; 2],
        });
        let NfsResult::Data { data, .. } = fs.query(&NfsOp::Read {
            fh: f,
            offset: 0,
            count: 12,
        }) else {
            panic!("read failed");
        };
        assert_eq!(&data[..10], &[0u8; 10]);
        assert_eq!(&data[10..], &[7, 7]);
    }

    #[test]
    fn read_past_eof_truncates() {
        let mut fs = fs();
        let f = create(&mut fs, ROOT_FH, "short");
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 0,
            data: vec![1; 4],
        });
        let NfsResult::Data { data, .. } = fs.query(&NfsOp::Read {
            fh: f,
            offset: 2,
            count: 100,
        }) else {
            panic!("read failed");
        };
        assert_eq!(data.len(), 2);
    }

    #[test]
    fn lookup_and_namespace_errors() {
        let mut fs = fs();
        let d = mkdir(&mut fs, ROOT_FH, "src");
        let f = create(&mut fs, d, "main.c");
        assert_eq!(
            fs.query(&NfsOp::Lookup {
                dir: d,
                name: "main.c".into()
            })
            .handle(),
            Some(f)
        );
        assert_eq!(
            fs.query(&NfsOp::Lookup {
                dir: d,
                name: "nope".into()
            }),
            NfsResult::Err(NfsError::NoEnt)
        );
        assert_eq!(
            fs.query(&NfsOp::Lookup {
                dir: f,
                name: "x".into()
            }),
            NfsResult::Err(NfsError::NotDir)
        );
        assert_eq!(
            fs.apply(&NfsOp::Create {
                dir: d,
                name: "main.c".into()
            }),
            NfsResult::Err(NfsError::Exists)
        );
        assert_eq!(
            fs.apply(&NfsOp::Create {
                dir: 999,
                name: "x".into()
            }),
            NfsResult::Err(NfsError::Stale)
        );
        assert_eq!(
            fs.apply(&NfsOp::Create {
                dir: d,
                name: "a/b".into()
            }),
            NfsResult::Err(NfsError::Inval)
        );
    }

    #[test]
    fn remove_and_rmdir_semantics() {
        let mut fs = fs();
        let d = mkdir(&mut fs, ROOT_FH, "dir");
        let f = create(&mut fs, d, "f");
        // rmdir on non-empty dir fails; remove on dir fails.
        assert_eq!(
            fs.apply(&NfsOp::Rmdir {
                dir: ROOT_FH,
                name: "dir".into()
            }),
            NfsResult::Err(NfsError::NotEmpty)
        );
        assert_eq!(
            fs.apply(&NfsOp::Remove {
                dir: ROOT_FH,
                name: "dir".into()
            }),
            NfsResult::Err(NfsError::IsDir)
        );
        assert_eq!(
            fs.apply(&NfsOp::Remove {
                dir: d,
                name: "f".into()
            }),
            NfsResult::Ok
        );
        assert_eq!(
            fs.query(&NfsOp::GetAttr { fh: f }),
            NfsResult::Err(NfsError::Stale)
        );
        assert_eq!(
            fs.apply(&NfsOp::Rmdir {
                dir: ROOT_FH,
                name: "dir".into()
            }),
            NfsResult::Ok
        );
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut fs = fs();
        let d1 = mkdir(&mut fs, ROOT_FH, "a");
        let d2 = mkdir(&mut fs, ROOT_FH, "b");
        let f = create(&mut fs, d1, "x");
        let g = create(&mut fs, d2, "y");
        assert_eq!(
            fs.apply(&NfsOp::Rename {
                from_dir: d1,
                from_name: "x".into(),
                to_dir: d2,
                to_name: "y".into(),
            }),
            NfsResult::Ok
        );
        // x is gone from a, y in b now refers to f, g destroyed.
        assert!(fs
            .query(&NfsOp::Lookup {
                dir: d1,
                name: "x".into()
            })
            .is_err());
        assert_eq!(
            fs.query(&NfsOp::Lookup {
                dir: d2,
                name: "y".into()
            })
            .handle(),
            Some(f)
        );
        assert!(fs.query(&NfsOp::GetAttr { fh: g }).is_err());
    }

    #[test]
    fn readdir_is_sorted() {
        let mut fs = fs();
        create(&mut fs, ROOT_FH, "zeta");
        create(&mut fs, ROOT_FH, "alpha");
        let NfsResult::Entries(entries) = fs.query(&NfsOp::ReadDir { dir: ROOT_FH }) else {
            panic!("readdir failed");
        };
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn symlink_roundtrip() {
        let mut fs = fs();
        let l = fs
            .apply(&NfsOp::Symlink {
                dir: ROOT_FH,
                name: "link".into(),
                target: "../elsewhere".into(),
            })
            .handle()
            .expect("symlink");
        assert_eq!(
            fs.query(&NfsOp::ReadLink { fh: l }),
            NfsResult::Link("../elsewhere".into())
        );
        let f = create(&mut fs, ROOT_FH, "file");
        assert_eq!(
            fs.query(&NfsOp::ReadLink { fh: f }),
            NfsResult::Err(NfsError::Inval)
        );
    }

    #[test]
    fn setattr_truncates() {
        let mut fs = fs();
        let f = create(&mut fs, ROOT_FH, "t");
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 0,
            data: vec![9; 100],
        });
        fs.apply(&NfsOp::SetAttr {
            fh: f,
            size: Some(10),
        });
        let NfsResult::Data { data, attr } = fs.query(&NfsOp::Read {
            fh: f,
            offset: 0,
            count: 100,
        }) else {
            panic!()
        };
        assert_eq!(attr.size, 10);
        assert_eq!(data, vec![9; 10]);
    }

    #[test]
    fn rollback_undoes_operations() {
        let mut fs = fs();
        let d0 = fs.state_digest();
        let f = create(&mut fs, ROOT_FH, "tmp");
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 0,
            data: vec![1; 50],
        });
        assert_eq!(fs.uncommitted_ops(), 2);
        fs.rollback_suffix(2);
        assert_eq!(fs.state_digest(), d0, "state fully restored");
        assert_eq!(fs.inode_count(), 1);
        assert_eq!(fs.data_bytes(), 0);
    }

    #[test]
    fn rollback_after_commit_boundary() {
        let mut fs = fs();
        let f = create(&mut fs, ROOT_FH, "keep");
        fs.commit_prefix(1);
        let mid = fs.state_digest();
        create(&mut fs, ROOT_FH, "drop");
        fs.apply(&NfsOp::Remove {
            dir: ROOT_FH,
            name: "keep".into(),
        });
        fs.rollback_suffix(2);
        assert_eq!(fs.state_digest(), mid);
        assert_eq!(
            fs.query(&NfsOp::GetAttr { fh: f }).attr().map(|a| a.fh),
            Some(f)
        );
    }

    #[test]
    fn fingerprint_tracks_state_not_history() {
        // Two different orders of independent ops converge when they yield
        // the same per-inode facts; digests differ when state differs.
        let mut a = fs();
        let mut b = fs();
        create(&mut a, ROOT_FH, "x");
        create(&mut b, ROOT_FH, "x");
        assert_eq!(a.state_digest(), b.state_digest());
        create(&mut a, ROOT_FH, "y");
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        for mode in [DataMode::Store, DataMode::MetadataOnly] {
            let mut fs = FsState::new(mode);
            let d = mkdir(&mut fs, ROOT_FH, "dir");
            let f = create(&mut fs, d, "file");
            fs.apply(&NfsOp::Write {
                fh: f,
                offset: 0,
                data: vec![5; 1000],
            });
            fs.apply(&NfsOp::Symlink {
                dir: ROOT_FH,
                name: "l".into(),
                target: "dir/file".into(),
            });
            let digest = fs.state_digest();
            let snap = fs.snapshot();
            let mut restored = FsState::new(mode);
            restored.restore(&snap).expect("restore");
            assert_eq!(restored.state_digest(), digest, "mode {mode:?}");
            assert_eq!(restored.data_bytes(), fs.data_bytes());
            // And it keeps working after restore.
            let NfsResult::Data { data, .. } = restored.query(&NfsOp::Read {
                fh: f,
                offset: 0,
                count: 10,
            }) else {
                panic!()
            };
            assert_eq!(data.len(), 10);
        }
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut fs = fs();
        assert!(fs.restore(&[1, 2, 3]).is_err());
    }

    #[test]
    fn metadata_only_mode_is_deterministic() {
        let run = || {
            let mut fs = FsState::new(DataMode::MetadataOnly);
            let f = create(&mut fs, ROOT_FH, "f");
            fs.apply(&NfsOp::Write {
                fh: f,
                offset: 0,
                data: vec![0; 4096],
            });
            fs.apply(&NfsOp::Write {
                fh: f,
                offset: 4096,
                data: vec![0; 100],
            });
            fs.state_digest()
        };
        assert_eq!(run(), run());
        // Reads return zero-filled data of the right length.
        let mut fs = FsState::new(DataMode::MetadataOnly);
        let f = create(&mut fs, ROOT_FH, "f");
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 0,
            data: vec![1; 100],
        });
        let NfsResult::Data { data, .. } = fs.query(&NfsOp::Read {
            fh: f,
            offset: 0,
            count: 50,
        }) else {
            panic!()
        };
        assert_eq!(data, vec![0; 50]);
    }

    #[test]
    fn hard_links_share_content_and_count_names() {
        let mut fs = fs();
        let f = create(&mut fs, ROOT_FH, "orig");
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 0,
            data: b"shared".to_vec(),
        });
        let res = fs.apply(&NfsOp::Link {
            fh: f,
            dir: ROOT_FH,
            name: "alias".into(),
        });
        assert_eq!(res.handle(), Some(f), "the link resolves to the same inode");
        // Writing through one name is visible through the other.
        assert_eq!(
            fs.query(&NfsOp::Lookup {
                dir: ROOT_FH,
                name: "alias".into()
            })
            .handle(),
            Some(f)
        );
        // Removing one name keeps the data alive...
        fs.apply(&NfsOp::Remove {
            dir: ROOT_FH,
            name: "orig".into(),
        });
        let NfsResult::Data { data, .. } = fs.query(&NfsOp::Read {
            fh: f,
            offset: 0,
            count: 16,
        }) else {
            panic!("inode must survive while a name remains");
        };
        assert_eq!(data, b"shared");
        assert_eq!(fs.data_bytes(), 6, "content counted once");
        // ...removing the last name destroys it.
        fs.apply(&NfsOp::Remove {
            dir: ROOT_FH,
            name: "alias".into(),
        });
        assert_eq!(
            fs.query(&NfsOp::GetAttr { fh: f }),
            NfsResult::Err(NfsError::Stale)
        );
        assert_eq!(fs.data_bytes(), 0);
    }

    #[test]
    fn hard_link_rules() {
        let mut fs = fs();
        let d = mkdir(&mut fs, ROOT_FH, "dir");
        let f = create(&mut fs, ROOT_FH, "f");
        // No hard links to directories.
        assert_eq!(
            fs.apply(&NfsOp::Link {
                fh: d,
                dir: ROOT_FH,
                name: "dlink".into()
            }),
            NfsResult::Err(NfsError::IsDir)
        );
        // Name collisions rejected.
        assert_eq!(
            fs.apply(&NfsOp::Link {
                fh: f,
                dir: ROOT_FH,
                name: "f".into()
            }),
            NfsResult::Err(NfsError::Exists)
        );
        // Stale source handle rejected.
        assert_eq!(
            fs.apply(&NfsOp::Link {
                fh: 999,
                dir: ROOT_FH,
                name: "x".into()
            }),
            NfsResult::Err(NfsError::Stale)
        );
    }

    #[test]
    fn link_rollback_restores_counts() {
        let mut fs = fs();
        let f = create(&mut fs, ROOT_FH, "f");
        fs.commit_prefix(1);
        let d0 = fs.state_digest();
        fs.apply(&NfsOp::Link {
            fh: f,
            dir: ROOT_FH,
            name: "alias".into(),
        });
        fs.apply(&NfsOp::Remove {
            dir: ROOT_FH,
            name: "f".into(),
        });
        fs.rollback_suffix(2);
        assert_eq!(fs.state_digest(), d0);
    }

    #[test]
    fn partition_digests_match_fresh_recompute() {
        // Incrementally maintained partition sums must agree with a state
        // rebuilt from scratch (snapshot/restore recomputes everything).
        let mut fs = fs();
        let d = mkdir(&mut fs, ROOT_FH, "dir");
        for i in 0..200 {
            let f = create(&mut fs, d, &format!("f{i}"));
            fs.apply(&NfsOp::Write {
                fh: f,
                offset: 0,
                data: vec![i as u8; 32],
            });
        }
        fs.apply(&NfsOp::Remove {
            dir: d,
            name: "f7".into(),
        });
        fs.rollback_suffix(1);
        let mut rebuilt = FsState::new(DataMode::Store);
        rebuilt.restore(&fs.snapshot()).expect("restore");
        for p in 0..FS_PARTITIONS {
            assert_eq!(
                fs.partition_digest(p),
                rebuilt.partition_digest(p),
                "partition {p}"
            );
        }
    }

    #[test]
    fn dirty_partitions_track_touched_inodes() {
        let mut fs = fs();
        fs.take_dirty_partitions();
        assert!(fs.take_dirty_partitions().is_empty(), "drained");
        let f = create(&mut fs, ROOT_FH, "f");
        let dirty = fs.take_dirty_partitions();
        assert!(dirty.contains(&0), "metadata partition (clock/next_fh)");
        assert!(dirty.contains(&partition_of(ROOT_FH)), "parent directory");
        assert!(dirty.contains(&partition_of(f)), "new inode");
        // A write dirties only the file's partition (plus metadata).
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 0,
            data: vec![1; 8],
        });
        let dirty = fs.take_dirty_partitions();
        let mut expect = vec![0, partition_of(f)];
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(dirty, expect);
    }

    #[test]
    fn partition_roundtrip_reassembles_state() {
        let mut src = fs();
        let d = mkdir(&mut src, ROOT_FH, "d");
        for i in 0..100 {
            create(&mut src, d, &format!("f{i}"));
        }
        let mut dst = fs();
        for p in 0..FS_PARTITIONS {
            let bytes = src.encode_partition(p);
            dst.restore_partition(p, &bytes, &src.partition_digest(p))
                .expect("partition restores");
        }
        assert_eq!(dst.state_digest(), src.state_digest());
        assert_eq!(dst.data_bytes(), src.data_bytes());
        assert_eq!(dst.inode_count(), src.inode_count());
    }

    #[test]
    fn restore_partition_verifies_before_applying() {
        let mut fs = fs();
        create(&mut fs, ROOT_FH, "f");
        let digest_before = fs.state_digest();
        let p = partition_of(ROOT_FH);
        let good = fs.encode_partition(p);
        // Corrupt bytes: rejected, state untouched.
        let mut bad = good.clone();
        *bad.last_mut().expect("non-empty") ^= 0xff;
        assert!(fs
            .restore_partition(p, &bad, &fs.partition_digest(p).clone())
            .is_err());
        assert_eq!(fs.state_digest(), digest_before);
        // Wrong digest: rejected.
        let wrong = bft_crypto::digest(b"nope");
        assert!(fs.restore_partition(p, &good, &wrong).is_err());
        assert_eq!(fs.state_digest(), digest_before);
        // Inode outside the partition: rejected.
        let other = (p + 1) % FS_PARTITIONS;
        assert!(fs
            .restore_partition(other, &good, &fs.partition_digest(other).clone())
            .is_err());
        assert_eq!(fs.state_digest(), digest_before);
    }

    #[test]
    fn retained_checkpoints_serve_old_partition_versions() {
        let mut fs = fs();
        let f = create(&mut fs, ROOT_FH, "f");
        fs.retain_checkpoint(10);
        let before: Vec<Vec<u8>> = (0..FS_PARTITIONS).map(|p| fs.encode_partition(p)).collect();
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 0,
            data: vec![9; 100],
        });
        fs.retain_checkpoint(20);
        // Every partition (touched or not) serves its version as of 10.
        for p in 0..FS_PARTITIONS {
            assert_eq!(
                fs.retained_partition(10, p).expect("retained"),
                before[p as usize],
                "partition {p} as of token 10"
            );
        }
        // Token 20 serves the current (post-write) version.
        assert_eq!(
            fs.retained_partition(20, partition_of(f))
                .expect("retained"),
            fs.encode_partition(partition_of(f))
        );
        // Unknown and released tokens return nothing.
        assert_eq!(fs.retained_partition(15, 0), None);
        fs.release_checkpoints_below(20);
        assert_eq!(fs.retained_partition(10, 0), None, "released");
        assert!(fs.retained_partition(20, 0).is_some());
    }

    #[test]
    fn cow_save_chain_spans_untouched_checkpoints() {
        // A partition untouched across several retained checkpoints must
        // resolve through the forward scan to the first later save.
        let mut fs = fs();
        let f = create(&mut fs, ROOT_FH, "f");
        let p = partition_of(f);
        fs.retain_checkpoint(1);
        fs.retain_checkpoint(2); // no mutation between 1 and 2
        let v_at_12 = fs.encode_partition(p);
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 0,
            data: vec![1; 10],
        });
        // The save landed in token 2; token 1 resolves through it.
        assert_eq!(fs.retained_partition(1, p).expect("retained"), v_at_12);
        assert_eq!(fs.retained_partition(2, p).expect("retained"), v_at_12);
        fs.retain_checkpoint(3);
        let v_at_3 = fs.encode_partition(p);
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 0,
            data: vec![2; 10],
        });
        assert_eq!(fs.retained_partition(3, p).expect("retained"), v_at_3);
        assert_eq!(fs.retained_partition(1, p).expect("retained"), v_at_12);
    }

    #[test]
    fn partition_zero_carries_metadata() {
        let mut a = fs();
        let mut b = fs();
        create(&mut a, ROOT_FH, "x");
        create(&mut b, ROOT_FH, "x");
        assert_eq!(a.partition_digest(0), b.partition_digest(0));
        // Advance only b's clock: partition 0 must diverge even though
        // both hold the same inodes afterwards.
        create(&mut b, ROOT_FH, "y");
        b.apply(&NfsOp::Remove {
            dir: ROOT_FH,
            name: "y".into(),
        });
        assert_ne!(a.partition_digest(0), b.partition_digest(0));
        // Transferring partition 0 carries the metadata across.
        let bytes = b.encode_partition(0);
        a.restore_partition(0, &bytes, &b.partition_digest(0))
            .expect("restore");
        assert_eq!(a.partition_digest(0), b.partition_digest(0));
    }

    #[test]
    fn data_bytes_accounting() {
        let mut fs = fs();
        let f = create(&mut fs, ROOT_FH, "f");
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 0,
            data: vec![1; 100],
        });
        assert_eq!(fs.data_bytes(), 100);
        fs.apply(&NfsOp::Write {
            fh: f,
            offset: 50,
            data: vec![1; 100],
        });
        assert_eq!(fs.data_bytes(), 150, "overlap counted once");
        fs.apply(&NfsOp::Remove {
            dir: ROOT_FH,
            name: "f".into(),
        });
        assert_eq!(fs.data_bytes(), 0);
    }
}
