//! The filesystem state machine: a deterministic in-memory NFS server
//! core with operation-level undo (for BFT's tentative execution), an
//! incrementally maintained state fingerprint (for cheap checkpoints), and
//! canonical snapshot/restore (for state transfer).
//!
//! An operation pays for what it changes. It edits the inodes it touches
//! in place, re-fingerprints only those, and records inverse steps to undo
//! itself: a directory's entries are undone one name at a time, never by
//! copying the entry map. Inodes are stored by checkpoint partition, so
//! encoding one partition (a copy-on-write save, a state-transfer reply)
//! walks that partition alone.
//!
//! Two data modes: [`DataMode::Store`] keeps real file bytes (used by
//! correctness tests), [`DataMode::MetadataOnly`] keeps only sizes and a
//! content fingerprint — reads return zero-filled data. The benchmarks use
//! the latter so an Andrew500-scale run does not hold a gigabyte of file
//! data per replica; the protocol-visible behaviour (message sizes,
//! digests, determinism) is identical because the workloads write
//! zero-filled data anyway.

use crate::ops::{
    decode_str, encode_str, Fattr, Fh, FileKind, NfsError, NfsOp, NfsResult, ROOT_FH,
};
use bft_core::service::RestoreError;
use bft_core::wire::{Reader, Wire, WireError};
use bft_crypto::md5::{digest_parts, Digest, Md5};
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

    /// A stable hash of this inode for the incremental state fingerprint:
    /// the MD5 of its handle, kind, size, mtime, link count, content
    /// (the first 8 bytes of the data's MD5, or the print), each entry's
    /// name, a zero byte and its handle, then the symlink target.
    fn fingerprint(&self, fh: Fh) -> u128 {
        let mut h = Md5::new();
        h.update(&fh.to_le_bytes());
        h.update(&[match self.kind {
            FileKind::File => 0,
            FileKind::Dir => 1,
            FileKind::Symlink => 2,
        }]);
        h.update(&self.size.to_le_bytes());
        h.update(&self.mtime.to_le_bytes());
        h.update(&self.nlink.to_le_bytes());
        match &self.content {
            Content::Bytes(b) => h.update(&bft_crypto::digest(b).as_bytes()[..8]),
            Content::Print(p) => h.update(&p.to_le_bytes()),
        }
        for (name, child) in &self.entries {
            h.update(name.as_bytes());
            h.update(&[0]);
            h.update(&child.to_le_bytes());
        }
        h.update(self.target.as_bytes());
        u128::from_le_bytes(*h.finish().as_bytes())
    }

    /// Approximate canonical-encoding size, tracked per partition so
    /// checkpoint CPU charges scale with the bytes actually re-hashed. It
    /// exceeds the encoding by 8 bytes.
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
            encode_str(name, buf);
            child.encode(buf);
        }
        encode_str(&self.target, buf);
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
            let name = decode_str(r)?;
            entries.insert(name, u64::decode(r)?);
        }
        let target = decode_str(r)?;
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

/// One inode in its partition, with its cached fingerprint.
#[derive(Debug, Clone)]
struct Slot {
    fh: Fh,
    /// `inode.fingerprint(fh)`: the inode's term in the print sums.
    print: u128,
    inode: Inode,
}

/// One of the [`FS_PARTITIONS`] partitions: its inodes and the leaf state
/// a checkpoint reads, kept current by every change.
#[derive(Debug, Clone, Default)]
struct Partition {
    /// The partition's inodes, sorted by handle.
    slots: Vec<Slot>,
    /// Wrapping sum of the slots' prints: an incremental set hash.
    sum: u128,
    /// Sum of the slots' approximate encoded sizes.
    bytes: u64,
    /// Modified since the last [`FsState::take_dirty_partitions`].
    dirty: bool,
}

impl Partition {
    /// The index of `fh`'s slot, or the index where it would go.
    fn find(&self, fh: Fh) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&fh, |s| s.fh)
    }

    fn get(&self, fh: Fh) -> Option<&Inode> {
        self.find(fh).ok().map(|i| &self.slots[i].inode)
    }

    /// Adds inode `fh`, which must not be present, to the slots, the sum
    /// and the size, and returns its print.
    fn insert(&mut self, fh: Fh, inode: Inode) -> u128 {
        let at = self.find(fh).expect_err("a new inode");
        let print = inode.fingerprint(fh);
        self.sum = self.sum.wrapping_add(print);
        self.bytes += inode.approx_encoded_size();
        self.slots.insert(at, Slot { fh, print, inode });
        print
    }

    /// Sum of the file sizes in the partition.
    fn data_bytes(&self) -> u64 {
        self.slots.iter().map(|s| s.inode.size).sum()
    }
}

/// One inverse step of an operation. Undoing the operation replays its
/// steps newest first.
#[derive(Debug, Clone)]
enum Step {
    /// The operation created inode `fh`.
    Created(Fh),
    /// The operation destroyed this inode (moved here, not copied).
    Destroyed(Fh, Inode),
    /// A non-directory's prior inode.
    File(Fh, Inode),
    /// A directory's prior scalar fields. Its entries are undone one
    /// [`Step::Entry`] at a time, so no undo copies an entry map.
    DirAttrs { fh: Fh, mtime: u64, nlink: u32 },
    /// The prior binding of `name` in directory `dir` (`None`: unbound).
    Entry {
        dir: Fh,
        name: String,
        prior: Option<Fh>,
    },
}

/// Undo information for one executed operation.
#[derive(Debug, Clone)]
struct UndoRecord {
    steps: Vec<Step>,
    next_fh: Fh,
    clock: u64,
    data_bytes: u64,
}

/// The deterministic filesystem state.
#[derive(Debug, Clone)]
pub struct FsState {
    mode: DataMode,
    /// The inodes, stored by partition.
    parts: Vec<Partition>,
    next_fh: Fh,
    /// Logical clock stamped into mtimes (deterministic across replicas).
    clock: u64,
    /// Wrapping sum of every inode's print (of the partition sums).
    print_sum: u128,
    /// Total file data bytes resident (drives the disk/cache cost model).
    data_bytes: u64,
    /// Undo log for uncommitted operations, oldest first.
    undo: Vec<UndoRecord>,
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
            parts: vec![Partition::default(); FS_PARTITIONS as usize],
            next_fh: ROOT_FH + 1,
            clock: 0,
            print_sum: 0,
            data_bytes: 0,
            undo: Vec::new(),
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
        self.parts.iter().map(|p| p.slots.len()).sum()
    }

    /// Total file data bytes (logical, both modes).
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Number of uncommitted operations in the undo log.
    pub fn uncommitted_ops(&self) -> usize {
        self.undo.len()
    }

    fn inode(&self, fh: Fh) -> Option<&Inode> {
        self.parts[partition_of(fh) as usize].get(fh)
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
        self.parts[0].dirty = true;
    }

    /// Creates inode `fh`, which must not exist.
    fn install(&mut self, fh: Fh, inode: Inode) {
        let p = partition_of(fh);
        self.cow_guard(p);
        let part = &mut self.parts[p as usize];
        let print = part.insert(fh, inode);
        part.dirty = true;
        self.print_sum = self.print_sum.wrapping_add(print);
    }

    /// Destroys inode `fh`, which must exist, and returns it.
    fn uninstall(&mut self, fh: Fh) -> Inode {
        let p = partition_of(fh);
        self.cow_guard(p);
        let part = &mut self.parts[p as usize];
        let at = part.find(fh).expect("uninstall destroys a live inode");
        let Slot { print, inode, .. } = part.slots.remove(at);
        part.sum = part.sum.wrapping_sub(print);
        part.bytes -= inode.approx_encoded_size();
        part.dirty = true;
        self.print_sum = self.print_sum.wrapping_sub(print);
        inode
    }

    /// Changes live inode `fh` in place through `f`, then re-fingerprints
    /// it and brings the print sums and the partition's size up to date.
    /// Every change to an existing inode goes through here.
    fn modify<R>(&mut self, fh: Fh, f: impl FnOnce(&mut Inode) -> R) -> R {
        let p = partition_of(fh);
        self.cow_guard(p);
        let part = &mut self.parts[p as usize];
        let at = part.find(fh).expect("modify changes a live inode");
        let slot = &mut part.slots[at];
        let old_bytes = slot.inode.approx_encoded_size();
        let out = f(&mut slot.inode);
        let print = slot.inode.fingerprint(fh);
        let old_print = std::mem::replace(&mut slot.print, print);
        let new_bytes = slot.inode.approx_encoded_size();
        part.sum = part.sum.wrapping_sub(old_print).wrapping_add(print);
        part.bytes = part.bytes - old_bytes + new_bytes;
        part.dirty = true;
        self.print_sum = self.print_sum.wrapping_sub(old_print).wrapping_add(print);
        out
    }

    /// Records how to restore live inode `fh`'s own fields before a change
    /// to them: a directory's scalars (an entry change records its own
    /// [`Step::Entry`]), any other inode whole.
    fn save(&self, fh: Fh, steps: &mut Vec<Step>) {
        let inode = self.inode(fh).expect("save records a live inode");
        steps.push(match inode.kind {
            FileKind::Dir => Step::DirAttrs {
                fh,
                mtime: inode.mtime,
                nlink: inode.nlink,
            },
            FileKind::File | FileKind::Symlink => Step::File(fh, inode.clone()),
        });
    }

    /// Binds `name` in directory `dir` to `to`, or unbinds it for `None`,
    /// and stamps the directory's mtime, recording the inverse of both.
    /// Returns what `name` was bound to before.
    fn relink(
        &mut self,
        steps: &mut Vec<Step>,
        dir: Fh,
        name: &str,
        to: Option<Fh>,
        mtime: u64,
    ) -> Option<Fh> {
        self.save(dir, steps);
        let (name, prior) = self.modify(dir, |d| {
            d.mtime = mtime;
            match to {
                Some(fh) => (name.to_owned(), d.entries.insert(name.to_owned(), fh)),
                None => {
                    let (name, fh) = d.entries.remove_entry(name).expect("a bound name");
                    (name, Some(fh))
                }
            }
        });
        steps.push(Step::Entry { dir, name, prior });
        prior
    }

    fn attr_of(&self, fh: Fh) -> Option<Fattr> {
        self.inode(fh).map(|i| Fattr {
            fh,
            kind: i.kind,
            size: i.size,
            mtime: i.mtime,
        })
    }

    /// Applies a mutating operation, recording undo information.
    pub fn apply(&mut self, op: &NfsOp) -> NfsResult {
        let mut undo = UndoRecord {
            steps: Vec::new(),
            next_fh: self.next_fh,
            clock: self.clock,
            data_bytes: self.data_bytes,
        };
        let result = self.apply_inner(op, &mut undo.steps);
        self.undo.push(undo);
        result
    }

    fn tick(&mut self) -> u64 {
        self.touch_meta();
        self.clock += 1;
        self.clock
    }

    fn apply_inner(&mut self, op: &NfsOp, steps: &mut Vec<Step>) -> NfsResult {
        match op {
            NfsOp::Lookup { .. }
            | NfsOp::GetAttr { .. }
            | NfsOp::Read { .. }
            | NfsOp::ReadDir { .. }
            | NfsOp::ReadLink { .. } => self.query(op),
            NfsOp::SetAttr { fh, size } => {
                let Some(inode) = self.inode(*fh) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if inode.kind == FileKind::Dir && size.is_some() {
                    return NfsResult::Err(NfsError::IsDir);
                }
                let old = inode.size;
                self.save(*fh, steps);
                let mtime = self.tick();
                self.modify(*fh, |inode| {
                    if let Some(new_size) = *size {
                        inode.size = new_size;
                        match &mut inode.content {
                            Content::Bytes(b) => b.resize(new_size as usize, 0),
                            Content::Print(p) => *p = mix(*p, 0x5e7a_77f1, new_size),
                        }
                    }
                    inode.mtime = mtime;
                });
                if let Some(new_size) = *size {
                    self.data_bytes = self.data_bytes + new_size
                        - old.min(new_size)
                        - old.saturating_sub(new_size);
                }
                NfsResult::Attr(self.attr_of(*fh).expect("present"))
            }
            NfsOp::Write { fh, offset, data } => {
                let Some(inode) = self.inode(*fh) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if inode.kind != FileKind::File {
                    return NfsResult::Err(NfsError::IsDir);
                }
                let Some(end) = offset.checked_add(data.len() as u64) else {
                    return NfsResult::Err(NfsError::Inval);
                };
                self.save(*fh, steps);
                let mtime = self.tick();
                let grown = self.modify(*fh, |inode| {
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
                    let old_size = inode.size;
                    inode.size = inode.size.max(end);
                    inode.mtime = mtime;
                    inode.size - old_size
                });
                self.data_bytes += grown;
                NfsResult::Attr(self.attr_of(*fh).expect("present"))
            }
            NfsOp::Create { dir, name } => self.make_entry(steps, *dir, name, FileKind::File, ""),
            NfsOp::Mkdir { dir, name } => self.make_entry(steps, *dir, name, FileKind::Dir, ""),
            NfsOp::Symlink { dir, name, target } => {
                self.make_entry(steps, *dir, name, FileKind::Symlink, target)
            }
            NfsOp::Link { fh, dir, name } => {
                let Some(existing) = self.inode(*fh) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if existing.kind == FileKind::Dir {
                    // NFS forbids hard links to directories.
                    return NfsResult::Err(NfsError::IsDir);
                }
                let Some(parent) = self.inode(*dir) else {
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
                let mtime = self.tick();
                self.save(*fh, steps);
                self.modify(*fh, |target| {
                    target.nlink += 1;
                    target.mtime = mtime;
                });
                self.relink(steps, *dir, name, Some(*fh), mtime);
                NfsResult::Handle(self.attr_of(*fh).expect("present"))
            }
            NfsOp::Remove { dir, name } => self.remove_entry(steps, *dir, name, false),
            NfsOp::Rmdir { dir, name } => self.remove_entry(steps, *dir, name, true),
            NfsOp::Rename {
                from_dir,
                from_name,
                to_dir,
                to_name,
            } => {
                let Some(src) = self.inode(*from_dir) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if src.kind != FileKind::Dir {
                    return NfsResult::Err(NfsError::NotDir);
                }
                let Some(&moved) = src.entries.get(from_name) else {
                    return NfsResult::Err(NfsError::NoEnt);
                };
                let Some(dst) = self.inode(*to_dir) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if dst.kind != FileKind::Dir {
                    return NfsResult::Err(NfsError::NotDir);
                }
                // Replacing a non-empty directory is refused.
                if let Some(&existing) = dst.entries.get(to_name) {
                    if let Some(e) = self.inode(existing) {
                        if e.kind == FileKind::Dir && !e.entries.is_empty() {
                            return NfsResult::Err(NfsError::NotEmpty);
                        }
                    }
                }
                let mtime = self.tick();
                self.relink(steps, *from_dir, from_name, None, mtime);
                let displaced = self.relink(steps, *to_dir, to_name, Some(moved), mtime);
                if let Some(old) = displaced {
                    if old != moved {
                        self.unlink_inode(steps, old, mtime);
                    }
                }
                NfsResult::Ok
            }
        }
    }

    fn make_entry(
        &mut self,
        steps: &mut Vec<Step>,
        dir: Fh,
        name: &str,
        kind: FileKind,
        target: &str,
    ) -> NfsResult {
        let Some(parent) = self.inode(dir) else {
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
        let mtime = self.tick();
        let fh = self.next_fh;
        self.next_fh += 1;
        let mut inode = Inode::new(kind, mtime, self.mode);
        inode.target = target.to_owned();
        self.install(fh, inode);
        steps.push(Step::Created(fh));
        self.relink(steps, dir, name, Some(fh), mtime);
        NfsResult::Handle(self.attr_of(fh).expect("just installed"))
    }

    fn remove_entry(
        &mut self,
        steps: &mut Vec<Step>,
        dir: Fh,
        name: &str,
        want_dir: bool,
    ) -> NfsResult {
        let Some(parent) = self.inode(dir) else {
            return NfsResult::Err(NfsError::Stale);
        };
        if parent.kind != FileKind::Dir {
            return NfsResult::Err(NfsError::NotDir);
        }
        let Some(&fh) = parent.entries.get(name) else {
            return NfsResult::Err(NfsError::NoEnt);
        };
        let victim = self.inode(fh).expect("directory entries are valid");
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
        let mtime = self.tick();
        self.unlink_inode(steps, fh, mtime);
        self.relink(steps, dir, name, None, mtime);
        NfsResult::Ok
    }

    /// Drops one name referring to `fh`: decrements the link count and
    /// destroys the inode when the last name goes away.
    fn unlink_inode(&mut self, steps: &mut Vec<Step>, fh: Fh, mtime: u64) {
        let Some(&Inode { nlink, size, .. }) = self.inode(fh) else {
            return;
        };
        if nlink <= 1 {
            self.data_bytes -= size;
            let dead = self.uninstall(fh);
            steps.push(Step::Destroyed(fh, dead));
        } else {
            self.save(fh, steps);
            self.modify(fh, |inode| {
                inode.nlink -= 1;
                inode.mtime = mtime;
            });
        }
    }

    /// Evaluates a read-only operation without mutating anything.
    pub fn query(&self, op: &NfsOp) -> NfsResult {
        match op {
            NfsOp::Lookup { dir, name } => {
                let Some(parent) = self.inode(*dir) else {
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
                let Some(inode) = self.inode(*fh) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if inode.kind == FileKind::Dir {
                    return NfsResult::Err(NfsError::IsDir);
                }
                let Some(end) = offset.checked_add(u64::from(*count)) else {
                    return NfsResult::Err(NfsError::Inval);
                };
                let start = (*offset).min(inode.size);
                let end = end.min(inode.size);
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
                let Some(inode) = self.inode(*dir) else {
                    return NfsResult::Err(NfsError::Stale);
                };
                if inode.kind != FileKind::Dir {
                    return NfsResult::Err(NfsError::NotDir);
                }
                NfsResult::Entries(inode.entries.iter().map(|(n, &f)| (n.clone(), f)).collect())
            }
            NfsOp::ReadLink { fh } => {
                let Some(inode) = self.inode(*fh) else {
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
            for step in rec.steps.into_iter().rev() {
                match step {
                    Step::Created(fh) => {
                        self.uninstall(fh);
                    }
                    Step::Destroyed(fh, inode) => self.install(fh, inode),
                    Step::File(fh, prior) => self.modify(fh, |inode| *inode = prior),
                    Step::DirAttrs { fh, mtime, nlink } => self.modify(fh, |d| {
                        d.mtime = mtime;
                        d.nlink = nlink;
                    }),
                    Step::Entry { dir, name, prior } => self.modify(dir, |d| match prior {
                        Some(fh) => {
                            d.entries.insert(name, fh);
                        }
                        None => {
                            d.entries.remove(&name);
                        }
                    }),
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
            &(self.inode_count() as u64).to_le_bytes(),
        ])
    }

    /// Serializes the full state canonically: the mode, `next_fh`, the
    /// clock, then every inode in handle order.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.push(match self.mode {
            DataMode::Store => 0u8,
            DataMode::MetadataOnly => 1,
        });
        self.next_fh.encode(&mut buf);
        self.clock.encode(&mut buf);
        let mut slots: Vec<&Slot> = self.parts.iter().flat_map(|p| &p.slots).collect();
        slots.sort_unstable_by_key(|s| s.fh);
        (slots.len() as u64).encode(&mut buf);
        for s in slots {
            s.inode.encode(s.fh, &mut buf);
        }
        buf
    }

    /// Rebuilds the state from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input, including inodes out of
    /// handle order; the state is then unchanged.
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
        let mut parts = vec![Partition::default(); FS_PARTITIONS as usize];
        let mut print_sum = 0u128;
        let mut data_bytes = 0u64;
        let mut last_fh = None;
        for _ in 0..count {
            let (fh, inode) = Inode::decode(&mut r)?;
            if last_fh.is_some_and(|prev| fh <= prev) {
                return Err(WireError::BadTag(0xfd));
            }
            last_fh = Some(fh);
            data_bytes += inode.size;
            let print = parts[partition_of(fh) as usize].insert(fh, inode);
            print_sum = print_sum.wrapping_add(print);
        }
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        for part in &mut parts {
            part.dirty = true;
        }
        self.mode = mode;
        self.next_fh = next_fh;
        self.clock = clock;
        self.parts = parts;
        self.print_sum = print_sum;
        self.data_bytes = data_bytes;
        self.undo.clear();
        self.retained.clear();
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
        let part = &self.parts[p as usize];
        Self::partition_digest_of(p, part.sum, part.slots.len() as u64, meta)
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
        self.parts[p as usize].bytes as usize + meta
    }

    /// Serializes partition `p` canonically: metadata (partition 0 only),
    /// then the partition's inodes sorted by handle.
    pub fn encode_partition(&self, p: u32) -> Vec<u8> {
        // The approximate size exceeds the encoding by 8 bytes an inode,
        // so adding the count's 8 covers it.
        let mut buf = Vec::with_capacity(self.partition_byte_size(p) + 8);
        if p == 0 {
            self.next_fh.encode(&mut buf);
            self.clock.encode(&mut buf);
        }
        let slots = &self.parts[p as usize].slots;
        (slots.len() as u64).encode(&mut buf);
        for s in slots {
            s.inode.encode(s.fh, &mut buf);
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
        let mut incoming = Partition {
            dirty: true,
            ..Partition::default()
        };
        for _ in 0..count {
            let (fh, inode) = Inode::decode(&mut r).map_err(wire)?;
            if partition_of(fh) != p {
                return Err(RestoreError(format!("inode {fh} outside partition {p}")));
            }
            if incoming.slots.last().is_some_and(|prev| fh <= prev.fh) {
                return Err(RestoreError("partition inodes not sorted".into()));
            }
            incoming.insert(fh, inode);
        }
        if r.remaining() != 0 {
            return Err(RestoreError("trailing bytes in partition".into()));
        }
        if Self::partition_digest_of(p, incoming.sum, count, meta) != *expect {
            return Err(RestoreError("partition digest mismatch".into()));
        }
        // Verified: swap the partition in (saving a retained version
        // first) and bring the whole-state sums up to date.
        if !(incoming.slots.is_empty() && self.parts[p as usize].slots.is_empty()) {
            self.cow_guard(p);
            let data = incoming.data_bytes();
            let sum = incoming.sum;
            let old = std::mem::replace(&mut self.parts[p as usize], incoming);
            self.print_sum = self.print_sum.wrapping_sub(old.sum).wrapping_add(sum);
            self.data_bytes = self.data_bytes - old.data_bytes() + data;
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
        for (p, part) in self.parts.iter_mut().enumerate() {
            if std::mem::take(&mut part.dirty) {
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
    fn read_past_the_end_of_the_offset_space_is_inval() {
        for mode in [DataMode::Store, DataMode::MetadataOnly] {
            let mut fs = FsState::new(mode);
            let f = create(&mut fs, ROOT_FH, "f");
            fs.apply(&NfsOp::Write {
                fh: f,
                offset: 0,
                data: vec![1; 16],
            });
            for (offset, count) in [(u64::MAX - 10, 64), (u64::MAX, 1)] {
                assert_eq!(
                    fs.query(&NfsOp::Read {
                        fh: f,
                        offset,
                        count
                    }),
                    NfsResult::Err(NfsError::Inval),
                    "{mode:?} offset {offset}"
                );
            }
            // At the very end of the offset space, without overflow, a
            // read is empty.
            let NfsResult::Data { data, .. } = fs.query(&NfsOp::Read {
                fh: f,
                offset: u64::MAX - 10,
                count: 10,
            }) else {
                panic!("{mode:?}: an in-range read succeeds");
            };
            assert!(data.is_empty());
        }
    }

    #[test]
    fn write_past_the_end_of_the_offset_space_is_inval_and_changes_nothing() {
        for mode in [DataMode::Store, DataMode::MetadataOnly] {
            let mut fs = FsState::new(mode);
            let f = create(&mut fs, ROOT_FH, "f");
            fs.commit_prefix(1);
            fs.take_dirty_partitions();
            let digest = fs.state_digest();
            let snapshot = fs.snapshot();
            assert_eq!(
                fs.apply(&NfsOp::Write {
                    fh: f,
                    offset: u64::MAX - 10,
                    data: vec![1; 64],
                }),
                NfsResult::Err(NfsError::Inval),
                "{mode:?}"
            );
            assert_eq!(fs.state_digest(), digest, "{mode:?}: nothing ticked");
            assert_eq!(fs.snapshot(), snapshot, "{mode:?}");
            assert!(fs.take_dirty_partitions().is_empty(), "{mode:?}");
            fs.rollback_suffix(1);
            assert_eq!(fs.snapshot(), snapshot, "{mode:?}: the undo is empty");
        }
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
    fn restore_rejects_counts_and_orders_the_bytes_cannot_hold() {
        let mut fs = fs();
        let f = create(&mut fs, ROOT_FH, "f");
        let digest = fs.state_digest();
        // A count far beyond the bytes that follow is an error, not an
        // allocation of that many inodes.
        let p = partition_of(f);
        let mut huge = Vec::new();
        u64::MAX.encode(&mut huge);
        assert!(fs
            .restore_partition(p, &huge, &fs.partition_digest(p).clone())
            .is_err());
        let mut snap = fs.snapshot()[..17].to_vec();
        u64::MAX.encode(&mut snap);
        assert!(fs.restore(&snap).is_err());
        assert_eq!(fs.state_digest(), digest);
        // A snapshot must list its inodes in handle order.
        let g = create(&mut fs, ROOT_FH, "g");
        let snap = fs.snapshot();
        let (head, inodes) = snap.split_at(25);
        let mut swapped = head.to_vec();
        let mut r = Reader::new(inodes);
        let decoded: Vec<(Fh, Inode)> = (0..3)
            .map(|_| Inode::decode(&mut r).expect("decodes"))
            .collect();
        assert_eq!(
            decoded.iter().map(|(fh, _)| *fh).collect::<Vec<_>>(),
            [ROOT_FH, f, g]
        );
        for (fh, inode) in decoded.iter().rev() {
            inode.encode(*fh, &mut swapped);
        }
        let mut other = FsState::new(DataMode::Store);
        assert!(other.restore(&swapped).is_err());
        other.restore(&snap).expect("the ordered snapshot restores");
        assert_eq!(other.state_digest(), fs.state_digest());
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
