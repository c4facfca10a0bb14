//! The NFS-V2-style operation vocabulary of BFS.
//!
//! BFS exports the NFS V2 protocol surface; operations and results are
//! serialized with the `bft-core` wire codec so they can travel as opaque
//! BFT operations (replicated path) or inside plain datagrams (the NO-REP
//! and NFS-STD baselines).

use bft_core::wire::{Reader, Wire, WireError};

/// A file handle. Handle 1 is always the root directory.
pub type Fh = u64;

/// The root directory handle.
pub const ROOT_FH: Fh = 1;

/// File type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
    /// Symbolic link.
    Symlink,
}

impl Wire for FileKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            FileKind::File => 0,
            FileKind::Dir => 1,
            FileKind::Symlink => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(FileKind::File),
            1 => Ok(FileKind::Dir),
            2 => Ok(FileKind::Symlink),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_len(&self) -> usize {
        1
    }
}

/// File attributes (the subset BFS maintains; there is deliberately no
/// time-last-accessed, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fattr {
    /// The file's handle.
    pub fh: Fh,
    /// File type.
    pub kind: FileKind,
    /// Size in bytes.
    pub size: u64,
    /// Logical modification time (a deterministic operation counter, not
    /// wall-clock, so replicas stay identical).
    pub mtime: u64,
}

impl Wire for Fattr {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.fh.encode(buf);
        self.kind.encode(buf);
        self.size.encode(buf);
        self.mtime.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Fattr {
            fh: u64::decode(r)?,
            kind: FileKind::decode(r)?,
            size: u64::decode(r)?,
            mtime: u64::decode(r)?,
        })
    }
    fn wire_len(&self) -> usize {
        self.fh.wire_len() + self.kind.wire_len() + self.size.wire_len() + self.mtime.wire_len()
    }
}

/// Appends `s` as its UTF-8 bytes with a `u64` length prefix: the
/// encoding of `s.as_bytes().to_vec()`, without the copy.
pub(crate) fn encode_str(s: &str, buf: &mut Vec<u8>) {
    (s.len() as u64).encode(buf);
    buf.extend_from_slice(s.as_bytes());
}

/// [`encode_str`]'s length.
fn str_wire_len(s: &str) -> usize {
    8 + s.len()
}

pub(crate) fn decode_str(r: &mut Reader<'_>) -> Result<String, WireError> {
    let bytes = Vec::<u8>::decode(r)?;
    String::from_utf8(bytes).map_err(|_| WireError::BadTag(0xfe))
}

/// An NFS operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsOp {
    /// Resolve `name` in directory `dir`.
    Lookup {
        /// Directory handle.
        dir: Fh,
        /// Entry name.
        name: String,
    },
    /// Fetch attributes.
    GetAttr {
        /// File handle.
        fh: Fh,
    },
    /// Set attributes (truncate to `size` when present).
    SetAttr {
        /// File handle.
        fh: Fh,
        /// New size, if truncating.
        size: Option<u64>,
    },
    /// Read `count` bytes at `offset`.
    Read {
        /// File handle.
        fh: Fh,
        /// Byte offset.
        offset: u64,
        /// Bytes wanted.
        count: u32,
    },
    /// Write `data` at `offset`.
    Write {
        /// File handle.
        fh: Fh,
        /// Byte offset.
        offset: u64,
        /// Data to write.
        data: Vec<u8>,
    },
    /// Create a regular file.
    Create {
        /// Parent directory.
        dir: Fh,
        /// New entry name.
        name: String,
    },
    /// Remove a regular file or symlink.
    Remove {
        /// Parent directory.
        dir: Fh,
        /// Entry name.
        name: String,
    },
    /// Rename an entry (possibly across directories).
    Rename {
        /// Source directory.
        from_dir: Fh,
        /// Source name.
        from_name: String,
        /// Destination directory.
        to_dir: Fh,
        /// Destination name.
        to_name: String,
    },
    /// Create a directory.
    Mkdir {
        /// Parent directory.
        dir: Fh,
        /// New directory name.
        name: String,
    },
    /// Remove an empty directory.
    Rmdir {
        /// Parent directory.
        dir: Fh,
        /// Directory name.
        name: String,
    },
    /// List a directory.
    ReadDir {
        /// Directory handle.
        dir: Fh,
    },
    /// Create a symbolic link.
    Symlink {
        /// Parent directory.
        dir: Fh,
        /// Link name.
        name: String,
        /// Link target path.
        target: String,
    },
    /// Read a symbolic link's target.
    ReadLink {
        /// Symlink handle.
        fh: Fh,
    },
    /// Create a hard link to an existing file.
    Link {
        /// Handle of the existing file.
        fh: Fh,
        /// Directory for the new name.
        dir: Fh,
        /// The new name.
        name: String,
    },
}

impl NfsOp {
    /// True if the operation cannot modify filesystem state — eligible for
    /// the read-only optimization.
    pub fn is_read_only(&self) -> bool {
        matches!(
            self,
            NfsOp::Lookup { .. }
                | NfsOp::GetAttr { .. }
                | NfsOp::Read { .. }
                | NfsOp::ReadDir { .. }
                | NfsOp::ReadLink { .. }
        )
    }

    /// True for operations that mutate namespace metadata (these are the
    /// ops the Linux NFS server must push to disk — or, incorrectly,
    /// doesn't).
    pub fn is_metadata_write(&self) -> bool {
        matches!(
            self,
            NfsOp::Create { .. }
                | NfsOp::Remove { .. }
                | NfsOp::Rename { .. }
                | NfsOp::Mkdir { .. }
                | NfsOp::Rmdir { .. }
                | NfsOp::Symlink { .. }
                | NfsOp::SetAttr { .. }
                | NfsOp::Link { .. }
        )
    }
}

impl Wire for NfsOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            NfsOp::Lookup { dir, name } => {
                buf.push(0);
                dir.encode(buf);
                encode_str(name, buf);
            }
            NfsOp::GetAttr { fh } => {
                buf.push(1);
                fh.encode(buf);
            }
            NfsOp::SetAttr { fh, size } => {
                buf.push(2);
                fh.encode(buf);
                size.encode(buf);
            }
            NfsOp::Read { fh, offset, count } => {
                buf.push(3);
                fh.encode(buf);
                offset.encode(buf);
                count.encode(buf);
            }
            NfsOp::Write { fh, offset, data } => {
                buf.push(4);
                fh.encode(buf);
                offset.encode(buf);
                data.encode(buf);
            }
            NfsOp::Create { dir, name } => {
                buf.push(5);
                dir.encode(buf);
                encode_str(name, buf);
            }
            NfsOp::Remove { dir, name } => {
                buf.push(6);
                dir.encode(buf);
                encode_str(name, buf);
            }
            NfsOp::Rename {
                from_dir,
                from_name,
                to_dir,
                to_name,
            } => {
                buf.push(7);
                from_dir.encode(buf);
                encode_str(from_name, buf);
                to_dir.encode(buf);
                encode_str(to_name, buf);
            }
            NfsOp::Mkdir { dir, name } => {
                buf.push(8);
                dir.encode(buf);
                encode_str(name, buf);
            }
            NfsOp::Rmdir { dir, name } => {
                buf.push(9);
                dir.encode(buf);
                encode_str(name, buf);
            }
            NfsOp::ReadDir { dir } => {
                buf.push(10);
                dir.encode(buf);
            }
            NfsOp::Symlink { dir, name, target } => {
                buf.push(11);
                dir.encode(buf);
                encode_str(name, buf);
                encode_str(target, buf);
            }
            NfsOp::ReadLink { fh } => {
                buf.push(12);
                fh.encode(buf);
            }
            NfsOp::Link { fh, dir, name } => {
                buf.push(13);
                fh.encode(buf);
                dir.encode(buf);
                encode_str(name, buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => NfsOp::Lookup {
                dir: u64::decode(r)?,
                name: decode_str(r)?,
            },
            1 => NfsOp::GetAttr {
                fh: u64::decode(r)?,
            },
            2 => NfsOp::SetAttr {
                fh: u64::decode(r)?,
                size: Option::<u64>::decode(r)?,
            },
            3 => NfsOp::Read {
                fh: u64::decode(r)?,
                offset: u64::decode(r)?,
                count: u32::decode(r)?,
            },
            4 => NfsOp::Write {
                fh: u64::decode(r)?,
                offset: u64::decode(r)?,
                data: Vec::<u8>::decode(r)?,
            },
            5 => NfsOp::Create {
                dir: u64::decode(r)?,
                name: decode_str(r)?,
            },
            6 => NfsOp::Remove {
                dir: u64::decode(r)?,
                name: decode_str(r)?,
            },
            7 => NfsOp::Rename {
                from_dir: u64::decode(r)?,
                from_name: decode_str(r)?,
                to_dir: u64::decode(r)?,
                to_name: decode_str(r)?,
            },
            8 => NfsOp::Mkdir {
                dir: u64::decode(r)?,
                name: decode_str(r)?,
            },
            9 => NfsOp::Rmdir {
                dir: u64::decode(r)?,
                name: decode_str(r)?,
            },
            10 => NfsOp::ReadDir {
                dir: u64::decode(r)?,
            },
            11 => NfsOp::Symlink {
                dir: u64::decode(r)?,
                name: decode_str(r)?,
                target: decode_str(r)?,
            },
            12 => NfsOp::ReadLink {
                fh: u64::decode(r)?,
            },
            13 => NfsOp::Link {
                fh: u64::decode(r)?,
                dir: u64::decode(r)?,
                name: decode_str(r)?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn wire_len(&self) -> usize {
        1 + match self {
            NfsOp::Lookup { dir, name }
            | NfsOp::Create { dir, name }
            | NfsOp::Remove { dir, name }
            | NfsOp::Mkdir { dir, name }
            | NfsOp::Rmdir { dir, name } => dir.wire_len() + str_wire_len(name),
            NfsOp::GetAttr { fh } | NfsOp::ReadLink { fh } | NfsOp::ReadDir { dir: fh } => {
                fh.wire_len()
            }
            NfsOp::SetAttr { fh, size } => fh.wire_len() + size.wire_len(),
            NfsOp::Read { fh, offset, count } => {
                fh.wire_len() + offset.wire_len() + count.wire_len()
            }
            NfsOp::Write { fh, offset, data } => {
                fh.wire_len() + offset.wire_len() + data.wire_len()
            }
            NfsOp::Rename {
                from_dir,
                from_name,
                to_dir,
                to_name,
            } => {
                from_dir.wire_len()
                    + str_wire_len(from_name)
                    + to_dir.wire_len()
                    + str_wire_len(to_name)
            }
            NfsOp::Symlink { dir, name, target } => {
                dir.wire_len() + str_wire_len(name) + str_wire_len(target)
            }
            NfsOp::Link { fh, dir, name } => fh.wire_len() + dir.wire_len() + str_wire_len(name),
        }
    }
}

/// NFS error codes (the subset BFS produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfsError {
    /// No such file or directory.
    NoEnt,
    /// Entry already exists.
    Exists,
    /// Operand is not a directory.
    NotDir,
    /// Operand is a directory.
    IsDir,
    /// Directory not empty.
    NotEmpty,
    /// Stale file handle.
    Stale,
    /// Invalid argument.
    Inval,
}

impl Wire for NfsError {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            NfsError::NoEnt => 0,
            NfsError::Exists => 1,
            NfsError::NotDir => 2,
            NfsError::IsDir => 3,
            NfsError::NotEmpty => 4,
            NfsError::Stale => 5,
            NfsError::Inval => 6,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => NfsError::NoEnt,
            1 => NfsError::Exists,
            2 => NfsError::NotDir,
            3 => NfsError::IsDir,
            4 => NfsError::NotEmpty,
            5 => NfsError::Stale,
            6 => NfsError::Inval,
            t => return Err(WireError::BadTag(t)),
        })
    }
    fn wire_len(&self) -> usize {
        1
    }
}

impl std::fmt::Display for NfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NfsError::NoEnt => "no such file or directory",
            NfsError::Exists => "file exists",
            NfsError::NotDir => "not a directory",
            NfsError::IsDir => "is a directory",
            NfsError::NotEmpty => "directory not empty",
            NfsError::Stale => "stale file handle",
            NfsError::Inval => "invalid argument",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NfsError {}

/// An NFS operation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsResult {
    /// Attributes only (GetAttr, SetAttr, Write).
    Attr(Fattr),
    /// Handle + attributes (Lookup, Create, Mkdir, Symlink).
    Handle(Fattr),
    /// File data (Read).
    Data {
        /// The bytes read.
        data: Vec<u8>,
        /// Attributes after the read.
        attr: Fattr,
    },
    /// Success with nothing to return (Remove, Rename, Rmdir).
    Ok,
    /// Directory listing: (name, handle) pairs in name order.
    Entries(Vec<(String, Fh)>),
    /// Symlink target (ReadLink).
    Link(String),
    /// Failure.
    Err(NfsError),
}

impl NfsResult {
    /// True if this is an error result.
    pub fn is_err(&self) -> bool {
        matches!(self, NfsResult::Err(_))
    }

    /// Extracts the handle from a `Handle` result.
    pub fn handle(&self) -> Option<Fh> {
        match self {
            NfsResult::Handle(a) => Some(a.fh),
            _ => None,
        }
    }

    /// Extracts attributes if present.
    pub fn attr(&self) -> Option<&Fattr> {
        match self {
            NfsResult::Attr(a) | NfsResult::Handle(a) => Some(a),
            NfsResult::Data { attr, .. } => Some(attr),
            _ => None,
        }
    }
}

impl Wire for NfsResult {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            NfsResult::Attr(a) => {
                buf.push(0);
                a.encode(buf);
            }
            NfsResult::Handle(a) => {
                buf.push(1);
                a.encode(buf);
            }
            NfsResult::Data { data, attr } => {
                buf.push(2);
                data.encode(buf);
                attr.encode(buf);
            }
            NfsResult::Ok => buf.push(3),
            NfsResult::Entries(entries) => {
                buf.push(4);
                (entries.len() as u64).encode(buf);
                for (name, fh) in entries {
                    encode_str(name, buf);
                    fh.encode(buf);
                }
            }
            NfsResult::Link(target) => {
                buf.push(5);
                encode_str(target, buf);
            }
            NfsResult::Err(e) => {
                buf.push(6);
                e.encode(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => NfsResult::Attr(Fattr::decode(r)?),
            1 => NfsResult::Handle(Fattr::decode(r)?),
            2 => NfsResult::Data {
                data: Vec::<u8>::decode(r)?,
                attr: Fattr::decode(r)?,
            },
            3 => NfsResult::Ok,
            4 => {
                let n = u64::decode(r)?;
                if n > 1_000_000 {
                    return Err(WireError::BadLength(n));
                }
                let mut entries = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    entries.push((decode_str(r)?, u64::decode(r)?));
                }
                NfsResult::Entries(entries)
            }
            5 => NfsResult::Link(decode_str(r)?),
            6 => NfsResult::Err(NfsError::decode(r)?),
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn wire_len(&self) -> usize {
        1 + match self {
            NfsResult::Attr(a) | NfsResult::Handle(a) => a.wire_len(),
            NfsResult::Data { data, attr } => data.wire_len() + attr.wire_len(),
            NfsResult::Ok => 0,
            NfsResult::Entries(entries) => {
                8 + entries
                    .iter()
                    .map(|(name, fh)| str_wire_len(name) + fh.wire_len())
                    .sum::<usize>()
            }
            NfsResult::Link(target) => str_wire_len(target),
            NfsResult::Err(e) => e.wire_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(op: NfsOp) {
        let bytes = op.to_bytes();
        assert_eq!(NfsOp::from_bytes(&bytes).expect("decode"), op);
    }

    fn roundtrip_result(res: NfsResult) {
        let bytes = res.to_bytes();
        assert_eq!(NfsResult::from_bytes(&bytes).expect("decode"), res);
    }

    #[test]
    fn ops_roundtrip() {
        roundtrip(NfsOp::Lookup {
            dir: ROOT_FH,
            name: "src".into(),
        });
        roundtrip(NfsOp::GetAttr { fh: 2 });
        roundtrip(NfsOp::SetAttr {
            fh: 2,
            size: Some(0),
        });
        roundtrip(NfsOp::Read {
            fh: 2,
            offset: 4096,
            count: 3072,
        });
        roundtrip(NfsOp::Write {
            fh: 2,
            offset: 0,
            data: vec![1, 2, 3],
        });
        roundtrip(NfsOp::Create {
            dir: 1,
            name: "a.c".into(),
        });
        roundtrip(NfsOp::Remove {
            dir: 1,
            name: "a.c".into(),
        });
        roundtrip(NfsOp::Rename {
            from_dir: 1,
            from_name: "a".into(),
            to_dir: 2,
            to_name: "b".into(),
        });
        roundtrip(NfsOp::Mkdir {
            dir: 1,
            name: "d".into(),
        });
        roundtrip(NfsOp::Rmdir {
            dir: 1,
            name: "d".into(),
        });
        roundtrip(NfsOp::ReadDir { dir: 1 });
        roundtrip(NfsOp::Symlink {
            dir: 1,
            name: "l".into(),
            target: "../x".into(),
        });
        roundtrip(NfsOp::ReadLink { fh: 3 });
        roundtrip(NfsOp::Link {
            fh: 2,
            dir: 1,
            name: "hard".into(),
        });
    }

    #[test]
    fn results_roundtrip() {
        let attr = Fattr {
            fh: 7,
            kind: FileKind::File,
            size: 100,
            mtime: 3,
        };
        roundtrip_result(NfsResult::Attr(attr));
        roundtrip_result(NfsResult::Handle(attr));
        roundtrip_result(NfsResult::Data {
            data: vec![0; 10],
            attr,
        });
        roundtrip_result(NfsResult::Ok);
        roundtrip_result(NfsResult::Entries(vec![("a".into(), 2), ("b".into(), 3)]));
        roundtrip_result(NfsResult::Link("/target".into()));
        roundtrip_result(NfsResult::Err(NfsError::NoEnt));
    }

    #[test]
    fn read_only_classification() {
        assert!(NfsOp::Read {
            fh: 1,
            offset: 0,
            count: 1
        }
        .is_read_only());
        assert!(NfsOp::GetAttr { fh: 1 }.is_read_only());
        assert!(!NfsOp::Write {
            fh: 1,
            offset: 0,
            data: vec![]
        }
        .is_read_only());
        assert!(!NfsOp::Create {
            dir: 1,
            name: "x".into()
        }
        .is_read_only());
    }

    #[test]
    fn metadata_write_classification() {
        assert!(NfsOp::Create {
            dir: 1,
            name: "x".into()
        }
        .is_metadata_write());
        assert!(NfsOp::Rename {
            from_dir: 1,
            from_name: "a".into(),
            to_dir: 1,
            to_name: "b".into()
        }
        .is_metadata_write());
        assert!(!NfsOp::Write {
            fh: 1,
            offset: 0,
            data: vec![]
        }
        .is_metadata_write());
        assert!(!NfsOp::Read {
            fh: 1,
            offset: 0,
            count: 0
        }
        .is_metadata_write());
    }

    #[test]
    fn invalid_utf8_name_rejected() {
        let mut buf = Vec::new();
        buf.push(0u8); // Lookup tag
        1u64.encode(&mut buf);
        vec![0xffu8, 0xfe].encode(&mut buf); // invalid UTF-8
        assert!(NfsOp::from_bytes(&buf).is_err());
    }
}
