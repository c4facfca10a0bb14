#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! BFS — the Byzantine-fault-tolerant NFS file service from the paper —
//! plus the pieces needed to reproduce its evaluation.
//!
//! - [`ops`]: the NFS-V2-style operation/result vocabulary and its wire
//!   encoding;
//! - [`state`]: the deterministic filesystem state machine with undo,
//!   incremental state digests, and snapshot/restore;
//! - [`service`]: [`FsService`], plugging the state machine into the BFT
//!   library's [`bft_core::Service`] interface (and the unreplicated
//!   baselines);
//! - [`client`]: a model of the Linux kernel NFS client (lookup cache,
//!   attribute cache, write-back data cache, 3 KB transfers);
//! - [`disk`]: the disk and buffer-cache cost model distinguishing BFS,
//!   NO-REP, and NFS-STD.
//!
//! # Example
//!
//! ```
//! use bft_fs::ops::{NfsOp, NfsResult, ROOT_FH};
//! use bft_fs::service::FsService;
//! use bft_core::wire::Wire;
//!
//! let mut bfs = FsService::in_memory();
//! let create = NfsOp::Create { dir: ROOT_FH, name: "readme".into() };
//! let result = bfs.apply_encoded(&create.to_bytes());
//! let decoded = NfsResult::from_bytes(&result)?;
//! assert!(decoded.handle().is_some());
//! # Ok::<(), bft_core::wire::WireError>(())
//! ```

pub mod client;
pub mod disk;
pub mod ops;
pub mod service;
pub mod state;

pub use client::{ClientStats, FileAction, NfsClientConfig, NfsClientModel, Step};
pub use disk::{DiskModel, FsCostModel, ServerMode};
pub use ops::{Fattr, Fh, FileKind, NfsError, NfsOp, NfsResult, ROOT_FH};
pub use service::FsService;
pub use state::{DataMode, FsState};
