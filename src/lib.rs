#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Umbrella crate for the DSN 2001 "Byzantine Fault Tolerance Can Be Fast"
//! reproduction. Re-exports the component crates.
//!
//! See the component crates for the real content:
//! - [`bft_core`] — the BFT replication library (the paper's contribution)
//! - [`bft_crypto`] — MD5 / UMAC-style MAC / RSA substrate
//! - [`bft_sim`] — deterministic discrete-event network + CPU simulator
//! - [`bft_fs`] — BFS, the replicated NFS-like file service, and baselines
//! - [`bft_workloads`] — micro-benchmark, Andrew and PostMark workloads

pub use bft_core as core;
pub use bft_crypto as crypto;
pub use bft_fs as fs;
pub use bft_sim as sim;
pub use bft_workloads as workloads;
