#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! Cryptographic substrate for the BFT library.
//!
//! The DSN 2001 paper attributes most of BFT's speed to replacing public-key
//! signatures with symmetric-key message authentication: MD5 digests and
//! UMAC32 message authentication codes, with public-key cryptography used
//! only to establish the symmetric session keys. This crate implements the
//! symmetric stack from scratch; the simulation prices the public-key
//! exchange as a charge rather than running it (DESIGN §5.7):
//!
//! - [`md5`]: the MD5 digest (incremental and one-shot),
//! - [`digest_helper`]: MD5 of large bodies on a second core, claimed by
//!   the node that receives the body,
//! - [`merkle`]: Merkle trees over partition digests, the basis of
//!   incremental hierarchical checkpointing,
//! - [`umac`]: a UMAC-style fast universal-hash MAC, padded with AES-128
//!   (AES-NI when the CPU has it; the crate's only `unsafe` is that path),
//! - [`keychain`]: per-principal session-key management and MAC
//!   *authenticators* (vectors of MACs, one entry per replica).
//!
//! # Example
//!
//! ```
//! use bft_crypto::{digest, keychain::KeyChain, umac::MacKey};
//!
//! let d = digest(b"request bytes");
//! let key = MacKey::from_bytes([7u8; 16]);
//! let mac = key.mac(b"message", 42);
//! assert!(key.verify(b"message", 42, &mac.tag));
//! assert!(!key.verify(b"tampered", 42, &mac.tag));
//! let _ = d;
//! let _ = KeyChain::new(0, 4);
//! ```

mod aes;
pub mod digest_helper;
pub mod keychain;
pub mod md5;
pub mod merkle;
pub mod umac;

pub use keychain::{Authenticator, KeyChain};
pub use md5::{digest, Digest, Md5};
pub use merkle::MerkleTree;
pub use umac::{Mac, MacKey};
