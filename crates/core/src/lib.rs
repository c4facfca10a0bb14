#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The BFT state-machine-replication library — a reproduction of the
//! system evaluated in *Byzantine Fault Tolerance Can Be Fast* (Castro &
//! Liskov, DSN 2001).
//!
//! BFT replicates any deterministic [`service::Service`] across `3f + 1`
//! replicas, tolerating `f` Byzantine faults while providing
//! linearizability to correct clients. It authenticates all protocol
//! messages with symmetric-key MACs (public-key cryptography is used only
//! for session-key establishment), and implements the paper's normal-case
//! optimizations:
//!
//! - digest replies,
//! - tentative execution,
//! - read-only operations,
//! - request batching with a sliding window,
//! - separate request transmission, and
//! - (optionally) piggybacked commits.
//!
//! Replicas and clients are [`bft_sim::Node`]s; a cluster runs inside the
//! deterministic simulation from `bft-sim`, which models the paper's
//! testbed (600 MHz Pentium III machines on 100 Mb/s switched Ethernet).
//!
//! # Quickstart
//!
//! ```
//! use bft_core::prelude::*;
//!
//! // Closed-loop driver issuing increments against a counter service.
//! struct Adder { left: u32 }
//! impl ClientDriver for Adder {
//!     fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
//!         api.submit(CounterService::add_op(1), false);
//!     }
//!     fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, _r: &[u8], _lat: u64) {
//!         self.left -= 1;
//!         if self.left > 0 {
//!             api.submit(CounterService::add_op(1), false);
//!         }
//!     }
//! }
//!
//! let cfg = Config::new(1); // 4 replicas, f = 1
//! let mut cluster = Cluster::new(42, NetConfig::LOSSLESS_100MBPS, cfg, |_| {
//!     CounterService::default()
//! });
//! cluster.add_client(Adder { left: 10 });
//! cluster.run_for(bft_sim::dur::secs(2));
//! assert_eq!(cluster.completed_ops(), 10);
//! assert_eq!(cluster.replica::<CounterService>(0).service().value(), 10);
//! ```

mod admission;
mod bodies;
pub mod checkpoint;
pub mod client;
pub mod cluster;
pub mod config;
pub mod fuzz;
pub mod invariants;
mod lease;
pub mod log;
pub mod messages;
pub mod recovery;
pub mod replica;
pub mod service;
pub mod types;
pub mod viewchange;
pub mod wire;

pub use client::{Client, ClientApi, ClientBehavior, ClientDriver};
pub use cluster::{derive_seed, Cluster, ClusterBuilder};
pub use config::{Config, Optimizations};
pub use invariants::{InvariantChecker, OpEvent, ReplicaAudit, Violation};
pub use messages::{Msg, Packet};
pub use recovery::{RecoveryManager, RecoveryStage};
pub use replica::{Behavior, Replica};
pub use service::{CounterService, NullService, Service};
pub use types::{ClientId, Quorums, ReplicaId, SeqNum, Timestamp, View};

/// Common imports for building and driving clusters.
pub mod prelude {
    pub use crate::client::{Client, ClientApi, ClientDriver};
    pub use crate::cluster::{derive_seed, Cluster, ClusterBuilder};
    pub use crate::config::{Config, Optimizations};
    pub use crate::invariants::{InvariantChecker, Violation};
    pub use crate::messages::Packet;
    pub use crate::replica::{Behavior, Replica};
    pub use crate::service::{CounterService, NullService, Service};
    pub use crate::types::{ClientId, Quorums, ReplicaId};
    pub use bft_sim::chaos::{ChaosConfig, FaultPlan};
    pub use bft_sim::{dur, Counter, NetConfig, SimTime};
}
