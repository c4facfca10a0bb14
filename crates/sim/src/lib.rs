#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Deterministic discrete-event simulation of the paper's testbed.
//!
//! The DSN 2001 evaluation ran on Dell Precision 410 workstations
//! (600 MHz Pentium III) connected by 100 Mb/s switched Ethernet. This
//! crate is that testbed as a model:
//!
//! - [`engine`]: the event loop, [`Node`] trait and [`Context`] API —
//!   nodes are serial processors whose handlers charge CPU time, so CPU
//!   saturation (the bottleneck in half the paper's figures) is emergent;
//! - [`network`]: full-duplex links with finite bandwidth, a switch with
//!   hardware multicast, frame overheads/fragmentation, finite receive
//!   buffers, and fault injection (loss, partitions, delay);
//! - [`chaos`]: deterministic, seed-replayable fault schedules
//!   ([`FaultPlan`]) — timed partitions/heals, loss, delay spikes,
//!   reordering jitter, duplication, crashes/restarts and Byzantine
//!   mutations — with a generator and a shrinking minimizer for fuzzing;
//! - [`cost`]: the CPU cost model (MD5, UMAC, UDP stack, RSA) calibrated
//!   to the paper's hardware;
//! - [`metrics`]: log-bucketed latency histograms the experiment
//!   harness reads, plus a by-name view of the counter registry;
//! - [`health`]: observer-only cluster health — per-replica
//!   [`HealthSnapshot`]s diffed into a [`HealthReport`], and the
//!   simulation's one counter registry, [`Counters`] (messages by wire
//!   tag, one typed [`Counter`] per event), threaded through
//!   [`Context`];
//! - [`trace`]: structured span tracing — bounded per-node event rings,
//!   a per-request latency-breakdown assembler (the `suite` binary's
//!   family-3 rows), a Chrome-trace exporter (validated and written by
//!   `bft-bench`'s `breakdown` test), and the chaos flight recorder;
//! - [`time`]: the nanosecond simulated clock.
//!
//! Everything is deterministic: a run is a pure function of the seed, the
//! configuration, and the node implementations.

pub mod chaos;
pub mod cost;
pub mod engine;
pub mod health;
pub mod metrics;
pub mod network;
pub mod time;
pub mod trace;

pub use chaos::{
    ByzMode, ChaosConfig, ClientFault, Fault, FaultEvent, FaultPlan, NetFault, NodeFault,
};
pub use cost::CostModel;
pub use engine::{Context, Node, Simulation, TimerId};
pub use health::{
    tag_name, Counter, Counters, HealthReport, HealthSnapshot, NodeCounters, Role, TAG_COUNT,
};
pub use metrics::{Histogram, Metrics, Summary};
pub use network::{DropReason, NetConfig, NetStats, Network, NodeId};
pub use time::{dur, SimTime};
pub use trace::{CostKind, SpanEdge, TraceEvent, TraceMeta, TracePhase, TraceSink};
