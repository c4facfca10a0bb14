#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Workloads and experiment drivers for the DSN 2001 evaluation.
//!
//! - [`micro`]: the paper's "simple service" micro-benchmark (zero-filled
//!   arguments/results, no computation) and its closed-loop client;
//! - [`direct`]: the NO-REP baseline — an unreplicated server over plain
//!   datagrams with no retransmission;
//! - [`script`]: workload scripts and the runner that feeds them through
//!   the kernel-NFS-client cache model;
//! - [`andrew`]: the scaled Andrew benchmark (Andrew100 / Andrew500);
//! - [`postmark`]: the PostMark benchmark;
//! - [`fsdriver`]: script drivers for BFS and the unreplicated baselines;
//! - [`harness`]: ready-made latency/throughput/workload experiment
//!   runners used by the benches and shape tests;
//! - [`mix`]: read/write-mix clients for the read-lease experiments,
//!   with per-kind latency collection;
//! - [`flood`]: the open-loop paced driver for the overload
//!   degradation-curve experiments.

pub mod andrew;
pub mod direct;
pub mod flood;
pub mod fsdriver;
pub mod harness;
pub mod micro;
pub mod mix;
pub mod postmark;
pub mod script;

pub use andrew::{andrew_script, AndrewTimings};
pub use direct::{DirectClient, DirectDriver, DirectMicroDriver, DirectMsg, DirectServer};
pub use flood::FloodDriver;
pub use fsdriver::{BfsScriptDriver, DirectScriptDriver};
pub use harness::{
    bft_latency, bft_throughput, norep_latency, norep_throughput, run_bfs, run_direct_fs, FsRun,
    OpShape, Throughput,
};
pub use micro::{simple_op, MicroDriver, SimpleService};
pub use mix::{read_mix_run, MixStats, ReadMixDriver};
pub use postmark::{postmark_script, PostmarkConfig};
pub use script::{Drive, Script, ScriptRunner, WorkItem};
