//! Protocol configuration: group size, windows, and the optimization
//! toggles the paper ablates in Section 4.4.

use crate::log::MAX_REPLICAS;
use crate::types::Quorums;
use bft_sim::cost::CostModel;
use bft_sim::time::dur;

/// The five normal-case optimizations from Section 3.1, plus piggybacked
/// commits. Each benchmark figure toggles exactly one of these.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Optimizations {
    /// *Digest replies*: only the designated replica sends the full result;
    /// the others send its digest.
    pub digest_replies: bool,
    /// *Tentative execution*: execute once prepared (4 message delays);
    /// clients wait for `2f+1` matching tentative replies.
    pub tentative_execution: bool,
    /// *Read-only operations*: single round trip for side-effect-free ops.
    pub read_only: bool,
    /// *Request batching*: order a batch per protocol instance, with a
    /// sliding window of concurrent instances.
    pub batching: bool,
    /// *Separate request transmission*: clients multicast requests larger
    /// than the inline threshold; pre-prepares carry only digests.
    pub separate_request_transmission: bool,
    /// *Piggybacked commits*: commit announcements ride on the next
    /// pre-prepare/prepare instead of separate messages. Off by default —
    /// the paper notes this one was not part of the released library.
    pub piggyback_commits: bool,
}

impl Optimizations {
    /// Everything the released BFT library shipped with (all but
    /// piggybacked commits).
    pub const LIBRARY: Optimizations = Optimizations {
        digest_replies: true,
        tentative_execution: true,
        read_only: true,
        batching: true,
        separate_request_transmission: true,
        piggyback_commits: false,
    };

    /// No optimizations: the base three-phase protocol.
    pub const NONE: Optimizations = Optimizations {
        digest_replies: false,
        tentative_execution: false,
        read_only: false,
        batching: false,
        separate_request_transmission: false,
        piggyback_commits: false,
    };

    /// All optimizations including piggybacked commits.
    pub const ALL: Optimizations = Optimizations {
        piggyback_commits: true,
        ..Optimizations::LIBRARY
    };
}

impl Default for Optimizations {
    fn default() -> Self {
        Optimizations::LIBRARY
    }
}

/// Full protocol configuration shared by replicas and clients.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
pub struct Config {
    /// Group size and fault threshold.
    pub quorums: Quorums,
    /// Checkpoint period `K`: a checkpoint every `K` sequence numbers.
    pub checkpoint_interval: u64,
    /// Log window `L`: the high water mark is `h + L`. Must be a multiple
    /// of `checkpoint_interval` and at least twice it.
    pub log_window: u64,
    /// Sliding window `W` of concurrently ordered batches (Section 3.1).
    pub batch_window: u64,
    /// Upper bound on the summed size of requests in one batch.
    pub max_batch_bytes: usize,
    /// Upper bound on requests per batch.
    pub max_batch_requests: usize,
    /// Requests whose operation exceeds this many bytes are not inlined in
    /// pre-prepares when separate request transmission is on (255 B in the
    /// paper).
    pub inline_threshold: usize,
    /// Optimization toggles.
    pub opts: Optimizations,
    /// *Incremental checkpoints*: charge checkpoint digests for only the
    /// partitions dirtied since the previous checkpoint (the paper's
    /// incremental hierarchical state digests). When off, every
    /// checkpoint is charged as if all partitions were re-hashed —
    /// protocol behaviour is identical, only the simulated CPU cost
    /// changes.
    pub incremental_checkpoints: bool,
    /// *Optimistic fast path*: a slot commits in two rounds when every
    /// replica's prepare vote arrives (a fast quorum,
    /// [`Quorums::fast_quorum`]), skipping the commit phase entirely.
    /// Each slot falls back to the classic three-phase path on timeout,
    /// conflicting votes, or a peer's explicit COMMIT. Off by default:
    /// the classic path is the paper's protocol.
    pub fast_path: bool,
    /// How long a prepared slot waits for the full fast quorum before
    /// falling back to the classic commit phase. Only meaningful with
    /// [`Config::fast_path`] on.
    pub fast_path_timeout_ns: u64,
    /// CPU cost model for all principals.
    pub cost: CostModel,
    /// Backup timer: how long a request may stay un-executed before the
    /// backup suspects the primary and starts a view change.
    pub view_change_timeout_ns: u64,
    /// Ceiling for the exponential view-change timeout doubling. Without
    /// a cap, a long partition doubles the timeout unboundedly and the
    /// healed group waits minutes before re-electing; with one, the first
    /// election after a heal starts within this bound.
    pub view_change_timeout_max_ns: u64,
    /// Client retransmission timeout.
    pub client_retry_timeout_ns: u64,
    /// Ceiling for the client's retransmission backoff (the base timeout
    /// scaled by observed latency and doubled per retry). Without a cap,
    /// a few pathologically slow operations — e.g. ops that each limp
    /// through a view-change cycle — poison the latency estimate and the
    /// next retransmission waits out minutes, long after the cluster
    /// recovered; with one, a healed cluster hears from the client again
    /// within this bound.
    pub client_retry_timeout_max_ns: u64,
    /// Period of the replica's retransmission sweep over stalled slots.
    pub resend_interval_ns: u64,
    /// How long pending piggybacked commits may wait for a carrier message
    /// before being flushed as explicit commits.
    pub piggyback_flush_ns: u64,
    /// Period of session-key refresh (NEW-KEY announcements); 0 disables.
    pub key_refresh_interval_ns: u64,
    /// Period of proactive recovery per replica (staggered by replica id);
    /// 0 disables. See Section 2 of the paper: proactive recovery bounds
    /// the window of vulnerability.
    pub proactive_recovery_interval_ns: u64,
    /// How long peers reserve the single in-recovery slot for a replica
    /// that announced RECOVER. A watchdog that fires while another
    /// replica's lease is live defers, so staggered recoveries never
    /// overlap even when timers drift together.
    pub recovery_lease_ns: u64,
    /// *Read leases* (arXiv:2107.11144): the primary grants backups
    /// time-bounded read leases and fences writes against them, so
    /// read-only requests stay one round trip — and linearizable — even
    /// under concurrent writes, instead of falling back to the ordered
    /// read-write path. Off by default: the paper's read-only
    /// optimization alone retries conflicted reads as read-write.
    pub read_leases: bool,
    /// Read-lease validity window, measured from receipt at each holder.
    /// The primary renews at half this period while reads are being
    /// served. Only meaningful with [`Config::read_leases`] on.
    pub read_lease_ns: u64,
    /// *Admission control*: per-client in-flight quotas and depth caps
    /// on every request-holding queue in the replica; over-limit
    /// requests are shed with a BUSY pushback instead of growing the
    /// backlog without bound. Off by default: the paper's protocol has
    /// no overload armor.
    pub admission_control: bool,
    /// Per-client cap on requests a replica will hold concurrently
    /// (batched plus pending) when admission control is on.
    pub admission_client_quota: usize,
    /// Total ingest-backlog cap (pending batch + pending requests) per
    /// replica when admission control is on; beyond it every new
    /// request is shed regardless of sender.
    pub admission_queue_cap: usize,
    /// Backoff hint carried in BUSY pushback messages: how long the
    /// shedding replica asks the client to wait before retrying.
    pub busy_retry_after_ns: u64,
    /// Retry allowance before the client flags an operation as starved
    /// (each BUSY received extends the allowance by one, so backing
    /// off under pushback is never itself counted as starvation).
    /// 0 disables the budget.
    pub client_retry_budget: u32,
}

impl Config {
    /// The paper's default configuration for a group tolerating `f`
    /// faults.
    pub fn new(f: u32) -> Config {
        Config {
            quorums: Quorums::minimal(f),
            checkpoint_interval: 128,
            log_window: 256,
            batch_window: 2,
            max_batch_bytes: 8 * 1024,
            max_batch_requests: 64,
            inline_threshold: 255,
            opts: Optimizations::LIBRARY,
            incremental_checkpoints: true,
            fast_path: false,
            fast_path_timeout_ns: dur::millis(1),
            cost: CostModel::PIII_600,
            view_change_timeout_ns: dur::millis(2_000),
            view_change_timeout_max_ns: dur::millis(16_000),
            client_retry_timeout_ns: dur::millis(250),
            client_retry_timeout_max_ns: dur::secs(5),
            resend_interval_ns: dur::millis(100),
            piggyback_flush_ns: dur::micros(500),
            key_refresh_interval_ns: 0,
            proactive_recovery_interval_ns: 0,
            recovery_lease_ns: dur::millis(300),
            read_leases: false,
            read_lease_ns: dur::millis(100),
            admission_control: false,
            admission_client_quota: 16,
            admission_queue_cap: 4_096,
            busy_retry_after_ns: dur::millis(5),
            client_retry_budget: 0,
        }
    }

    /// Returns the configuration with different optimization toggles.
    pub fn with_opts(mut self, opts: Optimizations) -> Config {
        self.opts = opts;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the group is larger than a slot's vote table holds
    /// ([`MAX_REPLICAS`]), the log window is not a multiple of (or is too
    /// small relative to) the checkpoint interval, or limits are zero.
    pub fn validate(&self) {
        assert!(
            self.quorums.n <= MAX_REPLICAS,
            "group of {} replicas exceeds the vote table's {MAX_REPLICAS}",
            self.quorums.n
        );
        assert!(self.checkpoint_interval > 0);
        assert!(
            self.log_window >= 2 * self.checkpoint_interval,
            "log window must cover at least two checkpoint periods"
        );
        assert_eq!(
            self.log_window % self.checkpoint_interval,
            0,
            "log window must be a multiple of the checkpoint interval"
        );
        assert!(self.batch_window >= 1);
        assert!(self.max_batch_requests >= 1);
        assert!(self.max_batch_bytes >= 1);
        assert!(
            self.view_change_timeout_max_ns >= self.view_change_timeout_ns,
            "view-change timeout cap must be at least the base timeout"
        );
        assert!(
            self.client_retry_timeout_max_ns >= self.client_retry_timeout_ns,
            "client retry cap must be at least the base timeout"
        );
        if self.fast_path {
            assert!(
                self.fast_path_timeout_ns > 0,
                "fast-path fallback timeout must be positive"
            );
        }
        if self.read_leases {
            assert!(
                self.read_lease_ns > 0,
                "read-lease duration must be positive"
            );
            assert!(
                self.opts.read_only,
                "read leases require the read-only optimization"
            );
            // The grant-evidence window (2 × duration) plus the lease
            // duration itself must fit inside the view-change timeout:
            // a primary partitioned from the group must stop granting
            // (and its last leases expire) before the group can have
            // re-elected and started ordering writes the stranded
            // holders never saw.
            assert!(
                3 * self.read_lease_ns <= self.view_change_timeout_ns,
                "read-lease duration too long: 3x must fit in the view-change timeout"
            );
        }
        if self.admission_control {
            assert!(
                self.admission_client_quota >= 1,
                "admission client quota must admit at least one request"
            );
            assert!(
                self.admission_queue_cap >= self.admission_client_quota,
                "admission queue cap must cover at least one client quota"
            );
            assert!(
                self.busy_retry_after_ns > 0,
                "busy retry-after hint must be positive"
            );
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> u32 {
        self.quorums.n
    }

    /// Fault threshold.
    pub fn f(&self) -> u32 {
        self.quorums.f
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        Config::default().validate();
        Config::new(2).validate();
    }

    #[test]
    fn the_largest_group_a_vote_table_holds_is_valid() {
        let c = Config {
            quorums: Quorums::new(MAX_REPLICAS, 5),
            ..Config::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "exceeds the vote table")]
    fn oversized_group_rejected() {
        let c = Config {
            quorums: Quorums::new(MAX_REPLICAS + 1, 5),
            ..Config::default()
        };
        c.validate();
    }

    #[test]
    fn library_opts_match_paper() {
        let o = Optimizations::LIBRARY;
        assert!(o.digest_replies && o.tentative_execution && o.read_only);
        assert!(o.batching && o.separate_request_transmission);
        assert!(!o.piggyback_commits, "not part of the released library");
    }

    #[test]
    #[should_panic(expected = "log window")]
    fn bad_window_rejected() {
        let c = Config {
            log_window: 100,
            ..Config::default()
        };
        c.validate();
    }

    #[test]
    fn with_opts_replaces_toggles() {
        let c = Config::default().with_opts(Optimizations::NONE);
        assert!(!c.opts.batching);
    }

    #[test]
    #[should_panic(expected = "read-lease duration")]
    fn zero_lease_duration_rejected() {
        let c = Config {
            read_leases: true,
            read_lease_ns: 0,
            ..Config::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "read-only optimization")]
    fn leases_without_read_only_rejected() {
        let c = Config {
            read_leases: true,
            ..Config::default().with_opts(Optimizations::NONE)
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "duration too long")]
    fn oversized_lease_duration_rejected() {
        let c = Config {
            read_leases: true,
            read_lease_ns: dur::millis(1_000),
            ..Config::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "admission client quota")]
    fn zero_admission_quota_rejected() {
        let c = Config {
            admission_control: true,
            admission_client_quota: 0,
            ..Config::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "admission queue cap")]
    fn undersized_admission_cap_rejected() {
        let c = Config {
            admission_control: true,
            admission_client_quota: 32,
            admission_queue_cap: 8,
            ..Config::default()
        };
        c.validate();
    }

    #[test]
    fn admission_defaults_are_valid_when_armed() {
        let c = Config {
            admission_control: true,
            client_retry_budget: 50,
            ..Config::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "timeout cap")]
    fn bad_timeout_cap_rejected() {
        let c = Config {
            view_change_timeout_max_ns: 1,
            ..Config::default()
        };
        c.validate();
    }
}
