//! Wall-clock micro-timings of each layer's public functions, and the
//! single-node baseline. Run once per traced invocation; every value is
//! the median of [`BATCHES`] batches.

use crate::drivers::{Gate, Recorded};
use crate::stats::{median, percentile};
use bft_core::checkpoint::CheckpointTracker;
use bft_core::cluster::{derive_seed, Cluster};
use bft_core::config::Config;
use bft_core::log::Log;
use bft_core::messages::{
    batch_digest, AuthTag, BatchEntry, Checkpoint, Commit, Msg, Packet, PrePrepare, Prepare, Reply,
    ReplyBody, Request,
};
use bft_core::service::Service;
use bft_core::types::Quorums;
use bft_core::wire::Wire;
use bft_crypto::keychain::KeyChain;
use bft_crypto::merkle::MerkleTree;
use bft_crypto::umac::MacKey;
use bft_fs::disk::ServerMode;
use bft_fs::ops::{NfsOp, ROOT_FH};
use bft_fs::service::FsService;
use bft_fs::state::FS_PARTITIONS;
use bft_sim::{Context, CostModel, NetConfig, Node, NodeId, Simulation};
use bft_workloads::direct::{DirectApi, DirectClient, DirectDriver, DirectMsg, DirectServer};
use bft_workloads::script::run_script_locally;
use bft_workloads::{postmark_script, simple_op, MicroDriver, PostmarkConfig, SimpleService};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Batches per timing (the reported value is their median).
const BATCHES: usize = 11;
/// A batch of a nanosecond-scale call runs for about this long.
const BATCH_TARGET: Duration = Duration::from_micros(300);

/// Median nanoseconds per call of `f`, timing whole batches of calls.
fn tight<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut run = |iters: u64| {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        t.elapsed()
    };
    let mut iters = 8;
    while run(iters) < BATCH_TARGET {
        iters *= 2;
    }
    let per_call = (0..BATCHES)
        .map(|_| run(iters).as_nanos() as f64 / iters as f64)
        .collect();
    median(per_call)
}

/// Median nanoseconds per call of `f`, where `f` stages its own input
/// and returns how long the part that counts took; for calls long enough
/// that one clock pair per call does not matter.
fn each(calls: u32, mut f: impl FnMut() -> Duration) -> f64 {
    let per_call = (0..BATCHES)
        .map(|_| {
            let total: Duration = (0..calls).map(|_| f()).sum();
            total.as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    median(per_call)
}

fn crypto(out: &mut Vec<(String, f64)>) {
    for size in [64usize, 4096] {
        let data = vec![0xa5u8; size];
        let ns = tight(|| bft_crypto::digest(black_box(&data)));
        out.push((format!("crypto.md5_ns_{size}"), ns));
    }
    let key = MacKey::from_bytes([7; 16]);
    let digest = *bft_crypto::digest(b"message").as_bytes();
    let mut nonce = 0;
    let ns = tight(|| {
        nonce += 1;
        key.mac(black_box(&digest), nonce)
    });
    out.push(("crypto.umac_ns_16".into(), ns));
    for n in [4u32, 7] {
        let mut sender = KeyChain::new(0, n);
        let mut receiver = KeyChain::new(1, n);
        let ns = tight(|| sender.authenticate(black_box(&digest)));
        out.push((format!("crypto.auth_gen_ns_n{n}"), ns));
        let auth = sender.authenticate(&digest);
        assert!(receiver.verify_authenticator(0, &digest, &auth));
        let ns = tight(|| receiver.verify_authenticator(0, black_box(&digest), &auth));
        out.push((format!("crypto.auth_verify_ns_n{n}"), ns));
    }
    // The checkpoint tree's shape: one leaf per file-system partition
    // plus the reply-cache leaf.
    let leaves = (0..=FS_PARTITIONS)
        .map(|i| bft_crypto::digest(&i.to_le_bytes()))
        .collect();
    let mut tree = MerkleTree::new(leaves);
    let mut i = 0usize;
    let ns = tight(|| {
        i = (i + 7) % (FS_PARTITIONS as usize + 1);
        tree.update(i, bft_crypto::digest(&i.to_le_bytes()))
    });
    out.push(("crypto.merkle_update_ns".into(), ns));
}

fn request(arg_bytes: usize) -> Request {
    let mut client = KeyChain::new(7, 4);
    let req = Request {
        client: 7,
        timestamp: 3,
        op: simple_op(arg_bytes, 0, false),
        read_only: false,
        replier: 1,
        auth: AuthTag::None,
    };
    let auth = AuthTag::Vector(client.authenticate(req.digest().as_bytes()));
    Request { auth, ..req }
}

fn reply(result_bytes: usize) -> Msg {
    Msg::Reply(Reply {
        view: 0,
        timestamp: 3,
        client: 7,
        replica: 1,
        tentative: true,
        body: ReplyBody::Full(vec![0; result_bytes]),
    })
}

fn codec(out: &mut Vec<(String, f64)>) {
    let digest = bft_crypto::digest(b"batch");
    let entries: Vec<BatchEntry> = (0..8)
        .map(|i| {
            BatchEntry::Full(Request {
                timestamp: i,
                ..request(0)
            })
        })
        .collect();
    let variants = [
        ("request-0", Msg::Request(request(0))),
        ("request-4096", Msg::Request(request(4096))),
        (
            "pre-prepare-b8",
            Msg::PrePrepare(PrePrepare {
                view: 0,
                seq: 42,
                batch_digest: batch_digest(&entries),
                entries,
                piggy_commits: Vec::new(),
            }),
        ),
        (
            "prepare",
            Msg::Prepare(Prepare {
                view: 0,
                seq: 42,
                batch_digest: digest,
                replica: 1,
                piggy_commits: Vec::new(),
            }),
        ),
        (
            "commit",
            Msg::Commit(Commit {
                view: 0,
                seq: 42,
                batch_digest: digest,
                replica: 1,
            }),
        ),
        ("reply-0", reply(0)),
        ("reply-4096", reply(4096)),
        (
            "checkpoint",
            Msg::Checkpoint(Checkpoint {
                seq: 128,
                state_digest: digest,
                replica: 1,
            }),
        ),
    ];
    for (name, msg) in &variants {
        let ns = tight(|| black_box(msg).to_bytes());
        out.push((format!("codec.encode_ns.{name}"), ns));
        let bytes = msg.to_bytes();
        let ns = tight(|| Msg::from_bytes(black_box(&bytes)).expect("decodes"));
        out.push((format!("codec.decode_ns.{name}"), ns));
    }
    let packet = Packet::unauthenticated(Msg::Request(request(4096)));
    let ns = tight(|| black_box(&packet).clone());
    out.push(("codec.clone_ns.request-4096".into(), ns));
    let ns = tight(|| black_box(&packet).body_digest());
    out.push(("codec.packet_digest_ns.request-4096".into(), ns));
}

fn log(out: &mut Vec<(String, f64)>) {
    const WINDOW: u64 = 256;
    let q = Quorums::minimal(1);
    let digest = bft_crypto::digest(b"batch");
    let filled = |slots: u64| {
        let mut log = Log::new(WINDOW);
        for seq in 1..=slots {
            let slot = log.slot_mut(seq);
            slot.digest = Some(digest);
            for r in 1..4 {
                slot.prepares.insert(r, digest);
                slot.commits.insert(r, digest);
            }
        }
        log
    };
    // One vote: find the slot, record the vote, re-evaluate the
    // predicate — alternately a prepare and a commit.
    let mut log = filled(WINDOW);
    let mut i = 0u64;
    let ns = tight(|| {
        i += 1;
        let slot = log.slot_mut(1 + i % WINDOW);
        let replica = (i % 3) as u32 + 1;
        if i.is_multiple_of(2) {
            slot.prepares.insert(replica, digest);
            slot.prepared(&q)
        } else {
            slot.commits.insert(replica, digest);
            slot.committed(&q)
        }
    });
    out.push(("log.vote_insert_ns".into(), ns));
    // Garbage collection at a stable checkpoint: half the window goes.
    let ns = each(8, || {
        let mut log = filled(WINDOW);
        let t = Instant::now();
        black_box(&mut log).collect_garbage(WINDOW / 2);
        t.elapsed()
    });
    out.push(("log.gc_ns_per_slot".into(), ns / (WINDOW / 2) as f64));
}

fn checkpoint(out: &mut Vec<(String, f64)>) {
    let mut svc = FsService::for_benchmarks(ServerMode::Bfs);
    for i in 0..400 {
        let op = NfsOp::Create {
            dir: ROOT_FH,
            name: format!("f{i}"),
        };
        svc.apply_encoded(&op.to_bytes());
    }
    svc.commit_prefix(usize::MAX);
    let cache = vec![0x5au8; 1024];
    let mut tracker = CheckpointTracker::new(&svc, &cache);
    tracker.refresh(&mut svc, &cache);
    let ns = tight(|| tracker.refresh(&mut svc, &cache).root);
    out.push(("checkpoint.refresh_ns_clean".into(), ns));
    // File handles are handed out in order, so eight consecutive files
    // live in eight different partitions of the 64 — here partitions
    // 0..8, because every mutation dirties partition 0 (the metadata)
    // whichever file it touches.
    let writes: Vec<Vec<u8>> = (64..72)
        .map(|fh| {
            let op = NfsOp::Write {
                fh,
                offset: 0,
                data: vec![7; 1024],
            };
            op.to_bytes()
        })
        .collect();
    let ns = each(16, || {
        for w in &writes {
            svc.apply_encoded(w);
        }
        svc.commit_prefix(usize::MAX);
        let t = Instant::now();
        let stats = black_box(tracker.refresh(&mut svc, &cache));
        let took = t.elapsed();
        assert_eq!(stats.dirty_parts, 8, "eight writes dirty eight partitions");
        took
    });
    out.push(("checkpoint.refresh_ns_dirty8".into(), ns));
}

/// A node that sends back whatever it gets: with two of them the engine
/// does nothing but push, pop and dispatch.
struct Echo;

impl Node<u32> for Echo {
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32, _bytes: usize) {
        ctx.send(from, msg, 8);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn engine(out: &mut Vec<(String, f64)>) {
    let mut sim: Simulation<u32> = Simulation::new(1, NetConfig::SWITCHED_100MBPS);
    let a = sim.add_node(Box::new(Echo));
    let b = sim.add_node(Box::new(Echo));
    sim.inject(a, b, 0, 8);
    let ns = tight(|| sim.step());
    out.push(("engine.empty_step_ns".into(), ns));
}

fn fs(seed: u64, out: &mut Vec<(String, f64)>) {
    let script = postmark_script(PostmarkConfig {
        transactions: 1_000,
        seed: derive_seed(seed, 1000),
        ..PostmarkConfig::default()
    });
    let (mut rpcs, mut marks) = (0, 0);
    let script_ns = each(1, || {
        let script = script.clone();
        let t = Instant::now();
        let runner = run_script_locally(script);
        let took = t.elapsed();
        assert_eq!(runner.failed, 0, "PostMark actions failed locally");
        (rpcs, marks) = (runner.stats().rpcs, runner.marks);
        took
    });
    out.push(("fs.apply_wall_ns_per_rpc".into(), script_ns / rpcs as f64));
    out.push(("fs.rpcs_per_txn".into(), rpcs as f64 / marks as f64));
}

/// Closed-loop 0/0 client of the unreplicated server, keeping exact
/// latencies.
struct NorepDriver {
    latencies_ns: Vec<u64>,
}

impl DirectDriver for NorepDriver {
    fn on_start(&mut self, api: &mut DirectApi<'_, '_>) {
        api.submit(simple_op(0, 0, false));
    }
    fn on_complete(&mut self, api: &mut DirectApi<'_, '_>, _result: &[u8], latency_ns: u64) {
        self.latencies_ns.push(latency_ns);
        api.submit(simple_op(0, 0, false));
    }
}

/// The paper's headline ratio: one 0/0 client against one unreplicated
/// server, and against the replicated service.
fn baseline(seed: u64, out: &mut Vec<(String, f64)>) {
    const NOREP_OPS: usize = 50_000;
    const BFT_OPS: u64 = 5_000;
    let mut sim: Simulation<DirectMsg> =
        Simulation::new(derive_seed(seed, 0), NetConfig::SWITCHED_100MBPS);
    let server = sim.add_node(Box::new(DirectServer::new(
        SimpleService,
        CostModel::PIII_600,
    )));
    let client = sim.add_node(Box::new(DirectClient::new(
        server,
        CostModel::PIII_600,
        NorepDriver {
            latencies_ns: Vec::new(),
        },
    )));
    let done = |sim: &Simulation<DirectMsg>| {
        let c = sim.node_as::<DirectClient<NorepDriver>>(client);
        c.driver().latencies_ns.len()
    };
    let t = Instant::now();
    while done(&sim) < NOREP_OPS && sim.step() {}
    let wall_s = t.elapsed().as_secs_f64();
    let mut norep = sim
        .node_as::<DirectClient<NorepDriver>>(client)
        .driver()
        .latencies_ns
        .clone();
    norep.sort_unstable();
    let norep_p50 = percentile(&norep, 0.50) as f64 / 1e3;
    out.push(("norep.sim_latency_p50_us".into(), norep_p50));
    out.push(("norep.wall_ops_per_s".into(), NOREP_OPS as f64 / wall_s));

    let mut cluster = Cluster::builder(Config::new(1))
        .seed(derive_seed(seed, 0))
        .net(NetConfig::SWITCHED_100MBPS)
        .build(|_| SimpleService);
    let id = cluster.add_client(Recorded::new(
        MicroDriver::new(0, 0, false).with_max_ops(BFT_OPS),
        Gate::Len(0),
        |_| {},
    ));
    while cluster.completed_ops() < BFT_OPS && cluster.sim.step() {}
    let mut bft = cluster
        .client::<Recorded<MicroDriver>>(id)
        .driver()
        .rec
        .latencies_ns
        .clone();
    bft.sort_unstable();
    let bft_p50 = percentile(&bft, 0.50) as f64 / 1e3;
    out.push(("overhead.sim_latency_x".into(), bft_p50 / norep_p50));
}

/// Every micro-timing and the baseline, by metric name.
pub fn measure(seed: u64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    crypto(&mut out);
    codec(&mut out);
    log(&mut out);
    checkpoint(&mut out);
    engine(&mut out);
    fs(seed, &mut out);
    baseline(seed, &mut out);
    out
}
