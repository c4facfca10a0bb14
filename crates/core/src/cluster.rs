//! Convenience harness assembling a simulated BFT cluster: `n` replicas
//! followed by any number of clients, with node ids equal to principal
//! ids. Used by the test suite, the examples, and the benchmark drivers.

use crate::client::{Client, ClientBehavior, ClientDriver};
use crate::config::Config;
use crate::invariants::{InvariantChecker, Violation};
use crate::messages::{Msg, Packet, Request};
use crate::replica::{Behavior, Replica};
use crate::service::{CounterService, Service};
use crate::types::ClientId;
use bft_crypto::digest_helper::{DigestHelper, HelperCounts, HelperStats};
use bft_sim::chaos::{ByzMode, ClientFault, Fault, FaultPlan, NodeFault};
use bft_sim::{Counter, HealthReport, HealthSnapshot, NetConfig, NodeId, Simulation};

/// Mixes an index into a base seed (splitmix64), giving well-separated
/// per-run seeds for fuzz loops and multi-cluster tests.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fluent construction of a [`Cluster`], so fuzz loops and directed tests
/// share one path instead of duplicating seed/net plumbing.
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    seed: u64,
    net: NetConfig,
    cfg: Config,
    trace_capacity: usize,
}

impl ClusterBuilder {
    /// Starts a builder for the given protocol configuration, with seed 0,
    /// the lossless network model, and tracing disabled.
    pub fn new(cfg: Config) -> ClusterBuilder {
        ClusterBuilder {
            seed: 0,
            net: NetConfig::LOSSLESS_100MBPS,
            cfg,
            trace_capacity: 0,
        }
    }

    /// Sets the simulation RNG seed.
    pub fn seed(mut self, seed: u64) -> ClusterBuilder {
        self.seed = seed;
        self
    }

    /// Sets the network model.
    pub fn net(mut self, net: NetConfig) -> ClusterBuilder {
        self.net = net;
        self
    }

    /// Enables trace-event recording with the given per-node ring
    /// capacity (0 = disabled). Tracing never changes simulation
    /// behaviour — a traced run is event-for-event identical to an
    /// untraced one — so the fuzz flight recorder can re-run a failing
    /// seed with tracing on and capture exactly the failing execution.
    pub fn trace_capacity(mut self, capacity: usize) -> ClusterBuilder {
        self.trace_capacity = capacity;
        self
    }

    /// The seed this builder will use (for replay reporting).
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// Builds the cluster, constructing each replica's service with
    /// `make_service`.
    pub fn build<S, F>(self, make_service: F) -> Cluster
    where
        S: Service,
        F: FnMut(u32) -> S,
    {
        let mut cluster = Cluster::new(self.seed, self.net, self.cfg, make_service);
        if self.trace_capacity > 0 {
            cluster.sim.trace_mut().set_capacity(self.trace_capacity);
        }
        cluster
    }

    /// Builds a cluster of default counter services (the chaos workload).
    pub fn build_counter(self) -> Cluster {
        self.build(|_| CounterService::default())
    }
}

/// A simulated BFT cluster under construction / test.
pub struct Cluster {
    /// The underlying simulation.
    pub sim: Simulation<Packet>,
    /// The shared configuration.
    pub cfg: Config,
    /// Node ids of the replicas (always `0..n`).
    pub replicas: Vec<NodeId>,
    /// Node ids of the clients (in registration order).
    pub clients: Vec<NodeId>,
    /// The counts of the digest helper installed in `sim`.
    digests: HelperStats,
}

impl Cluster {
    /// Creates a cluster with `n` replicas, each running a service built
    /// by `make_service`.
    pub fn new<S, F>(seed: u64, net: NetConfig, cfg: Config, mut make_service: F) -> Cluster
    where
        S: Service,
        F: FnMut(u32) -> S,
    {
        cfg.validate();
        let mut sim = Simulation::new(seed, net);
        // Large request and result digests start on a second core while
        // each copy waits in the queue; the receiver claims them.
        let mut helper = DigestHelper::new();
        let digests = helper.stats();
        sim.set_delivery_seam(move |packet: &mut Packet| packet.start_digest(&mut helper));
        let mut replicas = Vec::with_capacity(cfg.n() as usize);
        for i in 0..cfg.n() {
            let id = sim.add_node(Box::new(Replica::new(i, cfg.clone(), make_service(i))));
            assert_eq!(id, i, "replica node ids must equal replica ids");
            replicas.push(id);
        }
        Cluster {
            sim,
            cfg,
            replicas,
            clients: Vec::new(),
            digests,
        }
    }

    /// What the digest helper has done for this cluster so far. The
    /// counts depend on thread timing, so they are kept apart from the
    /// simulation's deterministic counter registry.
    pub fn digest_helper_counts(&self) -> HelperCounts {
        self.digests.counts()
    }

    /// Adds a client with the given driver; returns its id.
    pub fn add_client<D: ClientDriver>(&mut self, driver: D) -> ClientId {
        let id = self.sim.node_count() as ClientId;
        let node = self
            .sim
            .add_node(Box::new(Client::new(id, self.cfg.clone(), driver)));
        assert_eq!(node, id);
        self.clients.push(id);
        id
    }

    /// Borrows replica `i` downcast to its concrete service type.
    ///
    /// # Panics
    ///
    /// Panics if the service type does not match.
    pub fn replica<S: Service>(&self, i: u32) -> &Replica<S> {
        self.sim.node_as::<Replica<S>>(i)
    }

    /// Mutably borrows replica `i`.
    ///
    /// # Panics
    ///
    /// Panics if the service type does not match.
    pub fn replica_mut<S: Service>(&mut self, i: u32) -> &mut Replica<S> {
        self.sim.node_as_mut::<Replica<S>>(i)
    }

    /// Borrows a client by id.
    ///
    /// # Panics
    ///
    /// Panics if the driver type does not match.
    pub fn client<D: ClientDriver>(&self, id: ClientId) -> &Client<D> {
        self.sim.node_as::<Client<D>>(id)
    }

    /// Mutably borrows a client by id.
    ///
    /// # Panics
    ///
    /// Panics if the driver type does not match.
    pub fn client_mut<D: ClientDriver>(&mut self, id: ClientId) -> &mut Client<D> {
        self.sim.node_as_mut::<Client<D>>(id)
    }

    /// Starts a [`ClusterBuilder`] for `cfg`.
    pub fn builder(cfg: Config) -> ClusterBuilder {
        ClusterBuilder::new(cfg)
    }

    /// An infinite iterator of builders whose seeds are derived from
    /// `base_seed` (via [`derive_seed`]): run `i` of a fuzz loop uses the
    /// `i`-th builder. Report `builder.seed_value()` on failure so the
    /// run can be reconstructed without re-deriving.
    pub fn with_seed_iter(base_seed: u64, cfg: Config) -> impl Iterator<Item = ClusterBuilder> {
        (0u64..).map(move |i| ClusterBuilder::new(cfg.clone()).seed(derive_seed(base_seed, i)))
    }

    /// Runs the simulation for `delta_ns` of simulated time.
    pub fn run_for(&mut self, delta_ns: u64) {
        self.sim.run_for(delta_ns);
    }

    /// Client operations completed since the counters were last reset.
    pub fn completed_ops(&self) -> u64 {
        self.sim.health().total(Counter::OpsCompleted)
    }

    /// Per-replica health snapshots at the current simulated time, in
    /// replica-id order. Observer-only: taking snapshots never changes
    /// the simulation.
    pub fn health_snapshots<S: Service>(&self) -> Vec<HealthSnapshot> {
        let now = self.sim.now().nanos();
        self.replicas
            .iter()
            .map(|&i| self.replica::<S>(i).health_snapshot(now))
            .collect()
    }

    /// A cluster-level [`HealthReport`] diffing the current per-replica
    /// snapshots (laggards, view divergence, wedged nodes).
    pub fn health_report<S: Service>(&self) -> HealthReport {
        HealthReport::from_snapshots(self.health_snapshots::<S>())
    }

    /// Runs for `delta_ns` of simulated time while applying `plan`'s
    /// faults at their scheduled instants (absolute, measured from time
    /// zero) and checking every invariant after every event. The checker
    /// visits every node once on entry (the caller may have reached into
    /// any of them since the last run) and after every fault applied;
    /// after an event it visits the node the event ran on, the only one
    /// that event can have changed.
    ///
    /// `S` and `D` are the cluster's service and client-driver types
    /// (chaos runs use one driver type for all clients). A plan should be
    /// passed to exactly one call; later phases of the same run (e.g. a
    /// post-heal liveness phase) pass [`FaultPlan::empty`] so node faults
    /// are not re-applied.
    pub fn run_with_plan<S: Service, D: ClientDriver>(
        &mut self,
        plan: &FaultPlan,
        delta_ns: u64,
        checker: &mut InvariantChecker,
    ) -> Result<(), Violation> {
        let deadline = self.sim.now().after(delta_ns);
        let mut next_fault = 0;
        checker.nodes_touched();
        loop {
            let next_event = self.sim.next_event_at().filter(|&t| t <= deadline);
            // Apply every fault due before the next event we will step
            // over (nothing happens between events, so applying a fault
            // any time before the first event at/after its instant is
            // exact).
            let fault_horizon = next_event.unwrap_or(deadline).nanos();
            while next_fault < plan.events.len() && plan.events[next_fault].at_ns <= fault_horizon {
                self.apply_fault::<S, D>(&plan.events[next_fault].fault, checker);
                next_fault += 1;
            }
            if next_event.is_none() {
                break;
            }
            self.sim.step();
            checker.observe::<S, D>(self)?;
        }
        // No events remain before the deadline; advance the clock to it.
        self.sim.run_until(deadline);
        Ok(())
    }

    /// Applies one fault of a plan. Faults reach into nodes between
    /// events, so the checker is told to visit every node next.
    pub(crate) fn apply_fault<S: Service, D: ClientDriver>(
        &mut self,
        fault: &Fault,
        checker: &mut InvariantChecker,
    ) {
        checker.nodes_touched();
        match fault {
            Fault::Net(nf) => nf.apply(self.sim.network_mut()),
            Fault::Client { client, fault } => {
                if *client < self.cfg.n() || *client >= self.sim.node_count() as u32 {
                    return;
                }
                let behavior = match fault {
                    ClientFault::Flood { interval_ns } => ClientBehavior::Flood {
                        interval_ns: *interval_ns,
                    },
                    ClientFault::Replay { interval_ns } => ClientBehavior::Replay {
                        interval_ns: *interval_ns,
                    },
                    ClientFault::Malformed { interval_ns } => ClientBehavior::Malformed {
                        interval_ns: *interval_ns,
                    },
                    ClientFault::Restore => ClientBehavior::Correct,
                };
                if *fault == ClientFault::Restore {
                    checker.restore_client(*client);
                } else {
                    // A misbehaving client's ops may never complete;
                    // exempt it from the starvation audit.
                    checker.mark_client_tainted(*client);
                }
                self.client_mut::<D>(*client).set_behavior(behavior);
                // The behavior's pacing timer arms on the client's next
                // event. A flooding client may have nothing scheduled
                // (e.g. parked on a long retransmission backoff), so
                // kick it with a harmless message — clients ignore
                // REQUEST bodies — to bound the arming delay.
                let kick = Packet::unauthenticated(Msg::Request(Request {
                    client: *client,
                    timestamp: 0,
                    op: Vec::new(),
                    read_only: false,
                    replier: 0,
                    auth: crate::messages::AuthTag::None,
                }));
                self.sim.inject(*client, *client, kick, 0);
            }
            Fault::Node { node, fault } => {
                if *node >= self.cfg.n() {
                    return;
                }
                let behavior = match fault {
                    NodeFault::Crash => Behavior::Crashed,
                    NodeFault::Restart => Behavior::Correct,
                    NodeFault::StaleState => Behavior::StaleState,
                    NodeFault::SilentCorruption { salt } => {
                        // Not a behaviour switch: mutate the service state
                        // in place and tell the checker, which suspends
                        // (revocably) this replica's checkpoint-
                        // consistency check until a recovery heals it.
                        let now = self.sim.now().nanos();
                        self.replica_mut::<S>(*node).corrupt_state(*salt);
                        checker.mark_corrupted(*node, now);
                        return;
                    }
                    NodeFault::Byzantine(mode) => {
                        // Byzantine state is arbitrary by definition;
                        // exempt the replica from the safety audit.
                        checker.mark_tainted(*node);
                        match mode {
                            ByzMode::Silent => Behavior::Silent,
                            ByzMode::Equivocate => Behavior::EquivocatingPrimary,
                            ByzMode::WrongResult => Behavior::WrongResult,
                            ByzMode::CorruptAuth => Behavior::CorruptAuth,
                            ByzMode::CorruptStateData => Behavior::CorruptStateData,
                        }
                    }
                };
                self.replica_mut::<S>(*node).set_behavior(behavior);
            }
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("replicas", &self.replicas.len())
            .field("clients", &self.clients.len())
            .field("now", &self.sim.now())
            .finish()
    }
}
