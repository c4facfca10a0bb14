//! Client drivers the benchmark owns: a recording wrapper around the
//! repo's closed-loop drivers, and the open-loop driver of
//! `crash-primary`.

use bft_core::client::{ClientApi, ClientDriver};
use bft_core::cluster::derive_seed;
use bft_core::service::CounterService;

/// What a correct result looks like to the client that receives it.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// Every result has exactly this many bytes (simple service).
    Len(usize),
    /// Results are counter values that never decrease: adds return the
    /// new value and gets the current one, and the counter only grows,
    /// so one client must see a monotone sequence.
    Monotone,
    /// The driver underneath judges results itself (script runner).
    Unchecked,
}

/// Judges the results one client receives and keeps the latency samples
/// of its measured operations.
#[derive(Debug)]
pub struct Recorder {
    gate: Gate,
    last_value: u64,
    window_open: bool,
    /// Latency of every measured operation, window and drain (ns).
    pub latencies_ns: Vec<u64>,
    /// Measured operations that completed while the window was open.
    pub window_ops: u64,
    /// Results that failed the gate.
    pub wrong: u64,
}

impl Recorder {
    fn new(gate: Gate) -> Recorder {
        Recorder {
            gate,
            last_value: 0,
            window_open: false,
            latencies_ns: Vec::new(),
            window_ops: 0,
            wrong: 0,
        }
    }

    /// Opens the window: forgets the warm-up's samples (the gate's memory
    /// stays — a counter must not go backwards across the boundary).
    pub fn open(&mut self) {
        self.latencies_ns.clear();
        self.window_ops = 0;
        self.window_open = true;
    }

    /// Closes the window; later completions are drain.
    pub fn close(&mut self) {
        self.window_open = false;
    }

    fn judge(&mut self, result: &[u8]) {
        let ok = match self.gate {
            Gate::Len(n) => result.len() == n,
            Gate::Monotone => match <[u8; 8]>::try_from(result) {
                Ok(bytes) => {
                    let v = u64::from_le_bytes(bytes);
                    let ok = v >= self.last_value;
                    self.last_value = self.last_value.max(v);
                    ok
                }
                Err(_) => false,
            },
            Gate::Unchecked => true,
        };
        self.wrong += u64::from(!ok);
    }

    fn sample(&mut self, latency_ns: u64) {
        self.latencies_ns.push(latency_ns);
        self.window_ops += u64::from(self.window_open);
    }
}

/// A closed-loop driver of the repo plus a [`Recorder`].
#[derive(Debug)]
pub struct Recorded<D> {
    /// The wrapped driver.
    pub inner: D,
    /// What it saw.
    pub rec: Recorder,
    halt: fn(&mut D),
}

impl<D> Recorded<D> {
    /// Wraps `inner`, judging its results by `gate`. `halt` makes the
    /// inner driver stop submitting (the repo's drivers each have their
    /// own switch, or run to an end by themselves).
    pub fn new(inner: D, gate: Gate, halt: fn(&mut D)) -> Recorded<D> {
        Recorded {
            inner,
            rec: Recorder::new(gate),
            halt,
        }
    }

    /// Closes the window and stops the inner driver.
    pub fn stop(&mut self) {
        self.rec.close();
        (self.halt)(&mut self.inner);
    }
}

impl<D: ClientDriver> ClientDriver for Recorded<D> {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        self.inner.on_start(api);
    }

    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, result: &[u8], latency_ns: u64) {
        self.rec.judge(result);
        self.rec.sample(latency_ns);
        self.inner.on_complete(api, result, latency_ns);
    }

    fn on_timer(&mut self, api: &mut ClientApi<'_, '_>, token: u64) {
        self.inner.on_timer(api, token);
    }
}

/// Open-loop counter client: operation `k` is *due* at a seed-derived
/// instant of the `k`-th interval after `first_due` — a schedule fixed
/// before the run starts, whatever the cluster then does. (An instant
/// anywhere in the interval, not its start: clients that tick in a fixed
/// phase to each other collide, or not, on every single operation, and
/// the median latency then measures the phases the seed happened to
/// draw.) The
/// protocol client allows one outstanding operation, so operations that
/// come due while one is in flight wait in a queue here, and latency is
/// timed from the due instant — a stall is charged to every operation
/// that was due during it, not only to the one that was in flight.
///
/// Operations `0..warmup_ops` are warm-up and `warmup_ops..total_ops`
/// are measured; after the last one nothing more comes due. Operations
/// are `add 1` except every fourth, which is a `get`; all are ordered.
#[derive(Debug)]
pub struct OpenLoopDriver {
    seed: u64,
    interval_ns: u64,
    first_due_ns: u64,
    warmup_ops: u64,
    total_ops: u64,
    due: u64,
    submitted: u64,
    /// Adds acknowledged, warm-up included.
    pub adds_acked: u64,
    /// How late each measured submission ran behind its due instant (ns).
    pub late_ns: Vec<u64>,
    /// Due instant → accepted reply, per measured operation.
    pub rec: Recorder,
}

impl OpenLoopDriver {
    /// A client whose operation `k` is due within `interval_ns` of
    /// `first_due_ns + k * interval_ns` (absolute simulated time), for
    /// `k < total_ops`.
    pub fn new(
        seed: u64,
        interval_ns: u64,
        first_due_ns: u64,
        warmup_ops: u64,
        total_ops: u64,
    ) -> OpenLoopDriver {
        OpenLoopDriver {
            seed,
            interval_ns,
            first_due_ns,
            warmup_ops,
            total_ops,
            due: 0,
            submitted: 0,
            adds_acked: 0,
            late_ns: Vec::new(),
            rec: Recorder::new(Gate::Monotone),
        }
    }

    fn due_at(&self, k: u64) -> u64 {
        let within = derive_seed(self.seed, k) % self.interval_ns;
        self.first_due_ns + k * self.interval_ns + within
    }

    fn is_get(k: u64) -> bool {
        k % 4 == 3
    }

    /// Operations due but not yet handed to the protocol client.
    pub fn queued(&self) -> u64 {
        self.due - self.submitted
    }

    /// Measured operations that have come due.
    pub fn measured_due(&self) -> u64 {
        self.due.saturating_sub(self.warmup_ops)
    }

    /// The instant each measured operation completed: its due instant
    /// plus the latency sampled for it.
    pub fn completions_ns(&self) -> Vec<u64> {
        let due = (self.warmup_ops..).map(|k| self.due_at(k));
        due.zip(&self.rec.latencies_ns)
            .map(|(d, l)| d + l)
            .collect()
    }

    fn pump(&mut self, api: &mut ClientApi<'_, '_>) {
        if api.busy() || self.submitted == self.due {
            return;
        }
        let k = self.submitted;
        self.submitted += 1;
        if k >= self.warmup_ops {
            let late = api.now().nanos().saturating_sub(self.due_at(k));
            self.late_ns.push(late);
        }
        // Gets are ordered like adds: this driver loads the ordering path
        // through a fail-over. (As read-only requests they would need
        // 2f+1 replicas to answer from the same state, which under 6 000
        // concurrent adds a second they rarely do; `readmix-leases` is
        // the workload for the read path.)
        let op = if Self::is_get(k) {
            CounterService::get_op()
        } else {
            CounterService::add_op(1)
        };
        api.submit(op, false);
    }

    fn arm(&mut self, api: &mut ClientApi<'_, '_>) {
        if self.due < self.total_ops {
            let wait = self.due_at(self.due).saturating_sub(api.now().nanos());
            api.set_timer(wait, 0);
        }
    }
}

impl ClientDriver for OpenLoopDriver {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        self.arm(api);
    }

    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, result: &[u8], _latency_ns: u64) {
        let k = self.submitted - 1;
        self.rec.judge(result);
        if k >= self.warmup_ops {
            let since_due = api.now().nanos().saturating_sub(self.due_at(k));
            self.rec.sample(since_due);
        }
        self.adds_acked += u64::from(!Self::is_get(k));
        // Queued operations still go out after the window has closed:
        // they were due inside it, and only what the drain leaves
        // unfinished counts as failed.
        self.pump(api);
    }

    fn on_timer(&mut self, api: &mut ClientApi<'_, '_>, _token: u64) {
        self.due += 1;
        self.pump(api);
        self.arm(api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_core::cluster::Cluster;
    use bft_core::config::Config;
    use bft_core::replica::Behavior;
    use bft_sim::dur;

    /// Runs one open-loop client at 1 000 ops/s for 400 ms; with
    /// `stall`, every replica is dead from 100 ms to 200 ms.
    fn latencies(stall: bool) -> Vec<u64> {
        let mut cfg = Config::new(1);
        cfg.opts.digest_replies = false;
        cfg.client_retry_timeout_ns = dur::millis(5);
        let mut cluster = Cluster::builder(cfg).seed(3).build_counter();
        let id = cluster.add_client(OpenLoopDriver::new(
            9,
            dur::millis(1),
            dur::millis(1),
            0,
            400,
        ));
        cluster.run_for(dur::millis(100));
        let set_all = |cluster: &mut Cluster, b: Behavior| {
            for i in 0..4 {
                cluster.replica_mut::<CounterService>(i).set_behavior(b);
            }
        };
        if stall {
            set_all(&mut cluster, Behavior::Crashed);
        }
        cluster.run_for(dur::millis(100));
        set_all(&mut cluster, Behavior::Correct);
        cluster.run_for(dur::secs(2));
        let driver = cluster.client::<OpenLoopDriver>(id).driver();
        assert_eq!(driver.measured_due(), 400);
        assert_eq!(driver.queued(), 0);
        assert_eq!(driver.rec.wrong, 0);
        driver.rec.latencies_ns.clone()
    }

    #[test]
    fn a_stall_is_charged_to_every_operation_due_during_it() {
        let calm = latencies(false);
        let stalled = latencies(true);
        assert_eq!(calm.len(), 400);
        assert_eq!(stalled.len(), 400);
        // Without a stall nothing waits long; with one, the ~100
        // operations that came due while the cluster was dead each waited
        // for it to come back — a closed-loop clock would have charged
        // the stall to the single operation in flight.
        let slow = |v: &[u64]| v.iter().filter(|&&ns| ns > dur::millis(10)).count();
        assert_eq!(slow(&calm), 0);
        assert!(slow(&stalled) >= 90, "only {} slow ops", slow(&stalled));
        // The first operation due in the stall waited longest.
        let worst = *stalled.iter().max().expect("samples");
        assert!(worst >= dur::millis(95), "worst wait was {worst} ns");
    }
}
