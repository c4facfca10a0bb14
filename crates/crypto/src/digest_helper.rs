//! A digest helper: MD5 of large bodies on a second core.
//!
//! In the paper every replica hashes a large request on its own machine,
//! in parallel with the others. A simulation runs all of those machines on
//! one thread, so their digests queue behind each other. The helper gives
//! part of that parallelism back: the simulator [`DigestHelper::start`]s
//! the digest of a large body when it queues the copy for delivery, one
//! helper thread hashes it while the copy waits, and the node that
//! receives the copy [`Ticket::claim`]s the result instead of hashing
//! inline.
//!
//! A claim never changes what a node computes, only where:
//! - the digest is done: the claim returns it;
//! - the helper is hashing it: the claim waits for that one digest;
//! - the helper has not started it: the claim cancels the job and returns
//!   `None`, and the caller hashes inline. The helper skips cancelled jobs.
//!
//! So a claim never waits for a parked or busy helper. Until large bodies
//! are dense enough to pay for a second thread ([`SPAWN_BYTES_PER_DELIVERY`]),
//! and on a machine without a second core, there is no helper thread at
//! all: [`DigestHelper::start`] returns `None` and every digest is the
//! caller's inline one. A panic on the helper thread fails the claim that
//! waits on it, the next `start`, or the helper's drop; it never hangs a
//! claim.
//!
//! The helper's [`HelperCounts`] depend on thread timing, so they belong to
//! no deterministic registry: read them through [`HelperStats`].

use crate::md5::{digest, Digest};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Bodies shorter than this are hashed inline: below about 1 KiB the copy,
/// the hand-off and the cache traffic cost more than the MD5 they move.
pub const MIN_BYTES: usize = 1024;

/// A helper thread is spawned only once [`SPAWN_WINDOW`] consecutive
/// deliveries carry at least this many bytes of large bodies per
/// delivery. A second thread in the process is not free: once one
/// exists, glibc's allocator takes its locked paths for good. On a 2-core
/// Xeon VM a parked thread that never ran cost the allocation-heavy
/// `bfs-postmark` and `null-sat` benchmark workloads 8–10 % of their wall
/// time, 0.1–0.2 µs per event. 384 B of MD5 is about 0.6 µs on the same
/// machine (1.6 ns/B), of which the helper takes part off the main thread;
/// below this density it cannot pay for its thread.
pub const SPAWN_BYTES_PER_DELIVERY: usize = 384;

/// Deliveries over which [`SPAWN_BYTES_PER_DELIVERY`] is judged.
pub const SPAWN_WINDOW: usize = 1024;

/// How long an idle helper polls its queue before it parks. Waking a
/// parked thread costs a system call on each side; under load the next
/// body arrives within microseconds, and the spin keeps the helper awake
/// for it. A helper with nothing to do for this long parks and uses no
/// CPU.
pub const IDLE_SPIN: Duration = Duration::from_millis(1);

/// Job states. A job moves `QUEUED → RUNNING → DONE`, or `QUEUED →
/// CANCELLED` when its claim (or its dropped ticket) gets there first.
/// `FAILED` marks a job whose hashing panicked.
const QUEUED: u8 = 0;
const RUNNING: u8 = 1;
const DONE: u8 = 2;
const CANCELLED: u8 = 3;
const FAILED: u8 = 4;

/// One started digest, shared by its [`Ticket`] and the helper thread.
struct Job {
    state: AtomicU8,
    /// The digest's two halves, written before `state` becomes `DONE`.
    digest: [AtomicU64; 2],
}

impl Job {
    fn digest(&self) -> Digest {
        let mut bytes = [0u8; 16];
        for (half, word) in bytes.chunks_exact_mut(8).zip(&self.digest) {
            half.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
        }
        Digest(bytes)
    }

    fn set_digest(&self, d: Digest) {
        for (half, word) in d.0.chunks_exact(8).zip(&self.digest) {
            let half: [u8; 8] = half.try_into().expect("8-byte half");
            word.store(u64::from_le_bytes(half), Ordering::Relaxed);
        }
    }
}

/// Counters kept apart on their own cache lines: the claiming thread
/// writes the first three, the helper thread `hashed`.
#[derive(Default)]
struct Counts {
    served: Padded,
    running: Padded,
    cancelled: Padded,
    hashed: Padded,
}

#[derive(Default)]
#[repr(align(64))]
struct Padded(AtomicU64);

impl Padded {
    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a helper has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HelperCounts {
    /// Claims that found their digest done.
    pub served: u64,
    /// Claims that found their digest being hashed and waited for it.
    pub running: u64,
    /// Claims that found their job not started, cancelled it and hashed
    /// inline.
    pub cancelled: u64,
    /// Jobs the helper thread hashed (claimed, dropped unclaimed, or
    /// drained at shutdown).
    pub hashed: u64,
}

/// A handle on a helper's [`HelperCounts`] that outlives the helper.
#[derive(Clone)]
pub struct HelperStats(Arc<Counts>);

impl HelperStats {
    /// The counts so far.
    pub fn counts(&self) -> HelperCounts {
        let c = &self.0;
        HelperCounts {
            served: c.served.get(),
            running: c.running.get(),
            cancelled: c.cancelled.get(),
            hashed: c.hashed.get(),
        }
    }
}

impl std::fmt::Debug for HelperStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.counts().fmt(f)
    }
}

/// A started digest, to be [`claim`](Ticket::claim)ed by the one node that
/// receives the body it covers. Dropping it unclaimed cancels the job if
/// the helper has not started it.
pub struct Ticket {
    job: Arc<Job>,
    counts: Arc<Counts>,
}

impl Ticket {
    /// The started digest: returned at once if done, waited for if the
    /// helper is hashing it, and `None` if the helper has not started it
    /// (the job is then cancelled and the caller hashes inline).
    ///
    /// # Panics
    ///
    /// Panics if the helper thread panicked while hashing this job.
    pub fn claim(self) -> Option<Digest> {
        let state = &self.job.state;
        match state.compare_exchange(QUEUED, CANCELLED, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {
                self.counts.cancelled.bump();
                return None;
            }
            Err(DONE) => self.counts.served.bump(),
            Err(_) => {
                self.counts.running.bump();
                let mut spins = 0u32;
                while state.load(Ordering::Acquire) == RUNNING {
                    // One job is a few microseconds of MD5: spin, then
                    // yield in case the helper shares this core.
                    if spins < 1 << 12 {
                        spins += 1;
                        std::hint::spin_loop();
                    } else {
                        thread::yield_now();
                    }
                }
            }
        }
        assert_eq!(
            state.load(Ordering::Acquire),
            DONE,
            "the digest helper panicked hashing this job"
        );
        Some(self.job.digest())
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // Unclaimed: spare the helper the work. A no-op after a claim.
        let _ =
            self.job
                .state
                .compare_exchange(QUEUED, CANCELLED, Ordering::AcqRel, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("state", &self.job.state.load(Ordering::Relaxed))
            .finish()
    }
}

/// The hash a helper runs; [`digest`] except in tests.
type HashFn = fn(&[u8]) -> Digest;

/// A job on its way to the helper, with its own copy of the bytes.
type Queued = (Arc<Job>, Vec<u8>);

/// The running helper thread and its queue.
struct Thread {
    jobs: Sender<Queued>,
    handle: JoinHandle<()>,
}

/// One helper thread hashing large bodies, spawned once large bodies are
/// dense enough to pay for it, if the machine has a second core.
pub struct DigestHelper {
    /// Cores to assume; `None` asks the OS when the thread would spawn.
    cores: Option<usize>,
    hash: HashFn,
    thread: Option<Thread>,
    /// Whether the spawn was tried (the thread then runs, or there is no
    /// second core).
    decided: bool,
    /// Large-body bytes that spawn the thread within one window.
    spawn_bytes: usize,
    /// The current window: deliveries seen, and large-body bytes in them.
    seen: usize,
    large_bytes: usize,
    counts: Arc<Counts>,
}

impl Default for DigestHelper {
    fn default() -> DigestHelper {
        DigestHelper::new()
    }
}

impl DigestHelper {
    /// A helper that spawns its thread once [`SPAWN_WINDOW`] deliveries
    /// carry [`SPAWN_BYTES_PER_DELIVERY`] bytes of large bodies each on
    /// average, if `available_parallelism()` is two or more.
    pub fn new() -> DigestHelper {
        DigestHelper::build(None, digest, SPAWN_WINDOW * SPAWN_BYTES_PER_DELIVERY)
    }

    fn build(cores: Option<usize>, hash: HashFn, spawn_bytes: usize) -> DigestHelper {
        DigestHelper {
            cores,
            hash,
            thread: None,
            decided: false,
            spawn_bytes,
            seen: 0,
            large_bytes: 0,
            counts: Arc::default(),
        }
    }

    /// A handle on this helper's counts.
    pub fn stats(&self) -> HelperStats {
        HelperStats(Arc::clone(&self.counts))
    }

    /// Whether the helper thread is running.
    pub fn spawned(&self) -> bool {
        self.thread.is_some()
    }

    /// Starts the MD5 of the concatenated `parts` on the helper thread,
    /// from a copy of the bytes, and returns the ticket to claim it with.
    /// `None` when the parts total less than [`MIN_BYTES`] or there is no
    /// helper: the caller hashes inline.
    ///
    /// Call it once per delivery, with no parts for a message that has no
    /// large field: every delivery counts towards the density that spawns
    /// the thread.
    ///
    /// # Panics
    ///
    /// Resumes the helper thread's panic if it has died.
    pub fn start(&mut self, parts: &[&[u8]]) -> Option<Ticket> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let large = len >= MIN_BYTES;
        if !self.decided {
            self.watch(if large { len } else { 0 });
        }
        if !large {
            return None;
        }
        let thread = self.thread.as_ref()?;
        let mut bytes = Vec::with_capacity(len);
        for p in parts {
            bytes.extend_from_slice(p);
        }
        let job = Arc::new(Job {
            state: AtomicU8::new(QUEUED),
            digest: Default::default(),
        });
        if thread.jobs.send((Arc::clone(&job), bytes)).is_err() {
            // The receiver is gone: the thread panicked.
            self.surface_panic();
            return None;
        }
        Some(Ticket {
            job,
            counts: Arc::clone(&self.counts),
        })
    }

    /// Counts one delivery with `large` bytes of large body towards the
    /// current window, and spawns the thread once the window has enough.
    fn watch(&mut self, large: usize) {
        self.large_bytes += large;
        if large > 0 && self.large_bytes >= self.spawn_bytes {
            self.decided = true;
            self.thread = self.spawn();
        }
        self.seen += 1;
        if self.seen == SPAWN_WINDOW {
            (self.seen, self.large_bytes) = (0, 0);
        }
    }

    fn spawn(&self) -> Option<Thread> {
        let cores = self
            .cores
            .or_else(|| thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1);
        if cores < 2 {
            return None;
        }
        let (jobs, queue) = mpsc::channel();
        let hash = self.hash;
        let counts = Arc::clone(&self.counts);
        let handle = thread::Builder::new()
            .name("digest-helper".into())
            .spawn(move || serve(&queue, hash, &counts))
            .ok()?;
        Some(Thread { jobs, handle })
    }

    /// Joins the helper thread and resumes its panic, if it had one.
    fn surface_panic(&mut self) {
        if let Some(Thread { jobs, handle }) = self.thread.take() {
            drop(jobs);
            if let Err(panic) = handle.join() {
                if !thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

impl Drop for DigestHelper {
    /// Closes the queue, lets the thread drain it, and joins the thread.
    fn drop(&mut self) {
        self.surface_panic();
    }
}

impl std::fmt::Debug for DigestHelper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DigestHelper")
            .field("spawned", &self.spawned())
            .field("counts", &self.stats().counts())
            .finish()
    }
}

/// The helper thread: hash every job still queued, newest first, until
/// the queue closes.
///
/// Newest first because claims come oldest first: the receivers of the
/// copies queued earliest are dispatched first, and each of them hashes
/// inline whatever the helper has not reached. Working from the other end
/// of the queue, the helper meets them in the middle instead of running
/// one job ahead of a claim that then waits for it (EXPERIMENTS.md has
/// the shares of claims served either way).
fn serve(queue: &Receiver<Queued>, hash: HashFn, counts: &Counts) {
    let mut stack = Vec::new();
    loop {
        stack.extend(queue.try_iter());
        let Some((job, bytes)) = stack.pop().or_else(|| next(queue)) else {
            return;
        };
        let claimed =
            job.state
                .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Relaxed);
        if claimed.is_err() {
            continue;
        }
        let failed = FailOnUnwind(&job);
        let d = hash(&bytes);
        std::mem::forget(failed);
        job.set_digest(d);
        job.state.store(DONE, Ordering::Release);
        counts.hashed.bump();
    }
}

/// The next job: polled for [`IDLE_SPIN`], then waited for parked. `None`
/// once the queue is closed and empty.
fn next(queue: &Receiver<Queued>) -> Option<Queued> {
    let idle_since = Instant::now();
    loop {
        for _ in 0..64 {
            match queue.try_recv() {
                Ok(job) => return Some(job),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
            }
        }
        if idle_since.elapsed() >= IDLE_SPIN {
            return queue.recv().ok();
        }
    }
}

/// Marks its job `FAILED` if dropped, which only happens when the hash
/// unwinds: a claim waiting on the job then panics instead of hanging.
struct FailOnUnwind<'a>(&'a Job);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        self.0.state.store(FAILED, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::{Condvar, Mutex};

    /// Holds a helper inside a job until the test opens it, and tells the
    /// test when the helper has entered.
    struct Gate {
        state: Mutex<(bool, bool)>,
        changed: Condvar,
    }

    impl Gate {
        const fn new() -> Gate {
            Gate {
                state: Mutex::new((false, false)),
                changed: Condvar::new(),
            }
        }

        /// On the helper: signal entry, then wait until opened.
        fn pass(&self) {
            let mut s = self.state.lock().unwrap();
            s.0 = true;
            self.changed.notify_all();
            while !s.1 {
                s = self.changed.wait(s).unwrap();
            }
        }

        /// On the test: wait until the helper is inside.
        fn wait_entered(&self) {
            let mut s = self.state.lock().unwrap();
            while !s.0 {
                s = self.changed.wait(s).unwrap();
            }
        }

        fn open(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    /// Gates `1..=5`, one set per test so tests running in parallel
    /// never share one.
    static GATES: [Gate; 5] = [
        Gate::new(),
        Gate::new(),
        Gate::new(),
        Gate::new(),
        Gate::new(),
    ];

    /// MD5 that holds the helper at gate `g` for a body starting with
    /// byte `g`, and passes bodies starting with 0.
    fn gated(bytes: &[u8]) -> Digest {
        if let Some(&g) = bytes.first().filter(|&&g| g > 0) {
            GATES[usize::from(g) - 1].pass();
        }
        digest(bytes)
    }

    fn gate(g: u8) -> &'static Gate {
        &GATES[usize::from(g) - 1]
    }

    fn body(first: u8, len: usize) -> Vec<u8> {
        let mut b: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        b[0] = first;
        b
    }

    /// A helper on two cores that spawns at the first large body.
    fn helper(hash: HashFn) -> DigestHelper {
        DigestHelper::build(Some(2), hash, 0)
    }

    #[test]
    fn a_done_digest_is_returned() {
        let mut h = helper(gated);
        let _first = h.start(&[&body(1, 4096)]).expect("large body starts");
        gate(1).wait_entered();
        // Queued behind the first job, newest last: the helper hashes
        // `plain`, then enters gate 2, and so is done with `plain` once
        // it is inside.
        let _second = h.start(&[&body(2, 4096)]).expect("starts");
        let plain = body(0, 4096);
        let done = h.start(&[&plain]).expect("starts");
        gate(1).open();
        gate(2).wait_entered();
        assert_eq!(done.claim(), Some(digest(&plain)));
        gate(2).open();
        assert_eq!(h.stats().counts().served, 1);
    }

    #[test]
    fn a_running_digest_is_waited_for() {
        let mut h = helper(gated);
        let gated = body(3, 2048);
        let ticket = h.start(&[&gated]).expect("starts");
        gate(3).wait_entered();
        let stats = h.stats();
        // Open the gate only once the claim below is waiting on the job.
        let opener = thread::spawn(move || {
            while stats.counts().running == 0 {
                thread::yield_now();
            }
            gate(3).open();
        });
        assert_eq!(ticket.claim(), Some(digest(&gated)));
        opener.join().unwrap();
        assert_eq!(h.stats().counts().running, 1);
    }

    #[test]
    fn a_job_not_started_is_cancelled_and_skipped() {
        let mut h = helper(gated);
        let first = body(4, 1024);
        let running = h.start(&[&first]).expect("starts");
        gate(4).wait_entered();
        let queued = h.start(&[&body(0, 1024)]).expect("starts");
        assert_eq!(
            queued.claim(),
            None,
            "the helper is busy with the first job"
        );
        gate(4).open();
        assert_eq!(running.claim(), Some(digest(&first)));
        let stats = h.stats();
        drop(h);
        let counts = stats.counts();
        assert_eq!((counts.cancelled, counts.hashed), (1, 1), "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "the digest helper panicked")]
    fn a_helper_panic_fails_the_claim() {
        fn panics(bytes: &[u8]) -> Digest {
            gated(bytes);
            panic!("hash failed");
        }
        let mut h = helper(panics);
        let ticket = h.start(&[&body(5, 4096)]).expect("starts");
        gate(5).wait_entered();
        gate(5).open();
        ticket.claim();
    }

    #[test]
    fn no_helper_on_one_core() {
        let mut h = DigestHelper::build(Some(1), digest, 0);
        assert!(h.start(&[&body(0, 4096)]).is_none());
        assert!(!h.spawned());
    }

    #[test]
    fn the_thread_waits_for_dense_large_bodies() {
        let mut h = DigestHelper::build(Some(2), digest, SPAWN_WINDOW * SPAWN_BYTES_PER_DELIVERY);
        let large = body(0, 4096);
        let large: &[&[u8]] = &[&large];
        // A window just below the density, ending on its large bodies:
        // nothing spawns, and the next window starts from zero.
        let below = SPAWN_WINDOW * SPAWN_BYTES_PER_DELIVERY / 4096 - 1;
        for i in 0..SPAWN_WINDOW {
            let parts = if i < SPAWN_WINDOW - below { &[] } else { large };
            assert!(h.start(parts).is_none());
        }
        assert!(!h.spawned());
        // One more large body than that within a window spawns it.
        for _ in 0..below {
            assert!(h.start(large).is_none());
        }
        assert!(h.start(large).is_some());
        assert!(h.spawned());
    }

    #[test]
    fn small_bodies_start_nothing() {
        let mut h = helper(digest);
        assert!(h.start(&[&body(0, MIN_BYTES - 1)]).is_none());
        assert!(!h.spawned(), "the thread waits for the first large body");
        assert!(h.start(&[&body(0, 600), &body(0, 600)]).is_some());
        assert!(h.spawned());
    }

    proptest! {
        /// Whatever state a claim finds, the digest is MD5 of the
        /// concatenated parts: claimed at once (any state), and claimed
        /// after the helper drained its queue (always done).
        #[test]
        fn claimed_digests_are_md5(
            data in prop::collection::vec(any::<u8>(), 16384..16385),
            len in 0usize..16385,
            cut in any::<usize>(),
        ) {
            let data = &data[..len];
            let (a, b) = data.split_at(cut % (len + 1));
            let mut h = helper(digest);
            let now = h.start(&[a, b]);
            let later = h.start(&[a, b]);
            prop_assert_eq!(now.is_some(), len >= MIN_BYTES);
            let now = now.and_then(Ticket::claim).unwrap_or_else(|| digest(data));
            prop_assert_eq!(now, digest(data));
            drop(h);
            if let Some(later) = later {
                prop_assert_eq!(later.claim(), Some(digest(data)));
            }
        }
    }
}
