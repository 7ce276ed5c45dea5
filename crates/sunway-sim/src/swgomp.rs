//! SWGOMP's job-spawning hierarchy (§3.3.1, Fig. 5), executed with real
//! threads standing in for CPEs.
//!
//! "The job server exhibits a high flexibility, allowing new tasks to be
//! assigned to CPE by either the MPE or another CPE. The job server is
//! initialized by MPE using the Athread library. The MPE spawns team-head
//! threads via the job server to execute target portions. These team-head
//! CPEs have the capability to spawn threads on other CPEs within the team
//! to execute parallel code pieces."
//!
//! # Modeled width and host width
//!
//! [`JobServer::n_cpes`] is the *modeled* width: the CPEs of the simulated
//! core group. It alone sets the workshare chunk size `n / (4·n_cpes)`, the
//! chunk count (hence the `dma.transactions` the substrate attributes) and
//! every [`JobStats`] value. The *host* width — the worker threads actually
//! spawned — is `min(n_cpes, available_parallelism)`
//! ([`JobServer::host_threads`]): more threads than host cores would only
//! time-slice one another.
//!
//! # Dispatch
//!
//! Each dispatch publishes one `Job` descriptor: the erased loop body, its
//! own atomic chunk-claim counter and its own completion latch, tagged by an
//! epoch. Workers claim chunk indices from the counter and run each claimed
//! chunk's items in order; between jobs they poll the epoch for a bounded
//! time, yielding their core, then park. The dispatching thread (the MPE)
//! never runs a chunk: it spins briefly on the latch, then parks until the
//! last chunk retires. [`JobServer::parallel_for`] (`!$omp parallel do`)
//! and [`JobServer::target_parallel_for`] (`!$omp target`, Fig. 4) share
//! this path and differ only in who the Fig. 5 accounting says spawned the
//! chunks: the MPE, or the team-head CPE of the target region. Dispatchers
//! on several threads take turns, one job in flight per server. Each
//! dispatch blocks until every chunk retires, which is what makes the
//! internal lifetime erasure sound.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Type-erased slice-of-work closure: `call(ctx, start, end)`.
struct RawTask {
    ctx: *const (),
    call: unsafe fn(*const (), usize, usize),
}
// SAFETY: the referent is a `Fn(usize) + Sync` closure; `Job::work` only
// calls it for a chunk claimed below `n_chunks`, and the dispatcher keeps the
// closure alive (blocked on the job's latch) until every such chunk retires.
unsafe impl Send for RawTask {}
// SAFETY: as for `Send`; the closure itself is `Sync`.
unsafe impl Sync for RawTask {}

/// A count-down completion latch with one waiter: the dispatching MPE.
///
/// [`JobServer`] arms it with one ticket per chunk. A worker surrenders the
/// tickets of the chunks it ran in one [`Barrier::done_n`] after its last
/// claim fails, and the worker that takes the count to zero unparks the
/// waiter.
struct Barrier {
    remaining: AtomicUsize,
    /// The thread that [`Self::wait`]s, captured at construction.
    waiter: Thread,
}

/// Busy-spin iterations before [`Barrier::wait`] parks. Short: while the MPE
/// spins it holds a host core the workers it waits for could use.
const BARRIER_SPIN_ROUNDS: usize = 1 << 9;

impl Barrier {
    /// A latch of `n` tickets waited on by the calling thread.
    fn new(n: usize) -> Self {
        Barrier {
            remaining: AtomicUsize::new(n),
            waiter: std::thread::current(),
        }
    }

    /// Surrender `n` tickets.
    fn done_n(&self, n: usize) {
        // AcqRel: the release publishes the surrendered chunks' writes to
        // the waiter's acquire load in `wait`.
        if self.remaining.fetch_sub(n, Ordering::AcqRel) == n {
            self.waiter.unpark();
        }
    }

    fn released(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    fn wait(&self) {
        // Fast path: chunks of a small dispatch retire in microseconds, and
        // parking at once would add a futex round trip to every dispatch.
        for _ in 0..BARRIER_SPIN_ROUNDS {
            if self.released() {
                return;
            }
            std::hint::spin_loop();
        }
        // Slow path. `unpark` leaves a token when it lands before `park`, so
        // a release between the check and the park is not missed; a stale
        // token from an earlier latch only costs one more check.
        while !self.released() {
            std::thread::park();
        }
    }
}

/// One published dispatch. Workers may keep a finished job's `Arc` after
/// its dispatcher returned; that is sound because [`Job::work`] calls the
/// task only for a chunk index it claimed below `n_chunks` from this job's
/// own counter, and the latch holds the dispatcher until each such chunk
/// has retired.
struct Job {
    epoch: u64,
    task: RawTask,
    n_items: usize,
    chunk: usize,
    n_chunks: usize,
    /// Next unclaimed chunk index; claims at or past `n_chunks` run nothing.
    next: AtomicUsize,
    done: Barrier,
    /// Set when a chunk's task panicked; the dispatcher re-raises.
    panicked: AtomicBool,
}

impl Job {
    /// Claim and run chunks until the counter is exhausted, then surrender
    /// their latch tickets.
    fn work(&self, stats: &JobStats) {
        let mut ran = 0;
        loop {
            // Relaxed: the claim publishes no data. The job's fields came
            // with the slot mutex; chunk results go out through the latch.
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            if k >= self.n_chunks {
                break;
            }
            let start = k * self.chunk;
            let end = (start + self.chunk).min(self.n_items);
            // SAFETY: `k < n_chunks` was claimed from this job's counter, and
            // its ticket is only surrendered below, so the dispatcher is still
            // blocked in `done.wait()` and the closure behind `task` is alive.
            let run = AssertUnwindSafe(|| unsafe { (self.task.call)(self.task.ctx, start, end) });
            if catch_unwind(run).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            ran += 1;
        }
        if ran > 0 {
            stats.chunks_run.fetch_add(ran as u64, Ordering::Relaxed);
            self.done.done_n(ran);
        }
    }
}

/// State shared by a server and its workers.
struct Shared {
    /// The latest job, or `None` before the first dispatch and after
    /// shutdown. Replaced whole by each publication, never mutated.
    slot: Mutex<Option<Arc<Job>>>,
    /// Publications so far; bumped under `slot`'s lock. Workers spin on it
    /// between jobs.
    epoch: AtomicU64,
    /// Workers parked on `wake` (counted under `slot`'s lock).
    sleepers: AtomicUsize,
    wake: Condvar,
}

/// How long a worker polls the epoch after its last job before parking.
/// Covers the MPE's serial work between the back-to-back dispatches of a
/// model step, so a step's dispatches find their workers awake. The poll
/// yields its core on every round: with as many workers as host cores, a
/// hot spin would take the core the MPE needs for that serial work.
const WORKER_SPIN: Duration = Duration::from_micros(200);

thread_local! {
    /// The `Shared` of the server whose worker this thread is (0 if none).
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

impl Shared {
    /// Lock the job slot. Every update is one assignment, so the slot is
    /// valid even if a holder panicked; recovering keeps `Drop` panic-free.
    fn lock_slot(&self) -> MutexGuard<'_, Option<Arc<Job>>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish `job` (or the shutdown marker `None`) and wake parked
    /// workers.
    fn publish(&self, job: Option<Arc<Job>>) {
        let mut slot = self.lock_slot();
        *slot = job;
        self.epoch.fetch_add(1, Ordering::Release);
        let sleepers = self.sleepers.load(Ordering::Relaxed);
        drop(slot);
        // A worker counts itself a sleeper and re-checks the epoch under the
        // lock, so either it saw this epoch or it is counted here.
        if sleepers > 0 {
            self.wake.notify_all();
        }
    }

    /// Block until a publication after epoch `seen`, then take it: poll for
    /// [`WORKER_SPIN`], then park on `wake`.
    fn next_after(&self, seen: u64) -> Option<Arc<Job>> {
        let t0 = Instant::now();
        while self.epoch.load(Ordering::Acquire) == seen {
            if t0.elapsed() > WORKER_SPIN {
                let mut slot = self.lock_slot();
                self.sleepers.fetch_add(1, Ordering::Relaxed);
                while self.epoch.load(Ordering::Acquire) == seen {
                    slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
                self.sleepers.fetch_sub(1, Ordering::Relaxed);
                return slot.clone();
            }
            std::thread::yield_now();
        }
        self.lock_slot().clone()
    }
}

fn worker_loop(shared: Arc<Shared>, stats: Arc<JobStats>) {
    WORKER_OF.with(|w| w.set(Arc::as_ptr(&shared) as usize));
    let mut seen = 0;
    while let Some(job) = shared.next_after(seen) {
        seen = job.epoch;
        job.work(&stats);
    }
}

/// Scheduling statistics (who spawned what — the Fig. 5 hierarchy), counted
/// at the modeled width.
#[derive(Debug, Default)]
pub struct JobStats {
    /// Jobs spawned by the MPE: every chunk of a `parallel_for`, and the
    /// one team-head job of a `target_parallel_for`.
    pub spawned_by_mpe: AtomicU64,
    /// Chunks spawned by team-head CPEs (the `target_parallel_for` path).
    pub spawned_by_cpe: AtomicU64,
    /// Chunks executed in total.
    pub chunks_run: AtomicU64,
}

/// The persistent CPE job server of one core group.
pub struct JobServer {
    shared: Arc<Shared>,
    /// Held by a dispatcher for its whole dispatch: one job in flight.
    turn: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
    /// Modeled CPE count: sets chunking, [`JobStats`] and DMA accounting.
    pub n_cpes: usize,
    pub stats: Arc<JobStats>,
}

impl JobServer {
    /// Initialize the job server of an `n_cpes`-CPE core group (the Athread
    /// initialization step), backed by `min(n_cpes, available_parallelism)`
    /// host worker threads.
    pub fn new(n_cpes: usize) -> Self {
        assert!(n_cpes >= 1);
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shared = Arc::new(Shared {
            slot: Mutex::new(None),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            wake: Condvar::new(),
        });
        let stats = Arc::new(JobStats::default());
        let workers = (0..n_cpes.min(host))
            .map(|id| {
                let shared = Arc::clone(&shared);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("cpe-{id}"))
                    .spawn(move || worker_loop(shared, stats))
                    .expect("spawn CPE worker")
            })
            .collect();
        JobServer {
            shared,
            turn: Mutex::new(()),
            workers,
            n_cpes,
            stats,
        }
    }

    /// Host worker threads backing the `n_cpes` modeled CPEs.
    pub fn host_threads(&self) -> usize {
        self.workers.len()
    }

    fn erase<F: Fn(usize) + Sync>(f: &F) -> RawTask {
        unsafe fn call_impl<F: Fn(usize) + Sync>(ctx: *const (), start: usize, end: usize) {
            // SAFETY: `ctx` came from `&F` in `erase`, and `Job::work` only
            // calls this while the dispatcher keeps that borrow alive.
            let f = unsafe { &*(ctx as *const F) };
            for i in start..end {
                f(i);
            }
        }
        RawTask {
            ctx: f as *const F as *const (),
            call: call_impl::<F>,
        }
    }

    /// Run `0..n_items` in chunks of `chunk` on the workers and wait.
    fn dispatch<F: Fn(usize) + Sync>(&self, n_items: usize, chunk: usize, f: &F) {
        assert!(
            WORKER_OF.with(|w| w.get()) != Arc::as_ptr(&self.shared) as usize,
            "a job server's worker dispatched into its own server"
        );
        let chunk = chunk.max(1);
        let n_chunks = n_items.div_ceil(chunk);
        let turn = self.turn.lock().expect("dispatch turn poisoned");
        let job = Arc::new(Job {
            epoch: self.shared.epoch.load(Ordering::Relaxed) + 1,
            task: Self::erase(f),
            n_items,
            chunk,
            n_chunks,
            next: AtomicUsize::new(0),
            done: Barrier::new(n_chunks),
            panicked: AtomicBool::new(false),
        });
        self.shared.publish(Some(Arc::clone(&job)));
        job.done.wait();
        drop(turn);
        if job.panicked.load(Ordering::Relaxed) {
            panic!("a CPE chunk panicked");
        }
    }

    /// `!$omp parallel do` from the MPE: distribute `0..n_items` in chunks
    /// over the CPEs and wait.
    pub fn parallel_for<F: Fn(usize) + Sync>(&self, n_items: usize, chunk: usize, f: &F) {
        if n_items == 0 {
            return;
        }
        let n_chunks = n_items.div_ceil(chunk.max(1)) as u64;
        self.stats
            .spawned_by_mpe
            .fetch_add(n_chunks, Ordering::Relaxed);
        self.dispatch(n_items, chunk, f);
    }

    /// `!$omp target` + `!$omp do`: the MPE spawns one team-head job, whose
    /// CPE spawns the loop's chunks on its team (Fig. 5's CPE-spawned jobs);
    /// wait for the whole team.
    pub fn target_parallel_for<F: Fn(usize) + Sync>(&self, n_items: usize, chunk: usize, f: &F) {
        if n_items == 0 {
            return;
        }
        let n_chunks = n_items.div_ceil(chunk.max(1)) as u64;
        self.stats.spawned_by_mpe.fetch_add(1, Ordering::Relaxed);
        self.stats
            .spawned_by_cpe
            .fetch_add(n_chunks, Ordering::Relaxed);
        self.dispatch(n_items, chunk, f);
    }
}

/// Wrapper for sending a raw mutable base pointer into worker closures.
/// Soundness: each index is written by exactly one chunk, and the caller
/// blocks until all chunks retire.
struct SyncPtr<T>(*mut T);
unsafe impl<T> Send for SyncPtr<T> {}
unsafe impl<T> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// Accessor keeping closure captures at the (Sync) struct level —
    /// edition-2021 precise capture would otherwise grab the raw field.
    fn get(&self) -> *mut T {
        self.0
    }
}

impl JobServer {
    /// `!$omp target parallel workshare` on `array = value` (the second
    /// idiom of Fig. 4: Fortran array assignments distributed over CPEs).
    pub fn target_workshare_fill<T: Copy + Send + Sync>(&self, data: &mut [T], value: T) {
        let n = data.len();
        let base = SyncPtr(data.as_mut_ptr());
        let chunk = n.div_ceil(4 * self.n_cpes).max(1);
        self.target_parallel_for(n, chunk, &|i| {
            // SAFETY: i < n, each i visited exactly once, caller blocks.
            unsafe { *base.get().add(i) = value };
        });
    }

    /// Workshare elementwise map `dst(:) = f(src(:))`.
    pub fn target_workshare_map<T, U, F>(&self, dst: &mut [U], src: &[T], f: F)
    where
        T: Sync,
        U: Send + Sync,
        F: Fn(&T) -> U + Sync,
    {
        assert_eq!(dst.len(), src.len());
        let n = dst.len();
        let base = SyncPtr(dst.as_mut_ptr());
        let chunk = n.div_ceil(4 * self.n_cpes).max(1);
        self.target_parallel_for(n, chunk, &|i| {
            // SAFETY: disjoint writes, completion barrier before return.
            unsafe { base.get().add(i).write(f(&src[i])) };
        });
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        // Spinning workers see the epoch move, parked ones are woken; all
        // of them then find the shutdown marker and exit.
        self.shared.publish(None);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_touches_every_index_once() {
        let server = JobServer::new(8);
        let n = 10_000;
        let counters: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        server.parallel_for(n, 64, &|i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn target_parallel_for_computes_the_same_result() {
        let server = JobServer::new(8);
        let n = 5_000;
        let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        server.target_parallel_for(n, 128, &|i| {
            out[i].store((i * i) as u64, Ordering::Relaxed);
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.load(Ordering::Relaxed), (i * i) as u64);
        }
    }

    #[test]
    fn target_path_spawns_chunks_from_a_cpe() {
        // Fig. 5: with `target`, the chunk jobs are spawned by the team-head
        // CPE, not the MPE.
        let server = JobServer::new(4);
        server.target_parallel_for(1000, 100, &|_| {});
        assert_eq!(server.stats.spawned_by_mpe.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats.spawned_by_cpe.load(Ordering::Relaxed), 10);
        assert_eq!(server.stats.chunks_run.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn mpe_path_spawns_chunks_from_the_mpe() {
        let server = JobServer::new(4);
        server.parallel_for(1000, 100, &|_| {});
        assert_eq!(server.stats.spawned_by_mpe.load(Ordering::Relaxed), 10);
        assert_eq!(server.stats.spawned_by_cpe.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn repeated_launches_reuse_the_persistent_workers() {
        let server = JobServer::new(8);
        let acc = AtomicU64::new(0);
        for _ in 0..50 {
            server.parallel_for(256, 16, &|_| {
                acc.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(acc.load(Ordering::Relaxed), 50 * 256);
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let server = JobServer::new(64); // full CPE complement
        let data: Vec<u64> = (0..100_000).map(|i| i % 97).collect();
        let total = AtomicU64::new(0);
        server.target_parallel_for(data.len(), 1024, &|i| {
            total.fetch_add(data[i], Ordering::Relaxed);
        });
        let expected: u64 = data.iter().sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn workshare_fill_zeroes_an_array_like_fig4() {
        // Fig. 4: `kinetic_energy(:,:) = 0` under target parallel workshare.
        let server = JobServer::new(8);
        let mut ke = vec![3.25f64; 10_000];
        server.target_workshare_fill(&mut ke, 0.0);
        assert!(ke.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn workshare_map_applies_elementwise() {
        let server = JobServer::new(8);
        let src: Vec<f64> = (0..5000).map(|i| i as f64).collect();
        let mut dst = vec![0.0f64; 5000];
        server.target_workshare_map(&mut dst, &src, |&x| 2.0 * x + 1.0);
        for (i, &d) in dst.iter().enumerate() {
            assert_eq!(d, 2.0 * i as f64 + 1.0);
        }
    }

    #[test]
    fn workshare_on_empty_slices_is_a_noop() {
        let server = JobServer::new(2);
        let mut empty: Vec<f64> = Vec::new();
        server.target_workshare_fill(&mut empty, 1.0);
        server.target_workshare_map(&mut empty, &[], |&x: &f64| x);
    }

    #[test]
    fn empty_range_is_a_noop() {
        let server = JobServer::new(2);
        server.parallel_for(0, 16, &|_| panic!("must not run"));
        server.target_parallel_for(0, 16, &|_| panic!("must not run"));
    }

    /// Latch stress, MPE path: 1-item chunks mean every index is its own
    /// chunk and the latch starts at exactly `n_items`. The wait must
    /// neither hang (too many tickets) nor release before every write lands
    /// (too few).
    #[test]
    fn barrier_conventions_one_item_chunks_mpe_path() {
        let server = JobServer::new(8);
        for round in 0..20 {
            let n = 257 + round; // odd sizes, never a multiple of the team
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            server.parallel_for(n, 1, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            // No early release: by the time parallel_for returns, every
            // index has been written exactly once.
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    /// Latch stress, target path: 1-item chunks, accounted as spawned by the
    /// team head.
    #[test]
    fn barrier_conventions_one_item_chunks_target_path() {
        let server = JobServer::new(8);
        for round in 0..20 {
            let n = 131 + round;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            server.target_parallel_for(n, 1, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        // Every chunk went through the team head, none through the MPE.
        assert_eq!(server.stats.spawned_by_mpe.load(Ordering::Relaxed), 20);
        let expected_cpe: u64 = (0..20u64).map(|r| 131 + r).sum();
        assert_eq!(
            server.stats.spawned_by_cpe.load(Ordering::Relaxed),
            expected_cpe
        );
        assert_eq!(
            server.stats.chunks_run.load(Ordering::Relaxed),
            expected_cpe
        );
    }

    /// The parking slow path: a ticket that retires long after the spin
    /// budget is exhausted must still release the waiter (and not hang on a
    /// missed wakeup).
    #[test]
    fn barrier_wait_parks_until_late_completion() {
        for _ in 0..10 {
            let done = Arc::new(Barrier::new(1));
            let d2 = Arc::clone(&done);
            let t = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                d2.done_n(1);
            });
            done.wait(); // far beyond the spin budget → parks
            assert!(done.released());
            t.join().unwrap();
        }
    }

    /// A latch that is already released must never block, and tickets
    /// surrendered in batches count like single ones.
    #[test]
    fn barrier_wait_returns_immediately_when_released() {
        let done = Barrier::new(1);
        done.done_n(1);
        done.wait();
        done.wait(); // idempotent
        let batched = Barrier::new(5);
        batched.done_n(3);
        assert!(!batched.released());
        batched.done_n(2);
        batched.wait();
    }

    /// Fewer items than CPEs: most workers stay idle, and the idle majority
    /// must not be counted as latch participants. Both paths must return
    /// promptly with every item done exactly once.
    #[test]
    fn barrier_conventions_fewer_items_than_cpes() {
        let server = JobServer::new(32);
        for n in [1usize, 2, 3, 5, 31] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            server.parallel_for(n, 1, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "mpe path, n={n}"
            );

            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            server.target_parallel_for(n, 1, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "target path, n={n}"
            );
        }
    }

    /// Run `f` on its own thread and fail (instead of hanging the suite) if
    /// it does not finish within `secs`.
    fn finishes_within(secs: u64, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(secs))
            .expect("job server test hung or panicked");
        t.join().unwrap();
    }

    /// Several dispatchers share one server: they take turns, and every
    /// index of every dispatch runs exactly once.
    #[test]
    fn concurrent_dispatchers_take_turns() {
        finishes_within(60, || {
            let server = JobServer::new(8);
            let n = 1_000;
            let rounds = 200u64;
            std::thread::scope(|s| {
                for t in 0..3 {
                    let server = &server;
                    s.spawn(move || {
                        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                        for r in 0..rounds {
                            let body = |i: usize| {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                            };
                            if (t + r) % 2 == 0 {
                                server.parallel_for(n, 7, &body);
                            } else {
                                server.target_parallel_for(n, 7, &body);
                            }
                        }
                        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == rounds));
                    });
                }
            });
            let chunks = 3 * rounds * (n as u64).div_ceil(7);
            assert_eq!(server.stats.chunks_run.load(Ordering::Relaxed), chunks);
        });
    }

    /// Back-to-back dispatches whose closures borrow a stack buffer that dies
    /// right after each return. A worker that ran a chunk of a finished job
    /// would bump a count twice or read another round's tag.
    #[test]
    fn finished_jobs_never_run_again() {
        finishes_within(60, || {
            let server = JobServer::new(4);
            let rounds = 100_000u64;
            let hits: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
            let stale = AtomicU64::new(0);
            let mut expected = [0u64; 8];
            for round in 0..rounds {
                // Jobs of 1..=8 one-item chunks: one worker often drains a
                // job before another has made its first claim on it.
                let n = 1 + (round % 8) as usize;
                let tag = [round; 8];
                server.target_parallel_for(n, 1, &|i| {
                    if tag[i] != round {
                        stale.fetch_add(1, Ordering::Relaxed);
                    }
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for e in &mut expected[..n] {
                    *e += 1;
                }
            }
            assert_eq!(stale.load(Ordering::Relaxed), 0);
            for (h, e) in hits.iter().zip(expected) {
                assert_eq!(h.load(Ordering::Relaxed), e);
            }
        });
    }

    /// Dropping a server returns whether its workers are parked, spinning
    /// between jobs, or never saw a job.
    #[test]
    fn drop_joins_parked_and_spinning_workers() {
        finishes_within(30, || {
            let parked = JobServer::new(4);
            parked.parallel_for(100, 10, &|_| {});
            while parked.shared.sleepers.load(Ordering::Relaxed) < parked.host_threads() {
                std::thread::yield_now();
            }
            drop(parked);

            for _ in 0..100 {
                let spinning = JobServer::new(4);
                spinning.parallel_for(100, 10, &|_| {});
                drop(spinning);
            }
            drop(JobServer::new(4));
        });
    }

    /// The host width is capped at the host's cores; the modeled width and
    /// everything it sets are not.
    #[test]
    fn host_width_is_capped_but_accounting_keeps_the_modeled_width() {
        let server = JobServer::new(64);
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(server.host_threads(), host.min(64));
        assert_eq!(server.n_cpes, 64);
        let mut data = vec![0u8; 10_000];
        server.target_workshare_fill(&mut data, 1);
        // Chunk = ceil(10000 / 256) = 40 items → 250 chunks.
        assert_eq!(server.stats.spawned_by_mpe.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats.spawned_by_cpe.load(Ordering::Relaxed), 250);
        assert_eq!(server.stats.chunks_run.load(Ordering::Relaxed), 250);
    }

    /// A panicking chunk surfaces on the dispatcher instead of hanging it,
    /// and the server keeps working. A chunk that dispatches into its own
    /// server (which would wait on the turn its dispatcher holds) is one.
    #[test]
    fn a_panicking_chunk_reaches_the_dispatcher() {
        let server = JobServer::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            server.parallel_for(100, 10, &|i| assert_ne!(i, 42, "injected"));
        }));
        assert!(caught.is_err());
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            server.parallel_for(4, 1, &|_| server.parallel_for(4, 1, &|_| {}));
        }));
        assert!(caught.is_err());
        let hits = AtomicU64::new(0);
        server.parallel_for(100, 10, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }
}
