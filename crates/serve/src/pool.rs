//! A work-stealing worker pool built on `std` only.
//!
//! [`Engine::run_batch`](engine::Engine::run_batch) fans a batch out with a
//! shared atomic cursor: every worker contends on one counter and a
//! one-slow-request tail leaves the other workers idle only at the very
//! end.  The serving layer replaces that static fan-out with the classic
//! crossbeam-deque shape (reimplemented here because the build is offline
//! and may not add dependencies):
//!
//! * each worker owns a deque and pops **LIFO** from its back (locality:
//!   the jobs it was just handed);
//! * a shared injector queue receives externally submitted jobs (the wire
//!   protocol's line-at-a-time arrivals) and is drained FIFO;
//! * an idle worker **steals FIFO** from the front of a victim's deque, so
//!   long runs of queued work migrate to whoever is free.
//!
//! The deques are small mutex-protected ring buffers rather than lock-free
//! Chase–Lev deques — each job here is a whole simulation (microseconds to
//! seconds), so queue overhead is noise; what matters is that a stalled
//! worker never strands queued jobs, which stealing guarantees.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counter snapshot of a [`WorkerPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolCounters {
    /// Number of worker threads.
    pub workers: u64,
    /// Jobs run, including jobs that panicked (the panic is contained and
    /// the worker keeps serving).
    pub executed: u64,
    /// Jobs a worker took from another worker's deque.
    pub steals: u64,
}

struct Shared {
    /// Per-worker deques: the owner pops the back, thieves pop the front.
    local: Vec<Mutex<VecDeque<Job>>>,
    /// Externally submitted jobs, drained FIFO by whoever is free.
    injector: Mutex<VecDeque<Job>>,
    /// Paired with `injector`: idle workers park here.  Waits use a short
    /// timeout so a stealable job pushed to a *local* deque (whose lock is
    /// deliberately not held while notifying) is picked up promptly even
    /// under missed-wakeup races.
    wakeup: Condvar,
    /// Jobs pushed but not yet dequeued, for the shutdown drain check.
    queued: AtomicUsize,
    shutdown: AtomicBool,
    executed: AtomicU64,
    steals: AtomicU64,
}

impl Shared {
    fn next_job(&self, own: usize) -> Option<Job> {
        // 1. Own deque, newest first.
        if let Some(job) = self.local[own]
            .lock()
            .expect("worker deque not poisoned")
            .pop_back()
        {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        // 2. The injector, oldest first.
        if let Some(job) = self
            .injector
            .lock()
            .expect("injector not poisoned")
            .pop_front()
        {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        // 3. Steal from a victim, oldest first.
        let n = self.local.len();
        for offset in 1..n {
            let victim = (own + offset) % n;
            if let Some(job) = self.local[victim]
                .lock()
                .expect("worker deque not poisoned")
                .pop_front()
            {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                self.steals.fetch_add(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }

    fn worker_loop(&self, own: usize) {
        loop {
            if let Some(job) = self.next_job(own) {
                // A panicking job must not take its worker down with it:
                // the thread would be gone for good and the jobs queued on
                // it stranded.  Jobs own everything they touch, so nothing
                // half-updated outlives the unwind.
                let _ = catch_unwind(AssertUnwindSafe(job));
                self.executed.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            let guard = self.injector.lock().expect("injector not poisoned");
            if self.queued.load(Ordering::SeqCst) > 0 {
                // Something was pushed between our scan and the lock.
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let (_guard, _timeout) = self
                .wakeup
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("injector not poisoned");
        }
    }
}

/// The work-stealing pool.  Dropping it drains every queued job, then joins
/// the workers — all but the dropping thread itself when the last owner
/// lets go inside one of the pool's own jobs: that worker is detached and
/// exits on its own once the job returns and the queue is empty.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            local: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            wakeup: Condvar::new(),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|idx| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{idx}"))
                    .spawn(move || shared.worker_loop(idx))
                    .expect("worker threads spawn")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job through the shared injector (the path for jobs that
    /// arrive one at a time, e.g. wire-protocol lines).
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.queued.fetch_add(1, Ordering::SeqCst);
        self.shared
            .injector
            .lock()
            .expect("injector not poisoned")
            .push_back(Box::new(job));
        self.shared.wakeup.notify_one();
    }

    /// Submits a job directly onto worker `worker % workers()`'s deque (the
    /// path for batch distribution: round-robin placement gives every
    /// worker a private run of jobs, and stealing rebalances the tail).
    pub fn spawn_at(&self, worker: usize, job: impl FnOnce() + Send + 'static) {
        let worker = worker % self.workers.len();
        self.shared.queued.fetch_add(1, Ordering::SeqCst);
        self.shared.local[worker]
            .lock()
            .expect("worker deque not poisoned")
            .push_back(Box::new(job));
        self.shared.wakeup.notify_all();
    }

    /// A snapshot of the pool counters.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            workers: self.workers.len() as u64,
            executed: self.shared.executed.load(Ordering::SeqCst),
            steals: self.shared.steals.load(Ordering::SeqCst),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wakeup.notify_all();
        // Joining the current thread would fail with a deadlock error, so
        // a worker dropping the pool leaves its own handle detached.
        let current = std::thread::current().id();
        for handle in self.workers.drain(..) {
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn executes_injected_jobs() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..100usize {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).expect("receiver alive"));
        }
        drop(tx);
        let mut seen: Vec<usize> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        assert_eq!(pool.counters().executed, 100);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        for i in 0..50usize {
            let tx = tx.clone();
            pool.spawn_at(i, move || tx.send(()).expect("receiver alive"));
        }
        drop(tx);
        drop(pool);
        assert_eq!(rx.iter().count(), 50);
    }

    #[test]
    fn idle_workers_steal_from_a_blocked_owner() {
        // Deterministic stealing with two workers: both jobs land on worker
        // 0's deque and the first blocks until the second has run.  Whether
        // worker 0 or worker 1 ends up holding the blocking job, the other
        // can only reach the second job by stealing it (steals ≥ 1), and
        // the test only terminates if it does.
        let pool = WorkerPool::new(2);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        pool.spawn_at(0, move || {
            release_rx.recv().expect("stolen job releases the owner");
        });
        // Wait until a worker has dequeued (and blocked inside) job 1, so
        // job 2 cannot be handed to it.
        while pool.shared.queued.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        pool.spawn_at(0, move || {
            done_tx.send(()).expect("test alive");
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the queued job must run while its owner blocks");
        let steals = pool.counters().steals;
        release_tx.send(()).expect("owner still blocked");
        drop(pool);
        assert!(steals >= 1, "the second job can only have been stolen");
    }

    #[test]
    fn a_job_dropping_the_last_owner_joins_the_other_workers() {
        // The pool is dropped on one of its own workers: that worker must
        // not try to join itself (std panics with "Resource deadlock
        // avoided"), and every other worker must still be joined.
        let pool = Arc::new(WorkerPool::new(3));
        let shared = Arc::clone(&pool.shared);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let last_owner = Arc::clone(&pool);
        pool.spawn(move || {
            release_rx.recv().expect("the caller lets go first");
            drop(last_owner);
            // Reached only if dropping the pool did not panic; by now the
            // other two workers have been joined and the pool is gone, so
            // only this worker's loop and this job hold the shared state.
            done_tx
                .send(Arc::strong_count(&shared))
                .expect("test alive");
        });
        drop(pool);
        release_tx.send(()).expect("job waiting");
        let holders = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the job must finish without panicking");
        assert_eq!(holders, 2, "the other workers must have been joined");
    }

    #[test]
    fn a_panicking_job_leaves_its_worker_serving() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.spawn(|| panic!("job failure"));
        for i in 0..5usize {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).expect("receiver alive"));
        }
        drop(tx);
        let seen: Vec<usize> = rx.iter().collect();
        assert_eq!(seen, (0..5).collect::<Vec<_>>());
        // The counter is bumped after each job returns; give the last one
        // a moment.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.counters().executed < 6 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.counters().executed, 6, "the panicked job counts too");
    }
}
