//! The serving layer's worker pool, built on `std` only.
//!
//! One FIFO queue under one mutex, paired with one condvar: [`WorkerPool::spawn`]
//! appends a job and wakes one idle worker, and every worker takes the
//! oldest queued job.  A worker blocked on a slow simulation therefore
//! never strands queued work: whichever worker is free runs the next job.
//! Each job here is a whole simulation (microseconds to seconds), so one
//! lock per job is noise.
//!
//! [`Engine::run_batch`](engine::Engine::run_batch) keeps its own scoped
//! fan-out: it borrows its requests, which a `'static` pool job cannot,
//! and its atomic cursor is already a shared FIFO.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counter snapshot of a [`WorkerPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolCounters {
    /// Number of worker threads.
    pub workers: u64,
    /// Jobs run, including jobs that panicked (the panic is contained and
    /// the worker keeps serving).
    pub executed: u64,
}

/// The queue and the shutdown flag, under one lock so an idle worker
/// cannot miss either a new job or the shutdown.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Idle workers wait here for a job or the shutdown.
    ready: Condvar,
    executed: AtomicU64,
}

impl Shared {
    /// The oldest queued job; `None` once the pool is shut down and the
    /// queue is drained.
    fn next_job(&self) -> Option<Job> {
        let mut queue = self.queue.lock().expect("job queue not poisoned");
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                return Some(job);
            }
            if queue.shutdown {
                return None;
            }
            queue = self.ready.wait(queue).expect("job queue not poisoned");
        }
    }

    fn worker_loop(&self) {
        while let Some(job) = self.next_job() {
            // A panicking job must not take its worker down with it: the
            // thread would be gone for good and fewer workers would serve
            // the queue.  Jobs own everything they touch, so nothing
            // half-updated outlives the unwind.
            let _ = catch_unwind(AssertUnwindSafe(job));
            self.executed.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// The worker pool.  Dropping it drains every queued job, then joins the
/// workers — all but the dropping thread itself when the last owner lets
/// go inside one of the pool's own jobs: that worker is detached and exits
/// on its own once the job returns and the queue is empty.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            executed: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|idx| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{idx}"))
                    .spawn(move || shared.worker_loop())
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

    /// Queues a job behind every job queued before it.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.shared
            .queue
            .lock()
            .expect("job queue not poisoned")
            .jobs
            .push_back(Box::new(job));
        self.shared.ready.notify_one();
    }

    /// A snapshot of the pool counters.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            workers: self.workers.len() as u64,
            executed: self.shared.executed.load(Ordering::SeqCst),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared
            .queue
            .lock()
            .expect("job queue not poisoned")
            .shutdown = true;
        self.shared.ready.notify_all();
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
    use std::time::Duration;

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
        for _ in 0..50usize {
            let tx = tx.clone();
            pool.spawn(move || tx.send(()).expect("receiver alive"));
        }
        drop(tx);
        drop(pool);
        assert_eq!(rx.iter().count(), 50);
    }

    #[test]
    fn a_free_worker_runs_the_job_queued_behind_a_blocked_one() {
        // Two workers: the first job blocks its worker until the second
        // job has run, so the test only terminates if the other, free
        // worker takes the second job off the shared queue.
        let pool = WorkerPool::new(2);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        pool.spawn(move || {
            started_tx.send(()).expect("test alive");
            release_rx.recv().expect("the test releases this job");
        });
        // The first job is dequeued and blocking before the second is
        // queued.
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the first job starts");
        pool.spawn(move || {
            done_tx.send(()).expect("test alive");
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the queued job must run while the other worker blocks");
        release_tx.send(()).expect("first job still blocked");
        drop(pool);
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
