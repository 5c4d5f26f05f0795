//! # trx-pool
//!
//! A persistent, scoped worker pool. The campaign executor used to spawn a
//! fresh batch of OS threads for every batch of tests (`parallel_map`);
//! under heavy triage traffic that means thousands of short-lived threads.
//! [`with_pool`] instead spawns the workers once inside a
//! [`std::thread::scope`] and keeps them alive for the whole campaign /
//! reduction / pipeline run, feeding them jobs over a channel.
//!
//! The pool is deliberately tiny and `forbid(unsafe_code)`-clean:
//!
//! * Jobs are `FnOnce() + Send + 'env` boxes delivered over an MPSC channel
//!   guarded by a mutex; workers exit when the pool (and with it the job
//!   sender) is dropped at the end of the `with_pool` closure.
//! * Because the job channel's lifetime is fixed at pool creation, a job
//!   may only capture data that outlives the pool (`'env`) or owned values
//!   moved into the closure. Callers that need per-call state share it via
//!   `Arc` / moves and collect results over a per-call channel —
//!   [`WorkerPool::map`] packages that pattern.
//! * A panicking job never kills a worker: results travel as
//!   [`std::thread::Result`] and [`WorkerPool::map`] re-raises the panic on
//!   the calling thread, matching the semantics of the scoped-thread
//!   `parallel_map` it replaces.
//!
//! Nested use (calling [`WorkerPool::map`] from inside a job running on the
//! same pool) can deadlock a single-threaded pool and is not supported;
//! the harness's pool jobs (campaign tests, per-bug reductions) never
//! submit work of their own.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

use trx_observe::{Counter, Scope, SinkHandle};

/// A boxed unit of work executed by a pool worker.
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Handle to a running worker pool; only obtainable inside [`with_pool`].
pub struct WorkerPool<'env> {
    sender: Sender<Job<'env>>,
    threads: usize,
    sink: SinkHandle,
}

impl<'env> WorkerPool<'env> {
    /// Number of worker threads serving this pool (always ≥ 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueues one job. The job's captures must outlive the pool (`'env`)
    /// — share shorter-lived state via `Arc`/moves and report results over
    /// a channel owned by the caller.
    pub fn submit(&self, job: impl FnOnce() + Send + 'env) {
        // Pool task counts are scheduling-dependent (a serial run never
        // creates a pool), so the counter is volatile-level and absent from
        // deterministic metrics snapshots.
        self.sink.count(Scope::Pool, Counter::PoolTasks, 1);
        // Send only fails if every worker exited, which cannot happen while
        // the pool (the only sender) is alive.
        let _ = self.sender.send(Box::new(job));
    }

    /// Runs `f(0..count)` across the workers and returns the results in
    /// index order. Blocks until every job finished. If any job panicked,
    /// the panic is re-raised here after all jobs completed, mirroring the
    /// scoped-thread `parallel_map` this pool replaces.
    pub fn map<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send + 'env,
        F: Fn(usize) -> T + Send + Sync + 'env,
    {
        if count == 0 {
            return Vec::new();
        }
        let f = Arc::new(f);
        let (tx, rx) = channel::<(usize, thread::Result<T>)>();
        for index in 0..count {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            self.submit(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| f(index)));
                let _ = tx.send((index, outcome));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for _ in 0..count {
            let (index, outcome) = rx.recv().expect("pool dropped a map result");
            match outcome {
                Ok(value) => slots[index] = Some(value),
                Err(payload) => panic = Some(payload),
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every map index resolves exactly once"))
            .collect()
    }
}

/// Spawns `threads.max(1)` workers, hands the pool to `f`, and joins the
/// workers once `f` returns. Jobs submitted by `f` may capture anything
/// that outlives the `with_pool` call itself.
pub fn with_pool<'env, R>(threads: usize, f: impl FnOnce(&WorkerPool<'env>) -> R) -> R {
    with_pool_observed(threads, SinkHandle::noop(), f)
}

/// Like [`with_pool`], but every submitted job bumps the volatile
/// `pool_tasks` counter on `sink` (scope `pool`).
pub fn with_pool_observed<'env, R>(
    threads: usize,
    sink: SinkHandle,
    f: impl FnOnce(&WorkerPool<'env>) -> R,
) -> R {
    let threads = threads.max(1);
    thread::scope(|scope| {
        let (sender, receiver) = channel::<Job<'env>>();
        let receiver = Arc::new(Mutex::new(receiver));
        for _ in 0..threads {
            let receiver = Arc::clone(&receiver);
            scope.spawn(move || worker_loop(&receiver));
        }
        let pool = WorkerPool { sender, threads, sink };
        let result = f(&pool);
        // Dropping the pool closes the job channel; every worker's `recv`
        // errors out and the scope can join them. Without this the scope
        // would deadlock waiting on workers blocked in `recv`.
        drop(pool);
        result
    })
}

/// Pulls jobs until the channel closes. The lock is released before the
/// job runs so workers only serialize on queue access, not on the work.
fn worker_loop(receiver: &Mutex<Receiver<Job<'_>>>) {
    loop {
        let job = {
            let guard = receiver.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        match job {
            Ok(job) => job(),
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_returns_results_in_index_order() {
        let doubled = with_pool(4, |pool| pool.map(64, |i| i * 2));
        assert_eq!(doubled, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_degrades_to_one_worker() {
        let out = with_pool(0, |pool| {
            assert_eq!(pool.threads(), 1);
            pool.map(5, |i| i + 1)
        });
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn workers_persist_across_map_calls() {
        // Every map call reuses the same workers: the set of thread ids
        // seen across calls stays bounded by the pool size.
        let ids = with_pool(2, |pool| {
            let mut all = std::collections::BTreeSet::new();
            for _ in 0..8 {
                let batch: Vec<String> =
                    pool.map(4, |_| format!("{:?}", thread::current().id()));
                all.extend(batch);
            }
            all
        });
        assert!(ids.len() <= 2, "expected at most 2 worker ids, saw {ids:?}");
    }

    #[test]
    fn jobs_can_borrow_env_data() {
        let counter = AtomicUsize::new(0);
        with_pool(3, |pool| {
            let (tx, rx) = channel();
            for _ in 0..10 {
                let tx = tx.clone();
                let counter = &counter;
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send(());
                });
            }
            drop(tx);
            for _ in 0..10 {
                rx.recv().unwrap();
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn observed_pool_counts_submitted_jobs() {
        let sink = Arc::new(trx_observe::RecordingSink::full());
        let handle = SinkHandle::new(sink.clone());
        with_pool_observed(2, handle, |pool| {
            let _ = pool.map(9, |i| i);
        });
        assert_eq!(sink.snapshot().counter("pool", Counter::PoolTasks), 9);
    }

    #[test]
    fn map_repropagates_job_panics() {
        let result = std::panic::catch_unwind(|| {
            with_pool(2, |pool| {
                pool.map(8, |i| {
                    assert!(i != 5, "boom at 5");
                    i
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        with_pool(1, |pool| {
            let first = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.map(1, |_| -> usize { panic!("poison job") })
            }));
            assert!(first.is_err());
            // The single worker absorbed the panic and still serves jobs.
            assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
        });
    }
}
