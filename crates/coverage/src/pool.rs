//! The workspace's one fan-out primitive: a persistent scoped worker pool.
//!
//! Every fan-out across threads goes through a [`WorkerPool`]: the
//! [`crate::CoverageEngine`]'s reports and verdict windows (one pool per
//! engine family, shared with its `with_test` siblings), `twm-fleet`'s
//! batches, `twm-search`'s candidate batches and `twm-repair`'s dictionary
//! builds. Threads spawn on the first fan-out that needs them and are
//! joined when the pool drops; a pool with zero workers runs inline.
//!
//! [`WorkerPool::run`] (one closure per job, results by job slot) and
//! [`WorkerPool::map`] (a function over a slice, results in input order)
//! are *scoped*: their closures may borrow from the caller's stack frame,
//! and neither returns until every closure has finished (or the pool
//! panics the caller after all of them have finished), which is what makes
//! the lifetime erasure below sound. Results never depend on the thread
//! count.
//!
//! **A job must not call `run` or `map` on the pool that is running it**:
//! the inner call would wait for workers that are all busy waiting for it.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A type-erased pool task.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Sends one completion token when dropped — even if the task panicked —
/// so [`WorkerPool::run`] can always wait for *all* in-flight borrows to
/// end before unwinding.
struct DoneGuard(mpsc::Sender<()>);

impl Drop for DoneGuard {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

/// The spawned half of a pool: job intake and the worker handles.
#[derive(Debug)]
struct Threads {
    sender: mpsc::Sender<Task>,
    handles: Vec<JoinHandle<()>>,
}

/// A fixed-size pool of persistent worker threads executing scoped jobs.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
    threads: OnceLock<Threads>,
}

impl WorkerPool {
    /// A pool of `workers` persistent threads, spawned on the first
    /// fan-out. The caller of [`WorkerPool::run`] / [`WorkerPool::map`]
    /// acts as one more worker, so a fan-out `t` threads wide builds a
    /// pool of `t - 1` workers; zero workers run everything inline.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            threads: OnceLock::new(),
        }
    }

    /// How many threads a fan-out runs on: the workers plus the caller.
    #[must_use]
    pub fn width(&self) -> usize {
        self.workers + 1
    }

    fn threads(&self) -> &Threads {
        self.threads.get_or_init(|| {
            let (sender, receiver) = mpsc::channel::<Task>();
            let receiver = Arc::new(Mutex::new(receiver));
            let handles = (0..self.workers)
                .map(|_| {
                    let receiver = Arc::clone(&receiver);
                    std::thread::spawn(move || loop {
                        // Take the next task under the lock (released at the
                        // end of the statement), then run it unlocked so
                        // workers execute concurrently.
                        let next = receiver.lock().expect("pool receiver lock poisoned").recv();
                        let Ok(task) = next else {
                            return; // pool dropped
                        };
                        // A panicking task must not kill the worker: its
                        // DoneGuard reports completion and `run` re-raises
                        // the panic on the calling thread.
                        let _ = catch_unwind(AssertUnwindSafe(task));
                    })
                })
                .collect();
            Threads { sender, handles }
        })
    }

    /// Runs `jobs` to completion, returning their results in job order.
    ///
    /// Job 0 executes on the calling thread (the caller is a worker too);
    /// the rest are dispatched to the pool. The call blocks until **every**
    /// job has finished — also when a pool job panics, in which case the
    /// panic is re-raised here after the remaining jobs have completed, so
    /// no borrow of the caller's frame can outlive the call. A single job,
    /// or a pool without workers, runs inline in job order.
    pub fn run<'env, T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        if jobs.len() <= 1 || self.workers == 0 {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let submitted = jobs.len() - 1;
        let (result_tx, result_rx) = mpsc::channel::<(usize, T)>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let mut jobs = jobs.into_iter();
        let first = jobs.next().expect("more than one job");

        let sender = &self.threads().sender;
        for (slot, job) in jobs.enumerate() {
            let result_tx = result_tx.clone();
            let done = DoneGuard(done_tx.clone());
            let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                let _done = done;
                let value = job();
                let _ = result_tx.send((slot, value));
            });
            // SAFETY: the task borrows data that lives for 'env, which
            // outlives this call. `run` does not return (normally or by
            // unwinding) until the task has dropped its DoneGuard —
            // i.e. until the task body, and with it every use of the
            // borrow, has ended — so the erased lifetime can never be
            // observed dangling.
            let task: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) };
            sender.send(task).expect("pool workers exited prematurely");
        }
        drop(result_tx);
        drop(done_tx);

        // The caller's own job can panic too; catch it so the completion
        // barrier below always runs, then re-raise.
        let first = catch_unwind(AssertUnwindSafe(first));

        // Wait for every dispatched task to finish (panicked or not) before
        // touching the results — the soundness barrier described above.
        for _ in 0..submitted {
            done_rx
                .recv()
                .expect("pool worker vanished with a task in flight");
        }
        let first = first.unwrap_or_else(|panic| resume_unwind(panic));

        let mut rest: Vec<(usize, T)> = result_rx.try_iter().collect();
        assert!(
            rest.len() == submitted,
            "a pool task panicked ({}/{submitted} results)",
            rest.len()
        );
        rest.sort_unstable_by_key(|&(slot, _)| slot);
        std::iter::once(first)
            .chain(rest.into_iter().map(|(_, value)| value))
            .collect()
    }

    /// Applies `f` to every item and returns the results in input order.
    ///
    /// Up to [`WorkerPool::width`] threads (the caller included) steal
    /// items one at a time from a shared cursor, so uneven item costs
    /// balance themselves. A panicking item does not stop the others: once
    /// every other item has finished, the panic of the lowest-indexed
    /// panicking item is re-raised here.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let cursor = AtomicUsize::new(0);
        let panicked: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
        let steal = || {
            let mut out = Vec::new();
            loop {
                let slot = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(slot) else {
                    return out;
                };
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(value) => out.push((slot, value)),
                    Err(payload) => {
                        let mut first = panicked.lock().unwrap_or_else(PoisonError::into_inner);
                        if first.as_ref().is_none_or(|&(at, _)| slot < at) {
                            *first = Some((slot, payload));
                        }
                    }
                }
            }
        };
        let steal = &steal;
        let per_worker = self.run((0..self.width().min(items.len())).map(|_| steal).collect());
        if let Some((_, payload)) = panicked
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
        let mut results: Vec<(usize, R)> = per_worker.into_iter().flatten().collect();
        results.sort_unstable_by_key(|&(slot, _)| slot);
        results.into_iter().map(|(_, value)| value).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends the worker loops; join so no detached
        // thread outlives the pool's owner.
        if let Some(Threads { sender, handles }) = self.threads.take() {
            drop(sender);
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let pool = WorkerPool::new(3);
        let data: Vec<usize> = (0..17).collect();
        let jobs: Vec<_> = data
            .iter()
            .map(|&n| move || n * 2) // borrows `data` via the captured reference
            .collect();
        let results = pool.run(jobs);
        assert_eq!(results, (0..17).map(|n| n * 2).collect::<Vec<_>>());

        // `map` keeps input order at every width, and with more threads
        // than items.
        for workers in [0, 1, 2, 5] {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.width(), workers + 1);
            for len in [1, 2, 3, 17] {
                let doubled = pool.map(&data[..len], |&n| n * 2);
                assert_eq!(doubled, (0..len).map(|n| n * 2).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn pool_is_reusable_and_shared_across_runs() {
        let pool = Arc::new(WorkerPool::new(2));
        for round in 0..10 {
            let results = pool.run((0..5).map(|n| move || n + round).collect::<Vec<_>>());
            assert_eq!(results, (0..5).map(|n| n + round).collect::<Vec<_>>());
        }
        // Concurrent runs and maps from several threads interleave safely.
        let items: Vec<usize> = (0..7).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let items = &items;
                scope.spawn(move || {
                    for _ in 0..20 {
                        let results = pool.run((0..7).map(|n| move || n * n).collect::<Vec<_>>());
                        assert_eq!(results, (0..7).map(|n| n * n).collect::<Vec<_>>());
                        assert_eq!(pool.map(items, |&n| n * n), results);
                    }
                });
            }
        });
    }

    #[test]
    fn single_job_runs_on_the_caller() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let results = pool.run(vec![move || std::thread::current().id() == caller]);
        assert_eq!(results, vec![true]);
        let results = pool.map(&[()], |()| std::thread::current().id() == caller);
        assert_eq!(results, vec![true]);
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let pool = WorkerPool::new(1);
        let results: Vec<u8> = pool.run(Vec::<fn() -> u8>::new());
        assert!(results.is_empty());
        let results: Vec<u8> = pool.map(&[] as &[u8], |&n| n);
        assert!(results.is_empty());
    }

    #[test]
    fn panicking_job_propagates_after_the_window_completes() {
        let pool = WorkerPool::new(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                (0..4)
                    .map(|n| {
                        move || {
                            assert!(n != 2, "job 2 fails");
                            n
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        assert!(outcome.is_err());
        // The pool survives a panicked window.
        assert_eq!(pool.run(vec![|| 7]), vec![7]);

        // A panicking `map` item is re-raised after every other item has
        // run, at any width, and the pool stays usable.
        let items: Vec<usize> = (0..9).collect();
        for workers in [0, 1, 2] {
            let pool = WorkerPool::new(workers);
            let finished = AtomicUsize::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.map(&items, |&n| {
                    assert!(n != 3, "item 3 fails");
                    finished.fetch_add(1, Ordering::Relaxed);
                })
            }));
            let payload = outcome.expect_err("the item's panic is re-raised");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 3 fails"));
            assert_eq!(finished.load(Ordering::Relaxed), items.len() - 1);
            assert_eq!(pool.map(&items, |&n| n + 1), (1..10).collect::<Vec<_>>());
        }
    }
}
