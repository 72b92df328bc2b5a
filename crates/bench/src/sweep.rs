//! A dependency-free worker pool for embarrassingly parallel experiment
//! sweeps.
//!
//! Every figure binary boils down to "run N independent simulations, then
//! aggregate". Each simulation is seeded and self-contained, so the only
//! thing parallelism must preserve is the *order* of results —
//! [`run_parallel`] guarantees result `i` corresponds to job `i` regardless
//! of thread count or completion order, which is what makes `--threads 1`
//! and `--threads 8` produce byte-identical tables.
//!
//! Built on [`std::thread::scope`] so jobs may borrow from the caller's
//! stack (workload specs, trained networks) without `Arc`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: the host's available parallelism, or 1 if it
/// cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` over every job on a pool of `threads` scoped workers and
/// returns the results **in input order**.
///
/// The pool never grows past [`default_threads`]: asking for more workers
/// than the host has only adds context switches, and since results are
/// order-preserving the clamp cannot change them.
///
/// With `threads == 1` (or fewer than two jobs) no threads are spawned and
/// the jobs run serially on the caller's thread, reproducing the historical
/// serial path bit-for-bit. Otherwise workers pull jobs from a shared
/// atomic cursor (dynamic scheduling: long jobs don't convoy short ones)
/// and write each result into its job's dedicated slot.
///
/// # Panics
///
/// If `threads == 0`, or if `f` panics on any job (the panic is propagated
/// when the scope joins).
pub fn run_parallel<J, R, F>(jobs: Vec<J>, threads: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let threads = threads.min(default_threads());
    if threads == 1 || jobs.len() < 2 {
        return jobs.into_iter().map(f).collect();
    }
    let n = jobs.len();
    // Jobs are taken (moved out) exactly once each; results land in the
    // slot matching their job index. Per-slot mutexes are uncontended — the
    // atomic cursor hands every index to exactly one worker.
    let queue: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let (queue, slots_ref, cursor, f) = (&queue, &slots, &cursor, &f);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = queue[i]
                    .lock()
                    .expect("job queue poisoned")
                    .take()
                    .expect("job dispatched twice");
                let result = f(job);
                *slots_ref[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without storing a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let out = run_parallel(jobs, 8, |j| j * j);
        let expected: Vec<u64> = (0..100).map(|j| j * j).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let jobs: Vec<u32> = (0..37).collect();
        let serial = run_parallel(jobs.clone(), 1, |j| j.wrapping_mul(2654435761));
        let parallel = run_parallel(jobs, 5, |j| j.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_threads_than_jobs() {
        let out = run_parallel(vec![1, 2, 3], 64, |j| j + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_single_job() {
        let none: Vec<i32> = run_parallel(Vec::new(), 4, |j: i32| j);
        assert!(none.is_empty());
        assert_eq!(run_parallel(vec![7], 4, |j| j * 3), vec![21]);
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let table: Vec<u64> = (0..16).map(|i| i * 10).collect();
        let out = run_parallel((0..16usize).collect(), 4, |i| table[i] + 1);
        assert_eq!(out[15], 151);
    }

    #[test]
    fn workers_never_outnumber_the_host() {
        let ids = Mutex::new(std::collections::HashSet::new());
        run_parallel((0..256).collect(), 64, |_: u32| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let workers = ids.into_inner().unwrap().len();
        assert!(workers <= default_threads(), "{workers} workers on a {}-way host", default_threads());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        run_parallel(vec![1], 0, |j: i32| j);
    }
}
