//! A priority job queue with dependency edges.
//!
//! The experiment service schedules its work — NN training and simulation
//! cells — through this queue rather than ad-hoc loops: jobs carry a
//! priority and may depend on other jobs (train-before-simulate), and the
//! queue drains in dependency waves through
//! [`crate::sweep::run_parallel`], so results keep the determinism
//! contract of the sweep engine (each job's result depends only on its
//! payload, never on scheduling order). Every enqueued job runs exactly
//! once.

use crate::sweep;

/// Handle to one enqueued job (an index into the queue's result vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(usize);

impl JobId {
    /// The job's index in the [`JobQueue::drain`] result vector.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug)]
struct Slot<J> {
    /// `Some` until the job dispatches.
    payload: Option<J>,
    priority: i64,
    deps: Vec<JobId>,
}

/// A dependency-aware priority queue of jobs of type `J`.
#[derive(Debug, Default)]
pub struct JobQueue<J> {
    slots: Vec<Slot<J>>,
}

impl<J: Send> JobQueue<J> {
    /// An empty queue.
    pub fn new() -> Self {
        JobQueue { slots: Vec::new() }
    }

    /// Number of jobs enqueued.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the queue holds no jobs at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Enqueues a job. Higher `priority` dispatches earlier within a
    /// dependency wave; ties break by enqueue order.
    pub fn enqueue(&mut self, job: J, priority: i64) -> JobId {
        self.slots.push(Slot {
            payload: Some(job),
            priority,
            deps: Vec::new(),
        });
        JobId(self.slots.len() - 1)
    }

    /// Records that `job` must not start before `dep` has completed.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or the edge is a self-loop.
    pub fn add_dependency(&mut self, job: JobId, dep: JobId) {
        assert!(job.0 < self.slots.len() && dep.0 < self.slots.len(), "unknown job id");
        assert_ne!(job, dep, "a job cannot depend on itself");
        self.slots[job.0].deps.push(dep);
    }

    /// Runs every job to completion on `threads` workers and returns the
    /// results indexed by [`JobId`].
    ///
    /// Jobs dispatch in dependency waves: each wave is every pending job
    /// whose dependencies are all done, ordered by (priority descending,
    /// id ascending), and runs through [`sweep::run_parallel`].
    ///
    /// # Panics
    ///
    /// Panics if the dependency graph has a cycle (some jobs can never
    /// become ready).
    pub fn drain<R: Send>(mut self, threads: usize, f: impl Fn(J) -> R + Sync) -> Vec<R> {
        let mut results: Vec<Option<R>> = (0..self.slots.len()).map(|_| None).collect();
        loop {
            let mut ready: Vec<usize> = (0..self.slots.len())
                .filter(|&i| {
                    self.slots[i].payload.is_some()
                        && self.slots[i].deps.iter().all(|d| results[d.0].is_some())
                })
                .collect();
            if ready.is_empty() {
                let stuck = self.slots.iter().filter(|s| s.payload.is_some()).count();
                assert!(stuck == 0, "dependency cycle: {stuck} job(s) can never become ready");
                return results.into_iter().map(|r| r.expect("every job ran")).collect();
            }
            ready.sort_by_key(|&i| (-self.slots[i].priority, i));
            let jobs: Vec<(usize, J)> = ready
                .iter()
                .map(|&i| (i, self.slots[i].payload.take().expect("pending job has a payload")))
                .collect();
            for (i, r) in sweep::run_parallel(jobs, threads, |(i, job)| (i, f(job))) {
                results[i] = Some(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_indexed_by_job_id() {
        let mut q = JobQueue::new();
        let ids: Vec<JobId> = (0..5).map(|i| q.enqueue(i, 0)).collect();
        let out = q.drain(2, |i: i32| i * 10);
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(out[id.index()], k as i32 * 10);
        }
    }

    #[test]
    fn priority_orders_a_wave() {
        let mut q = JobQueue::new();
        q.enqueue("low", -1);
        q.enqueue("high", 10);
        q.enqueue("mid", 3);
        let order = std::sync::Mutex::new(Vec::new());
        // Single-threaded drain dispatches strictly in wave order.
        q.drain(1, |name: &str| order.lock().unwrap().push(name));
        assert_eq!(*order.lock().unwrap(), vec!["high", "mid", "low"]);
    }

    #[test]
    fn dependencies_run_before_dependents() {
        let mut q = JobQueue::new();
        // Dependent enqueued first and with the higher priority — the
        // dependency edge must still win.
        let cell = q.enqueue("cell", 100);
        let train = q.enqueue("train", 0);
        q.add_dependency(cell, train);
        let order = std::sync::Mutex::new(Vec::new());
        q.drain(4, |name: &str| order.lock().unwrap().push(name));
        assert_eq!(*order.lock().unwrap(), vec!["train", "cell"]);
    }

    #[test]
    fn diamond_dependencies_drain_in_waves() {
        let mut q = JobQueue::new();
        let root = q.enqueue(0usize, 0);
        let left = q.enqueue(1, 0);
        let right = q.enqueue(2, 0);
        let join = q.enqueue(3, 0);
        q.add_dependency(left, root);
        q.add_dependency(right, root);
        q.add_dependency(join, left);
        q.add_dependency(join, right);
        let out = q.drain(4, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "dependency cycle")]
    fn cycles_panic_instead_of_hanging() {
        let mut q = JobQueue::new();
        let a = q.enqueue(1, 0);
        let b = q.enqueue(2, 0);
        q.add_dependency(a, b);
        q.add_dependency(b, a);
        q.drain(1, |i: i32| i);
    }

    #[test]
    #[should_panic(expected = "cannot depend on itself")]
    fn self_edges_are_rejected() {
        let mut q = JobQueue::new();
        let a = q.enqueue(1, 0);
        q.add_dependency(a, a);
    }
}
