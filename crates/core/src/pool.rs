//! Long-lived shard workers (DESIGN.md §9).
//!
//! A sharded runtime starts its `workers − 1` threads once, at
//! construction, names them `lego-worker-N` and joins them when it is
//! dropped. Each cycle the runtime thread runs shard 0 itself and hands
//! every other shard to its own thread as one job; [`ShardPool::run`]
//! returns once every job has finished. Between cycles a thread sleeps on
//! its inbox.
//!
//! A shard catches its own panics and drains its positions
//! (`WorkerRun::run`), so a panic that reaches the pool escaped a drain:
//! the recovery path itself is broken, nothing is left to finish that
//! shard's positions, and its peers would wait on them forever. The pool
//! aborts the process instead.
//!
//! A job borrows the cycle's window, which lives on the runtime thread's
//! stack, so the pool erases the job's lifetime on the way in. That is
//! the one `unsafe` block under `crates/`; its argument is the report
//! every job sends when it is done.

use std::panic::{self, AssertUnwindSafe};
use std::process;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};

/// One shard's share of a cycle, borrowing what the cycle borrows.
pub(crate) type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Threads that outlive every cycle, fed one job each per
/// [`ShardPool::run`].
pub(crate) struct ShardPool {
    /// One per thread; dropping them ends the threads.
    inboxes: Vec<Sender<Job<'static>>>,
    handles: Vec<JoinHandle<()>>,
    /// One report per finished job.
    done: Receiver<()>,
}

/// Run a shard's share of a cycle; abort if a panic escapes it.
fn shard(job: impl FnOnce()) {
    if panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
        process::abort();
    }
}

impl ShardPool {
    /// `threads` workers, named `lego-worker-1` up.
    pub(crate) fn new(threads: usize) -> Self {
        let (report, done) = mpsc::channel();
        let (inboxes, handles) = (1..=threads)
            .map(|n| {
                let (inbox, jobs) = mpsc::channel::<Job<'static>>();
                let report = report.clone();
                let handle = thread::Builder::new()
                    .name(format!("lego-worker-{n}"))
                    .spawn(move || {
                        for job in jobs {
                            // The job and its captures are gone when
                            // this returns: only then may it report.
                            shard(job);
                            if report.send(()).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn worker thread");
                (inbox, handle)
            })
            .unzip();
        ShardPool {
            inboxes,
            handles,
            done,
        }
    }

    /// Run each `(n, job)` on thread `n` (`lego-worker-{n + 1}`) while
    /// `inline` runs on this one, and return once all of them have
    /// finished. Nothing unwinds from here: a panic that escapes a job or
    /// `inline` aborts the process.
    pub(crate) fn run<'a>(
        &mut self,
        jobs: impl IntoIterator<Item = (usize, Job<'a>)>,
        inline: impl FnOnce(),
    ) {
        let mut sent = 0;
        for (n, job) in jobs {
            // SAFETY: `job` may borrow data that lives only for `'a`, and
            // the thread it goes to outlives that. Erasing the lifetime is
            // sound because this call cannot return or unwind before the
            // job has run and dropped its captures: a thread reports a
            // job only after running it has consumed it, and this call
            // returns only after one report per job sent. Nothing in
            // between unwinds: a panic in `inline` aborts, as does a send
            // or receive that fails, which would mean a thread is gone.
            // `&mut self` keeps a second `run` from taking these reports
            // meanwhile.
            let job = unsafe { std::mem::transmute::<Job<'a>, Job<'static>>(job) };
            if self.inboxes[n].send(job).is_err() {
                process::abort();
            }
            sent += 1;
        }
        shard(inline);
        for _ in 0..sent {
            if self.done.recv().is_err() {
                process::abort();
            }
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.inboxes.clear();
        for handle in self.handles.drain(..) {
            // A thread aborts rather than unwind, so a join cannot fail.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn run_returns_only_after_every_job_is_done_with_the_frame() {
        let mut pool = ShardPool::new(1);
        let mut written = 0u64;
        let job: Job<'_> = Box::new(|| {
            // Late enough that a dispatcher which did not wait would be
            // gone by then.
            thread::sleep(Duration::from_millis(50));
            written = 7;
        });
        pool.run([(0, job)], || {});
        assert_eq!(written, 7, "returned before the job wrote its borrow");
    }

    #[test]
    fn a_shard_that_caught_its_panic_leaves_its_thread_serving_the_next_cycle() {
        let mut pool = ShardPool::new(2);
        let mut drained = false;
        let job: Job<'_> = Box::new(|| {
            // A shard catches its own panic and drains (`WorkerRun::run`).
            let caught = panic::catch_unwind(|| panic!("worker shard"));
            drained = caught.is_err();
        });
        pool.run([(1, job)], || {});
        assert!(drained);

        let mut ran_on = [None, None];
        let [first, second] = &mut ran_on;
        let name = || thread::current().name().map(str::to_owned);
        let jobs: [(usize, Job<'_>); 2] = [
            (0, Box::new(|| *first = name())),
            (1, Box::new(|| *second = name())),
        ];
        pool.run(jobs, || {});
        assert_eq!(
            ran_on,
            [Some("lego-worker-1".into()), Some("lego-worker-2".into())]
        );
    }
}
