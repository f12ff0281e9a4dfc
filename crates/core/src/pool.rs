//! Long-lived shard workers (DESIGN.md §9).
//!
//! A sharded runtime starts its `workers − 1` threads once, at
//! construction, names them `lego-worker-N` and joins them when it is
//! dropped. Each cycle the runtime thread runs shard 0 itself and hands
//! every other shard to its own thread as one job; [`ShardPool::run`]
//! returns once every job has finished. Between cycles a thread sleeps on
//! its inbox.
//!
//! A job borrows the cycle's window, which lives on the runtime thread's
//! stack, so the pool erases the job's lifetime on the way in. That is
//! the one `unsafe` block under `crates/`; its argument is the report
//! every job sends when it is done.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};

/// One shard's share of a cycle, borrowing what the cycle borrows.
pub(crate) type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

/// What a job reports when it is done: its panic, if it had one.
type Report = Option<Box<dyn Any + Send>>;

/// Threads that outlive every cycle, fed one job each per
/// [`ShardPool::run`].
pub(crate) struct ShardPool {
    /// One per thread; dropping them ends the threads.
    inboxes: Vec<Sender<Job<'static>>>,
    handles: Vec<JoinHandle<()>>,
    reports: Receiver<Report>,
}

/// The reports one [`ShardPool::run`] still waits for. Dropping it waits
/// them out, so nothing unwinds out of `run` while a job still borrows
/// the caller's frame.
struct Outstanding<'p> {
    reports: &'p Receiver<Report>,
    jobs: usize,
}

impl Outstanding<'_> {
    /// Wait for every outstanding job; the first panic among them.
    fn wait(&mut self) -> Report {
        let mut first = None;
        while self.jobs > 0 {
            // Every thread holds a sender, so this fails only with the
            // pool's threads all gone, and then nothing is outstanding.
            let Ok(report) = self.reports.recv() else {
                break;
            };
            self.jobs -= 1;
            first = first.or(report);
        }
        first
    }
}

impl Drop for Outstanding<'_> {
    fn drop(&mut self) {
        // Unwinding, a job's own panic is dropped: the caller's is
        // already on its way up.
        drop(self.wait());
    }
}

impl ShardPool {
    /// `threads` workers, named `lego-worker-1` up.
    pub(crate) fn new(threads: usize) -> Self {
        let (report, reports) = mpsc::channel();
        let (inboxes, handles) = (1..=threads)
            .map(|n| {
                let (inbox, jobs) = mpsc::channel::<Job<'static>>();
                let report = report.clone();
                let handle = thread::Builder::new()
                    .name(format!("lego-worker-{n}"))
                    .spawn(move || {
                        for job in jobs {
                            // The job and its captures are gone when
                            // this returns, panic or not: only then may
                            // it report.
                            let outcome = panic::catch_unwind(AssertUnwindSafe(job));
                            if report.send(outcome.err()).is_err() {
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
            reports,
        }
    }

    /// Run each `(n, job)` on thread `n` (`lego-worker-{n + 1}`) while
    /// `inline` runs on this one, and return once all of them have
    /// finished. A panic in `inline` unwinds from here after the jobs
    /// finish; otherwise a job's panic is re-raised here.
    pub(crate) fn run<'a>(
        &mut self,
        jobs: impl IntoIterator<Item = (usize, Job<'a>)>,
        inline: impl FnOnce(),
    ) {
        let mut outstanding = Outstanding {
            reports: &self.reports,
            jobs: 0,
        };
        for (n, job) in jobs {
            // SAFETY: `job` may borrow data that lives only for `'a`, and
            // the thread it goes to outlives that. Erasing the lifetime is
            // sound because this call cannot return or unwind before the
            // job has run and dropped its captures: a thread reports a
            // job only after `catch_unwind` has consumed it, and every
            // exit from here first receives one report per job sent, the
            // unwinding ones through `outstanding`'s drop. A send that
            // fails hands the job back, and it drops here. `&mut self`
            // keeps a second `run` from taking these reports meanwhile.
            let job = unsafe { std::mem::transmute::<Job<'a>, Job<'static>>(job) };
            self.inboxes[n]
                .send(job)
                .expect("shard threads live as long as the pool");
            outstanding.jobs += 1;
        }
        inline();
        if let Some(panic) = outstanding.wait() {
            panic::resume_unwind(panic);
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.inboxes.clear();
        for handle in self.handles.drain(..) {
            // A thread catches every job's panic, so a join cannot fail.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Sets its flag when dropped: unwinding past it is observable.
    struct SetOnDrop<'f>(&'f AtomicBool);

    impl Drop for SetOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn an_inline_panic_unwinds_only_after_every_job_is_done_with_the_frame() {
        let mut pool = ShardPool::new(1);
        let mut written = 0u64;
        let unwinding = AtomicBool::new(false);
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
            let (written, unwinding) = (&mut written, &unwinding);
            let job: Job<'_> = Box::new(move || {
                // The write through the borrow comes after the inline
                // shard has panicked, and late enough that a dispatcher
                // which did not wait would be gone by then.
                while !unwinding.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
                thread::sleep(Duration::from_millis(50));
                *written = 7;
            });
            pool.run([(0, job)], || {
                let _flag = SetOnDrop(unwinding);
                panic!("inline shard");
            });
        }));
        let payload = unwound.expect_err("the inline panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"inline shard"));
        assert_eq!(written, 7, "unwound before the job wrote its borrow");
    }

    #[test]
    fn a_job_panic_is_raised_on_the_caller_and_its_thread_serves_the_next_job() {
        let mut pool = ShardPool::new(2);
        let raised = panic::catch_unwind(AssertUnwindSafe(|| {
            let job: Job<'_> = Box::new(|| panic!("worker shard"));
            pool.run([(1, job)], || {});
        }));
        let payload = raised.expect_err("the job's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker shard"));

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
