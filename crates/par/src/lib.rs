//! # diam-par
//!
//! A **std-only** executor for the one parallel fan-out of the
//! diameter-bounding pipeline: `diam_core::PipelineResult::bound_targets`
//! bounds each target's cone as an independent job. Netlists are immutable
//! and each job is a pure function of them, so the jobs fan out across
//! scoped worker threads when `--jobs` (on `table1`, `table2` and
//! `ablation`) selects more than one.
//!
//! Design (no external dependencies):
//!
//! * **scoped workers** (`std::thread::scope`) — borrows of the netlist and
//!   job closures need no `'static` bound and no `Arc` plumbing;
//! * **one shared queue** — every worker pulls the next job, in index
//!   order, from one `Mutex` around the job list;
//! * **deterministic merge** — every job returns a value tagged with its
//!   original index; [`run`] reassembles results in original order, so the
//!   output is **independent of thread count and interleaving**. With
//!   [`Parallelism::Sequential`], one worker or at most one job, the *same
//!   job closure* runs inline in index order;
//! * **panics stop the queue** — once a job panics, no worker starts
//!   another job; the first panic is re-raised after the workers join.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// How many worker threads an orchestration layer may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run jobs inline on the calling thread, in original order.
    #[default]
    Sequential,
    /// Spawn `n` workers (clamped to at least 1 and at most the job count;
    /// one worker runs the jobs inline, like `Sequential`).
    Threads(usize),
    /// Use `std::thread::available_parallelism()`.
    Auto,
}

impl Parallelism {
    /// The number of workers this setting resolves to on this machine.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Parses a `--jobs` flag value: `seq`/`sequential`/`0` → sequential,
    /// `auto` → all cores, otherwise a thread count.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unparsable value.
    pub fn parse(s: &str) -> Result<Parallelism, String> {
        match s {
            "seq" | "sequential" | "0" => Ok(Parallelism::Sequential),
            "auto" => Ok(Parallelism::Auto),
            _ => s
                .parse::<usize>()
                .map(Parallelism::Threads)
                .map_err(|_| format!("bad --jobs value {s:?} (expected N, `seq`, or `auto`)")),
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Sequential => write!(f, "seq"),
            Parallelism::Threads(n) => write!(f, "{n}"),
            Parallelism::Auto => write!(f, "auto"),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A worker panic is caught and re-raised after the join; poisoning is
    // not an additional error condition worth propagating here.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f(index, job)` for every job and returns the results **in original
/// job order**.
///
/// * Workers start the jobs in index order, each taking the next one as it
///   finishes the last.
/// * With [`Parallelism::Sequential`] (or one worker, or ≤ 1 job) the jobs
///   run inline in index order — the exact same closure, so results are
///   bit-identical to any `Threads(n)` run as long as each job is
///   deterministic in isolation.
/// * A panicking job stops the queue: no worker starts another job. The
///   panic leaves a crash dump naming the worker and job (through
///   [`diam_obs::crash`], unless the process panic hook already wrote one),
///   and the first panic is re-raised after all workers join.
pub fn run<T, R, F>(par: Parallelism, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let total = jobs.len();
    let workers = par.workers().min(total.max(1));
    if matches!(par, Parallelism::Sequential) || workers <= 1 || total <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| f(i, job))
            .collect();
    }

    let queue = Mutex::new(jobs.into_iter().enumerate());
    let stopped = AtomicBool::new(false);
    diam_obs::gauge_set("par.workers", workers as i64);
    diam_obs::gauge_set("par.queue_depth", total as i64);
    // The next job, unless a panic stopped the queue. The `par.queue_depth`
    // gauge counts jobs not yet started, so live observers see the backlog
    // drain.
    let next = || {
        if stopped.load(Ordering::SeqCst) {
            return None;
        }
        let mut queue = lock(&queue);
        let job = queue.next();
        diam_obs::gauge_set("par.queue_depth", queue.len() as i64);
        job
    };

    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(total));
    // Observability: spans opened inside worker threads attach to the span
    // that was open on the *submitting* thread, and every event a worker
    // records carries its 1-based worker id — the schedule becomes visible
    // in the trace without affecting it.
    let obs_parent = diam_obs::current_span();
    // First panic payload across all workers; re-raised after the join so
    // the caller sees the same unwind it would get from a sequential run.
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|s| {
        for me in 0..workers {
            let (next, stopped, results, first_panic, f) =
                (&next, &stopped, &results, &first_panic, &f);
            s.spawn(move || {
                let wid = me as u32 + 1;
                diam_obs::set_ambient_parent(obs_parent);
                let mut local: Vec<(usize, R)> = Vec::new();
                while let Some((i, job)) = next() {
                    diam_obs::set_worker(wid, Some(i as u64));
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, job))) {
                        Ok(r) => local.push((i, r)),
                        Err(payload) => {
                            // Stop the queue before the crash dump exists, so
                            // no job starts once the panic is on record.
                            stopped.store(true, Ordering::SeqCst);
                            diam_obs::crash::record_worker_panic(payload.as_ref());
                            lock(first_panic).get_or_insert(payload);
                            break;
                        }
                    }
                }
                lock(results).extend(local);
            });
        }
    });

    if let Some(payload) = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        std::panic::resume_unwind(payload);
    }

    let mut tagged = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    tagged.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), total, "every job must produce a result");
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn square_all(par: Parallelism, n: usize) -> Vec<usize> {
        run(par, (0..n).collect(), |_, v| v * v)
    }

    #[test]
    fn results_preserve_original_order() {
        let expect: Vec<usize> = (0..257).map(|v| v * v).collect();
        for par in [
            Parallelism::Sequential,
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Threads(9),
            Parallelism::Auto,
        ] {
            assert_eq!(square_all(par, 257), expect, "{par}");
        }
    }

    #[test]
    fn empty_and_single_job_sets_work() {
        assert_eq!(square_all(Parallelism::Threads(4), 0), Vec::<usize>::new());
        assert_eq!(square_all(Parallelism::Threads(4), 1), vec![0]);
    }

    #[test]
    fn a_long_job_lets_other_workers_drain_the_queue() {
        // One huge job (job 0, started first) plus many small ones: the huge
        // job pins a worker, so the others must drain the shared queue to
        // finish.
        let done = AtomicUsize::new(0);
        let jobs: Vec<u64> = (0..100).collect();
        let out = run(Parallelism::Threads(4), jobs, |_, v| {
            if v == 0 {
                // Busy-wait until everyone else has finished: succeeds
                // only if other workers keep draining the queue.
                while done.load(Ordering::Acquire) < 99 {
                    std::thread::yield_now();
                }
            } else {
                done.fetch_add(1, Ordering::AcqRel);
            }
            v + 1
        });
        assert_eq!(out, (1..=100).collect::<Vec<u64>>());
    }

    #[test]
    fn parallelism_parses_jobs_flags() {
        assert_eq!(Parallelism::parse("seq"), Ok(Parallelism::Sequential));
        assert_eq!(Parallelism::parse("0"), Ok(Parallelism::Sequential));
        assert_eq!(Parallelism::parse("auto"), Ok(Parallelism::Auto));
        assert_eq!(Parallelism::parse("4"), Ok(Parallelism::Threads(4)));
        assert!(Parallelism::parse("four").is_err());
        assert!(Parallelism::Threads(0).workers() >= 1);
        assert!(Parallelism::Auto.workers() >= 1);
    }

    /// Routes crash dumps from panic tests into a per-process temp dir (set
    /// once, shared by every panic test) instead of the shared default
    /// `diam-crash`. Returns the directory for dump inspection.
    fn crash_dir_for_tests() -> std::path::PathBuf {
        use std::sync::OnceLock;
        static DIR: OnceLock<std::path::PathBuf> = OnceLock::new();
        DIR.get_or_init(|| {
            let dir = std::env::temp_dir().join(format!("diam-par-crash-{}", std::process::id()));
            diam_obs::crash::set_crash_dir(Some(dir.clone()));
            dir
        })
        .clone()
    }

    #[test]
    fn worker_panic_propagates_after_drain() {
        crash_dir_for_tests();
        let result = std::panic::catch_unwind(|| {
            run(
                Parallelism::Threads(2),
                (0..8).collect::<Vec<u64>>(),
                |_, v| {
                    if v == 5 {
                        panic!("job 5 exploded");
                    }
                    v
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn worker_panic_writes_dump_and_cancels_siblings() {
        let dir = crash_dir_for_tests();
        let before: usize = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);

        let result = std::panic::catch_unwind(|| {
            run(
                Parallelism::Threads(3),
                (0..24).collect::<Vec<u64>>(),
                |_, v| {
                    if v == 0 {
                        panic!("forced failure in job 0");
                    }
                    v
                },
            )
        });

        // The panic is re-raised after the join...
        assert!(result.is_err());
        // ...and exactly this panic produced a crash dump naming the worker
        // and the failing job.
        let dumps: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .expect("crash dir exists after a worker panic")
            .map(|e| e.expect("readable dir entry").path())
            .collect();
        assert!(dumps.len() > before, "worker panic must write a crash dump");
        // Other panic tests share the directory, so find *our* dump by its
        // panic message rather than assuming it is the newest file.
        let body = dumps
            .iter()
            .filter_map(|p| std::fs::read_to_string(p).ok())
            .find(|b| b.contains("forced failure in job 0"))
            .expect("a dump carries this test's panic message");
        assert!(body.contains("\"reason\":\"worker_panic\""), "{body}");
        assert!(body.contains("\"worker\":"), "{body}");
        assert!(body.contains("\"job\":0"), "{body}");
        assert!(body.contains("\"events\":"), "{body}");
    }

    /// The crash dump in `dir` whose body carries `message`, once written.
    fn dump_with(dir: &std::path::Path, message: &str) -> Option<String> {
        std::fs::read_dir(dir)
            .ok()?
            .filter_map(|e| std::fs::read_to_string(e.ok()?.path()).ok())
            .find(|b| b.contains(message))
    }

    #[test]
    fn a_panic_stops_the_queue() {
        // Job 0 panics once job 1 is running; job 1 returns only after job
        // 0's crash dump exists, i.e. after the panic was caught. The worker
        // that ran job 1 must then find the queue stopped: jobs 2.. never
        // start.
        let dir = crash_dir_for_tests();
        let started = Mutex::new(Vec::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(
                Parallelism::Threads(2),
                (0..8).collect::<Vec<u64>>(),
                |i, v| {
                    lock(&started).push(i);
                    match i {
                        0 => {
                            while !lock(&started).contains(&1) {
                                std::thread::yield_now();
                            }
                            panic!("job 0 stops the queue");
                        }
                        1 => {
                            while dump_with(&dir, "job 0 stops the queue").is_none() {
                                std::thread::yield_now();
                            }
                        }
                        _ => {}
                    }
                    v
                },
            )
        }));
        assert!(result.is_err(), "the panic is re-raised");
        let mut started = started.into_inner().unwrap();
        started.sort_unstable();
        assert_eq!(started, [0, 1], "no job starts after the panic");
    }
}
