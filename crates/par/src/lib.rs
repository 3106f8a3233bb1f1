//! # diam-par
//!
//! A **std-only** work-stealing executor for the embarrassingly parallel
//! layers of the diameter-bounding pipeline: per-target cone jobs (bounding,
//! classification, BMC) are independent — netlists are immutable and every
//! SAT/BDD engine instance is task-local — so the orchestration layers fan
//! them out across scoped worker threads.
//!
//! Design (no external dependencies):
//!
//! * **scoped workers** (`std::thread::scope`) — borrows of the netlist and
//!   job closures need no `'static` bound and no `Arc` plumbing;
//! * **global injector + per-worker deques** — jobs are sorted
//!   largest-weight-first; each worker is seeded with one job and pulls the
//!   next-largest from the injector when its own deque runs dry, falling
//!   back to stealing from a sibling's deque (oldest-first) — a classic
//!   greedy-makespan schedule;
//! * **deterministic merge** — every job returns a value tagged with its
//!   original index; [`run`] reassembles results in original order, so the
//!   output is **independent of thread count and interleaving**. With
//!   [`Parallelism::Sequential`] the *same job closures* execute inline in
//!   index order, which is what makes `Threads(n)` output bit-identical to
//!   sequential output in the consumers (`diam_bmc::prove_all`,
//!   `diam_core::Pipeline::bound_targets`);
//! * **cooperative cancellation** — jobs receive a shared [`CancelToken`];
//!   long-running jobs poll it at loop boundaries.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use diam_obs::ring::{self, RingKind};

/// How many worker threads an orchestration layer may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run jobs inline on the calling thread, in original order.
    #[default]
    Sequential,
    /// Spawn exactly `n` workers (clamped to at least 1; `Threads(1)` runs
    /// inline but through the same job path as larger counts).
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

/// A shared, clonable cancellation flag. Cancellation is cooperative: jobs
/// poll [`CancelToken::is_cancelled`] at convenient boundaries (e.g. between
/// BMC depths) and wind down early.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// One indexed job waiting to run.
type Job<T> = (usize, T);

struct WorkQueues<T> {
    /// Global backlog, largest-weight-first.
    injector: Mutex<VecDeque<Job<T>>>,
    /// Per-worker deques (seeded round-robin; owner pops the front, thieves
    /// steal from the back).
    deques: Vec<Mutex<VecDeque<Job<T>>>>,
    /// Jobs not yet finished (guard-decremented, so panics still drain it).
    pending: AtomicUsize,
    /// Jobs not yet *started* — drives the `par.queue_depth` gauge so live
    /// observers can see backlog drain; never read for scheduling.
    queued: AtomicUsize,
}

impl<T> WorkQueues<T> {
    fn pop(&self, me: usize) -> Option<Job<T>> {
        // 1. Own deque, front (largest seeded job first).
        if let Some(job) = lock(&self.deques[me]).pop_front() {
            return Some(job);
        }
        // 2. Global injector, front (next-largest unclaimed job).
        if let Some(job) = lock(&self.injector).pop_front() {
            return Some(job);
        }
        // 3. Steal from a sibling, back (its smallest job — cheap to move).
        for k in 1..self.deques.len() {
            let victim = (me + k) % self.deques.len();
            if let Some(job) = lock(&self.deques[victim]).pop_back() {
                return Some(job);
            }
        }
        None
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A worker panic unwinds through `scope` anyway; poisoning is not an
    // additional error condition worth propagating here.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Decrements `pending` even if the job panics, so sibling workers can
/// still terminate and `std::thread::scope` can propagate the panic.
struct PendingGuard<'a>(&'a AtomicUsize);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Runs `f(index, job, token)` for every job and returns the results **in
/// original job order**. All jobs share one fresh [`CancelToken`].
///
/// * `weight` prioritizes scheduling (largest first — for per-target proof
///   jobs this is "largest cone first", so the long pole starts
///   immediately); it never affects *results*, only makespan.
/// * With [`Parallelism::Sequential`] (or one worker, or ≤ 1 job) the jobs
///   run inline in index order — the exact same closures, so results are
///   bit-identical to any `Threads(n)` run as long as each job is
///   deterministic in isolation.
/// * A panicking job cancels the shared token, records the failure in the
///   observability flight recorder (and writes a crash dump via
///   [`diam_obs::crash`] unless the process panic hook already did), then is
///   re-raised after all workers drain. Sibling workers keep draining the
///   queue, but with the token cancelled cooperative jobs finish early.
pub fn run<T, R, W, F>(par: Parallelism, jobs: Vec<T>, weight: W, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    W: Fn(&T) -> u64,
    F: Fn(usize, T, &CancelToken) -> R + Sync,
{
    let token = &CancelToken::new();
    let total = jobs.len();
    let workers = par.workers().min(total.max(1));
    if matches!(par, Parallelism::Sequential) || workers <= 1 || total <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| f(i, job, token))
            .collect();
    }

    // Largest-weight-first, index as the deterministic tie-break.
    let mut order: Vec<(u64, usize, T)> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| (weight(&job), i, job))
        .collect();
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    // Seed each worker with one job; the rest form the global backlog.
    let mut seeds: Vec<VecDeque<Job<T>>> = (0..workers).map(|_| VecDeque::new()).collect();
    let mut backlog: VecDeque<Job<T>> = VecDeque::new();
    for (pos, (_, i, job)) in order.into_iter().enumerate() {
        if pos < workers {
            seeds[pos].push_back((i, job));
        } else {
            backlog.push_back((i, job));
        }
    }
    let queues = WorkQueues {
        injector: Mutex::new(backlog),
        deques: seeds.into_iter().map(Mutex::new).collect(),
        pending: AtomicUsize::new(total),
        queued: AtomicUsize::new(total),
    };
    diam_obs::gauge_set("par.workers", workers as i64);
    diam_obs::gauge_set("par.queue_depth", total as i64);

    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(total));
    // Observability: spans opened inside worker threads attach to the span
    // that was open on the *submitting* thread, and every event a worker
    // records carries its 1-based worker id — the schedule becomes visible
    // in the trace without affecting it.
    let obs_parent = diam_obs::current_span();
    // First panic payload across all workers; re-raised after the drain so
    // the caller sees the same unwind it would get from a sequential run.
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|s| {
        for me in 0..workers {
            let queues = &queues;
            let results = &results;
            let first_panic = &first_panic;
            let f = &f;
            s.spawn(move || {
                let wid = me as u32 + 1;
                diam_obs::set_worker(wid);
                diam_obs::set_ambient_parent(obs_parent);
                ring::note(RingKind::Worker, "par.worker_start", u64::from(wid), 0);
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    match queues.pop(me) {
                        Some((i, job)) => {
                            let _guard = PendingGuard(&queues.pending);
                            if diam_obs::enabled() {
                                let left = queues
                                    .queued
                                    .fetch_sub(1, Ordering::AcqRel)
                                    .saturating_sub(1);
                                diam_obs::gauge_set("par.queue_depth", left as i64);
                            }
                            ring::note(RingKind::Job, "par.job", i as u64, 0);
                            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                f(i, job, token)
                            })) {
                                Ok(r) => local.push((i, r)),
                                Err(payload) => {
                                    // Stop siblings cooperatively, leave the
                                    // forensic trail, and stop taking work.
                                    token.cancel();
                                    diam_obs::crash::record_worker_panic(
                                        wid,
                                        i as u64,
                                        payload.as_ref(),
                                    );
                                    let mut slot = lock(first_panic);
                                    if slot.is_none() {
                                        *slot = Some(payload);
                                    }
                                    break;
                                }
                            }
                        }
                        None => {
                            if queues.pending.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                ring::note(RingKind::Worker, "par.worker_stop", u64::from(wid), 0);
                lock(results).extend(local);
            });
        }
    });

    if let Some(payload) = first_panic
        .into_inner()
        .unwrap_or_else(PoisonedResults::recover)
    {
        std::panic::resume_unwind(payload);
    }

    let mut tagged = results
        .into_inner()
        .unwrap_or_else(PoisonedResults::recover);
    tagged.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), total, "every job must produce a result");
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Helper alias so the poisoned-mutex recovery above stays readable.
struct PoisonedResults;

impl PoisonedResults {
    fn recover<T>(e: std::sync::PoisonError<T>) -> T {
        e.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_all(par: Parallelism, n: usize) -> Vec<usize> {
        run(par, (0..n).collect(), |&v| v as u64, |_, v, _| v * v)
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
    fn weights_only_affect_scheduling_not_results() {
        let jobs: Vec<u64> = (0..64).collect();
        let a = run(
            Parallelism::Threads(3),
            jobs.clone(),
            |_| 0,
            |i, v, _| (i, v),
        );
        let b = run(Parallelism::Threads(3), jobs, |&v| v, |i, v, _| (i, v));
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_weights_exercise_injector_and_stealing() {
        // One huge job plus many small ones: the huge job pins a worker, so
        // the others must drain the injector and steal to finish.
        let done = AtomicUsize::new(0);
        let jobs: Vec<u64> = (0..100).collect();
        let out = run(
            Parallelism::Threads(4),
            jobs,
            |&v| if v == 0 { 1 << 40 } else { v },
            |_, v, _| {
                if v == 0 {
                    // Busy-wait until everyone else has finished: succeeds
                    // only if other workers keep draining the queues.
                    while done.load(Ordering::Acquire) < 99 {
                        std::thread::yield_now();
                    }
                } else {
                    done.fetch_add(1, Ordering::AcqRel);
                }
                v + 1
            },
        );
        assert_eq!(out, (1..=100).collect::<Vec<u64>>());
    }

    #[test]
    fn cancellation_is_observed_by_later_jobs() {
        // Sequential: job 3 cancels; jobs 4.. observe the token.
        let out = run(
            Parallelism::Sequential,
            (0..10).collect::<Vec<u64>>(),
            |_| 0,
            |i, v, token| {
                if i == 3 {
                    token.cancel();
                }
                if token.is_cancelled() {
                    None
                } else {
                    Some(v)
                }
            },
        );
        assert_eq!(out[..3], [Some(0), Some(1), Some(2)]);
        assert!(out[3..].iter().all(Option::is_none));
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
                |_| 0,
                |_, v, _| {
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
        let cancelled_seen = AtomicUsize::new(0);
        let before: usize = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(
                Parallelism::Threads(3),
                (0..24).collect::<Vec<u64>>(),
                |_| 0,
                |_, v, tok| {
                    if v == 0 {
                        panic!("forced failure in job 0");
                    }
                    // Cooperative jobs: wait until the cancellation from the
                    // panicking sibling becomes visible, then finish early.
                    for _ in 0..10_000 {
                        if tok.is_cancelled() {
                            cancelled_seen.fetch_add(1, Ordering::Relaxed);
                            return v;
                        }
                        std::thread::yield_now();
                    }
                    v
                },
            )
        }));

        // The panic is re-raised after the drain...
        assert!(result.is_err());
        // ...sibling jobs observed it and exited cleanly...
        assert!(cancelled_seen.load(Ordering::Relaxed) > 0);
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
        assert!(body.contains("\"ring\":"), "{body}");
    }
}
