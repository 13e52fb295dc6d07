//! Deterministic work-sharding over scoped threads.
//!
//! The flow's parallel sections (fabric characterization in the select
//! stage, the verify stage's wrong-key sweep, the batch suite driver in
//! `alice-bench`) all build on the same primitive: N independent
//! index-addressed tasks, pulled from a shared counter by a fixed pool
//! of `std::thread::scope` workers, with results reassembled in index
//! order. Scheduling therefore never affects [`shard`]'s output —
//! `jobs = 1` and `jobs = 64` produce identical results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `jobs` knob: the value itself, or the machine's available
/// parallelism when it is `0` ("auto"). The single source of truth for
/// every jobs-style option in the workspace.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    }
}

/// Runs `worker` over indices `0..n` on up to `jobs` scoped threads and
/// returns the results in index order.
///
/// `jobs` is clamped to `[1, n]`; with one job (or at most one task) the
/// work runs inline on the caller's thread. A panicking worker poisons
/// the run and propagates the panic once the scope joins.
pub fn shard<T: Send>(n: usize, jobs: usize, worker: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 || n <= 1 {
        return (0..n).map(worker).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        let next = &next;
        let done = &done;
        let worker = &worker;
        for w in 0..jobs {
            s.spawn(move || {
                if alice_obs::tracing_enabled() {
                    alice_obs::set_thread_name(&format!("par::shard worker {w}"));
                }
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, worker(i)));
                }
                done.lock().expect("worker panicked").extend(local);
            });
        }
    });
    let mut out = done.into_inner().expect("worker panicked");
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_job_count() {
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        for jobs in [1, 2, 3, 8, 200] {
            assert_eq!(shard(100, jobs, |i| i * i), expect);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert_eq!(shard(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        shard(64, 7, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }
}
