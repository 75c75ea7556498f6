//! The worker pool shared by everything that runs on real threads.

/// Runs `workers` copies of `f` on a scoped thread pool — `f(p)` on worker
/// `p` — and collects the results in worker order.
///
/// This is the one place the workspace spawns simulation threads: every
/// [`Fabric`](crate::Fabric) run starts its workers here, so pool behavior
/// (scoped lifetimes, panic propagation) is identical for every kernel.
///
/// # Panics
///
/// Panics if `workers` is zero. A panic on any worker thread is re-raised
/// on the calling thread once every worker has been joined.
///
/// # Examples
///
/// ```
/// let squares = parsim_runtime::run_workers(4, |p| p * p);
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// ```
pub fn run_workers<R, F>(workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(workers >= 1, "worker pool needs at least one worker");
    crate::sync::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers).map(|p| scope.spawn(move || f(p))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_worker_order() {
        let out = run_workers(8, |p| p * 10);
        assert_eq!(out, (0..8).map(|p| p * 10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run_workers(3, |p| {
                assert!(p != 1, "worker 1 exploded");
            });
        });
        assert!(caught.is_err());
    }
}
