//! The bounded run pool.
//!
//! Every fabric run spawns one OS thread per partition block, so
//! admitting jobs without bound would oversubscribe the host and destroy
//! the latency of *every* tenant. [`RunSlots`] is a counting semaphore
//! built from the workspace's poison-tolerant locking: a job blocks in
//! [`RunSlots::acquire`] until a slot frees, runs, and releases the slot
//! by dropping the guard — on every exit path, including a panic
//! unwinding out of a failed run.

use std::sync::{Arc, Condvar, Mutex, PoisonError};

use parsim_runtime::lock_recover;
use parsim_trace::Metrics;

#[derive(Debug)]
struct Inner {
    free: Mutex<usize>,
    available: Condvar,
    capacity: usize,
    metrics: Arc<Metrics>,
}

/// A counting semaphore over the concurrent fabric-run budget; cloned
/// handles share one pool.
///
/// The pool records its pressure in a registry as it changes: the gauges
/// `slots_capacity`, `slots_in_use` and `slots_peak_in_use`, and the
/// counter `slots_waits` (acquisitions that found no free slot).
#[derive(Debug, Clone)]
pub struct RunSlots {
    inner: Arc<Inner>,
}

impl RunSlots {
    /// A pool of `capacity` concurrent runs, recording into a registry of
    /// its own.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        RunSlots::recording_into(capacity, Arc::new(Metrics::new()))
    }

    /// A pool of `capacity` concurrent runs that records into `metrics`,
    /// the registry its owner reports (the service's `/metrics`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-slot server could never run
    /// anything.
    pub fn recording_into(capacity: usize, metrics: Arc<Metrics>) -> Self {
        assert!(capacity >= 1, "run pool needs at least one slot");
        metrics.gauge_set("slots_capacity", capacity as f64);
        metrics.gauge_set("slots_in_use", 0.0);
        metrics.gauge_set("slots_peak_in_use", 0.0);
        metrics.counter_add("slots_waits", 0);
        RunSlots {
            inner: Arc::new(Inner {
                free: Mutex::new(capacity),
                available: Condvar::new(),
                capacity,
                metrics,
            }),
        }
    }

    /// Blocks until a slot is free, then claims it. Fairness is the
    /// condvar's (roughly FIFO on Linux); jobs are short, so starvation
    /// is bounded in practice by the per-job budget.
    pub fn acquire(&self) -> SlotGuard {
        let metrics = &self.inner.metrics;
        let mut free = lock_recover(&self.inner.free);
        if *free == 0 {
            metrics.counter_add("slots_waits", 1);
            while *free == 0 {
                free = self.inner.available.wait(free).unwrap_or_else(PoisonError::into_inner);
            }
        }
        *free -= 1;
        // Published under the pool lock, so the gauge follows the pool's
        // own order of acquisitions and releases.
        let in_use = (self.inner.capacity - *free) as f64;
        metrics.gauge_set("slots_in_use", in_use);
        metrics.gauge_max("slots_peak_in_use", in_use);
        SlotGuard { slots: self.clone() }
    }

    fn release(&self) {
        let mut free = lock_recover(&self.inner.free);
        *free += 1;
        self.inner.metrics.gauge_set("slots_in_use", (self.inner.capacity - *free) as f64);
        drop(free);
        self.inner.available.notify_one();
    }
}

/// One held run slot; dropping it releases the slot.
#[derive(Debug)]
pub struct SlotGuard {
    slots: RunSlots,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.slots.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn bounds_concurrency_to_pool_capacity() {
        let metrics = Arc::new(Metrics::new());
        let slots = RunSlots::recording_into(2, Arc::clone(&metrics));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let slots = slots.clone();
                thread::spawn(move || {
                    let _g = slots.acquire();
                    // Hold the slot long enough that overlap would be seen.
                    thread::sleep(Duration::from_millis(20));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = metrics.snapshot();
        assert_eq!(stats.gauges["slots_in_use"], 0.0, "all slots released");
        assert!(stats.gauges["slots_peak_in_use"] <= 2.0, "pool of 2 never ran 3: {stats:?}");
        assert!(stats.counters["slots_waits"] >= 1, "6 jobs through 2 slots must have waited");
    }

    #[test]
    fn slot_released_even_when_the_job_panics() {
        let metrics = Arc::new(Metrics::new());
        let slots = RunSlots::recording_into(1, Arc::clone(&metrics));
        let s2 = slots.clone();
        let _ = thread::spawn(move || {
            let _g = s2.acquire();
            panic!("job died");
        })
        .join();
        // If the panic leaked the slot this would deadlock; a working
        // Drop makes it return immediately.
        let _g = slots.acquire();
        assert_eq!(metrics.snapshot().gauges["slots_in_use"], 1.0);
    }
}
