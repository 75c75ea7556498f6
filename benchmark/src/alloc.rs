//! A counting global allocator for the memory rows of the traced pass.
//!
//! Counting is off unless [`start`] switched it on, so the timed passes
//! pay one relaxed load per allocation and nothing is counted. Bytes
//! freed while counting that were allocated before it started would drive
//! the live count negative; it is kept signed and the peak only rises.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The allocator installed by the benchmark binary.
pub struct Counting;

// Relaxed everywhere: these are statistics that publish no other data.
static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let live =
                LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed) + layout.size() as i64;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What was counted between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapCounts {
    /// Highest net bytes live above the level at [`start`].
    pub peak_bytes: u64,
    /// Allocation calls.
    pub allocations: u64,
}

/// Zeroes the counters and switches counting on.
pub fn start() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
}

/// Switches counting off and returns the counts.
pub fn stop() -> HeapCounts {
    ON.store(false, Ordering::Relaxed);
    counts()
}

/// The counters as they stand.
pub fn counts() -> HeapCounts {
    HeapCounts {
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
        allocations: ALLOCS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, because the counters are process-wide and `cargo test`
    // runs tests on parallel threads.
    #[test]
    fn off_counts_nothing_and_on_counts_the_peak() {
        let before = counts();
        drop(std::hint::black_box(vec![0u8; 1 << 20]));
        assert_eq!(counts(), before, "counting is off until start()");
        assert_eq!(before, HeapCounts { peak_bytes: 0, allocations: 0 });

        start();
        drop(std::hint::black_box(vec![0u8; 1 << 20]));
        let counted = stop();
        assert!(counted.peak_bytes >= 1 << 20 && counted.allocations >= 1, "{counted:?}");
        drop(std::hint::black_box(vec![0u8; 1 << 20]));
        assert_eq!(counts(), counted, "counting is off again after stop()");
    }
}
