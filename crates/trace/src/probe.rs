//! The probe: what kernels hold, and the per-thread recorder behind it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::poison::lock_recover;
use crate::{Metrics, Trace, TraceKind, TraceRecord};

/// Default per-thread ring capacity (records). At 48 bytes per record this
/// bounds a worker's buffer to ~48 MB; overflowing records are counted, not
/// stored.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// A flushed per-thread buffer: the records plus its overflow count.
#[derive(Debug)]
struct FlushedBuffer {
    records: Vec<TraceRecord>,
    dropped: u64,
}

/// State shared by every handle of one enabled probe.
#[derive(Debug)]
struct Shared {
    /// Wall-clock epoch: `ProbeHandle::now_ns` measures from here.
    epoch: Instant,
    /// Per-thread capacity for new handles.
    capacity: usize,
    /// Buffers flushed by finished handles, merged by [`Probe::take_trace`].
    flushed: Mutex<Vec<FlushedBuffer>>,
    /// The run's metric registry.
    metrics: Metrics,
}

/// A handle kernels attach to record a run.
///
/// `Probe::default()` is *disabled*: handles created from it discard every
/// record behind a single predictable branch, no allocation, no locking, no
/// clock reads — the uninstrumented fast path. [`Probe::enabled`] turns
/// recording on; cloning shares the underlying recorder, so a kernel, its
/// workers and its virtual machine all feed one [`Trace`].
///
/// # Examples
///
/// ```
/// use parsim_trace::{Probe, TraceKind};
///
/// let probe = Probe::enabled();
/// let mut h = probe.handle();
/// h.emit(5, 3, 0, 1, TraceKind::GateEval, 1);
/// drop(h); // flush
/// let trace = probe.take_trace();
/// assert_eq!(trace.records().len(), 1);
/// assert_eq!(trace.records()[0].vt, 3);
/// ```
#[derive(Clone, Default)]
pub struct Probe {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe").field("enabled", &self.is_enabled()).finish()
    }
}

impl Probe {
    /// A disabled probe (the default): recording is a no-op.
    pub fn disabled() -> Self {
        Probe { shared: None }
    }

    /// An enabled probe with the default per-thread ring capacity.
    pub fn enabled() -> Self {
        Probe::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled probe whose per-thread rings hold at most `capacity`
    /// records; overflow is drop-counted, never blocking.
    pub fn with_capacity(capacity: usize) -> Self {
        Probe {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                capacity,
                flushed: Mutex::new(Vec::new()),
                metrics: Metrics::new(),
            })),
        }
    }

    /// Whether this probe records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Creates a per-thread recorder. Each worker thread (or each modeled
    /// kernel) should hold its own handle; handles never contend while
    /// recording and flush into the probe when dropped.
    pub fn handle(&self) -> ProbeHandle {
        match &self.shared {
            None => ProbeHandle { shared: None, buf: Vec::new(), capacity: 0, dropped: 0 },
            Some(s) => ProbeHandle {
                shared: Some(Arc::clone(s)),
                buf: Vec::with_capacity(s.capacity.min(4096)),
                capacity: s.capacity,
                dropped: 0,
            },
        }
    }

    /// The metric registry, or `None` when disabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.shared.as_ref().map(|s| &s.metrics)
    }

    /// Collects everything flushed so far into a [`Trace`], sorted by
    /// timeline position. Call after the instrumented run returns (all
    /// kernel handles are dropped by then). Flushed buffers are consumed;
    /// the metric registry is left in place for [`Probe::metrics`].
    pub fn take_trace(&self) -> Trace {
        let Some(s) = &self.shared else { return Trace::default() };
        let mut flushed = lock_recover(&s.flushed);
        let mut records = Vec::with_capacity(flushed.iter().map(|b| b.records.len()).sum());
        let mut dropped = 0u64;
        for buf in flushed.drain(..) {
            records.extend(buf.records);
            dropped = dropped.saturating_add(buf.dropped);
        }
        drop(flushed);
        // Stable: records of one thread stay in emission order within a
        // timeline position.
        records.sort_by_key(TraceRecord::key);
        Trace::new(records, dropped)
    }
}

/// A per-thread recorder created by [`Probe::handle`].
///
/// Recording appends to a thread-private bounded buffer — no locks, no
/// atomics on the hot path. The buffer is flushed into the probe exactly
/// once, when the handle is dropped.
#[derive(Debug)]
pub struct ProbeHandle {
    shared: Option<Arc<Shared>>,
    buf: Vec<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl ProbeHandle {
    /// Whether records are kept (false for handles of a disabled probe).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Nanoseconds of host wall-clock since the probe was created (0 when
    /// disabled — no clock read on the disabled path). Threaded kernels use
    /// this as the timeline axis.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.shared {
            None => 0,
            Some(s) => u64::try_from(s.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// Records one action. A no-op when disabled; drop-counted once the
    /// ring is full.
    #[inline]
    pub fn emit(&mut self, t: u64, vt: u64, processor: u32, lp: u32, kind: TraceKind, arg: u64) {
        if self.shared.is_none() {
            return;
        }
        if self.buf.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.buf.push(TraceRecord { t, vt, processor, lp, kind, arg });
    }

    /// A sibling handle feeding the same probe, starting with an empty
    /// buffer. Used by values that own a handle but need `Clone` (e.g. the
    /// virtual machine); the sibling records independently.
    pub fn fork(&self) -> ProbeHandle {
        match &self.shared {
            None => ProbeHandle { shared: None, buf: Vec::new(), capacity: 0, dropped: 0 },
            Some(s) => ProbeHandle {
                shared: Some(Arc::clone(s)),
                buf: Vec::with_capacity(self.capacity.min(4096)),
                capacity: self.capacity,
                dropped: 0,
            },
        }
    }
}

impl Drop for ProbeHandle {
    fn drop(&mut self) {
        let Some(s) = self.shared.take() else { return };
        if self.buf.is_empty() && self.dropped == 0 {
            return;
        }
        let records = std::mem::take(&mut self.buf);
        lock_recover(&s.flushed).push(FlushedBuffer { records, dropped: self.dropped });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_records_nothing() {
        let probe = Probe::disabled();
        assert!(!probe.is_enabled());
        let mut h = probe.handle();
        assert!(!h.enabled());
        assert_eq!(h.now_ns(), 0);
        h.emit(1, 1, 0, 0, TraceKind::GateEval, 1);
        drop(h);
        let t = probe.take_trace();
        assert!(t.is_empty());
        assert!(probe.metrics().is_none());
    }

    #[test]
    fn overflow_is_drop_counted() {
        let probe = Probe::with_capacity(3);
        let mut h = probe.handle();
        for i in 0..10 {
            h.emit(i, 0, 0, 0, TraceKind::Enqueue, i);
        }
        drop(h);
        let t = probe.take_trace();
        assert_eq!(t.records().len(), 3);
        assert_eq!(t.dropped(), 7);
    }

    #[test]
    fn handles_merge_sorted() {
        let probe = Probe::enabled();
        let mut a = probe.handle();
        let mut b = probe.handle();
        a.emit(5, 0, 0, 0, TraceKind::GateEval, 1);
        b.emit(2, 0, 1, 0, TraceKind::GateEval, 1);
        a.emit(9, 0, 0, 0, TraceKind::GateEval, 1);
        drop(a);
        drop(b);
        let t = probe.take_trace();
        let ts: Vec<u64> = t.records().iter().map(|r| r.t).collect();
        assert_eq!(ts, vec![2, 5, 9]);
        // Second take sees nothing new (buffers were consumed).
        assert!(probe.take_trace().is_empty());
    }

    #[test]
    fn threads_record_concurrently() {
        let probe = Probe::enabled();
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let mut h = probe.handle();
                s.spawn(move || {
                    for i in 0..100 {
                        h.emit(i, i, p, 0, TraceKind::Enqueue, i);
                    }
                });
            }
        });
        let t = probe.take_trace();
        assert_eq!(t.records().len(), 400);
    }
}
