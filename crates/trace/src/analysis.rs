//! Analysis passes over a recorded [`Trace`].
//!
//! Each pass condenses the raw record stream into one of the §V dynamic
//! phenomena: where the busy time went (utilization timelines, load
//! imbalance, critical-path accounting), what the conservative protocol
//! paid per channel (null-message ratios), and how optimism destabilized
//! (rollback cascades).

use std::collections::BTreeMap;

use crate::{Trace, TraceKind, TraceRecord};

/// Per-processor activity binned over the timeline.
///
/// For virtual-machine traces (which carry [`TraceKind::Charge`] /
/// [`TraceKind::Idle`] spans) each cell is the *busy fraction* of the bin,
/// in `[0, 1]`. For instant-only traces (threaded and reference kernels)
/// each cell is the event count of the bin normalized by the busiest cell —
/// a relative activity heat, not a true utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTimeline {
    /// Timeline start of bin 0.
    pub start: u64,
    /// Width of each bin in timeline units.
    pub bin_width: u64,
    /// `cells[p][b]` — processor `p`'s activity in bin `b`.
    pub cells: Vec<Vec<f64>>,
}

impl UtilizationTimeline {
    /// Mean activity of processor `p` across all bins.
    pub fn mean(&self, p: usize) -> f64 {
        let row = &self.cells[p];
        if row.is_empty() {
            0.0
        } else {
            row.iter().sum::<f64>() / row.len() as f64
        }
    }

    /// A one-line sparkline (` .:-=+*#%@`) of processor `p`'s row, for text
    /// reports.
    pub fn sparkline(&self, p: usize) -> String {
        const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        self.cells[p].iter().map(|&v| RAMP[((v * 9.0).round() as usize).min(9)]).collect()
    }
}

/// Computes the utilization timeline with `bins` columns.
///
/// Returns `None` for an empty trace or `bins == 0`.
pub fn utilization_timeline(trace: &Trace, bins: usize) -> Option<UtilizationTimeline> {
    let (start, end) = trace.extent()?;
    if bins == 0 {
        return None;
    }
    let p_count = trace.processors();
    let bin_width = ((end - start) / bins as u64).max(1);
    let bin_of = |t: u64| (((t.max(start) - start) / bin_width) as usize).min(bins - 1);
    let mut cells = vec![vec![0.0f64; bins]; p_count];

    let spans: Vec<&TraceRecord> = trace.of_kind(TraceKind::Charge).filter(|r| r.arg > 0).collect();
    if spans.is_empty() {
        // Instant-count mode: bin everything except idle-ish spans.
        for r in trace.records() {
            if !matches!(r.kind, TraceKind::Idle | TraceKind::BarrierWait) {
                cells[r.processor as usize][bin_of(r.t)] += 1.0;
            }
        }
        let peak = cells.iter().flatten().copied().fold(0.0f64, f64::max);
        if peak > 0.0 {
            for row in &mut cells {
                for v in row {
                    *v /= peak;
                }
            }
        }
    } else {
        // Busy-fraction mode: spread each charge span over the bins it
        // overlaps. `bin_width` is floored, so the timeline tail past
        // `start + bins * bin_width` all lands in the last bin — that bin's
        // nominal edge can sit at or before `s`, hence the explicit break.
        for r in spans {
            let (mut s, e) = (r.t, r.end());
            while s < e {
                let b = bin_of(s);
                let bin_end = start + (b as u64 + 1) * bin_width;
                if b == bins - 1 || bin_end <= s {
                    cells[r.processor as usize][b] += (e - s) as f64 / bin_width as f64;
                    break;
                }
                let overlap = e.min(bin_end) - s;
                cells[r.processor as usize][b] += overlap as f64 / bin_width as f64;
                s = bin_end;
            }
        }
        for row in &mut cells {
            for v in row {
                *v = v.min(1.0);
            }
        }
    }
    Some(UtilizationTimeline { start, bin_width, cells })
}

/// Where the busy time went, per processor — the load-imbalance /
/// critical-path summary.
///
/// The *critical processor* is the one with the largest `busy + idle`
/// extent: on a virtual machine its clock *is* the modeled makespan, so
/// everything on it is on the critical path of the parallel run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSummary {
    /// Busy units charged per processor (charge spans, or event counts for
    /// instant-only traces).
    pub busy: Vec<u64>,
    /// Idle units per processor (waiting on messages or barriers).
    pub idle: Vec<u64>,
    /// `max(busy) / mean(busy)` — 1.0 is perfect balance.
    pub imbalance: f64,
    /// The processor bounding the run (largest busy + idle).
    pub critical_processor: usize,
    /// Fraction of the critical processor's extent that was busy.
    pub critical_busy_fraction: f64,
}

/// Computes per-processor busy/idle totals and the imbalance ratio.
///
/// Returns `None` for an empty trace.
pub fn load_summary(trace: &Trace) -> Option<LoadSummary> {
    let p_count = trace.processors();
    if p_count == 0 {
        return None;
    }
    let mut busy = vec![0u64; p_count];
    let mut idle = vec![0u64; p_count];
    let has_spans = trace.of_kind(TraceKind::Charge).any(|r| r.arg > 0);
    for r in trace.records() {
        let p = r.processor as usize;
        match r.kind {
            TraceKind::Charge => busy[p] = busy[p].saturating_add(r.arg),
            TraceKind::Idle | TraceKind::BarrierWait => idle[p] = idle[p].saturating_add(r.arg),
            _ if !has_spans => busy[p] = busy[p].saturating_add(1),
            _ => {}
        }
    }
    let mean = busy.iter().sum::<u64>() as f64 / p_count as f64;
    let max = busy.iter().copied().max().unwrap_or(0);
    let imbalance = if mean > 0.0 { max as f64 / mean } else { 1.0 };
    let critical_processor = (0..p_count)
        .max_by_key(|&p| (busy[p].saturating_add(idle[p]), std::cmp::Reverse(p)))
        .expect("p_count > 0");
    let extent = busy[critical_processor].saturating_add(idle[critical_processor]);
    let critical_busy_fraction =
        if extent == 0 { 1.0 } else { busy[critical_processor] as f64 / extent as f64 };
    Some(LoadSummary { busy, idle, imbalance, critical_processor, critical_busy_fraction })
}

/// Gate-evaluation totals per LP, sorted hottest-first — the per-LP
/// utilization view. The sequential reference records one evaluation per
/// gate (LP = gate); every fabric kernel records one per dirty batch, with
/// the batch size as `arg` (LP = the logical process).
///
/// Records batched under [`crate::NO_LP`] (e.g. the oblivious kernel's
/// per-tick aggregate) carry no per-LP information and are skipped.
pub fn lp_activity(trace: &Trace) -> Vec<(u32, u64)> {
    let mut per_lp: BTreeMap<u32, u64> = BTreeMap::new();
    for r in trace.of_kind(TraceKind::GateEval) {
        if r.lp == crate::NO_LP {
            continue;
        }
        let e = per_lp.entry(r.lp).or_insert(0);
        *e = e.saturating_add(r.arg.max(1));
    }
    let mut v: Vec<(u32, u64)> = per_lp.into_iter().collect();
    v.sort_by_key(|&(lp, n)| (std::cmp::Reverse(n), lp));
    v
}

/// Null-message accounting per directed LP channel (conservative kernels).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullMessageSummary {
    /// `(src LP, dst LP) → (null messages, real event messages)`.
    pub per_channel: BTreeMap<(u32, u32), (u64, u64)>,
    /// Total null messages.
    pub nulls: u64,
    /// Total real event messages.
    pub events: u64,
}

impl NullMessageSummary {
    /// Overall `nulls / (nulls + events)`, the §V overhead ratio (0.0 when
    /// no messages flowed).
    pub fn ratio(&self) -> f64 {
        let total = self.nulls + self.events;
        if total == 0 {
            0.0
        } else {
            self.nulls as f64 / total as f64
        }
    }

    /// Channels sorted by null count, heaviest first.
    pub fn worst_channels(&self) -> Vec<((u32, u32), (u64, u64))> {
        let mut v: Vec<_> = self.per_channel.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by_key(|&((s, d), (n, _))| (std::cmp::Reverse(n), s, d));
        v
    }
}

/// Tallies [`TraceKind::NullMessage`] and [`TraceKind::MessageSend`] records
/// per `(source LP, destination LP)` channel.
pub fn null_message_summary(trace: &Trace) -> NullMessageSummary {
    let mut s = NullMessageSummary::default();
    for r in trace.records() {
        match r.kind {
            TraceKind::NullMessage => {
                s.per_channel.entry((r.lp, r.arg as u32)).or_default().0 += 1;
                s.nulls += 1;
            }
            TraceKind::MessageSend => {
                s.per_channel.entry((r.lp, r.arg as u32)).or_default().1 += 1;
                s.events += 1;
            }
            _ => {}
        }
    }
    s
}

/// Rollback dynamics (optimistic kernels).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RollbackSummary {
    /// Number of rollbacks.
    pub rollbacks: u64,
    /// Events undone in total.
    pub events_undone: u64,
    /// Largest single rollback (events undone).
    pub max_depth: u64,
    /// Cascade sizes: lengths of maximal runs of rollbacks closer than the
    /// chosen gap on the timeline. A healthy run has many 1s; thrashing
    /// shows up as long cascades.
    pub cascades: Vec<usize>,
    /// Rollbacks per LP, sorted worst-first.
    pub per_lp: Vec<(u32, u64)>,
}

impl RollbackSummary {
    /// Length of the longest cascade (0 when no rollbacks happened).
    pub fn longest_cascade(&self) -> usize {
        self.cascades.iter().copied().max().unwrap_or(0)
    }
}

/// Summarizes [`TraceKind::Rollback`] records. `cascade_gap` is the maximum
/// timeline distance between consecutive rollbacks that still counts as the
/// same cascade (pass the kernel's rollback cost, or a small multiple of
/// it).
pub fn rollback_summary(trace: &Trace, cascade_gap: u64) -> RollbackSummary {
    let mut s = RollbackSummary::default();
    let mut per_lp: BTreeMap<u32, u64> = BTreeMap::new();
    let mut last_t: Option<u64> = None;
    let mut run_len = 0usize;
    for r in trace.of_kind(TraceKind::Rollback) {
        s.rollbacks += 1;
        s.events_undone = s.events_undone.saturating_add(r.arg);
        s.max_depth = s.max_depth.max(r.arg);
        *per_lp.entry(r.lp).or_insert(0) += 1;
        match last_t {
            Some(t) if r.t.saturating_sub(t) <= cascade_gap => run_len += 1,
            _ => {
                if run_len > 0 {
                    s.cascades.push(run_len);
                }
                run_len = 1;
            }
        }
        last_t = Some(r.t);
    }
    if run_len > 0 {
        s.cascades.push(run_len);
    }
    s.per_lp = per_lp.into_iter().collect();
    s.per_lp.sort_by_key(|&(lp, n)| (std::cmp::Reverse(n), lp));
    s
}

/// Pending-event-set depth statistics from enqueue/dequeue records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueDepthSummary {
    /// Samples seen (enqueue + dequeue records).
    pub samples: u64,
    /// Largest observed depth.
    pub max_depth: u64,
    /// Mean observed depth.
    pub mean_depth: f64,
}

/// Summarizes queue depth over [`TraceKind::Enqueue`] /
/// [`TraceKind::Dequeue`] records.
pub fn queue_depth_summary(trace: &Trace) -> QueueDepthSummary {
    let mut s = QueueDepthSummary::default();
    let mut sum = 0u64;
    for r in trace.records() {
        if matches!(r.kind, TraceKind::Enqueue | TraceKind::Dequeue) {
            s.samples += 1;
            s.max_depth = s.max_depth.max(r.arg);
            sum = sum.saturating_add(r.arg);
        }
    }
    if s.samples > 0 {
        s.mean_depth = sum as f64 / s.samples as f64;
    }
    s
}

/// The trajectory of GVT over the run: `(timeline t, gvt ticks)` per
/// [`TraceKind::GvtAdvance`] record. A flat stretch is a stalled run.
pub fn gvt_trajectory(trace: &Trace) -> Vec<(u64, u64)> {
    trace.of_kind(TraceKind::GvtAdvance).map(|r| (r.t, r.arg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Probe;

    fn trace_from(records: &[(u64, u64, u32, u32, TraceKind, u64)]) -> Trace {
        let probe = Probe::enabled();
        let mut h = probe.handle();
        for &(t, vt, p, lp, kind, arg) in records {
            h.emit(t, vt, p, lp, kind, arg);
        }
        drop(h);
        probe.take_trace()
    }

    #[test]
    fn utilization_busy_fraction_mode() {
        // P0 busy [0,10); P1 busy [10,20): each half of a 2-bin timeline.
        let t = trace_from(&[
            (0, 0, 0, 0, TraceKind::Charge, 10),
            (10, 0, 1, 0, TraceKind::Charge, 10),
        ]);
        let u = utilization_timeline(&t, 2).unwrap();
        assert!(u.cells[0][0] > 0.9 && u.cells[0][1] < 0.1);
        assert!(u.cells[1][1] > 0.9 && u.cells[1][0] < 0.1);
        assert!((u.mean(0) - 0.5).abs() < 0.05);
        assert_eq!(u.sparkline(0).len(), 2);
    }

    #[test]
    fn utilization_spans_past_floored_bin_edges_terminate() {
        // Extent [0, 100) with 60 bins floors bin_width to 1, so bins only
        // nominally cover [0, 60) — the span at t=80 must fold into the
        // last bin instead of spinning on a non-advancing bin edge.
        let t =
            trace_from(&[(0, 0, 0, 0, TraceKind::Charge, 1), (80, 0, 0, 0, TraceKind::Charge, 20)]);
        let u = utilization_timeline(&t, 60).unwrap();
        assert_eq!(u.bin_width, 1);
        assert!((u.cells[0][59] - 1.0).abs() < f64::EPSILON, "tail clamps to 1.0");
    }

    #[test]
    fn utilization_instant_mode() {
        let t = trace_from(&[
            (0, 0, 0, 0, TraceKind::GateEval, 1),
            (1, 0, 0, 0, TraceKind::GateEval, 1),
            (9, 0, 1, 0, TraceKind::GateEval, 1),
        ]);
        let u = utilization_timeline(&t, 2).unwrap();
        assert_eq!(u.cells[0][0], 1.0); // busiest cell normalizes to 1
        assert_eq!(u.cells[1][1], 0.5);
        assert!(utilization_timeline(&Trace::default(), 4).is_none());
    }

    #[test]
    fn load_summary_finds_critical_processor() {
        let t = trace_from(&[
            (0, 0, 0, 0, TraceKind::Charge, 100),
            (0, 0, 1, 0, TraceKind::Charge, 20),
            (20, 0, 1, 0, TraceKind::Idle, 80),
        ]);
        let s = load_summary(&t).unwrap();
        assert_eq!(s.busy, vec![100, 20]);
        assert_eq!(s.idle, vec![0, 80]);
        assert!((s.imbalance - 100.0 / 60.0).abs() < 1e-9);
        assert_eq!(s.critical_processor, 0);
        assert_eq!(s.critical_busy_fraction, 1.0);
    }

    #[test]
    fn null_ratio_per_channel() {
        let t = trace_from(&[
            (0, 0, 0, 0, TraceKind::NullMessage, 1),
            (1, 0, 0, 0, TraceKind::NullMessage, 1),
            (2, 0, 0, 0, TraceKind::MessageSend, 1),
            (3, 0, 1, 1, TraceKind::NullMessage, 0),
        ]);
        let s = null_message_summary(&t);
        assert_eq!(s.nulls, 3);
        assert_eq!(s.events, 1);
        assert!((s.ratio() - 0.75).abs() < 1e-9);
        assert_eq!(s.per_channel[&(0, 1)], (2, 1));
        assert_eq!(s.worst_channels()[0].0, (0, 1));
    }

    #[test]
    fn rollback_cascades_split_on_gap() {
        let t = trace_from(&[
            (0, 0, 0, 0, TraceKind::Rollback, 3),
            (5, 0, 0, 0, TraceKind::Rollback, 2),
            (100, 0, 0, 1, TraceKind::Rollback, 7),
        ]);
        let s = rollback_summary(&t, 10);
        assert_eq!(s.rollbacks, 3);
        assert_eq!(s.events_undone, 12);
        assert_eq!(s.max_depth, 7);
        assert_eq!(s.cascades, vec![2, 1]);
        assert_eq!(s.longest_cascade(), 2);
        assert_eq!(s.per_lp[0], (0, 2));
    }

    #[test]
    fn queue_depth_and_gvt() {
        let t = trace_from(&[
            (0, 0, 0, 0, TraceKind::Enqueue, 1),
            (1, 0, 0, 0, TraceKind::Enqueue, 2),
            (2, 0, 0, 0, TraceKind::Dequeue, 1),
            (3, 0, 0, 0, TraceKind::GvtAdvance, 40),
        ]);
        let q = queue_depth_summary(&t);
        assert_eq!(q.samples, 3);
        assert_eq!(q.max_depth, 2);
        assert!((q.mean_depth - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(gvt_trajectory(&t), vec![(3, 40)]);
    }
}
