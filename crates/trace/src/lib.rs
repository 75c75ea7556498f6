//! Time-resolved observability for parallel logic simulation.
//!
//! The kernels' end-of-run aggregates (`SimStats`) say *how much* protocol
//! work a run did; this crate says *when and where*. A [`Probe`] is handed
//! to any kernel (they all accept one via `with_probe`); while the run
//! executes, per-thread recorders collect fixed-size [`TraceRecord`]s —
//! gate evaluations, queue operations with depth, event/null/anti-message
//! sends, barrier waits, rollbacks with depth, state saves, GVT advances,
//! and the virtual machine's charge/idle spans. Afterwards the merged
//! [`Trace`] feeds:
//!
//! * [`analysis`] — per-processor utilization timelines, load-imbalance and
//!   critical-path accounting, per-channel null-message ratios, rollback
//!   cascades, queue-depth and GVT trajectories: the dynamic phenomena
//!   behind every §V performance claim;
//! * [`to_perfetto_json`] — Chrome/Perfetto `trace_event` JSON for
//!   [ui.perfetto.dev](https://ui.perfetto.dev);
//! * [`to_csv`] — flat CSV for ad-hoc plotting;
//! * [`run_report`] — a human-readable text report.
//!
//! The disabled probe ([`Probe::disabled`], the `Default`) is the zero-cost
//! path: no allocation, no clock reads, one predictable branch per
//! potential record — instrumented kernels behave bit-identically to
//! uninstrumented ones (the facade test suite asserts exactly that).
//!
//! # Examples
//!
//! ```
//! use parsim_trace::{analysis, Probe, TraceKind};
//!
//! let probe = Probe::enabled();
//! let mut h = probe.handle();
//! // A kernel would emit these while running:
//! h.emit(0, 0, 0, 7, TraceKind::GateEval, 1);
//! h.emit(3, 2, 0, 7, TraceKind::Enqueue, 1);
//! drop(h);
//!
//! let trace = probe.take_trace();
//! assert_eq!(trace.count(TraceKind::GateEval), 1);
//! assert_eq!(analysis::lp_activity(&trace), vec![(7, 1)]);
//! let json = parsim_trace::to_perfetto_json(&trace);
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod metrics;
mod perfetto;
mod poison;
mod probe;
mod record;
mod report;
pub mod stream;
mod trace;

pub use metrics::{Histogram, Metrics, MetricsSnapshot};
pub use perfetto::{json_string, to_csv, to_perfetto_json};
pub use probe::{Probe, ProbeHandle, DEFAULT_CAPACITY};
pub use record::{TraceKind, TraceRecord, NO_LP};
pub use report::run_report;
pub use stream::{reassemble, ChunkFrame, ChunkWriter, StreamError, DEFAULT_CHUNK_BYTES};
pub use trace::Trace;
