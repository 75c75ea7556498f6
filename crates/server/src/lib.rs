//! `parsim-server` — the multi-tenant simulation service.
//!
//! Turns the workspace's fault-tolerant runtime fabric into a shared
//! service: clients POST netlist + stimulus jobs over a small HTTP/JSON
//! protocol, the server schedules them onto a bounded pool of fabric
//! runs, and results come back as validated chunk frames (framed after
//! the run ends) while quota and budget enforcement keeps any one tenant
//! from starving the rest.
//!
//! The moving parts, bottom up:
//!
//! * [`json`] — a dependency-free JSON value/parser/renderer;
//! * [`api`] — the job protocol: [`JobRequest`] in, NDJSON
//!   [`JobEvent`]s out;
//! * [`quota`] — per-tenant admission (in-flight caps, per-job event
//!   ceilings intersected into every run's `RunBudget`);
//! * [`scheduler`] — the bounded run pool (a poison-tolerant counting
//!   semaphore);
//! * [`service`] — [`SimService`]: admission →
//!   shared-artifact-store pre-warm → kernel run → chunked waveform
//!   stream, with every failure mode (bad input, quota, budget
//!   truncation, worker death, barrier hang) ending in a structured
//!   terminal event;
//! * [`http`] — the transport: thread-per-connection HTTP/1.1 with
//!   chunked streaming, plus the blocking client used by tests and the
//!   E16 load generator.
//!
//! Every job passes through one [`ArtifactStore`] shared across all
//! tenants and sessions, so repeat submissions of the same circuit skip
//! compilation; each job's `accepted` event reports whether it hit.
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use parsim_server::http::{client, Server};
//! use parsim_server::service::{ServiceConfig, SimService};
//!
//! let service = Arc::new(SimService::new(ServiceConfig::new("/tmp/parsim-cache")));
//! let server = Server::bind("127.0.0.1:0", service).unwrap();
//! let events = client::submit_job(
//!     server.addr(),
//!     r#"{"tenant":"acme","generate":{"kind":"ripple_adder","size":8},"until":200}"#,
//! )
//! .unwrap();
//! assert!(events.last().unwrap().is_terminal());
//! server.shutdown();
//! ```
//!
//! [`ArtifactStore`]: parsim_runtime::ArtifactStore

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod json;
pub mod quota;
pub mod scheduler;
pub mod service;

pub use api::{JobEvent, JobRequest, KernelKind, NetlistSpec, ObserveSpec};
pub use http::Server;
pub use quota::{QuotaLedger, TenantQuotas};
pub use scheduler::{RunSlots, SlotStats};
pub use service::{ServiceConfig, SimService};
