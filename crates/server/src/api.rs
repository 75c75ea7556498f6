//! The job protocol: what a client submits and what the server streams
//! back.
//!
//! A job is one JSON object POSTed to `/jobs`; the response is NDJSON —
//! one [`JobEvent`] per line, ending in either `done` or `error`. Result
//! payloads ride inside `chunk` events using the trace crate's validated
//! frame format ([`ChunkFrame`]), so a client can detect a severed stream
//! and trust every frame it did receive even when the job was truncated
//! by its budget.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use parsim_core::RunBudget;
use parsim_trace::{json_string, ChunkFrame};

use crate::json::{obj, parse, write_number, Json};

/// Which synchronization kernel runs the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Threaded synchronous (global-clock barrier stepping).
    Sync,
    /// Threaded conservative (Chandy–Misra–Bryant).
    Conservative,
    /// Threaded optimistic (Time Warp).
    TimeWarp,
}

impl KernelKind {
    /// The protocol name of this kernel.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelKind::Sync => "sync",
            KernelKind::Conservative => "conservative",
            KernelKind::TimeWarp => "timewarp",
        }
    }
}

/// How the job's circuit is supplied.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NetlistSpec {
    /// Inline ISCAS-style BENCH text.
    Bench(String),
    /// A named built-in generator with one size parameter — lets load
    /// generators submit large circuits without shipping megabytes of
    /// BENCH text.
    Generate {
        /// Generator name: `ripple_adder`, `lfsr`, `counter`, `tree`,
        /// or `mesh`.
        kind: String,
        /// The generator's size parameter (bits, leaves, or mesh side).
        size: usize,
    },
}

/// Which nets the job records waveforms for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveSpec {
    /// Primary outputs only (the default).
    Outputs,
    /// Every net.
    AllNets,
    /// Nothing — final values and statistics only.
    Nothing,
}

/// The latest virtual time a job may simulate through, 2^40 ticks: far
/// past any job the service runs, and exact as a JSON number.
const UNTIL_CAP: u64 = 1 << 40;

/// One parsed job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The tenant the job is accounted to (quota key).
    pub tenant: String,
    /// The circuit.
    pub netlist: NetlistSpec,
    /// Which kernel runs it.
    pub kernel: KernelKind,
    /// Partition block count = worker thread count.
    pub workers: usize,
    /// Simulate through this virtual time.
    pub until: u64,
    /// Seed for the random stimulus.
    pub seed: u64,
    /// Stimulus interval (ticks between input changes).
    pub interval: u64,
    /// Waveform observation scope.
    pub observe: ObserveSpec,
    /// Per-job execution bounds; intersected with the tenant quota.
    pub budget: RunBudget,
    /// Test hook: kill this worker at this round via the fault injector,
    /// to exercise the structured-error path end to end.
    pub fault_kill: Option<(usize, u64)>,
}

impl JobRequest {
    /// Parses a request from the POST body.
    pub fn from_json(body: &str) -> Result<JobRequest, String> {
        let v = parse(body)?;
        let tenant = v
            .get("tenant")
            .and_then(Json::as_str)
            .ok_or("missing required string field `tenant`")?
            .to_owned();
        if tenant.is_empty() {
            return Err("`tenant` must be non-empty".into());
        }
        let netlist = match (v.get("bench"), v.get("generate")) {
            (Some(b), None) => {
                NetlistSpec::Bench(b.as_str().ok_or("`bench` must be a string")?.to_owned())
            }
            (None, Some(g)) => NetlistSpec::Generate {
                kind: g
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("`generate.kind` must be a string")?
                    .to_owned(),
                size: g
                    .get("size")
                    .and_then(Json::as_u64)
                    .ok_or("`generate.size` must be a non-negative integer")?
                    as usize,
            },
            (Some(_), Some(_)) => return Err("give either `bench` or `generate`, not both".into()),
            (None, None) => return Err("missing circuit: give `bench` or `generate`".into()),
        };
        let kernel = match v.get("kernel").and_then(Json::as_str).unwrap_or("sync") {
            "sync" => KernelKind::Sync,
            "conservative" => KernelKind::Conservative,
            "timewarp" => KernelKind::TimeWarp,
            other => return Err(format!("unknown kernel `{other}`")),
        };
        let workers = v.get("workers").and_then(Json::as_u64).unwrap_or(2) as usize;
        if workers == 0 || workers > 64 {
            return Err("`workers` must be in 1..=64".into());
        }
        let until = v.get("until").and_then(Json::as_u64).ok_or("missing integer field `until`")?;
        if until == 0 {
            return Err("`until` must be positive".into());
        }
        if until > UNTIL_CAP {
            return Err(format!("`until` {until} out of range 1..={UNTIL_CAP}"));
        }
        let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(1);
        let interval = v.get("interval").and_then(Json::as_u64).unwrap_or(10);
        if interval == 0 {
            return Err("`interval` must be positive".into());
        }
        let observe = match v.get("observe").and_then(Json::as_str).unwrap_or("outputs") {
            "outputs" => ObserveSpec::Outputs,
            "all" => ObserveSpec::AllNets,
            "nothing" => ObserveSpec::Nothing,
            other => return Err(format!("unknown observe scope `{other}`")),
        };
        let mut budget = RunBudget::UNLIMITED;
        if let Some(b) = v.get("budget") {
            if let Some(r) = b.get("max_rounds").and_then(Json::as_u64) {
                budget = budget.with_max_rounds(r);
            }
            if let Some(e) = b.get("max_events").and_then(Json::as_u64) {
                budget = budget.with_max_events(e);
            }
            if let Some(ms) = b.get("deadline_ms").and_then(Json::as_u64) {
                budget = budget.with_deadline(Duration::from_millis(ms));
            }
        }
        let fault_kill = match v.get("fault_kill") {
            None => None,
            Some(f) => Some((
                f.get("worker").and_then(Json::as_u64).ok_or("`fault_kill.worker` required")?
                    as usize,
                f.get("round").and_then(Json::as_u64).ok_or("`fault_kill.round` required")?,
            )),
        };
        Ok(JobRequest {
            tenant,
            netlist,
            kernel,
            workers,
            until,
            seed,
            interval,
            observe,
            budget,
            fault_kill,
        })
    }

    /// Renders this request as a JSON body (the client side; the load
    /// generator and tests use it).
    pub fn to_json(&self) -> String {
        let mut pairs: Vec<(&str, Json)> = vec![
            ("tenant", Json::Str(self.tenant.clone())),
            ("kernel", Json::Str(self.kernel.as_str().to_owned())),
            ("workers", Json::Num(self.workers as f64)),
            ("until", Json::Num(self.until as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("interval", Json::Num(self.interval as f64)),
            (
                "observe",
                Json::Str(
                    match self.observe {
                        ObserveSpec::Outputs => "outputs",
                        ObserveSpec::AllNets => "all",
                        ObserveSpec::Nothing => "nothing",
                    }
                    .to_owned(),
                ),
            ),
        ];
        match &self.netlist {
            NetlistSpec::Bench(text) => pairs.push(("bench", Json::Str(text.clone()))),
            NetlistSpec::Generate { kind, size } => pairs.push((
                "generate",
                obj(vec![("kind", Json::Str(kind.clone())), ("size", Json::Num(*size as f64))]),
            )),
        }
        let mut b = Vec::new();
        if let Some(r) = self.budget.max_rounds {
            b.push(("max_rounds", Json::Num(r as f64)));
        }
        if let Some(e) = self.budget.max_events {
            b.push(("max_events", Json::Num(e as f64)));
        }
        if let Some(d) = self.budget.deadline {
            b.push(("deadline_ms", Json::Num(d.as_millis() as f64)));
        }
        if !b.is_empty() {
            pairs.push(("budget", obj(b)));
        }
        if let Some((worker, round)) = self.fault_kill {
            pairs.push((
                "fault_kill",
                obj(vec![("worker", Json::Num(worker as f64)), ("round", Json::Num(round as f64))]),
            ));
        }
        obj(pairs).render()
    }
}

/// One line of the job's NDJSON response stream.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The job was admitted and its artifacts prepared; first line of
    /// every successful stream.
    Accepted {
        /// Server-assigned job id.
        job_id: u64,
        /// How the shared artifact store satisfied this job's compiled
        /// blocks (`hit`, `miss`, …).
        cache: String,
    },
    /// One validated frame of the waveform dump.
    Chunk(ChunkFrame),
    /// The run finished (fully or budget-truncated); terminal.
    Done {
        /// Server-assigned job id.
        job_id: u64,
        /// `complete` or `truncated`.
        status: String,
        /// Virtual time the results are valid through.
        end_time: u64,
        /// Committed events processed.
        events: u64,
        /// Synchronization rounds executed.
        rounds: u64,
        /// Host wall-clock milliseconds spent in the kernel run, and only
        /// there: building the job's fabric (its artifact load) happens
        /// before `accepted` and is not included.
        wall_ms: f64,
    },
    /// The job failed; terminal. `code` is machine-readable.
    Error {
        /// Stable error class: `bad-request`, `quota-exhausted`,
        /// `worker-panic`, `barrier-timeout`, `protocol-abort`,
        /// `delivery-fault`, or `sim-error`.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl JobEvent {
    /// True for the stream-ending events (`done` / `error`).
    ///
    /// Public API: how a client of the NDJSON stream knows the job ended
    /// (the crate example checks it).
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobEvent::Done { .. } | JobEvent::Error { .. })
    }

    /// Renders this event as one NDJSON line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            JobEvent::Accepted { job_id, cache } => obj(vec![
                ("event", Json::Str("accepted".into())),
                ("job_id", Json::Num(*job_id as f64)),
                ("cache", Json::Str(cache.clone())),
            ])
            .render(),
            // Written directly, in the key order the object renderer sorts
            // them into, so the payload is escaped once and never cloned.
            JobEvent::Chunk(f) => {
                let mut out = String::with_capacity(f.payload.len() + f.payload.len() / 8 + 128);
                let _ = write!(out, "{{\"checksum\":\"{:016x}\",\"event\":\"chunk\"", f.checksum);
                out.push_str(if f.last { ",\"last\":true" } else { ",\"last\":false" });
                out.push_str(",\"payload\":");
                json_string(&f.payload, &mut out);
                out.push_str(",\"records\":");
                write_number(f.records as f64, &mut out);
                out.push_str(",\"seq\":");
                write_number(f.seq as f64, &mut out);
                out.push('}');
                out
            }
            JobEvent::Done { job_id, status, end_time, events, rounds, wall_ms } => obj(vec![
                ("event", Json::Str("done".into())),
                ("job_id", Json::Num(*job_id as f64)),
                ("status", Json::Str(status.clone())),
                ("end_time", Json::Num(*end_time as f64)),
                ("events", Json::Num(*events as f64)),
                ("rounds", Json::Num(*rounds as f64)),
                ("wall_ms", Json::Num(*wall_ms)),
            ])
            .render(),
            JobEvent::Error { code, message } => obj(vec![
                ("event", Json::Str("error".into())),
                ("code", Json::Str(code.clone())),
                ("message", Json::Str(message.clone())),
            ])
            .render(),
        }
    }

    /// Parses one NDJSON line back into an event (the client side).
    pub fn from_line(line: &str) -> Result<JobEvent, String> {
        let v = parse(line)?;
        match v.get("event").and_then(Json::as_str) {
            Some("accepted") => Ok(JobEvent::Accepted {
                job_id: v.get("job_id").and_then(Json::as_u64).ok_or("accepted: job_id")?,
                cache: v.get("cache").and_then(Json::as_str).ok_or("accepted: cache")?.to_owned(),
            }),
            Some("chunk") => {
                let checksum = v.get("checksum").and_then(Json::as_str).ok_or("chunk: checksum")?;
                Ok(JobEvent::Chunk(ChunkFrame {
                    seq: v.get("seq").and_then(Json::as_u64).ok_or("chunk: seq")?,
                    records: v.get("records").and_then(Json::as_u64).ok_or("chunk: records")?,
                    checksum: u64::from_str_radix(checksum, 16)
                        .map_err(|_| "chunk: bad checksum hex")?,
                    last: matches!(v.get("last"), Some(Json::Bool(true))),
                    payload: v
                        .get("payload")
                        .and_then(Json::as_str)
                        .ok_or("chunk: payload")?
                        .to_owned(),
                }))
            }
            Some("done") => Ok(JobEvent::Done {
                job_id: v.get("job_id").and_then(Json::as_u64).ok_or("done: job_id")?,
                status: v.get("status").and_then(Json::as_str).ok_or("done: status")?.to_owned(),
                end_time: v.get("end_time").and_then(Json::as_u64).ok_or("done: end_time")?,
                events: v.get("events").and_then(Json::as_u64).ok_or("done: events")?,
                rounds: v.get("rounds").and_then(Json::as_u64).ok_or("done: rounds")?,
                wall_ms: v.get("wall_ms").and_then(Json::as_f64).ok_or("done: wall_ms")?,
            }),
            Some("error") => Ok(JobEvent::Error {
                code: v.get("code").and_then(Json::as_str).ok_or("error: code")?.to_owned(),
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("error: message")?
                    .to_owned(),
            }),
            other => Err(format!("unknown event kind {other:?}")),
        }
    }
}

/// Renders a metrics snapshot (flat string→number map) as a JSON object.
pub fn render_metrics(fields: &BTreeMap<String, f64>) -> String {
    Json::Obj(fields.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobRequest {
        JobRequest {
            tenant: "acme".into(),
            netlist: NetlistSpec::Generate { kind: "ripple_adder".into(), size: 8 },
            kernel: KernelKind::Conservative,
            workers: 4,
            until: 300,
            seed: 7,
            interval: 10,
            observe: ObserveSpec::AllNets,
            budget: RunBudget::UNLIMITED.with_max_rounds(12).with_max_events(1000),
            fault_kill: Some((2, 5)),
        }
    }

    #[test]
    fn request_round_trips_through_json() {
        let req = sample();
        let parsed = JobRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn request_defaults_and_validation() {
        let min = r#"{"tenant":"t","bench":"INPUT(a)\nOUTPUT(b)\nb = NOT(a)","until":50}"#;
        let req = JobRequest::from_json(min).unwrap();
        assert_eq!(req.kernel, KernelKind::Sync);
        assert_eq!(req.workers, 2);
        assert_eq!(req.observe, ObserveSpec::Outputs);
        assert_eq!(req.budget, RunBudget::UNLIMITED);

        for bad in [
            r#"{"until":50,"generate":{"kind":"lfsr","size":8}}"#,
            r#"{"tenant":"t","until":50}"#,
            r#"{"tenant":"t","until":0,"generate":{"kind":"lfsr","size":8}}"#,
            r#"{"tenant":"t","until":50,"generate":{"kind":"lfsr","size":8},"workers":0}"#,
            r#"{"tenant":"t","until":50,"generate":{"kind":"lfsr","size":8},"kernel":"psychic"}"#,
        ] {
            assert!(JobRequest::from_json(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn until_is_capped_before_anything_is_built() {
        let body = |until: &str| {
            format!(
                r#"{{"tenant":"t","until":{until},"interval":1,"generate":{{"kind":"lfsr","size":8}}}}"#
            )
        };
        assert_eq!(JobRequest::from_json(&body(&UNTIL_CAP.to_string())).unwrap().until, UNTIL_CAP);
        for over in [(UNTIL_CAP + 1).to_string(), "1e15".into(), "9007199254740992".into()] {
            let err = JobRequest::from_json(&body(&over)).unwrap_err();
            assert!(err.contains(&format!("1..={UNTIL_CAP}")), "{over}: {err}");
        }
        // 2^64 − 1 is 2^64 as a JSON number, which is no u64 at all.
        let err = JobRequest::from_json(&body("18446744073709551615")).unwrap_err();
        assert_eq!(err, "missing integer field `until`");
    }

    /// The object renderer `JobEvent::Chunk` used before it was written
    /// directly, kept as its oracle.
    fn chunk_by_object(f: &ChunkFrame) -> String {
        obj(vec![
            ("event", Json::Str("chunk".into())),
            ("seq", Json::Num(f.seq as f64)),
            ("records", Json::Num(f.records as f64)),
            ("checksum", Json::Str(format!("{:016x}", f.checksum))),
            ("last", Json::Bool(f.last)),
            ("payload", Json::Str(f.payload.clone())),
        ])
        .render()
    }

    proptest::proptest! {
        #[test]
        fn chunk_events_render_as_the_object_renderer_did(
            seq in proptest::prelude::any::<u64>(),
            records in 0u64..1 << 20,
            checksum in proptest::prelude::any::<u64>(),
            last in proptest::prelude::any::<bool>(),
            lines in proptest::prop::collection::vec(
                proptest::prop::sample::select(vec!["0,a,1,X", "17,g\"q\",20,1", "3,λ\\,9,Z", "", "\t\u{1}"]),
                0..8,
            ),
        ) {
            let frame = ChunkFrame { seq, records, checksum, last, payload: lines.join("\n") };
            proptest::prop_assert_eq!(JobEvent::Chunk(frame.clone()).render(), chunk_by_object(&frame));
        }
    }

    #[test]
    fn events_round_trip_through_ndjson_lines() {
        let events = vec![
            JobEvent::Accepted { job_id: 3, cache: "hit".into() },
            JobEvent::Chunk(ChunkFrame {
                seq: 0,
                records: 2,
                checksum: 0xdead_beef,
                last: true,
                payload: "a,0,1\nb,5,0\n".into(),
            }),
            JobEvent::Done {
                job_id: 3,
                status: "complete".into(),
                end_time: 300,
                events: 41,
                rounds: 12,
                wall_ms: 1.25,
            },
            JobEvent::Error { code: "worker-panic".into(), message: "worker 2 died".into() },
        ];
        for e in events {
            let line = e.render();
            assert!(!line.contains('\n'), "NDJSON lines must be single-line: {line}");
            assert_eq!(JobEvent::from_line(&line).unwrap(), e);
        }
    }
}
