//! The simulation service: admission → scheduling → fabric run →
//! streamed results.
//!
//! One [`SimService`] owns everything the transport layer does not: the
//! per-tenant [`QuotaLedger`], the bounded [`RunSlots`] pool, a cache of
//! prepared (parsed + partitioned) circuits, and — crucially — a single
//! [`ArtifactStore`] shared by *all* jobs, so the second tenant to submit
//! a given circuit reuses the first tenant's compiled bytecode. Each job
//! reports how the store satisfied it in its `accepted` event, and the
//! aggregate hit/miss counters are surfaced by [`SimService::metrics`].
//!
//! A job's whole lifecycle happens inside [`SimService::submit`] on the
//! caller's thread (the HTTP layer gives each connection its own), with
//! every outcome — including budget truncation and worker death — ending
//! in a terminal `done` or `error` event rather than a hang.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, VecDeque};
use std::hash::BuildHasher as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parsim_conservative::ThreadedConservativeSimulator;
use parsim_core::{Observe, SimError, SimOutcome, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::{GateKind, Logic4};
use parsim_netlist::{bench, generate, Circuit, DelayModel};
use parsim_optimistic::ThreadedTimeWarpSimulator;
use parsim_partition::{ConePartitioner, GateWeights, Partition, Partitioner as _};
use parsim_runtime::{lock_recover, ArtifactStore, FabricKernel, FaultPlan, SyncProtocol, Threads};
use parsim_sync::ThreadedSyncSimulator;
use parsim_trace::ChunkWriter;

use crate::api::{JobEvent, JobRequest, KernelKind, NetlistSpec, ObserveSpec};
use crate::quota::{QuotaLedger, TenantQuotas};
use crate::scheduler::RunSlots;

/// Operator configuration for one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Concurrent fabric runs (each spawns `workers` OS threads).
    pub run_slots: usize,
    /// Per-tenant admission limits.
    pub quotas: TenantQuotas,
    /// Root of the shared compiled-artifact store.
    pub cache_dir: std::path::PathBuf,
    /// Target payload bytes per streamed chunk.
    pub chunk_bytes: usize,
    /// Barrier timeout applied to every run, so a hung worker fails the
    /// job instead of pinning a run slot forever.
    pub barrier_timeout: Option<Duration>,
}

impl ServiceConfig {
    /// Defaults rooted at `cache_dir`: 2 run slots, default quotas, 16 KiB
    /// chunks, 30 s barrier timeout.
    pub fn new(cache_dir: impl Into<std::path::PathBuf>) -> Self {
        ServiceConfig {
            run_slots: 2,
            quotas: TenantQuotas::default(),
            cache_dir: cache_dir.into(),
            chunk_bytes: parsim_trace::DEFAULT_CHUNK_BYTES,
            barrier_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A parsed + partitioned circuit, cached across jobs that submit the
/// same netlist with the same worker count.
#[derive(Debug)]
struct Prepared {
    circuit: Circuit,
    partition: Partition,
}

/// How many prepared circuits the service keeps. A stream of distinct
/// netlists evicts oldest-first instead of growing the memo (and the
/// process) without bound; repeat submissions of the last few dozen
/// circuits still hit.
const PREPARED_CAP: usize = 64;

#[derive(Debug, Default, Clone, Copy)]
struct JobCounters {
    completed: u64,
    truncated: u64,
    failed: u64,
}

/// The multi-tenant simulation service. Cheap to share: the HTTP layer
/// holds it in an `Arc` and calls [`submit`](SimService::submit) from
/// connection threads.
#[derive(Debug)]
pub struct SimService {
    cfg: ServiceConfig,
    store: ArtifactStore,
    ledger: QuotaLedger,
    slots: RunSlots,
    /// The prepared-circuit memo, oldest first, at most [`PREPARED_CAP`]
    /// entries, keyed by `memo_keys`' hash of (netlist spec, workers) — the
    /// key never holds the netlist text.
    prepared: Mutex<VecDeque<(u64, Arc<Prepared>)>>,
    /// Randomly keyed per service, so a tenant cannot craft a netlist that
    /// collides with another tenant's entry.
    memo_keys: RandomState,
    next_job: AtomicU64,
    counters: Mutex<JobCounters>,
}

impl SimService {
    /// Builds the service; creates the artifact store root lazily on
    /// first compile.
    pub fn new(cfg: ServiceConfig) -> Self {
        let store = ArtifactStore::new(&cfg.cache_dir);
        let slots = RunSlots::new(cfg.run_slots);
        SimService {
            cfg,
            store,
            ledger: QuotaLedger::new(),
            slots,
            prepared: Mutex::new(VecDeque::new()),
            memo_keys: RandomState::new(),
            next_job: AtomicU64::new(0),
            counters: Mutex::new(JobCounters::default()),
        }
    }

    /// Runs one job end to end, emitting the full NDJSON event stream
    /// into `sink`. Never panics on bad input and always ends the stream
    /// with a terminal event.
    pub fn submit(&self, body: &str, sink: &mut dyn FnMut(JobEvent)) {
        match JobRequest::from_json(body) {
            Ok(req) => self.submit_request(&req, sink),
            Err(msg) => self.fail(sink, "bad-request", &msg),
        }
    }

    /// [`submit`](Self::submit) for an already-parsed request.
    pub fn submit_request(&self, req: &JobRequest, sink: &mut dyn FnMut(JobEvent)) {
        // Admission first: a tenant over quota must not consume a slot.
        let _permit = match self.ledger.admit(&req.tenant, &self.cfg.quotas) {
            Ok(p) => p,
            Err(e) => return self.fail(sink, "quota-exhausted", &e.to_string()),
        };
        let prepared = match self.prepare(req) {
            Ok(p) => p,
            Err(msg) => return self.fail(sink, "bad-request", &msg),
        };
        // The slot bounds compile + run: both are CPU-heavy.
        let _slot = self.slots.acquire();

        // Pre-warm the shared store with exactly the key the fabric will
        // look up (granularity-1 runs: LP == partition block), and report
        // the outcome so clients see cross-tenant reuse.
        let lp_of: Vec<usize> =
            prepared.circuit.ids().map(|id| prepared.partition.block_of(id)).collect();
        let (_, cache_outcome) =
            self.store.load_or_compile(&prepared.circuit, &lp_of, prepared.partition.blocks());

        let job_id = self.next_job.fetch_add(1, Ordering::SeqCst) + 1;
        sink(JobEvent::Accepted { job_id, cache: cache_outcome.label().to_owned() });

        let start = Instant::now();
        let result = self.run_kernel(req, &prepared);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(outcome) => {
                self.stream_waveforms(&prepared.circuit, &outcome, sink);
                let truncated = outcome.stats.truncated;
                {
                    let mut c = lock_recover(&self.counters);
                    if truncated {
                        c.truncated += 1;
                    } else {
                        c.completed += 1;
                    }
                }
                sink(JobEvent::Done {
                    job_id,
                    status: if truncated { "truncated" } else { "complete" }.to_owned(),
                    end_time: outcome.end_time.ticks(),
                    events: outcome.stats.events_processed,
                    rounds: outcome.stats.barriers,
                    wall_ms,
                });
            }
            Err(e) => self.fail(sink, classify(&e), &e.to_string()),
        }
    }

    /// Flat counter snapshot for the `/metrics` endpoint: job outcomes,
    /// quota decisions, pool pressure and shared-cache effectiveness.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let cache = self.store.metrics();
        let slots = self.slots.stats();
        let (admitted, rejected) = self.ledger.totals();
        let c = *lock_recover(&self.counters);
        let mut m = BTreeMap::new();
        m.insert("jobs_admitted".to_owned(), admitted as f64);
        m.insert("jobs_rejected".to_owned(), rejected as f64);
        m.insert("jobs_completed".to_owned(), c.completed as f64);
        m.insert("jobs_truncated".to_owned(), c.truncated as f64);
        m.insert("jobs_failed".to_owned(), c.failed as f64);
        m.insert("cache_hits".to_owned(), cache.hits as f64);
        m.insert("cache_misses".to_owned(), cache.misses as f64);
        m.insert("cache_recompiled_corrupt".to_owned(), cache.recompiled_corrupt as f64);
        m.insert("cache_raced_adopted".to_owned(), cache.raced_adopted as f64);
        m.insert("slots_capacity".to_owned(), slots.capacity as f64);
        m.insert("slots_in_use".to_owned(), slots.in_use as f64);
        m.insert("slots_peak_in_use".to_owned(), slots.peak_in_use as f64);
        m.insert("slots_waits".to_owned(), slots.waits as f64);
        m
    }

    /// The shared artifact store (tests inspect its metrics directly).
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    fn fail(&self, sink: &mut dyn FnMut(JobEvent), code: &str, message: &str) {
        lock_recover(&self.counters).failed += 1;
        sink(JobEvent::Error { code: code.to_owned(), message: message.to_owned() });
    }

    fn prepare(&self, req: &JobRequest) -> Result<Arc<Prepared>, String> {
        let key = self.memo_keys.hash_one((&req.netlist, req.workers));
        if let Some((_, p)) = lock_recover(&self.prepared).iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(p));
        }
        // Built outside the lock: two racing first-submitters may both
        // build, which is benign — both entries are valid and the first
        // one answers later lookups.
        let circuit = build_circuit(&req.netlist)?;
        if req.workers > circuit.len() {
            return Err(format!(
                "{} workers for a {}-gate circuit; workers must not exceed gate count",
                req.workers,
                circuit.len()
            ));
        }
        let weights = GateWeights::uniform(circuit.len());
        let partition = ConePartitioner.partition(&circuit, req.workers, &weights);
        let p = Arc::new(Prepared { circuit, partition });
        let mut memo = lock_recover(&self.prepared);
        if memo.len() == PREPARED_CAP {
            memo.pop_front();
        }
        memo.push_back((key, Arc::clone(&p)));
        Ok(p)
    }

    fn run_kernel(
        &self,
        req: &JobRequest,
        prep: &Prepared,
    ) -> Result<SimOutcome<Logic4>, SimError> {
        let part = prep.partition.clone();
        match req.kernel {
            KernelKind::Sync => self.run_on(ThreadedSyncSimulator::new(part), req, prep),
            KernelKind::Conservative => {
                self.run_on(ThreadedConservativeSimulator::new(part), req, prep)
            }
            KernelKind::TimeWarp => self.run_on(ThreadedTimeWarpSimulator::new(part), req, prep),
        }
    }

    /// Configures any threaded kernel the same way and runs the job on it.
    fn run_on<P: SyncProtocol<Logic4>>(
        &self,
        kernel: FabricKernel<P, Threads, Logic4>,
        req: &JobRequest,
        prep: &Prepared,
    ) -> Result<SimOutcome<Logic4>, SimError> {
        let observe = match req.observe {
            ObserveSpec::Outputs => Observe::Outputs,
            ObserveSpec::AllNets => Observe::AllNets,
            ObserveSpec::Nothing => Observe::Nothing,
        };
        let mut k = kernel
            .with_compiled_cache(self.store.dir())
            .with_observe(observe)
            .with_budget(self.cfg.quotas.clamp(req.budget));
        if let Some(t) = self.cfg.barrier_timeout {
            k = k.with_barrier_timeout(t);
        }
        if let Some((w, r)) = req.fault_kill {
            k = k.with_faults(FaultPlan::new().with_kill(w, r));
        }
        let stimulus = Stimulus::random(req.seed, req.interval);
        k.try_run(&prep.circuit, &stimulus, VirtualTime::new(req.until))
    }

    /// Streams the waveform dump as validated chunk frames: a CSV header
    /// line, then one `net,name,time,value` row per transition. Budget-
    /// truncated outcomes stream exactly the same way — the fabric already
    /// clipped them to committed time, so every chunk is valid history.
    fn stream_waveforms(
        &self,
        circuit: &Circuit,
        outcome: &SimOutcome<Logic4>,
        sink: &mut dyn FnMut(JobEvent),
    ) {
        let mut writer =
            ChunkWriter::new(self.cfg.chunk_bytes, |frame| sink(JobEvent::Chunk(frame)));
        writer.push_line("net,name,time,value");
        for (id, w) in &outcome.waveforms {
            let name = circuit.gate(*id).name().unwrap_or("");
            for &(t, v) in w.transitions() {
                writer.push_line(&format!("{},{name},{},{v}", id.index(), t.ticks()));
            }
        }
        writer.finish();
    }
}

fn build_circuit(spec: &NetlistSpec) -> Result<Circuit, String> {
    match spec {
        NetlistSpec::Bench(text) => bench::parse("job", text, DelayModel::Unit)
            .map_err(|e| format!("bench parse error: {e}")),
        NetlistSpec::Generate { kind, size } => {
            let size = *size;
            if size == 0 || size > 4096 {
                return Err(format!("generator size {size} out of range 1..=4096"));
            }
            match kind.as_str() {
                "ripple_adder" => Ok(generate::ripple_adder(size, DelayModel::Unit)),
                "lfsr" => Ok(generate::lfsr(size.max(2), DelayModel::Unit)),
                "counter" => Ok(generate::counter(size, DelayModel::Unit)),
                "tree" => Ok(generate::tree(GateKind::Xor, size.max(2), DelayModel::Unit)),
                "mesh" => Ok(generate::mesh(size, size, DelayModel::Unit)),
                other => Err(format!("unknown generator `{other}`")),
            }
        }
    }
}

fn classify(e: &SimError) -> &'static str {
    match e {
        SimError::WorkerPanic { .. } => "worker-panic",
        SimError::BarrierTimeout { .. } => "barrier-timeout",
        SimError::ProtocolAbort { .. } => "protocol-abort",
        SimError::DeliveryFault { .. } => "delivery-fault",
        SimError::LockPoisoned { .. } => "lock-poisoned",
        _ => "sim-error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(netlist: NetlistSpec) -> JobRequest {
        JobRequest {
            tenant: "acme".into(),
            netlist,
            kernel: KernelKind::Sync,
            workers: 2,
            until: 10,
            seed: 1,
            interval: 5,
            observe: ObserveSpec::Outputs,
            budget: parsim_core::RunBudget::UNLIMITED,
            fault_kill: None,
        }
    }

    /// A distinct two-gate netlist per `i`.
    fn bench_text(i: usize) -> NetlistSpec {
        NetlistSpec::Bench(format!(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y{i})\nn{i} = NAND(a, b)\ny{i} = NOT(n{i})\n"
        ))
    }

    #[test]
    fn prepared_memo_is_capped_oldest_out_and_repeats_still_hit() {
        let service = SimService::new(ServiceConfig::new(std::env::temp_dir().join("unused")));
        let warm = request(NetlistSpec::Generate { kind: "ripple_adder".into(), size: 4 });
        let first = service.prepare(&warm).expect("valid generator");
        assert!(Arc::ptr_eq(&first, &service.prepare(&warm).unwrap()), "a repeat hits");
        let mut other_workers = warm.clone();
        other_workers.workers = 3;
        assert!(!Arc::ptr_eq(&first, &service.prepare(&other_workers).unwrap()));

        // A stream of cap + 2 cold netlists: the memo stops at the cap, the
        // oldest entries (the warm ones above) are gone, the newest stays.
        let cold: Vec<JobRequest> = (0..PREPARED_CAP + 2).map(|i| request(bench_text(i))).collect();
        let built: Vec<_> = cold.iter().map(|r| service.prepare(r).expect("valid bench")).collect();
        assert_eq!(lock_recover(&service.prepared).len(), PREPARED_CAP);
        let newest = cold.len() - 1;
        assert!(Arc::ptr_eq(&built[newest], &service.prepare(&cold[newest]).unwrap()));
        assert!(Arc::ptr_eq(&built[2], &service.prepare(&cold[2]).unwrap()), "oldest survivor");
        assert!(!Arc::ptr_eq(&built[1], &service.prepare(&cold[1]).unwrap()), "evicted: rebuilt");
        assert!(!Arc::ptr_eq(&first, &service.prepare(&warm).unwrap()), "evicted: rebuilt");
        assert_eq!(lock_recover(&service.prepared).len(), PREPARED_CAP);
    }
}
