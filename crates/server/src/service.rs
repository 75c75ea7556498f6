//! The simulation service: admission → scheduling → fabric run →
//! streamed results.
//!
//! One [`SimService`] owns everything the transport layer does not: the
//! per-tenant [`QuotaLedger`], the bounded [`RunSlots`] pool, a cache of
//! prepared (parsed + partitioned) circuits, and — crucially — a single
//! [`ArtifactStore`] shared by *all* jobs, so the second tenant to submit
//! a given circuit reuses the first tenant's compiled bytecode. Each job
//! reports how the store satisfied it in its `accepted` event.
//!
//! Every number [`SimService::metrics`] reports lives in one
//! [`parsim_trace::Metrics`] registry, recorded once where it happens:
//! admission and rejection from the ledger's answer, job outcomes as the
//! job ends, cache hits and misses from the outcome the store returns, and
//! run-slot pressure inside [`RunSlots`]. `/metrics` is a flat view of it.
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
use parsim_logic::{GateKind, Logic4, LogicValue as _};
use parsim_netlist::{bench, generate, Circuit, DelayModel};
use parsim_optimistic::ThreadedTimeWarpSimulator;
use parsim_partition::{ConePartitioner, GateWeights, Partition, Partitioner as _};
use parsim_runtime::{
    lock_recover, ArtifactStore, CacheOutcome, FabricKernel, FaultPlan, SyncProtocol, Threads,
};
use parsim_sync::ThreadedSyncSimulator;
use parsim_trace::{ChunkWriter, Metrics};

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

/// The counters the service records itself, registered at zero so a fresh
/// service reports every key; [`RunSlots`] registers the `slots_*` keys.
const COUNTERS: [&str; 9] = [
    "jobs_admitted",
    "jobs_rejected",
    "jobs_completed",
    "jobs_truncated",
    "jobs_failed",
    "cache_hits",
    "cache_misses",
    "cache_recompiled_corrupt",
    "cache_raced_adopted",
];

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
    /// Everything `/metrics` reports, shared with the run pool.
    metrics: Arc<Metrics>,
}

impl SimService {
    /// Builds the service; creates the artifact store root lazily on
    /// first compile.
    pub fn new(cfg: ServiceConfig) -> Self {
        let store = ArtifactStore::new(&cfg.cache_dir);
        let metrics = Arc::new(Metrics::new());
        for name in COUNTERS {
            metrics.counter_add(name, 0);
        }
        let slots = RunSlots::recording_into(cfg.run_slots, Arc::clone(&metrics));
        SimService {
            cfg,
            store,
            ledger: QuotaLedger::new(),
            slots,
            prepared: Mutex::new(VecDeque::new()),
            memo_keys: RandomState::new(),
            next_job: AtomicU64::new(0),
            metrics,
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
        let admission = self.ledger.admit(&req.tenant, &self.cfg.quotas);
        self.metrics
            .counter_add(if admission.is_ok() { "jobs_admitted" } else { "jobs_rejected" }, 1);
        let _permit = match admission {
            Ok(p) => p,
            Err(e) => return self.fail(sink, "quota-exhausted", &e.to_string()),
        };
        let prepared = match self.prepare(req) {
            Ok(p) => p,
            Err(msg) => return self.fail(sink, "bad-request", &msg),
        };
        if let Err(msg) = check_stimulus(req, &prepared.circuit) {
            return self.fail(sink, "bad-request", &msg);
        }
        // The slot bounds compile + run: both are CPU-heavy.
        let _slot = self.slots.acquire();

        // Pre-warm the shared store with exactly the key the fabric will
        // look up (granularity-1 runs: LP == partition block), and report
        // the outcome so clients see cross-tenant reuse.
        let lp_of: Vec<usize> =
            prepared.circuit.ids().map(|id| prepared.partition.block_of(id)).collect();
        let (_, cache_outcome, _) =
            self.store.load_or_compile(&prepared.circuit, &lp_of, prepared.partition.blocks());
        self.metrics.counter_add(cache_counter(cache_outcome), 1);

        let job_id = self.next_job.fetch_add(1, Ordering::SeqCst) + 1;
        sink(JobEvent::Accepted { job_id, cache: cache_outcome.label().to_owned() });

        let start = Instant::now();
        let result = self.run_kernel(req, &prepared);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(outcome) => {
                self.stream_waveforms(&prepared.circuit, &outcome, sink);
                let truncated = outcome.stats.truncated;
                self.metrics
                    .counter_add(if truncated { "jobs_truncated" } else { "jobs_completed" }, 1);
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

    /// The `/metrics` view: every counter and gauge in the service's
    /// registry — job outcomes, quota decisions, pool pressure and
    /// shared-cache effectiveness — flattened to one map.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let snapshot = self.metrics.snapshot();
        let counters = snapshot.counters.into_iter().map(|(name, n)| (name, n as f64));
        counters.chain(snapshot.gauges).collect()
    }

    /// The shared artifact store (its directory is where every job's
    /// kernel looks up compiled blocks).
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    fn fail(&self, sink: &mut dyn FnMut(JobEvent), code: &str, message: &str) {
        self.metrics.counter_add("jobs_failed", 1);
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
        let mut row = String::new();
        for (id, w) in &outcome.waveforms {
            let name = circuit.gate(*id).name().unwrap_or("");
            for &(t, v) in w.transitions() {
                write_row(&mut row, id.index(), name, t.ticks(), v);
                writer.push_line(&row);
            }
        }
        writer.finish();
    }
}

/// Overwrites `row` with one waveform CSV row, `net,name,time,value`.
fn write_row(row: &mut String, net: usize, name: &str, time: u64, value: Logic4) {
    row.clear();
    push_decimal(row, net as u64);
    row.push(',');
    row.push_str(name);
    row.push(',');
    push_decimal(row, time);
    row.push(',');
    row.push(value.to_char());
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// The largest generator size parameter a job may ask for: a
/// `ripple_adder` of this many bits is ~29 k gates, the largest circuit a
/// `generate` request can build.
const GENERATOR_SIZE_CAP: usize = 4096;

/// The largest `mesh` side: the mesh builds `side²` cells, so the side gets
/// its own bound (16 384 cells) to stay under the `ripple_adder` cap.
const MESH_SIDE_CAP: usize = 128;

/// The most input values a job's stimulus may hold: vectors (one per
/// `interval` ticks before `until`) × primary inputs. The fabric builds
/// every vector before round one, so no run budget or deadline can stop
/// an oversize one; it is refused here, before a run slot is taken.
const STIMULUS_CAP: u64 = 1 << 22;

fn check_stimulus(req: &JobRequest, circuit: &Circuit) -> Result<(), String> {
    let vectors = req.until.div_ceil(req.interval);
    let inputs = circuit.inputs().len() as u64;
    let values = vectors.saturating_mul(inputs);
    if values > STIMULUS_CAP {
        return Err(format!(
            "stimulus of {vectors} vectors × {inputs} inputs = {values} input values \
             exceeds the limit of {STIMULUS_CAP}"
        ));
    }
    Ok(())
}

fn build_circuit(spec: &NetlistSpec) -> Result<Circuit, String> {
    match spec {
        NetlistSpec::Bench(text) => bench::parse("job", text, DelayModel::Unit)
            .map_err(|e| format!("bench parse error: {e}")),
        NetlistSpec::Generate { kind, size } => {
            let size = *size;
            if size == 0 || size > GENERATOR_SIZE_CAP {
                return Err(format!("generator size {size} out of range 1..={GENERATOR_SIZE_CAP}"));
            }
            match kind.as_str() {
                "ripple_adder" => Ok(generate::ripple_adder(size, DelayModel::Unit)),
                "lfsr" => Ok(generate::lfsr(size.max(2), DelayModel::Unit)),
                "counter" => Ok(generate::counter(size, DelayModel::Unit)),
                "tree" => Ok(generate::tree(GateKind::Xor, size.max(2), DelayModel::Unit)),
                "mesh" if size > MESH_SIDE_CAP => {
                    Err(format!("mesh side {size} out of range 1..={MESH_SIDE_CAP}"))
                }
                "mesh" => Ok(generate::mesh(size, size, DelayModel::Unit)),
                other => Err(format!("unknown generator `{other}`")),
            }
        }
    }
}

/// The `/metrics` counter one cache outcome adds to.
fn cache_counter(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::Hit => "cache_hits",
        CacheOutcome::MissCompiled => "cache_misses",
        CacheOutcome::RecompiledCorrupt => "cache_recompiled_corrupt",
        CacheOutcome::RacedAdopted => "cache_raced_adopted",
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

    /// Name pieces for waveform rows: CSV and JSON specials, non-ASCII.
    fn name_pieces() -> Vec<&'static str> {
        vec!["g", "7", "_", ",", "\"", "\\", " ", "é", "λ", "€", "😀", ""]
    }

    proptest::proptest! {
        #[test]
        fn rows_match_the_format_macro_row(
            net in proptest::prelude::any::<usize>(),
            name in proptest::prop::collection::vec(proptest::prop::sample::select(name_pieces()), 0..6),
            time in proptest::prelude::any::<u64>(),
            value in proptest::prop::sample::select(Logic4::all().to_vec()),
            small in 0u64..2_000_000,
        ) {
            let name = name.concat();
            let mut row = String::from("stale contents");
            for (net, time) in [(net, time), (small as usize, small)] {
                write_row(&mut row, net, &name, time, value);
                proptest::prop_assert_eq!(&row, &format!("{net},{name},{time},{value}"));
            }
        }
    }

    #[test]
    fn rows_match_the_format_macro_row_at_digit_boundaries() {
        let mut row = String::new();
        for n in [0, 9, 10, 99_999, 999_999, 1_000_000, 1_000_001, u64::MAX - 1, u64::MAX] {
            write_row(&mut row, n as usize, "a,\"b\"", n, Logic4::X);
            assert_eq!(row, format!("{},a,\"b\",{n},X", n as usize));
        }
    }

    #[test]
    fn oversize_stimulus_is_refused_before_a_slot_or_a_compile() {
        let service = SimService::new(ServiceConfig::new(std::env::temp_dir().join("unused")));
        let adder = NetlistSpec::Generate { kind: "ripple_adder".into(), size: 8 };
        let inputs = generate::ripple_adder(8, DelayModel::Unit).inputs().len() as u64;
        let mut req = request(adder);
        req.interval = 1;
        // One vector past the cap: refused with the limit named, and
        // nothing compiled, no run slot taken, no `accepted` sent.
        req.until = STIMULUS_CAP / inputs + 1;
        let mut events = Vec::new();
        service.submit_request(&req, &mut |e| events.push(e));
        let [JobEvent::Error { code, message }] = events.as_slice() else {
            panic!("expected one error event, got {events:?}");
        };
        assert_eq!(code, "bad-request");
        assert!(message.contains(&STIMULUS_CAP.to_string()), "{message}");
        let metrics = service.metrics();
        assert_eq!(metrics["cache_misses"] + metrics["cache_hits"], 0.0, "{metrics:?}");
        assert_eq!(metrics["slots_peak_in_use"], 0.0, "{metrics:?}");
        // At the cap the stimulus is admitted.
        req.until -= 1;
        let prepared = service.prepare(&req).expect("valid generator");
        assert_eq!(check_stimulus(&req, &prepared.circuit), Ok(()));
        // The vector count rounds up: a partial interval is one more vector.
        req.interval = 2;
        req.until = 2 * (STIMULUS_CAP / inputs) + 1;
        assert!(check_stimulus(&req, &prepared.circuit).is_err());
    }

    #[test]
    fn generated_circuits_stay_under_the_ripple_adder_cap() {
        let service = SimService::new(ServiceConfig::new(std::env::temp_dir().join("unused")));
        let generated = |kind: &str, size: usize| {
            service.prepare(&request(NetlistSpec::Generate { kind: kind.into(), size }))
        };
        let largest =
            generated("ripple_adder", GENERATOR_SIZE_CAP).expect("at the cap").circuit.len();
        let mesh = generated("mesh", MESH_SIDE_CAP).expect("at the mesh cap").circuit.len();
        assert!(mesh <= largest, "{mesh}-gate mesh vs {largest}-gate adder");
        // A side one past the cap, and the old 16.7 M-gate request, are
        // refused before anything is built, naming the limit.
        for side in [MESH_SIDE_CAP + 1, GENERATOR_SIZE_CAP] {
            let err = generated("mesh", side).expect_err("over the mesh cap");
            assert!(err.contains(&format!("1..={MESH_SIDE_CAP}")), "{err}");
        }
        let err = generated("ripple_adder", GENERATOR_SIZE_CAP + 1).expect_err("over the cap");
        assert!(err.contains(&format!("1..={GENERATOR_SIZE_CAP}")), "{err}");
    }
}
