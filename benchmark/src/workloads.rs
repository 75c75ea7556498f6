//! The eight workloads: set-up, one timed operation, and its oracle.
//!
//! Every operation is timed around calls into the product's public API
//! only. Its result is checked after the timer has stopped; a miss is
//! counted, never fatal.

use std::cell::OnceCell;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parsim::bitsim::PackedOutcome;
use parsim::prelude::*;
use parsim::trace::{reassemble, ChunkFrame, ChunkWriter, DEFAULT_CHUNK_BYTES};
use parsim_server::{JobEvent, JobRequest, ObserveSpec, Server, ServiceConfig, SimService};

use crate::client::{submit_streaming, Streamed};
use crate::inputs;
use crate::spans::Recorder;

/// Workload names, in run order. Final: later changes are judged by them.
pub const NAMES: [&str; 8] = [
    "seq_dag10k",
    "sync_p2_dag10k",
    "cmb_p2_dag10k",
    "tw_p2_dag10k",
    "sweep_dag10k",
    "modeled_p8_dag4k",
    "serve_warm_c1",
    "serve_cold_c1",
];

/// Lanes of the packed phase of `sweep_dag10k`.
const LANES: usize = 64;
/// Committed events the sequential reference is sized to (see `inputs`).
const DAG10K_EVENTS: u64 = 160_000;
const DAG4K_EVENTS: u64 = 66_000;
/// Their usual activity in `steady_dag`'s short run (median of thirty seeds).
const DAG10K_PROBE_EVENTS: u64 = 78_000;
const DAG4K_PROBE_EVENTS: u64 = 29_000;
/// The same for one `serve_cold_c1` job: 200 distinct netlists of equal
/// size in events, not 200 of whatever size the structure gives.
const COLD_JOB_EVENTS: u64 = 30_000;
/// The service's own barrier timeout, repeated in the replay.
const BARRIER_TIMEOUT: Duration = Duration::from_secs(30);

/// What one operation measured. Rates are formed per operation, so each
/// carries its own numerators and the wall time they were counted over.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Whole operation.
    pub wall_ns: u64,
    /// Start → first result available to the caller.
    pub first_ns: u64,
    /// Sequential-reference committed events of what the operation ran.
    pub events: u64,
    /// Gate evaluations, and the wall time they took.
    pub gate_evals: u64,
    pub evals_ns: u64,
    /// Lanes × gate evaluations, and the wall time they took.
    pub lane_evals: u64,
    pub lanes_ns: u64,
    /// The oracle's verdict.
    pub ok: bool,
    /// Wall time and statistics of each kernel run, in run order.
    pub runs: Vec<(u64, SimStats)>,
    /// Serve workloads: what the stream carried.
    pub job: Option<JobFacts>,
}

/// Per-job facts of the serve workloads.
#[derive(Debug, Clone, Default)]
pub struct JobFacts {
    pub stream_bytes: u64,
    pub chunks: u64,
    /// The `done` event's own `wall_ms` (kernel run only).
    pub run_ms: f64,
    /// `SimService::submit` of the same body into a memory sink (traced pass).
    pub inproc_ms: Option<f64>,
}

/// The circuit a workload is about, for the unit-cost loops and the
/// modeled-machine statistics.
pub struct Subject<'a> {
    pub circuit: &'a Circuit,
    pub stimulus: &'a Stimulus,
    pub until: u64,
    pub workers: usize,
    pub reference: &'a SimOutcome<Logic4>,
}

/// One of the eight workloads, set up and ready to run operations.
pub trait Workload {
    /// Runs operation `index` and then checks it.
    fn op(&self, index: u64, rec: &mut Recorder) -> Sample;
    /// The workload's circuit and how it is run.
    fn subject(&self) -> Subject<'_>;
    /// Runs the workload's kernel once under `probe`; wall nanoseconds.
    fn probed_run(&self, probe: Probe) -> u64;
    /// Modeled `(sync, cmb)` speedups if the timed operations produced them.
    fn modeled_speedups(&self) -> Option<(f64, f64)> {
        None
    }
    /// Workload-specific layer metrics from the traced block's samples.
    fn layer_metrics(&self, samples: &[Sample], out: &mut Vec<(&'static str, f64)>);
    /// Operations the timed pass must complete, whatever `--seconds` says.
    fn min_ops(&self) -> usize {
        5
    }
}

/// Seed → ready, warm-up operation included.
pub fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    let kind = match name {
        "seq_dag10k" => Kind::Seq,
        "sync_p2_dag10k" => Kind::Sync,
        "cmb_p2_dag10k" => Kind::Cmb,
        "tw_p2_dag10k" => Kind::Tw,
        "sweep_dag10k" => Kind::Sweep,
        "modeled_p8_dag4k" => Kind::Modeled,
        "serve_warm_c1" => return Box::new(Serve::setup(seed, false)),
        "serve_cold_c1" => return Box::new(Serve::setup(seed, true)),
        other => panic!("unknown workload `{other}`"),
    };
    Box::new(Kernel::setup(kind, seed))
}

/// Modeled `(sync, cmb)` speedups of the workload's circuit on
/// `MachineConfig::shared_memory(workers)`: simulated time, so exact at a
/// given seed. Taken from the timed operations where they are modeled
/// runs, from one untimed pair of runs otherwise.
pub fn modeled_speedups(workload: &dyn Workload) -> (f64, f64) {
    workload.modeled_speedups().unwrap_or_else(|| {
        let s = workload.subject();
        let (part, until) = (cone(s.circuit, s.workers), VirtualTime::new(s.until));
        let machine = || MachineConfig::shared_memory(s.workers);
        let sync = SyncSimulator::<Logic4>::new(part.clone(), machine())
            .with_observe(Observe::Nothing)
            .run(s.circuit, s.stimulus, until);
        let cmb = ConservativeSimulator::<Logic4>::new(part, machine())
            .with_observe(Observe::Nothing)
            .run(s.circuit, s.stimulus, until);
        (sync.stats.modeled_speedup().unwrap_or(0.0), cmb.stats.modeled_speedup().unwrap_or(0.0))
    })
}

fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let v = f();
    (u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX), v)
}

/// A directory under `benchmark/out/` removed on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        // relaxed: uniqueness only needs the counter's own atomicity.
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory under benchmark/out");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark writes: `benchmark/out` of the checkout it runs in.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// The partition every workload and the service use: cones, uniform weights.
pub fn cone(circuit: &Circuit, blocks: usize) -> Partition {
    ConePartitioner.partition(circuit, blocks, &GateWeights::uniform(circuit.len()))
}

/// Per-gate LP assignment at granularity 1 (LP = partition block), the
/// shape the compiler and the artifact keys consume.
pub fn lp_of(circuit: &Circuit, partition: &Partition) -> Vec<usize> {
    circuit.ids().map(|id| partition.block_of(id)).collect()
}

// --- kernel workloads ------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Seq,
    Sync,
    Cmb,
    Tw,
    Sweep,
    Modeled,
}

impl Kind {
    fn workers(self) -> usize {
        if self == Kind::Modeled {
            8
        } else {
            2
        }
    }
}

enum Out {
    Scalar(Result<SimOutcome<Logic4>, String>),
    Packed(PackedOutcome<PackedLogic4>),
}

struct Kernel {
    kind: Kind,
    circuit: Circuit,
    stimulus: Stimulus,
    until: u64,
    reference: SimOutcome<Logic4>,
    /// Cone partition: 2 blocks for the threaded kernels, 8 for the modeled.
    partition: Option<Partition>,
    /// Artifact store of the threaded kernels, warmed by the warm-up run.
    cache: Option<Scratch>,
    /// `sweep`: the 64 lanes and the reference of the last one.
    packed: Option<(PackedStimulus, SimOutcome<Logic4>)>,
    /// `modeled`: the warm-up trio's statistics; every later trio must repeat them.
    first_trio: Vec<SimStats>,
}

impl Kernel {
    fn setup(kind: Kind, seed: u64) -> Self {
        let (gates, budget, probe, label) = if kind == Kind::Modeled {
            (4096, DAG4K_EVENTS, DAG4K_PROBE_EVENTS, "dag4k")
        } else {
            (10_240, DAG10K_EVENTS, DAG10K_PROBE_EVENTS, "dag10k")
        };
        // One circuit for all five dag10k workloads, so their rows compare.
        let (circuit, stimulus) = inputs::steady_dag(gates, seed, label, probe);
        // The sweep's work is ticks × gates, whatever the activity: it
        // keeps the nominal horizon; the event-driven kernels get theirs
        // from the event budget.
        let (until, reference) = if kind == Kind::Sweep {
            let until = inputs::NOMINAL_UNTIL;
            (until, inputs::reference(&circuit, &stimulus, until, Observe::Outputs))
        } else {
            inputs::calibrate(&circuit, &stimulus, budget, Observe::Outputs)
        };
        let partitioned = matches!(kind, Kind::Sync | Kind::Cmb | Kind::Tw | Kind::Modeled);
        let partition = partitioned.then(|| cone(&circuit, kind.workers()));
        let cache =
            matches!(kind, Kind::Sync | Kind::Cmb | Kind::Tw).then(|| Scratch::new("kernel"));
        let packed = (kind == Kind::Sweep).then(|| {
            let lane = |k: usize| {
                if k == 0 {
                    stimulus.clone()
                } else {
                    inputs::stimulus(inputs::derive(seed, "lane", k as u64))
                }
            };
            let last = inputs::reference(&circuit, &lane(LANES - 1), until, Observe::Outputs);
            (PackedStimulus::new((0..LANES).map(lane).collect()), last)
        });
        let mut w = Kernel {
            kind,
            circuit,
            stimulus,
            until,
            reference,
            partition,
            cache,
            packed,
            first_trio: Vec::new(),
        };
        let warm_up = w.op(0, &mut Recorder::disabled());
        w.first_trio = warm_up.runs.iter().map(|&(_, stats)| stats).collect();
        w
    }

    fn until(&self) -> VirtualTime {
        VirtualTime::new(self.until)
    }

    fn threaded(&self, probe: Probe) -> Result<SimOutcome<Logic4>, String> {
        let part = self.partition.clone().expect("threaded kernels are partitioned");
        let dir = self.cache.as_ref().expect("threaded kernels have a store").path();
        let (c, s, until) = (&self.circuit, &self.stimulus, self.until());
        // Library-default protocol options; only the shipped service
        // configuration (on-disk compiled cache) is switched on.
        macro_rules! run {
            ($kernel:ty) => {
                <$kernel>::new(part).with_compiled_cache(dir).with_probe(probe).try_run(c, s, until)
            };
        }
        match self.kind {
            Kind::Sync => run!(ThreadedSyncSimulator<Logic4>),
            Kind::Cmb => run!(ThreadedConservativeSimulator<Logic4>),
            _ => run!(ThreadedTimeWarpSimulator<Logic4>),
        }
        .map_err(|e| e.to_string())
    }

    fn modeled_trio(&self, rec: &mut Recorder, outs: &mut Vec<(u64, Out)>) {
        let part = self.partition.as_ref().expect("modeled kernels are partitioned");
        let machine = || MachineConfig::shared_memory(self.kind.workers());
        let (c, s, until) = (&self.circuit, &self.stimulus, self.until());
        let mut push = |(ns, o): (u64, SimOutcome<Logic4>)| outs.push((ns, Out::Scalar(Ok(o))));
        push(rec.span("sync.modeled", |_| {
            timed(|| SyncSimulator::new(part.clone(), machine()).run(c, s, until))
        }));
        push(rec.span("conservative.modeled", |_| {
            timed(|| ConservativeSimulator::new(part.clone(), machine()).run(c, s, until))
        }));
        push(rec.span("optimistic.modeled", |_| {
            timed(|| TimeWarpSimulator::new(part.clone(), machine()).run(c, s, until))
        }));
    }
}

impl Workload for Kernel {
    fn op(&self, index: u64, rec: &mut Recorder) -> Sample {
        rec.set_op(index);
        let (c, s, until) = (&self.circuit, &self.stimulus, self.until());
        let mut outs: Vec<(u64, Out)> = Vec::new();
        rec.span("op", |rec| match self.kind {
            Kind::Seq => outs.push(rec.span("kernel.run", |_| {
                let (ns, o) = timed(|| SequentialSimulator::<Logic4>::new().run(c, s, until));
                (ns, Out::Scalar(Ok(o)))
            })),
            Kind::Sync | Kind::Cmb | Kind::Tw => {
                if rec.is_enabled() {
                    // What every cached threaded run pays before its first
                    // round, replayed through the public API so it shows
                    // beside `kernel.run` (which pays it again inside).
                    let part = self.partition.as_ref().expect("partitioned");
                    rec.span("runtime.fabric_new", |_| {
                        std::hint::black_box(Fabric::new(c, part, 1, Observe::Outputs));
                    });
                    rec.span("compile.load", |_| {
                        let store = ArtifactStore::new(self.cache.as_ref().expect("store").path());
                        let key = ArtifactStore::cache_key(c, &lp_of(c, part), part.blocks());
                        std::hint::black_box(store.load(key));
                    });
                }
                outs.push(rec.span("kernel.run", |_| {
                    let (ns, o) = timed(|| self.threaded(Probe::disabled()));
                    (ns, Out::Scalar(o))
                }));
            }
            Kind::Sweep => {
                let (lanes, _) = self.packed.as_ref().expect("sweep has lanes");
                outs.push(rec.span("core.oblivious_compiled", |_| {
                    let (ns, o) = timed(|| {
                        ObliviousSimulator::<Logic4>::new().with_compiled().run(c, s, until)
                    });
                    (ns, Out::Scalar(Ok(o)))
                }));
                outs.push(rec.span("bitsim.run", |_| {
                    let (ns, o) =
                        timed(|| BitSimulator::<PackedLogic4>::new().run(c, lanes, until));
                    (ns, Out::Packed(o))
                }));
            }
            Kind::Modeled => self.modeled_trio(rec, &mut outs),
        });

        // The clock has stopped: oracle.
        let mut sample = Sample { ok: true, ..Sample::default() };
        for (ns, out) in &outs {
            let (stats, ok) = match out {
                Out::Scalar(Ok(o)) => (o.stats, o.divergence_from(&self.reference).is_none()),
                Out::Scalar(Err(_)) => (SimStats::default(), false),
                Out::Packed(p) => {
                    let (_, last) = self.packed.as_ref().expect("sweep has lanes");
                    let first_ok = p.lane_outcome(0).divergence_from(&self.reference).is_none();
                    let last_ok = p.lane_outcome(LANES - 1).divergence_from(last).is_none();
                    (p.stats, p.lanes == LANES && first_ok && last_ok)
                }
            };
            sample.ok &= ok && !stats.truncated;
            sample.runs.push((*ns, stats));
        }
        if self.kind == Kind::Modeled && !self.first_trio.is_empty() {
            // Simulated statistics must repeat exactly from trio to trio.
            sample.ok &= sample.runs.iter().map(|r| &r.1).eq(self.first_trio.iter());
        }
        let walls: Vec<u64> = sample.runs.iter().map(|r| r.0).collect();
        let evals: Vec<u64> = sample.runs.iter().map(|r| r.1.gate_evaluations).collect();
        let ref_events = self.reference.stats.events_processed;
        sample.wall_ns = walls.iter().sum();
        sample.first_ns = sample.wall_ns;
        sample.events = ref_events * outs.len() as u64;
        if self.kind == Kind::Sweep {
            (sample.gate_evals, sample.evals_ns) = (evals[0], walls[0]);
            (sample.lane_evals, sample.lanes_ns) = (evals[1] * LANES as u64, walls[1]);
        } else {
            (sample.gate_evals, sample.evals_ns) = (evals.iter().sum(), sample.wall_ns);
            (sample.lane_evals, sample.lanes_ns) = (sample.gate_evals, sample.wall_ns);
        }
        sample
    }

    fn subject(&self) -> Subject<'_> {
        Subject {
            circuit: &self.circuit,
            stimulus: &self.stimulus,
            until: self.until,
            workers: self.kind.workers(),
            reference: &self.reference,
        }
    }

    fn probed_run(&self, probe: Probe) -> u64 {
        let (c, s, until) = (&self.circuit, &self.stimulus, self.until());
        match self.kind {
            Kind::Seq => {
                timed(|| SequentialSimulator::<Logic4>::new().with_probe(probe).run(c, s, until)).0
            }
            Kind::Sync | Kind::Cmb | Kind::Tw => timed(|| self.threaded(probe)).0,
            Kind::Sweep => {
                timed(|| {
                    ObliviousSimulator::<Logic4>::new()
                        .with_compiled()
                        .with_probe(probe)
                        .run(c, s, until)
                })
                .0
            }
            Kind::Modeled => {
                let part = self.partition.clone().expect("partitioned");
                let machine = MachineConfig::shared_memory(self.kind.workers());
                timed(|| {
                    SyncSimulator::<Logic4>::new(part, machine).with_probe(probe).run(c, s, until)
                })
                .0
            }
        }
    }

    fn modeled_speedups(&self) -> Option<(f64, f64)> {
        match self.first_trio.as_slice() {
            [sync, cmb, _] if self.kind == Kind::Modeled => {
                Some((sync.modeled_speedup()?, cmb.modeled_speedup()?))
            }
            _ => None,
        }
    }

    fn layer_metrics(&self, samples: &[Sample], out: &mut Vec<(&'static str, f64)>) {
        use crate::stats::median;
        // Exact for the deterministic kernels; the median for Time Warp,
        // whose rollbacks depend on how the two threads interleave.
        let stat = |run: usize, f: &dyn Fn(&SimStats) -> f64| {
            median(
                &samples
                    .iter()
                    .filter_map(|s| s.runs.get(run))
                    .map(|r| f(&r.1))
                    .collect::<Vec<_>>(),
            )
        };
        let host_ms = |run: usize| {
            median(
                &samples
                    .iter()
                    .filter_map(|s| s.runs.get(run))
                    .map(|r| r.0 as f64 / 1e6)
                    .collect::<Vec<_>>(),
            )
        };
        if let Some(p) = &self.partition {
            out.push(("partition.cut_nets", p.cut_nets(&self.circuit) as f64));
        }
        match self.kind {
            Kind::Sync => {
                out.push(("sync.rounds", stat(0, &|s| s.barriers as f64)));
                out.push(("sync.messages", stat(0, &|s| s.messages_sent as f64)));
            }
            Kind::Cmb => {
                out.push(("conservative.rounds", stat(0, &|s| s.barriers as f64)));
                out.push(("conservative.messages", stat(0, &|s| s.messages_sent as f64)));
                out.push(("conservative.null_messages", stat(0, &|s| s.null_messages as f64)));
                out.push((
                    "conservative.null_ratio",
                    stat(0, &|s| ratio(s.null_messages, s.null_messages + s.messages_sent)),
                ));
            }
            Kind::Tw => {
                out.push(("optimistic.rounds", stat(0, &|s| s.barriers as f64)));
                out.push(("optimistic.rollbacks", stat(0, &|s| s.rollbacks as f64)));
                out.push((
                    "optimistic.events_rolled_back",
                    stat(0, &|s| s.events_rolled_back as f64),
                ));
                out.push(("optimistic.commit_ratio", stat(0, &|s| s.efficiency())));
                out.push(("optimistic.anti_messages", stat(0, &|s| s.anti_messages as f64)));
                out.push((
                    "optimistic.state_bytes_saved",
                    stat(0, &|s| s.state_bytes_saved as f64),
                ));
                out.push(("optimistic.gvt_rounds", stat(0, &|s| s.gvt_rounds as f64)));
            }
            Kind::Modeled => {
                out.push(("machine.work_units", stat(0, &|s| s.modeled_work as f64)));
                out.push(("machine.makespan_sync", stat(0, &|s| s.modeled_makespan as f64)));
                out.push(("machine.makespan_cmb", stat(1, &|s| s.modeled_makespan as f64)));
                out.push(("machine.makespan_tw", stat(2, &|s| s.modeled_makespan as f64)));
                out.push(("machine.speedup_tw", stat(2, &|s| s.modeled_speedup().unwrap_or(0.0))));
                out.push(("sync.modeled_host_ms", host_ms(0)));
                out.push(("conservative.modeled_host_ms", host_ms(1)));
                out.push(("optimistic.modeled_host_ms", host_ms(2)));
            }
            Kind::Seq | Kind::Sweep => {}
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

// --- serve workloads -------------------------------------------------------

/// One job, with everything its oracle needs.
struct Job {
    request: JobRequest,
    body: String,
    circuit: Circuit,
    stimulus: Stimulus,
    /// Sequential reference under the job's own observe scope.
    reference: SimOutcome<Logic4>,
    /// The waveform dump a direct run produces.
    csv: String,
}

impl Job {
    /// `request`, with its horizon rescaled to `event_budget` if one is given.
    fn new(mut request: JobRequest, event_budget: Option<u64>) -> Self {
        let (circuit, stimulus) = inputs::job_inputs(&request);
        let observe = observe_of(&request);
        let reference = match event_budget {
            Some(budget) => {
                let (until, reference) = inputs::calibrate(&circuit, &stimulus, budget, observe);
                request.until = until;
                reference
            }
            None => inputs::reference(&circuit, &stimulus, request.until, observe),
        };
        let csv = inputs::waveform_csv(&circuit, &reference);
        Job { body: request.to_json(), request, circuit, stimulus, reference, csv }
    }

    fn cold(seed: u64, index: u64) -> Self {
        Job::new(inputs::cold_request(seed, index), Some(COLD_JOB_EVENTS))
    }
}

fn observe_of(req: &JobRequest) -> Observe {
    match req.observe {
        ObserveSpec::Outputs => Observe::Outputs,
        ObserveSpec::AllNets => Observe::AllNets,
        ObserveSpec::Nothing => Observe::Nothing,
    }
}

/// A service with its own artifact store.
struct Hosted {
    service: Arc<SimService>,
    _cache: Scratch,
}

impl Hosted {
    fn new(tag: &str) -> Self {
        let cache = Scratch::new(tag);
        // The shipped defaults: 2 run slots, default quotas, 16 KiB chunks.
        let service = Arc::new(SimService::new(ServiceConfig::new(cache.path())));
        Hosted { service, _cache: cache }
    }
}

struct Serve {
    cold: bool,
    seed: u64,
    /// Declared before the service it serves: fields drop in this order,
    /// and dropping the server stops it and joins its threads.
    _server: Server,
    hosted: Hosted,
    addr: SocketAddr,
    /// `warm`: the job. `cold`: the warm-up job, the workload's subject.
    first: Job,
    /// What `prepare` memoizes for the warm job (cold jobs miss it).
    prepared: Partition,
    /// Traced pass only: a second service driven without the transport,
    /// and the store the stage replay compiles into.
    inproc: OnceCell<Hosted>,
    replay_store: OnceCell<Scratch>,
    cache_baseline: (f64, f64),
}

impl Serve {
    fn setup(seed: u64, cold: bool) -> Self {
        let hosted = Hosted::new("serve");
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&hosted.service)).expect("bind loopback");
        let addr = server.addr();
        let first =
            if cold { Job::cold(seed, 0) } else { Job::new(inputs::warm_request(seed), None) };
        let prepared = cone(&first.circuit, first.request.workers);
        let mut w = Serve {
            cold,
            seed,
            _server: server,
            hosted,
            addr,
            first,
            prepared,
            inproc: OnceCell::new(),
            replay_store: OnceCell::new(),
            cache_baseline: (0.0, 0.0),
        };
        // Warm-up job: fills the memo and the store for `warm`, and the
        // connection/thread paths for both.
        let warm_up = submit_streaming(w.addr, &w.first.body);
        assert!(
            warm_up.is_ok_and(|s| verify_stream(&s, &w.first.csv).is_some()),
            "warm-up job failed"
        );
        w.cache_baseline = w.cache_counts();
        w
    }

    fn cache_counts(&self) -> (f64, f64) {
        let m = self.hosted.service.metrics();
        (m["cache_hits"], m["cache_misses"])
    }

    /// The first job's kernel run directly, as the service configures it.
    fn direct_run(&self, probe: Probe) -> (u64, Result<SimOutcome<Logic4>, SimError>) {
        let job = &self.first;
        let kernel = ThreadedSyncSimulator::<Logic4>::new(self.prepared.clone())
            .with_compiled_cache(self.hosted.service.store().dir())
            .with_observe(observe_of(&job.request))
            .with_probe(probe);
        timed(|| kernel.try_run(&job.circuit, &job.stimulus, VirtualTime::new(job.request.until)))
    }

    /// `SimService::submit` of `job` without the transport; milliseconds.
    fn submit_inproc(&self, job: &Job) -> Option<f64> {
        let hosted = self.inproc.get_or_init(|| {
            let h = Hosted::new("inproc");
            if !self.cold {
                h.service.submit(&self.first.body, &mut |_| {});
            }
            h
        });
        let mut events = Vec::new();
        let (ns, ()) = timed(|| hosted.service.submit(&job.body, &mut |e| events.push(e)));
        let done =
            matches!(events.last(), Some(JobEvent::Done { status, .. }) if status == "complete");
        done.then_some(ns as f64 / 1e6)
    }

    /// The service's stages through public functions, in its order. True
    /// if the replayed stream reassembles to `job`'s direct-run dump.
    fn replay(&self, job: &Job, rec: &mut Recorder) -> bool {
        let store_dir = self.replay_store.get_or_init(|| Scratch::new("replay")).path();
        let store = ArtifactStore::new(store_dir);
        let lines = rec.span("server.replay", |rec| {
            let req = rec.span("server.decode", |_| JobRequest::from_json(&job.body)).ok()?;
            let (circuit, stimulus) = (&job.circuit, &job.stimulus);
            let partition = if self.cold {
                // Memo miss: parse and partition, as `prepare` does.
                let parsed = rec.span("netlist.parse", |_| inputs::job_inputs(&req).0);
                rec.span("partition.cone", |_| cone(&parsed, req.workers))
            } else {
                self.prepared.clone()
            };
            rec.span("compile.load_or_compile", |_| {
                store.load_or_compile(circuit, &lp_of(circuit, &partition), partition.blocks());
            });
            let outcome = rec
                .span("kernel.run", |_| {
                    ThreadedSyncSimulator::<Logic4>::new(partition)
                        .with_compiled_cache(store_dir)
                        .with_observe(observe_of(&req))
                        .with_budget(req.budget)
                        .with_barrier_timeout(BARRIER_TIMEOUT)
                        .try_run(circuit, stimulus, VirtualTime::new(req.until))
                })
                .ok()?;
            let mut events = vec![JobEvent::Accepted { job_id: 1, cache: "hit".into() }];
            rec.span("trace.encode", |_| {
                let mut writer =
                    ChunkWriter::new(DEFAULT_CHUNK_BYTES, |f| events.push(JobEvent::Chunk(f)));
                inputs::waveform_csv(circuit, &outcome).lines().for_each(|l| writer.push_line(l));
                writer.finish();
            });
            events.push(JobEvent::Done {
                job_id: 1,
                status: "complete".into(),
                end_time: outcome.end_time.ticks(),
                events: outcome.stats.events_processed,
                rounds: outcome.stats.barriers,
                wall_ms: 0.0,
            });
            Some(
                rec.span("server.render", |_| {
                    events.iter().map(JobEvent::render).collect::<Vec<_>>()
                }),
            )
        });
        let Some(lines) = lines else { return false };
        let streamed = Streamed { lines, first_chunk_ns: 0, total_ns: 0, bytes: 0 };
        verify_stream(&streamed, &job.csv).is_some()
    }
}

/// Checks one job stream against the direct-run dump: every line parses,
/// the chunk frames reassemble, the bytes are equal and the stream ends
/// `done`/`complete`. Returns the chunk count and the run's own `wall_ms`.
fn verify_stream(streamed: &Streamed, expected_csv: &str) -> Option<(u64, f64)> {
    let events: Vec<JobEvent> =
        streamed.lines.iter().map(|l| JobEvent::from_line(l)).collect::<Result<_, _>>().ok()?;
    let frames: Vec<ChunkFrame> = events
        .iter()
        .filter_map(|e| if let JobEvent::Chunk(f) = e { Some(f.clone()) } else { None })
        .collect();
    let complete = matches!(events.first(), Some(JobEvent::Accepted { .. }));
    let Some(JobEvent::Done { status, wall_ms, .. }) = events.last() else { return None };
    let same = reassemble(&frames).is_ok_and(|csv| csv == expected_csv);
    (complete && status == "complete" && same).then_some((frames.len() as u64, *wall_ms))
}

impl Workload for Serve {
    fn op(&self, index: u64, rec: &mut Recorder) -> Sample {
        rec.set_op(index);
        // Job bodies are made outside the clock; a cold one is new to the server.
        let fresh = self.cold.then(|| Job::cold(self.seed, index + 1));
        let job = fresh.as_ref().unwrap_or(&self.first);
        let streamed = rec.span("server.job", |_| submit_streaming(self.addr, &job.body)).ok();

        // The clock has stopped: oracle, and in the traced pass the replay.
        let (inproc_ms, replay_ok) = if rec.is_enabled() {
            let ms = rec.span("server.submit_inproc", |_| self.submit_inproc(job));
            (ms, ms.is_some() && self.replay(job, rec))
        } else {
            (None, true)
        };
        let verdict = streamed.as_ref().and_then(|s| verify_stream(s, &job.csv));
        let Some((streamed, (chunks, run_ms))) = streamed.zip(verdict) else {
            return Sample::default();
        };
        let evals = job.reference.stats.gate_evaluations;
        Sample {
            wall_ns: streamed.total_ns,
            first_ns: streamed.first_chunk_ns,
            events: job.reference.stats.events_processed,
            gate_evals: evals,
            evals_ns: streamed.total_ns,
            lane_evals: evals,
            lanes_ns: streamed.total_ns,
            ok: replay_ok && streamed.first_chunk_ns > 0,
            runs: Vec::new(),
            job: Some(JobFacts { stream_bytes: streamed.bytes, chunks, run_ms, inproc_ms }),
        }
    }

    fn subject(&self) -> Subject<'_> {
        Subject {
            circuit: &self.first.circuit,
            stimulus: &self.first.stimulus,
            until: self.first.request.until,
            workers: self.first.request.workers,
            reference: &self.first.reference,
        }
    }

    fn probed_run(&self, probe: Probe) -> u64 {
        self.direct_run(probe).0
    }

    fn layer_metrics(&self, samples: &[Sample], out: &mut Vec<(&'static str, f64)>) {
        use crate::stats::median;
        let jobs: Vec<&JobFacts> = samples.iter().filter_map(|s| s.job.as_ref()).collect();
        let med =
            |f: &dyn Fn(&JobFacts) -> f64| median(&jobs.iter().map(|j| f(j)).collect::<Vec<_>>());
        let job_ms = median(&samples.iter().map(|s| s.wall_ns as f64 / 1e6).collect::<Vec<_>>());
        let inproc_ms = median(&jobs.iter().filter_map(|j| j.inproc_ms).collect::<Vec<_>>());
        out.push(("server.submit_inproc_ms", inproc_ms));
        out.push(("server.run_ms", med(&|j| j.run_ms)));
        out.push(("server.transport_ms", job_ms - inproc_ms));
        out.push(("server.stream_bytes", med(&|j| j.stream_bytes as f64)));
        out.push(("server.chunks", med(&|j| j.chunks as f64)));
        let (hits, misses) = self.cache_counts();
        let (hits, misses) = (hits - self.cache_baseline.0, misses - self.cache_baseline.1);
        out.push((
            "server.cache_hit_ratio",
            if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        ));
        out.push(("partition.cut_nets", self.prepared.cut_nets(&self.first.circuit) as f64));
        // The job's kernel is threaded sync: its protocol counts, from a direct run.
        if let (_, Ok(o)) = self.direct_run(Probe::disabled()) {
            out.push(("sync.rounds", o.stats.barriers as f64));
            out.push(("sync.messages", o.stats.messages_sent as f64));
        }
    }

    fn min_ops(&self) -> usize {
        // p95 needs ten samples beyond it.
        200
    }
}
