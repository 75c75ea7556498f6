//! The shared threaded LP execution fabric.

use crate::sync::{Arc, AtomicBool, AtomicU64, Mutex, OnceLock, Ordering};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use parsim_compile::{compile_blocks, ArtifactStore, CacheOutcome, CompiledBlock};
use parsim_core::{
    LpTopology, Observe, RunBudget, SimError, SimOutcome, SimStats, Stimulus, Waveform,
    WorkerDiagnostic,
};
use parsim_event::{Event, VirtualTime};
use parsim_logic::LogicValue;
use parsim_machine::{MachineConfig, VirtualMachine};
use parsim_netlist::{Circuit, GateId};
use parsim_partition::Partition;
use parsim_trace::{Probe, ProbeHandle, TraceKind, NO_LP};

use crate::barrier::{BarrierError, RoundBarrier};
use crate::fault::{FaultInjector, FaultPlan};
use crate::mailbox::{MailboxMesh, Outbox, DEFAULT_BATCH_LIMIT};
use crate::poison::lock_recover;
use crate::protocol::{
    DecideCx, Decision, ModeledRun, RoundCx, SyncProtocol, WorkerOutput, WorkerProgress,
};

/// Per-run execution options for [`Fabric::run`]: resource budget, fault
/// injection, and the barrier hang guard. The default is a plain unbounded
/// run with no injection.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Resource bounds; an exhausted budget stops the run cleanly at the
    /// next round and flags the merged stats
    /// [`truncated`](SimStats::truncated).
    pub budget: RunBudget,
    /// The fault-injection campaign, if any. An attached *empty* plan is a
    /// no-op: the run is bit-identical to one without a plan.
    pub faults: Option<FaultPlan>,
    /// Maximum time a worker waits at a synchronization barrier before the
    /// run fails with [`SimError::BarrierTimeout`]. `None` (the default)
    /// waits forever — panics are already hang-safe via abort broadcast;
    /// the timeout additionally guards against a worker *hanging* without
    /// panicking.
    pub barrier_timeout: Option<Duration>,
}

/// The coordinator's broadcast slot. Unlike [`Decision`], `Fail` carries no
/// payload: the error itself lives in the run's `fatal` slot (or the
/// failure log), and *every* worker leaves without contributing results —
/// the old behavior of letting workers `p != 0` return partial outputs
/// that merged as if complete is exactly the bug this replaces.
#[derive(Debug, Clone)]
enum Directive<T> {
    Continue(T),
    Stop,
    Fail,
}

/// One worker's side of the per-round exchange with the round's leader.
struct RoundSlot<R, T> {
    /// Deposited by the owner before it arrives, taken by the leader.
    report: Option<R>,
    /// Left by the leader before it releases, taken by the owner.
    directive: Option<Directive<T>>,
}

/// Everything one run's workers share, bundled so the loop reads clearly.
struct RunShared<M, R, T> {
    mesh: MailboxMesh<M>,
    barrier: RoundBarrier,
    /// Per-worker exchange slots. Never contended: the owner's accesses
    /// (before arriving, after release) and the leader's (while every peer
    /// is held) are separated by the round rendezvous, so each mutex is a
    /// safe cell for a generic payload, not a serialization point.
    slots: Vec<Mutex<RoundSlot<R, T>>>,
    /// Caught worker panics: (where, panic message), in arrival order.
    failures: Mutex<Vec<(WorkerDiagnostic, String)>>,
    /// First coordinator-detected fatal error (abort, delivery fault,
    /// barrier timeout).
    fatal: Mutex<Option<SimError>>,
    /// Per-worker count of rendezvous arrivals (one per round), bumped just
    /// before each wait. On a timeout this attributes the hang: any worker
    /// whose count lags the timed-out worker's never arrived.
    arrivals: Vec<AtomicU64>,
    /// Total events charged by the protocols, for the event budget.
    events: AtomicU64,
    /// Set when the budget stopped the run early.
    truncated: AtomicBool,
    /// Commit frontier noted by the protocol's `decide`
    /// ([`DecideCx::note_frontier`]); `u64::MAX` = never noted. Clips
    /// `end_time` and speculative waveform tails on budget truncation.
    frontier: AtomicU64,
    progress: Vec<WorkerProgress>,
    injector: Option<Arc<FaultInjector>>,
    /// Mesh spill count already reported by the coordinator (its private
    /// high-water mark for per-round `RingSpill` trace deltas).
    spills_seen: AtomicU64,
    start: Instant,
}

impl<M, R, T> RunShared<M, R, T> {
    /// Logs a caught panic with the worker's best-effort progress marks and
    /// aborts the barrier so no peer can hang waiting for the dead worker.
    fn record_panic(&self, worker: usize, round: u64, payload: Box<dyn std::any::Any + Send>) {
        let diag = WorkerDiagnostic {
            worker,
            lp: self.progress[worker].lp(),
            virtual_time: self.progress[worker].virtual_time(),
            round,
        };
        lock_recover(&self.failures).push((diag, panic_message(payload)));
        self.barrier.abort();
    }

    /// Stores `err` as the run's fatal error unless one is already set
    /// (the first failure wins; later ones are usually its echoes).
    fn set_fatal(&self, err: SimError) {
        let mut slot = lock_recover(&self.fatal);
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// The round's one barrier crossing. Every worker arrives with its
    /// report already in its slot; the last to arrive runs `lead` (the
    /// coordinator step) while its peers are held, and the release
    /// publishes whatever `lead` left in the slots. Traced as one
    /// [`TraceKind::BarrierWait`] span per worker covering the time it was
    /// held (the leader's own `lead` time excluded). Returns false when the
    /// round loop must stop: the barrier was aborted (a peer failed and its
    /// error is already recorded) or this worker's wait timed out
    /// (recorded here).
    fn rendezvous(
        &self,
        ph: &mut ProbeHandle,
        worker: usize,
        round: u64,
        timeout: Option<Duration>,
        lead: impl FnOnce(&mut ProbeHandle),
    ) -> bool {
        // relaxed: diagnostics-only watermark; a stale read on the timeout
        // path can at worst omit a culprit from the stalled list.
        let mine = self.arrivals[worker].fetch_add(1, Ordering::Relaxed) + 1;
        let start = ph.now_ns();
        let mut led_ns = 0;
        let result = self.barrier.rendezvous(timeout, || {
            let lead_start = ph.now_ns();
            lead(ph);
            led_ns = ph.now_ns() - lead_start;
        });
        if ph.enabled() {
            let held = (ph.now_ns() - start).saturating_sub(led_ns);
            ph.emit(start, 0, worker as u32, NO_LP, TraceKind::BarrierWait, held);
        }
        match result {
            Ok(_) => true,
            Err(BarrierError::Aborted) => false,
            Err(BarrierError::TimedOut) => {
                let stalled = self
                    .arrivals
                    .iter()
                    .enumerate()
                    // relaxed: same diagnostics-only argument as the bump.
                    .filter(|(w, a)| *w != worker && a.load(Ordering::Relaxed) < mine)
                    .map(|(w, _)| WorkerDiagnostic {
                        worker: w,
                        lp: self.progress[w].lp(),
                        virtual_time: self.progress[w].virtual_time(),
                        round,
                    })
                    .collect();
                self.set_fatal(SimError::BarrierTimeout {
                    worker,
                    round,
                    waited: timeout.unwrap_or_default(),
                    stalled,
                });
                false
            }
        }
    }

    /// Leaves `directive` in every worker's slot (leader only, peers held).
    fn broadcast(&self, directive: Directive<T>)
    where
        T: Clone,
    {
        let (last, rest) = self.slots.split_last().expect("a run has at least one worker");
        for slot in rest {
            lock_recover(slot).directive = Some(directive.clone());
        }
        lock_recover(last).directive = Some(directive);
    }
}

/// Renders a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// A fabric's compiled bytecode: one [`CompiledBlock`] per LP plus the
/// provenance of how the blocks were obtained.
#[derive(Debug)]
struct CompiledPlan {
    blocks: Vec<CompiledBlock>,
    outcome: CacheOutcome,
    compile_ns: u64,
    artifact_bytes: u64,
}

/// The compiled execution plan for one run: LP topology, worker mapping
/// and preload routing, shared by every threaded kernel.
///
/// A fabric is built from a circuit and a [`Partition`] (one worker per
/// block, each block optionally split into `granularity` LPs) and then
/// driven by a [`SyncProtocol`] via [`Fabric::run`]. The fabric owns
/// everything the paper's §IV disciplines have in common — the worker
/// pool, the round/rendezvous cadence, the batched mailbox mesh, report
/// collection, result merging, probe plumbing, and the failure model:
/// worker panics are caught at the round boundary and converted into a
/// barrier-safe abort broadcast, so one dying worker can neither hang its
/// peers nor tear the process down.
#[derive(Debug)]
pub struct Fabric<'c> {
    circuit: &'c Circuit,
    topo: LpTopology,
    workers: usize,
    granularity: usize,
    /// Which nets get waveforms, as a gate-indexed mask: built once, so no
    /// worker scans the circuit's output list per owned gate.
    observed: Vec<bool>,
    /// Filled exactly once, before the first round: by
    /// [`Fabric::with_compiled_cache`], or else by compiling in memory on
    /// first use.
    compiled: OnceLock<CompiledPlan>,
    /// Per-ring mesh capacity, sized from the topology's worst-case
    /// cross-worker fan-out so a fully active round fits the lock-free
    /// rings instead of the mutexed spill (the E15 ≥-capacity regression).
    ring_capacity: usize,
}

impl<'c> Fabric<'c> {
    /// Builds a fabric: one worker per partition block, each block split
    /// into `granularity` LPs (LP `l` runs on worker `l / granularity`).
    /// Nothing is compiled here; the LPs' bytecode is attached before the
    /// first round.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover the circuit, any gate delay
    /// is zero or above `u32::MAX` (the bytecode's delay field), or
    /// `granularity` is zero.
    pub fn new(
        circuit: &'c Circuit,
        partition: &Partition,
        granularity: usize,
        observe: Observe,
    ) -> Self {
        assert_eq!(partition.len(), circuit.len(), "partition does not match circuit");
        assert!(
            circuit.min_gate_delay().ticks() >= 1,
            "simulation kernels require nonzero gate delays"
        );
        assert!(
            circuit.max_gate_delay().ticks() <= u64::from(u32::MAX),
            "gate delay overflows the op encoding"
        );
        assert!(granularity >= 1, "granularity factor must be at least 1");
        let workers = partition.blocks();
        let coarse: Vec<usize> = circuit.ids().map(|id| partition.block_of(id)).collect();
        let topo = LpTopology::with_granularity(circuit, &coarse, workers, granularity);
        let ring_capacity = Self::fanout_ring_capacity(circuit, &topo, workers, granularity);
        Fabric {
            circuit,
            topo,
            workers,
            granularity,
            observed: observe.mask(circuit),
            compiled: OnceLock::new(),
            ring_capacity,
        }
    }

    /// Sizes the mailbox rings from the compiled topology: for each
    /// (src, dst) worker pair, count the nets whose driver lives on `src`
    /// and whose fanout reaches `dst` — the worst case of one event per
    /// such net in a single fully active round — and take the busiest
    /// channel through [`MailboxMesh::burst_capacity`] (2× headroom,
    /// clamped). Before this, every mesh used the fixed default capacity
    /// and dense circuits paid the spill mutex on every round.
    fn fanout_ring_capacity(
        circuit: &Circuit,
        topo: &LpTopology,
        workers: usize,
        granularity: usize,
    ) -> usize {
        let mut per_channel = vec![0usize; workers * workers];
        for id in circuit.ids() {
            // Source gates never evaluate at runtime (preloaded events),
            // so they send no mesh messages.
            if circuit.kind(id).is_source() {
                continue;
            }
            let src = LpTopology::processor_of(topo.lp_of(id), granularity);
            // `destinations` is sorted by LP, so destination workers are
            // non-decreasing: consecutive dedup counts each worker once.
            let mut last = usize::MAX;
            for &dst_lp in topo.destinations(id) {
                let dst = LpTopology::processor_of(dst_lp, granularity);
                if dst == src || dst == last {
                    continue;
                }
                last = dst;
                per_channel[src * workers + dst] += 1;
            }
        }
        let burst = per_channel.iter().copied().max().unwrap_or(0);
        crate::mailbox::burst_capacity(burst)
    }

    /// The circuit's per-gate LP assignment, in gate-id order (the shape
    /// the compiler and artifact keys consume).
    fn lp_assignment(&self) -> Vec<usize> {
        self.circuit.ids().map(|id| self.topo.lp_of(id)).collect()
    }

    /// Obtains the LPs' compiled blocks through `store` instead of
    /// compiling them in memory: one [`ArtifactStore::load_or_compile`]
    /// keyed by this fabric's LP assignment. A valid cached artifact skips
    /// compilation entirely; a miss (or a corrupt entry) compiles and
    /// repopulates the store. [`Fabric::cache_outcome`] reports which.
    pub fn with_compiled_cache(self, store: &ArtifactStore) -> Self {
        let start = Instant::now();
        let lp_of = self.lp_assignment();
        let n_lps = self.topo.lps().len();
        let (blocks, outcome, artifact_bytes) = store.load_or_compile(self.circuit, &lp_of, n_lps);
        let plan = CompiledPlan {
            blocks,
            outcome,
            compile_ns: start.elapsed().as_nanos() as u64,
            artifact_bytes,
        };
        Fabric { compiled: OnceLock::from(plan), ..self }
    }

    /// The compiled blocks, compiled in memory on first use unless
    /// [`Fabric::with_compiled_cache`] loaded them.
    fn plan(&self) -> &CompiledPlan {
        self.compiled.get_or_init(|| {
            let start = Instant::now();
            let blocks = compile_blocks(self.circuit, &self.lp_assignment(), self.topo.lps().len());
            CompiledPlan {
                blocks,
                outcome: CacheOutcome::MissCompiled,
                compile_ns: start.elapsed().as_nanos() as u64,
                artifact_bytes: 0,
            }
        })
    }

    /// How this fabric's compiled blocks were obtained: the store's answer
    /// if [`Fabric::with_compiled_cache`] loaded them, else
    /// [`CacheOutcome::MissCompiled`] — compiled in memory, here if nothing
    /// has needed them yet.
    pub fn cache_outcome(&self) -> CacheOutcome {
        self.plan().outcome
    }

    /// LP `lp`'s compiled bytecode: every protocol evaluates its dirty
    /// batches through it.
    pub fn compiled_block(&self, lp: usize) -> &CompiledBlock {
        &self.plan().blocks[lp]
    }

    /// The circuit this fabric simulates.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The LP decomposition (`workers × granularity` LPs; trailing LPs of
    /// a block may be empty).
    pub fn topo(&self) -> &LpTopology {
        &self.topo
    }

    /// Worker-thread count (= partition blocks).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// LPs per worker.
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// LP `lp`'s observed nets — its owned gates that get a waveform — in
    /// the shape [`LpCore::new`](crate::LpCore::new) takes.
    pub fn observed_by(&self, lp: usize) -> impl Iterator<Item = GateId> + '_ {
        self.topo.lps()[lp].gates.iter().copied().filter(|id| self.observed[id.index()])
    }

    /// The LPs owned by `worker`, ascending.
    pub fn my_lps(&self, worker: usize) -> std::ops::Range<usize> {
        worker * self.granularity..(worker + 1) * self.granularity
    }

    /// The worker that runs LP `lp`.
    pub fn worker_of(&self, lp: usize) -> usize {
        lp / self.granularity
    }

    /// LP `lp`'s index within its worker.
    pub fn slot_of(&self, lp: usize) -> usize {
        lp % self.granularity
    }

    /// Routes the known-in-advance events (stimulus and constant sources)
    /// to every reader: each event goes to all LPs owning fanout of its
    /// net, plus the owner of the driving gate (which tracks the net's
    /// final value even without local fanout).
    pub fn preloads<V: LogicValue>(
        &self,
        stimulus: &Stimulus,
        until: VirtualTime,
    ) -> Vec<Vec<Event<V>>> {
        let mut preloads: Vec<Vec<Event<V>>> = vec![Vec::new(); self.topo.lps().len()];
        for e in &stimulus.known_events::<V>(self.circuit, until) {
            let owner = self.topo.lp_of(e.net);
            let mut to_owner = false;
            for &dst in self.topo.destinations(e.net) {
                preloads[dst].push(*e);
                to_owner |= dst == owner;
            }
            if !to_owner {
                preloads[owner].push(*e);
            }
        }
        preloads
    }

    /// Runs `protocol` to completion on the worker pool and merges the
    /// per-worker outputs, under the given [`RunOptions`]. The LPs' compiled
    /// blocks are attached before any worker starts and traced as one
    /// [`TraceKind::Compile`] span (plus a [`TraceKind::CacheHit`] instant
    /// when [`Fabric::with_compiled_cache`] hit).
    ///
    /// `stats.barriers` of the merged outcome reports the number of
    /// synchronization rounds executed (each round crosses the barrier
    /// once: a single rendezvous with the coordinator step inside it).
    ///
    /// # Failure model
    ///
    /// Every worker's round body runs under `catch_unwind`. A panic is
    /// caught at the round boundary, logged with the worker's progress
    /// marks (LP, virtual time, round), and converted into an abort
    /// broadcast on the round barrier, so every peer — including ones
    /// already blocked waiting — wakes and exits instead of hanging. A
    /// [`Decision::Abort`] from the coordinator likewise makes *every*
    /// worker (not just the one that decided) leave with an error, so no
    /// partial results are ever merged as if complete. Shared-lock poisoning from
    /// a panicking thread is recovered, not propagated: the run's error is
    /// the original panic, never a cascade of unrelated lock failures.
    ///
    /// An exhausted [`RunBudget`] is *not* an error: the run stops at the
    /// next round boundary, merges what was simulated, and flags the
    /// outcome's [`SimStats::truncated`].
    pub fn run<V, P>(
        &self,
        stimulus: &Stimulus,
        until: VirtualTime,
        probe: &Probe,
        protocol: &P,
        options: &RunOptions,
    ) -> Result<SimOutcome<V>, SimError>
    where
        V: LogicValue,
        P: SyncProtocol<V>,
    {
        // Attach the blocks before any worker starts.
        let plan = self.plan();
        let mut ph = probe.handle();
        if ph.enabled() {
            let t = ph.now_ns();
            ph.emit(t, 0, 0, NO_LP, TraceKind::Compile, plan.compile_ns);
            if plan.outcome.is_hit() {
                ph.emit(t, 0, 0, NO_LP, TraceKind::CacheHit, plan.artifact_bytes);
            }
        }
        let preloads: Vec<Mutex<Vec<Event<V>>>> =
            self.preloads::<V>(stimulus, until).into_iter().map(Mutex::new).collect();
        let injector =
            options.faults.as_ref().map(|plan| Arc::new(FaultInjector::new(plan, self.workers)));
        let mesh = match &injector {
            Some(inj) => {
                MailboxMesh::with_faults(self.workers, self.ring_capacity, Arc::clone(inj))
            }
            None => MailboxMesh::with_ring_capacity(self.workers, self.ring_capacity),
        };
        let shared: RunShared<P::Msg, P::Report, P::Verdict> = RunShared {
            mesh,
            barrier: RoundBarrier::new(self.workers),
            slots: (0..self.workers)
                .map(|_| Mutex::new(RoundSlot { report: None, directive: None }))
                .collect(),
            failures: Mutex::new(Vec::new()),
            fatal: Mutex::new(None),
            arrivals: (0..self.workers).map(|_| AtomicU64::new(0)).collect(),
            events: AtomicU64::new(0),
            truncated: AtomicBool::new(false),
            frontier: AtomicU64::new(u64::MAX),
            progress: (0..self.workers).map(|_| WorkerProgress::new()).collect(),
            injector,
            spills_seen: AtomicU64::new(0),
            start: Instant::now(),
        };

        let results: Vec<Option<(WorkerOutput<V>, u64)>> =
            crate::pool::run_workers(self.workers, |p| {
                let my_preloads: Vec<Vec<Event<V>>> = self
                    .my_lps(p)
                    .map(|lp| std::mem::take(&mut *lock_recover(&preloads[lp])))
                    .collect();
                let ph = probe.handle();
                self.worker_loop(p, protocol, my_preloads, until, &shared, options, ph)
            });

        let mut failures = std::mem::take(&mut *lock_recover(&shared.failures));
        if !failures.is_empty() {
            failures.sort_by_key(|(d, _)| (d.round, d.worker));
            let (diagnostic, message) = failures.remove(0);
            let also_failed = failures.into_iter().map(|(d, _)| d).collect();
            return Err(SimError::WorkerPanic { diagnostic, message, also_failed });
        }
        if let Some(err) = lock_recover(&shared.fatal).take() {
            return Err(err);
        }
        for (p, result) in results.iter().enumerate() {
            if result.is_none() {
                // Unreachable in practice: every exit path above either
                // logs a failure or sets the fatal slot.
                return Err(SimError::WorkerPanic {
                    diagnostic: WorkerDiagnostic {
                        worker: p,
                        lp: None,
                        virtual_time: None,
                        round: 0,
                    },
                    message: "worker produced no output and recorded no failure".into(),
                    also_failed: Vec::new(),
                });
            }
        }

        let mut rounds = 0u64;
        let outputs = results.into_iter().flatten().map(|(out, worker_rounds)| {
            rounds = rounds.max(worker_rounds);
            out
        });
        let SimOutcome { final_values, mut waveforms, mut stats, .. } = self.merge(outputs, until);
        stats.barriers = stats.barriers.max(rounds);
        // relaxed: the flag is set strictly before the barrier every worker
        // crossed on its way out; the barrier orders it, not the load.
        stats.truncated = shared.truncated.load(Ordering::Relaxed);
        // A complete run covered the requested horizon. A budget-truncated
        // run covered only up to the commit frontier the protocol last
        // noted (everything strictly below it is final): clip `end_time`
        // to the last committed tick and drop any speculative transitions
        // at or past the frontier (Time Warp may have run ahead of GVT),
        // so partial waveforms — including chunks already streamed from
        // them — never claim unsimulated time. Without a noted frontier,
        // fall back to the youngest merged transition: per-net coverage
        // beyond it is unknown, so claim no more than what was observed.
        let end_time = if stats.truncated {
            let frontier = match shared.frontier.load(Ordering::Acquire) {
                u64::MAX => None,
                f => Some(VirtualTime::new(f)),
            };
            let covered = match frontier {
                Some(f) => VirtualTime::new(f.ticks().saturating_sub(1)),
                None => waveforms
                    .values()
                    .filter_map(|w: &Waveform<V>| w.transitions().last().map(|&(t, _)| t))
                    .max()
                    .unwrap_or(VirtualTime::ZERO),
            };
            if let Some(f) = frontier {
                for w in waveforms.values_mut() {
                    w.truncate_from(f);
                }
            }
            covered.min(until)
        } else {
            until
        };
        Ok(SimOutcome { final_values, waveforms, end_time, stats })
    }

    /// Folds the workers' outputs into one outcome covering `until`: each
    /// worker's owned final values and waveforms, and the sum of their
    /// stats. Both drivers end here, and so does a scheduler that steps the
    /// fabric's LPs itself (modeled Time Warp).
    pub fn merge<V: LogicValue>(
        &self,
        outputs: impl Iterator<Item = WorkerOutput<V>>,
        until: VirtualTime,
    ) -> SimOutcome<V> {
        let mut final_values = vec![V::ZERO; self.circuit.len()];
        let mut waveforms = std::collections::BTreeMap::new();
        let mut stats = SimStats::default();
        for out in outputs {
            for (id, v) in out.owned_values {
                final_values[id.index()] = v;
            }
            waveforms.extend(out.waveforms);
            stats.merge(&out.stats);
        }
        SimOutcome { final_values, waveforms, end_time: until, stats }
    }

    /// Runs `protocol` to completion on the virtual multiprocessor: the
    /// deterministic single-threaded twin of [`Fabric::run`]. Same protocol
    /// object, preloads, mailbox mesh and output merge; workers are stepped
    /// 0..P in order, round by round, and what the protocol routes through
    /// its contexts — sends, deliveries, reported work, the verdict — is
    /// charged to `machine`'s clocks under the protocol's
    /// [`SyncProtocol::SUPERSTEP`] convention. `modeled_makespan` is the
    /// largest clock, `modeled_work` what one processor would be charged
    /// for the same evaluations and queue operations (each event scheduled
    /// once and retrieved once) unless the protocol's stats carry their own,
    /// and `barriers` the machine barriers charged.
    ///
    /// # Panics
    ///
    /// Panics if the machine's processor count differs from the worker
    /// count, or if the protocol aborts.
    pub fn run_modeled<V, P>(
        &self,
        stimulus: &Stimulus,
        until: VirtualTime,
        probe: &Probe,
        protocol: &P,
        machine: MachineConfig,
    ) -> SimOutcome<V>
    where
        V: LogicValue,
        P: SyncProtocol<V>,
    {
        assert_eq!(machine.processors, self.workers, "one partition block per processor");
        let mut vm = VirtualMachine::new(machine);
        vm.attach_probe(probe);
        let mut modeled = ModeledRun::new(vm, P::SUPERSTEP);
        let mut ph = probe.handle();

        let mut preloads = self.preloads::<V>(stimulus, until);
        // Every known-in-advance event reaches its net's owner exactly once.
        let mut initial = 0u64;
        for (lp, events) in preloads.iter().enumerate() {
            initial += events.iter().filter(|e| self.topo.lp_of(e.net) == lp).count() as u64;
        }
        let mut states: Vec<P::Worker> = (0..self.workers)
            .map(|p| {
                let mine = self.my_lps(p).map(|lp| std::mem::take(&mut preloads[lp])).collect();
                protocol.worker(self, p, mine)
            })
            .collect();

        let mesh = MailboxMesh::with_ring_capacity(self.workers, self.ring_capacity);
        let mut outboxes: Vec<Outbox<'_, P::Msg>> =
            (0..self.workers).map(|p| Outbox::new(&mesh, p, DEFAULT_BATCH_LIMIT)).collect();
        let mut inboxes: Vec<Vec<P::Msg>> = (0..self.workers).map(|_| Vec::new()).collect();
        let mut reports: Vec<Option<P::Report>> = (0..self.workers).map(|_| None).collect();
        let progress = WorkerProgress::new();
        let (events, frontier) = (AtomicU64::new(0), AtomicU64::new(u64::MAX));
        let mut verdict = protocol.first_verdict();
        let mut round = 0u64;

        loop {
            round += 1;
            // The same sealed drain as `worker_loop`: round r's posts are
            // visible in round r + 1 only, exactly as behind the rendezvous,
            // because the mesh enforces it on both drivers.
            modeled.begin_round();
            for (p, inbox) in inboxes.iter_mut().enumerate() {
                mesh.drain_round_into(p, round, inbox);
                debug_assert!(P::SUPERSTEP || modeled.arrived[p].len() == inbox.len());
            }
            for p in 0..self.workers {
                let mut cx = RoundCx {
                    worker: p,
                    until,
                    inbox: &mut inboxes[p],
                    outbox: &mut outboxes[p],
                    probe: &mut ph,
                    granularity: self.granularity,
                    progress: &progress,
                    events: &events,
                    modeled: Some(&mut modeled),
                };
                reports[p] = Some(protocol.round(self, &mut states[p], &verdict, &mut cx));
                inboxes[p].clear();
                outboxes[p].flush();
                mesh.seal_round(p, round);
            }
            if P::SUPERSTEP {
                modeled.vm.barrier();
            }
            let mut cx = DecideCx {
                until,
                round,
                probe: &mut ph,
                frontier: &frontier,
                modeled: Some(&mut modeled),
            };
            match protocol.decide(self, &mut reports, &mut cx) {
                Decision::Continue(v) => verdict = v,
                Decision::Stop => break,
                Decision::Abort(reason) => panic!("protocol abort at round {round}: {reason}"),
            }
        }

        let outputs = states.into_iter().enumerate().map(|(p, s)| protocol.finish(self, p, s));
        let mut outcome = self.merge(outputs, until);
        let ModeledRun { vm, evaluated, scheduled, .. } = modeled;
        outcome.stats.barriers = vm.stats().barriers;
        outcome.stats.modeled_makespan = vm.makespan();
        if outcome.stats.modeled_work == 0 {
            outcome.stats.modeled_work =
                evaluated * machine.eval_cost + 2 * (initial + scheduled) * machine.event_cost;
        }
        outcome
    }

    /// One worker's round loop. Returns `None` when the run failed — the
    /// failure is already recorded in `shared` — so nothing it produced is
    /// merged.
    #[allow(clippy::too_many_arguments)]
    fn worker_loop<V, P>(
        &self,
        p: usize,
        protocol: &P,
        preloads: Vec<Vec<Event<V>>>,
        until: VirtualTime,
        shared: &RunShared<P::Msg, P::Report, P::Verdict>,
        options: &RunOptions,
        mut ph: ProbeHandle,
    ) -> Option<(WorkerOutput<V>, u64)>
    where
        V: LogicValue,
        P: SyncProtocol<V>,
    {
        let built = catch_unwind(AssertUnwindSafe(|| {
            (protocol.worker(self, p, preloads), protocol.first_verdict())
        }));
        let (mut state, mut verdict) = match built {
            Ok(sv) => sv,
            Err(payload) => {
                shared.record_panic(p, 0, payload);
                return None;
            }
        };
        let mut inbox: Vec<P::Msg> = Vec::new();
        let mut outbox = Outbox::new(&shared.mesh, p, DEFAULT_BATCH_LIMIT);
        // Where this worker collects every report in the rounds it leads.
        let mut gathered: Vec<Option<P::Report>> = (0..self.workers).map(|_| None).collect();
        let mut rounds = 0u64;

        loop {
            rounds += 1;
            if let Some(inj) = &shared.injector {
                inj.enter_round(rounds);
                if inj.should_poison(p, rounds) {
                    shared.mesh.poison_slot(p);
                }
                if inj.should_stall(p, rounds) {
                    // A hang, not a crash: stop participating (in particular,
                    // never bump the arrival counter or touch the barrier)
                    // until the run fails around us — the peer whose wait
                    // times out aborts the barrier. Without a barrier
                    // timeout this stalls forever, which is exactly the
                    // unguarded hang the option exists to catch.
                    inj.note_injected(p);
                    while !shared.barrier.is_aborted() {
                        crate::sync::thread::sleep(Duration::from_millis(1));
                    }
                    outbox.discard_pending();
                    return None;
                }
            }
            let round_result = catch_unwind(AssertUnwindSafe(|| {
                if let Some(inj) = &shared.injector {
                    if inj.should_kill(p, rounds) {
                        inj.note_injected(p);
                        panic!("injected kill of worker {p} at round {rounds}");
                    }
                }
                // Exactly what every peer sealed before the rendezvous
                // that opened this round: a fast peer's posts of this
                // round stay queued, however late this drain runs.
                shared.mesh.drain_round_into(p, rounds, &mut inbox);
                let mut cx = RoundCx {
                    worker: p,
                    until,
                    inbox: &mut inbox,
                    outbox: &mut outbox,
                    probe: &mut ph,
                    granularity: self.granularity,
                    progress: &shared.progress[p],
                    events: &shared.events,
                    modeled: None,
                };
                let report = protocol.round(self, &mut state, &verdict, &mut cx);
                inbox.clear();
                outbox.flush();
                shared.mesh.seal_round(p, rounds);
                report
            }));
            let report = match round_result {
                Ok(report) => report,
                Err(payload) => {
                    shared.record_panic(p, rounds, payload);
                    outbox.discard_pending();
                    return None;
                }
            };
            lock_recover(&shared.slots[p]).report = Some(report);

            let released = shared.rendezvous(&mut ph, p, rounds, options.barrier_timeout, |ph| {
                let directive =
                    self.coordinate(protocol, shared, options, p, rounds, until, &mut gathered, ph);
                shared.broadcast(directive);
            });
            let directive = lock_recover(&shared.slots[p]).directive.take();
            match directive {
                Some(Directive::Continue(v)) if released => verdict = v,
                Some(Directive::Stop) if released => break,
                // Not released (abort or timeout, already recorded), or
                // the leader broadcast `Fail`.
                _ => {
                    outbox.discard_pending();
                    return None;
                }
            }
        }

        match catch_unwind(AssertUnwindSafe(|| protocol.finish(self, p, state))) {
            Ok(out) => Some((out, rounds)),
            Err(payload) => {
                shared.record_panic(p, rounds, payload);
                None
            }
        }
    }

    /// The coordinator step, run by the round's leader (the last worker to
    /// arrive at the rendezvous) while every peer is held: surface delivery
    /// violations and injection trace notes, collect the reports into
    /// `gathered`, run the protocol's `decide` (itself panic-safe), and
    /// apply the run budget. Which worker leads varies from round to round;
    /// nothing it computes depends on that, and its trace records carry
    /// processor 0 whoever emits them.
    #[allow(clippy::too_many_arguments)]
    fn coordinate<V, P>(
        &self,
        protocol: &P,
        shared: &RunShared<P::Msg, P::Report, P::Verdict>,
        options: &RunOptions,
        leader: usize,
        round: u64,
        until: VirtualTime,
        gathered: &mut [Option<P::Report>],
        ph: &mut ProbeHandle,
    ) -> Directive<P::Verdict>
    where
        V: LogicValue,
        P: SyncProtocol<V>,
    {
        let spills = shared.mesh.spill_events();
        // relaxed: leaders touch this high-water mark one at a time, a
        // rendezvous apart, and the counter it shadows is itself
        // statistics-only.
        let seen = shared.spills_seen.swap(spills, Ordering::Relaxed);
        if spills > seen && ph.enabled() {
            let t = ph.now_ns();
            ph.emit(t, 0, 0, NO_LP, TraceKind::RingSpill, spills - seen);
        }
        if let Some(inj) = &shared.injector {
            for note in inj.take_notes() {
                let kind =
                    if note.recovered { TraceKind::FaultRecover } else { TraceKind::FaultInject };
                let t = ph.now_ns();
                ph.emit(t, 0, 0, NO_LP, kind, note.target);
            }
            if let Some(detail) = inj.take_violations() {
                // Fail before the corrupted inboxes are consumed next
                // round: delivery accounting is checked every round.
                shared.set_fatal(SimError::DeliveryFault { round, detail });
                return Directive::Fail;
            }
        }
        for (report, slot) in gathered.iter_mut().zip(&shared.slots) {
            *report = lock_recover(slot).report.take();
        }
        debug_assert!(gathered.iter().all(Option::is_some), "every worker reported");
        let decided = catch_unwind(AssertUnwindSafe(|| {
            let mut cx =
                DecideCx { until, round, probe: ph, frontier: &shared.frontier, modeled: None };
            protocol.decide(self, gathered, &mut cx)
        }));
        gathered.fill_with(|| None);
        match decided {
            Err(payload) => {
                // `decide` ran on the leader; its panic is that worker's
                // failure. Peers are held at the rendezvous, so
                // broadcasting Fail (not aborting) releases them cleanly.
                let diag = WorkerDiagnostic {
                    worker: leader,
                    lp: shared.progress[leader].lp(),
                    virtual_time: shared.progress[leader].virtual_time(),
                    round,
                };
                lock_recover(&shared.failures).push((diag, panic_message(payload)));
                Directive::Fail
            }
            Ok(Decision::Abort(reason)) => {
                shared.set_fatal(SimError::ProtocolAbort { round, reason });
                Directive::Fail
            }
            Ok(Decision::Stop) => Directive::Stop,
            Ok(Decision::Continue(v)) => {
                // relaxed: both cells are ordered by the round rendezvous
                // the leader sits inside; the counter is monotonic and the
                // flag is one-shot, so no weaker guarantee is consumed.
                let events = shared.events.load(Ordering::Relaxed);
                if options.budget.exceeded_by(round, events, shared.start.elapsed()).is_some() {
                    // relaxed: one-shot flag, ordered by the round release.
                    shared.truncated.store(true, Ordering::Relaxed);
                    Directive::Stop
                } else {
                    Directive::Continue(v)
                }
            }
        }
    }
}
