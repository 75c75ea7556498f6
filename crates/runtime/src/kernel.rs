//! One kernel type for every fabric protocol.

use std::marker::PhantomData;
use std::path::PathBuf;
use std::time::Duration;

use parsim_core::{Observe, RunBudget, SimError, SimOutcome, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::LogicValue;
use parsim_machine::MachineConfig;
use parsim_netlist::Circuit;
use parsim_partition::Partition;
use parsim_trace::Probe;

use crate::{ArtifactStore, Fabric, FaultPlan, RunOptions, SyncProtocol};

/// The threaded driver: one worker thread per partition block, the
/// lock-free mailbox mesh and the round barrier ([`Fabric::run`]), with
/// the run's [`RunOptions`] and, optionally, the artifact store the
/// compiled blocks are loaded through.
///
/// On a single-core host a threaded kernel demonstrates correctness, not
/// speedup; wall-clock numbers are only meaningful on real multiprocessors.
#[derive(Debug, Clone, Default)]
pub struct Threads {
    options: RunOptions,
    /// The on-disk artifact store; `None` compiles in memory.
    cache: Option<ArtifactStore>,
}

/// The modeled driver: the fabric's deterministic single-threaded driver
/// steps the protocol and charges every action to a virtual multiprocessor
/// with this price list ([`Fabric::run_modeled`]).
#[derive(Debug, Clone, Copy)]
pub struct Machine(MachineConfig);

/// A simulation kernel: protocol `P` (a [`SyncProtocol`] value carrying its
/// family's settings) on driver `D` — [`Threads`] or [`Machine`] — over
/// values `V`.
///
/// Every synchronous, conservative and breathing-time-buckets kernel, and
/// threaded Time Warp, is this one type under a family alias; each family
/// adds its setters through one extension trait. On either driver every LP
/// evaluates its dirty batches through its compiled bytecode block, and
/// logical results are bit-identical to the sequential reference.
#[derive(Debug, Clone)]
pub struct FabricKernel<P, D, V> {
    protocol: P,
    driver: D,
    partition: Partition,
    observe: Observe,
    probe: Probe,
    _values: PhantomData<V>,
}

impl<P, D, V> FabricKernel<P, D, V> {
    fn with_driver(partition: Partition, protocol: P, driver: D) -> Self {
        FabricKernel {
            protocol,
            driver,
            partition,
            observe: Observe::Outputs,
            probe: Probe::disabled(),
            _values: PhantomData,
        }
    }

    /// Selects which nets to record waveforms for.
    pub fn with_observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Attaches a trace probe. On threads each worker records on its own
    /// handle with host wall-clock nanoseconds as the timeline, including
    /// measured barrier-wait spans; on the virtual machine the timeline is
    /// the modeled cost-unit clock and the machine records charge, idle and
    /// barrier-wait spans. Either way the protocol adds its own records
    /// (dequeues, gate evaluations, sends, rollbacks…) at the same
    /// timeline positions.
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// The partition driving gate placement.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Adjusts the protocol's settings in place: what the family crates'
    /// setter traits (`ConservativeSettings`, `TimeWarpSettings`, …) are
    /// written with. A protocol's fields are private to its crate, so this
    /// reaches no setting those traits do not.
    pub fn map_protocol(mut self, f: impl FnOnce(&mut P)) -> Self {
        f(&mut self.protocol);
        self
    }
}

impl<P: Default, V> FabricKernel<P, Threads, V> {
    /// Creates the kernel; one thread per partition block.
    pub fn new(partition: Partition) -> Self {
        Self::with_driver(partition, P::default(), Threads::default())
    }
}

impl<P, V> FabricKernel<P, Threads, V> {
    /// Obtains the LPs' compiled blocks through the on-disk artifact store
    /// rooted at `dir` instead of compiling them in memory, with one load
    /// per [`fabric`](Self::fabric) built: a warm cache skips compilation
    /// entirely.
    pub fn with_compiled_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.driver.cache = Some(ArtifactStore::new(dir));
        self
    }

    /// Bounds the run (rounds, events, wall clock); an exhausted budget
    /// truncates gracefully instead of erroring.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.driver.options.budget = budget;
        self
    }

    /// Attaches a fault-injection plan for [`try_run`](Self::try_run).
    /// Batch faults are addressed per channel: a plan names the
    /// `(sender, receiver)` worker pair and the batch sequence number
    /// *on that channel* (sequences are per-channel counters, matching
    /// the mesh's one-SPSC-ring-per-pair transport).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.driver.options.faults = Some(plan);
        self
    }

    /// Bounds every barrier wait: a worker that stops participating
    /// without panicking (a hang, not a crash) fails the run with
    /// [`SimError::BarrierTimeout`] naming the stalled workers, instead of
    /// blocking its peers forever.
    pub fn with_barrier_timeout(mut self, timeout: Duration) -> Self {
        self.driver.options.barrier_timeout = Some(timeout);
        self
    }

    /// The first half of [`try_run`](Self::try_run): builds the fabric
    /// this kernel runs `circuit` on. With
    /// [`with_compiled_cache`](Self::with_compiled_cache) the LPs' blocks
    /// are loaded through the store here — the run's one artifact load —
    /// and [`Fabric::cache_outcome`] reports how the store answered;
    /// without it they are compiled in memory on first use.
    pub fn fabric<'c>(&self, circuit: &'c Circuit) -> Fabric<'c>
    where
        P: SyncProtocol<V>,
        V: LogicValue,
    {
        let fabric =
            Fabric::new(circuit, &self.partition, self.protocol.granularity(), self.observe);
        match &self.driver.cache {
            Some(store) => fabric.with_compiled_cache(store),
            None => fabric,
        }
    }

    /// The second half of [`try_run`](Self::try_run): runs the kernel on a
    /// fabric its [`fabric`](Self::fabric) built.
    pub fn run_on(
        &self,
        fabric: &Fabric<'_>,
        stimulus: &Stimulus,
        until: VirtualTime,
    ) -> Result<SimOutcome<V>, SimError>
    where
        P: SyncProtocol<V>,
        V: LogicValue,
    {
        fabric.run(stimulus, until, &self.probe, &self.protocol, &self.driver.options)
    }

    /// Runs the kernel, returning a structured [`SimError`] instead of
    /// panicking when a worker fails or the protocol aborts.
    pub fn try_run(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        until: VirtualTime,
    ) -> Result<SimOutcome<V>, SimError>
    where
        P: SyncProtocol<V>,
        V: LogicValue,
    {
        self.run_on(&self.fabric(circuit), stimulus, until)
    }
}

impl<P: SyncProtocol<V>, V: LogicValue> Simulator<V> for FabricKernel<P, Threads, V> {
    fn name(&self) -> String {
        format!("{}(P={})", self.protocol.label(false), self.partition.blocks())
    }

    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, until: VirtualTime) -> SimOutcome<V> {
        self.try_run(circuit, stimulus, until).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<P: Default, V> FabricKernel<P, Machine, V> {
    /// Creates the kernel on the virtual multiprocessor `machine`, one
    /// partition block per processor.
    ///
    /// # Panics
    ///
    /// Panics if the partition's block count differs from the machine's
    /// processor count.
    pub fn new(partition: Partition, machine: MachineConfig) -> Self {
        assert_eq!(
            partition.blocks(),
            machine.processors,
            "modeled kernel needs one partition block per processor"
        );
        Self::with_driver(partition, P::default(), Machine(machine))
    }
}

impl<P: SyncProtocol<V>, V: LogicValue> Simulator<V> for FabricKernel<P, Machine, V> {
    fn name(&self) -> String {
        format!("{}(P={})", self.protocol.label(true), self.driver.0.processors)
    }

    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, until: VirtualTime) -> SimOutcome<V> {
        Fabric::new(circuit, &self.partition, self.protocol.granularity(), self.observe)
            .run_modeled(stimulus, until, &self.probe, &self.protocol, self.driver.0)
    }
}
