//! `parsim` — parallel logic simulation of VLSI systems.
//!
//! A complete reproduction of the system family surveyed in *R. D.
//! Chamberlain, "Parallel Logic Simulation of VLSI Systems", 32nd ACM/IEEE
//! Design Automation Conference, 1995*: multi-valued gate-level logic
//! simulation with every synchronization discipline the paper covers —
//! oblivious, synchronous (global clock), conservative asynchronous
//! (Chandy–Misra–Bryant with null messages or deadlock recovery) and
//! optimistic asynchronous (Time Warp with rollback, anti-messages, lazy
//! cancellation, incremental state saving, GVT and fossil collection) — plus
//! the §III circuit-partitioning algorithms and a virtual-multiprocessor
//! performance model that regenerates the paper's Figure 1.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name. See [`logic`], [`netlist`], [`compile`], [`event`], [`partition`],
//! [`core`], [`bitsim`], [`machine`], [`runtime`], [`sync`],
//! [`conservative`], [`optimistic`], [`trace`] and [`lint`].
//!
//! # Quickstart
//!
//! ```
//! use parsim::prelude::*;
//!
//! // Build a circuit, partition it, and run it on three kernels.
//! let circuit = generate::ripple_adder(8, DelayModel::Unit);
//! let weights = GateWeights::uniform(circuit.len());
//! let partition = ConePartitioner.partition(&circuit, 4, &weights);
//! let stimulus = Stimulus::random(42, 10);
//! let until = VirtualTime::new(300);
//!
//! let reference = SequentialSimulator::<Logic4>::new().run(&circuit, &stimulus, until);
//! let sync = SyncSimulator::<Logic4>::new(partition.clone(), MachineConfig::shared_memory(4))
//!     .run(&circuit, &stimulus, until);
//! let warp = TimeWarpSimulator::<Logic4>::new(partition, MachineConfig::shared_memory(4))
//!     .run(&circuit, &stimulus, until);
//!
//! // All kernels commit the identical history.
//! assert_eq!(sync.divergence_from(&reference), None);
//! assert_eq!(warp.divergence_from(&reference), None);
//! // ...and report how the parallel execution went.
//! assert!(sync.stats.modeled_speedup().unwrap() > 1.0);
//! ```

#![forbid(unsafe_code)]

pub use parsim_bitsim as bitsim;
pub use parsim_compile as compile;
pub use parsim_conservative as conservative;
pub use parsim_core as core;
pub use parsim_event as event;
pub use parsim_lint as lint;
pub use parsim_logic as logic;
pub use parsim_machine as machine;
pub use parsim_netlist as netlist;
pub use parsim_optimistic as optimistic;
pub use parsim_partition as partition;
pub use parsim_runtime as runtime;
pub use parsim_sync as sync;
pub use parsim_trace as trace;

/// Everything needed for typical use, importable in one line.
pub mod prelude {
    pub use parsim_bitsim::{
        simulate_faults_packed, BitSimulator, PackedBit, PackedLogic4, PackedStimulus, PackedValue,
    };
    pub use parsim_conservative::{
        ConservativeSettings, ConservativeSimulator, DeadlockStrategy,
        ThreadedConservativeSimulator,
    };
    pub use parsim_core::{
        evaluate_gate, fault, parse_vcd_changes, pre_simulate, write_vcd, ActivityProfile,
        BudgetExhausted, GateRuntime, LpTopology, ObliviousSimulator, Observe, QueueKind,
        RunBudget, SequentialSimulator, SimError, SimOutcome, SimStats, Simulator, Stimulus,
        WaveRecorder, Waveform, WorkerDiagnostic,
    };
    pub use parsim_event::{
        BinaryHeapQueue, CalendarQueue, Event, EventQueue, Message, PairingHeapQueue, VirtualTime,
    };
    pub use parsim_lint::{
        check_build, Code, Diagnostic, LintContext, LintPass, LintReport, Linter, Severity,
    };
    pub use parsim_logic::{Bit, GateKind, Logic4, LogicValue, Std9};
    pub use parsim_machine::{MachineConfig, VirtualMachine};
    pub use parsim_netlist::{
        bench, generate, Circuit, CircuitBuilder, CircuitStats, Delay, DelayModel, GateId,
        Levelization, NetlistError,
    };
    pub use parsim_optimistic::{
        BtbSettings, BtbSimulator, Cancellation, StateSaving, ThreadedBtbSimulator,
        ThreadedTimeWarpSimulator, TimeWarpSettings, TimeWarpSimulator, Window,
    };
    pub use parsim_partition::{
        all_partitioners, AnnealingPartitioner, ConePartitioner, ContiguousPartitioner,
        FiducciaMattheyses, GateWeights, KernighanLin, LevelPartitioner, MultilevelPartitioner,
        Partition, PartitionQuality, Partitioner, RandomPartitioner, RoundRobinPartitioner,
        StringPartitioner,
    };
    pub use parsim_runtime::{
        ArtifactStore, CacheOutcome, CompiledBlock, Decision, Fabric, FabricKernel, FaultPlan,
        FaultSpec, RunOptions, SyncProtocol,
    };
    pub use parsim_sync::{SyncSimulator, ThreadedSyncSimulator};
    pub use parsim_trace::{
        run_report, to_csv, to_perfetto_json, Metrics, Probe, Trace, TraceKind, TraceRecord,
    };
}
