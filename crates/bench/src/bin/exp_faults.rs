//! **Fault-injection campaign** — resilience of the threaded runtime
//! fabric under randomized delivery faults and deliberate lock poisoning.
//!
//! ```sh
//! cargo run --release -p parsim-bench --bin exp_faults > results/exp_faults.txt
//! ```
//!
//! For each seed a randomized [`FaultPlan`] (delays, drops, duplicates and
//! lock poisonings — never kills) is injected into a run of each threaded
//! kernel. With recovery enabled the run must commit waveforms identical
//! to the fault-free reference; the table reports how many faults were
//! injected/recovered (from the trace) and the wall-clock overhead of
//! surviving them. A final sweep disables recovery to show the fail-fast
//! path: the same campaigns must surface a structured [`SimError`] instead
//! of corrupt results.

use std::time::Instant;

use parsim_bench::Table;
use parsim_conservative::ThreadedConservativeSimulator;
use parsim_core::{Observe, SimError, SimOutcome, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::Bit;
use parsim_netlist::{generate, Circuit, DelayModel};
use parsim_optimistic::ThreadedTimeWarpSimulator;
use parsim_partition::{GateWeights, Partition, Partitioner, RoundRobinPartitioner};
use parsim_runtime::{FabricKernel, FaultPlan, SyncProtocol, Threads};
use parsim_sync::ThreadedSyncSimulator;
use parsim_trace::{Probe, TraceKind};

const WORKERS: usize = 4;
const FAULTS_PER_PLAN: usize = 12;
const SEEDS: [u64; 4] = [0xA1, 0xB2, 0xC3, 0xD4];

type RunFn<'a> = Box<dyn Fn(Option<FaultPlan>, &Probe) -> Result<SimOutcome<Bit>, SimError> + 'a>;

/// One threaded kernel as a campaign runner: all nets observed, the given
/// probe attached, and the plan (if any) injected.
fn runner<'a, P: SyncProtocol<Bit> + Clone + 'a>(
    kernel: FabricKernel<P, Threads, Bit>,
    c: &'a Circuit,
    stim: &'a Stimulus,
    until: VirtualTime,
) -> RunFn<'a> {
    let kernel = kernel.with_observe(Observe::AllNets);
    Box::new(move |plan, probe| {
        let mut k = kernel.clone().with_probe(probe.clone());
        if let Some(plan) = plan {
            k = k.with_faults(plan);
        }
        k.try_run(c, stim, until)
    })
}

fn kernels<'a>(
    c: &'a Circuit,
    part: &Partition,
    stim: &'a Stimulus,
    until: VirtualTime,
) -> Vec<(&'static str, RunFn<'a>)> {
    let part = || part.clone();
    vec![
        ("threaded-sync", runner(ThreadedSyncSimulator::new(part()), c, stim, until)),
        ("threaded-cmb", runner(ThreadedConservativeSimulator::new(part()), c, stim, until)),
        ("threaded-timewarp", runner(ThreadedTimeWarpSimulator::new(part()), c, stim, until)),
    ]
}

fn main() {
    let until = VirtualTime::new(300);
    let c = generate::random_dag(&generate::RandomDagConfig {
        gates: 1024,
        inputs: 64,
        seq_fraction: 0.10,
        delays: DelayModel::Uniform { min: 1, max: 9, seed: 0x7D },
        seed: 0x7D,
        ..Default::default()
    });
    let stim = Stimulus::random(0x7D, 12).with_clock(7);
    // Round-robin keeps the cut dense so randomized delivery faults have
    // real message batches to hit.
    let part = RoundRobinPartitioner.partition(&c, WORKERS, &GateWeights::uniform(c.len()));

    println!("fault-injection campaign: {WORKERS} workers, {FAULTS_PER_PLAN} faults/plan\n");
    let mut table =
        Table::new(&["kernel", "seed", "recovery", "injected", "recovered", "outcome", "wall_ms"]);

    for (name, run) in kernels(&c, &part, &stim, until) {
        let baseline = run(None, &Probe::disabled()).expect("fault-free run succeeds");
        for seed in SEEDS {
            for recovery in [true, false] {
                let plan =
                    FaultPlan::random(seed, WORKERS, FAULTS_PER_PLAN).with_recovery(recovery);
                let probe = Probe::enabled();
                let start = Instant::now();
                let result = run(Some(plan), &probe);
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                let trace = probe.take_trace();
                let injected = trace.count(TraceKind::FaultInject);
                let recovered = trace.count(TraceKind::FaultRecover);
                let outcome = match result {
                    Ok(out) => match out.divergence_from(&baseline) {
                        None => "ok (identical)".to_string(),
                        Some(d) => format!("DIVERGED: {d}"),
                    },
                    Err(SimError::DeliveryFault { round, .. }) => {
                        format!("fail-fast (delivery fault, round {round})")
                    }
                    Err(e) => format!("error: {e}"),
                };
                table.row(&[
                    name.to_string(),
                    format!("{seed:#x}"),
                    recovery.to_string(),
                    injected.to_string(),
                    recovered.to_string(),
                    outcome,
                    format!("{wall_ms:.2}"),
                ]);
            }
        }
    }
    table.finish("exp_faults");
}
