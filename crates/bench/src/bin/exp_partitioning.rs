//! **E2 — partitioning algorithm comparison** (§III): static quality (cut,
//! balance) and the modeled speedup each partition actually delivers.
//!
//! ```sh
//! cargo run --release -p parsim-bench --bin exp_partitioning
//! ```
//!
//! Shape targets: min-cut refinement (KL/FM) and locality heuristics
//! (strings, cones, contiguous) beat random/round-robin on cut size, which
//! translates into better synchronous *and* conservative speedups; random
//! scatter maximizes communication.

use parsim_bench::{f2, Discipline, Table};
use parsim_core::Stimulus;
use parsim_event::VirtualTime;
use parsim_machine::MachineConfig;
use parsim_netlist::{generate, DelayModel};
use parsim_partition::{all_partitioners, GateWeights};

fn main() {
    let processors = 8;
    let machine = MachineConfig::shared_memory(processors);
    let stimulus = Stimulus::random(0xE2, 20).with_clock(10);
    let until = VirtualTime::new(500);

    for circuit in [
        generate::array_multiplier(20, DelayModel::Unit),
        generate::random_dag(&generate::RandomDagConfig {
            gates: 4000,
            inputs: 64,
            seq_fraction: 0.1,
            seed: 0xE2,
            ..Default::default()
        }),
    ] {
        println!("\nE2 on {} ({} gates):\n", circuit.name(), circuit.len());
        let weights = GateWeights::uniform(circuit.len());
        let mut table = Table::new(&[
            "partitioner",
            "cut edges",
            "cut %",
            "balance",
            "sync speedup",
            "cons speedup",
            "opt speedup",
        ]);
        for p in all_partitioners(0xE2) {
            let partition = p.partition(&circuit, processors, &weights);
            let q = partition.quality(&circuit, &weights);
            let mut cells = vec![
                p.name().to_string(),
                q.cut_edges.to_string(),
                f2(q.cut_fraction * 100.0),
                format!("{:.3}", q.max_load_ratio),
            ];
            for d in Discipline::all() {
                let kernel = d.kernel(partition.clone(), machine);
                let s = kernel.run(&circuit, &stimulus, until).stats;
                cells.push(f2(s.modeled_speedup().unwrap_or(0.0)));
            }
            table.row(&cells);
        }
        table.finish(&format!("exp_partitioning_{}", circuit.name()));
    }
    println!("\nexpected shape: low-cut partitioners (FM/KL/cones/strings) beat random scatter.");
}
