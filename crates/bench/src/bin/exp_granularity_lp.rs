//! **E7 — LP granularity sweep** (§III): "Only one gate per LP can result
//! in high overhead processing incoming messages, while only one LP per
//! processor can result in unnecessarily blocked computation or high
//! rollback overheads. As a result, the optimum granularity is somewhere
//! between these two extremes."
//!
//! ```sh
//! cargo run --release -p parsim-bench --bin exp_granularity_lp
//! ```

use parsim_bench::{f2, Table};
use parsim_conservative::{ConservativeSettings, ConservativeSimulator};
use parsim_core::{Observe, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::Bit;
use parsim_machine::MachineConfig;
use parsim_netlist::{generate, DelayModel};
use parsim_optimistic::TimeWarpSimulator;
use parsim_partition::{ConePartitioner, GateWeights, Partitioner};

fn main() {
    let processors = 8;
    let machine = MachineConfig::shared_memory(processors);
    let circuit = generate::random_dag(&generate::RandomDagConfig {
        gates: 4000,
        inputs: 64,
        seq_fraction: 0.1,
        delays: DelayModel::Uniform { min: 1, max: 6, seed: 7 },
        seed: 0xE7,
        ..Default::default()
    });
    let partition =
        ConePartitioner.partition(&circuit, processors, &GateWeights::uniform(circuit.len()));
    let stimulus = Stimulus::random(0xE7, 25).with_clock(10);
    let until = VirtualTime::new(600);

    println!("E7: LPs per processor vs performance ({} gates, P={processors})\n", circuit.len());
    let mut table = Table::new(&[
        "LPs/proc",
        "gates/LP",
        "cons speedup",
        "cons nulls",
        "opt speedup",
        "opt rolled-back",
    ]);

    for factor in [1usize, 2, 4, 8, 16, 32] {
        let cons = ConservativeSimulator::<Bit>::new(partition.clone(), machine)
            .with_granularity(factor)
            .with_observe(Observe::Nothing)
            .run(&circuit, &stimulus, until);
        let opt = TimeWarpSimulator::<Bit>::new(partition.clone(), machine)
            .with_granularity(factor)
            .with_observe(Observe::Nothing)
            .run(&circuit, &stimulus, until);
        table.row(&[
            factor.to_string(),
            (circuit.len() / (processors * factor)).to_string(),
            f2(cons.stats.modeled_speedup().unwrap_or(0.0)),
            cons.stats.null_messages.to_string(),
            f2(opt.stats.modeled_speedup().unwrap_or(0.0)),
            opt.stats.events_rolled_back.to_string(),
        ]);
    }
    table.finish("exp_granularity_lp");
    println!(
        "\nexpected shape: an interior optimum — very coarse LPs block (conservative) or\n\
         roll back in bulk (optimistic); very fine LPs drown in per-message overhead."
    );
}
