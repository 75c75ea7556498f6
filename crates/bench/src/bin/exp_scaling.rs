//! **E1 — optimistic speedup vs. processor count** (Briner et al. reported
//! "speedups of up to 23 on 32 processors of a BBN GP1000").
//!
//! ```sh
//! cargo run --release -p parsim-bench --bin exp_scaling [-- gates]
//! ```
//!
//! Shape target: near-linear growth at small P, flattening as communication
//! and rollback overheads catch up — substantially better than conservative
//! at every P.

use parsim_bench::{default_partition, f2, Discipline, Table};
use parsim_core::Stimulus;
use parsim_event::VirtualTime;
use parsim_machine::MachineConfig;
use parsim_netlist::{generate, DelayModel};

fn main() {
    let gates: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(8_192);
    let circuit = generate::random_dag(&generate::RandomDagConfig {
        gates,
        inputs: 128,
        seq_fraction: 0.10,
        delays: DelayModel::Unit,
        seed: 0xE1,
        ..Default::default()
    });
    let stimulus = Stimulus::random(0xE1, 20).with_clock(10);
    let until = VirtualTime::new(600);

    println!("E1: speedup vs processor count on {} ({} gates)\n", circuit.name(), circuit.len());
    let mut table =
        Table::new(&["P", "optimistic", "conservative", "synchronous", "opt rollbacks"]);

    for p in [1usize, 2, 4, 8, 16, 32] {
        let machine = MachineConfig::shared_memory(p);
        let partition = default_partition(&circuit, p);
        let mut cells = vec![p.to_string()];
        let mut rollbacks = 0;
        for d in [Discipline::Optimistic, Discipline::Conservative, Discipline::Synchronous] {
            let kernel = d.kernel(partition.clone(), machine);
            let s = kernel.run(&circuit, &stimulus, until).stats;
            cells.push(f2(s.modeled_speedup().unwrap_or(0.0)));
            if d == Discipline::Optimistic {
                rollbacks = s.rollbacks;
            }
        }
        cells.push(rollbacks.to_string());
        table.row(&cells);
    }
    table.finish("exp_scaling");
    println!("\nexpected shape: optimistic climbs with P then flattens (Briner: 23x at P=32).");
}
