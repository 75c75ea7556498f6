//! **F1 — Figure 1**: reported speedup at 8 processors vs. number of
//! circuit elements, one series per synchronization discipline.
//!
//! ```sh
//! cargo run --release -p parsim-bench --bin fig1_speedup [-- max_gates]
//! ```
//!
//! Paper shape targets (Bailey et al. survey data, Figure 1):
//! * conservative asynchronous implementations reported ≲ 2× at 8
//!   processors regardless of circuit size;
//! * synchronous and optimistic implementations reach the 2–8× band and
//!   improve with circuit size;
//! * optimistic shows the widest spread.

use parsim_bench::{circuit_ladder, default_partition, f2, Discipline, Table};
use parsim_core::Stimulus;
use parsim_event::VirtualTime;
use parsim_machine::MachineConfig;

fn main() {
    let max_gates: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(16_384);
    let processors = 8;
    let machine = MachineConfig::shared_memory(processors);
    let stimulus = Stimulus::random(0xF1, 20).with_clock(10);
    let until = VirtualTime::new(600);

    println!("Figure 1: speedup at P={processors} vs circuit elements (modeled machine)\n");
    let mut table = Table::new(&[
        "elements",
        "synchronous",
        "conservative",
        "optimistic",
        "cons null ratio",
        "opt efficiency",
    ]);

    for circuit in circuit_ladder(256, max_gates) {
        let partition = default_partition(&circuit, processors);
        let mut cells = vec![circuit.len().to_string()];
        let mut null_ratio = 0.0;
        let mut efficiency = 0.0;
        for d in Discipline::all() {
            let kernel = d.kernel(partition.clone(), machine);
            let s = kernel.run(&circuit, &stimulus, until).stats;
            cells.push(f2(s.modeled_speedup().unwrap_or(0.0)));
            if d == Discipline::Conservative {
                null_ratio =
                    s.null_messages as f64 / (s.null_messages + s.messages_sent).max(1) as f64;
            }
            if d == Discipline::Optimistic {
                efficiency = s.efficiency();
            }
        }
        cells.push(f2(null_ratio * 100.0) + "%");
        cells.push(f2(efficiency * 100.0) + "%");
        table.row(&cells);
    }
    table.finish("fig1");
    println!(
        "\nexpected shape: conservative flat and lowest; synchronous & optimistic rise\n\
         with circuit size toward the 2-8x band (paper Figure 1)."
    );
}
