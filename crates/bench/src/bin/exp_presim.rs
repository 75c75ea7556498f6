//! **E8 — pre-simulation load estimation** (§III): measure per-gate
//! evaluation frequencies in a short profiling run, feed them to the
//! partitioner as weights, and compare against structurally balanced
//! (uniform-weight) partitions.
//!
//! ```sh
//! cargo run --release -p parsim-bench --bin exp_presim
//! ```
//!
//! The workload is deliberately activity-skewed (a wide counter: low bits
//! toggle every cycle, high bits almost never), which is where structural
//! balance lies the most. §III: pre-simulation "has proven successful when
//! using random test vectors".

#![allow(clippy::needless_range_loop)] // index-parallel arrays: indices are the clearer idiom here
use parsim_bench::{f2, Table};
use parsim_core::{pre_simulate, Observe, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::{Bit, GateKind};
use parsim_machine::MachineConfig;
use parsim_netlist::{CircuitBuilder, Delay};
use parsim_partition::{ContiguousPartitioner, FiducciaMattheyses, GateWeights, Partitioner};
use parsim_sync::SyncSimulator;

/// A counter plus a block of rarely-active decode logic off the high bits:
/// structurally large, dynamically almost idle.
fn skewed_circuit(bits: usize, decode: usize) -> parsim_netlist::Circuit {
    let mut b = CircuitBuilder::new(format!("skewed_{bits}_{decode}"));
    let clk = b.input("clk");
    let q: Vec<_> = (0..bits).map(|i| b.declare(format!("q{i}"))).collect();
    let mut all_lower = b.constant(true);
    for i in 0..bits {
        let toggle = b.gate(GateKind::Xor, [q[i], all_lower], Delay::UNIT);
        b.define(q[i], GateKind::Dff, [clk, toggle], Delay::UNIT);
        b.output(format!("count{i}"), q[i]);
        if i + 1 < bits {
            all_lower = b.gate(GateKind::And, [all_lower, q[i]], Delay::UNIT);
        }
    }
    // Decode logic hanging off the (nearly static) top two bits.
    let top = q[bits - 1];
    let second = q[bits - 2];
    let mut layer = vec![b.gate(GateKind::And, [top, second], Delay::UNIT)];
    for i in 0..decode {
        let prev = layer[layer.len() - 1];
        let g = b.gate(
            if i % 2 == 0 { GateKind::Nand } else { GateKind::Nor },
            [prev, top],
            Delay::UNIT,
        );
        layer.push(g);
    }
    b.output("decode", *layer.last().expect("nonempty"));
    b.finish().expect("skewed circuit is structurally valid")
}

fn main() {
    let processors = 8;
    let machine = MachineConfig::shared_memory(processors);
    let circuit = skewed_circuit(14, 2000);
    let stimulus = Stimulus::quiet(1_000_000).with_clock(4);
    let until = VirtualTime::new(4_000);

    println!(
        "E8: uniform vs pre-simulation weights on an activity-skewed circuit ({} gates)\n",
        circuit.len()
    );

    // Pre-simulation over a 10% window.
    let profile = pre_simulate(&circuit, &stimulus, VirtualTime::new(400));
    let uniform = GateWeights::uniform(circuit.len());
    let presim = GateWeights::from_counts(profile.counts().to_vec());

    let mut table =
        Table::new(&["partitioner", "weights", "static balance", "dynamic balance", "speedup"]);

    let partitioners: Vec<Box<dyn Partitioner>> =
        vec![Box::new(ContiguousPartitioner), Box::new(FiducciaMattheyses::default())];
    for p in &partitioners {
        for (label, weights) in [("uniform", &uniform), ("presim", &presim)] {
            let partition = p.partition(&circuit, processors, weights);
            // Static balance: by gate count. Dynamic: by measured activity.
            let static_q = partition.quality(&circuit, &uniform);
            let dynamic_q = partition.quality(&circuit, &presim);
            let out = SyncSimulator::<Bit>::new(partition, machine)
                .with_observe(Observe::Nothing)
                .run(&circuit, &stimulus, until);
            table.row(&[
                p.name().to_string(),
                label.to_string(),
                format!("{:.3}", static_q.max_load_ratio),
                format!("{:.3}", dynamic_q.max_load_ratio),
                f2(out.stats.modeled_speedup().unwrap_or(0.0)),
            ]);
        }
    }
    table.finish("exp_presim");
    println!(
        "\nexpected shape: uniform weights balance gate counts but not real load\n\
         (dynamic balance ≫ 1); pre-simulation weights fix the dynamic balance and\n\
         improve the modeled speedup."
    );
}
