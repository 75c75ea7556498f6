//! **Bit-parallel throughput** — patterns/second of the packed 64-lane
//! kernel against scalar kernels running the same 64 patterns one at a
//! time.
//!
//! ```sh
//! cargo run --release -p parsim-bench --bin exp_bitparallel > results/exp_bitparallel.txt
//! ```
//!
//! The paper's §II observes that data parallelism — "the same operation on
//! many data items" — is the cheap parallelism of logic simulation: pack 64
//! independent input vectors into the bit positions of a machine word and
//! every word-wide gate operation simulates 64 machines at once. This
//! experiment quantifies that claim on the standard random-DAG ladder:
//! wall-clock time to push 64 patterns through the packed kernel vs. 64
//! back-to-back runs of the scalar oblivious and event-driven sequential
//! kernels. `speedup` is against the scalar oblivious baseline (the
//! like-for-like comparison: same evaluate-everything discipline, scalar
//! words).

use std::time::Duration;

use parsim_bench::{ladder_dag, timed, Table};
use parsim_bitsim::{BitSimulator, PackedBit, PackedStimulus, LANES};
use parsim_core::{ObliviousSimulator, Observe, SequentialSimulator, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::Bit;
use parsim_netlist::{Circuit, DelayModel};

fn main() {
    let until = VirtualTime::new(150);
    let circuits: Vec<Circuit> =
        [1024, 10_240].into_iter().map(|gates| ladder_dag(gates, DelayModel::Unit, 0xB1)).collect();

    println!("bit-parallel throughput: {LANES} patterns per run, wall-clock\n");
    let mut table = Table::new(&[
        "circuit",
        "gates",
        "kernel",
        "patterns",
        "wall_ms",
        "patterns_per_s",
        "speedup_vs_oblivious",
    ]);

    for c in &circuits {
        let stim = PackedStimulus::new(
            (0..LANES as u64).map(|k| Stimulus::random(0xB1 + k, 12).with_clock(7)).collect(),
        );

        let mut row = |kernel: &str, wall: Duration, baseline: Option<Duration>| {
            let s = wall.as_secs_f64();
            table.row(&[
                c.name().to_string(),
                c.len().to_string(),
                kernel.to_string(),
                LANES.to_string(),
                format!("{:.2}", s * 1e3),
                format!("{:.1}", LANES as f64 / s),
                format!("{:.2}", baseline.map_or(s, |b| b.as_secs_f64()) / s),
            ]);
        };

        // Baseline: the scalar oblivious kernel, 64 runs back to back.
        let oblivious = ObliviousSimulator::<Bit>::new().with_observe(Observe::Nothing);
        let baseline = timed(1, || {
            for k in 0..LANES {
                let out = oblivious.run(c, stim.lane(k), until);
                assert!(out.stats.gate_evaluations > 0);
            }
        })
        .0[0];
        row(&oblivious.name(), baseline, None);

        // The event-driven sequential kernel, 64 runs back to back.
        let sequential = SequentialSimulator::<Bit>::new().with_observe(Observe::Nothing);
        let seq = timed(1, || {
            for k in 0..LANES {
                let out = sequential.run(c, stim.lane(k), until);
                assert!(out.stats.events_processed > 0);
            }
        })
        .0[0];
        row(&sequential.name(), seq, Some(baseline));

        // The packed kernel: all 64 patterns in one pass.
        let packed = BitSimulator::<PackedBit>::new().with_observe(Observe::Nothing);
        let packed_wall = timed(1, || {
            let out = packed.run(c, &stim, until);
            assert!(out.stats.gate_evaluations > 0);
        })
        .0[0];
        row(&packed.name(), packed_wall, Some(baseline));
    }
    table.finish("exp_bitparallel");
}
