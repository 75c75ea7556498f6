//! **Bit-parallel throughput** — patterns/second of the packed 64-lane
//! kernel against scalar kernels running the same 64 patterns one at a
//! time.
//!
//! ```sh
//! PARSIM_BENCH_JSON=results cargo run --release -p parsim-bench --bin exp_bitparallel
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

use std::time::Instant;

use parsim_bench::Table;
use parsim_bitsim::{BitSimulator, PackedBit, PackedStimulus, LANES};
use parsim_core::{ObliviousSimulator, Observe, SequentialSimulator, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::Bit;
use parsim_netlist::{generate, Circuit, DelayModel};

fn wall_ns(f: impl FnOnce()) -> u64 {
    let start = Instant::now();
    f();
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn main() {
    let until = VirtualTime::new(150);
    let circuits: Vec<Circuit> = [1024usize, 10_240]
        .into_iter()
        .map(|gates| {
            generate::random_dag(&generate::RandomDagConfig {
                gates,
                inputs: (gates / 16).clamp(8, 256),
                seq_fraction: 0.10,
                delays: DelayModel::Unit,
                seed: 0xB1,
                ..Default::default()
            })
        })
        .collect();

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

        let mut row = |kernel: &str, ns: u64, baseline_ns: Option<u64>| {
            table.row(&[
                c.name().to_string(),
                c.len().to_string(),
                kernel.to_string(),
                LANES.to_string(),
                format!("{:.2}", ns as f64 / 1e6),
                format!("{:.1}", LANES as f64 / (ns as f64 / 1e9)),
                baseline_ns
                    .map_or_else(|| "1.00".to_string(), |b| format!("{:.2}", b as f64 / ns as f64)),
            ]);
        };

        // Baseline: the scalar oblivious kernel, 64 runs back to back.
        let oblivious = ObliviousSimulator::<Bit>::new().with_observe(Observe::Nothing);
        let baseline_ns = wall_ns(|| {
            for k in 0..LANES {
                let out = oblivious.run(c, stim.lane(k), until);
                assert!(out.stats.gate_evaluations > 0);
            }
        });
        row(&oblivious.name(), baseline_ns, None);

        // The event-driven sequential kernel, 64 runs back to back.
        let sequential = SequentialSimulator::<Bit>::new().with_observe(Observe::Nothing);
        let seq_ns = wall_ns(|| {
            for k in 0..LANES {
                let out = sequential.run(c, stim.lane(k), until);
                assert!(out.stats.events_processed > 0);
            }
        });
        row(&sequential.name(), seq_ns, Some(baseline_ns));

        // The packed kernel: all 64 patterns in one pass.
        let packed = BitSimulator::<PackedBit>::new().with_observe(Observe::Nothing);
        let ns = wall_ns(|| {
            let out = packed.run(c, &stim, until);
            assert!(out.stats.gate_evaluations > 0);
        });
        row(&packed.name(), ns, Some(baseline_ns));
    }
    table.finish("exp_bitparallel");
}
