//! **Threaded-kernel throughput** — wall-clock events/second of the four
//! real-thread kernels (synchronous, conservative, Time Warp, breathing
//! time buckets) on the standard generated-circuit ladder.
//!
//! ```sh
//! cargo run --release -p parsim-bench --bin exp_threaded > results/exp_threaded.txt
//! ```
//!
//! Unlike the modeled experiments this measures the host, not the virtual
//! multiprocessor: it is the regression guard for the shared LP execution
//! fabric (`parsim-runtime`) under every threaded kernel. On a single-core
//! host the absolute numbers mean "protocol overhead", not "speedup";
//! before/after tables on the same host are directly comparable.

use parsim_bench::{default_partition, ladder_dag, timed, Table};
use parsim_core::{Observe, SequentialSimulator, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::Bit;
use parsim_netlist::{Circuit, DelayModel};

fn main() {
    let until = VirtualTime::new(300);
    let delays = DelayModel::Uniform { min: 1, max: 9, seed: 0x7D };
    let circuits: Vec<Circuit> =
        [512, 2048].into_iter().map(|gates| ladder_dag(gates, delays, 0x7D)).collect();

    println!("threaded-kernel wall-clock throughput (events/s, best of 3)\n");
    let mut table =
        Table::new(&["circuit", "gates", "kernel", "threads", "events", "wall_ms", "kev_per_s"]);

    for c in &circuits {
        let stim = Stimulus::random(0x7D, 12).with_clock(7);
        let mut row = |kernel: &dyn Simulator<Bit>, threads: usize| {
            let (walls, out) = timed(3, || kernel.run(c, &stim, until));
            let (best, events) = (walls[0].as_secs_f64(), out.stats.events_processed);
            table.row(&[
                c.name().to_string(),
                c.len().to_string(),
                kernel.name(),
                threads.to_string(),
                events.to_string(),
                format!("{:.2}", best * 1e3),
                format!("{:.1}", events as f64 / best / 1e3),
            ]);
        };
        for threads in [2usize, 4] {
            let part = default_partition(c, threads);
            let kernels: Vec<Box<dyn Simulator<Bit>>> = vec![
                Box::new(
                    parsim_sync::ThreadedSyncSimulator::<Bit>::new(part.clone())
                        .with_observe(Observe::Nothing),
                ),
                Box::new(
                    parsim_conservative::ThreadedConservativeSimulator::<Bit>::new(part.clone())
                        .with_observe(Observe::Nothing),
                ),
                Box::new(
                    parsim_optimistic::ThreadedTimeWarpSimulator::<Bit>::new(part.clone())
                        .with_observe(Observe::Nothing),
                ),
                Box::new(
                    parsim_optimistic::ThreadedBtbSimulator::<Bit>::new(part.clone())
                        .with_observe(Observe::Nothing),
                ),
            ];
            for kernel in &kernels {
                row(kernel.as_ref(), threads);
            }
        }
        // Sequential reference row for scale.
        row(&SequentialSimulator::<Bit>::new().with_observe(Observe::Nothing), 1);
    }
    table.finish("exp_threaded");
}
