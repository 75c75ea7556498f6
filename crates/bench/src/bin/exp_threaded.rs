//! **Threaded-kernel throughput** — wall-clock events/second of the four
//! real-thread kernels (synchronous, conservative, Time Warp, breathing
//! time buckets) on the standard generated-circuit ladder.
//!
//! ```sh
//! PARSIM_BENCH_JSON=results cargo run --release -p parsim-bench --bin exp_threaded
//! ```
//!
//! Unlike the modeled experiments this measures the host, not the virtual
//! multiprocessor: it is the regression guard for the shared LP execution
//! fabric (`parsim-runtime`) under every threaded kernel. On a single-core
//! host the absolute numbers mean "protocol overhead", not "speedup";
//! before/after tables on the same host are directly comparable.

use std::time::Instant;

use parsim_bench::{default_partition, Table};
use parsim_core::{Observe, SequentialSimulator, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::Bit;
use parsim_netlist::{generate, Circuit, DelayModel};

/// Runs the kernel `reps` times and keeps the best (least-noisy) wall time.
fn best_wall_ns(
    kernel: &dyn Simulator<Bit>,
    c: &Circuit,
    stim: &Stimulus,
    until: VirtualTime,
    reps: u32,
) -> (u64, u64) {
    let mut best = u64::MAX;
    let mut events = 0;
    for _ in 0..reps {
        let start = Instant::now();
        let out = kernel.run(c, stim, until);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        best = best.min(ns);
        events = out.stats.events_processed;
    }
    (best, events)
}

fn main() {
    let until = VirtualTime::new(300);
    let circuits: Vec<Circuit> = [512usize, 2048]
        .into_iter()
        .map(|gates| {
            generate::random_dag(&generate::RandomDagConfig {
                gates,
                inputs: (gates / 16).clamp(8, 256),
                seq_fraction: 0.10,
                delays: DelayModel::Uniform { min: 1, max: 9, seed: 0x7D },
                seed: 0x7D,
                ..Default::default()
            })
        })
        .collect();

    println!("threaded-kernel wall-clock throughput (events/s, best of 3)\n");
    let mut table =
        Table::new(&["circuit", "gates", "kernel", "threads", "events", "wall_ms", "kev_per_s"]);

    for c in &circuits {
        let stim = Stimulus::random(0x7D, 12).with_clock(7);
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
                let (ns, events) = best_wall_ns(kernel.as_ref(), c, &stim, until, 3);
                let kev_s = events as f64 / (ns as f64 / 1e9) / 1e3;
                table.row(&[
                    c.name().to_string(),
                    c.len().to_string(),
                    kernel.name(),
                    threads.to_string(),
                    events.to_string(),
                    format!("{:.2}", ns as f64 / 1e6),
                    format!("{kev_s:.1}"),
                ]);
            }
        }
        // Sequential reference row for scale.
        let seq = SequentialSimulator::<Bit>::new().with_observe(Observe::Nothing);
        let (ns, events) = best_wall_ns(&seq, c, &stim, until, 3);
        table.row(&[
            c.name().to_string(),
            c.len().to_string(),
            seq.name(),
            "1".to_string(),
            events.to_string(),
            format!("{:.2}", ns as f64 / 1e6),
            format!("{:.1}", events as f64 / (ns as f64 / 1e9) / 1e3),
        ]);
    }
    table.finish("exp_threaded");
}
