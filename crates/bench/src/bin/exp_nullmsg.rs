//! **E10 — null-message overhead vs. lookahead** (§IV): null messages are
//! the price of conservative deadlock avoidance; the smaller the lookahead
//! (minimum boundary gate delay), the more of them the protocol needs.
//!
//! ```sh
//! cargo run --release -p parsim-bench --bin exp_nullmsg
//! ```
//!
//! A ring of flip-flops split across processors is the classic worst case
//! (every LP cyclically waits on its neighbour). Lookahead is varied by
//! scaling all gate delays; the null ratio and speedup are reported, plus
//! the deadlock-recovery variant for contrast.
//!
//! The smallest-lookahead null-message run is additionally traced with a
//! [`parsim_trace::Probe`]: the per-channel null breakdown is printed after
//! the table. (`examples/trace_report` exports such a trace as Perfetto
//! JSON.)

use parsim_bench::{f2, Table};
use parsim_conservative::{ConservativeSettings, ConservativeSimulator, DeadlockStrategy};
use parsim_core::{Observe, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::Bit;
use parsim_machine::MachineConfig;
use parsim_netlist::{generate, Delay, DelayModel};
use parsim_partition::{ContiguousPartitioner, GateWeights, Partitioner};
use parsim_trace::{analysis, Probe};

fn main() {
    let processors = 8;
    let machine = MachineConfig::shared_memory(processors);

    println!("E10: null-message overhead vs lookahead (ring circuit, P={processors})\n");
    let mut table =
        Table::new(&["lookahead", "strategy", "nulls", "events", "null ratio", "speedup"]);
    let mut traced_probe: Option<Probe> = None;

    for lookahead in [1u64, 2, 5, 10, 25] {
        // The gate delay *is* the lookahead. Event spacing (clock period,
        // vector cadence, horizon) stays fixed, so small lookahead means
        // many null-message hops per unit of real progress.
        let circuit = generate::ring(64, DelayModel::Fixed(Delay::new(lookahead)));
        let partition = ContiguousPartitioner.partition(
            &circuit,
            processors,
            &GateWeights::uniform(circuit.len()),
        );
        let stimulus = Stimulus::random(0xEA, 200).with_clock(100);
        let until = VirtualTime::new(50_000);

        for strategy in [DeadlockStrategy::NullMessages, DeadlockStrategy::DetectAndRecover] {
            // Trace the worst case (smallest lookahead, null messages) to
            // show *which channels* carry the overhead, not just how much.
            let traced = lookahead == 1 && strategy == DeadlockStrategy::NullMessages;
            let probe = if traced { Probe::enabled() } else { Probe::disabled() };
            let out = ConservativeSimulator::<Bit>::new(partition.clone(), machine)
                .with_strategy(strategy)
                .with_observe(Observe::Nothing)
                .with_probe(probe.clone())
                .run(&circuit, &stimulus, until);
            if traced {
                traced_probe = Some(probe);
            }
            let total = out.stats.null_messages + out.stats.messages_sent;
            let label = match strategy {
                DeadlockStrategy::NullMessages => "null-msg".to_string(),
                DeadlockStrategy::DetectAndRecover => format!("recovery({})", out.stats.gvt_rounds),
            };
            table.row(&[
                lookahead.to_string(),
                label,
                out.stats.null_messages.to_string(),
                out.stats.messages_sent.to_string(),
                f2(out.stats.null_messages as f64 / total.max(1) as f64 * 100.0) + "%",
                f2(out.stats.modeled_speedup().unwrap_or(0.0)),
            ]);
        }
    }
    table.finish("exp_nullmsg");

    if let Some(probe) = traced_probe {
        let trace = probe.take_trace();
        let nulls = analysis::null_message_summary(&trace);
        println!(
            "\ntraced run (lookahead=1, null-msg): {} nulls vs {} events ({:.1}% null)",
            nulls.nulls,
            nulls.events,
            nulls.ratio() * 100.0
        );
        for ((src, dst), (n, e)) in nulls.worst_channels().into_iter().take(5) {
            println!("  channel LP{src} -> LP{dst}: {n} nulls, {e} events");
        }
    }

    println!(
        "\nexpected shape: the null ratio dominates at small lookahead (the §V reason\n\
         conservative implementations 'reported no good performance') and falls as\n\
         lookahead grows; deadlock recovery trades nulls for global stalls."
    );
}
