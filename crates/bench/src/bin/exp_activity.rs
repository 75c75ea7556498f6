//! **E6 — oblivious vs. event-driven across activity levels** (§IV): "At
//! low activity levels, redundant evaluations are an enormous overhead. At
//! higher activity levels, the elimination of the event queue (and its
//! associated overhead) can lead to a performance advantage."
//!
//! ```sh
//! cargo run --release -p parsim-bench --bin exp_activity
//! ```
//!
//! Both kernels are sequential, so this experiment measures **real wall
//! clock** (median of three runs) rather than the virtual machine: the
//! event queue's true cost against the oblivious kernel's flat sweep.

use parsim_bench::{timed, Table};
use parsim_core::{ObliviousSimulator, Observe, SequentialSimulator, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::Bit;
use parsim_netlist::{generate, DelayModel};

fn main() {
    let circuit = generate::random_dag(&generate::RandomDagConfig {
        gates: 2000,
        inputs: 128,
        seq_fraction: 0.0,
        delays: DelayModel::Unit,
        seed: 0xE6,
        ..Default::default()
    });
    let until = VirtualTime::new(400);

    println!(
        "E6: oblivious vs event-driven across input activity ({} gates, {} ticks, wall clock)\n",
        circuit.len(),
        until
    );
    let mut table = Table::new(&[
        "toggle prob",
        "activity",
        "evd evals",
        "obl evals",
        "evd ms",
        "obl ms",
        "winner",
    ]);

    let evd_sim = SequentialSimulator::<Bit>::new().with_observe(Observe::Nothing);
    let obl_sim = ObliviousSimulator::<Bit>::new().with_observe(Observe::Nothing);

    for toggle in [0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0] {
        // A new vector every tick at the given per-input toggle rate.
        let stimulus = Stimulus::random_with_toggle(0xE6, 1, toggle);
        let evd = evd_sim.run(&circuit, &stimulus, until);
        let obl = obl_sim.run(&circuit, &stimulus, until);
        assert_eq!(evd.divergence_from(&obl), None, "kernels must agree regardless of activity");
        let evd_time = timed(3, || evd_sim.run(&circuit, &stimulus, until)).0[1];
        let obl_time = timed(3, || obl_sim.run(&circuit, &stimulus, until)).0[1];
        let evaluating = circuit.len() as f64;
        let activity = evd.stats.gate_evaluations as f64 / (evaluating * until.ticks() as f64);
        table.row(&[
            format!("{toggle:.3}"),
            format!("{activity:.3}"),
            evd.stats.gate_evaluations.to_string(),
            obl.stats.gate_evaluations.to_string(),
            format!("{:.2}", evd_time.as_secs_f64() * 1e3),
            format!("{:.2}", obl_time.as_secs_f64() * 1e3),
            if evd_time <= obl_time { "event-driven" } else { "oblivious" }.to_string(),
        ]);
    }
    table.finish("exp_activity");
    println!(
        "\nexpected shape: event-driven wins at low activity; the oblivious kernel's\n\
         flat cost catches up (and overtakes) as activity rises and the event queue\n\
         is pure overhead."
    );
}
