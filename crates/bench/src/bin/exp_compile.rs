//! **E14 Compiled vs. interpreted execution** — wall-clock cost of the
//! same oblivious simulation run through the generic `evaluate_gate`
//! interpreter and through `parsim-compile` bytecode, plus the threaded
//! synchronous kernel's artifact cache cold/warm split.
//!
//! ```sh
//! PARSIM_BENCH_JSON=results cargo run --release -p parsim-bench --bin exp_compile
//! ```
//!
//! Compiled-code simulation (§II of the paper's survey lineage) removes
//! the per-gate dispatch of interpreted evaluation: the netlist is
//! levelized once into kind-sorted linear bytecode and every kernel then
//! executes maximal same-kind runs with a single branch per run. The
//! `cache` column shows the artifact store at work — `miss` rows pay
//! compile + serialize, `hit` rows deserialize a `.parsimc` artifact and
//! skip compilation entirely. `speedup` is against the same kernel's
//! interpreted row; the threaded kernel always runs bytecode, so its cache
//! rows are against its in-memory `compiled` row. (Its interpreted row is
//! retired with the interpreted LP walk; EXPERIMENTS.md E14 keeps the last
//! measurements.)

use std::time::Instant;

use parsim_bench::Table;
use parsim_core::{ObliviousSimulator, Observe, SequentialSimulator, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::Logic4;
use parsim_netlist::{generate, Circuit, DelayModel};
use parsim_partition::{FiducciaMattheyses, GateWeights, Partitioner};
use parsim_sync::ThreadedSyncSimulator;
use parsim_trace::{Probe, TraceKind};

fn wall_ns(f: impl FnOnce()) -> u64 {
    let start = Instant::now();
    f();
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What the artifact store did during a probed run.
fn cache_label(probe: &Probe) -> &'static str {
    let trace = probe.take_trace();
    if trace.records().iter().any(|r| r.kind == TraceKind::CacheHit) {
        "hit"
    } else if trace.records().iter().any(|r| r.kind == TraceKind::Compile) {
        "miss"
    } else {
        "-"
    }
}

fn main() {
    let until = VirtualTime::new(150);
    let blocks = 4;
    let circuits: Vec<Circuit> = [1024usize, 10_240]
        .into_iter()
        .map(|gates| {
            generate::random_dag(&generate::RandomDagConfig {
                gates,
                inputs: (gates / 16).clamp(8, 256),
                seq_fraction: 0.10,
                delays: DelayModel::Unit,
                seed: 0xC0,
                ..Default::default()
            })
        })
        .collect();
    let cache_dir = std::env::temp_dir().join(format!("parsim-exp-compile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    println!("compiled vs interpreted execution, wall-clock\n");
    let mut table =
        Table::new(&["circuit", "gates", "kernel", "mode", "cache", "wall_ms", "speedup"]);

    for c in &circuits {
        let stim = Stimulus::random(0xC0, 12).with_clock(7);
        let weights = GateWeights::uniform(c.len());
        let partition = FiducciaMattheyses::default().partition(c, blocks, &weights);

        let mut row = |kernel: &str, mode: &str, cache: &str, ns: u64, baseline: Option<u64>| {
            table.row(&[
                c.name().to_string(),
                c.len().to_string(),
                kernel.to_string(),
                mode.to_string(),
                cache.to_string(),
                format!("{:.2}", ns as f64 / 1e6),
                baseline
                    .map_or_else(|| "1.00".to_string(), |b| format!("{:.2}", b as f64 / ns as f64)),
            ]);
        };

        // Event-driven sequential reference, for scale.
        let sequential = SequentialSimulator::<Logic4>::new().with_observe(Observe::Nothing);
        let seq_ns = wall_ns(|| {
            assert!(sequential.run(c, &stim, until).stats.events_processed > 0);
        });
        row(&sequential.name(), "interpreted", "-", seq_ns, None);

        // Oblivious kernel: full-sweep interpreter vs. execute_full bytecode.
        let obl = ObliviousSimulator::<Logic4>::new().with_observe(Observe::Nothing);
        let obl_ns = wall_ns(|| {
            assert!(obl.run(c, &stim, until).stats.gate_evaluations > 0);
        });
        row(&obl.name(), "interpreted", "-", obl_ns, None);
        let obl_c =
            ObliviousSimulator::<Logic4>::new().with_observe(Observe::Nothing).with_compiled();
        let obl_c_ns = wall_ns(|| {
            assert!(obl_c.run(c, &stim, until).stats.gate_evaluations > 0);
        });
        row(&obl_c.name(), "compiled", "-", obl_c_ns, Some(obl_ns));

        // Threaded synchronous kernel: bytecode compiled in memory, then the
        // cached bytecode path cold (miss) and warm (hit).
        let sync =
            ThreadedSyncSimulator::<Logic4>::new(partition.clone()).with_observe(Observe::Nothing);
        let sync_ns = wall_ns(|| {
            assert!(sync.run(c, &stim, until).stats.gate_evaluations > 0);
        });
        row(&sync.name(), "compiled", "-", sync_ns, None);

        // Timed runs stay probe-free (a recording probe taxes every
        // barrier round); the hit/miss labels are established by the
        // cleared directory, the artifact it gains, and a probed
        // verification run afterwards.
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cached = ThreadedSyncSimulator::<Logic4>::new(partition.clone())
            .with_observe(Observe::Nothing)
            .with_compiled_cache(&cache_dir);
        let cold_ns = wall_ns(|| {
            assert!(cached.run(c, &stim, until).stats.gate_evaluations > 0);
        });
        let artifacts =
            std::fs::read_dir(&cache_dir).map_or(0, |d| d.filter_map(Result::ok).count());
        assert!(artifacts > 0, "cold pass must populate the artifact store");
        row(&cached.name(), "compiled+cache", "miss", cold_ns, Some(sync_ns));
        let warm_ns = wall_ns(|| {
            assert!(cached.run(c, &stim, until).stats.gate_evaluations > 0);
        });
        row(&cached.name(), "compiled+cache", "hit", warm_ns, Some(sync_ns));
        let probe = Probe::enabled();
        let probed = ThreadedSyncSimulator::<Logic4>::new(partition.clone())
            .with_observe(Observe::Nothing)
            .with_compiled_cache(&cache_dir)
            .with_probe(probe.clone());
        probed.run(c, &stim, VirtualTime::new(10));
        assert_eq!(cache_label(&probe), "hit", "warm passes must hit the artifact store");
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    table.finish("exp_compile");
}
