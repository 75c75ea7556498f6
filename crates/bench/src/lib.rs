//! Experiment harness for the DAC '95 reproduction.
//!
//! One binary per experiment (see `src/bin/`), each regenerating one figure
//! or quantitative claim from the paper:
//!
//! | Binary | Id | Reproduces |
//! |---|---|---|
//! | `fig1_speedup` | F1 | Figure 1: 8-processor speedup vs circuit size per discipline |
//! | `exp_scaling` | E1 | Briner-style speedup vs processor count |
//! | `exp_partitioning` | E2 | §III partitioning algorithm comparison |
//! | `exp_granularity` | E3 | timing granularity: synchronous vs optimistic |
//! | `exp_cancellation` | E4 | lazy vs aggressive cancellation |
//! | `exp_state_saving` | E5 | copy vs incremental state saving |
//! | `exp_activity` | E6 | oblivious vs event-driven crossover |
//! | `exp_granularity_lp` | E7 | LP granularity sweep |
//! | `exp_presim` | E8 | pre-simulation activity weighting |
//! | `exp_barrier` | E9 | synchronous barrier-cost scaling |
//! | `exp_nullmsg` | E10 | null-message overhead vs lookahead |
//! | `exp_threaded` | E11 | wall-clock throughput of the threaded kernels on the runtime fabric |
//! | `exp_bitparallel` | E12 | §II bit parallelism: packed 64-lane throughput vs scalar kernels |
//! | `exp_faults` | E13 | fault-injection campaign: recovery transparency and fail-fast overhead |
//! | `exp_server` | E16 | simulation service under load: jobs/sec and p50/p99 latency vs concurrent client count |
//!
//! E14 (interpreted vs bytecode evaluation) and E15 (mutexed mesh vs SPSC
//! ring) are decided ablations: EXPERIMENTS.md keeps their final tables,
//! and the per-layer rows of the repo's `benchmark/` crate time the same
//! code on every run, as they do the micro-level timings (event queues,
//! gate evaluation, partitioning).
//!
//! A binary's committed result is its stdout, saved as
//! `results/<name>.txt`; `tests/results_current.rs` fails when a table no
//! longer matches what its binary prints. This crate's library part holds
//! the shared plumbing: the standard circuit ladder, kernel construction by
//! discipline, a wall-clock timer, and a fixed-width table printer that
//! mirrors every row into CSV and JSON blocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use parsim_core::{Observe, Simulator};
use parsim_logic::Bit;
use parsim_machine::MachineConfig;
use parsim_netlist::{generate, Circuit, DelayModel};
use parsim_partition::{ConePartitioner, GateWeights, Partition, Partitioner};
use parsim_trace::json_string;

pub use parsim_conservative::{ConservativeSettings, ConservativeSimulator, DeadlockStrategy};
pub use parsim_optimistic::{Cancellation, StateSaving, TimeWarpSimulator};
pub use parsim_sync::SyncSimulator;

/// The three §IV parallel disciplines compared in Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Global-clock synchronous.
    Synchronous,
    /// Chandy–Misra–Bryant with null messages.
    Conservative,
    /// Time Warp with the kernel's defaults: incremental state saving, lazy
    /// cancellation.
    Optimistic,
}

impl Discipline {
    /// All three, in the paper's order.
    pub fn all() -> [Discipline; 3] {
        [Discipline::Synchronous, Discipline::Conservative, Discipline::Optimistic]
    }

    /// The series label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Discipline::Synchronous => "synchronous",
            Discipline::Conservative => "conservative",
            Discipline::Optimistic => "optimistic",
        }
    }

    /// Builds the modeled kernel for this discipline, in its
    /// literature-typical deployment (the Figure 1 data points come from
    /// *different implementations*, each using its tradition's natural
    /// configuration):
    ///
    /// * synchronous — one block per processor (Soule & Gupta, Mueller-Thuns
    ///   et al. style);
    /// * conservative — fine-grained LPs (8 per processor): the
    ///   Chandy–Misra–Bryant tradition simulated gates or small clusters as
    ///   LPs, which is precisely what made null-message overhead dominant;
    /// * optimistic — small LPs (16 per processor) for rollback containment
    ///   plus a bounded optimism window and frequent GVT (Briner's
    ///   configuration).
    pub fn kernel(self, partition: Partition, machine: MachineConfig) -> Box<dyn Simulator<Bit>> {
        match self {
            Discipline::Synchronous => Box::new(
                SyncSimulator::<Bit>::new(partition, machine).with_observe(Observe::Nothing),
            ),
            Discipline::Conservative => Box::new(
                ConservativeSimulator::<Bit>::new(partition, machine)
                    .with_granularity(8)
                    .with_observe(Observe::Nothing),
            ),
            Discipline::Optimistic => Box::new(
                TimeWarpSimulator::<Bit>::new(partition, machine)
                    .with_granularity(16)
                    .with_window(32)
                    .with_gvt_interval(16)
                    .with_observe(Observe::Nothing),
            ),
        }
    }
}

/// One rung of the standard ladder: a random DAG with realistic
/// fanout/locality, a 10 % sequential fraction and one primary input per 16
/// gates (8 to 256).
pub fn ladder_dag(gates: usize, delays: DelayModel, seed: u64) -> Circuit {
    generate::random_dag(&generate::RandomDagConfig {
        gates,
        inputs: (gates / 16).clamp(8, 256),
        seq_fraction: 0.10,
        delays,
        seed,
        ..Default::default()
    })
}

/// The standard circuit ladder for size sweeps: unit-delay [`ladder_dag`]s
/// from `min_gates` up to `max_gates`, quadrupling each step.
pub fn circuit_ladder(min_gates: usize, max_gates: usize) -> Vec<Circuit> {
    let mut sizes = Vec::new();
    let mut g = min_gates;
    while g <= max_gates {
        sizes.push(g);
        g *= 4;
    }
    sizes.into_iter().map(|gates| ladder_dag(gates, DelayModel::Unit, 0xF1F1)).collect()
}

/// Runs `f` `reps` times and returns the wall time of every run, sorted
/// ascending (`[0]` is the best run, `[reps / 2]` the median), with the last
/// run's result.
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (Vec<Duration>, T) {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        last = Some(std::hint::black_box(f()));
        walls.push(start.elapsed());
    }
    walls.sort();
    (walls, last.expect("timed needs at least one run"))
}

/// The default partition used by the cross-discipline experiments: fanin
/// cones, the locality-preserving choice every surveyed implementation had
/// some analogue of.
pub fn default_partition(circuit: &Circuit, processors: usize) -> Partition {
    ConePartitioner.partition(circuit, processors, &GateWeights::uniform(circuit.len()))
}

/// A fixed-width table printer that mirrors every row into a CSV string and
/// a JSON document (both printed at the end for downstream plotting).
#[derive(Debug)]
pub struct Table {
    headers: Vec<String>,
    widths: Vec<usize>,
    csv: String,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table and prints the header row.
    pub fn new(headers: &[&str]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(12)).collect();
        let mut header_line = String::new();
        for (h, w) in headers.iter().zip(&widths) {
            header_line.push_str(&format!("{h:>w$} "));
        }
        println!("{header_line}");
        println!("{}", "-".repeat(header_line.len()));
        Table {
            headers: headers.iter().map(ToString::to_string).collect(),
            widths,
            csv: format!("{}\n", headers.join(",")),
            rows: Vec::new(),
        }
    }

    /// Prints one row (already formatted cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width must match header");
        let mut line = String::new();
        for (c, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{c:>w$} "));
        }
        println!("{line}");
        self.csv.push_str(&format!("{}\n", cells.join(",")));
        self.rows.push(cells.to_vec());
    }

    /// Renders the rows as a machine-readable JSON document: an object with
    /// an `experiment` name, a provenance [`meta`](run_meta) block (git
    /// commit, thread count, rustc version), and a `rows` array of
    /// header-keyed objects. Cells that parse as integers or floats become
    /// JSON numbers; anything else stays a string.
    pub fn to_json(&self, name: &str) -> String {
        let meta = run_meta();
        let mut out = String::from("{\n  \"experiment\": ");
        json_string(name, &mut out);
        out.push_str(",\n  \"meta\": {\"git_commit\": ");
        json_string(&meta.git_commit, &mut out);
        out.push_str(&format!(", \"threads\": {}, \"rustc\": ", meta.threads));
        json_string(&meta.rustc, &mut out);
        out.push_str("},\n  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
            for (j, (h, c)) in self.headers.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json_string(h, &mut out);
                out.push_str(": ");
                json_cell(c, &mut out);
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Prints the CSV and JSON mirrors, fenced for easy extraction.
    pub fn finish(self, name: &str) {
        println!("\n--- csv:{name} ---");
        print!("{}", self.csv);
        println!("--- end csv ---");
        println!("--- json:{name} ---");
        print!("{}", self.to_json(name));
        println!("--- end json ---");
    }
}

/// Provenance of one benchmark invocation, stamped into every emitted JSON
/// block so a `results/<name>.txt` file is attributable to the exact code,
/// toolchain and machine shape that produced it.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// `git rev-parse HEAD` of the working tree, or `"unknown"` outside a
    /// checkout (e.g. a bare tarball build).
    pub git_commit: String,
    /// Host threads available to the run (`std::thread::available_parallelism`),
    /// or 0 when the host will not say.
    pub threads: usize,
    /// `rustc --version` of the toolchain on `PATH`, or `"unknown"`.
    pub rustc: String,
}

/// Collects the run provenance, once per process (the git/rustc
/// subprocesses are spawned on first use and cached).
pub fn run_meta() -> &'static RunMeta {
    static META: std::sync::OnceLock<RunMeta> = std::sync::OnceLock::new();
    META.get_or_init(|| RunMeta {
        git_commit: command_line("git", &["rev-parse", "HEAD"]),
        threads: std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        rustc: command_line("rustc", &["--version"]),
    })
}

/// First stdout line of `cmd args…`, or `"unknown"` when the command is
/// missing, fails, or prints nothing.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout);
            text.lines().next().map(|l| l.trim().to_string()).filter(|l| !l.is_empty())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Appends a table cell as a JSON value: integer, float, or string.
fn json_cell(cell: &str, out: &mut String) {
    if let Ok(i) = cell.parse::<i64>() {
        out.push_str(&i.to_string());
    } else if let Ok(f) = cell.parse::<f64>() {
        if f.is_finite() {
            out.push_str(&format!("{f}"));
        } else {
            json_string(cell, out);
        }
    } else {
        json_string(cell, out);
    }
}

/// Formats a float with two decimals (table cell helper).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_core::Stimulus;
    use parsim_event::VirtualTime;

    #[test]
    fn ladder_quadruples() {
        let ladder = circuit_ladder(256, 4096);
        assert_eq!(ladder.len(), 3);
        assert!(ladder[0].len() >= 256);
        assert!(ladder[2].len() >= 4 * ladder[1].len() / 2);
    }

    #[test]
    fn timed_sorts_samples_and_keeps_the_last_result() {
        let mut runs = 0;
        let (walls, last) = timed(3, || {
            runs += 1;
            runs
        });
        assert_eq!((walls.len(), last), (3, 3));
        assert!(walls.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn table_json_mirror_types_cells() {
        let mut t = Table::new(&["gates", "speedup", "strategy"]);
        t.row(&["256".into(), "3.50".into(), "null-msg".into()]);
        t.row(&["1024".into(), "5.25".into(), "recovery(3)".into()]);
        let json = t.to_json("unit");
        assert!(json.contains("\"experiment\": \"unit\""));
        assert!(json.contains("\"gates\": 256"));
        assert!(json.contains("\"speedup\": 3.5"));
        assert!(json.contains("\"strategy\": \"recovery(3)\""));
        assert!(json.contains("\"meta\": {\"git_commit\": "));
        assert!(json.contains("\"threads\": "));
        assert!(json.contains("\"rustc\": "));
    }

    #[test]
    fn run_meta_is_populated_and_cached() {
        let a = run_meta();
        let b = run_meta();
        assert!(std::ptr::eq(a, b), "meta is collected once per process");
        // In this repo's CI and dev environments both tools exist; the
        // "unknown" fallback is for detached tarball builds only.
        assert!(!a.git_commit.is_empty());
        assert!(a.rustc == "unknown" || a.rustc.starts_with("rustc "), "{}", a.rustc);
    }

    #[test]
    fn disciplines_build_and_run() {
        let c = generate::ripple_adder(4, DelayModel::Unit);
        let stim = Stimulus::random(1, 10);
        for d in Discipline::all() {
            let kernel = d.kernel(default_partition(&c, 2), MachineConfig::shared_memory(2));
            let out = kernel.run(&c, &stim, VirtualTime::new(100));
            assert!(out.stats.modeled_speedup().is_some(), "{}", d.label());
        }
    }
}
