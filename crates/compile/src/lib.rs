//! # parsim-compile
//!
//! The netlist-to-bytecode compiler every kernel shares.
//!
//! GSIM-style compiled-code simulation replaces the generic per-gate
//! interpreter walk (gate → kind dispatch → fanin pointer chase) with a compact linear bytecode: one [`Op`] per non-source gate — kind,
//! a slice of a flat fanin array, the gate's own delay, and (for
//! flip-flops and latches) a sequential state slot — grouped into a
//! sequential section followed by one combinational section, each sorted
//! by kind so the executors dispatch **once per kind** instead of once per
//! gate.
//!
//! One compiler, three backends:
//!
//! * **oblivious scalar** — [`execute_full`] evaluates every op of a
//!   [`CompiledBlock`] each tick (`parsim-core`'s `ObliviousSimulator`),
//! * **oblivious packed** — `parsim-bitsim` runs the same schedule with
//!   64-lane packed words,
//! * **event-driven** — [`execute_sparse`] evaluates only the dirty gates
//!   of a timestamp batch, exactly reproducing `evaluate_gate`'s semantics:
//!   the only gate evaluator under every synchronous, conservative and
//!   Time Warp kernel, threaded or modeled.
//!
//! Compiled circuits are cacheable artifacts: [`ArtifactStore`] keys a
//! serialized block set by a stable netlist + partition content hash
//! (versioned header, checksummed payload, blocks checked against the
//! circuit on load; corrupt or forged entries silently fall back to
//! recompilation), so repeated runs of the same circuit skip compilation
//! entirely.
//!
//! # Examples
//!
//! ```
//! use parsim_compile::{execute_full, CompiledBlock, GateSlices};
//! use parsim_logic::Bit;
//! use parsim_netlist::bench;
//!
//! let c = bench::c17();
//! let block = CompiledBlock::compile(&c);
//! assert_eq!(block.ops().len(), 6); // six NANDs, sources are not compiled
//!
//! let values = vec![Bit::Zero; c.len()];
//! let mut q = values.clone();
//! let mut prev_clk = values.clone();
//! let mut last_driven = values.clone();
//! let mut outputs = Vec::new();
//! execute_full(
//!     &block,
//!     &values,
//!     GateSlices { q: &mut q, prev_clk: &mut prev_clk, last_driven: &mut last_driven },
//!     &mut |gate, v, _delay| outputs.push((gate, v)),
//! );
//! // All-zero inputs drive every NAND output high.
//! assert_eq!(outputs.len(), 6);
//! assert!(outputs.iter().all(|&(_, v)| v == Bit::One));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod cache;
mod exec;

pub use block::{compile_blocks, CompiledBlock, Op, NO_OP, NO_SEQ_SLOT};
pub use cache::{
    deserialize_blocks, serialize_blocks, ArtifactStore, CacheOutcome, FORMAT_VERSION,
};
pub use exec::{execute_full, execute_sparse, GateSlices};
