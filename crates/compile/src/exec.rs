//! Dispatch-free executors over compiled blocks.
//!
//! Both executors group the work into same-kind runs and match on the
//! kind **once per run**; the per-gate inner loops are straight-line
//! reads of the flat fanin array with no dispatch. Semantics are
//! bit-identical to the interpreted `evaluate_gate` walk: the same
//! evaluation functions, the same `last_driven` output-change filter, the
//! same sequential state updates.

use parsim_logic::{eval_dff, eval_latch, GateKind, LogicValue};
use parsim_netlist::GateId;

use crate::block::{CompiledBlock, Op};

/// Mutable views of the circuit-indexed per-gate state arrays (the
/// struct-of-arrays `GateRuntime` decomposition every kernel keeps):
/// stored sequential value, previous clock/enable level, and the last
/// value driven onto the output net.
#[derive(Debug)]
pub struct GateSlices<'a, V> {
    /// Stored sequential value per gate.
    pub q: &'a mut [V],
    /// Clock/enable level at the previous evaluation, per gate.
    pub prev_clk: &'a mut [V],
    /// Last value scheduled on the output net, per gate.
    pub last_driven: &'a mut [V],
}

/// Evaluates every op of `block` against `values`, in schedule order
/// (sequential section, then the combinational one). For each gate whose
/// new output differs from its `last_driven` value, calls
/// `emit(gate, value, delay)` — "schedule `value` on the gate's net at
/// `now + delay`".
///
/// This is the oblivious backend: no dirty set, no event queue, one
/// dispatch per precompiled kind run.
pub fn execute_full<V: LogicValue, F: FnMut(GateId, V, u32)>(
    block: &CompiledBlock,
    values: &[V],
    mut state: GateSlices<'_, V>,
    emit: &mut F,
) {
    for (kind, range) in block.runs() {
        exec_run(block, *kind, block.ops()[range.clone()].iter(), values, &mut state, emit);
    }
}

/// Evaluates exactly the gates of `dirty` (a deduplicated once-per-
/// timestamp batch; ascending order recommended for determinism-by-
/// construction, though results are order-independent), dispatching once
/// per consecutive same-kind run.
///
/// This is the event-driven backend, and the one evaluator under every
/// fabric kernel's LPs (`LpCore::evaluate_batch`). `dirty` must contain
/// only gates owned by `block`.
///
/// # Panics
///
/// Panics if a dirty gate has no op in `block` (not owned, or a source).
pub fn execute_sparse<V: LogicValue, F: FnMut(GateId, V, u32)>(
    block: &CompiledBlock,
    dirty: &[GateId],
    values: &[V],
    mut state: GateSlices<'_, V>,
    emit: &mut F,
) {
    let op_at = |id: GateId| -> &Op {
        block.op_of(id).expect("dirty gate must be compiled into the block")
    };
    let mut i = 0;
    while i < dirty.len() {
        let kind = op_at(dirty[i]).kind;
        let mut j = i + 1;
        while j < dirty.len() && op_at(dirty[j]).kind == kind {
            j += 1;
        }
        exec_run(block, kind, dirty[i..j].iter().map(|&id| op_at(id)), values, &mut state, emit);
        i = j;
    }
}

/// One same-kind run: match once, then a tight per-gate loop.
#[inline]
fn exec_run<'b, V, F, I>(
    block: &'b CompiledBlock,
    kind: GateKind,
    ops: I,
    values: &[V],
    state: &mut GateSlices<'_, V>,
    emit: &mut F,
) where
    V: LogicValue,
    F: FnMut(GateId, V, u32),
    I: Iterator<Item = &'b Op>,
{
    // The output-change filter shared by every arm (the event-driven
    // suppression rule of `evaluate_gate`).
    macro_rules! comb_run {
        (|$ins:ident| $new:expr) => {
            for op in ops {
                let $ins = block.fanin(op);
                let new = $new;
                let gi = op.gate.index();
                if new != state.last_driven[gi] {
                    state.last_driven[gi] = new;
                    emit(op.gate, new, op.delay);
                }
            }
        };
    }
    let at = |id: GateId| values[id.index()];
    match kind {
        GateKind::Buf => comb_run!(|ins| at(ins[0])),
        GateKind::Not => comb_run!(|ins| at(ins[0]).not()),
        GateKind::And => comb_run!(|ins| fold(values, ins, V::ONE, V::and)),
        GateKind::Nand => comb_run!(|ins| fold(values, ins, V::ONE, V::and).not()),
        GateKind::Or => comb_run!(|ins| fold(values, ins, V::ZERO, V::or)),
        GateKind::Nor => comb_run!(|ins| fold(values, ins, V::ZERO, V::or).not()),
        // Xor reduces without an initial element, like `eval_combinational`.
        GateKind::Xor => {
            comb_run!(|ins| ins.iter().map(|&f| at(f)).reduce(V::xor).unwrap_or(V::ZERO));
        }
        GateKind::Xnor => {
            comb_run!(|ins| ins.iter().map(|&f| at(f)).reduce(V::xor).unwrap_or(V::ZERO).not());
        }
        GateKind::Mux2 => comb_run!(|ins| {
            let (sel, a, b) = (at(ins[0]), at(ins[1]), at(ins[2]));
            match sel.to_bool() {
                Some(false) => a,
                Some(true) => b,
                None => {
                    if a == b {
                        a
                    } else {
                        V::UNKNOWN
                    }
                }
            }
        }),
        GateKind::Tribuf => comb_run!(|ins| {
            let (enable, data) = (at(ins[0]), at(ins[1]));
            match enable.to_bool() {
                Some(true) => data,
                Some(false) => V::HIGH_Z,
                None => V::UNKNOWN,
            }
        }),
        GateKind::Bus => comb_run!(|ins| fold(values, ins, V::HIGH_Z, V::resolve)),
        GateKind::Dff => {
            for op in ops {
                let ins = block.fanin(op);
                let (clk, d) = (at(ins[0]), at(ins[1]));
                let gi = op.gate.index();
                let up = eval_dff(state.prev_clk[gi], clk, d, state.q[gi]);
                state.prev_clk[gi] = clk;
                state.q[gi] = up.q;
                if up.q != state.last_driven[gi] {
                    state.last_driven[gi] = up.q;
                    emit(op.gate, up.q, op.delay);
                }
            }
        }
        GateKind::Latch => {
            for op in ops {
                let ins = block.fanin(op);
                let (en, d) = (at(ins[0]), at(ins[1]));
                let gi = op.gate.index();
                let up = eval_latch(en, d, state.q[gi]);
                state.prev_clk[gi] = en;
                state.q[gi] = up.q;
                if up.q != state.last_driven[gi] {
                    state.last_driven[gi] = up.q;
                    emit(op.gate, up.q, op.delay);
                }
            }
        }
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => {
            unreachable!("sources are never compiled")
        }
    }
}

#[inline]
fn fold<V: LogicValue>(values: &[V], fanin: &[GateId], init: V, f: fn(V, V) -> V) -> V {
    fanin.iter().fold(init, |acc, &g| f(acc, values[g.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::{Bit, Logic4};
    use parsim_netlist::{bench, generate, Circuit, DelayModel};

    /// Reference: the interpreted per-gate walk, reimplemented here from
    /// the shared evaluation functions (`parsim-core` depends on this
    /// crate, so the test reproduces its `evaluate_gate` contract
    /// directly).
    fn interpret_gate<V: LogicValue>(
        c: &Circuit,
        id: GateId,
        values: &[V],
        st: &mut GateSlices<'_, V>,
    ) -> Option<V> {
        use parsim_logic::eval_combinational;
        let gi = id.index();
        let kind = c.kind(id);
        let inputs: Vec<V> = c.fanin(id).iter().map(|&f| values[f.index()]).collect();
        let new = match kind {
            k if k.is_source() => return None,
            GateKind::Dff => {
                let up = eval_dff(st.prev_clk[gi], inputs[0], inputs[1], st.q[gi]);
                st.prev_clk[gi] = inputs[0];
                st.q[gi] = up.q;
                up.q
            }
            GateKind::Latch => {
                let up = eval_latch(inputs[0], inputs[1], st.q[gi]);
                st.prev_clk[gi] = inputs[0];
                st.q[gi] = up.q;
                up.q
            }
            k => eval_combinational(k, &inputs),
        };
        if new != st.last_driven[gi] {
            st.last_driven[gi] = new;
            Some(new)
        } else {
            None
        }
    }

    fn random_values<V: LogicValue>(n: usize, seed: u64) -> Vec<V> {
        let all = V::all();
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                all[(x as usize) % all.len()]
            })
            .collect()
    }

    fn full_matches_interpreter<V: LogicValue>(c: &Circuit, seed: u64) {
        let block = CompiledBlock::compile(c);
        let n = c.len();
        let values = random_values::<V>(n, seed);
        let mut a = (
            random_values::<V>(n, seed + 1),
            random_values::<V>(n, seed + 2),
            random_values::<V>(n, seed + 3),
        );
        let mut b = a.clone();

        let mut compiled: Vec<(GateId, V, u32)> = Vec::new();
        execute_full(
            &block,
            &values,
            GateSlices { q: &mut a.0, prev_clk: &mut a.1, last_driven: &mut a.2 },
            &mut |g, v, d| compiled.push((g, v, d)),
        );

        let mut interpreted: Vec<(GateId, V, u32)> = Vec::new();
        let mut st = GateSlices { q: &mut b.0, prev_clk: &mut b.1, last_driven: &mut b.2 };
        for id in c.ids() {
            if let Some(v) = interpret_gate(c, id, &values, &mut st) {
                interpreted.push((id, v, c.delay(id).ticks() as u32));
            }
        }

        compiled.sort_unstable_by_key(|&(g, _, _)| g);
        interpreted.sort_unstable_by_key(|&(g, _, _)| g);
        assert_eq!(compiled, interpreted, "{} seed {seed}", c.name());
        assert_eq!(a, b, "state arrays diverged on {} seed {seed}", c.name());
    }

    #[test]
    fn full_execution_matches_interpreted_walk() {
        for seed in 0..8 {
            full_matches_interpreter::<Bit>(&bench::c17(), seed);
            full_matches_interpreter::<Logic4>(&bench::c17(), seed);
            let c = generate::random_dag(&generate::RandomDagConfig {
                gates: 180,
                seq_fraction: 0.2,
                delays: DelayModel::Uniform { min: 1, max: 7, seed },
                seed,
                ..Default::default()
            });
            full_matches_interpreter::<Logic4>(&c, seed);
        }
    }

    #[test]
    fn sparse_execution_matches_interpreted_walk_on_subsets() {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 160,
            seq_fraction: 0.25,
            seed: 5,
            ..Default::default()
        });
        let block = CompiledBlock::compile(&c);
        let n = c.len();
        for seed in 0..8u64 {
            let values = random_values::<Logic4>(n, seed * 31 + 7);
            let mut a =
                (vec![Logic4::Zero; n], vec![Logic4::Zero; n], random_values::<Logic4>(n, seed));
            let mut b = a.clone();
            // An arbitrary dirty subset, ascending (sources excluded).
            let dirty: Vec<GateId> = c
                .ids()
                .filter(|id| {
                    !c.kind(*id).is_source() && !(id.index() as u64 + seed).is_multiple_of(3)
                })
                .collect();

            let mut compiled = Vec::new();
            execute_sparse(
                &block,
                &dirty,
                &values,
                GateSlices { q: &mut a.0, prev_clk: &mut a.1, last_driven: &mut a.2 },
                &mut |g, v, d| compiled.push((g, v, d)),
            );

            let mut interpreted = Vec::new();
            let mut st = GateSlices { q: &mut b.0, prev_clk: &mut b.1, last_driven: &mut b.2 };
            for &id in &dirty {
                if let Some(v) = interpret_gate(&c, id, &values, &mut st) {
                    interpreted.push((id, v, c.delay(id).ticks() as u32));
                }
            }

            compiled.sort_unstable_by_key(|&(g, _, _)| g);
            interpreted.sort_unstable_by_key(|&(g, _, _)| g);
            assert_eq!(compiled, interpreted, "seed {seed}");
            assert_eq!(a, b, "state arrays diverged, seed {seed}");
        }
    }
}
