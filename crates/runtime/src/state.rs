//! Flat, cache-friendly per-LP gate state.
//!
//! Every parallel kernel needs the same four things per logical process: a
//! local view of net values, the per-gate sequential state
//! ([`GateRuntime`]), waveforms for observed nets, and once-per-timestamp
//! dirty marking. Before the fabric existed each kernel kept its own copy
//! (`BTreeMap<GateId, GateRuntime>` and ad-hoc stamp vectors); [`LpCore`]
//! centralizes them with the gate state in struct-of-arrays layout
//! ([`GateStateSoa`]) — three flat value arrays instead of a pointer-chasing
//! map, indexed directly by gate id. It also holds the one gate evaluator
//! below the fabric: [`LpCore::evaluate_batch`] runs a dirty batch through
//! the LP's compiled bytecode.

use std::collections::BTreeMap;

use parsim_core::{GateRuntime, LpTopology, WaveRecorder, Waveform};
use parsim_event::{Event, VirtualTime};
use parsim_logic::LogicValue;
use parsim_netlist::{Circuit, GateId};

/// Struct-of-arrays storage for [`GateRuntime`]: one flat array per field,
/// indexed by gate id.
#[derive(Debug, Clone)]
pub struct GateStateSoa<V> {
    q: Vec<V>,
    prev_clk: Vec<V>,
    last_driven: Vec<V>,
}

impl<V: LogicValue> GateStateSoa<V> {
    /// All-zero state for `len` gates.
    pub fn new(len: usize) -> Self {
        GateStateSoa {
            q: vec![V::ZERO; len],
            prev_clk: vec![V::ZERO; len],
            last_driven: vec![V::ZERO; len],
        }
    }

    /// Gathers gate `id`'s state into the [`GateRuntime`] view.
    #[inline]
    pub fn load(&self, id: GateId) -> GateRuntime<V> {
        let i = id.index();
        GateRuntime { q: self.q[i], prev_clk: self.prev_clk[i], last_driven: self.last_driven[i] }
    }

    /// Scatters a [`GateRuntime`] view back into the arrays.
    #[inline]
    pub fn store(&mut self, id: GateId, rt: GateRuntime<V>) {
        let i = id.index();
        self.q[i] = rt.q;
        self.prev_clk[i] = rt.prev_clk;
        self.last_driven[i] = rt.last_driven;
    }

    /// Mutable views of the three state arrays, in the shape the compiled
    /// executors consume.
    #[inline]
    pub fn slices_mut(&mut self) -> parsim_compile::GateSlices<'_, V> {
        parsim_compile::GateSlices {
            q: &mut self.q,
            prev_clk: &mut self.prev_clk,
            last_driven: &mut self.last_driven,
        }
    }
}

/// The kernel-independent state of one logical process: local net values,
/// SoA gate state, observed waveforms, and the once-per-timestamp dirty
/// set. Protocol layers (event queues, channel clocks, rollback history)
/// stay in the kernels; this is the part they all share.
#[derive(Debug)]
pub struct LpCore<V> {
    values: Vec<V>,
    soa: GateStateSoa<V>,
    waveforms: WaveRecorder<Waveform<V>>,
    dirty: Vec<GateId>,
    stamp: Vec<u64>,
    stamp_counter: u64,
}

impl<V: LogicValue> LpCore<V> {
    /// Zero-initialized state sized for `circuit`, recording waveforms for
    /// the `observed` nets (pass the LP's owned ∩ observed set).
    pub fn new(circuit: &Circuit, observed: impl Iterator<Item = GateId>) -> Self {
        let n = circuit.len();
        LpCore {
            values: vec![V::ZERO; n],
            soa: GateStateSoa::new(n),
            waveforms: WaveRecorder::new(n, observed, Waveform::new(V::ZERO)),
            dirty: Vec::new(),
            stamp: vec![u64::MAX; n],
            stamp_counter: 0,
        }
    }

    /// The local view of the net driven by `id`.
    #[inline]
    pub fn value(&self, id: GateId) -> V {
        self.values[id.index()]
    }

    /// Writes a net value without touching waveforms (rollback restore).
    #[inline]
    pub fn set_value_raw(&mut self, id: GateId, v: V) {
        self.values[id.index()] = v;
    }

    /// Applies an event at `now`: returns `Some(previous value)` if the net
    /// changed (recording the waveform if observed), `None` if the event
    /// was a no-op.
    #[inline]
    pub fn apply_event(&mut self, now: VirtualTime, e: &Event<V>) -> Option<V> {
        let old = self.values[e.net.index()];
        if old == e.value {
            return None;
        }
        self.values[e.net.index()] = e.value;
        if let Some(w) = self.waveforms.get_mut(e.net) {
            w.record(now, e.value);
        }
        Some(old)
    }

    /// Gate `id`'s sequential state.
    #[inline]
    pub fn runtime(&self, id: GateId) -> GateRuntime<V> {
        self.soa.load(id)
    }

    /// Overwrites gate `id`'s sequential state (rollback restore).
    #[inline]
    pub fn set_runtime(&mut self, id: GateId, rt: GateRuntime<V>) {
        self.soa.store(id, rt);
    }

    /// Evaluates exactly the gates of `dirty` through `block`'s compiled
    /// bytecode against the local net values, updating sequential state in
    /// place. `emit(gate, value, delay)` is called for each gate whose
    /// output changed — "schedule `value` at `now + delay`". The executor
    /// dispatches once per same-kind run, and its semantics are the
    /// workspace-wide `evaluate_gate` contract.
    #[inline]
    pub fn evaluate_batch<F: FnMut(GateId, V, u32)>(
        &mut self,
        block: &parsim_compile::CompiledBlock,
        dirty: &[GateId],
        emit: &mut F,
    ) {
        parsim_compile::execute_sparse(block, dirty, &self.values, self.soa.slices_mut(), emit);
    }

    /// Opens a new timestamp batch: subsequent [`Self::mark_dirty`] /
    /// [`Self::mark_fanout`] calls deduplicate against this batch only.
    #[inline]
    pub fn begin_batch(&mut self) {
        self.stamp_counter += 1;
        debug_assert!(self.dirty.is_empty(), "previous batch's dirty set not taken");
    }

    /// Adds `id` to the current batch's dirty set (once per batch).
    #[inline]
    pub fn mark_dirty(&mut self, id: GateId) {
        if self.stamp[id.index()] != self.stamp_counter {
            self.stamp[id.index()] = self.stamp_counter;
            self.dirty.push(id);
        }
    }

    /// Marks the fanout gates of `net` that belong to LP `lp` dirty.
    #[inline]
    pub fn mark_fanout(&mut self, circuit: &Circuit, topo: &LpTopology, lp: usize, net: GateId) {
        for entry in circuit.fanout(net) {
            if topo.lp_of(entry.gate) == lp {
                self.mark_dirty(entry.gate);
            }
        }
    }

    /// Marks every non-source gate in `owned` dirty (the initial t = 0
    /// evaluation every kernel performs).
    pub fn mark_owned_non_source(&mut self, circuit: &Circuit, owned: &[GateId]) {
        for &id in owned {
            if !circuit.kind(id).is_source() {
                self.mark_dirty(id);
            }
        }
    }

    /// Takes the batch's dirty set, sorted ascending (deterministic
    /// evaluation order). Return the vector via [`Self::recycle_dirty`] to
    /// reuse its allocation.
    #[inline]
    pub fn take_dirty_sorted(&mut self) -> Vec<GateId> {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty
    }

    /// Returns a drained dirty vector's allocation to the core.
    #[inline]
    pub fn recycle_dirty(&mut self, mut dirty: Vec<GateId>) {
        dirty.clear();
        self.dirty = dirty;
    }

    /// Waveforms of this LP's observed nets (for result collection).
    pub fn take_waveforms(&mut self) -> BTreeMap<GateId, Waveform<V>> {
        std::mem::take(&mut self.waveforms).into_map()
    }

    /// Discards every waveform sample at `t ≥ from` (rollback).
    pub fn truncate_waveforms_from(&mut self, from: VirtualTime) {
        for (_, w) in self.waveforms.iter_mut() {
            w.truncate_from(from);
        }
    }

    /// Final values of the given owned nets.
    pub fn owned_values(&self, owned: &[GateId]) -> Vec<(GateId, V)> {
        owned.iter().map(|&g| (g, self.values[g.index()])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::{Bit, GateKind};
    use parsim_netlist::{CircuitBuilder, Delay};

    fn not_chain() -> Circuit {
        let mut b = CircuitBuilder::new("chain");
        let i = b.input("in");
        let a = b.named_gate("a", GateKind::Not, [i], Delay::new(1));
        let o = b.named_gate("b", GateKind::Not, [a], Delay::new(1));
        b.output("o", o);
        b.finish().unwrap()
    }

    #[test]
    fn soa_round_trips_gate_runtime() {
        let mut soa = GateStateSoa::<Bit>::new(3);
        let rt = GateRuntime { q: Bit::ONE, prev_clk: Bit::ZERO, last_driven: Bit::ONE };
        soa.store(GateId::new(1), rt);
        assert_eq!(soa.load(GateId::new(1)), rt);
        assert_eq!(soa.load(GateId::new(0)), GateRuntime::default());
    }

    #[test]
    fn apply_event_filters_no_ops_and_records_waveforms() {
        let c = not_chain();
        let a = c.find("a").unwrap();
        let mut core = LpCore::<Bit>::new(&c, std::iter::once(a));
        let e = Event::new(VirtualTime::new(5), a, Bit::ONE);
        assert_eq!(core.apply_event(VirtualTime::new(5), &e), Some(Bit::ZERO));
        // Same value again: suppressed, no waveform sample.
        assert_eq!(core.apply_event(VirtualTime::new(6), &e), None);
        assert_eq!(core.value(a), Bit::ONE);
        let w = core.take_waveforms().remove(&a).unwrap();
        assert_eq!(w.toggle_count(), 1);
    }

    #[test]
    fn dirty_marking_dedups_within_a_batch() {
        let c = not_chain();
        let a = c.find("a").unwrap();
        let mut core = LpCore::<Bit>::new(&c, std::iter::empty());
        core.begin_batch();
        core.mark_dirty(a);
        core.mark_dirty(a);
        let d = core.take_dirty_sorted();
        assert_eq!(d.len(), 1);
        core.recycle_dirty(d);
        // A fresh batch may mark the same gate again.
        core.begin_batch();
        core.mark_dirty(a);
        assert_eq!(core.take_dirty_sorted().len(), 1);
    }
}
