//! A stable, order-independent content hash over a circuit.

use crate::{Circuit, GateId};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A tiny FNV-1a hasher: deterministic across platforms, processes and
/// compiler versions (unlike `std::hash`, whose output is explicitly not
/// stable). Used for the netlist content hash and the compiled-artifact
/// cache checksums that build on it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// A stable content hash of the netlist.
    ///
    /// Two structurally identical circuits hash identically regardless of
    /// the *iteration order* their gates are visited in: each gate record
    /// (id, kind, delay, fanin pins, name) is hashed independently and the
    /// per-gate digests are combined with commutative arithmetic
    /// (wrapping add + xor-fold), then mixed with the in-order primary
    /// input/output lists and the circuit name. Gate *identity* (its
    /// [`GateId`]) is part of each record — renumbering gates is a real
    /// structural change and hashes differently.
    ///
    /// The digest is frozen by a golden-value test: it keys the on-disk
    /// compiled-artifact cache (`parsim-compile`), so accidental changes
    /// would silently invalidate (or worse, falsely validate) cached
    /// bytecode across versions of this crate.
    pub fn netlist_hash(&self) -> u64 {
        let mut sum: u64 = 0;
        let mut xor: u64 = 0;
        for (id, g) in self.iter() {
            let mut h = Fnv1a::new();
            h.write_u64(id.index() as u64);
            // Kind via its stable mnemonic, not the enum discriminant:
            // reordering the `GateKind` declaration must not move hashes.
            h.write(g.kind().mnemonic().as_bytes());
            h.write_u64(g.delay().ticks());
            h.write_u64(g.fanin().len() as u64);
            for &f in g.fanin() {
                h.write_u64(f.index() as u64);
            }
            if let Some(name) = g.name() {
                h.write(name.as_bytes());
            }
            let d = h.finish();
            sum = sum.wrapping_add(d);
            xor ^= d.rotate_left((id.index() % 63) as u32);
        }
        let mut h = Fnv1a::new();
        h.write(self.name().as_bytes());
        h.write_u64(self.len() as u64);
        h.write_u64(sum);
        h.write_u64(xor);
        let io = |h: &mut Fnv1a, list: &[GateId]| {
            h.write_u64(list.len() as u64);
            for &g in list {
                h.write_u64(g.index() as u64);
            }
        };
        io(&mut h, self.inputs());
        io(&mut h, self.outputs());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{bench, CircuitBuilder, Delay};
    use parsim_logic::GateKind;

    /// The frozen digest of the embedded c17 benchmark. If this test
    /// fails, the hash function (or c17 itself) changed — which
    /// invalidates every on-disk compiled artifact. Bump
    /// `parsim_compile::FORMAT_VERSION` alongside any deliberate change.
    #[test]
    fn c17_golden_value() {
        assert_eq!(bench::c17().netlist_hash(), 0x0201_7cdb_4ddd_f5b5);
    }

    /// The frozen digest of a circuit holding every gate kind: each kind's
    /// mnemonic is hashed, so a changed name would move this value.
    #[test]
    fn every_kind_golden_value() {
        let mut b = CircuitBuilder::new("kinds");
        let i = b.input("i");
        let j = b.input("j");
        let zero = b.constant(false);
        let one = b.constant(true);
        let mut last = b.gate(GateKind::Buf, [i], Delay::new(1));
        for &kind in GateKind::all() {
            let fanin = match kind.min_inputs() {
                0 => continue,
                1 => vec![last, j],
                2 => vec![j, last],
                _ => vec![zero, last, one],
            };
            let fanin = &fanin[..kind.max_inputs().unwrap_or(2).min(fanin.len())];
            last = b.gate(kind, fanin.iter().copied(), Delay::new(2));
        }
        b.output("y", last);
        assert_eq!(b.finish().unwrap().netlist_hash(), 0xb3e7_b80b_3c4f_1b64);
    }

    #[test]
    fn hash_is_deterministic_across_rebuilds() {
        let a = bench::c17();
        let b = bench::c17();
        assert_eq!(a.netlist_hash(), b.netlist_hash());
    }

    fn two_gate(delay_b: u64) -> crate::Circuit {
        let mut b = CircuitBuilder::new("t");
        let i = b.input("i");
        let n = b.named_gate("n", GateKind::Not, [i], Delay::new(1));
        let o = b.named_gate("o", GateKind::Buf, [n], Delay::new(delay_b));
        b.output("y", o);
        b.finish().unwrap()
    }

    #[test]
    fn structural_changes_move_the_hash() {
        let base = two_gate(1);
        assert_ne!(base.netlist_hash(), two_gate(2).netlist_hash(), "delay change");

        let mut b = CircuitBuilder::new("t");
        let i = b.input("i");
        let n = b.named_gate("n", GateKind::Buf, [i], Delay::new(1));
        let o = b.named_gate("o", GateKind::Buf, [n], Delay::new(1));
        b.output("y", o);
        let kind_changed = b.finish().unwrap();
        assert_ne!(base.netlist_hash(), kind_changed.netlist_hash(), "kind change");

        let mut b = CircuitBuilder::new("u");
        let i = b.input("i");
        let n = b.named_gate("n", GateKind::Not, [i], Delay::new(1));
        let o = b.named_gate("o", GateKind::Buf, [n], Delay::new(1));
        b.output("y", o);
        let renamed = b.finish().unwrap();
        assert_ne!(base.netlist_hash(), renamed.netlist_hash(), "circuit name change");
    }

    #[test]
    fn fanin_pin_order_is_significant() {
        let build = |swap: bool| {
            let mut b = CircuitBuilder::new("mux");
            let s = b.input("s");
            let x = b.input("x");
            let y = b.input("y");
            let pins = if swap { [s, y, x] } else { [s, x, y] };
            let m = b.named_gate("m", GateKind::Mux2, pins, Delay::new(1));
            b.output("o", m);
            b.finish().unwrap()
        };
        assert_ne!(build(false).netlist_hash(), build(true).netlist_hash());
    }
}
