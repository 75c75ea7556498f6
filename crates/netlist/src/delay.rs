//! Gate propagation delays and delay-assignment models.

use std::fmt::{self, Display};
use std::ops::{Add, AddAssign};

use parsim_logic::GateKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A gate propagation delay, in simulator ticks.
///
/// The tick is the *timing granularity* of the simulation — the paper's §II
/// lists it first among the five performance factors ("the resolution of
/// simulated time"). Coarse granularity (all delays equal) maximizes event
/// simultaneity and favours synchronous algorithms; fine granularity
/// (heterogeneous delays spread over a large range) favours asynchronous
/// ones. A delay of zero is legal and models ideal (delta-delay) gates.
///
/// # Examples
///
/// ```
/// use parsim_netlist::Delay;
///
/// let d = Delay::new(3) + Delay::new(4);
/// assert_eq!(d.ticks(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Delay(u64);

impl Delay {
    /// Unit delay (one tick).
    pub const UNIT: Delay = Delay(1);
    /// Zero (delta) delay.
    pub const ZERO: Delay = Delay(0);

    /// Creates a delay of `ticks` simulator ticks.
    pub const fn new(ticks: u64) -> Self {
        Delay(ticks)
    }

    /// The delay in ticks.
    pub const fn ticks(self) -> u64 {
        self.0
    }
}

impl Display for Delay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl Add for Delay {
    type Output = Delay;
    fn add(self, rhs: Delay) -> Delay {
        Delay(self.0 + rhs.0)
    }
}

impl AddAssign for Delay {
    fn add_assign(&mut self, rhs: Delay) {
        self.0 += rhs.0;
    }
}

impl From<u64> for Delay {
    fn from(ticks: u64) -> Self {
        Delay(ticks)
    }
}

/// A policy assigning propagation delays to gates.
///
/// Generators and parsers take a `DelayModel` so the same topology can be
/// instantiated at different timing granularities (experiment E3).
///
/// # Examples
///
/// ```
/// use parsim_logic::GateKind;
/// use parsim_netlist::{Delay, DelayModel};
///
/// let unit = DelayModel::Unit;
/// assert_eq!(unit.delay_for(GateKind::Nand, 7), Delay::UNIT);
///
/// let spread = DelayModel::Uniform { min: 1, max: 100, seed: 42 };
/// let d = spread.delay_for(GateKind::Nand, 7);
/// assert!((1..=100).contains(&d.ticks()));
/// // Deterministic per (kind, index):
/// assert_eq!(d, spread.delay_for(GateKind::Nand, 7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DelayModel {
    /// Every gate has unit delay (coarse timing granularity).
    #[default]
    Unit,
    /// Every gate has the same fixed delay.
    Fixed(Delay),
    /// Delay depends on the gate kind: inverters and buffers are fast,
    /// wide/complex gates slower. Uses a small built-in technology table.
    PerKind,
    /// Uniformly random delay in `min..=max` ticks, derived deterministically
    /// from `seed` and the gate's index (fine timing granularity).
    Uniform {
        /// Smallest delay, in ticks (must be ≥ 1 to keep causality useful).
        min: u64,
        /// Largest delay, in ticks.
        max: u64,
        /// Seed making the assignment reproducible.
        seed: u64,
    },
}

impl DelayModel {
    /// The delay assigned to the gate with arena index `index` and kind
    /// `kind`.
    ///
    /// The result is a pure function of `(self, kind, index)`, so re-running
    /// a generator reproduces the identical circuit.
    ///
    /// # Panics
    ///
    /// Panics if a [`DelayModel::Uniform`] model has `min > max`.
    pub fn delay_for(self, kind: GateKind, index: usize) -> Delay {
        match self {
            DelayModel::Unit => Delay::UNIT,
            DelayModel::Fixed(d) => d,
            DelayModel::PerKind => Delay::new(match kind {
                GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0,
                GateKind::Buf | GateKind::Not => 1,
                GateKind::Nand | GateKind::Nor => 2,
                GateKind::And | GateKind::Or => 3,
                GateKind::Xor | GateKind::Xnor | GateKind::Mux2 => 4,
                GateKind::Tribuf => 2,
                GateKind::Bus => 1,
                GateKind::Dff | GateKind::Latch => 5,
            }),
            DelayModel::Uniform { min, max, seed } => {
                assert!(min <= max, "DelayModel::Uniform requires min <= max");
                // Source gates keep zero delay so stimulus lands on time.
                if kind.is_source() {
                    return Delay::ZERO;
                }
                let mut rng = StdRng::seed_from_u64(
                    seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                Delay::new(rng.random_range(min..=max))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_and_fixed() {
        assert_eq!(DelayModel::Unit.delay_for(GateKind::And, 0), Delay::UNIT);
        let m = DelayModel::Fixed(Delay::new(9));
        assert_eq!(m.delay_for(GateKind::Xor, 5), Delay::new(9));
    }

    #[test]
    fn per_kind_orders_complexity() {
        let m = DelayModel::PerKind;
        let inv = m.delay_for(GateKind::Not, 0);
        let nand = m.delay_for(GateKind::Nand, 0);
        let xor = m.delay_for(GateKind::Xor, 0);
        assert!(inv < nand && nand < xor);
    }

    #[test]
    fn uniform_is_deterministic_and_bounded() {
        let m = DelayModel::Uniform { min: 2, max: 50, seed: 7 };
        for i in 0..200 {
            let d = m.delay_for(GateKind::Nand, i);
            assert_eq!(d, m.delay_for(GateKind::Nand, i));
            assert!((2..=50).contains(&d.ticks()));
        }
        // Different indices should not all collide.
        let distinct: std::collections::HashSet<_> =
            (0..200).map(|i| m.delay_for(GateKind::Nand, i)).collect();
        assert!(distinct.len() > 10);
    }

    #[test]
    fn uniform_sources_have_zero_delay() {
        let m = DelayModel::Uniform { min: 5, max: 9, seed: 1 };
        assert_eq!(m.delay_for(GateKind::Input, 3), Delay::ZERO);
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn uniform_rejects_inverted_range() {
        DelayModel::Uniform { min: 5, max: 1, seed: 0 }.delay_for(GateKind::And, 0);
    }

    #[test]
    fn arithmetic() {
        let mut d = Delay::new(1);
        d += Delay::new(2);
        assert_eq!(d, Delay::new(3));
        assert_eq!(Delay::from(4u64).ticks(), 4);
        assert_eq!(Delay::new(5).to_string(), "5t");
    }
}
