//! Four-valued logic (`0`, `1`, `X`, `Z`).

use std::fmt::{self, Display};
use std::ops::{BitAnd, BitOr, BitXor, Not};

use crate::value::{LogicValue, ParseLogicError};

/// A four-valued signal: `0`, `1`, unknown `X`, high-impedance `Z`.
///
/// This is the workhorse value system of gate-level simulators: the `X` state
/// models unknown or uninitialized signals (the paper's §II notes that "many
/// switch-level simulators add an X state to represent unknown or floating
/// signals") and `Z` models undriven tri-state nets.
///
/// Gate inputs treat `Z` like `X` (a floating input is an unknown level);
/// the [`resolve`](LogicValue::resolve) bus function treats `Z` as *absence*
/// of a driver instead.
///
/// The operators are constant truth tables, not control flow: `and`, `or`,
/// `xor` and `resolve` read `AND_TABLE`, `OR_TABLE`, `XOR_TABLE` and
/// `RESOLUTION` at `(a << 2) | b`, and `not` reads `NOT_TABLE` at `a`, so an
/// evaluation costs no data-dependent branch. The index of a value is its
/// discriminant, and the declaration order `Zero, One, X, Z` fixes it (0 to
/// 3); the `Z`-reads-as-`X` rule of gate inputs lives in the tables' `Z`
/// rows and columns.
///
/// # Examples
///
/// ```
/// use parsim_logic::{Logic4, LogicValue};
///
/// // A tri-stated driver loses to a real driver on a bus...
/// assert_eq!(Logic4::Z.resolve(Logic4::One), Logic4::One);
/// // ...but two conflicting strong drivers produce X.
/// assert_eq!(Logic4::Zero.resolve(Logic4::One), Logic4::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Logic4 {
    /// Logic low.
    #[default]
    Zero,
    /// Logic high.
    One,
    /// Unknown level.
    X,
    /// High impedance (undriven).
    Z,
}

/// Truth-table index of the pair `(a, b)`: `a`'s discriminant in the high
/// two bits, `b`'s in the low two.
fn cell(a: Logic4, b: Logic4) -> usize {
    ((a as usize) << 2) | b as usize
}

/// Kleene AND with `Z` read as `X`, indexed by [`cell`].
const AND_TABLE: [Logic4; 16] = {
    use Logic4::{One as I, Zero as O, X};
    [
        // 0  1  X  Z
        O, O, O, O, // 0
        O, I, X, X, // 1
        O, X, X, X, // X
        O, X, X, X, // Z
    ]
};

/// Kleene OR with `Z` read as `X`, indexed by [`cell`].
const OR_TABLE: [Logic4; 16] = {
    use Logic4::{One as I, Zero as O, X};
    [
        // 0  1  X  Z
        O, I, X, X, // 0
        I, I, I, I, // 1
        X, I, X, X, // X
        X, I, X, X, // Z
    ]
};

/// XOR: definite only when both operands are definite, indexed by [`cell`].
const XOR_TABLE: [Logic4; 16] = {
    use Logic4::{One as I, Zero as O, X};
    [
        // 0  1  X  Z
        O, I, X, X, // 0
        I, O, X, X, // 1
        X, X, X, X, // X
        X, X, X, X, // Z
    ]
};

/// Kleene NOT with `Z` read as `X`, indexed by the operand's discriminant.
const NOT_TABLE: [Logic4; 4] = [Logic4::One, Logic4::Zero, Logic4::X, Logic4::X];

/// Bus resolution: `Z` is the identity, equal drivers agree, and any other
/// pair conflicts to `X`. Indexed by [`cell`].
const RESOLUTION: [Logic4; 16] = {
    use Logic4::{One as I, Zero as O, X, Z};
    [
        // 0  1  X  Z
        O, X, X, O, // 0
        X, I, X, I, // 1
        X, X, X, X, // X
        O, I, X, Z, // Z
    ]
};

impl LogicValue for Logic4 {
    const SYSTEM_NAME: &'static str = "Logic4";
    const ZERO: Self = Logic4::Zero;
    const ONE: Self = Logic4::One;
    const UNKNOWN: Self = Logic4::X;
    const HIGH_Z: Self = Logic4::Z;

    fn to_bool(self) -> Option<bool> {
        match self {
            Logic4::Zero => Some(false),
            Logic4::One => Some(true),
            Logic4::X | Logic4::Z => None,
        }
    }

    fn and(self, other: Self) -> Self {
        AND_TABLE[cell(self, other)]
    }

    fn or(self, other: Self) -> Self {
        OR_TABLE[cell(self, other)]
    }

    fn not(self) -> Self {
        NOT_TABLE[self as usize]
    }

    fn xor(self, other: Self) -> Self {
        XOR_TABLE[cell(self, other)]
    }

    fn resolve(self, other: Self) -> Self {
        RESOLUTION[cell(self, other)]
    }

    fn to_char(self) -> char {
        match self {
            Logic4::Zero => '0',
            Logic4::One => '1',
            Logic4::X => 'X',
            Logic4::Z => 'Z',
        }
    }

    fn from_char(ch: char) -> Result<Self, ParseLogicError> {
        match ch.to_ascii_uppercase() {
            '0' => Ok(Logic4::Zero),
            '1' => Ok(Logic4::One),
            'X' => Ok(Logic4::X),
            'Z' => Ok(Logic4::Z),
            _ => Err(ParseLogicError { ch, system: Self::SYSTEM_NAME }),
        }
    }

    fn all() -> &'static [Self] {
        &[Logic4::Zero, Logic4::One, Logic4::X, Logic4::Z]
    }
}

impl Display for Logic4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl From<bool> for Logic4 {
    fn from(b: bool) -> Self {
        Logic4::from_bool(b)
    }
}

impl From<crate::Bit> for Logic4 {
    fn from(b: crate::Bit) -> Self {
        Logic4::from_bool(b.as_bool())
    }
}

impl BitAnd for Logic4 {
    type Output = Logic4;
    fn bitand(self, rhs: Logic4) -> Logic4 {
        LogicValue::and(self, rhs)
    }
}

impl BitOr for Logic4 {
    type Output = Logic4;
    fn bitor(self, rhs: Logic4) -> Logic4 {
        LogicValue::or(self, rhs)
    }
}

impl BitXor for Logic4 {
    type Output = Logic4;
    fn bitxor(self, rhs: Logic4) -> Logic4 {
        LogicValue::xor(self, rhs)
    }
}

impl Not for Logic4 {
    type Output = Logic4;
    fn not(self) -> Logic4 {
        LogicValue::not(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference derivations the tables are checked against, written from
    /// Kleene's strong logic rather than from the tables: gate inputs read
    /// `Z` as `X`, and resolution treats `Z` as no driver at all.
    fn input_level(v: Logic4) -> Logic4 {
        if v == Logic4::Z {
            Logic4::X
        } else {
            v
        }
    }

    fn kleene_and(a: Logic4, b: Logic4) -> Logic4 {
        match (input_level(a), input_level(b)) {
            (Logic4::Zero, _) | (_, Logic4::Zero) => Logic4::Zero,
            (Logic4::One, Logic4::One) => Logic4::One,
            _ => Logic4::X,
        }
    }

    fn kleene_or(a: Logic4, b: Logic4) -> Logic4 {
        match (input_level(a), input_level(b)) {
            (Logic4::One, _) | (_, Logic4::One) => Logic4::One,
            (Logic4::Zero, Logic4::Zero) => Logic4::Zero,
            _ => Logic4::X,
        }
    }

    fn kleene_not(a: Logic4) -> Logic4 {
        match input_level(a) {
            Logic4::Zero => Logic4::One,
            Logic4::One => Logic4::Zero,
            _ => Logic4::X,
        }
    }

    fn kleene_xor(a: Logic4, b: Logic4) -> Logic4 {
        match (a.to_bool(), b.to_bool()) {
            (Some(a), Some(b)) => Logic4::from_bool(a != b),
            _ => Logic4::X,
        }
    }

    fn kleene_resolve(a: Logic4, b: Logic4) -> Logic4 {
        match (a, b) {
            (Logic4::Z, v) | (v, Logic4::Z) => v,
            (a, b) if a == b => a,
            _ => Logic4::X,
        }
    }

    #[test]
    fn tables_match_kleene_derivation() {
        for &a in Logic4::all() {
            assert_eq!(!a, kleene_not(a), "NOT {a}");
            for &b in Logic4::all() {
                assert_eq!(a & b, kleene_and(a, b), "{a} AND {b}");
                assert_eq!(a | b, kleene_or(a, b), "{a} OR {b}");
                assert_eq!(a ^ b, kleene_xor(a, b), "{a} XOR {b}");
                assert_eq!(a.resolve(b), kleene_resolve(a, b), "resolve({a},{b})");
            }
        }
    }

    #[test]
    fn controlling_values_dominate_unknowns() {
        for &u in &[Logic4::X, Logic4::Z] {
            assert_eq!(Logic4::Zero & u, Logic4::Zero);
            assert_eq!(u & Logic4::Zero, Logic4::Zero);
            assert_eq!(Logic4::One | u, Logic4::One);
            assert_eq!(u | Logic4::One, Logic4::One);
        }
    }

    #[test]
    fn non_controlling_unknown_propagates() {
        assert_eq!(Logic4::One & Logic4::X, Logic4::X);
        assert_eq!(Logic4::Zero | Logic4::X, Logic4::X);
        assert_eq!(Logic4::One ^ Logic4::X, Logic4::X);
        assert_eq!(!Logic4::X, Logic4::X);
        assert_eq!(!Logic4::Z, Logic4::X);
    }

    #[test]
    fn boolean_subset_matches_bit() {
        use crate::Bit;
        for &a in Bit::all() {
            for &b in Bit::all() {
                let (la, lb) = (Logic4::from(a), Logic4::from(b));
                assert_eq!(la & lb, Logic4::from(a & b));
                assert_eq!(la | lb, Logic4::from(a | b));
                assert_eq!(la ^ lb, Logic4::from(a ^ b));
            }
        }
    }

    #[test]
    fn resolution_table() {
        assert_eq!(Logic4::Z.resolve(Logic4::Z), Logic4::Z);
        assert_eq!(Logic4::Z.resolve(Logic4::Zero), Logic4::Zero);
        assert_eq!(Logic4::One.resolve(Logic4::Z), Logic4::One);
        assert_eq!(Logic4::One.resolve(Logic4::One), Logic4::One);
        assert_eq!(Logic4::One.resolve(Logic4::Zero), Logic4::X);
        assert_eq!(Logic4::X.resolve(Logic4::One), Logic4::X);
    }

    #[test]
    fn resolution_is_commutative_and_associative() {
        for &a in Logic4::all() {
            for &b in Logic4::all() {
                assert_eq!(a.resolve(b), b.resolve(a));
                for &c in Logic4::all() {
                    assert_eq!(a.resolve(b).resolve(c), a.resolve(b.resolve(c)));
                }
            }
        }
    }

    #[test]
    fn char_round_trip_case_insensitive() {
        for &v in Logic4::all() {
            assert_eq!(Logic4::from_char(v.to_char()).unwrap(), v);
        }
        assert_eq!(Logic4::from_char('x').unwrap(), Logic4::X);
        assert_eq!(Logic4::from_char('z').unwrap(), Logic4::Z);
        assert!(Logic4::from_char('U').is_err());
    }

    #[test]
    fn and_or_commutative() {
        for &a in Logic4::all() {
            for &b in Logic4::all() {
                assert_eq!(a & b, b & a);
                assert_eq!(a | b, b | a);
                assert_eq!(a ^ b, b ^ a);
            }
        }
    }

    #[test]
    fn de_morgan_holds() {
        for &a in Logic4::all() {
            for &b in Logic4::all() {
                assert_eq!(!(a & b), !a | !b);
                assert_eq!(!(a | b), !a & !b);
            }
        }
    }
}
