//! IEEE 1164 nine-valued logic.

use std::fmt::{self, Display};
use std::ops::{BitAnd, BitOr, BitXor, Not};

use crate::value::{LogicValue, ParseLogicError};

/// An IEEE 1164 (`STD_LOGIC_1164`) nine-valued signal.
///
/// The paper's §II cites this system as "the IEEE standard logic system for
/// VHDL simulation". The nine states combine a logic *level* with a drive
/// *strength*:
///
/// | State | Meaning |
/// |---|---|
/// | `U` | uninitialized |
/// | `X` | forcing unknown |
/// | `0` | forcing low |
/// | `1` | forcing high |
/// | `Z` | high impedance |
/// | `W` | weak unknown |
/// | `L` | weak low (pull-down) |
/// | `H` | weak high (pull-up) |
/// | `-` | don't care |
///
/// Gate evaluation and the multi-driver [`resolve`](LogicValue::resolve)
/// function *are* the standard's tables: `and`, `or`, `xor` and `resolve`
/// read the 9×9 `AND_TABLE`, `OR_TABLE`, `XOR_TABLE` and `RESOLUTION` at
/// `[a][b]`, and `not` reads the 9-entry `NOT_TABLE` at `a`, so an
/// evaluation costs no data-dependent branch. The index of a value is its
/// discriminant: the declaration order below is the standard's
/// `U X 0 1 Z W L H -`. The unit tests check every cell against a
/// derivation through [`Std9::to_ux01`] and a strength ordering.
///
/// # Examples
///
/// ```
/// use parsim_logic::{LogicValue, Std9};
///
/// // A weak pull-up loses to a forcing low on a resolved net.
/// assert_eq!(Std9::H.resolve(Std9::Zero), Std9::Zero);
/// // A pull-up drives an otherwise floating net high.
/// assert_eq!(Std9::H.resolve(Std9::Z), Std9::H);
/// // Weak levels count as their Boolean value at gate inputs.
/// assert_eq!(Std9::H.and(Std9::One), Std9::One);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Std9 {
    /// Uninitialized.
    #[default]
    U,
    /// Forcing unknown.
    X,
    /// Forcing low.
    Zero,
    /// Forcing high.
    One,
    /// High impedance.
    Z,
    /// Weak unknown.
    W,
    /// Weak low.
    L,
    /// Weak high.
    H,
    /// Don't care.
    DontCare,
}

impl Std9 {
    /// Maps to the `UX01` subset used by the standard's logic tables:
    /// weak levels keep their Boolean meaning, everything indeterminate
    /// becomes `X`, and `U` is preserved.
    pub fn to_ux01(self) -> Std9 {
        match self {
            Std9::U => Std9::U,
            Std9::Zero | Std9::L => Std9::Zero,
            Std9::One | Std9::H => Std9::One,
            _ => Std9::X,
        }
    }
}

/// The standard's `and_table`, transcribed verbatim from IEEE 1164-1993.
const AND_TABLE: [[Std9; 9]; 9] = {
    use Std9::{One as I, Zero as O, U, X};
    [
        // U  X  0  1  Z  W  L  H  -
        [U, U, O, U, U, U, O, U, U], // U
        [U, X, O, X, X, X, O, X, X], // X
        [O, O, O, O, O, O, O, O, O], // 0
        [U, X, O, I, X, X, O, I, X], // 1
        [U, X, O, X, X, X, O, X, X], // Z
        [U, X, O, X, X, X, O, X, X], // W
        [O, O, O, O, O, O, O, O, O], // L
        [U, X, O, I, X, X, O, I, X], // H
        [U, X, O, X, X, X, O, X, X], // -
    ]
};

/// The standard's `or_table`.
const OR_TABLE: [[Std9; 9]; 9] = {
    use Std9::{One as I, Zero as O, U, X};
    [
        // U  X  0  1  Z  W  L  H  -
        [U, U, U, I, U, U, U, I, U], // U
        [U, X, X, I, X, X, X, I, X], // X
        [U, X, O, I, X, X, O, I, X], // 0
        [I, I, I, I, I, I, I, I, I], // 1
        [U, X, X, I, X, X, X, I, X], // Z
        [U, X, X, I, X, X, X, I, X], // W
        [U, X, O, I, X, X, O, I, X], // L
        [I, I, I, I, I, I, I, I, I], // H
        [U, X, X, I, X, X, X, I, X], // -
    ]
};

/// The standard's `xor_table`.
const XOR_TABLE: [[Std9; 9]; 9] = {
    use Std9::{One as I, Zero as O, U, X};
    [
        // U  X  0  1  Z  W  L  H  -
        [U, U, U, U, U, U, U, U, U], // U
        [U, X, X, X, X, X, X, X, X], // X
        [U, X, O, I, X, X, O, I, X], // 0
        [U, X, I, O, X, X, I, O, X], // 1
        [U, X, X, X, X, X, X, X, X], // Z
        [U, X, X, X, X, X, X, X, X], // W
        [U, X, O, I, X, X, O, I, X], // L
        [U, X, I, O, X, X, I, O, X], // H
        [U, X, X, X, X, X, X, X, X], // -
    ]
};

/// The standard's `not_table`.
const NOT_TABLE: [Std9; 9] = {
    use Std9::{One as I, Zero as O, U, X};
    // U  X  0  1  Z  W  L  H  -
    [U, X, I, O, X, X, I, O, X]
};

/// The IEEE 1164 `resolution_table`, indexed `[a][b]` in `U X 0 1 Z W L H -`
/// order.
const RESOLUTION: [[Std9; 9]; 9] = {
    use Std9::{One as I, Zero as O, H, L, U, W, X, Z};
    [
        // U  X  0  1  Z  W  L  H  -
        [U, U, U, U, U, U, U, U, U], // U
        [U, X, X, X, X, X, X, X, X], // X
        [U, X, O, X, O, O, O, O, X], // 0
        [U, X, X, I, I, I, I, I, X], // 1
        [U, X, O, I, Z, W, L, H, X], // Z
        [U, X, O, I, W, W, W, W, X], // W
        [U, X, O, I, L, W, L, W, X], // L
        [U, X, O, I, H, W, W, H, X], // H
        [U, X, X, X, X, X, X, X, X], // -
    ]
};

impl LogicValue for Std9 {
    const SYSTEM_NAME: &'static str = "Std9";
    const ZERO: Self = Std9::Zero;
    const ONE: Self = Std9::One;
    const UNKNOWN: Self = Std9::X;
    const HIGH_Z: Self = Std9::Z;

    fn to_bool(self) -> Option<bool> {
        match self {
            Std9::Zero | Std9::L => Some(false),
            Std9::One | Std9::H => Some(true),
            _ => None,
        }
    }

    fn and(self, other: Self) -> Self {
        AND_TABLE[self as usize][other as usize]
    }

    fn or(self, other: Self) -> Self {
        OR_TABLE[self as usize][other as usize]
    }

    fn not(self) -> Self {
        NOT_TABLE[self as usize]
    }

    fn xor(self, other: Self) -> Self {
        XOR_TABLE[self as usize][other as usize]
    }

    fn resolve(self, other: Self) -> Self {
        RESOLUTION[self as usize][other as usize]
    }

    fn to_char(self) -> char {
        match self {
            Std9::U => 'U',
            Std9::X => 'X',
            Std9::Zero => '0',
            Std9::One => '1',
            Std9::Z => 'Z',
            Std9::W => 'W',
            Std9::L => 'L',
            Std9::H => 'H',
            Std9::DontCare => '-',
        }
    }

    fn from_char(ch: char) -> Result<Self, ParseLogicError> {
        match ch.to_ascii_uppercase() {
            'U' => Ok(Std9::U),
            'X' => Ok(Std9::X),
            '0' => Ok(Std9::Zero),
            '1' => Ok(Std9::One),
            'Z' => Ok(Std9::Z),
            'W' => Ok(Std9::W),
            'L' => Ok(Std9::L),
            'H' => Ok(Std9::H),
            '-' => Ok(Std9::DontCare),
            _ => Err(ParseLogicError { ch, system: Self::SYSTEM_NAME }),
        }
    }

    fn all() -> &'static [Self] {
        &[
            Std9::U,
            Std9::X,
            Std9::Zero,
            Std9::One,
            Std9::Z,
            Std9::W,
            Std9::L,
            Std9::H,
            Std9::DontCare,
        ]
    }
}

impl Display for Std9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl From<bool> for Std9 {
    fn from(b: bool) -> Self {
        Std9::from_bool(b)
    }
}

impl From<crate::Bit> for Std9 {
    fn from(b: crate::Bit) -> Self {
        Std9::from_bool(b.as_bool())
    }
}

impl From<crate::Logic4> for Std9 {
    fn from(v: crate::Logic4) -> Self {
        use crate::Logic4;
        match v {
            Logic4::Zero => Std9::Zero,
            Logic4::One => Std9::One,
            Logic4::X => Std9::X,
            Logic4::Z => Std9::Z,
        }
    }
}

impl BitAnd for Std9 {
    type Output = Std9;
    fn bitand(self, rhs: Std9) -> Std9 {
        LogicValue::and(self, rhs)
    }
}

impl BitOr for Std9 {
    type Output = Std9;
    fn bitor(self, rhs: Std9) -> Std9 {
        LogicValue::or(self, rhs)
    }
}

impl BitXor for Std9 {
    type Output = Std9;
    fn bitxor(self, rhs: Std9) -> Std9 {
        LogicValue::xor(self, rhs)
    }
}

impl Not for Std9 {
    type Output = Std9;
    fn not(self) -> Std9 {
        LogicValue::not(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference derivations the tables are checked against, written from
    /// the standard's definitions rather than from the tables: the logic
    /// operators map each operand through `to_ux01` and apply Kleene logic
    /// with `U` dominating `X`.
    fn derived_and(a: Std9, b: Std9) -> Std9 {
        match (a.to_ux01(), b.to_ux01()) {
            (Std9::Zero, _) | (_, Std9::Zero) => Std9::Zero,
            (Std9::U, _) | (_, Std9::U) => Std9::U,
            (Std9::X, _) | (_, Std9::X) => Std9::X,
            _ => Std9::One,
        }
    }

    fn derived_or(a: Std9, b: Std9) -> Std9 {
        match (a.to_ux01(), b.to_ux01()) {
            (Std9::One, _) | (_, Std9::One) => Std9::One,
            (Std9::U, _) | (_, Std9::U) => Std9::U,
            (Std9::X, _) | (_, Std9::X) => Std9::X,
            _ => Std9::Zero,
        }
    }

    fn derived_not(a: Std9) -> Std9 {
        match a.to_ux01() {
            Std9::U => Std9::U,
            Std9::Zero => Std9::One,
            Std9::One => Std9::Zero,
            _ => Std9::X,
        }
    }

    fn derived_xor(a: Std9, b: Std9) -> Std9 {
        match (a.to_ux01(), b.to_ux01()) {
            (Std9::U, _) | (_, Std9::U) => Std9::U,
            (Std9::X, _) | (_, Std9::X) => Std9::X,
            (a, b) => Std9::from_bool(a != b),
        }
    }

    /// Resolution from drive strength: `U` dominates, `-` drives like `X`,
    /// the stronger driver wins, and two different drivers of equal
    /// strength give that strength's unknown (`X` forcing, `W` weak).
    fn derived_resolve(a: Std9, b: Std9) -> Std9 {
        use std::cmp::Ordering;
        let strength = |v: Std9| match v {
            Std9::Z => 0,
            Std9::W | Std9::L | Std9::H => 1,
            _ => 2,
        };
        let drive = |v: Std9| if v == Std9::DontCare { Std9::X } else { v };
        let (a, b) = (drive(a), drive(b));
        if a == Std9::U || b == Std9::U {
            return Std9::U;
        }
        match strength(a).cmp(&strength(b)) {
            Ordering::Greater => a,
            Ordering::Less => b,
            Ordering::Equal if a == b => a,
            Ordering::Equal if strength(a) == 2 => Std9::X,
            Ordering::Equal => Std9::W,
        }
    }

    #[test]
    fn and_matches_ieee_table() {
        for &a in Std9::all() {
            for &b in Std9::all() {
                assert_eq!(a & b, derived_and(a, b), "{a} AND {b}");
            }
        }
    }

    #[test]
    fn or_matches_ieee_table() {
        for &a in Std9::all() {
            for &b in Std9::all() {
                assert_eq!(a | b, derived_or(a, b), "{a} OR {b}");
            }
        }
    }

    #[test]
    fn xor_matches_ieee_table() {
        for &a in Std9::all() {
            for &b in Std9::all() {
                assert_eq!(a ^ b, derived_xor(a, b), "{a} XOR {b}");
            }
        }
    }

    #[test]
    fn not_matches_ieee_table() {
        for &a in Std9::all() {
            assert_eq!(!a, derived_not(a), "NOT {a}");
        }
    }

    #[test]
    fn resolution_matches_strength_derivation() {
        for &a in Std9::all() {
            for &b in Std9::all() {
                assert_eq!(a.resolve(b), derived_resolve(a, b), "resolve({a},{b})");
            }
        }
    }

    #[test]
    fn resolution_is_commutative_and_associative() {
        for &a in Std9::all() {
            for &b in Std9::all() {
                assert_eq!(a.resolve(b), b.resolve(a), "resolve({a},{b})");
                for &c in Std9::all() {
                    assert_eq!(
                        a.resolve(b).resolve(c),
                        a.resolve(b.resolve(c)),
                        "resolve assoc ({a},{b},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn uninitialized_dominates_resolution() {
        for &v in Std9::all() {
            assert_eq!(Std9::U.resolve(v), Std9::U);
        }
    }

    #[test]
    fn high_z_is_resolution_identity_except_dontcare() {
        for &v in Std9::all() {
            let expect = if v == Std9::DontCare { Std9::X } else { v };
            assert_eq!(Std9::Z.resolve(v), expect, "Z resolve {v}");
        }
    }

    #[test]
    fn strength_ordering_in_resolution() {
        // forcing beats weak, weak beats high-impedance
        assert_eq!(Std9::Zero.resolve(Std9::H), Std9::Zero);
        assert_eq!(Std9::One.resolve(Std9::L), Std9::One);
        assert_eq!(Std9::L.resolve(Std9::Z), Std9::L);
        assert_eq!(Std9::L.resolve(Std9::H), Std9::W);
        assert_eq!(Std9::Zero.resolve(Std9::One), Std9::X);
    }

    #[test]
    fn weak_levels_read_as_booleans() {
        assert_eq!(Std9::L.to_bool(), Some(false));
        assert_eq!(Std9::H.to_bool(), Some(true));
        assert!(Std9::W.is_unknown());
        assert!(Std9::U.is_unknown());
        assert!(Std9::DontCare.is_unknown());
    }

    #[test]
    fn char_round_trip() {
        for &v in Std9::all() {
            assert_eq!(Std9::from_char(v.to_char()).unwrap(), v);
        }
        assert_eq!(Std9::from_char('h').unwrap(), Std9::H);
        assert!(Std9::from_char('?').is_err());
    }

    #[test]
    fn conversion_from_logic4_preserves_meaning() {
        use crate::Logic4;
        for &v in Logic4::all() {
            let s: Std9 = v.into();
            assert_eq!(s.to_bool(), LogicValue::to_bool(v));
        }
    }

    #[test]
    fn default_is_uninitialized() {
        assert_eq!(Std9::default(), Std9::U);
    }
}
