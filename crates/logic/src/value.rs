//! The [`LogicValue`] abstraction shared by all value systems.

use std::error::Error;
use std::fmt::{self, Debug, Display};
use std::hash::Hash;

/// Error returned when parsing a logic value from a character fails.
///
/// Produced by [`LogicValue::from_char`] implementations when the character
/// does not name a state of the target value system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParseLogicError {
    /// The offending character.
    pub ch: char,
    /// Name of the value system that rejected it (e.g. `"Logic4"`).
    pub system: &'static str,
}

impl Display for ParseLogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "character {:?} is not a {} logic state", self.ch, self.system)
    }
}

impl Error for ParseLogicError {}

/// A signal value in some multi-valued logic system.
///
/// Simulation kernels are generic over this trait, so the same kernel can run
/// two-valued ([`Bit`](crate::Bit)), four-valued ([`Logic4`](crate::Logic4))
/// or IEEE 1164 nine-valued ([`Std9`](crate::Std9)) simulations.
///
/// The Boolean operations (`and`, `or`, `not`, `xor`) follow Kleene strong
/// logic: a *controlling* operand (e.g. `0` for AND) dominates regardless of
/// the other operand, while non-controlling combinations involving unknowns
/// yield the unknown state. Value systems without an unknown state (two-valued
/// logic) collapse unknowns to their [`LogicValue::UNKNOWN`] representative.
///
/// # Examples
///
/// ```
/// use parsim_logic::{Logic4, LogicValue};
///
/// assert_eq!(Logic4::Zero.and(Logic4::X), Logic4::Zero); // 0 dominates AND
/// assert_eq!(Logic4::One.and(Logic4::X), Logic4::X);     // 1 does not
/// assert_eq!(Logic4::One.or(Logic4::X), Logic4::One);    // 1 dominates OR
/// ```
pub trait LogicValue:
    Copy + Clone + Eq + PartialEq + Hash + Debug + Display + Default + Send + Sync + 'static
{
    /// Human-readable name of the value system (used in error messages).
    const SYSTEM_NAME: &'static str;

    /// Logic low.
    const ZERO: Self;
    /// Logic high.
    const ONE: Self;
    /// The unknown state (`X`). Two-valued systems, which have no unknown,
    /// map this to [`Self::ZERO`]; [`LogicValue::is_unknown`] then reports
    /// `false` for it.
    const UNKNOWN: Self;
    /// The high-impedance state (`Z`). Systems without tri-state support map
    /// this to [`Self::UNKNOWN`].
    const HIGH_Z: Self;

    /// Converts a Boolean into the corresponding strong driving value.
    fn from_bool(b: bool) -> Self {
        if b {
            Self::ONE
        } else {
            Self::ZERO
        }
    }

    /// Interprets the value as a Boolean if it unambiguously drives one.
    ///
    /// Weak levels that resolve to a definite Boolean (IEEE 1164 `L`/`H`)
    /// map to `Some`; unknown, high-impedance and don't-care states map to
    /// `None`.
    fn to_bool(self) -> Option<bool>;

    /// Returns `true` if the value carries no definite Boolean level
    /// (unknown, uninitialized, weak-unknown, high-impedance or don't-care).
    fn is_unknown(self) -> bool {
        self.to_bool().is_none()
    }

    /// Kleene AND.
    fn and(self, other: Self) -> Self;

    /// Kleene OR.
    fn or(self, other: Self) -> Self;

    /// Kleene negation.
    fn not(self) -> Self;

    /// Kleene XOR.
    fn xor(self, other: Self) -> Self {
        // a XOR b = (a AND NOT b) OR (NOT a AND b); the default is correct for
        // any Kleene system. `Logic4` and `Std9` override it with their
        // `XOR_TABLE`s, `Bit` with `!=` on its Boolean level.
        self.and(other.not()).or(self.not().and(other))
    }

    /// Resolves two drivers of the same net.
    ///
    /// This is the bus-resolution function: `Z` loses to any driving value and
    /// conflicting strong drivers produce unknown. Systems without tri-state
    /// semantics resolve conflicting values to [`Self::UNKNOWN`].
    fn resolve(self, other: Self) -> Self;

    /// The character used to render this value (e.g. `'0'`, `'X'`).
    fn to_char(self) -> char;

    /// Parses a value from its character rendering.
    ///
    /// # Errors
    ///
    /// Returns [`ParseLogicError`] if `ch` (case-insensitively) does not name
    /// a state of this value system.
    fn from_char(ch: char) -> Result<Self, ParseLogicError>;

    /// All states of the value system, in canonical order.
    ///
    /// Useful for exhaustive table-driven tests.
    fn all() -> &'static [Self];
}
