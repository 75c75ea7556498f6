//! Signal traces.

use parsim_event::VirtualTime;
use parsim_logic::LogicValue;

/// The value history of one net: `(time, value)` transitions in increasing
/// time order, starting with the initial value at `t = 0`.
///
/// Used both as a user-facing result and as the exact comparison object of
/// the differential tests (two kernels agree iff every observed waveform is
/// identical).
///
/// # Examples
///
/// ```
/// use parsim_core::Waveform;
/// use parsim_event::VirtualTime;
/// use parsim_logic::Bit;
///
/// let mut w = Waveform::new(Bit::Zero);
/// w.record(VirtualTime::new(5), Bit::One);
/// w.record(VirtualTime::new(9), Bit::Zero);
/// assert_eq!(w.value_at(VirtualTime::new(7)), Bit::One);
/// assert_eq!(w.transitions().len(), 3);
/// assert_eq!(w.toggle_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waveform<V> {
    transitions: Vec<(VirtualTime, V)>,
}

impl<V: LogicValue> Waveform<V> {
    /// Creates a waveform with the given initial value at `t = 0`.
    pub fn new(initial: V) -> Self {
        Waveform { transitions: vec![(VirtualTime::ZERO, initial)] }
    }

    /// Appends a transition.
    ///
    /// Recording a value at a time already present overwrites that entry
    /// (the net's final value at that timestamp wins); otherwise times must
    /// be appended in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last recorded transition.
    pub fn record(&mut self, time: VirtualTime, value: V) {
        let last = self.transitions.last_mut().expect("waveform always has an initial entry");
        assert!(time >= last.0, "waveform transitions must be recorded in time order");
        if last.0 == time {
            last.1 = value;
        } else if last.1 != value {
            self.transitions.push((time, value));
        }
    }

    /// All transitions, in time order (first entry is the initial value).
    pub fn transitions(&self) -> &[(VirtualTime, V)] {
        &self.transitions
    }

    /// The value of the net at an arbitrary time.
    pub fn value_at(&self, time: VirtualTime) -> V {
        match self.transitions.binary_search_by_key(&time, |&(t, _)| t) {
            Ok(i) => self.transitions[i].1,
            Err(0) => self.transitions[0].1,
            Err(i) => self.transitions[i - 1].1,
        }
    }

    /// Number of value changes (excluding the initial entry).
    ///
    /// Public API: a net's activity in one run, the quantity §III's
    /// pre-simulation weights partitions by; the kernel suites check that a
    /// net moved with it.
    pub fn toggle_count(&self) -> usize {
        self.transitions.len() - 1
    }

    /// Removes every transition at or after `time` (used by optimistic
    /// kernels when rolling back tentatively recorded history). The initial
    /// entry is never removed.
    pub fn truncate_from(&mut self, time: VirtualTime) {
        let keep = self.transitions.iter().take_while(|&&(t, _)| t < time).count().max(1);
        self.transitions.truncate(keep);
    }

    /// Renders the waveform as a compact `t0:v0 t1:v1 ...` string.
    pub fn to_trace_string(&self) -> String {
        self.transitions.iter().map(|(t, v)| format!("{t}:{v}")).collect::<Vec<_>>().join(" ")
    }
}

impl<V: LogicValue> Default for Waveform<V> {
    fn default() -> Self {
        Waveform::new(V::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::Logic4;

    #[test]
    fn duplicate_values_are_coalesced() {
        let mut w = Waveform::new(Logic4::Zero);
        w.record(VirtualTime::new(3), Logic4::Zero);
        assert_eq!(w.toggle_count(), 0);
        w.record(VirtualTime::new(5), Logic4::One);
        w.record(VirtualTime::new(8), Logic4::One);
        assert_eq!(w.toggle_count(), 1);
    }

    #[test]
    fn same_time_overwrites() {
        let mut w = Waveform::new(Logic4::Zero);
        w.record(VirtualTime::new(5), Logic4::One);
        w.record(VirtualTime::new(5), Logic4::X);
        assert_eq!(w.value_at(VirtualTime::new(5)), Logic4::X);
        assert_eq!(w.toggle_count(), 1);
    }

    #[test]
    fn value_lookup() {
        let mut w = Waveform::new(Logic4::Zero);
        w.record(VirtualTime::new(10), Logic4::One);
        assert_eq!(w.value_at(VirtualTime::ZERO), Logic4::Zero);
        assert_eq!(w.value_at(VirtualTime::new(9)), Logic4::Zero);
        assert_eq!(w.value_at(VirtualTime::new(10)), Logic4::One);
        assert_eq!(w.value_at(VirtualTime::new(99)), Logic4::One);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn rejects_time_travel() {
        let mut w = Waveform::new(Logic4::Zero);
        w.record(VirtualTime::new(10), Logic4::One);
        w.record(VirtualTime::new(5), Logic4::Zero);
    }

    #[test]
    fn truncate_rolls_back_history() {
        let mut w = Waveform::new(Logic4::Zero);
        w.record(VirtualTime::new(3), Logic4::One);
        w.record(VirtualTime::new(7), Logic4::Zero);
        w.truncate_from(VirtualTime::new(5));
        assert_eq!(w.value_at(VirtualTime::new(99)), Logic4::One);
        assert_eq!(w.toggle_count(), 1);
        // Re-recording the same history reproduces the original waveform.
        w.record(VirtualTime::new(7), Logic4::Zero);
        assert_eq!(w.transitions().len(), 3);
        // Truncating everything keeps the initial entry.
        w.truncate_from(VirtualTime::ZERO);
        assert_eq!(w.toggle_count(), 0);
    }

    #[test]
    fn trace_string() {
        let mut w = Waveform::new(Logic4::Zero);
        w.record(VirtualTime::new(2), Logic4::One);
        assert_eq!(w.to_trace_string(), "0:0 2:1");
    }
}
