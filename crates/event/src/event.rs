//! Events: net-value changes in simulated time.

use std::fmt::{self, Display};

use parsim_netlist::GateId;

use crate::VirtualTime;

/// A net-value change at a point in simulated time.
///
/// `net` identifies the driving gate (nets and their drivers share ids);
/// consumers are found through the circuit's fanout adjacency when the event
/// is processed.
///
/// # Examples
///
/// ```
/// use parsim_event::{Event, VirtualTime};
/// use parsim_logic::Logic4;
/// use parsim_netlist::GateId;
///
/// let e = Event::new(VirtualTime::new(12), GateId::new(3), Logic4::One);
/// assert_eq!(e.time, VirtualTime::new(12));
/// assert_eq!(e.to_string(), "@12 g3=1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event<V> {
    /// When the net changes.
    pub time: VirtualTime,
    /// The net (identified by its driving gate) that changes.
    pub net: GateId,
    /// The new value.
    pub value: V,
}

impl<V> Event<V> {
    /// Creates an event.
    pub fn new(time: VirtualTime, net: GateId, value: V) -> Self {
        Event { time, net, value }
    }
}

impl<V: Display> Display for Event<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {}={}", self.time, self.net, self.value)
    }
}
