//! The dense waveform recorder every kernel observes through.

use std::collections::BTreeMap;

use parsim_netlist::{Circuit, GateId};

use crate::Observe;

/// `slot` entry of a net nobody observes.
const UNOBSERVED: u32 = u32::MAX;

/// The observed nets of one run (or one LP) and their waveforms, indexed
/// by net.
///
/// Every kernel asks "is this net observed, and if so where is its
/// waveform" once per value change, and nine changes in ten land on a net
/// nobody observes — so the answer is one load from a gate-indexed slot
/// table, not a map search. `W` is the waveform type
/// ([`Waveform`](crate::Waveform) for the scalar kernels, the packed
/// waveform for the bit-parallel one); the recorder never looks inside it.
/// The public `BTreeMap` shape of an outcome is produced once, by
/// [`into_map`](Self::into_map), when the result is assembled.
///
/// # Examples
///
/// ```
/// use parsim_core::{Observe, WaveRecorder, Waveform};
/// use parsim_event::VirtualTime;
/// use parsim_logic::Bit;
/// use parsim_netlist::bench;
///
/// let c = bench::c17();
/// let mut rec = WaveRecorder::observing(&c, Observe::Outputs, Waveform::new(Bit::Zero));
/// let po = c.outputs()[0];
/// rec.get_mut(po).expect("outputs are observed").record(VirtualTime::new(3), Bit::One);
/// assert!(rec.get_mut(c.inputs()[0]).is_none());
/// let map = rec.into_map();
/// assert_eq!(map.len(), c.outputs().len());
/// assert_eq!(map[&po].toggle_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct WaveRecorder<W> {
    /// Gate index → index into `waves`, [`UNOBSERVED`] otherwise.
    slot: Vec<u32>,
    waves: Vec<(GateId, W)>,
}

impl<W: Clone> WaveRecorder<W> {
    /// A recorder over `nets` nets observing exactly the ids of
    /// `observed`, each starting from a clone of `initial`. An id listed
    /// twice (a net declared as two primary outputs) is observed once.
    /// Costs `O(nets + observed)`.
    ///
    /// # Panics
    ///
    /// Panics if an observed id is `≥ nets`.
    pub fn new(nets: usize, observed: impl IntoIterator<Item = GateId>, initial: W) -> Self {
        assert!(nets <= UNOBSERVED as usize, "net count overflows the slot table");
        let mut slot = vec![UNOBSERVED; nets];
        let mut waves = Vec::new();
        for id in observed {
            if slot[id.index()] == UNOBSERVED {
                slot[id.index()] = waves.len() as u32;
                waves.push((id, initial.clone()));
            }
        }
        WaveRecorder { slot, waves }
    }

    /// A recorder for the nets of `circuit` that `observe` selects.
    pub fn observing(circuit: &Circuit, observe: Observe, initial: W) -> Self {
        let mask = observe.mask(circuit);
        Self::new(circuit.len(), circuit.ids().filter(|id| mask[id.index()]), initial)
    }
}

impl<W> WaveRecorder<W> {
    /// The waveform of net `id`, or `None` if nobody observes it.
    #[inline]
    pub fn get_mut(&mut self, id: GateId) -> Option<&mut W> {
        match self.slot.get(id.index()) {
            Some(&s) if s != UNOBSERVED => Some(&mut self.waves[s as usize].1),
            _ => None,
        }
    }

    /// The observed nets and their waveforms, in first-listed order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (GateId, &mut W)> {
        self.waves.iter_mut().map(|(id, w)| (*id, w))
    }

    /// The recorded waveforms as the map every outcome carries.
    pub fn into_map(self) -> BTreeMap<GateId, W> {
        self.waves.into_iter().collect()
    }
}

/// An empty recorder: observes nothing, whatever net is asked for.
impl<W> Default for WaveRecorder<W> {
    fn default() -> Self {
        WaveRecorder { slot: Vec::new(), waves: Vec::new() }
    }
}
