//! The dense waveform recorder against the map it replaced: a
//! `BTreeMap<GateId, Waveform>` driven through the same record / truncate
//! sequence, and the observed set against the per-net membership test the
//! kernels used to run.

use std::collections::BTreeMap;

use parsim_core::{Observe, WaveRecorder, Waveform};
use parsim_event::VirtualTime;
use parsim_logic::{GateKind, Logic4, LogicValue};
use parsim_netlist::{Circuit, CircuitBuilder, Delay, GateId};
use proptest::prelude::*;

/// A NAND chain whose primary-output list names `dup` twice and is not in
/// gate-id order.
fn chain_with_duplicate_outputs(gates: usize, dup: usize) -> Circuit {
    let mut b = CircuitBuilder::new("chain");
    let (x, y) = (b.input("x"), b.input("y"));
    let mut ids = vec![x, y];
    for _ in 0..gates {
        let g = b.gate(GateKind::Nand, [ids[ids.len() - 1], ids[ids.len() - 2]], Delay::UNIT);
        ids.push(g);
    }
    b.output("last", ids[ids.len() - 1]);
    b.output("dup_a", ids[2 + dup % gates]);
    b.output("mid", ids[2 + gates / 2]);
    b.output("dup_b", ids[2 + dup % gates]);
    b.finish().expect("valid chain")
}

/// The membership test every kernel ran per net before the recorder.
fn old_wants(observe: Observe, circuit: &Circuit, id: GateId) -> bool {
    match observe {
        Observe::Outputs => circuit.outputs().contains(&id),
        Observe::AllNets => true,
        Observe::Nothing => false,
    }
}

/// One step of a recording session.
#[derive(Debug, Clone)]
enum Step {
    /// Advance time by `dt` (0 = same-time overwrite) and record `value`
    /// on a net picked by `net`: even picks a primary output, odd any net
    /// (mostly unobserved ones).
    Record { net: usize, dt: u64, value: usize },
    /// Roll every waveform back to `back` ticks before now.
    Truncate { back: u64 },
}

fn any_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        8 => (0usize..1000, 0u64..3, 0usize..4)
            .prop_map(|(net, dt, value)| Step::Record { net, dt, value }),
        1 => (0u64..6).prop_map(|back| Step::Truncate { back }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn observed_set_is_the_old_membership_test(gates in 3usize..40, dup in 0usize..40) {
        let c = chain_with_duplicate_outputs(gates, dup);
        for observe in [Observe::Outputs, Observe::AllNets, Observe::Nothing] {
            let want: Vec<GateId> = c.ids().filter(|&id| old_wants(observe, &c, id)).collect();
            let mask = observe.mask(&c);
            prop_assert_eq!(mask.len(), c.len());
            for id in c.ids() {
                let want = old_wants(observe, &c, id);
                prop_assert_eq!(mask[id.index()], want, "{:?} {}", observe, id);
            }
            let mut rec = WaveRecorder::observing(&c, observe, Waveform::new(Logic4::Zero));
            for id in c.ids() {
                prop_assert_eq!(rec.get_mut(id).is_some(), old_wants(observe, &c, id));
            }
            let keys: Vec<GateId> = rec.into_map().into_keys().collect();
            prop_assert_eq!(keys, want);
        }
    }

    #[test]
    fn recorder_matches_the_map_it_replaced(
        gates in 3usize..40,
        dup in 0usize..40,
        steps in prop::collection::vec(any_step(), 0..200),
    ) {
        let c = chain_with_duplicate_outputs(gates, dup);
        // Straight from the output list: unsorted, with a duplicate.
        let mut rec =
            WaveRecorder::new(c.len(), c.outputs().iter().copied(), Waveform::new(Logic4::Zero));
        let mut model: BTreeMap<GateId, Waveform<Logic4>> =
            c.outputs().iter().map(|&po| (po, Waveform::new(Logic4::Zero))).collect();
        let mut now = 0u64;
        for step in steps {
            match step {
                Step::Record { net, dt, value } => {
                    now += dt;
                    let net = match net % 2 {
                        0 => c.outputs()[net / 2 % c.outputs().len()],
                        _ => GateId::new(net % c.len()),
                    };
                    let value = Logic4::all()[value];
                    let dense = rec.get_mut(net);
                    let tree = model.get_mut(&net);
                    prop_assert_eq!(dense.is_some(), tree.is_some());
                    if let (Some(d), Some(t)) = (dense, tree) {
                        d.record(VirtualTime::new(now), value);
                        t.record(VirtualTime::new(now), value);
                        prop_assert_eq!(&*d, &*t);
                    }
                }
                Step::Truncate { back } => {
                    now = now.saturating_sub(back);
                    let mut visited = 0;
                    for (_, w) in rec.iter_mut() {
                        w.truncate_from(VirtualTime::new(now));
                        visited += 1;
                    }
                    prop_assert_eq!(visited, model.len(), "truncation visits every waveform once");
                    for w in model.values_mut() {
                        w.truncate_from(VirtualTime::new(now));
                    }
                }
            }
        }
        // Same entries in the same (ascending id) order as the map.
        let dense: Vec<_> = rec.into_map().into_iter().collect();
        let tree: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(dense, tree);
    }
}

#[test]
fn an_empty_recorder_observes_nothing() {
    let mut rec = WaveRecorder::<Waveform<Logic4>>::default();
    assert!(rec.get_mut(GateId::new(7)).is_none());
    assert!(rec.into_map().is_empty());
}
