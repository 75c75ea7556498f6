//! Value-system property tests on the sequential kernel: two-valued and
//! four-valued simulation of arbitrary circuits and stimuli agree.

use parsim_core::{SequentialSimulator, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::{Bit, Logic4};
use parsim_netlist::generate::{random_dag, RandomDagConfig};
use proptest::prelude::*;

fn any_dag() -> impl Strategy<Value = RandomDagConfig> {
    (20usize..200, 2usize..12, 0.0f64..0.3, any::<u64>()).prop_map(
        |(gates, inputs, seq_fraction, seed)| RandomDagConfig {
            gates,
            inputs,
            seq_fraction,
            seed,
            ..Default::default()
        },
    )
}

fn any_stimulus() -> impl Strategy<Value = Stimulus> {
    (any::<u64>(), 1u64..20, 0.0f64..=1.0, 1u64..10).prop_map(
        |(seed, interval, toggle, clock_half)| {
            Stimulus::random_with_toggle(seed, interval, toggle).with_clock(clock_half)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two-valued and four-valued simulation agree on Boolean stimulus:
    /// Logic4 never reports a definite value different from Bit's.
    #[test]
    fn logic4_refines_bit(cfg in any_dag(), stim in any_stimulus(), until in 20u64..150) {
        let c = random_dag(&cfg);
        let until = VirtualTime::new(until);
        let b2 = SequentialSimulator::<Bit>::new().run(&c, &stim, until);
        let b4 = SequentialSimulator::<Logic4>::new().run(&c, &stim, until);
        for id in c.ids() {
            let two = b2.value(id);
            let four = b4.value(id);
            if let Some(v) = parsim_logic::LogicValue::to_bool(four) {
                prop_assert_eq!(v, two == Bit::One, "net {} differs", id);
            }
        }
    }
}
