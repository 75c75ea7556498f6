//! Input generation: everything a workload runs is a pure function of
//! `--seed`.
//!
//! Circuit *structure* moves a random DAG's activity by ±8 % from seed to
//! seed (157k–190k committed events at 10 240 gates over ten seeds, in two
//! clusters), and every rate and latency follows it. Two steps keep the
//! amount of work the same for every seed while the circuits still differ:
//!
//! 1. [`steady_dag`] takes, of a seed's four candidate circuits, the one
//!    whose activity in a short sequential run is closest to the workload's
//!    usual one, so ticks × gates work (the dense sweeps) is steady too;
//! 2. [`calibrate`] rescales the horizon from the nominal 150 ticks so the
//!    sequential reference commits about the workload's event budget
//!    (activity is linear in time after the first ticks).

use parsim::netlist::generate::RandomDagConfig;
use parsim::netlist::Fnv1a;
use parsim::prelude::*;
use parsim_server::{JobRequest, KernelKind, NetlistSpec, ObserveSpec};

/// Ticks every random-DAG workload starts its horizon search from.
pub const NOMINAL_UNTIL: u64 = 150;
/// Stimulus period and clock half-period shared by the kernel workloads.
pub const STIM_INTERVAL: u64 = 12;
const CLOCK_HALF_PERIOD: u64 = 7;

/// A seed for one named input, derived from the run seed (splitmix64 over
/// the seed mixed with the label's FNV-1a hash and an index).
pub fn derive(seed: u64, label: &str, index: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write(label.as_bytes());
    h.write_u64(index);
    let mut z = seed ^ h.finish();
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded random DAG every kernel workload is built on.
pub fn dag(gates: usize, inputs: usize, seed: u64) -> Circuit {
    generate::random_dag(&RandomDagConfig {
        gates,
        inputs,
        seq_fraction: 0.10,
        delays: DelayModel::Unit,
        seed,
        ..Default::default()
    })
}

/// Ticks of the short run that sizes up a candidate circuit.
const PROBE_UNTIL: u64 = 60;
/// Candidate circuits per seed. A fixed number, so set-up costs the same
/// for every seed.
const CANDIDATES: u64 = 4;

/// Of the seed's candidate DAGs, the one (with its stimulus) whose
/// committed events in the first [`PROBE_UNTIL`] ticks come closest to
/// `probe_events`.
pub fn steady_dag(gates: usize, seed: u64, label: &str, probe_events: u64) -> (Circuit, Stimulus) {
    (0..CANDIDATES)
        .map(|i| {
            let s = derive(seed, label, i);
            (dag(gates, 256, s), stimulus(s))
        })
        .min_by_key(|(c, s)| {
            reference(c, s, PROBE_UNTIL, Observe::Nothing)
                .stats
                .events_processed
                .abs_diff(probe_events)
        })
        .expect("at least one candidate")
}

/// The clocked random stimulus of the kernel workloads.
pub fn stimulus(seed: u64) -> Stimulus {
    Stimulus::random(seed, STIM_INTERVAL).with_clock(CLOCK_HALF_PERIOD)
}

/// The sequential reference run every oracle compares against.
pub fn reference(
    circuit: &Circuit,
    stim: &Stimulus,
    until: u64,
    observe: Observe,
) -> SimOutcome<Logic4> {
    SequentialSimulator::<Logic4>::new().with_observe(observe).run(
        circuit,
        stim,
        VirtualTime::new(until),
    )
}

/// Picks the horizon at which the sequential reference commits about
/// `event_budget` events, and returns it with that reference run.
pub fn calibrate(
    circuit: &Circuit,
    stim: &Stimulus,
    event_budget: u64,
    observe: Observe,
) -> (u64, SimOutcome<Logic4>) {
    let nominal = reference(circuit, stim, NOMINAL_UNTIL, observe);
    let events = nominal.stats.events_processed.max(1);
    let until = (NOMINAL_UNTIL * event_budget + events / 2) / events;
    // Two stimulus periods at least, so every seed sees input changes.
    let until = until.max(2 * STIM_INTERVAL);
    if until == NOMINAL_UNTIL {
        return (until, nominal);
    }
    (until, reference(circuit, stim, until, observe))
}

/// The `serve_warm_c1` job: identical every time, so the service's
/// prepared-circuit memo and the artifact store both hit.
pub fn warm_request(seed: u64) -> JobRequest {
    JobRequest {
        tenant: "bench".into(),
        netlist: NetlistSpec::Generate { kind: "ripple_adder".into(), size: 32 },
        kernel: KernelKind::Sync,
        workers: 2,
        until: 1000,
        seed: derive(seed, "serve_warm_c1", 0) >> 12, // JSON numbers are exact below 2^53
        interval: 10,
        observe: ObserveSpec::Outputs,
        budget: RunBudget::UNLIMITED,
        fault_kill: None,
    }
}

/// Job `index` of `serve_cold_c1`: a netlist no earlier job carried, as
/// `.bench` text, so nothing the service caches can hit. Its horizon is
/// the nominal one; the workload rescales it to the job event budget.
pub fn cold_request(seed: u64, index: u64) -> JobRequest {
    let s = derive(seed, "serve_cold_c1", index);
    JobRequest {
        netlist: NetlistSpec::Bench(bench::write(&dag(2048, 64, s))),
        until: NOMINAL_UNTIL,
        seed: s >> 12,
        interval: STIM_INTERVAL,
        observe: ObserveSpec::AllNets,
        ..warm_request(seed)
    }
}

/// What the service builds from a request: the circuit and the stimulus.
pub fn job_inputs(req: &JobRequest) -> (Circuit, Stimulus) {
    let circuit = match &req.netlist {
        NetlistSpec::Bench(text) => {
            bench::parse("job", text, DelayModel::Unit).expect("generated .bench text parses")
        }
        NetlistSpec::Generate { size, .. } => generate::ripple_adder(*size, DelayModel::Unit),
    };
    (circuit, Stimulus::random(req.seed, req.interval))
}

/// The waveform dump the service streams for `outcome`, as one string.
pub fn waveform_csv(circuit: &Circuit, outcome: &SimOutcome<Logic4>) -> String {
    let mut csv = String::from("net,name,time,value\n");
    for (id, w) in &outcome.waveforms {
        let name = circuit.gate(*id).name().unwrap_or("");
        for &(t, v) in w.transitions() {
            csv.push_str(&format!("{},{name},{},{v}\n", id.index(), t.ticks()));
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_hash(text: &str) -> u64 {
        let mut h = Fnv1a::new();
        h.write(text.as_bytes());
        h.finish()
    }

    /// FNV-1a fingerprint of a circuit and the events a stimulus drives into
    /// it: equal fingerprints mean byte-identical inputs.
    fn fingerprint(circuit: &Circuit, stim: &Stimulus, until: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bench::write(circuit).as_bytes());
        for e in stim.events::<Logic4>(circuit, VirtualTime::new(until)) {
            h.write(format!("{e:?}").as_bytes());
        }
        h.finish()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [0xBE, 7] {
            let s = derive(seed, "dag", 0);
            assert_eq!(
                fingerprint(&dag(512, 32, s), &stimulus(s), 60),
                fingerprint(&dag(512, 32, s), &stimulus(s), 60)
            );
            assert_eq!(
                text_hash(&cold_request(seed, 3).to_json()),
                text_hash(&cold_request(seed, 3).to_json())
            );
            assert_eq!(warm_request(seed).to_json(), warm_request(seed).to_json());
        }
    }

    #[test]
    fn different_seeds_and_indices_give_different_netlists() {
        let body = |seed, i| text_hash(&cold_request(seed, i).to_json());
        assert_ne!(body(1, 0), body(2, 0));
        assert_ne!(body(1, 0), body(1, 1));
        let (s1, s2) = (derive(1, "dag", 0), derive(2, "dag", 0));
        assert_ne!(
            fingerprint(&dag(512, 32, s1), &stimulus(s1), 60),
            fingerprint(&dag(512, 32, s2), &stimulus(s2), 60)
        );
    }

    #[test]
    fn requests_survive_the_wire_and_rebuild_the_same_circuit() {
        let req = cold_request(9, 0);
        let parsed = JobRequest::from_json(&req.to_json()).expect("body parses");
        assert_eq!(parsed, req);
        let (circuit, _) = job_inputs(&parsed);
        assert!(circuit.len() > 2048);
    }

    #[test]
    fn steady_dag_is_a_function_of_the_seed_and_picks_the_closest_candidate() {
        let probe = |(c, s): &(Circuit, Stimulus)| {
            reference(c, s, PROBE_UNTIL, Observe::Nothing).stats.events_processed
        };
        let candidates: Vec<(Circuit, Stimulus)> = (0..CANDIDATES)
            .map(|i| (dag(1024, 256, derive(5, "t", i)), stimulus(derive(5, "t", i))))
            .collect();
        for target in &candidates {
            // Aimed at one candidate's own activity, that candidate wins.
            let (c, s) = steady_dag(1024, 5, "t", probe(target));
            assert_eq!(fingerprint(&c, &s, 60), fingerprint(&target.0, &target.1, 60));
        }
        let (a, b) = (steady_dag(1024, 6, "t", 9_000), steady_dag(1024, 6, "t", 9_000));
        assert_eq!(fingerprint(&a.0, &a.1, 60), fingerprint(&b.0, &b.1, 60));
    }

    #[test]
    fn calibration_lands_near_the_event_budget() {
        let s = derive(3, "dag", 0);
        let (circuit, stim) = (dag(1024, 64, s), stimulus(s));
        let budget = 12_000;
        let (until, reference) = calibrate(&circuit, &stim, budget, Observe::Outputs);
        let events = reference.stats.events_processed as f64;
        assert!((events / budget as f64 - 1.0).abs() < 0.08, "{events} events at until {until}");
    }
}
