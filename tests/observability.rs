//! Integration tests for the observability subsystem (`parsim-trace`)
//! through the public facade: the sequential kernel's event trace pinned to
//! a golden digest, Perfetto export validity/determinism (golden file), and
//! the no-op-probe bit-identity guarantee.

use parsim::prelude::*;
use parsim::trace::TraceRecord;

/// A minimal JSON reader: enough to reject malformed exporter output
/// (string escapes, balanced containers, no trailing garbage). Returns the
/// number of values parsed.
fn check_json(text: &str) -> Result<usize, String> {
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    let mut values = 0usize;

    fn skip_ws(bytes: &[char], i: &mut usize) {
        while *i < bytes.len() && bytes[*i].is_whitespace() {
            *i += 1;
        }
    }

    fn value(bytes: &[char], i: &mut usize, values: &mut usize) -> Result<(), String> {
        skip_ws(bytes, i);
        *values += 1;
        match bytes.get(*i) {
            None => Err("unexpected end of input".into()),
            Some('{') => {
                *i += 1;
                skip_ws(bytes, i);
                if bytes.get(*i) == Some(&'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(bytes, i);
                    if bytes.get(*i) != Some(&'"') {
                        return Err(format!("expected object key at {i}"));
                    }
                    string(bytes, i)?;
                    skip_ws(bytes, i);
                    if bytes.get(*i) != Some(&':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    *i += 1;
                    value(bytes, i, values)?;
                    skip_ws(bytes, i);
                    match bytes.get(*i) {
                        Some(',') => *i += 1,
                        Some('}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at {i}")),
                    }
                }
            }
            Some('[') => {
                *i += 1;
                skip_ws(bytes, i);
                if bytes.get(*i) == Some(&']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    value(bytes, i, values)?;
                    skip_ws(bytes, i);
                    match bytes.get(*i) {
                        Some(',') => *i += 1,
                        Some(']') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at {i}")),
                    }
                }
            }
            Some('"') => string(bytes, i),
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                *i += 1;
                while bytes.get(*i).is_some_and(|c| c.is_ascii_digit() || ".eE+-".contains(*c)) {
                    *i += 1;
                }
                Ok(())
            }
            Some(_) => {
                for lit in ["true", "false", "null"] {
                    if bytes[*i..].starts_with(&lit.chars().collect::<Vec<_>>()[..]) {
                        *i += lit.len();
                        return Ok(());
                    }
                }
                Err(format!("unexpected character {:?} at {i}", bytes[*i]))
            }
        }
    }

    fn string(bytes: &[char], i: &mut usize) -> Result<(), String> {
        *i += 1; // opening quote
        while let Some(&c) = bytes.get(*i) {
            match c {
                '"' => {
                    *i += 1;
                    return Ok(());
                }
                '\\' => {
                    *i += 1;
                    match bytes.get(*i) {
                        Some('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') => *i += 1,
                        Some('u') => {
                            if !bytes[*i + 1..].iter().take(4).all(char::is_ascii_hexdigit)
                                || bytes.len() < *i + 5
                            {
                                return Err(format!("bad \\u escape at {i}"));
                            }
                            *i += 5;
                        }
                        _ => return Err(format!("bad escape at {i}")),
                    }
                }
                c if (c as u32) < 0x20 => return Err(format!("raw control char at {i}")),
                _ => *i += 1,
            }
        }
        Err("unterminated string".into())
    }

    value(&bytes, &mut i, &mut values)?;
    skip_ws(&bytes, &mut i);
    if i != bytes.len() {
        return Err(format!("trailing garbage at {i}"));
    }
    Ok(values)
}

fn test_circuit() -> Circuit {
    generate::random_dag(&generate::RandomDagConfig {
        gates: 120,
        seq_fraction: 0.15,
        delays: DelayModel::Uniform { min: 1, max: 6, seed: 5 },
        seed: 5,
        ..Default::default()
    })
}

/// FNV-1a over every record, in the order the trace holds them: the
/// sequential kernel's records follow its exact dequeue order.
fn digest(records: &[TraceRecord]) -> u64 {
    let mut h = parsim::netlist::Fnv1a::new();
    for r in records {
        for v in [r.t, r.vt, u64::from(r.processor), u64::from(r.lp), r.arg] {
            h.write_u64(v);
        }
        h.write(format!("{:?}", r.kind).as_bytes());
    }
    h.finish()
}

/// The sequential kernel's event trace on a mixed-delay circuit with
/// duplicate `(time, net)` events, pinned to what the binary heap, the
/// calendar queue and the pairing heap all recorded before the bucket
/// queue replaced them. Every enqueue, dequeue (with its queue depth) and
/// evaluation is in the digest, so any change to the pop order fails here.
#[test]
fn sequential_event_trace_matches_golden() {
    let c = test_circuit();
    let stim = Stimulus::random(3, 12).with_clock(7);
    let probe = Probe::enabled();
    let out = SequentialSimulator::<Logic4>::new().with_probe(probe.clone()).run(
        &c,
        &stim,
        VirtualTime::new(300),
    );
    let trace = probe.take_trace();
    assert_eq!(trace.dropped(), 0);
    let stats = &out.stats;
    assert_eq!(
        (stats.events_processed, stats.events_scheduled, stats.gate_evaluations),
        (3402, 3425, 6419)
    );
    assert_eq!(trace.records().len(), 13_246);
    assert_eq!(digest(trace.records()), 0x08d3_1f85_0cbb_3365);
}

#[test]
fn perfetto_export_is_valid_and_deterministic() {
    let c = bench::c17();
    let stim = Stimulus::random(11, 16);
    let until = VirtualTime::new(150);
    let part = ContiguousPartitioner.partition(&c, 2, &GateWeights::uniform(c.len()));

    let export = || {
        let probe = Probe::enabled();
        ConservativeSimulator::<Bit>::new(part.clone(), MachineConfig::shared_memory(2))
            .with_probe(probe.clone())
            .run(&c, &stim, until);
        to_perfetto_json(&probe.take_trace())
    };
    let (a, b) = (export(), export());
    assert_eq!(a, b, "modeled-kernel Perfetto export must be byte-deterministic");
    let values = check_json(&a).expect("exporter emits valid JSON");
    assert!(values > 10, "export should contain real events, got {values} JSON values");
    assert!(a.contains("\"traceEvents\""));
    assert!(a.contains("\"ph\":\"X\""), "charge spans should render as complete events");
}

#[test]
fn perfetto_export_matches_golden_file() {
    // A hand-authored trace covering every record family; the exporter
    // promises byte-identical output for it forever (update the golden
    // file deliberately when the format changes).
    let probe = Probe::enabled();
    let mut h = probe.handle();
    h.emit(0, 0, 0, 2, TraceKind::GateEval, 3);
    h.emit(1, 4, 0, 2, TraceKind::Enqueue, 5);
    h.emit(2, 4, 0, 2, TraceKind::Dequeue, 4);
    h.emit(3, 9, 1, 7, TraceKind::MessageSend, 2);
    h.emit(4, 9, 1, 7, TraceKind::NullMessage, 2);
    h.emit(5, 9, 1, 7, TraceKind::AntiMessage, 2);
    h.emit(6, 0, 1, 7, TraceKind::Rollback, 4);
    h.emit(7, 0, 1, 7, TraceKind::StateSave, 2);
    h.emit(8, 12, 0, parsim::trace::NO_LP, TraceKind::GvtAdvance, 12);
    h.emit(10, 0, 0, parsim::trace::NO_LP, TraceKind::Charge, 6);
    h.emit(16, 0, 0, parsim::trace::NO_LP, TraceKind::Idle, 2);
    h.emit(18, 0, 0, parsim::trace::NO_LP, TraceKind::BarrierWait, 2);
    drop(h);
    let json = to_perfetto_json(&probe.take_trace());
    check_json(&json).expect("golden trace is valid JSON");

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace.perfetto.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path, &json).expect("write golden file");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file present");
    assert_eq!(
        json, golden,
        "Perfetto exporter output drifted from tests/golden/trace.perfetto.json"
    );
}

#[test]
fn disabled_probe_is_bit_identical_to_no_probe() {
    let c = test_circuit();
    let stim = Stimulus::random(9, 10).with_clock(8);
    let until = VirtualTime::new(250);
    let part = FiducciaMattheyses::default().partition(&c, 4, &GateWeights::uniform(c.len()));
    let machine = MachineConfig::shared_memory(4);

    // (name, without probe, with explicitly disabled probe)
    let pairs: Vec<(String, SimOutcome<Bit>, SimOutcome<Bit>)> = vec![
        {
            let k = SequentialSimulator::<Bit>::new();
            (
                k.name(),
                k.run(&c, &stim, until),
                SequentialSimulator::<Bit>::new()
                    .with_probe(Probe::disabled())
                    .run(&c, &stim, until),
            )
        },
        {
            let k = SyncSimulator::<Bit>::new(part.clone(), machine);
            (
                k.name(),
                k.run(&c, &stim, until),
                SyncSimulator::<Bit>::new(part.clone(), machine)
                    .with_probe(Probe::disabled())
                    .run(&c, &stim, until),
            )
        },
        {
            let k = ConservativeSimulator::<Bit>::new(part.clone(), machine);
            (
                k.name(),
                k.run(&c, &stim, until),
                ConservativeSimulator::<Bit>::new(part.clone(), machine)
                    .with_probe(Probe::disabled())
                    .run(&c, &stim, until),
            )
        },
        {
            let k = TimeWarpSimulator::<Bit>::new(part.clone(), machine);
            (
                k.name(),
                k.run(&c, &stim, until),
                TimeWarpSimulator::<Bit>::new(part.clone(), machine)
                    .with_probe(Probe::disabled())
                    .run(&c, &stim, until),
            )
        },
    ];
    for (name, plain, probed) in pairs {
        assert_eq!(plain.stats, probed.stats, "{name}: stats diverge under a disabled probe");
        assert_eq!(
            plain.final_values, probed.final_values,
            "{name}: values diverge under a disabled probe"
        );
    }
}
