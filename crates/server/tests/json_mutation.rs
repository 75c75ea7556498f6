//! The JSON boundary under mutation. Every POST body goes through
//! `JobRequest::from_json`, so no byte sequence a client can send may panic
//! it or overflow the connection thread's stack. Generated requests are
//! rendered with `to_json`, then truncated at every offset, byte-flipped,
//! and spliced with runs of `[` or `{`.

use std::time::Duration;

use parsim_core::RunBudget;
use parsim_server::json::MAX_DEPTH;
use parsim_server::{JobRequest, KernelKind, NetlistSpec, ObserveSpec};
use proptest::prelude::*;

fn any_request() -> impl Strategy<Value = JobRequest> {
    let tenant =
        prop::sample::select(vec!["acme", "t-0", "quote\"d", "back\\slash", "λ-€", "a\tb"]);
    let netlist = prop_oneof![
        (
            prop::sample::select(vec!["ripple_adder", "lfsr", "counter", "tree", "mesh"]),
            1usize..=4096
        )
            .prop_map(|(kind, size)| NetlistSpec::Generate { kind: kind.to_owned(), size }),
        prop::sample::select(vec![
            "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n",
            "# \"q\"\nINPUT(x)\nOUTPUT(x)\n"
        ])
        .prop_map(|text| NetlistSpec::Bench(text.to_owned())),
    ];
    let kernel = prop::sample::select(vec![
        KernelKind::Sync,
        KernelKind::Conservative,
        KernelKind::TimeWarp,
    ]);
    let observe = prop::sample::select(vec![
        ObserveSpec::Outputs,
        ObserveSpec::AllNets,
        ObserveSpec::Nothing,
    ]);
    let budget = (
        prop::option::of(0u64..1 << 40),
        prop::option::of(0u64..1 << 40),
        prop::option::of(0u64..1 << 30),
    )
        .prop_map(|(max_rounds, max_events, ms)| RunBudget {
            max_rounds,
            max_events,
            deadline: ms.map(Duration::from_millis),
        });
    let fault_kill = prop::option::of((0usize..64, 0u64..1000));
    (
        tenant,
        netlist,
        kernel,
        1usize..=64,
        1u64..1 << 40,
        0u64..1 << 40,
        1u64..1000,
        observe,
        budget,
        fault_kill,
    )
        .prop_map(
            |(
                tenant,
                netlist,
                kernel,
                workers,
                until,
                seed,
                interval,
                observe,
                budget,
                fault_kill,
            )| {
                JobRequest {
                    tenant: tenant.to_owned(),
                    netlist,
                    kernel,
                    workers,
                    until,
                    seed,
                    interval,
                    observe,
                    budget,
                    fault_kill,
                }
            },
        )
}

/// The deepest `[`/`{` nesting outside string literals: a scanner
/// independent of the parser under test.
fn nesting(text: &str) -> usize {
    let (mut depth, mut deepest, mut in_string, mut escaped) = (0usize, 0, false, false);
    for b in text.bytes() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            b']' | b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    deepest
}

/// `from_json` on `bytes` (lossily decoded, as any client body could be)
/// returns instead of panicking, and a body nested beyond [`MAX_DEPTH`] is
/// an error that names a byte offset.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    let depth = nesting(&text);
    match JobRequest::from_json(&text) {
        Ok(_) => prop_assert!(depth <= MAX_DEPTH, "accepted a body nested {} deep", depth),
        Err(e) if depth > MAX_DEPTH => {
            prop_assert!(e.contains(" at byte "), "nested {} deep, no offset: {}", depth, e);
        }
        Err(_) => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn from_json_survives_truncation_flips_and_nesting_splices(
        req in any_request(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..24),
        splices in prop::collection::vec(
            (any::<prop::sample::Index>(), prop::sample::select(vec![b'[', b'{']), 1..=4 * MAX_DEPTH),
            1..8,
        ),
    ) {
        let body = req.to_json();
        prop_assert_eq!(JobRequest::from_json(&body), Ok(req));
        let bytes = body.as_bytes();
        for cut in 0..bytes.len() {
            check(&bytes[..cut])?;
        }
        for &(at, mask) in &flips {
            let mut flipped = bytes.to_vec();
            flipped[at.index(bytes.len())] ^= mask;
            check(&flipped)?;
        }
        for &(at, open, len) in &splices {
            let at = at.index(bytes.len() + 1);
            check(&[&bytes[..at], &vec![open; len], &bytes[at..]].concat())?;
        }
        // One run past the bound in front of the body always reaches it.
        let deep = format!("{}{body}", "[".repeat(MAX_DEPTH + 1));
        prop_assert_eq!(
            JobRequest::from_json(&deep),
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"))
        );
    }
}
