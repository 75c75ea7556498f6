//! Service-level integration: the full job lifecycle without the wire.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use parsim_core::{Observe, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::Logic4;
use parsim_netlist::{generate, DelayModel};
use parsim_partition::{ConePartitioner, GateWeights, Partitioner as _};
use parsim_server::api::{JobEvent, JobRequest, KernelKind, NetlistSpec, ObserveSpec};
use parsim_server::quota::TenantQuotas;
use parsim_server::service::{ServiceConfig, SimService};
use parsim_sync::ThreadedSyncSimulator;
use parsim_trace::reassemble;

fn test_config(name: &str) -> ServiceConfig {
    let dir =
        std::env::temp_dir().join(format!("parsim-server-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServiceConfig::new(dir);
    cfg.chunk_bytes = 256; // small chunks so streams have many frames
    cfg
}

fn adder_request(tenant: &str, kernel: KernelKind) -> JobRequest {
    JobRequest {
        tenant: tenant.into(),
        netlist: NetlistSpec::Generate { kind: "ripple_adder".into(), size: 8 },
        kernel,
        workers: 2,
        until: 200,
        seed: 42,
        interval: 10,
        observe: ObserveSpec::AllNets,
        budget: parsim_core::RunBudget::UNLIMITED,
        fault_kill: None,
    }
}

fn collect(service: &SimService, req: &JobRequest) -> Vec<JobEvent> {
    let mut events = Vec::new();
    service.submit_request(req, &mut |e| events.push(e));
    events
}

fn chunk_frames(events: &[JobEvent]) -> Vec<parsim_trace::ChunkFrame> {
    events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Chunk(f) => Some(f.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn job_streams_the_exact_waveforms_a_direct_run_produces() {
    let service = SimService::new(test_config("exact"));
    let req = adder_request("acme", KernelKind::Sync);
    let events = collect(&service, &req);

    let JobEvent::Accepted { cache, .. } = &events[0] else {
        panic!("first event must be accepted, got {:?}", events[0]);
    };
    assert_eq!(cache, "miss", "cold store compiles");
    assert!(events.last().unwrap().is_terminal());

    let frames = chunk_frames(&events);
    assert!(frames.len() > 1, "256-byte chunks must fragment the dump: {} frames", frames.len());
    let text = reassemble(&frames).expect("stream validates");

    // Reproduce what the service ran, directly against the kernel.
    let circuit = generate::ripple_adder(8, DelayModel::Unit);
    let weights = GateWeights::uniform(circuit.len());
    let partition = ConePartitioner.partition(&circuit, 2, &weights);
    let outcome = ThreadedSyncSimulator::<Logic4>::new(partition)
        .with_observe(Observe::AllNets)
        .try_run(&circuit, &Stimulus::random(42, 10), VirtualTime::new(200))
        .unwrap();
    let mut expected = String::from("net,name,time,value\n");
    for (id, w) in &outcome.waveforms {
        let name = circuit.gate(*id).name().unwrap_or("");
        for &(t, v) in w.transitions() {
            expected.push_str(&format!("{},{name},{},{v}\n", id.index(), t.ticks()));
        }
    }
    assert_eq!(text, expected, "streamed dump must match a direct run bit for bit");

    match events.last().unwrap() {
        JobEvent::Done { status, end_time, .. } => {
            assert_eq!(status, "complete");
            assert_eq!(*end_time, 200);
        }
        other => panic!("expected done, got {other:?}"),
    }
}

#[test]
fn second_submission_hits_the_shared_artifact_store() {
    let service = SimService::new(test_config("warm"));
    let cold = collect(&service, &adder_request("acme", KernelKind::Sync));
    // A different tenant, same circuit: the store is shared across tenants.
    let warm = collect(&service, &adder_request("globex", KernelKind::Sync));

    let cache_of = |events: &[JobEvent]| match &events[0] {
        JobEvent::Accepted { cache, .. } => cache.clone(),
        other => panic!("expected accepted, got {other:?}"),
    };
    assert_eq!(cache_of(&cold), "miss");
    assert_eq!(cache_of(&warm), "hit");

    let metrics = service.metrics();
    assert!(metrics["cache_hits"] >= 1.0, "{metrics:?}");
    assert_eq!(metrics["jobs_completed"], 2.0, "{metrics:?}");
}

#[test]
fn budget_truncated_job_reports_truncated_with_valid_chunks() {
    let service = SimService::new(test_config("trunc"));
    let mut req = adder_request("acme", KernelKind::Sync);
    req.budget = parsim_core::RunBudget::UNLIMITED.with_max_rounds(3);
    let events = collect(&service, &req);

    match events.last().unwrap() {
        JobEvent::Done { status, end_time, .. } => {
            assert_eq!(status, "truncated");
            assert!(*end_time < 200, "truncated run must not claim the full horizon");
        }
        other => panic!("expected done, got {other:?}"),
    }
    // Every delivered chunk still validates and reassembles.
    let text = reassemble(&chunk_frames(&events)).expect("truncated stream still validates");
    assert!(text.starts_with("net,name,time,value\n"));
    assert_eq!(service.metrics()["jobs_truncated"], 1.0);
}

#[test]
fn tenant_event_ceiling_truncates_even_unlimited_requests() {
    let mut cfg = test_config("ceiling");
    cfg.quotas = TenantQuotas { max_in_flight: 4, max_events_per_job: Some(20) };
    let service = SimService::new(cfg);
    let events = collect(&service, &adder_request("acme", KernelKind::Sync));
    match events.last().unwrap() {
        JobEvent::Done { status, events: processed, .. } => {
            assert_eq!(status, "truncated", "the operator ceiling must bind");
            // Overshoot is at most one round's worth; it must not be unbounded.
            assert!(*processed < 200, "{processed} events for a 20-event ceiling");
        }
        other => panic!("expected done, got {other:?}"),
    }
}

#[test]
fn killed_worker_yields_structured_error_not_a_hang() {
    let service = SimService::new(test_config("kill"));
    let mut req = adder_request("acme", KernelKind::Sync);
    req.fault_kill = Some((1, 2));
    let events = collect(&service, &req);
    match events.last().unwrap() {
        JobEvent::Error { code, message } => {
            assert_eq!(code, "worker-panic");
            assert!(message.contains("worker"), "{message}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    assert_eq!(service.metrics()["jobs_failed"], 1.0);
    // The failed job released its slot and quota: a follow-up runs fine.
    let retry = collect(&service, &adder_request("acme", KernelKind::Sync));
    assert!(matches!(retry.last().unwrap(), JobEvent::Done { .. }));
}

#[test]
fn over_quota_tenant_is_rejected_while_peer_job_is_in_flight() {
    let mut cfg = test_config("quota");
    cfg.quotas = TenantQuotas { max_in_flight: 1, max_events_per_job: None };
    let service = Arc::new(SimService::new(cfg));

    // Job A's sink parks after `accepted` while still holding its quota
    // permit, making the overlap deterministic.
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let svc = Arc::clone(&service);
    let a = thread::spawn(move || {
        let req = adder_request("acme", KernelKind::Sync);
        let mut events = Vec::new();
        svc.submit_request(&req, &mut |e| {
            if matches!(e, JobEvent::Accepted { .. }) {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            }
            events.push(e);
        });
        events
    });

    started_rx.recv().unwrap();
    // Same tenant, second job while the first holds its permit.
    let rejected = collect(&service, &adder_request("acme", KernelKind::Sync));
    assert_eq!(rejected.len(), 1, "rejection is immediate and terminal");
    match &rejected[0] {
        JobEvent::Error { code, .. } => assert_eq!(code, "quota-exhausted"),
        other => panic!("expected quota error, got {other:?}"),
    }
    // A different tenant is admitted fine... once a run slot frees.
    release_tx.send(()).unwrap();
    let events = a.join().unwrap();
    assert!(matches!(events.last().unwrap(), JobEvent::Done { .. }));
    let after = collect(&service, &adder_request("acme", KernelKind::Sync));
    assert!(matches!(after.last().unwrap(), JobEvent::Done { .. }), "quota released");

    let (admitted, rejected) =
        (service.metrics()["jobs_admitted"], service.metrics()["jobs_rejected"]);
    assert_eq!((admitted, rejected), (2.0, 1.0));
}

#[test]
fn concurrent_jobs_respect_the_run_slot_bound_across_kernels() {
    let mut cfg = test_config("slots");
    cfg.run_slots = 2;
    let service = Arc::new(SimService::new(cfg));

    let kernels =
        [KernelKind::Sync, KernelKind::Conservative, KernelKind::TimeWarp, KernelKind::Sync];
    let handles: Vec<_> = kernels
        .into_iter()
        .enumerate()
        .map(|(i, kernel)| {
            let svc = Arc::clone(&service);
            thread::spawn(move || {
                let req = adder_request(&format!("tenant-{i}"), kernel);
                let mut events = Vec::new();
                svc.submit_request(&req, &mut |e| events.push(e));
                events
            })
        })
        .collect();

    let mut statuses = BTreeMap::new();
    for h in handles {
        let events = h.join().unwrap();
        let last = events.last().unwrap().clone();
        match last {
            JobEvent::Done { status, end_time, .. } => {
                assert_eq!(end_time, 200);
                *statuses.entry(status).or_insert(0u32) += 1;
            }
            other => panic!("job failed: {other:?}"),
        }
        reassemble(&chunk_frames(&events)).expect("each stream validates");
    }
    assert_eq!(statuses["complete"], 4);

    let metrics = service.metrics();
    assert!(metrics["slots_peak_in_use"] <= 2.0, "{metrics:?}");
    assert_eq!(metrics["slots_in_use"], 0.0, "all slots released: {metrics:?}");
}

#[test]
fn malformed_bodies_fail_fast_with_bad_request() {
    let service = SimService::new(test_config("badreq"));
    for body in [
        "not json at all",
        r#"{"tenant":"t","until":100}"#,
        r#"{"tenant":"t","until":100,"generate":{"kind":"warp-core","size":8}}"#,
        r#"{"tenant":"t","until":100,"generate":{"kind":"ripple_adder","size":8},"workers":9999}"#,
    ] {
        let mut events = Vec::new();
        service.submit(body, &mut |e| events.push(e));
        assert_eq!(events.len(), 1, "{body} must fail before any streaming");
        assert!(
            matches!(&events[0], JobEvent::Error { code, .. } if code == "bad-request"),
            "{body} → {events:?}"
        );
    }
}

/// Polls `service.metrics()[key]` until it reads `want`; panics after 60 s.
fn wait_for_metric(service: &SimService, key: &str, want: f64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while service.metrics()[key] != want {
        assert!(std::time::Instant::now() < deadline, "{key} never reached {want}");
        thread::sleep(std::time::Duration::from_millis(1));
    }
}

fn metrics_map(values: [(&str, f64); 13]) -> BTreeMap<String, f64> {
    values.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

/// Pins every `/metrics` key on one scripted event sequence: a cold miss
/// and a warm hit, a quota rejection, a slot wait behind a parked job, a
/// malformed body, a budget-truncated job and a worker-kill failure.
#[test]
fn metrics_report_every_key_exactly_over_a_scripted_session() {
    let mut cfg = test_config("pinned-metrics");
    cfg.run_slots = 1;
    cfg.quotas = TenantQuotas { max_in_flight: 1, max_events_per_job: None };
    let service = Arc::new(SimService::new(cfg));
    let expect = |values| assert_eq!(service.metrics(), metrics_map(values));
    expect([
        ("cache_hits", 0.0),
        ("cache_misses", 0.0),
        ("cache_raced_adopted", 0.0),
        ("cache_recompiled_corrupt", 0.0),
        ("jobs_admitted", 0.0),
        ("jobs_completed", 0.0),
        ("jobs_failed", 0.0),
        ("jobs_rejected", 0.0),
        ("jobs_truncated", 0.0),
        ("slots_capacity", 1.0),
        ("slots_in_use", 0.0),
        ("slots_peak_in_use", 0.0),
        ("slots_waits", 0.0),
    ]);

    // A cold miss, then a warm hit.
    let done = |events: &[JobEvent]| matches!(events.last(), Some(JobEvent::Done { .. }));
    assert!(done(&collect(&service, &adder_request("acme", KernelKind::Sync))));
    assert!(done(&collect(&service, &adder_request("acme", KernelKind::Sync))));

    // Job A parks after `accepted`, holding acme's only quota permit and
    // the only run slot.
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let svc = Arc::clone(&service);
    let a = thread::spawn(move || {
        let mut events = Vec::new();
        svc.submit_request(&adder_request("acme", KernelKind::Sync), &mut |e| {
            if matches!(e, JobEvent::Accepted { .. }) {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            }
            events.push(e);
        });
        events
    });
    started_rx.recv().unwrap();
    // acme is over quota; globex is admitted and waits for the slot.
    let rejected = collect(&service, &adder_request("acme", KernelKind::Sync));
    assert!(matches!(&rejected[..], [JobEvent::Error { code, .. }] if code == "quota-exhausted"));
    let svc = Arc::clone(&service);
    let b = thread::spawn(move || collect(&svc, &adder_request("globex", KernelKind::Sync)));
    wait_for_metric(&service, "slots_waits", 1.0);
    expect([
        ("cache_hits", 2.0),
        ("cache_misses", 1.0),
        ("cache_raced_adopted", 0.0),
        ("cache_recompiled_corrupt", 0.0),
        ("jobs_admitted", 4.0),
        ("jobs_completed", 2.0),
        ("jobs_failed", 1.0),
        ("jobs_rejected", 1.0),
        ("jobs_truncated", 0.0),
        ("slots_capacity", 1.0),
        ("slots_in_use", 1.0),
        ("slots_peak_in_use", 1.0),
        ("slots_waits", 1.0),
    ]);
    release_tx.send(()).unwrap();
    assert!(done(&a.join().unwrap()));
    assert!(done(&b.join().unwrap()));

    // A malformed body fails before admission.
    service.submit("{oops", &mut |_| {});
    // A budget-truncated job.
    let mut truncated = adder_request("acme", KernelKind::Sync);
    truncated.budget = parsim_core::RunBudget::UNLIMITED.with_max_rounds(3);
    let events = collect(&service, &truncated);
    assert!(matches!(events.last(), Some(JobEvent::Done { status, .. }) if status == "truncated"));
    // A worker-kill failure.
    let mut killed = adder_request("acme", KernelKind::Sync);
    killed.fault_kill = Some((1, 2));
    let events = collect(&service, &killed);
    assert!(matches!(events.last(), Some(JobEvent::Error { code, .. }) if code == "worker-panic"));

    expect([
        ("cache_hits", 5.0),
        ("cache_misses", 1.0),
        ("cache_raced_adopted", 0.0),
        ("cache_recompiled_corrupt", 0.0),
        ("jobs_admitted", 6.0),
        ("jobs_completed", 4.0),
        ("jobs_failed", 3.0),
        ("jobs_rejected", 1.0),
        ("jobs_truncated", 1.0),
        ("slots_capacity", 1.0),
        ("slots_in_use", 0.0),
        ("slots_peak_in_use", 1.0),
        ("slots_waits", 1.0),
    ]);
}

/// Every `.parsimc` artifact under `dir`.
fn artifacts(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let entries = std::fs::read_dir(dir).expect("the store exists after a compile");
    let paths = entries.map(|e| e.expect("readable store entry").path());
    paths.filter(|p| p.extension().is_some_and(|x| x == "parsimc")).collect()
}

/// A job's one store load happens before `accepted`: the kernel runs on
/// the blocks that load returned and never reads the store again, so an
/// artifact corrupted after `accepted` stays corrupt until the next job
/// finds it.
#[test]
fn the_job_runs_on_the_blocks_its_accepted_event_reports() {
    const CORRUPT: &[u8] = b"not a parsimc artifact";
    let cfg = test_config("one-load");
    let dir = cfg.cache_dir.clone();
    let service = SimService::new(cfg);
    let req = adder_request("acme", KernelKind::Sync);
    let mut events = Vec::new();
    service.submit_request(&req, &mut |e| {
        if matches!(e, JobEvent::Accepted { .. }) {
            for path in artifacts(&dir) {
                std::fs::write(path, CORRUPT).expect("overwrite the artifact");
            }
        }
        events.push(e);
    });
    assert!(matches!(&events[0], JobEvent::Accepted { cache, .. } if cache == "miss"));
    assert!(
        matches!(events.last(), Some(JobEvent::Done { status, .. }) if status == "complete"),
        "{:?}",
        events.last()
    );

    let circuit = generate::ripple_adder(8, DelayModel::Unit);
    let partition = ConePartitioner.partition(&circuit, 2, &GateWeights::uniform(circuit.len()));
    let direct = ThreadedSyncSimulator::<Logic4>::new(partition)
        .with_observe(Observe::AllNets)
        .try_run(&circuit, &Stimulus::random(42, 10), VirtualTime::new(200))
        .unwrap();
    let mut expected = String::from("net,name,time,value\n");
    for (id, w) in &direct.waveforms {
        let name = circuit.gate(*id).name().unwrap_or("");
        for &(t, v) in w.transitions() {
            expected.push_str(&format!("{},{name},{},{v}\n", id.index(), t.ticks()));
        }
    }
    let streamed = reassemble(&chunk_frames(&events)).expect("stream validates");
    assert_eq!(streamed, expected, "the job ran on the blocks it loaded before `accepted`");

    let stored = artifacts(&dir);
    assert_eq!(stored.len(), 1, "{stored:?}");
    assert!(std::fs::read(&stored[0]).unwrap() == CORRUPT, "the artifact was reloaded");
    let next = collect(&service, &req);
    assert!(
        matches!(&next[0], JobEvent::Accepted { cache, .. } if cache == "recompiled_corrupt"),
        "{:?}",
        next[0]
    );
    let metrics = service.metrics();
    assert_eq!((metrics["cache_misses"], metrics["cache_recompiled_corrupt"]), (1.0, 1.0));
    assert_eq!(metrics["cache_hits"], 0.0, "{metrics:?}");
}
