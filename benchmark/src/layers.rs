//! Unit costs of single layers, from short loops over a workload's own
//! generated inputs (traced pass only).
//!
//! Each loop times calls into one crate's public functions. A unit cost
//! times the matching count (`runtime.barrier_rt_ns` × `sync.rounds`,
//! `compile.load_us` × one per cached run, ...) is that layer's predicted
//! share of an operation; a layer whose count is 0 on a workload cannot
//! move that workload.

use std::hint::black_box;
use std::time::Instant;

use parsim::compile::{compile_blocks, execute_full, execute_sparse, GateSlices};
use parsim::netlist::GateId;
use parsim::prelude::*;
use parsim::runtime::{run_workers, MailboxMesh, Mesh, MutexedMesh, RoundBarrier};
use parsim::trace::analysis::queue_depth_summary;
use parsim::trace::{ChunkWriter, DEFAULT_CHUNK_BYTES};
use parsim_server::json;
use parsim_server::{
    JobEvent, JobRequest, KernelKind, NetlistSpec, ObserveSpec, QuotaLedger, RunSlots, TenantQuotas,
};

use crate::inputs;
use crate::stats::median;
use crate::workloads::{cone, lp_of, Scratch, Subject, Workload};

type Out = Vec<(&'static str, f64)>;

/// Median nanoseconds of `reps` calls of `f`.
fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Every unit-cost loop, over `subject`.
pub fn unit_costs(subject: &Subject<'_>, seed: u64, out: &mut Out) {
    let circuit = subject.circuit;
    front_end(subject, out);
    executors(subject, out);
    event_queues(subject, seed, out);
    fabric(out);
    service_edges(subject, out);
    out.push(("core.seq_events", subject.reference.stats.events_processed as f64));
    out.push(("core.seq_gate_evals", subject.reference.stats.gate_evaluations as f64));

    let lanes = PackedStimulus::new(vec![subject.stimulus.clone(); 64]);
    let until = VirtualTime::new(subject.until);
    let mut word_evals = 1;
    let ns = median_ns(3, || {
        word_evals = BitSimulator::<PackedLogic4>::new()
            .run(circuit, &lanes, until)
            .stats
            .gate_evaluations
            .max(1);
    });
    out.push(("bitsim.ns_per_lane_eval", ns / (64 * word_evals) as f64));
}

/// Parse, hash, partition, lower, store, load: what a job crosses before
/// its first round, and a cached run pays in part every time.
fn front_end(subject: &Subject<'_>, out: &mut Out) {
    let (circuit, workers) = (subject.circuit, subject.workers);
    let text = bench::write(circuit);
    out.push((
        "netlist.parse_us",
        median_ns(5, || bench::parse("job", &text, DelayModel::Unit)) / 1e3,
    ));
    out.push(("netlist.hash_us", median_ns(5, || circuit.netlist_hash()) / 1e3));
    let mut partition = None;
    let cone_ns = median_ns(3, || partition = Some(cone(circuit, workers)));
    out.push(("partition.cone_us", cone_ns / 1e3));
    let partition = partition.expect("median_ns ran the closure");

    let lp_of = lp_of(circuit, &partition);
    let mut blocks = Vec::new();
    let lower_ns = median_ns(5, || blocks = compile_blocks(circuit, &lp_of, workers));
    out.push(("compile.lower_us", lower_ns / 1e3));
    let dir = Scratch::new("layers");
    let store = ArtifactStore::new(dir.path());
    let key = ArtifactStore::cache_key(circuit, &lp_of, workers);
    out.push(("compile.store_us", median_ns(5, || store.store(key, &blocks)) / 1e3));
    out.push(("compile.load_us", median_ns(5, || store.load(key)) / 1e3));
    let bytes = std::fs::metadata(store.path_of(key)).map_or(0, |m| m.len());
    out.push(("compile.artifact_bytes_per_gate", bytes as f64 / circuit.len() as f64));
    out.push((
        "runtime.fabric_new_us",
        median_ns(5, || Fabric::new(circuit, &partition, 1, Observe::Outputs)) / 1e3,
    ));
}

/// The interpreted evaluator and the two compiled executors over the
/// reference run's final net values.
fn executors(subject: &Subject<'_>, out: &mut Out) {
    let circuit = subject.circuit;
    let values = &subject.reference.final_values;
    let gates: Vec<GateId> = circuit.ids().filter(|&id| !circuit.kind(id).is_source()).collect();
    let n = circuit.len();

    let mut runtime = vec![GateRuntime::<Logic4>::default(); n];
    let ns = median_ns(20, || {
        for &id in &gates {
            black_box(evaluate_gate(
                circuit,
                id,
                &mut |g| values[g.index()],
                &mut runtime[id.index()],
            ));
        }
    });
    out.push(("core.eval_ns_per_gate", ns / gates.len() as f64));

    let block = CompiledBlock::compile(circuit);
    let (mut q, mut prev_clk, mut last_driven) =
        (vec![Logic4::ZERO; n], vec![Logic4::ZERO; n], vec![Logic4::ZERO; n]);
    let mut emitted = 0u64;
    let ns = median_ns(20, || {
        let state =
            GateSlices { q: &mut q, prev_clk: &mut prev_clk, last_driven: &mut last_driven };
        execute_full(&block, values, state, &mut |_, _, _| emitted += 1);
    });
    out.push(("compile.full_ns_per_eval", ns / block.ops().len() as f64));

    // A fixed dirty set: every eighth evaluating gate, ascending.
    let dirty: Vec<GateId> = gates.iter().copied().step_by(8).collect();
    let ns = median_ns(20, || {
        let state =
            GateSlices { q: &mut q, prev_clk: &mut prev_clk, last_driven: &mut last_driven };
        execute_sparse(&block, &dirty, values, state, &mut |_, _, _| emitted += 1);
    });
    black_box(emitted);
    out.push(("compile.sparse_ns_per_eval", ns / dirty.len() as f64));
}

/// Hold model (pop one, push one later) at the mean pending-event depth
/// the sequential kernel sees on this subject.
fn event_queues(subject: &Subject<'_>, seed: u64, out: &mut Out) {
    let probe = Probe::enabled();
    SequentialSimulator::<Logic4>::new()
        .with_observe(Observe::Nothing)
        .with_probe(probe.clone())
        .run(subject.circuit, subject.stimulus, VirtualTime::new(subject.until));
    let depth = (queue_depth_summary(&probe.take_trace()).mean_depth as usize).max(1);
    let nets = subject.circuit.len() as u64;

    fn hold<Q: EventQueue<Logic4>>(mut queue: Q, depth: usize, nets: u64, mut rng: u64) -> f64 {
        const HOLDS: usize = 200_000;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..depth {
            let r = next();
            queue.push(Event::new(
                VirtualTime::new(r % 16),
                GateId::new((r >> 8) as usize % nets as usize),
                Logic4::ONE,
            ));
        }
        let start = Instant::now();
        for _ in 0..HOLDS {
            let e = queue.pop().expect("hold model keeps the depth constant");
            let r = next();
            let later = VirtualTime::new(e.time.ticks() + 1 + r % 16);
            queue.push(Event::new(
                later,
                GateId::new((r >> 8) as usize % nets as usize),
                Logic4::ONE,
            ));
        }
        black_box(queue.len());
        start.elapsed().as_nanos() as f64 / (2 * HOLDS) as f64
    }
    let rng = inputs::derive(seed, "hold", 0) | 1;
    out.push(("event.heap_ns_per_op", hold(BinaryHeapQueue::new(), depth, nets, rng)));
    out.push(("event.calendar_ns_per_op", hold(CalendarQueue::new(), depth, nets, rng)));
    out.push(("event.pairing_ns_per_op", hold(PairingHeapQueue::new(), depth, nets, rng)));
}

/// The runtime's primitives with nothing to do: thread dispatch, an empty
/// two-worker barrier round, and an uncontended post + drain on both
/// meshes at the `Outbox` batch grain (64) and unbatched (1).
fn fabric(out: &mut Out) {
    out.push(("runtime.pool_dispatch_us", median_ns(21, || run_workers(2, |p| p)) / 1e3));

    const ROUNDS: u32 = 10_000;
    let barrier = RoundBarrier::new(2);
    let start = Instant::now();
    run_workers(2, |_| {
        for _ in 0..ROUNDS {
            barrier.wait(None).expect("nobody aborts this barrier");
        }
    });
    out.push(("runtime.barrier_rt_ns", start.elapsed().as_nanos() as f64 / f64::from(ROUNDS)));

    fn per_msg(mesh: &impl Mesh<(u64, u64)>, batch: usize) -> f64 {
        const MESSAGES: usize = 1 << 18;
        let (mut outbox, mut inbox) = (Vec::with_capacity(batch), Vec::with_capacity(batch));
        let start = Instant::now();
        for i in 0..MESSAGES / batch {
            outbox.extend((0..batch).map(|k| (i as u64, k as u64)));
            mesh.post(0, 1, &mut outbox);
            mesh.drain_into(1, &mut inbox);
            black_box(inbox.len());
            inbox.clear();
        }
        start.elapsed().as_nanos() as f64 / MESSAGES as f64
    }
    let ring = MailboxMesh::sized_for_burst(2, 64);
    let mutexed = MutexedMesh::new(2);
    out.push(("runtime.mesh_batched_ns_per_msg", per_msg(&ring, 64)));
    out.push(("runtime.mesh_single_ns_per_msg", per_msg(&ring, 1)));
    out.push(("runtime.mutexed_batched_ns_per_msg", per_msg(&mutexed, 64)));
    out.push(("runtime.mutexed_single_ns_per_msg", per_msg(&mutexed, 1)));
}

/// The service's edges on a job that carries this subject as `.bench`
/// text: body parse and decode, waveform encode, event render, and the
/// admission and run-slot gates with nobody else in them.
fn service_edges(subject: &Subject<'_>, out: &mut Out) {
    let body = JobRequest {
        tenant: "bench".into(),
        netlist: NetlistSpec::Bench(bench::write(subject.circuit)),
        kernel: KernelKind::Sync,
        workers: subject.workers,
        until: subject.until,
        seed: 1,
        interval: inputs::STIM_INTERVAL,
        observe: ObserveSpec::Outputs,
        budget: RunBudget::UNLIMITED,
        fault_kill: None,
    }
    .to_json();
    out.push(("server.json_parse_us", median_ns(5, || json::parse(&body)) / 1e3));
    out.push(("server.decode_us", median_ns(5, || JobRequest::from_json(&body)) / 1e3));

    let csv = inputs::waveform_csv(subject.circuit, subject.reference);
    let lines: Vec<&str> = csv.lines().collect();
    let passes = 20_000usize.div_ceil(lines.len());
    let mut events = Vec::new();
    let ns = median_ns(3, || {
        for _ in 0..passes {
            events.clear();
            let mut writer =
                ChunkWriter::new(DEFAULT_CHUNK_BYTES, |f| events.push(JobEvent::Chunk(f)));
            lines.iter().for_each(|l| writer.push_line(l));
            writer.finish();
        }
    });
    out.push(("trace.chunk_ns_per_line", ns / (passes * lines.len()) as f64));
    // All events of one job: `accepted`, its chunks, `done`.
    events.insert(0, JobEvent::Accepted { job_id: 1, cache: "hit".into() });
    events.push(JobEvent::Done {
        job_id: 1,
        status: "complete".into(),
        end_time: subject.until,
        events: subject.reference.stats.events_processed,
        rounds: subject.until,
        wall_ms: 1.0,
    });
    out.push((
        "server.render_us",
        median_ns(5, || events.iter().map(JobEvent::render).collect::<Vec<_>>()) / 1e3,
    ));

    const GATES: u32 = 100_000;
    let (ledger, quotas) = (QuotaLedger::new(), TenantQuotas::default());
    let ns = median_ns(3, || {
        for _ in 0..GATES {
            black_box(ledger.admit("bench", &quotas).expect("one job in flight is under quota"));
        }
    });
    out.push(("server.admit_ns", ns / f64::from(GATES)));
    let slots = RunSlots::new(2);
    let ns = median_ns(3, || {
        for _ in 0..GATES {
            black_box(slots.acquire());
        }
    });
    out.push(("server.slot_ns", ns / f64::from(GATES)));
}

/// The existing `with_probe(Probe::enabled())` API on the workload's own
/// kernel: probed ÷ unprobed wall (the ≤ 1.05 budget row), and for the
/// threaded kernels the share of worker time spent blocked at barriers
/// and the messages that overflowed a ring.
pub fn probe_rows(workload: &dyn Workload, out: &mut Out) {
    let (mut plain, mut probed) = (Vec::new(), Vec::new());
    let (mut barrier_ns, mut spills) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        plain.push(workload.probed_run(Probe::disabled()) as f64);
        let probe = Probe::enabled();
        let wall = workload.probed_run(probe.clone()) as f64;
        probed.push(wall);
        let trace = probe.take_trace();
        // Host-time spans only exist on the threaded kernels' timelines.
        let threaded =
            trace.count(TraceKind::BarrierWait) > 0 && trace.count(TraceKind::Charge) == 0;
        let blocked = if threaded { trace.sum_arg(TraceKind::BarrierWait) as f64 } else { 0.0 };
        barrier_ns.push(blocked / (wall * workload.subject().workers as f64));
        spills.push(trace.sum_arg(TraceKind::RingSpill) as f64);
    }
    out.push(("trace.probe_overhead_ratio", median(&probed) / median(&plain)));
    out.push(("runtime.barrier_wait_share", median(&barrier_ns)));
    out.push(("runtime.ring_spills", median(&spills)));
}
