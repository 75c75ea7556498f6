//! **E16: Simulation service under load** — jobs/sec and latency
//! percentiles vs concurrent client count, over real TCP against the
//! multi-tenant server.
//!
//! ```sh
//! cargo run --release -p parsim-bench --bin exp_server > results/exp_server.txt
//! ```
//!
//! One in-process [`Server`] (4 run slots, shared artifact store) serves
//! every phase; clients are real sockets driving `POST /jobs`, so each
//! measured latency includes HTTP framing, JSON parsing, admission,
//! scheduling, the fabric run and the chunked waveform stream back.
//!
//! Three phases:
//!
//! - `cold` / `warm` — the same circuit submitted against an empty then
//!   a populated artifact store: the gap is the compile time the shared
//!   cache deletes for every later tenant. The `cache` column carries
//!   the store outcome label the job's `accepted` event reported.
//! - `load` — `clients` concurrent connections each submitting a stream
//!   of jobs back to back; reports sustained jobs/sec and client-visible
//!   p50/p99 latency. Every job's event stream is validated (chunk
//!   checksums, sequence, terminal event) before it counts.
//! - `guardrail` — one budget-truncated job and one injected worker
//!   kill, proving both surface as *structured* terminal events under
//!   load rather than hangs (a hang would blow the client socket
//!   timeout and fail the run).

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use parsim_bench::{f2, Table};
use parsim_server::api::JobEvent;
use parsim_server::http::{client, Server};
use parsim_server::service::{ServiceConfig, SimService};
use parsim_server::TenantQuotas;
use parsim_trace::reassemble;

/// Concurrent client counts for the load phase.
const CLIENTS: [usize; 4] = [1, 2, 4, 8];
/// Jobs each client submits back to back.
const JOBS_PER_CLIENT: usize = 6;
/// Warm-latency sample count for the cold/warm phase.
const WARM_SAMPLES: usize = 5;

fn job_body(tenant: &str) -> String {
    format!(
        r#"{{"tenant":"{tenant}","generate":{{"kind":"ripple_adder","size":32}},"kernel":"sync","workers":2,"until":2000,"seed":11,"interval":10,"observe":"outputs"}}"#
    )
}

/// Submits one job, validates the whole stream, and returns
/// (latency_ms, cache_label, status).
fn run_job(addr: std::net::SocketAddr, tenant: &str, body: &str) -> (f64, String, String) {
    let start = Instant::now();
    let events = client::submit_job(addr, body)
        .unwrap_or_else(|e| panic!("job for {tenant} failed on the wire: {e}"));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let cache = match events.first() {
        Some(JobEvent::Accepted { cache, .. }) => cache.clone(),
        other => panic!("stream must open with accepted, got {other:?}"),
    };
    let frames: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Chunk(f) => Some(f.clone()),
            _ => None,
        })
        .collect();
    let status = match events.last() {
        Some(JobEvent::Done { status, .. }) => {
            reassemble(&frames).expect("chunk stream must validate");
            status.clone()
        }
        Some(JobEvent::Error { code, .. }) => format!("error:{code}"),
        other => panic!("stream must end terminally, got {other:?}"),
    };
    (ms, cache, status)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

fn main() {
    let cache_dir = std::env::temp_dir().join(format!("parsim-e16-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut cfg = ServiceConfig::new(&cache_dir);
    cfg.run_slots = 4;
    cfg.quotas = TenantQuotas { max_in_flight: 4, max_events_per_job: None };
    let service = Arc::new(SimService::new(cfg));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let addr = server.addr();

    let mut table = Table::new(&[
        "series",
        "clients",
        "jobs",
        "complete",
        "truncated",
        "failed",
        "cache",
        "jobs_per_s",
        "p50_ms",
        "p99_ms",
    ]);

    // --- cold vs warm ------------------------------------------------
    let (cold_ms, cold_cache, cold_status) = run_job(addr, "bench", &job_body("bench"));
    assert_eq!(cold_status, "complete");
    table.row(&[
        "cold".into(),
        "1".into(),
        "1".into(),
        "1".into(),
        "0".into(),
        "0".into(),
        cold_cache,
        f2(1e3 / cold_ms),
        f2(cold_ms),
        f2(cold_ms),
    ]);
    let mut warm: Vec<f64> = Vec::new();
    let mut warm_cache = String::new();
    for _ in 0..WARM_SAMPLES {
        let (ms, cache, status) = run_job(addr, "bench", &job_body("bench"));
        assert_eq!(status, "complete");
        warm.push(ms);
        warm_cache = cache;
    }
    warm.sort_by(f64::total_cmp);
    table.row(&[
        "warm".into(),
        "1".into(),
        warm.len().to_string(),
        warm.len().to_string(),
        "0".into(),
        "0".into(),
        warm_cache,
        f2(1e3 / percentile(&warm, 0.5)),
        f2(percentile(&warm, 0.5)),
        f2(percentile(&warm, 0.99)),
    ]);
    println!(
        "cold {} ms vs warm p50 {} ms (shared store deletes the compile)",
        f2(cold_ms),
        f2(percentile(&warm, 0.5))
    );

    // --- load sweep --------------------------------------------------
    for &clients in &CLIENTS {
        let wall = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                thread::spawn(move || {
                    let tenant = format!("tenant-{c}");
                    let body = job_body(&tenant);
                    (0..JOBS_PER_CLIENT).map(|_| run_job(addr, &tenant, &body)).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut lat: Vec<f64> = Vec::new();
        let mut complete = 0u64;
        for h in handles {
            for (ms, _, status) in h.join().expect("client thread") {
                assert_eq!(status, "complete", "load jobs must all complete");
                lat.push(ms);
                complete += 1;
            }
        }
        let wall_s = wall.elapsed().as_secs_f64();
        lat.sort_by(f64::total_cmp);
        table.row(&[
            "load".into(),
            clients.to_string(),
            lat.len().to_string(),
            complete.to_string(),
            "0".into(),
            "0".into(),
            "hit".into(),
            f2(lat.len() as f64 / wall_s),
            f2(percentile(&lat, 0.5)),
            f2(percentile(&lat, 0.99)),
        ]);
    }

    // --- guardrails under the same server ----------------------------
    let truncated_body = r#"{"tenant":"guard","generate":{"kind":"ripple_adder","size":32},"kernel":"sync","workers":2,"until":2000,"observe":"outputs","budget":{"max_rounds":5}}"#;
    let (trunc_ms, _, trunc_status) = run_job(addr, "guard", truncated_body);
    assert_eq!(trunc_status, "truncated", "budget must bind");
    let killed_body = r#"{"tenant":"guard","generate":{"kind":"ripple_adder","size":32},"kernel":"sync","workers":2,"until":2000,"fault_kill":{"worker":1,"round":3}}"#;
    let (kill_ms, _, kill_status) = run_job(addr, "guard", killed_body);
    assert_eq!(kill_status, "error:worker-panic", "kill must be structured, not a hang");
    table.row(&[
        "guardrail".into(),
        "1".into(),
        "2".into(),
        "0".into(),
        "1".into(),
        "1".into(),
        "hit".into(),
        f2(2e3 / (trunc_ms + kill_ms)),
        f2(trunc_ms.min(kill_ms)),
        f2(trunc_ms.max(kill_ms)),
    ]);

    let metrics = service.metrics();
    println!(
        "server metrics: admitted {} completed {} truncated {} failed {} cache hit/miss {}/{} slot peak {}",
        metrics["jobs_admitted"],
        metrics["jobs_completed"],
        metrics["jobs_truncated"],
        metrics["jobs_failed"],
        metrics["cache_hits"],
        metrics["cache_misses"],
        metrics["slots_peak_in_use"],
    );
    assert!(metrics["slots_peak_in_use"] <= 4.0, "run pool must bound concurrency");

    table.finish("exp_server");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
