//! Wire-level integration: real TCP connections against a bound server.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use parsim_server::api::JobEvent;
use parsim_server::http::{client, Server};
use parsim_server::service::{ServiceConfig, SimService};
use parsim_trace::reassemble;

fn start(name: &str) -> (Server, Arc<SimService>) {
    let dir = std::env::temp_dir().join(format!("parsim-http-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServiceConfig::new(dir);
    cfg.chunk_bytes = 512;
    let service = Arc::new(SimService::new(cfg));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind ephemeral port");
    (server, service)
}

fn adder_body(tenant: &str) -> String {
    format!(
        r#"{{"tenant":"{tenant}","generate":{{"kind":"ripple_adder","size":8}},"until":200,"seed":7,"observe":"all"}}"#
    )
}

fn frames(events: &[JobEvent]) -> Vec<parsim_trace::ChunkFrame> {
    events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Chunk(f) => Some(f.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn health_metrics_and_unknown_routes() {
    let (server, _service) = start("routes");
    let (status, body) = client::get(server.addr(), "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = client::get(server.addr(), "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"jobs_admitted\""), "{body}");

    let (status, _) = client::get(server.addr(), "/nope").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn oversized_request_head_is_refused_and_the_server_stays_up() {
    let (server, _service) = start("head");
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // One 1 MiB header line and no end in sight: the server must answer at
    // its head limit instead of buffering the line.
    let flood = thread::spawn(move || {
        let mut head = b"GET /healthz HTTP/1.1\r\nX-Flood: ".to_vec();
        head.resize(head.len() + (1 << 20), b'a');
        // The server hangs up mid-stream, so this write may fail.
        let _ = writer.write_all(&head);
    });
    let mut status_line = String::new();
    BufReader::new(&stream).read_line(&mut status_line).expect("a response, not a hang");
    assert!(
        status_line.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
        "{status_line}"
    );
    flood.join().unwrap();

    let (status, body) = client::get(server.addr(), "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    server.shutdown();
}

#[test]
fn deeply_nested_body_is_a_bad_request_and_the_server_stays_up() {
    let (server, _service) = start("nesting");
    // 100 KB of `[`: parsed by unbounded recursion, this overflows the
    // connection thread's stack and aborts the whole process.
    let events = client::submit_job(server.addr(), &"[".repeat(100 * 1024)).unwrap();
    match &events[..] {
        [JobEvent::Error { code, message }] => {
            assert_eq!(code, "bad-request");
            assert!(message.contains("at byte"), "{message}");
        }
        other => panic!("expected one bad-request error, got {other:?}"),
    }
    let (status, body) = client::get(server.addr(), "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    server.shutdown();
}

#[test]
fn submit_stream_complete_over_tcp() {
    let (server, service) = start("submit");
    let events = client::submit_job(server.addr(), &adder_body("acme")).unwrap();

    assert!(matches!(&events[0], JobEvent::Accepted { cache, .. } if cache == "miss"));
    let text = reassemble(&frames(&events)).expect("chunked stream validates end to end");
    assert!(text.starts_with("net,name,time,value\n"));
    assert!(text.lines().count() > 1, "observe:all must record transitions");
    match events.last().unwrap() {
        JobEvent::Done { status, end_time, .. } => {
            assert_eq!((status.as_str(), *end_time), ("complete", 200));
        }
        other => panic!("expected done, got {other:?}"),
    }

    // The run is visible in the service metrics both in-process and on the wire.
    assert_eq!(service.metrics()["jobs_completed"], 1.0);
    let (_, metrics) = client::get(server.addr(), "/metrics").unwrap();
    assert!(metrics.contains("\"jobs_completed\":1"), "{metrics}");
    server.shutdown();
}

#[test]
fn truncated_and_failed_jobs_are_structured_not_hung() {
    let (server, _service) = start("failure");

    // Budget truncation: a valid, short stream ending in done/truncated.
    let truncated = r#"{"tenant":"acme","generate":{"kind":"ripple_adder","size":8},"until":200,"observe":"all","budget":{"max_rounds":3}}"#;
    let events = client::submit_job(server.addr(), truncated).unwrap();
    match events.last().unwrap() {
        JobEvent::Done { status, end_time, .. } => {
            assert_eq!(status, "truncated");
            assert!(*end_time < 200);
        }
        other => panic!("expected truncated done, got {other:?}"),
    }
    reassemble(&frames(&events)).expect("partial results still validate");

    // Worker death: terminal structured error, connection closes cleanly
    // (submit_job would hit its socket timeout if the server hung).
    let killed = r#"{"tenant":"acme","generate":{"kind":"ripple_adder","size":8},"until":200,"fault_kill":{"worker":1,"round":2}}"#;
    let events = client::submit_job(server.addr(), killed).unwrap();
    assert!(
        matches!(events.last().unwrap(), JobEvent::Error { code, .. } if code == "worker-panic"),
        "{events:?}"
    );

    // Malformed JSON: immediate terminal error.
    let events = client::submit_job(server.addr(), "{oops").unwrap();
    assert!(
        matches!(&events[..], [JobEvent::Error { code, .. }] if code == "bad-request"),
        "{events:?}"
    );
    server.shutdown();
}

#[test]
fn concurrent_clients_all_stream_to_completion() {
    let (server, service) = start("concurrent");
    let addr = server.addr();
    let handles: Vec<_> = (0..3)
        .map(|i| {
            thread::spawn(move || client::submit_job(addr, &adder_body(&format!("tenant-{i}"))))
        })
        .collect();
    for h in handles {
        let events = h.join().unwrap().expect("transport ok");
        assert!(
            matches!(events.last().unwrap(), JobEvent::Done { status, .. } if status == "complete"),
            "{events:?}"
        );
        reassemble(&frames(&events)).expect("every client's stream validates");
    }
    let metrics = service.metrics();
    assert_eq!(metrics["jobs_completed"], 3.0, "{metrics:?}");
    // Shared store: at most one client compiled, the rest hit.
    assert!(metrics["cache_hits"] >= 1.0, "{metrics:?}");
    server.shutdown();
}
