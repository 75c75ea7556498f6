//! Metric tables, result files, and `--compare`.
//!
//! The tables here are the binary's copy of `BENCHMARK.json`; a unit test
//! keeps the two identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use parsim_server::json::{self, obj, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric. `bound` is the share of the base value by which it
/// may worsen before `--compare` says `worse`; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// Measured with tracing off; every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    e2e("events_per_s", "1/s", Higher, 0.25),
    e2e("gate_evals_per_s", "1/s", Higher, 0.25),
    e2e("lane_evals_per_s", "1/s", Higher, 0.25),
    e2e("job_p50_ms", "ms", Lower, 0.25),
    e2e("first_chunk_p50_ms", "ms", Lower, 0.25),
    e2e("modeled_speedup_sync", "x", Higher, 0.2),
    e2e("modeled_speedup_cmb", "x", Higher, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Measured in the traced pass; `crate.metric`; never gating. A layer a
/// workload does not cross reports 0.
pub const PER_LAYER: &[Metric] = &[
    layer("netlist.parse_us", "us", Lower),
    layer("netlist.hash_us", "us", Lower),
    layer("partition.cone_us", "us", Lower),
    layer("partition.cut_nets", "count", Lower),
    layer("compile.lower_us", "us", Lower),
    layer("compile.store_us", "us", Lower),
    layer("compile.load_us", "us", Lower),
    layer("compile.sparse_ns_per_eval", "ns", Lower),
    layer("compile.full_ns_per_eval", "ns", Lower),
    layer("compile.artifact_bytes_per_gate", "B/gate", Lower),
    layer("bitsim.ns_per_lane_eval", "ns", Lower),
    layer("core.eval_ns_per_gate", "ns", Lower),
    layer("core.seq_events", "count", Lower),
    layer("core.seq_gate_evals", "count", Lower),
    layer("event.heap_ns_per_op", "ns", Lower),
    layer("event.calendar_ns_per_op", "ns", Lower),
    layer("event.pairing_ns_per_op", "ns", Lower),
    layer("runtime.fabric_new_us", "us", Lower),
    layer("runtime.pool_dispatch_us", "us", Lower),
    layer("runtime.barrier_rt_ns", "ns", Lower),
    layer("runtime.mesh_batched_ns_per_msg", "ns", Lower),
    layer("runtime.mesh_single_ns_per_msg", "ns", Lower),
    layer("runtime.mutexed_batched_ns_per_msg", "ns", Lower),
    layer("runtime.mutexed_single_ns_per_msg", "ns", Lower),
    layer("runtime.barrier_wait_share", "ratio", Lower),
    layer("runtime.ring_spills", "count", Lower),
    layer("trace.chunk_ns_per_line", "ns", Lower),
    layer("trace.probe_overhead_ratio", "x", Lower),
    layer("trace.op_overhead_ratio", "x", Lower),
    layer("sync.rounds", "count", Lower),
    layer("sync.messages", "count", Lower),
    layer("sync.modeled_host_ms", "ms", Lower),
    layer("conservative.rounds", "count", Lower),
    layer("conservative.messages", "count", Lower),
    layer("conservative.null_messages", "count", Lower),
    layer("conservative.null_ratio", "ratio", Lower),
    layer("conservative.modeled_host_ms", "ms", Lower),
    layer("optimistic.rounds", "count", Lower),
    layer("optimistic.rollbacks", "count", Lower),
    layer("optimistic.events_rolled_back", "count", Lower),
    layer("optimistic.commit_ratio", "ratio", Higher),
    layer("optimistic.anti_messages", "count", Lower),
    layer("optimistic.state_bytes_saved", "B", Lower),
    layer("optimistic.gvt_rounds", "count", Lower),
    layer("optimistic.modeled_host_ms", "ms", Lower),
    layer("machine.work_units", "units", Lower),
    layer("machine.makespan_sync", "units", Lower),
    layer("machine.makespan_cmb", "units", Lower),
    layer("machine.makespan_tw", "units", Lower),
    layer("machine.speedup_tw", "x", Higher),
    layer("server.json_parse_us", "us", Lower),
    layer("server.decode_us", "us", Lower),
    layer("server.render_us", "us", Lower),
    layer("server.admit_ns", "ns", Lower),
    layer("server.slot_ns", "ns", Lower),
    layer("server.submit_inproc_ms", "ms", Lower),
    layer("server.run_ms", "ms", Lower),
    layer("server.transport_ms", "ms", Lower),
    layer("server.unattributed_ms", "ms", Lower),
    layer("server.stream_bytes", "B", Lower),
    layer("server.chunks", "count", Lower),
    layer("server.cache_hit_ratio", "ratio", Higher),
    layer("host.peak_heap_mb", "MB", Lower),
];

/// Simulated statistics and exact counts: at equal seed they repeat
/// exactly, so `--compare` reports any change (it is not a verdict on
/// speed and never fails the comparison).
const EXACT: &[&str] = &[
    "modeled_speedup_sync",
    "modeled_speedup_cmb",
    "machine.work_units",
    "machine.makespan_sync",
    "machine.makespan_cmb",
    "machine.makespan_tw",
    "machine.speedup_tw",
    "partition.cut_nets",
    "core.seq_events",
    "core.seq_gate_evals",
    "compile.artifact_bytes_per_gate",
    "sync.rounds",
    "sync.messages",
    "conservative.rounds",
];

/// What one workload measured in one invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    /// Empty when the pass did not run.
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
}

impl WorkloadResult {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn metrics_json(table: &[Metric], values: &[(&'static str, f64)]) -> Json {
    let by_name: BTreeMap<&str, f64> = values.iter().copied().collect();
    Json::Obj(
        table
            .iter()
            .map(|m| {
                let value = finite(by_name.get(m.name).copied().unwrap_or(0.0));
                (
                    m.name.to_owned(),
                    obj(vec![("value", Json::Num(value)), ("unit", Json::Str(m.unit.into()))]),
                )
            })
            .collect(),
    )
}

/// The one-line result object of the run contract: exactly `correct`,
/// `attempted`, `failed` and `metrics` (every end-to-end metric, or with
/// `traced` every per-layer metric).
pub fn contract_line(r: &WorkloadResult, traced: bool) -> String {
    let (table, values) =
        if traced { (PER_LAYER, &r.per_layer) } else { (END_TO_END, &r.end_to_end) };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.failed == 0 && r.attempted > 0,
        r.attempted,
        r.failed,
        metrics_json(table, values).render()
    )
}

/// The result file `--compare` reads back.
pub fn result_file(meta: &[(&str, Json)], results: &[WorkloadResult]) -> String {
    let workloads = results
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("attempted", Json::Num(r.attempted as f64)),
                ("failed", Json::Num(r.failed as f64)),
                ("failed_share", Json::Num(r.failed_share())),
            ];
            if !r.end_to_end.is_empty() {
                fields.push(("end_to_end", metrics_json(END_TO_END, &r.end_to_end)));
            }
            if !r.per_layer.is_empty() {
                fields.push(("per_layer", metrics_json(PER_LAYER, &r.per_layer)));
            }
            (r.name.clone(), obj(fields))
        })
        .collect();
    obj(vec![
        ("meta", obj(meta.to_vec())),
        ("claim", Json::Null),
        ("workloads", Json::Obj(workloads)),
    ])
    .render()
}

/// The table printed for people: every metric by name, with its unit.
pub fn render_table(r: &WorkloadResult) -> String {
    let mut out = format!(
        "== {}: {} ops attempted, {} failed (failed_share {})\n",
        r.name,
        r.attempted,
        r.failed,
        r.failed_share()
    );
    for (table, values) in [(END_TO_END, &r.end_to_end), (PER_LAYER, &r.per_layer)] {
        for (name, value) in values {
            let unit = table.iter().find(|m| m.name == *name).map_or("", |m| m.unit);
            let _ = writeln!(out, "  {name:<36} {value:>16.4} {unit}");
        }
    }
    out
}

/// `ok`, `worse` or `better`: `new` against `base` under `m`'s bound.
pub fn verdict(m: &Metric, base: f64, new: f64) -> &'static str {
    let (worse, better) = match m.better {
        Better::Lower => (new > base * (1.0 + m.bound), new < base * (1.0 - m.bound)),
        Better::Higher => (new < base * (1.0 - m.bound), new > base * (1.0 + m.bound)),
    };
    if worse {
        "worse"
    } else if better {
        "better"
    } else {
        "ok"
    }
}

fn value_at(workload: &Json, section: &str, metric: &str) -> Option<f64> {
    workload.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// Compares two result files: per workload × end-to-end metric both
/// values, the ratio with its base, the bound and a verdict. Returns the
/// report and whether anything got worse.
pub fn compare(base_text: &str, new_text: &str) -> Result<(String, bool), String> {
    let (base, new) = (json::parse(base_text)?, json::parse(new_text)?);
    let seed = |f: &Json| {
        f.get("meta").and_then(|m| m.get("seed")).and_then(Json::as_str).map(str::to_owned)
    };
    let same_seed = seed(&base).is_some() && seed(&base) == seed(&new);
    let Some(Json::Obj(base_workloads)) = base.get("workloads") else {
        return Err("base file has no `workloads` object".into());
    };
    let mut out = format!(
        "{:<18} {:<22} {:>16} {:>16} {:>22} {:>6}  verdict\n",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut any_worse = false;
    for (name, b) in base_workloads {
        let Some(n) = new.get("workloads").and_then(|w| w.get(name)) else {
            let _ = writeln!(out, "{name:<18} missing from the new file");
            any_worse = true;
            continue;
        };
        for m in END_TO_END {
            let (Some(bv), Some(nv)) =
                (value_at(b, "end_to_end", m.name), value_at(n, "end_to_end", m.name))
            else {
                continue;
            };
            let v = verdict(m, bv, nv);
            any_worse |= v == "worse";
            let ratio = format!("{:.4} (base {bv:.4})", nv / bv);
            let _ = writeln!(
                out,
                "{name:<18} {:<22} {bv:>16.4} {nv:>16.4} {ratio:>22} {:>5.0}%  {v}",
                m.name,
                m.bound * 100.0
            );
        }
        let share = |w: &Json| w.get("failed_share").and_then(Json::as_f64).unwrap_or(0.0);
        let v = if share(n) > share(b) { "worse" } else { "ok" };
        any_worse |= v == "worse";
        let _ = writeln!(
            out,
            "{name:<18} {:<22} {:>16.4} {:>16.4} {:>22} {:>5.0}%  {v}",
            "failed_share",
            share(b),
            share(n),
            "-",
            0.0
        );
        if same_seed {
            for metric in EXACT {
                let at = |w: &Json| {
                    value_at(w, "end_to_end", metric).or_else(|| value_at(w, "per_layer", metric))
                };
                if let (Some(bv), Some(nv)) = (at(b), at(n)) {
                    if bv != nv {
                        let _ = writeln!(
                            out,
                            "{name:<18} {metric:<22} {bv:>16.4} {nv:>16.4} changed at equal seed"
                        );
                    }
                }
            }
        }
    }
    if !same_seed {
        out.push_str("seeds differ: exact counts and simulated statistics not compared\n");
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(events_per_s: f64, p50: f64, failed: u64) -> WorkloadResult {
        WorkloadResult {
            name: "seq_dag10k".into(),
            attempted: 100,
            failed,
            end_to_end: vec![
                ("events_per_s", events_per_s),
                ("job_p50_ms", p50),
                ("modeled_speedup_sync", 1.65),
            ],
            per_layer: vec![("sync.rounds", 150.0)],
        }
    }

    fn file(r: &WorkloadResult) -> String {
        result_file(&[("seed", Json::Str("190".into()))], std::slice::from_ref(r))
    }

    #[test]
    fn result_file_round_trips_through_compare() {
        let base = file(&result(2.0e6, 50.0, 0));
        let (report, worse) = compare(&base, &base).expect("own output parses");
        assert!(!worse, "{report}");
        assert!(
            report.contains("events_per_s")
                && report.contains("job_p50_ms")
                && report.contains("failed_share")
        );
        assert!(!report.contains("changed at equal seed"));

        // Throughput down 30 % against a 25 % bound, latency within bound.
        let (report, worse) = compare(&base, &file(&result(1.4e6, 52.0, 0))).unwrap();
        assert!(worse);
        let line = |m: &str| report.lines().find(|l| l.contains(m)).unwrap().to_owned();
        assert!(
            line("events_per_s").ends_with("worse") && line("job_p50_ms").ends_with("ok"),
            "{report}"
        );

        // Faster beyond the bound is `better`; a new failure is `worse`.
        let (report, worse) = compare(&base, &file(&result(2.0e6, 30.0, 1))).unwrap();
        assert!(worse && report.contains("better"), "{report}");
        assert!(report.lines().any(|l| l.contains("failed_share") && l.ends_with("worse")));
    }

    #[test]
    fn exact_rows_are_reported_only_at_equal_seed() {
        let base = result(2.0e6, 50.0, 0);
        let mut moved = base.clone();
        moved.per_layer = vec![("sync.rounds", 151.0)];
        let (report, worse) = compare(&file(&base), &file(&moved)).unwrap();
        assert!(!worse && report.contains("changed at equal seed"), "{report}");
        let other_seed = result_file(&[("seed", Json::Str("7".into()))], &[moved]);
        let (report, _) = compare(&file(&base), &other_seed).unwrap();
        assert!(report.contains("seeds differ") && !report.contains("changed at equal seed"));
    }

    #[test]
    fn contract_line_has_exactly_the_declared_metrics() {
        let r = result(2.0e6, 50.0, 0);
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let v = json::parse(&contract_line(&r, traced)).unwrap();
            let Json::Obj(top) = &v else { panic!("object") };
            assert_eq!(
                top.keys().map(String::as_str).collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            );
            let Some(Json::Obj(metrics)) = v.get("metrics") else { panic!("metrics") };
            let mut want: Vec<&str> = table.iter().map(|m| m.name).collect();
            want.sort_unstable();
            assert_eq!(metrics.keys().map(String::as_str).collect::<Vec<_>>(), want);
        }
    }

    /// `BENCHMARK.json` at the repository root declares what this binary emits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str, table: &[Metric], bounded: bool| {
            let Some(Json::Arr(items)) = decl.get(key) else { panic!("{key} is an array") };
            assert_eq!(items.len(), table.len(), "{key}");
            for (item, m) in items.iter().zip(table) {
                assert_eq!(item.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(item.get("unit").and_then(Json::as_str), Some(m.unit), "{}", m.name);
                assert_eq!(
                    item.get("better").and_then(Json::as_str),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    item.get("bound").and_then(Json::as_f64),
                    bounded.then_some(m.bound),
                    "{}",
                    m.name
                );
            }
        };
        names("end_to_end", END_TO_END, true);
        names("per_layer", PER_LAYER, false);
        let Some(Json::Arr(workloads)) = decl.get("workloads") else { panic!("workloads") };
        let declared: Vec<&str> =
            workloads.iter().filter_map(|w| w.get("name")?.as_str()).collect();
        assert_eq!(declared, crate::workloads::NAMES);
    }
}
