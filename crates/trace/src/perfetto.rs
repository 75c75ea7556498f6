//! Chrome / Perfetto `trace_event` JSON export.
//!
//! The output loads directly in [ui.perfetto.dev](https://ui.perfetto.dev)
//! or `chrome://tracing`: processors become track groups (`pid`), LPs become
//! tracks (`tid`), charge/idle/barrier spans become complete (`"X"`) events,
//! protocol actions become instants (`"i"`) and queue depth becomes a
//! counter (`"C"`) series.
//!
//! Timestamps are emitted in microsecond units as required by the format;
//! timeline units map 1:1 onto microseconds (the absolute scale is
//! arbitrary for modeled traces anyway, and for wall-clock traces a 1000×
//! zoom is irrelevant to reading the timeline). The serializer is
//! hand-rolled and fully deterministic: identical traces produce identical
//! bytes, which the golden-file test relies on.

use std::fmt::Write as _;

use crate::{Trace, TraceKind, TraceRecord, NO_LP};

/// Appends `s` as a JSON string literal: quoted, with quotes, backslashes
/// and control characters escaped. The workspace's one JSON string writer
/// (the Perfetto export here, the server's `Json` renderer and the bench
/// tables all call it).
///
/// The runs of bytes between escapes are copied in bulk: every byte that
/// needs an escape is ASCII, so each run is whole UTF-8.
pub fn json_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape == "\\u00" {
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The `tid` a record renders under: LP-scoped records get their LP track,
/// machine-level records a per-processor "cpu" track.
fn tid(r: &TraceRecord) -> u64 {
    if r.lp == NO_LP {
        0
    } else {
        u64::from(r.lp) + 1
    }
}

fn push_common(out: &mut String, r: &TraceRecord) {
    let _ = write!(out, "\"ts\":{},\"pid\":{},\"tid\":{}", r.t, r.processor, tid(r));
}

/// Serializes a trace to Chrome `trace_event` JSON (object form, with a
/// `traceEvents` array). Deterministic: byte-identical output for equal
/// traces.
pub fn to_perfetto_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 + trace.records().len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |line: &str, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(line);
    };

    // Metadata: name the processor track groups and the machine-level tid 0.
    let mut line = String::new();
    for p in 0..trace.processors() {
        line.clear();
        let _ = write!(
            line,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":0,\
             \"args\":{{\"name\":\"processor {p}\"}}}}"
        );
        emit(&line, &mut out);
        line.clear();
        let _ = write!(
            line,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":0,\
             \"args\":{{\"name\":\"cpu\"}}}}"
        );
        emit(&line, &mut out);
    }

    for r in trace.records() {
        line.clear();
        line.push_str("{\"name\":");
        json_string(r.kind.label(), &mut line);
        line.push(',');
        match r.kind {
            TraceKind::Charge | TraceKind::Idle | TraceKind::BarrierWait | TraceKind::Compile => {
                let _ = write!(line, "\"ph\":\"X\",\"dur\":{},", r.arg);
                push_common(&mut line, r);
                let _ = write!(line, ",\"args\":{{\"vt\":{}}}}}", r.vt);
            }
            TraceKind::Enqueue | TraceKind::Dequeue => {
                // Counter series per processor: pending-event-set depth.
                line.clear();
                let _ = write!(
                    line,
                    "{{\"name\":\"queue depth\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":0,\
                     \"args\":{{\"depth\":{}}}}}",
                    r.t, r.processor, r.arg
                );
            }
            _ => {
                line.push_str("\"ph\":\"i\",\"s\":\"t\",");
                push_common(&mut line, r);
                let _ = write!(line, ",\"args\":{{\"vt\":{},\"arg\":{}}}}}", r.vt, r.arg);
            }
        }
        emit(&line, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// Serializes a trace to CSV (`t,vt,processor,lp,kind,arg` with a header
/// row). LP [`NO_LP`] is rendered as an empty cell.
pub fn to_csv(trace: &Trace) -> String {
    let mut out = String::with_capacity(32 + trace.records().len() * 32);
    out.push_str("t,vt,processor,lp,kind,arg\n");
    for r in trace.records() {
        let _ = write!(out, "{},{},{},", r.t, r.vt, r.processor);
        if r.lp != NO_LP {
            let _ = write!(out, "{}", r.lp);
        }
        let _ = writeln!(out, ",{},{}", r.kind.label(), r.arg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Probe;

    fn sample() -> Trace {
        let probe = Probe::enabled();
        let mut h = probe.handle();
        h.emit(0, 0, 0, NO_LP, TraceKind::Charge, 8);
        h.emit(2, 5, 0, 3, TraceKind::GateEval, 1);
        h.emit(4, 5, 1, 0, TraceKind::Enqueue, 2);
        h.emit(8, 0, 0, NO_LP, TraceKind::Idle, 4);
        drop(h);
        probe.take_trace()
    }

    #[test]
    fn perfetto_shape() {
        let json = to_perfetto_json(&sample());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"processor 1\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn perfetto_is_deterministic() {
        assert_eq!(to_perfetto_json(&sample()), to_perfetto_json(&sample()));
    }

    #[test]
    fn csv_shape() {
        let csv = to_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,vt,processor,lp,kind,arg");
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1], "0,0,0,,charge,8"); // NO_LP renders empty
        assert_eq!(lines[2], "2,5,0,3,gate_eval,1");
    }

    /// The char-by-char escaper `json_string` replaced, kept as its oracle.
    fn json_string_by_char(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Text pieces: every control character, both escaped printables, and
    /// one- to four-byte UTF-8.
    fn pieces() -> Vec<String> {
        let mut pieces: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        pieces.extend(
            ["\"", "\\", "/", "a", "Z", ",", " ", "\u{7f}", "é", "λ", "€", "\u{fffd}", "😀"]
                .map(String::from),
        );
        pieces
    }

    proptest::proptest! {
        #[test]
        fn json_string_matches_the_char_by_char_escaper(
            parts in proptest::prop::collection::vec(proptest::prop::sample::select(pieces()), 0..48),
        ) {
            let s = parts.concat();
            let mut out = String::from("{");
            json_string(&s, &mut out);
            proptest::prop_assert_eq!(out, format!("{{{}", json_string_by_char(&s)));
        }
    }

    #[test]
    fn escaping() {
        let mut s = String::new();
        json_string("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        s.clear();
        json_string("\u{1f}λ\r€\t\u{10}", &mut s);
        assert_eq!(s, "\"\\u001fλ\\r€\\t\\u0010\"");
    }
}
