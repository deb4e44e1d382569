//! Chrome trace-event-format export.
//!
//! Produces the JSON object format understood by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): a `traceEvents` array of complete
//! (`"ph":"X"`) duration events, instant (`"ph":"i"`) events and
//! `thread_name` metadata, all under one process. Timestamps are the
//! recorder-epoch microseconds captured in the [`Telemetry`].

use crate::json::{write_f64, write_str};
use crate::Telemetry;
use std::io::Write;

const PID: u32 = 1;

/// Renders the telemetry as a Chrome trace-event JSON document.
pub fn chrome_trace_string(t: &Telemetry) -> String {
    let mut out = String::with_capacity(256 + t.spans.len() * 160 + t.instants.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
    };

    for (tid, label) in &t.thread_labels {
        sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
        ));
        write_str(&mut out, label);
        out.push_str("}}");
    }

    for s in &t.spans {
        sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":",
            s.tid, s.start_us, s.dur_us
        ));
        write_str(&mut out, s.cat);
        out.push_str(",\"name\":");
        write_str(&mut out, &s.name);
        if !s.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in s.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(&mut out, k);
                out.push(':');
                write_str(&mut out, v);
            }
            out.push('}');
        }
        out.push('}');
    }

    for e in &t.instants {
        sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"cat\":",
            e.tid, e.ts_us
        ));
        write_str(&mut out, e.cat);
        out.push_str(",\"name\":");
        write_str(&mut out, &e.name);
        out.push('}');
    }

    // Counter totals as one summary event so the numbers travel with the
    // timeline file.
    if !t.counters.is_empty() {
        sep(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":0,\"ts\":0,\"name\":\"counters\",\"args\":{{"
        ));
        for (i, (k, v)) in t.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, k);
            out.push(':');
            write_f64(&mut out, *v as f64);
        }
        out.push_str("}}");
    }

    out.push_str("\n]}\n");
    out
}

/// Writes [`chrome_trace_string`] to `w`.
pub fn write_chrome_trace<W: Write>(t: &Telemetry, w: &mut W) -> std::io::Result<()> {
    w.write_all(chrome_trace_string(t).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstantEvent, SpanEvent};

    fn sample() -> Telemetry {
        let mut t = Telemetry::default();
        t.thread_labels.insert(1, "driver".to_string());
        t.spans.push(SpanEvent {
            cat: "sched",
            name: "cell:rf|1|0.5".to_string(),
            tid: 1,
            start_us: 10,
            dur_us: 90,
            args: vec![("worker", "0".to_string()), ("kind", "par".to_string())],
        });
        t.instants.push(InstantEvent { cat: "sched", name: "steal".to_string(), tid: 2, ts_us: 55 });
        t.counters.insert("sched.steals".to_string(), 1);
        t
    }

    #[test]
    fn trace_is_valid_json_with_all_event_kinds() {
        let s = chrome_trace_string(&sample());
        kcb_util::json::parse_value(&s).expect("trace must be well-formed JSON");
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"ph\":\"M\""));
        assert!(s.contains("\"ph\":\"C\""));
        assert!(s.contains("cell:rf|1|0.5"));
    }

    #[test]
    fn trace_survives_names_needing_escapes() {
        let mut t = sample();
        t.spans[0].name = "weird\"name\\with\nstuff".to_string();
        let s = chrome_trace_string(&t);
        kcb_util::json::parse_value(&s).expect("escaped trace must stay well-formed");
    }

    #[test]
    fn empty_telemetry_is_still_a_document() {
        let s = chrome_trace_string(&Telemetry::default());
        kcb_util::json::parse_value(&s).unwrap();
        assert!(s.contains("traceEvents"));
    }
}
