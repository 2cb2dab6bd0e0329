//! Hand-written Chrome trace-event JSON export.
//!
//! The output follows the Trace Event Format's "JSON object" flavor —
//! `{"displayTimeUnit":"ms","traceEvents":[...]}` — using complete
//! spans (`ph: "X"`), instants (`ph: "i"`), and metadata (`ph: "M"`)
//! records only, which is the subset Perfetto loads directly. Each run
//! becomes one process (pid = run index + 1, named by its label); each
//! track becomes one thread (tid 0 is the control plane, node `n` is
//! tid `n + 1`). Timestamps are microseconds with fixed three-decimal
//! nanosecond remainders, written with integer arithmetic so identical
//! logs serialize byte-identically.

use crate::tracer::{EventKind, TraceLog, Value, CONTROL_TRACK};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Serializes `runs` (label + collected log) as one Chrome trace.
pub fn export(runs: &[(&str, &TraceLog)]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (i, (label, log)) in runs.iter().enumerate() {
        let pid = i + 1;
        write_meta_process(&mut out, &mut first, pid, label, log.dropped);
        let tracks: BTreeSet<u32> = log.events.iter().map(|e| e.track).collect();
        for track in &tracks {
            write_meta_thread(&mut out, &mut first, pid, *track);
        }
        for ev in &log.events {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"{}\",\"pid\":{pid},\"tid\":{},\"ts\":",
                match ev.kind {
                    EventKind::Span => 'X',
                    EventKind::Instant => 'i',
                },
                tid(ev.track)
            );
            push_micros(&mut out, ev.at.as_nanos());
            if ev.kind == EventKind::Span {
                out.push_str(",\"dur\":");
                push_micros(&mut out, ev.dur.as_nanos());
            } else {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(",\"cat\":");
            push_json_string(&mut out, ev.layer.name());
            out.push_str(",\"name\":");
            push_json_string(&mut out, ev.name);
            out.push_str(",\"args\":{");
            for (k, (name, value)) in ev.args.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                push_json_string(&mut out, name);
                out.push(':');
                push_value(&mut out, value);
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}\n");
    out
}

/// Thread id for a track: the control plane is tid 0 so it sorts first.
fn tid(track: u32) -> u64 {
    if track == CONTROL_TRACK {
        0
    } else {
        u64::from(track) + 1
    }
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn write_meta_process(out: &mut String, first: &mut bool, pid: usize, label: &str, dropped: u64) {
    sep(out, first);
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":"
    );
    push_json_string(out, label);
    let _ = write!(out, ",\"dropped_events\":{dropped}}}}}");
}

fn write_meta_thread(out: &mut String, first: &mut bool, pid: usize, track: u32) {
    sep(out, first);
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":",
        tid(track)
    );
    if track == CONTROL_TRACK {
        push_json_string(out, "control");
    } else {
        let name = format!("node-{track}");
        push_json_string(out, &name);
    }
    out.push_str("}}");
}

/// Nanoseconds as a microsecond decimal (`123.456`), integer-exact.
fn push_micros(out: &mut String, nanos: u64) {
    let _ = write!(out, "{}.{:03}", nanos / 1_000, nanos % 1_000);
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => push_json_string(out, s),
        Value::Text(s) => push_json_string(out, s),
    }
}

/// Appends `s` as a JSON string literal: quotes, backslashes and
/// control characters escaped, everything else copied as is. Shared by
/// the trace exporter and the cluster's campaign reports.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Layer, Tracer};
    use deepnote_sim::{SimDuration, SimTime};

    fn sample_log() -> TraceLog {
        let t = Tracer::ring(16);
        t.instant(
            Layer::Acoustics,
            2,
            "tone",
            SimTime::from_nanos(1_234_567),
            vec![("spl_db", Value::F64(130.5)), ("hz", Value::F64(650.0))],
        );
        t.span(
            Layer::Kv,
            2,
            "wal_sync",
            SimTime::from_secs(1),
            SimDuration::from_micros(81),
            vec![("ops", Value::U64(128))],
        );
        t.instant(
            Layer::Cluster,
            CONTROL_TRACK,
            "failover",
            SimTime::from_secs(2),
            vec![("shard", Value::U64(7)), ("why", Value::Str("down"))],
        );
        t.take()
    }

    #[test]
    fn export_is_deterministic_and_well_formed() {
        let log = sample_log();
        let a = export(&[("run", &log)]);
        let b = export(&[("run", &log)]);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(a.ends_with("]}\n"));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"cat\":\"acoustics\""));
        assert!(a.contains("\"name\":\"wal_sync\""));
        // 1_234_567 ns = 1234.567 µs, integer-exact.
        assert!(a.contains("\"ts\":1234.567"), "{a}");
    }

    #[test]
    fn runs_become_processes_and_tracks_become_threads() {
        let log = sample_log();
        let j = export(&[("first", &log), ("second", &log)]);
        assert!(j.contains("\"pid\":1"));
        assert!(j.contains("\"pid\":2"));
        assert!(j.contains("\"name\":\"process_name\",\"args\":{\"name\":\"first\""));
        assert!(j.contains("\"args\":{\"name\":\"second\""));
        // Node 2 is tid 3; the control plane is tid 0.
        assert!(j.contains("\"tid\":3"));
        assert!(j.contains("\"args\":{\"name\":\"node-2\"}"));
        assert!(j.contains("\"args\":{\"name\":\"control\"}"));
    }

    #[test]
    fn empty_log_still_produces_a_loadable_file() {
        let log = TraceLog::default();
        let j = export(&[("empty", &log)]);
        assert!(j.contains("traceEvents"));
        assert!(j.ends_with("]}\n"));
    }
}
