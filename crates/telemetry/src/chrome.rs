//! Chrome trace-event JSON export.
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

use crate::json::JsonWriter;
use crate::tracer::{EventKind, TraceLog, Value, CONTROL_TRACK};
use std::collections::BTreeSet;

/// Serializes `runs` (label + collected log) as one Chrome trace.
pub fn export(runs: &[(&str, &TraceLog)]) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_obj().key("displayTimeUnit").str("ms");
    w.key("traceEvents").begin_arr();
    for (pid, (label, log)) in (1u64..).zip(runs) {
        meta(&mut w, pid, 0, "process_name").key("name").str(label);
        w.key("dropped_events").u64(log.dropped).end_obj().end_obj();
        let tracks: BTreeSet<u32> = log.events.iter().map(|e| e.track).collect();
        for track in tracks {
            meta(&mut w, pid, tid(track), "thread_name").key("name");
            if track == CONTROL_TRACK {
                w.str("control");
            } else {
                w.str(&format!("node-{track}"));
            }
            w.end_obj().end_obj();
        }
        for ev in &log.events {
            let span = ev.kind == EventKind::Span;
            w.begin_obj().key("ph").str(if span { "X" } else { "i" });
            w.key("pid").u64(pid).key("tid").u64(tid(ev.track));
            w.key("ts").micros(ev.at.as_nanos());
            if span {
                w.key("dur").micros(ev.dur.as_nanos());
            } else {
                w.key("s").str("t");
            }
            w.key("cat").str(ev.layer.name()).key("name").str(ev.name);
            w.key("args").begin_obj();
            for (name, value) in &ev.args {
                w.key(name);
                match value {
                    Value::U64(n) => w.u64(*n),
                    Value::F64(x) => w.f64(*x),
                    Value::Str(s) => w.str(s),
                    Value::Text(s) => w.str(s),
                };
            }
            w.end_obj().end_obj();
        }
    }
    w.end_arr().end_obj();
    let mut out = w.finish();
    out.push('\n');
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

/// Opens a metadata record and its `args` object.
fn meta<'w>(w: &'w mut JsonWriter, pid: u64, tid: u64, name: &str) -> &'w mut JsonWriter {
    w.begin_obj().key("ph").str("M").key("pid").u64(pid);
    w.key("tid")
        .u64(tid)
        .key("name")
        .str(name)
        .key("args")
        .begin_obj()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Layer, Tracer};
    use deepnote_sim::{SimDuration, SimTime};

    fn sample_log() -> TraceLog {
        let t = Tracer::ring(16);
        let node = t.on_track(2);
        node.instant(
            Layer::Acoustics,
            "tone",
            SimTime::from_nanos(1_234_567),
            vec![("spl_db", Value::F64(130.5)), ("hz", Value::F64(650.0))],
        );
        node.span(
            Layer::Kv,
            "wal_sync",
            SimTime::from_secs(1),
            SimDuration::from_micros(81),
            vec![("ops", Value::U64(128))],
        );
        t.instant(
            Layer::Cluster,
            "failover",
            SimTime::from_secs(2),
            vec![("shard", Value::U64(7)), ("why", Value::Str("down"))],
        );
        t.take()
    }

    /// A log reaching every branch of the exporter: non-finite floats
    /// (written as null), an owned label that needs escaping, a span on
    /// the control track, and a ring that dropped an event.
    fn edge_log() -> TraceLog {
        let t = Tracer::ring(2);
        t.on_track(0).instant(
            Layer::Hdd,
            "odd",
            SimTime::from_nanos(5),
            vec![
                ("nan", Value::F64(f64::NAN)),
                ("inf", Value::F64(f64::INFINITY)),
                ("phase", Value::Text("a\"b\n".into())),
            ],
        );
        t.span(
            Layer::Cluster,
            "quorum",
            SimTime::from_nanos(1_000_001),
            SimDuration::from_nanos(999),
            vec![("ok", Value::U64(0))],
        );
        t.on_track(1)
            .instant(Layer::Kv, "lost", SimTime::from_secs(3), Vec::new());
        t.take()
    }

    #[test]
    fn export_matches_its_golden_bytes() {
        // Captured from the hand-written exporter this one replaced.
        let golden = concat!(
            r#"{"displayTimeUnit":"ms","traceEvents":["#,
            r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"run \"x\"","dropped_events":1}},"#,
            r#"{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"node-0"}},"#,
            r#"{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"control"}},"#,
            r#"{"ph":"i","pid":1,"tid":1,"ts":0.005,"s":"t","cat":"hdd","name":"odd","args":{"nan":null,"inf":null,"phase":"a\"b\n"}},"#,
            r#"{"ph":"X","pid":1,"tid":0,"ts":1000.001,"dur":0.999,"cat":"cluster","name":"quorum","args":{"ok":0}}"#,
            "]}\n",
        );
        assert_eq!(export(&[("run \"x\"", &edge_log())]), golden);
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
