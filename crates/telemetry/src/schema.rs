//! The trace/report schema checks.
//!
//! CI validates every artifact the telemetry layer emits. This module
//! reads them with [`crate::json::parse`] and carries two validators:
//! one for Chrome trace files, one for the campaign report array
//! `deepnote cluster --json` writes.

use crate::json::{parse, Json};

/// What a valid trace file contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Span + instant events (metadata excluded).
    pub events: usize,
    /// Complete spans.
    pub spans: usize,
    /// Instants.
    pub instants: usize,
    /// Distinct layer categories seen, sorted.
    pub layers: Vec<String>,
}

/// Validates a Chrome trace-event file as exported by [`crate::chrome`].
///
/// # Errors
///
/// A description of the first violation: unparsable JSON, a missing
/// `traceEvents` array, or an event without the fields Perfetto needs.
pub fn validate_trace(input: &str) -> Result<TraceSummary, String> {
    let doc = parse(input)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("top-level object must carry a traceEvents array")?;
    let mut summary = TraceSummary {
        events: 0,
        spans: 0,
        instants: 0,
        layers: Vec::new(),
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        for field in ["pid", "tid"] {
            ev.get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {i}: missing numeric {field}"))?;
        }
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        match ph {
            "M" => continue,
            "X" | "i" => {}
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: ts must be finite and non-negative"));
        }
        if ph == "X" {
            let dur = ev
                .get("dur")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {i}: span missing dur"))?;
            if !dur.is_finite() || dur < 0.0 {
                return Err(format!("event {i}: dur must be finite and non-negative"));
            }
            summary.spans += 1;
        } else {
            summary.instants += 1;
        }
        summary.events += 1;
        let cat = ev
            .get("cat")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing cat"))?;
        if !summary.layers.iter().any(|l| l == cat) {
            summary.layers.push(cat.to_string());
        }
    }
    summary.layers.sort();
    Ok(summary)
}

/// What a valid report array contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportSummary {
    /// Campaign runs in the array.
    pub runs: usize,
    /// Alert transitions across all runs.
    pub alerts: usize,
    /// Alert transitions that were raises.
    pub raised: usize,
    /// Metric series across all runs.
    pub series: usize,
}

/// Validates the report array written by `deepnote cluster --json`:
/// every run must carry its label, phases, alert timeline, and metric
/// series in the expected shapes.
///
/// # Errors
///
/// A description of the first violation.
pub fn validate_report(input: &str) -> Result<ReportSummary, String> {
    let doc = parse(input)?;
    let runs = doc.as_arr().ok_or("report file must be a JSON array")?;
    if runs.is_empty() {
        return Err("report array is empty".to_string());
    }
    let mut summary = ReportSummary {
        runs: runs.len(),
        alerts: 0,
        raised: 0,
        series: 0,
    };
    for (i, run) in runs.iter().enumerate() {
        run.get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("run {i}: missing label"))?;
        let phases = run
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("run {i}: missing phases array"))?;
        if phases.is_empty() {
            return Err(format!("run {i}: phases array is empty"));
        }
        let alerts = run
            .get("alerts")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("run {i}: missing alerts array"))?;
        for (k, a) in alerts.iter().enumerate() {
            a.get("at_s")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("run {i} alert {k}: missing at_s"))?;
            let window = a
                .get("window")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("run {i} alert {k}: missing window"))?;
            if window != "fast" && window != "slow" {
                return Err(format!("run {i} alert {k}: bad window {window:?}"));
            }
            a.get("burn_rate")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("run {i} alert {k}: missing burn_rate"))?;
            if a.get("raised")
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("run {i} alert {k}: missing raised"))?
            {
                summary.raised += 1;
            }
            summary.alerts += 1;
        }
        let series = run
            .get("series")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("run {i}: missing series array"))?;
        for (k, s) in series.iter().enumerate() {
            for field in ["layer", "name", "kind"] {
                s.get(field)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("run {i} series {k}: missing {field}"))?;
            }
            let points = s
                .get("points")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("run {i} series {k}: missing points"))?;
            for (p, pt) in points.iter().enumerate() {
                pt.get("at_s")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("run {i} series {k} point {p}: missing at_s"))?;
                pt.get("value")
                    .ok_or_else(|| format!("run {i} series {k} point {p}: missing value"))?;
            }
            summary.series += 1;
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_the_basics() {
        let doc = parse(r#"{"a":[1,2.5,-3e2],"b":"x\"\n","c":null,"d":true}"#).unwrap();
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\"\n"));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert!((arr[2].as_num().unwrap() + 300.0).abs() < 1e-9);
        assert!(matches!(doc.get("c"), Some(Json::Null)));
        assert_eq!(doc.get("d").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} tail").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn trace_validator_accepts_the_exporter_output() {
        use crate::tracer::{Layer, Tracer, Value};
        use deepnote_sim::{SimDuration, SimTime};
        let t = Tracer::ring(8).on_track(0);
        t.instant(
            Layer::Acoustics,
            "tone",
            SimTime::ZERO,
            vec![("hz", Value::F64(650.0))],
        );
        t.span(
            Layer::Hdd,
            "degraded_io",
            SimTime::from_secs(1),
            SimDuration::from_millis(45),
            Vec::new(),
        );
        let json = crate::chrome::export(&[("run", &t.take())]);
        let summary = validate_trace(&json).unwrap();
        assert_eq!(summary.events, 2);
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.layers, vec!["acoustics", "hdd"]);
    }

    #[test]
    fn trace_validator_rejects_malformed_events() {
        assert!(validate_trace("[]").is_err());
        assert!(validate_trace(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        let negative =
            r#"{"traceEvents":[{"ph":"i","pid":1,"tid":0,"ts":-1,"s":"t","cat":"c","name":"n"}]}"#;
        assert!(validate_trace(negative).is_err());
    }

    #[test]
    fn report_validator_counts_alerts_and_series() {
        let body = r#"[{"label":"x","phases":[{"label":"baseline"}],
            "alerts":[{"at_s":12.0,"window":"fast","raised":true,"burn_rate":25.0},
                      {"at_s":40.0,"window":"fast","raised":false,"burn_rate":0.5}],
            "series":[{"layer":"hdd","name":"node0/seek_retries","kind":"counter",
                       "points":[{"at_s":1.0,"value":3}]}]}]"#;
        let summary = validate_report(body).unwrap();
        assert_eq!(summary.runs, 1);
        assert_eq!(summary.alerts, 2);
        assert_eq!(summary.raised, 1);
        assert_eq!(summary.series, 1);
    }

    #[test]
    fn report_validator_rejects_missing_sections() {
        assert!(validate_report("[]").is_err());
        assert!(validate_report(r#"[{"label":"x","phases":[{}]}]"#).is_err());
        let bad_window = r#"[{"label":"x","phases":[{}],"series":[],
            "alerts":[{"at_s":1.0,"window":"medium","raised":true,"burn_rate":1.0}]}]"#;
        assert!(validate_report(bad_window).is_err());
    }
}
