//! Render experiment results as the paper's tables.

use crate::defense::DefenseOutcome;
use crate::experiments::ablations::{
    DepthRow, MaterialRow, PowerRow, SeasonRow, SpectrumRow, ToleranceRow, WaterRow,
};
use crate::experiments::crash::CrashRow;
use crate::experiments::frequency::FrequencySweep;
use crate::experiments::range::{FioRangeRow, KvRangeRow};

fn latency_cell(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.1}"),
        None => "-".to_string(),
    }
}

/// Renders Table 1 ("Read and Write operations throughput of HDD when an
/// acoustic attack occurs at varied distances").
pub fn render_table1(rows: &[FioRangeRow]) -> String {
    let mut out = String::from(
        "Table 1: FIO throughput/latency vs distance (Scenario 2, 650 Hz, 140 dB)\n\
         Distance    | Read MB/s | Write MB/s | Read lat ms | Write lat ms\n\
         ------------+-----------+------------+-------------+-------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11} | {:>9.1} | {:>10.1} | {:>11} | {:>12}\n",
            r.label,
            r.read_mb_s,
            r.write_mb_s,
            latency_cell(r.read_latency_ms),
            latency_cell(r.write_latency_ms),
        ));
    }
    out
}

/// Renders Table 2 ("Throughput and I/O rate of RocksDB …").
pub fn render_table2(rows: &[KvRangeRow]) -> String {
    let mut out = String::from(
        "Table 2: RocksDB readwhilewriting vs distance (Scenario 2, 650 Hz)\n\
         Distance    | Throughput MB/s | I/O Rate (x100,000 ops/s)\n\
         ------------+-----------------+--------------------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11} | {:>15.1} | {:>24.1}\n",
            r.label, r.throughput_mb_s, r.io_rate_x100k
        ));
    }
    out
}

/// Renders Table 3 ("Crashes in real-world applications").
pub fn render_table3(rows: &[CrashRow]) -> String {
    let mut out = String::from(
        "Table 3: Crashes in real-world applications (Scenario 2, 650 Hz, 1 cm)\n\
         Application | Description           | Time to Crash | Error\n\
         ------------+-----------------------+---------------+------\n",
    );
    for r in rows {
        let ttc = match r.time_to_crash_s {
            Some(t) => format!("{t:.1} seconds"),
            None => "survived".to_string(),
        };
        out.push_str(&format!(
            "{:<11} | {:<21} | {:<13} | {}\n",
            r.application, r.description, ttc, r.error
        ));
    }
    out
}

/// Renders a Figure 2 sweep as an ASCII summary (band edges + minima).
pub fn render_figure2(sweeps: &[FrequencySweep]) -> String {
    let mut out = String::from("Figure 2: throughput vs attack frequency (speaker at 1 cm)\n");
    for sweep in sweeps {
        let wband = sweep
            .write_dead_band(1.0)
            .map(|(lo, hi)| format!("{lo:.0}-{hi:.0} Hz"))
            .unwrap_or_else(|| "none".to_string());
        let rband = sweep
            .read_dead_band(1.0)
            .map(|(lo, hi)| format!("{lo:.0}-{hi:.0} Hz"))
            .unwrap_or_else(|| "none".to_string());
        out.push_str(&format!(
            "  {}: write-dead band {wband}, read-dead band {rband}\n",
            sweep.scenario
        ));
    }
    out
}

/// Renders the water-conditions ablation.
pub fn render_water(rows: &[WaterRow]) -> String {
    let mut out =
        String::from("Ablation: water conditions vs blackout range (military projector, 650 Hz)\n");
    for r in rows {
        let range = match r.blackout_range_m {
            Some(m) => format!("{m:.1} m"),
            None => "out of reach".to_string(),
        };
        out.push_str(&format!(
            "  {:<34} c={:6.1} m/s  α={:8.5} dB/km  reach={range}\n",
            r.label, r.sound_speed_m_s, r.absorption_db_km
        ));
    }
    out
}

/// Renders the materials ablation.
pub fn render_materials(rows: &[MaterialRow]) -> String {
    let mut out = String::from("Ablation: enclosure material vs attack effect (650 Hz, 1 cm)\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<34} {:6.1} kg/m²  write={:5.1} MB/s  blackout={}\n",
            r.label, r.surface_mass_kg_m2, r.write_mb_s_under_attack, r.blackout
        ));
    }
    out
}

/// Renders the tolerance ablation.
pub fn render_tolerance(rows: &[ToleranceRow]) -> String {
    let mut out =
        String::from("Ablation: off-track tolerances vs dead-band width (Scenario 2, 1 cm)\n");
    for r in rows {
        out.push_str(&format!(
            "  read {:>4.0}% / write {:>4.0}% of pitch: write-dead {:>6.0} Hz, read-dead {:>6.0} Hz\n",
            r.read_fraction * 100.0,
            r.write_fraction * 100.0,
            r.write_dead_band_hz,
            r.read_dead_band_hz
        ));
    }
    out
}

/// Renders the attacker-power ablation.
pub fn render_power(rows: &[PowerRow]) -> String {
    let mut out = String::from("Ablation: attacker source level vs open-water blackout range\n");
    for r in rows {
        let range = match r.blackout_range_m {
            Some(m) => format!("{m:.1} m"),
            None => "no blackout at any range".to_string(),
        };
        out.push_str(&format!(
            "  {:<34} SL={:5.1} dB re 1µPa  reach={range}\n",
            r.label, r.source_level_db
        ));
    }
    out
}

/// Renders the noise-vs-tone ablation's rows; the caller prints the
/// heading.
pub fn render_noise_vs_tone(rows: &[SpectrumRow]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "  {:<42} residual {:>7.1} nm, write {:>5.1} MB/s\n",
                r.label, r.displacement_nm, r.write_mb_s
            )
        })
        .collect()
}

/// Renders the attacker-depth ablation's rows; the caller prints the
/// heading.
pub fn render_depth(rows: &[DepthRow]) -> String {
    rows.iter()
        .map(|r| {
            let reach = match r.blackout_range_m {
                Some(m) => format!("{m:.0} m"),
                None => "out of reach".to_string(),
            };
            format!("  {:<26} blackout reach {reach}\n", r.label)
        })
        .collect()
}

/// Renders the seasonal-drift ablation's rows; the caller prints the
/// heading.
pub fn render_seasons(rows: &[SeasonRow]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "  {:<26} modes x{:.3}: stale 650 Hz -> {:>5.1} MB/s, retuned {:>5.0} Hz -> {:>5.1} MB/s\n",
                r.label,
                r.frequency_scale,
                r.write_at_stale_tuning_mb_s,
                r.retuned_best_hz,
                r.write_at_retuned_mb_s
            )
        })
        .collect()
}

/// Renders the defense catalog evaluation.
pub fn render_defenses(rows: &[DefenseOutcome]) -> String {
    let mut out = String::from("Defense evaluation (attack: Scenario 2, 650 Hz, 140 dB)\n");
    for r in rows {
        let reach = match r.blackout_reach_cm {
            Some(cm) => format!("{cm:.0} cm"),
            None => "none".to_string(),
        };
        out.push_str(&format!(
            "  {:<38} write@1cm={:5.1} MB/s  blackout reach={:<7} cooling +{:.1}°C\n",
            r.label, r.write_mb_s_at_paper_point, reach, r.cooling_penalty_c
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_render_contains_dash_for_no_response() {
        let rows = vec![
            FioRangeRow {
                label: "No Attack".into(),
                read_mb_s: 18.0,
                write_mb_s: 22.7,
                read_latency_ms: Some(0.2),
                write_latency_ms: Some(0.2),
            },
            FioRangeRow {
                label: "1 cm".into(),
                read_mb_s: 0.0,
                write_mb_s: 0.0,
                read_latency_ms: None,
                write_latency_ms: None,
            },
        ];
        let text = render_table1(&rows);
        assert!(text.contains("No Attack"), "{text}");
        assert!(text.contains("22.7"), "{text}");
        assert!(text.contains('-'), "{text}");
    }

    #[test]
    fn table3_render_shows_seconds() {
        let rows = vec![CrashRow {
            application: "Ext4".into(),
            description: "Journaling filesystem".into(),
            time_to_crash_s: Some(80.0),
            error: "journal has aborted (JBD error -5); filesystem read-only".into(),
        }];
        let text = render_table3(&rows);
        assert!(text.contains("80.0 seconds"), "{text}");
        assert!(text.contains("JBD error -5"), "{text}");
    }
}
