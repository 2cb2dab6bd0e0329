//! Redundancy against acoustic attacks: does RAID-1 help?
//!
//! The paper attacks one drive; an operator would mirror. This experiment
//! quantifies the obvious caveat: redundancy only helps if the mirrors do
//! not share an acoustic fate. Two layouts are compared under the paper's
//! best attack:
//!
//! * **co-located** — both mirrors in the attacked enclosure (same
//!   vibration): the array dies with the drives;
//! * **separated** — the second mirror in an enclosure 1 m away: the
//!   array degrades but keeps serving, and resyncs afterwards.

use crate::testbed::Testbed;
use crate::threat::AttackParams;
use deepnote_acoustics::Distance;
use deepnote_blockdev::{BlockDevice, HddDisk, Raid1, RaidState};
use deepnote_sim::Clock;
use serde::{Deserialize, Serialize};

/// The outcome of attacking one mirror layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RedundancyOutcome {
    /// Layout label.
    pub layout: String,
    /// Writes that completed during the attack window.
    pub writes_served_during_attack: u64,
    /// Writes attempted during the attack window.
    pub writes_attempted_during_attack: u64,
    /// Array state when the attack ended.
    pub state_during_attack: String,
    /// Whether the array returned to `Optimal` after the attack (resync).
    pub recovered_to_optimal: bool,
    /// Blocks copied by the resync.
    pub resynced_blocks: u64,
}

fn run_layout(label: &str, mirror_distances_cm: [f64; 2]) -> RedundancyOutcome {
    let testbed = Testbed::paper_default(deepnote_structures::Scenario::PlasticTower);
    let clock = Clock::new();
    let mirrors = vec![
        HddDisk::barracuda_500gb(clock.clone()),
        HddDisk::barracuda_500gb(clock.clone()),
    ];
    let vibrations: Vec<_> = mirrors.iter().map(|m| m.vibration()).collect();
    let mut array = Raid1::new(mirrors);

    // Healthy warm-up writes.
    let buf = vec![0xA5u8; 4096];
    for i in 0..50u64 {
        array
            .write_blocks(i * 8, &buf)
            .expect("healthy array serves");
    }

    // Attack: each mirror receives the vibration for its own distance.
    for (v, &cm) in vibrations.iter().zip(&mirror_distances_cm) {
        let params = AttackParams::paper_best().at_distance(Distance::from_cm(cm));
        testbed.mount_attack(v, params);
    }
    let mut served = 0u64;
    let attempts = 60u64;
    for i in 0..attempts {
        if array.write_blocks((100 + i) * 8, &buf).is_ok() {
            served += 1;
        }
    }
    let state_during_attack = format!("{:?}", array.state());

    // Attack ends; resync any failed mirrors.
    for v in &vibrations {
        v.clear();
    }
    let mut resynced = 0;
    for idx in 0..array.mirror_count() {
        if array.mirror_failed(idx) {
            resynced += array.resync(idx).unwrap_or(0);
        }
    }
    RedundancyOutcome {
        layout: label.to_string(),
        writes_served_during_attack: served,
        writes_attempted_during_attack: attempts,
        state_during_attack,
        recovered_to_optimal: array.state() == RaidState::Optimal,
        resynced_blocks: resynced,
    }
}

/// Runs both layouts.
pub fn mirror_study() -> Vec<RedundancyOutcome> {
    vec![
        run_layout("co-located mirrors (same enclosure, 1 cm)", [1.0, 1.0]),
        run_layout("separated mirrors (1 cm and 100 cm)", [1.0, 100.0]),
    ]
}

/// Renders the study as text.
pub fn render(rows: &[RedundancyOutcome]) -> String {
    let mut out = String::from("Redundancy study: RAID-1 under the paper's best attack\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<44} served {}/{} writes, state {}, recovered={} (resynced {} blocks)\n",
            r.layout,
            r.writes_served_during_attack,
            r.writes_attempted_during_attack,
            r.state_during_attack,
            r.recovered_to_optimal,
            r.resynced_blocks
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colocated_mirrors_die_together_separated_survive() {
        let rows = mirror_study();
        assert_eq!(rows.len(), 2);
        let colocated = &rows[0];
        let separated = &rows[1];

        // Same enclosure: every attacked write fails, the array reports
        // failure during the attack.
        assert_eq!(colocated.writes_served_during_attack, 0, "{colocated:?}");
        assert!(
            colocated.state_during_attack.contains("Failed"),
            "{colocated:?}"
        );

        // Separated: everything keeps being served in degraded mode, and
        // the failed mirror resyncs afterwards.
        assert_eq!(
            separated.writes_served_during_attack, separated.writes_attempted_during_attack,
            "{separated:?}"
        );
        assert!(
            separated.state_during_attack.contains("Degraded"),
            "{separated:?}"
        );
        assert!(separated.recovered_to_optimal);
        assert!(separated.resynced_blocks > 0);
    }

    #[test]
    fn render_mentions_both_layouts() {
        let text = render(&mirror_study());
        assert!(text.contains("co-located"), "{text}");
        assert!(text.contains("separated"), "{text}");
    }
}
