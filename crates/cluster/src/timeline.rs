//! The attack timeline: what the adversary transmits, and when.
//!
//! A campaign is a sequence of phases — quiet baseline, a frequency
//! sweep hunting for the vulnerable band (paper §4.1), a prolonged tone
//! on the best frequency (§4.4), and a quiet recovery window. The
//! timeline maps any cluster instant to the transmitted frequency (or
//! silence); the campaign driver re-applies it to every node's
//! vibration input as time advances.

use deepnote_acoustics::Frequency;
use deepnote_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What the speaker transmits during one phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackLoad {
    /// Silence.
    Off,
    /// A steady tone.
    Tone {
        /// Tone frequency in Hz.
        hz: f64,
    },
    /// A linear frequency sweep across the phase.
    Sweep {
        /// Frequency at the phase start, Hz.
        start_hz: f64,
        /// Frequency at the phase end, Hz.
        end_hz: f64,
    },
}

/// One phase of the campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Label used for metrics attribution and reports.
    pub label: String,
    /// Phase length.
    pub duration: SimDuration,
    /// What the speaker does.
    pub load: AttackLoad,
}

/// The whole campaign schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackTimeline {
    phases: Vec<Phase>,
}

impl AttackTimeline {
    /// Builds a timeline from explicit phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has zero length.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "timeline needs at least one phase");
        assert!(
            phases.iter().all(|p| p.duration > SimDuration::ZERO),
            "phases must have positive length"
        );
        AttackTimeline { phases }
    }

    /// The paper-shaped campaign: baseline → sweep onto the vulnerable
    /// band → prolonged 650 Hz attack of `attack` length → recovery.
    pub fn paper_campaign(attack: SimDuration) -> Self {
        AttackTimeline::new(vec![
            Phase {
                label: "baseline".into(),
                duration: SimDuration::from_secs(15),
                load: AttackLoad::Off,
            },
            Phase {
                label: "sweep".into(),
                duration: SimDuration::from_secs(15),
                load: AttackLoad::Sweep {
                    start_hz: 100.0,
                    end_hz: 650.0,
                },
            },
            Phase {
                label: "attack".into(),
                duration: attack,
                load: AttackLoad::Tone { hz: 650.0 },
            },
            Phase {
                label: "recovery".into(),
                duration: SimDuration::from_secs(60),
                load: AttackLoad::Off,
            },
        ])
    }

    /// The phases in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Start instant of phase `idx`.
    pub fn phase_start(&self, idx: usize) -> SimTime {
        let nanos: u64 = self.phases[..idx]
            .iter()
            .map(|p| p.duration.as_nanos())
            .sum();
        SimTime::ZERO + SimDuration::from_nanos(nanos)
    }

    /// Total campaign length.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(self.phases.iter().map(|p| p.duration.as_nanos()).sum())
    }

    /// Index of the phase containing `now` (the last phase after the
    /// end).
    pub fn phase_at(&self, now: SimTime) -> usize {
        let mut start = SimTime::ZERO;
        for (i, p) in self.phases.iter().enumerate() {
            let end = start + p.duration;
            if now < end {
                return i;
            }
            start = end;
        }
        self.phases.len() - 1
    }

    /// The transmitted frequency at `now`, or `None` for silence.
    pub fn frequency_at(&self, now: SimTime) -> Option<Frequency> {
        let idx = self.phase_at(now);
        let phase = &self.phases[idx];
        match phase.load {
            AttackLoad::Off => None,
            AttackLoad::Tone { hz } => Some(Frequency::from_hz(hz)),
            AttackLoad::Sweep { start_hz, end_hz } => {
                let start = self.phase_start(idx);
                let progress = now.saturating_duration_since(start).as_secs_f64()
                    / phase.duration.as_secs_f64();
                let progress = progress.clamp(0.0, 1.0);
                Some(Frequency::from_hz(
                    start_hz + (end_hz - start_hz) * progress,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_campaign_shape() {
        let t = AttackTimeline::paper_campaign(SimDuration::from_secs(120));
        assert_eq!(t.phases().len(), 4);
        assert_eq!(t.total(), SimDuration::from_secs(15 + 15 + 120 + 60));
        assert_eq!(t.phase_start(2), SimTime::from_secs(30));
        assert_eq!(t.phase_at(SimTime::from_secs(0)), 0);
        assert_eq!(t.phase_at(SimTime::from_secs(29)), 1);
        assert_eq!(t.phase_at(SimTime::from_secs(30)), 2);
        assert_eq!(t.phase_at(SimTime::from_secs(10_000)), 3);
    }

    #[test]
    fn silence_during_baseline_and_recovery() {
        let t = AttackTimeline::paper_campaign(SimDuration::from_secs(120));
        assert_eq!(t.frequency_at(SimTime::from_secs(5)), None);
        assert_eq!(t.frequency_at(SimTime::from_secs(200)), None);
    }

    #[test]
    fn sweep_interpolates_onto_the_attack_tone() {
        let t = AttackTimeline::paper_campaign(SimDuration::from_secs(120));
        let early = t.frequency_at(SimTime::from_secs(15)).unwrap();
        let late = t
            .frequency_at(SimTime::from_secs(30) - SimDuration::from_nanos(1))
            .unwrap();
        assert!((early.hz() - 100.0).abs() < 1.0, "early={}", early.hz());
        assert!((late.hz() - 650.0).abs() < 1.0, "late={}", late.hz());
        let attack = t.frequency_at(SimTime::from_secs(60)).unwrap();
        assert_eq!(attack.hz(), 650.0);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_length_phase_rejected() {
        AttackTimeline::new(vec![Phase {
            label: "x".into(),
            duration: SimDuration::ZERO,
            load: AttackLoad::Off,
        }]);
    }
}
