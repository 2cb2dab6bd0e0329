//! The threat model (paper §3).
//!
//! The adversary transmits underwater sound of controllable frequency and
//! amplitude at a known enclosure location. They cannot tamper with
//! hardware or software, attach anything to the enclosure, or use
//! malware/network vectors. Two objectives are distinguished by severity:
//! controlled throughput loss, and prolonged attacks that crash crucial
//! processes.

use deepnote_acoustics::{Distance, Frequency, SignalChain, Speaker};
use serde::{Deserialize, Serialize};

/// The tunable attack parameters: what to transmit and from where.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackParams {
    /// Transmitted tone frequency.
    pub frequency: Frequency,
    /// Speaker-to-enclosure distance.
    pub distance: Distance,
}

impl AttackParams {
    /// The paper's best attack parameters (§4.4): 650 Hz at 1 cm.
    pub fn paper_best() -> Self {
        AttackParams {
            frequency: Frequency::from_hz(650.0),
            distance: Distance::from_cm(1.0),
        }
    }

    /// Same frequency, different distance.
    pub fn at_distance(self, distance: Distance) -> Self {
        AttackParams { distance, ..self }
    }

    /// Same distance, different frequency.
    pub fn at_frequency(self, frequency: Frequency) -> Self {
        AttackParams { frequency, ..self }
    }
}

/// The adversary's equipment: a labelled signal chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attacker {
    name: String,
    chain: SignalChain,
}

impl Attacker {
    /// Builds an attacker from equipment.
    pub fn new(name: impl Into<String>, chain: SignalChain) -> Self {
        Attacker {
            name: name.into(),
            chain,
        }
    }

    /// The paper's attacker: a commercial AQ339 + TOA amplifier rig.
    pub fn paper_attacker() -> Self {
        Attacker::new(
            "commercial rig (AQ339 + BG-2120)",
            SignalChain::paper_setup(Frequency::from_hz(650.0)),
        )
    }

    /// A better-funded adversary with a military-grade projector (§5
    /// "Effective Range").
    pub fn military_attacker() -> Self {
        Attacker::new(
            "military-grade projector",
            SignalChain::new(
                deepnote_acoustics::SineSource::new(Frequency::from_hz(650.0)),
                deepnote_acoustics::Amplifier::toa_bg2120(),
                Speaker::military_projector(),
            ),
        )
    }

    /// The attacker's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The signal chain (retune with [`SignalChain::retuned`]).
    pub fn chain(&self) -> &SignalChain {
        &self.chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_best_params() {
        let p = AttackParams::paper_best();
        assert_eq!(p.frequency.hz(), 650.0);
        assert_eq!(p.distance.cm(), 1.0);
    }

    #[test]
    fn params_builders() {
        let p = AttackParams::paper_best()
            .at_distance(Distance::from_cm(15.0))
            .at_frequency(Frequency::from_hz(300.0));
        assert_eq!(p.distance.cm(), 15.0);
        assert_eq!(p.frequency.hz(), 300.0);
    }

    #[test]
    fn attackers_differ_in_power() {
        let commercial = Attacker::paper_attacker();
        let military = Attacker::military_attacker();
        let c_level = commercial.chain().emission().source_level.db();
        let m_level = military.chain().emission().source_level.db();
        assert!(m_level > c_level + 40.0);
    }
}
