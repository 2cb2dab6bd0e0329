//! Drive mounting structures.
//!
//! How the drive is held changes how container-wall motion reaches it. The
//! paper compares a drive lying directly on the container floor
//! (Scenario 1) against one held in a Supermicro CSE-M35TQB 5-in-3 hot-swap
//! tower simulating a rack (Scenarios 2 and 3). The tower's sheet-metal
//! chassis and spring-loaded trays add their own resonances and, in the
//! paper's measurements, *amplify* the attack in the vulnerable band.

use crate::resonator::{Resonator, ResonatorBank};
use serde::{Deserialize, Serialize};

/// A drive mount: its mechanical transfer is a [`ResonatorBank`] applied
/// on top of the enclosure wall motion.
///
/// # Example
///
/// ```
/// use deepnote_structures::Mount;
/// use deepnote_acoustics::Frequency;
///
/// let floor = Mount::direct_on_floor();
/// let tower = Mount::supermicro_tower(1);
/// // The tower resonates near its tray modes; the bare floor does not.
/// let f = Frequency::from_hz(650.0);
/// assert!(tower.transfer(f) > floor.transfer(f));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mount {
    bank: ResonatorBank,
}

impl Mount {
    /// Creates a mount from its transfer bank.
    pub fn new(bank: ResonatorBank) -> Self {
        Mount { bank }
    }

    /// Drive resting directly on the container floor (Scenario 1): decent
    /// broadband contact coupling, one mild slab mode.
    pub fn direct_on_floor() -> Self {
        Mount::new(ResonatorBank::new(0.55).with_mode(Resonator::new(450.0, 1.6, 0.9)))
    }

    /// A Supermicro CSE-M35TQB 5-in-3 hot-swap tower (Scenarios 2–3),
    /// holding the drive in `slot` (0 = bottom). Sheet-metal tray modes
    /// amplify the mid band; higher slots sway slightly more.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not one of the tower's 5 bays (0–4).
    pub fn supermicro_tower(slot: usize) -> Self {
        assert!(slot < 5, "CSE-M35TQB has 5 bays (slot 0..=4), got {slot}");
        let sway = 1.0 + 0.06 * slot as f64;
        Mount::new(
            ResonatorBank::new(0.45)
                .with_mode(Resonator::new(380.0, 1.9, 1.1 * sway))
                .with_mode(Resonator::new(700.0, 1.7, 1.5 * sway))
                .with_mode(Resonator::new(1_250.0, 2.2, 0.9 * sway)),
        )
    }

    /// Mechanical transfer gain at `f`.
    pub fn transfer(&self, f: deepnote_acoustics::Frequency) -> f64 {
        self.bank.response(f)
    }

    /// A copy of this mount with vibration dampers fitted (defense, §5):
    /// the transfer bank scaled by `1 - isolation` .
    ///
    /// # Panics
    ///
    /// Panics if `isolation` is outside `[0, 1)`.
    pub fn with_dampers(&self, isolation: f64) -> Mount {
        assert!(
            (0.0..1.0).contains(&isolation),
            "isolation must be in [0, 1), got {isolation}"
        );
        Mount::new(self.bank.scaled(1.0 - isolation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_acoustics::Frequency;

    #[test]
    fn tower_amplifies_mid_band() {
        let tower = Mount::supermicro_tower(1);
        let f = Frequency::from_hz(700.0);
        assert!(tower.transfer(f) > 1.5, "transfer = {}", tower.transfer(f));
        // Out of band it settles toward the floor gain.
        assert!(tower.transfer(Frequency::from_khz(10.0)) < 0.8);
    }

    #[test]
    fn higher_slots_sway_more() {
        let f = Frequency::from_hz(700.0);
        let bottom = Mount::supermicro_tower(0).transfer(f);
        let top = Mount::supermicro_tower(4).transfer(f);
        assert!(top > bottom);
    }

    #[test]
    #[should_panic(expected = "5 bays")]
    fn slot_out_of_range_panics() {
        Mount::supermicro_tower(5);
    }

    #[test]
    fn dampers_reduce_transfer() {
        let raw = Mount::supermicro_tower(1);
        let damped = raw.with_dampers(0.8);
        let f = Frequency::from_hz(700.0);
        assert!((damped.transfer(f) / raw.transfer(f) - 0.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "isolation")]
    fn full_isolation_is_invalid() {
        Mount::supermicro_tower(0).with_dampers(1.0);
    }
}
