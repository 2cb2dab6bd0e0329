//! Sound propagation from source to target.
//!
//! Transmission loss has two parts:
//!
//! 1. **Geometric spreading.** At the centimetre ranges of the paper's tank
//!    experiments the speaker is a finite aperture, so we use a
//!    near-field-regularized spherical law: pressure falls as
//!    `a / (a + r)` where `a` is the source radius. At ranges far beyond
//!    `a` this converges to the familiar `20·log10(r)` spherical law;
//!    at `r = 0` (contact) the loss is zero.
//! 2. **Absorption.** Frequency- and water-dependent loss in dB/km from
//!    [`crate::absorption`] — negligible in the tank, decisive for the §5
//!    long-range discussion.
//!
//! [`PropagationModel`] selects spherical (default) or cylindrical
//! spreading (for shallow-channel long-range estimates).
//!
//! Only spreading depends on range. [`TonePropagation`] evaluates the
//! rest once per tone, so a sweep over many ranges pays for the
//! emission and the absorption coefficient once.

use crate::absorption::Absorption;
use crate::medium::WaterConditions;
use crate::source::AcousticEmission;
use crate::spl::Spl;
use crate::units::{Depth, Distance, Frequency};
use serde::{Deserialize, Serialize};

/// Geometric spreading law.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PropagationModel {
    /// Spherical spreading with near-field regularization (open water).
    #[default]
    Spherical,
    /// Cylindrical spreading (sound trapped in a shallow channel): half
    /// the dB slope of spherical beyond the reference distance.
    Cylindrical,
    /// Empirical tank-scale law for the paper's testbed: in a small
    /// reverberant tank the field around a large transducer decays more
    /// slowly than spherical (direct + reverberant energy), following
    /// `p ∝ r^(−0.715)` referenced to 1 cm — fitted to the distance
    /// profile of the paper's Table 1.
    TankReverberant,
}

impl PropagationModel {
    /// Pressure-decay exponent of the tank-reverberant law.
    pub const TANK_EXPONENT: f64 = 0.715;
    /// Reference range of the tank-reverberant law, metres (1 cm).
    pub const TANK_REFERENCE_M: f64 = 0.01;

    /// Geometric spreading loss in dB at range `r` from a source of
    /// radius `a`. Zero at contact, monotone increasing in `r`.
    pub fn spreading_loss_db(self, r: Distance, a: Distance) -> f64 {
        let a_m = a.m().max(1e-3);
        let ratio = (a_m + r.m()) / a_m;
        match self {
            PropagationModel::Spherical => 20.0 * ratio.log10(),
            PropagationModel::Cylindrical => 10.0 * ratio.log10(),
            PropagationModel::TankReverberant => {
                // Zero loss at or inside the 1 cm reference point.
                let ratio = (r.m() / Self::TANK_REFERENCE_M).max(1.0);
                20.0 * Self::TANK_EXPONENT * ratio.log10()
            }
        }
    }
}

/// The SPL received at `range` from the emitting source, using spherical
/// spreading. [`TonePropagation`] chooses the spreading model.
pub fn received_spl(emission: &AcousticEmission, range: Distance, water: &WaterConditions) -> Spl {
    TonePropagation::new(emission, water, PropagationModel::Spherical).received_spl(range)
}

/// One emission propagating through one water under one spreading law:
/// everything in the received SPL that does not depend on range.
///
/// # Example
///
/// ```
/// use deepnote_acoustics::prelude::*;
///
/// let e = SignalChain::paper_setup(Frequency::from_hz(650.0)).emission();
/// let water = WaterConditions::tank_freshwater();
/// let tone = TonePropagation::new(&e, &water, PropagationModel::Spherical);
/// let r = Distance::from_cm(10.0);
/// assert_eq!(tone.received_spl(r), received_spl(&e, r, &water));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TonePropagation {
    emission: AcousticEmission,
    absorption: Absorption,
    model: PropagationModel,
}

impl TonePropagation {
    /// Evaluates the range-independent terms for `emission` in `water`.
    pub fn new(
        emission: &AcousticEmission,
        water: &WaterConditions,
        model: PropagationModel,
    ) -> Self {
        TonePropagation {
            emission: *emission,
            absorption: Absorption::new(emission.frequency, water),
            model,
        }
    }

    /// Total one-way transmission loss in dB at `range`: spreading +
    /// absorption.
    ///
    /// # Example
    ///
    /// ```
    /// use deepnote_acoustics::prelude::*;
    ///
    /// let e = SignalChain::paper_setup(Frequency::from_hz(650.0)).emission();
    /// let water = WaterConditions::tank_freshwater();
    /// let tone = TonePropagation::new(&e, &water, PropagationModel::Spherical);
    /// let tl_1cm = tone.transmission_loss_db(Distance::from_cm(1.0));
    /// let tl_25cm = tone.transmission_loss_db(Distance::from_cm(25.0));
    /// assert!(tl_25cm > tl_1cm);
    /// ```
    pub fn transmission_loss_db(&self, range: Distance) -> f64 {
        let spreading = self
            .model
            .spreading_loss_db(range, self.emission.source_radius);
        let absorption = self.absorption.loss_db(range.km());
        spreading + absorption
    }

    /// The SPL received at `range`.
    pub fn received_spl(&self, range: Distance) -> Spl {
        self.emission
            .source_level
            .plus_db(-self.transmission_loss_db(range))
    }
}

/// The Lloyd-mirror interference factor: the pressure ratio (linear, in
/// `0..=2`) between the two-path field (direct + surface-reflected, with
/// the reflection phase-inverted at the pressure-release sea surface)
/// and the direct path alone.
///
/// Shallow sources attacking deep targets at long range sit deep in the
/// cancellation regime (`factor ≪ 1`): the surface "mirror" eats the
/// low-frequency energy, an inherent protection for deep deployments
/// against surface vessels.
///
/// # Panics
///
/// Panics if the horizontal range or either depth is not positive.
pub fn lloyd_mirror_factor(
    f: Frequency,
    water: &WaterConditions,
    horizontal_range: Distance,
    source_depth: Depth,
    target_depth: Depth,
) -> f64 {
    let (horizontal_range_m, source_depth_m, target_depth_m) =
        (horizontal_range.m(), source_depth.m(), target_depth.m());
    assert!(
        horizontal_range_m > 0.0 && source_depth_m > 0.0 && target_depth_m > 0.0,
        "range and depths must be positive"
    );
    let dz = source_depth_m - target_depth_m;
    let sz = source_depth_m + target_depth_m;
    let r1 = (horizontal_range_m * horizontal_range_m + dz * dz).sqrt();
    let r2 = (horizontal_range_m * horizontal_range_m + sz * sz).sqrt();
    let k = f.angular() / water.sound_speed_m_s();
    // p = e^{ikr1}/r1 − e^{ikr2}/r2 (surface reflection inverts phase);
    // normalize by the direct term 1/r1.
    let (re, im) = (
        1.0 / r1 * (k * r1).cos() - 1.0 / r2 * (k * r2).cos(),
        1.0 / r1 * (k * r1).sin() - 1.0 / r2 * (k * r2).sin(),
    );
    (re * re + im * im).sqrt() * r1
}

/// Received SPL including the surface-reflection (Lloyd mirror) path:
/// spherical spreading along the direct slant path, absorption, and the
/// interference factor.
pub fn received_spl_lloyd(
    emission: &AcousticEmission,
    water: &WaterConditions,
    horizontal_range: Distance,
    source_depth: Depth,
    target_depth: Depth,
) -> Spl {
    let r_m = horizontal_range.m();
    let dz = source_depth.m() - target_depth.m();
    let slant = Distance::from_m((r_m * r_m + dz * dz).sqrt());
    let factor = lloyd_mirror_factor(
        emission.frequency,
        water,
        horizontal_range,
        source_depth,
        target_depth,
    );
    received_spl(emission, slant, water).plus_db(20.0 * factor.max(1e-9).log10())
}

/// The maximum range (in metres, searched up to `max_m`) at which the
/// received level still meets `required`, or `None` if even contact is too
/// quiet. Used for the §5 "Effective Range" ablation.
pub fn max_effective_range_m(
    emission: &AcousticEmission,
    required: Spl,
    water: &WaterConditions,
    model: PropagationModel,
    max_m: f64,
) -> Option<f64> {
    assert!(max_m > 0.0, "search range must be positive");
    let tone = TonePropagation::new(emission, water, model);
    let meets = |r_m: f64| tone.received_spl(Distance::from_m(r_m)).db() >= required.db();
    if !meets(0.0) {
        return None;
    }
    if meets(max_m) {
        return Some(max_m);
    }
    // Bisection: loss is monotone in range.
    let (mut lo, mut hi) = (0.0, max_m);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SignalChain;
    use crate::units::Frequency;
    use proptest::prelude::*;

    fn emission_650() -> AcousticEmission {
        SignalChain::paper_setup(Frequency::from_hz(650.0)).emission()
    }

    #[test]
    fn contact_has_no_loss() {
        let e = emission_650();
        let w = WaterConditions::tank_freshwater();
        let tl = TonePropagation::new(&e, &w, PropagationModel::Spherical)
            .transmission_loss_db(Distance::from_m(0.0));
        assert!(tl.abs() < 1e-9, "tl = {tl}");
        assert!((received_spl(&e, Distance::from_m(0.0), &w).db() - 140.0).abs() < 1e-9);
    }

    #[test]
    fn table1_distances_are_ordered() {
        let e = emission_650();
        let w = WaterConditions::tank_freshwater();
        let levels: Vec<f64> = [1.0, 5.0, 10.0, 15.0, 20.0, 25.0]
            .iter()
            .map(|&cm| received_spl(&e, Distance::from_cm(cm), &w).db())
            .collect();
        for pair in levels.windows(2) {
            assert!(pair[0] > pair[1], "levels not decreasing: {levels:?}");
        }
        // The whole tank-scale span stays within ~15 dB: near-field.
        assert!(
            levels[0] - levels[5] < 16.0,
            "span = {}",
            levels[0] - levels[5]
        );
    }

    #[test]
    fn far_field_converges_to_spherical_law() {
        let e = emission_650();
        let model = PropagationModel::Spherical;
        let a = e.source_radius;
        let tl_100 = model.spreading_loss_db(Distance::from_m(100.0), a);
        let tl_1000 = model.spreading_loss_db(Distance::from_m(1000.0), a);
        // One decade of range ⇒ ~20 dB in the far field.
        assert!((tl_1000 - tl_100 - 20.0).abs() < 0.1);
    }

    #[test]
    fn tank_law_matches_fitted_profile() {
        let model = PropagationModel::TankReverberant;
        let a = Distance::from_cm(6.0);
        // No loss at the 1 cm reference (and inside it).
        assert_eq!(model.spreading_loss_db(Distance::from_cm(1.0), a), 0.0);
        assert_eq!(model.spreading_loss_db(Distance::from_cm(0.5), a), 0.0);
        // One decade of range: 20·0.715 ≈ 14.3 dB.
        let tl10 = model.spreading_loss_db(Distance::from_cm(10.0), a);
        assert!((tl10 - 14.3).abs() < 0.1, "tl10 = {tl10}");
        // Slower than spherical from the same aperture at long range.
        let far = Distance::from_m(10.0);
        assert!(
            model.spreading_loss_db(far, a)
                < PropagationModel::Spherical.spreading_loss_db(far, Distance::from_cm(1.0))
        );
    }

    #[test]
    fn cylindrical_spreads_slower() {
        let a = Distance::from_cm(6.0);
        let r = Distance::from_m(500.0);
        let sph = PropagationModel::Spherical.spreading_loss_db(r, a);
        let cyl = PropagationModel::Cylindrical.spreading_loss_db(r, a);
        assert!((sph - 2.0 * cyl).abs() < 1e-9);
    }

    #[test]
    fn effective_range_extends_with_louder_source() {
        let w = WaterConditions::natick_seawater();
        let quiet = emission_650();
        let loud = AcousticEmission {
            source_level: quiet.source_level.plus_db(40.0),
            ..quiet
        };
        let need = Spl::water_db(126.0);
        let r_quiet =
            max_effective_range_m(&quiet, need, &w, PropagationModel::Spherical, 1e5).unwrap();
        let r_loud =
            max_effective_range_m(&loud, need, &w, PropagationModel::Spherical, 1e5).unwrap();
        assert!(r_loud > 10.0 * r_quiet, "quiet={r_quiet} loud={r_loud}");
    }

    #[test]
    fn effective_range_none_when_source_too_quiet() {
        let e = emission_650();
        let w = WaterConditions::tank_freshwater();
        assert!(max_effective_range_m(
            &e,
            Spl::water_db(200.0),
            &w,
            PropagationModel::Spherical,
            1e5
        )
        .is_none());
    }

    #[test]
    fn lloyd_mirror_cancels_for_shallow_sources_at_long_range() {
        let w = WaterConditions::natick_seawater();
        let f = Frequency::from_hz(650.0);
        // Shallow source (2 m) vs deep source (30 m), target at 36 m,
        // 10 km out: the shallow source is deep in cancellation.
        let shallow = lloyd_mirror_factor(
            f,
            &w,
            Distance::from_m(10_000.0),
            Depth::from_m(2.0),
            Depth::from_m(36.0),
        );
        let deep = lloyd_mirror_factor(
            f,
            &w,
            Distance::from_m(10_000.0),
            Depth::from_m(30.0),
            Depth::from_m(36.0),
        );
        assert!(shallow < 0.15, "shallow factor = {shallow}");
        assert!(deep > 2.0 * shallow, "deep {deep} vs shallow {shallow}");
    }

    #[test]
    fn lloyd_mirror_near_field_shows_interference_fringes() {
        let w = WaterConditions::natick_seawater();
        let f = Frequency::from_khz(5.0);
        // Close in, the factor oscillates between ~0 (null) and ~2
        // (constructive); scan a range span and require both extremes.
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        let mut r = 50.0;
        while r < 500.0 {
            let v = lloyd_mirror_factor(
                f,
                &w,
                Distance::from_m(r),
                Depth::from_m(10.0),
                Depth::from_m(36.0),
            );
            min = min.min(v);
            max = max.max(v);
            r += 0.5;
        }
        assert!(min < 0.4, "min = {min}");
        assert!(max > 1.5, "max = {max}");
        assert!(max <= 2.0 + 1e-9);
    }

    #[test]
    fn lloyd_received_level_below_free_field_when_cancelling() {
        let w = WaterConditions::natick_seawater();
        let e = AcousticEmission {
            source_level: Spl::water_db(200.0),
            ..emission_650()
        };
        let free = TonePropagation::new(&e, &w, PropagationModel::Spherical)
            .received_spl(Distance::from_m(10_000.0));
        let mirrored = received_spl_lloyd(
            &e,
            &w,
            Distance::from_m(10_000.0),
            Depth::from_m(2.0),
            Depth::from_m(36.0),
        );
        assert!(
            mirrored.db() < free.db() - 10.0,
            "mirrored {mirrored} vs free {free}"
        );
    }

    proptest! {
        /// The Lloyd factor is bounded by 2 (full constructive).
        #[test]
        fn lloyd_factor_bounded(r in 10.0f64..50_000.0, zs in 1.0f64..100.0, zt in 1.0f64..100.0, khz in 0.1f64..10.0) {
            let w = WaterConditions::natick_seawater();
            let v = lloyd_mirror_factor(Frequency::from_khz(khz), &w, Distance::from_m(r), Depth::from_m(zs), Depth::from_m(zt));
            prop_assert!((0.0..=2.0 + 1e-6).contains(&v), "factor = {}", v);
        }

        /// Transmission loss is monotone in range.
        #[test]
        fn loss_monotone_in_range(r1 in 0.0f64..1_000.0, dr in 0.001f64..1_000.0) {
            let e = emission_650();
            let w = WaterConditions::natick_seawater();
            let tone = TonePropagation::new(&e, &w, PropagationModel::Spherical);
            let tl1 = tone.transmission_loss_db(Distance::from_m(r1));
            let tl2 = tone.transmission_loss_db(Distance::from_m(r1 + dr));
            prop_assert!(tl2 > tl1);
        }

        /// Received SPL never exceeds the source level.
        #[test]
        fn received_bounded_by_source(r in 0.0f64..10_000.0) {
            let e = emission_650();
            let w = WaterConditions::natick_seawater();
            prop_assert!(received_spl(&e, Distance::from_m(r), &w).db() <= e.source_level.db() + 1e-12);
        }
    }
}
