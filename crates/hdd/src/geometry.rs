//! Drive geometry.
//!
//! Enough physical layout to derive seek distances, rotational timing, and
//! the track pitch that the off-track tolerance thresholds are measured
//! against.

use serde::{Deserialize, Serialize};

/// Bytes in one sector.
pub const SECTOR_SIZE: u64 = 512;

/// The physical layout of a drive.
///
/// # Example
///
/// ```
/// use deepnote_hdd::DriveGeometry;
///
/// let geo = DriveGeometry::barracuda_500gb();
/// assert!((geo.revolution_s() - 60.0 / 7200.0).abs() < 1e-12); // 7200 RPM
/// assert!(geo.total_sectors() * 512 >= 500_000_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriveGeometry {
    name: String,
    rpm: u32,
    platters: u32,
    heads: u32,
    sectors_per_track: u64,
    tracks_per_surface: u64,
    track_pitch_nm: f64,
}

impl DriveGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or the track pitch is not positive.
    pub fn new(
        name: impl Into<String>,
        rpm: u32,
        platters: u32,
        heads: u32,
        sectors_per_track: u64,
        tracks_per_surface: u64,
        track_pitch_nm: f64,
    ) -> Self {
        assert!(rpm > 0, "rpm must be positive");
        assert!(platters > 0 && heads > 0, "platters/heads must be positive");
        assert!(heads <= platters * 2, "at most two heads per platter");
        assert!(
            sectors_per_track > 0 && tracks_per_surface > 0,
            "sector/track counts must be positive"
        );
        assert!(track_pitch_nm > 0.0, "track pitch must be positive");
        DriveGeometry {
            name: name.into(),
            rpm,
            platters,
            heads,
            sectors_per_track,
            tracks_per_surface,
            track_pitch_nm,
        }
    }

    /// The paper's victim drive: a Seagate Barracuda 500 GB desktop drive
    /// (7200 RPM, one platter, two heads, ~100 nm track pitch class).
    pub fn barracuda_500gb() -> Self {
        // 500 GB / 512 B = ~976.6 M sectors over 2 surfaces:
        // 1_200_000 sectors/track-cylinder ≈ realistic zoned average of
        // ~2000 sectors/track × 245k tracks/surface.
        DriveGeometry::new(
            "Seagate Barracuda 500GB (ST500DM002 class)",
            7_200,
            1,
            2,
            2_000,
            245_000,
            100.0,
        )
    }

    /// A nearline enterprise drive of the class actually racked in
    /// data-center JBODs: 4 TB, four platters, higher areal density
    /// (tighter 70 nm track pitch), zoned at ~2500 sectors/track average.
    pub fn nearline_4tb() -> Self {
        DriveGeometry::new(
            "4TB nearline enterprise (Exos class)",
            7_200,
            4,
            8,
            2_500,
            390_000,
            70.0,
        )
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tracks per recording surface.
    pub fn tracks_per_surface(&self) -> u64 {
        self.tracks_per_surface
    }

    /// Track-to-track pitch in nanometres.
    pub fn track_pitch_nm(&self) -> f64 {
        self.track_pitch_nm
    }

    /// Total addressable sectors.
    pub fn total_sectors(&self) -> u64 {
        self.sectors_per_track * self.tracks_per_surface * self.heads as u64
    }

    /// One full revolution, in seconds.
    pub fn revolution_s(&self) -> f64 {
        60.0 / self.rpm as f64
    }

    /// The cylinder (track index) containing an LBA, serpentine layout:
    /// consecutive LBAs fill a whole cylinder (all heads) before seeking.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is out of range.
    pub fn cylinder_of(&self, lba: u64) -> u64 {
        assert!(lba < self.total_sectors(), "LBA {lba} out of range");
        lba / (self.sectors_per_track * self.heads as u64)
    }

    /// Media transfer rate in bytes/second, from rotation and linear
    /// density: one track passes the head per revolution.
    pub fn media_rate_bytes_per_s(&self) -> f64 {
        self.sectors_per_track as f64 * SECTOR_SIZE as f64 / self.revolution_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barracuda_capacity_is_500gb_class() {
        let geo = DriveGeometry::barracuda_500gb();
        let gb = (geo.total_sectors() * SECTOR_SIZE) as f64 / 1e9;
        assert!((490.0..520.0).contains(&gb), "capacity = {gb} GB");
    }

    #[test]
    fn nearline_capacity_is_4tb_class() {
        let geo = DriveGeometry::nearline_4tb();
        let tb = (geo.total_sectors() * SECTOR_SIZE) as f64 / 1e12;
        assert!((3.8..4.2).contains(&tb), "capacity = {tb} TB");
        assert!(geo.track_pitch_nm() < DriveGeometry::barracuda_500gb().track_pitch_nm());
    }

    #[test]
    fn revolution_time_at_7200rpm() {
        let geo = DriveGeometry::barracuda_500gb();
        assert!((geo.revolution_s() - 8.333e-3).abs() < 1e-6);
    }

    #[test]
    fn media_rate_is_plausible() {
        // ~2000 sectors × 512 B per 8.33 ms ≈ 123 MB/s: desktop class.
        let rate = DriveGeometry::barracuda_500gb().media_rate_bytes_per_s();
        assert!((100e6..160e6).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn cylinder_mapping_is_serpentine() {
        let geo = DriveGeometry::barracuda_500gb();
        let per_cyl = geo.sectors_per_track * geo.heads as u64;
        assert_eq!(geo.cylinder_of(0), 0);
        assert_eq!(geo.cylinder_of(per_cyl - 1), 0);
        assert_eq!(geo.cylinder_of(per_cyl), 1);
        assert_eq!(
            geo.cylinder_of(geo.total_sectors() - 1),
            geo.tracks_per_surface() - 1
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cylinder_of_bad_lba_panics() {
        let geo = DriveGeometry::barracuda_500gb();
        geo.cylinder_of(geo.total_sectors());
    }

    #[test]
    #[should_panic(expected = "heads")]
    fn too_many_heads_rejected() {
        DriveGeometry::new("x", 7200, 1, 3, 100, 100, 100.0);
    }
}
