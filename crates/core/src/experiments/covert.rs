//! The second acoustic threat class the paper cites (§1/§2.1, ref. \[18\]
//! *DiskFiltration*): the drive as a **transmitter**. Seeks make noise;
//! malware on an air-gapped (here: water-gapped) node can modulate data
//! into seek patterns, and a hydrophone outside the vessel can decode it.
//!
//! The channel here is on–off keyed: a `1` bit is a burst of full-stroke
//! seeks, a `0` bit is idle. The receiver integrates received sound
//! pressure per bit period and thresholds against the ambient sea noise.
//!
//! Emission model (documented assumption, cf. DESIGN.md): a full-stroke
//! seek radiates ~95 dB re 1 µPa at the enclosure wall — in-air drive
//! seek noise (~45 dB re 20 µPa at ~0.3 m) coupled through the same
//! chassis→wall path the injection attack exploits in reverse.

use deepnote_acoustics::{
    received_spl, AcousticEmission, Distance, Frequency, Spl, WaterConditions,
};
use deepnote_blockdev::HddDisk;
use deepnote_sim::Clock;
use serde::{Deserialize, Serialize};

/// Source level at the enclosure wall for one full-stroke seek burst.
pub const SEEK_SOURCE_LEVEL_DB: f64 = 95.0;
/// The actuator's dominant acoustic frequency.
pub const SEEK_TONE_HZ: f64 = 900.0;
/// Deep-sea ambient noise in the actuator band (sea state ~2, shipping).
pub const AMBIENT_NOISE_DB: f64 = 63.0;
/// Seeks per `1` bit (integration gain for the receiver).
pub const SEEKS_PER_BIT: u32 = 8;

/// The transmitter: malware issuing seek patterns on the victim drive.
#[derive(Debug)]
pub struct CovertTransmitter {
    disk: HddDisk,
}

impl CovertTransmitter {
    /// Creates a transmitter on a fresh victim drive.
    pub fn new(clock: Clock) -> Self {
        CovertTransmitter {
            disk: HddDisk::barracuda_500gb(clock),
        }
    }

    /// The fixed bit period in seconds: [`SEEKS_PER_BIT`] full-stroke
    /// seeks plus a 5 % guard band.
    pub fn bit_period_s(&self) -> f64 {
        let drive = self.disk.drive().model();
        let (geo, timing) = (&drive.geometry, &drive.timing);
        let per_seek = timing.seek_s(geo, 0, geo.tracks_per_surface() - 1)
            + timing.rotational_latency_s(geo)
            + timing.sequential_op_s(geo, 8, true);
        per_seek * SEEKS_PER_BIT as f64 * 1.05
    }
}

/// What one seek radiates into the water at the enclosure wall.
pub fn seek_emission() -> AcousticEmission {
    AcousticEmission {
        frequency: Frequency::from_hz(SEEK_TONE_HZ),
        source_level: Spl::water_db(SEEK_SOURCE_LEVEL_DB),
        source_radius: Distance::from_cm(15.0), // the vessel wall radiates
    }
}

/// The channel budget at a given range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelBudget {
    /// Hydrophone distance, metres.
    pub range_m: f64,
    /// Received per-seek level, dB re 1 µPa.
    pub received_db: f64,
    /// SNR against the ambient floor after integrating a full bit
    /// ([`SEEKS_PER_BIT`] seeks add 10·log10(N) of gain), dB.
    pub snr_db: f64,
    /// Whether the bit is decodable (SNR ≥ 3 dB).
    pub decodable: bool,
    /// Achievable raw bitrate, bits/s (0 when not decodable).
    pub bitrate_bps: f64,
}

/// Computes the covert-channel budget at `range_m` in `water`.
pub fn channel_budget(range_m: f64, water: &WaterConditions, bit_period_s: f64) -> ChannelBudget {
    let e = seek_emission();
    let received = received_spl(&e, Distance::from_m(range_m), water);
    let integration_gain = 10.0 * (SEEKS_PER_BIT as f64).log10();
    let snr = received.db() + integration_gain - AMBIENT_NOISE_DB;
    let decodable = snr >= 3.0;
    ChannelBudget {
        range_m,
        received_db: received.db(),
        snr_db: snr,
        decodable,
        bitrate_bps: if decodable { 1.0 / bit_period_s } else { 0.0 },
    }
}

/// One row of the covert-channel study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CovertRow {
    /// Hydrophone range label.
    pub range_m: f64,
    /// SNR after integration, dB.
    pub snr_db: f64,
    /// Bits per second (0 = out of range).
    pub bitrate_bps: f64,
}

/// Sweeps hydrophone ranges for the exfiltration budget (Natick-site
/// water).
pub fn exfiltration_study() -> Vec<CovertRow> {
    let water = WaterConditions::natick_seawater();
    let clock = Clock::new();
    let tx = CovertTransmitter::new(clock);
    let bit_period = tx.bit_period_s();
    [1.0, 10.0, 50.0, 100.0, 500.0, 2_000.0]
        .iter()
        .map(|&range_m| {
            let b = channel_budget(range_m, &water, bit_period);
            CovertRow {
                range_m,
                snr_db: b.snr_db,
                bitrate_bps: b.bitrate_bps,
            }
        })
        .collect()
}

/// Renders the study.
pub fn render(rows: &[CovertRow]) -> String {
    let mut out =
        String::from("Covert exfiltration (DiskFiltration underwater): seek-noise channel\n");
    for r in rows {
        let rate = if r.bitrate_bps > 0.0 {
            format!("{:.1} bit/s", r.bitrate_bps)
        } else {
            "below noise".to_string()
        };
        out.push_str(&format!(
            "  hydrophone at {:>6.0} m: SNR {:>6.1} dB -> {rate}\n",
            r.range_m, r.snr_db
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_blockdev::BlockDevice;
    use deepnote_sim::{SimDuration, SimTime};

    impl CovertTransmitter {
        /// Transmits `bits`, returning the message's virtual duration and
        /// the time of every seek. Each `1` is [`SEEKS_PER_BIT`]
        /// alternating full-stroke reads; each `0` is the same period of
        /// silence. Bits are padded to the fixed
        /// [`CovertTransmitter::bit_period_s`].
        fn transmit(&mut self, bits: &[bool]) -> (SimDuration, Vec<SimTime>) {
            let clock = self.disk.drive().clock().clone();
            let start = clock.now();
            let far_lba = self.disk.num_blocks() - 8;
            let mut buf = vec![0u8; 4096];
            let bit_period = SimDuration::from_secs_f64(self.bit_period_s());
            let mut at_far = false;
            let mut emissions = Vec::new();

            for &bit in bits {
                let bit_start = clock.now();
                if bit {
                    for _ in 0..SEEKS_PER_BIT {
                        let target = if at_far { 0 } else { far_lba };
                        at_far = !at_far;
                        let _ = self.disk.read_blocks(target, &mut buf);
                        emissions.push(clock.now());
                    }
                }
                // Pad (or idle) to the fixed bit period.
                let elapsed = clock.now() - bit_start;
                assert!(
                    elapsed <= bit_period,
                    "bit overran its period: {elapsed} > {bit_period}"
                );
                clock.advance(bit_period - elapsed);
            }
            (clock.now() - start, emissions)
        }
    }

    /// The ideal receiver: thresholds the seek timeline per bit period.
    /// Returns the decoded bits (correct whenever the budget says
    /// decodable — this is the noiseless-timing bound).
    fn decode(
        emissions: &[SimTime],
        start: SimTime,
        bit_period: SimDuration,
        bits: usize,
    ) -> Vec<bool> {
        (0..bits)
            .map(|i| {
                let lo = start + bit_period * i as u64;
                let hi = lo + bit_period;
                emissions.iter().any(|&t| t > lo && t <= hi)
            })
            .collect()
    }

    #[test]
    fn end_to_end_transmission_decodes() {
        let clock = Clock::new();
        let mut tx = CovertTransmitter::new(clock.clone());
        let message = [true, false, true, true, false, false, true, false];
        let bit_period = SimDuration::from_secs_f64(tx.bit_period_s());
        let start = clock.now();
        let (total, emissions) = tx.transmit(&message);
        assert_eq!(total, bit_period * message.len() as u64);
        let decoded = decode(&emissions, start, bit_period, message.len());
        assert_eq!(decoded, message);
    }

    #[test]
    fn bit_period_and_rate_are_plausible() {
        let tx = CovertTransmitter::new(Clock::new());
        let period = tx.bit_period_s();
        // 8 full-stroke seeks ≈ 4 × (17 + 4.2 + 0.2) ms × 2 ≈ 0.17 s.
        assert!((0.05..0.5).contains(&period), "period = {period} s");
        let rate = 1.0 / period;
        assert!((2.0..20.0).contains(&rate), "rate = {rate} bps");
    }

    #[test]
    fn channel_dies_with_distance() {
        let rows = exfiltration_study();
        assert!(rows[0].bitrate_bps > 0.0, "{:?}", rows[0]);
        let last = rows.last().unwrap();
        assert_eq!(last.bitrate_bps, 0.0, "{last:?}");
        // SNR monotone decreasing.
        for pair in rows.windows(2) {
            assert!(pair[1].snr_db < pair[0].snr_db);
        }
    }

    #[test]
    fn integration_gain_helps() {
        let water = WaterConditions::natick_seawater();
        let b = channel_budget(50.0, &water, 0.2);
        let single_seek_snr = b.received_db - AMBIENT_NOISE_DB;
        assert!(b.snr_db > single_seek_snr + 8.0); // 10·log10(8) ≈ 9 dB
    }
}
