//! The vibration-aware HDD block device.
//!
//! [`HddDisk`] pairs a sparse byte store with the mechanical
//! [`HardDiskDrive`] model: every request is timed (and possibly failed)
//! by the drive, so anything running on top — filesystem, database,
//! benchmark — experiences the acoustic attack exactly as the drive does.

use crate::device::{check_request, clip, BlockDevice};
use crate::error::IoError;
use crate::store::SectorStore;
use deepnote_hdd::{DiskOp, HardDiskDrive, VibrationInput};
use deepnote_sim::{Clock, SimTime};
use deepnote_telemetry::{Layer, Tracer, Value};

/// A block device backed by the mechanical drive model.
///
/// # Example
///
/// ```
/// use deepnote_blockdev::{BlockDevice, HddDisk};
/// use deepnote_sim::Clock;
///
/// let clock = Clock::new();
/// let mut disk = HddDisk::barracuda_500gb(clock.clone());
/// let buf = vec![7u8; 4096];
/// disk.write_blocks(0, &buf)?;
/// assert!(clock.now().as_nanos() > 0); // the op took mechanical time
/// # Ok::<(), deepnote_blockdev::IoError>(())
/// ```
#[derive(Debug)]
pub struct HddDisk {
    drive: HardDiskDrive,
    blocks: SectorStore,
    read_errors: u64,
    write_errors: u64,
    tracer: Tracer,
}

impl HddDisk {
    /// Wraps an existing drive.
    pub fn new(drive: HardDiskDrive) -> Self {
        HddDisk {
            drive,
            blocks: SectorStore::default(),
            read_errors: 0,
            write_errors: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// A copy of this device for another node: the same stored sectors,
    /// error counters and mechanical state (see
    /// [`HardDiskDrive::replica`]), on `clock`, with a fresh quiescent
    /// vibration input and no tracer.
    pub fn replica(&self, clock: Clock) -> Self {
        HddDisk {
            drive: self.drive.replica(clock),
            blocks: self.blocks.clone(),
            read_errors: self.read_errors,
            write_errors: self.write_errors,
            tracer: Tracer::disabled(),
        }
    }

    /// The paper's Barracuda on the given clock.
    pub fn barracuda_500gb(clock: Clock) -> Self {
        HddDisk::new(HardDiskDrive::barracuda_500gb(clock))
    }

    /// A nearline enterprise drive with RV compensation (§5 "HDD types").
    pub fn nearline_4tb(clock: Clock) -> Self {
        HddDisk::new(HardDiskDrive::nearline_4tb(clock))
    }

    /// The underlying mechanical drive.
    pub fn drive(&self) -> &HardDiskDrive {
        &self.drive
    }

    /// The drive's vibration input — clone this to mount the attack.
    pub fn vibration(&self) -> VibrationInput {
        self.drive.vibration().clone()
    }

    /// Failed read requests so far.
    pub fn read_errors(&self) -> u64 {
        self.read_errors
    }

    /// Failed write requests so far.
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Attaches a tracer (bound to the owning node's track). Degraded I/O (retries, errors) lands on the `hdd` layer, request
    /// failures on the `blockdev` layer. Timestamps are this device's
    /// private clock; the node's dispatch offset maps them onto the
    /// cluster timeline.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Residual off-track (nm) under the current vibration, `0.0` when
    /// quiescent.
    pub fn residual_offtrack_nm(&self) -> f64 {
        let Some(v) = self.drive.vibration().current() else {
            return 0.0;
        };
        self.drive.model().servo.residual_offtrack_nm(&v)
    }

    /// One degraded or failed mechanical op, as an hdd-layer span from
    /// dispatch to completion with the servo state that explains it.
    fn trace_io(&self, op: &'static str, t0: SimTime, retries: u64, outcome: &'static str) {
        if !self.tracer.is_enabled() {
            return;
        }
        let now = self.drive.clock().now();
        let offtrack_nm = self.residual_offtrack_nm();
        self.tracer.span(
            Layer::Hdd,
            "degraded_io",
            t0,
            now.saturating_duration_since(t0),
            vec![
                ("op", Value::Str(op)),
                ("outcome", Value::Str(outcome)),
                ("retries", Value::U64(retries)),
                ("offtrack_nm", Value::F64(offtrack_nm)),
            ],
        );
    }

    /// A blockdev-layer instant for a request the drive failed.
    fn trace_error(&self, op: &'static str, lba: u64, error: IoError) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.instant(
            Layer::Blockdev,
            "io_error",
            self.drive.clock().now(),
            vec![
                ("op", Value::Str(op)),
                ("lba", Value::U64(lba)),
                ("error", Value::Text(format!("{error:?}"))),
            ],
        );
    }

    /// Runs one request on the drive, which times it and may fail it.
    /// Retries and failures are traced; a failure is counted and
    /// returned.
    fn request(&mut self, op: DiskOp) -> Result<(), IoError> {
        let read = op.kind.is_read();
        let name = if read { "read" } else { "write" };
        let t0 = self.drive.clock().now();
        match self.drive.execute(op) {
            Ok(report) => {
                if report.retries > 0 {
                    self.trace_io(name, t0, u64::from(report.retries), "recovered");
                }
                Ok(())
            }
            Err(e) => {
                if read {
                    self.read_errors += 1;
                } else {
                    self.write_errors += 1;
                }
                self.trace_io(name, t0, 0, "error");
                let io: IoError = e.into();
                self.trace_error(name, op.lba, io);
                Err(io)
            }
        }
    }
}

impl BlockDevice for HddDisk {
    fn num_blocks(&self) -> u64 {
        self.drive.model().geometry.total_sectors()
    }

    fn read_blocks(&mut self, lba: u64, buf: &mut [u8]) -> Result<(), IoError> {
        let sectors = check_request(self.num_blocks(), lba, buf.len())?;
        self.request(DiskOp::read(lba, sectors))?;
        self.blocks.read(lba, buf);
        Ok(())
    }

    fn write_blocks(&mut self, lba: u64, buf: &[u8]) -> Result<(), IoError> {
        let sectors = check_request(self.num_blocks(), lba, buf.len())?;
        self.request(DiskOp::write(lba, sectors))?;
        // The drive timed the request above; what is stored (zeros are
        // not) cannot change its virtual cost.
        self.blocks.write(lba, buf);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), IoError> {
        // The model writes through; a flush is a (fast) no-op command.
        Ok(())
    }

    fn discard(&mut self, lba: u64, blocks: u64) {
        // Host-side only: the drive never sees it, so no mechanical time.
        self.blocks
            .discard(lba, clip(self.num_blocks(), lba, blocks));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_acoustics::Frequency;
    use deepnote_hdd::VibrationState;

    #[test]
    fn roundtrip_and_mechanical_time() {
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock.clone());
        let data = vec![0x5Au8; 4096];
        disk.write_blocks(100, &data).unwrap();
        let mut out = vec![0u8; 4096];
        disk.read_blocks(100, &mut out).unwrap();
        assert_eq!(out, data);
        // Both ops paid command overhead (~0.2 ms each) plus a seek for
        // the first op's positioning.
        assert!(clock.now().as_millis_f64() >= 0.3, "t = {}", clock.now());
    }

    #[test]
    fn discard_forgets_sectors_at_no_cost() {
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock.clone());
        disk.write_blocks(100, &[0x5A; 4096]).unwrap();
        let t = clock.now();
        disk.discard(100, 8);
        assert_eq!(clock.now(), t);
        let mut out = vec![0xFFu8; 4096];
        disk.read_blocks(100, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn unwritten_reads_zero() {
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock);
        let mut out = vec![0xFFu8; 512];
        disk.read_blocks(42, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn attack_makes_device_unresponsive() {
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock);
        disk.vibration()
            .set(Some(VibrationState::new(Frequency::from_hz(650.0), 0.5)));
        let buf = vec![0u8; 4096];
        assert_eq!(disk.write_blocks(0, &buf).unwrap_err(), IoError::NoResponse);
        assert_eq!(disk.write_errors(), 1);
        // Stop the attack: the device recovers.
        disk.vibration().clear();
        assert!(disk.write_blocks(0, &buf).is_ok());
    }

    #[test]
    fn data_not_modified_by_failed_write() {
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock);
        let original = vec![1u8; 512];
        disk.write_blocks(5, &original).unwrap();
        disk.vibration()
            .set(Some(VibrationState::new(Frequency::from_hz(650.0), 0.5)));
        assert!(disk.write_blocks(5, &vec![2u8; 512]).is_err());
        disk.vibration().clear();
        let mut out = vec![0u8; 512];
        disk.read_blocks(5, &mut out).unwrap();
        assert_eq!(out, original);
    }

    #[test]
    fn zero_write_costs_the_same_virtual_time() {
        let elapsed = |fill: u8| {
            let clock = Clock::new();
            let mut disk = HddDisk::barracuda_500gb(clock.clone());
            disk.write_blocks(100, &[0x5Au8; 4096]).unwrap();
            let t0 = clock.now();
            disk.write_blocks(100, &[fill; 4096]).unwrap();
            clock.now() - t0
        };
        assert_eq!(elapsed(0), elapsed(0x5A));
    }

    #[test]
    fn out_of_range_detected_before_mechanics() {
        let clock = Clock::new();
        let mut disk = HddDisk::barracuda_500gb(clock.clone());
        let n = disk.num_blocks();
        let t0 = clock.now();
        assert_eq!(
            disk.write_blocks(n, &vec![0u8; 512]).unwrap_err(),
            IoError::OutOfRange
        );
        assert_eq!(clock.now(), t0);
    }
}
