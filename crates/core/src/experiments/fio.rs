//! fio job files against the simulated victim drive, optionally under a
//! tone: the harness behind `deepnote fio`. The paper measures the
//! drive with FIO sequential 4 KiB jobs (Table 1, Figure 2); this runs
//! any job file the iobench parser accepts on the same 500 GB drive.

use crate::testbed::Testbed;
use deepnote_acoustics::{Distance, Frequency};
use deepnote_blockdev::{BlockDevice, HddDisk};
use deepnote_iobench::{parse_jobfile, run_job};
use deepnote_sim::Clock;
use deepnote_structures::Scenario;

/// A tone played at the drive for the whole run. The numbers are
/// printed back as given, so they stay in the caller's units.
#[derive(Debug, Clone, Copy)]
pub struct Tone {
    /// Frequency in Hz.
    pub hz: f64,
    /// Speaker-to-enclosure distance in centimetres.
    pub distance_cm: f64,
    /// Where the drive sits in the tank.
    pub scenario: Scenario,
}

/// Runs every job in the fio job file `text`, in file order, on one
/// fresh drive (shaken by `tone` if given), and returns the report
/// `deepnote fio` prints.
///
/// # Errors
///
/// A job-file parse error, or a job whose working set runs past the end
/// of the drive; no job runs in either case.
///
/// # Panics
///
/// Panics on a tone the acoustic model cannot evaluate: a frequency at
/// or near 0 Hz, or a negative or non-finite number (`deepnote fio`
/// accepts 1 Hz to 100 kHz and 0 to 1 km).
pub fn run(text: &str, tone: Option<Tone>) -> Result<String, String> {
    let jobs = parse_jobfile(text).map_err(|e| format!("job file: {e}"))?;
    let clock = Clock::new();
    let mut disk = HddDisk::barracuda_500gb(clock.clone());
    if let Some(job) = jobs.iter().find(|j| j.end_block() > disk.num_blocks()) {
        return Err(format!(
            "job {} ends at block {}, past the drive's {} blocks",
            job.name(),
            job.end_block(),
            disk.num_blocks()
        ));
    }
    let mut out = format!("device: {}\n", disk.drive().model().geometry.name());
    if let Some(t) = tone {
        let v = Testbed::paper_default(t.scenario)
            .vibration_at(Frequency::from_hz(t.hz), Distance::from_cm(t.distance_cm));
        out += &format!(
            "attack: {} Hz at {} cm ({}) -> chassis {:.0} nm\n",
            t.hz,
            t.distance_cm,
            t.scenario,
            v.displacement_nm()
        );
        disk.vibration().set(Some(v));
    }
    for job in &jobs {
        out += &format!("\n{}\n", run_job(job, &mut disk, &clock));
    }
    Ok(out)
}
