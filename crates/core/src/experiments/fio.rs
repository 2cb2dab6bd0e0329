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
/// A job-file parse error, a job whose working set runs past the end of
/// the drive, or a tone outside [`Frequency::CHECKED_HZ`] or
/// [`Distance::CHECKED_CM`]; no job runs in any of these cases.
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
        let frequency =
            Frequency::checked_hz(t.hz).map_err(|e| format!("tone frequency: {e} Hz"))?;
        let distance =
            Distance::checked_cm(t.distance_cm).map_err(|e| format!("tone distance: {e} cm"))?;
        let v = Testbed::paper_default(t.scenario).vibration_at(frequency, distance);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tone_the_transfer_path_cannot_evaluate_is_an_error() {
        let job = "[j]\nrw=write\nbs=4k\nruntime=1\n";
        for (hz, distance_cm, what) in [
            (0.0, 10.0, "tone frequency: 0 is outside 1 to 100000 Hz"),
            (1e-300, 10.0, "tone frequency: 0.000"),
            (650.0, -1.0, "tone distance: -1 is outside 0 to 100000 cm"),
        ] {
            let tone = Tone {
                hz,
                distance_cm,
                scenario: Scenario::PlasticTower,
            };
            let err = run(job, Some(tone)).unwrap_err();
            assert!(err.starts_with(what), "{hz} Hz at {distance_cm} cm: {err}");
        }
    }
}
