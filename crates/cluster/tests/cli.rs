//! CLI contract of `deepnote`: the regenerators and `fio` exit 0, and a
//! flag the command does not take or given twice, a zero count or
//! duration, an out-of-range distance or frequency, or a job that does
//! not fit the drive, is a usage error (exit 1, one `error:` line),
//! never a panic or a hang.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long one invocation may run before it is killed and counted as a
/// hang.
const DEADLINE: Duration = Duration::from_secs(30);

/// One second of the paper's sequential 4 KiB write, for `fio` runs.
const INLINE_JOB: &str = "rw=write bs=4k runtime=1";

struct Run {
    /// Exit code, or `None` if the process was killed or died on a signal.
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
    thread::spawn(move || {
        let mut s = String::new();
        pipe.read_to_string(&mut s).unwrap();
        s
    })
}

/// Runs `deepnote` with `args`, killing it after [`DEADLINE`].
fn deepnote(args: &[&str]) -> Run {
    let mut child = Command::new(env!("CARGO_BIN_EXE_deepnote"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn deepnote");
    let stdout = drain(child.stdout.take().unwrap());
    let stderr = drain(child.stderr.take().unwrap());
    let start = Instant::now();
    let code = loop {
        if let Some(status) = child.try_wait().expect("poll deepnote") {
            break status.code();
        }
        if start.elapsed() > DEADLINE {
            child.kill().expect("kill deepnote");
            child.wait().expect("reap deepnote");
            break None;
        }
        thread::sleep(Duration::from_millis(20));
    };
    Run {
        code,
        stdout: stdout.join().unwrap(),
        stderr: stderr.join().unwrap(),
    }
}

#[test]
fn regenerators_exit_zero() {
    for cmd in ["fig2", "defenses", "ablations", "redundancy"] {
        let run = deepnote(&[cmd]);
        assert_eq!(run.code, Some(0), "deepnote {cmd}: {}", run.stderr);
        assert!(!run.stdout.is_empty(), "deepnote {cmd} printed nothing");
        if cmd == "fig2" {
            // The measured Scenario 3 band EXPERIMENTS.md quotes.
            let band = "Scenario 3: write-dead band 300-1300 Hz";
            assert!(run.stdout.contains(band), "{}", run.stdout);
        }
    }
}

#[test]
fn bad_flags_are_usage_errors() {
    for (cmd, flag, value) in [
        ("cluster", "seconds", "0"),
        ("cluster", "shards", "0"),
        ("cluster", "clients", "0"),
        ("cluster", "metrics-interval", "0"),
        ("cluster", "metrics-interval", "0us"),
        ("table1", "seconds", "0"),
        ("table2", "keys", "0"),
        ("table2", "seconds", "0"),
        ("fleet", "drives", "0"),
        ("sweep", "requests", "0"),
        ("sweep", "distance-cm", "-1"),
        ("sweep", "distance-cm", "nan"),
        ("sweep", "distance-cm", "inf"),
        ("fleet", "spacing-cm", "-3"),
        ("fleet", "spacing-cm", "nan"),
        ("fleet", "spacing-cm", "1e308"),
        ("sweep", "distance-cm", "1e308"),
        ("fio", "attack-hz", "nan"),
        ("fio", "attack-hz", "-650"),
        ("fio", "attack-hz", "inf"),
        ("fio", "distance-cm", "-3"),
        ("fio", "distance-cm", "nan"),
        ("fio", "distance-cm", "1e308"),
        ("fio", "scenario", "4"),
    ] {
        let flag_arg = format!("--{flag}");
        let mut args = vec![cmd, &flag_arg, value];
        if cmd == "fio" {
            args.extend(["--inline", INLINE_JOB]);
        }
        let run = deepnote(&args);
        let shown = format!("{cmd} --{flag} {value}");
        assert_eq!(run.code, Some(1), "deepnote {shown}: {}", run.stderr);
        assert!(
            run.stderr
                .starts_with(&format!("error: bad value for --{flag}: {value}")),
            "deepnote {shown}: {}",
            run.stderr
        );
        assert!(
            !run.stderr.contains("panicked"),
            "deepnote {shown}: {}",
            run.stderr
        );
    }
}

#[test]
fn unknown_flags_are_usage_errors() {
    for (args, takes) in [
        (&["table1", "--secnds", "1"][..], "(table1 takes --seconds)"),
        (&["table3", "--seconds", "1"][..], "(table3 takes no flags)"),
        (&["heatmap", "--keys", "5"][..], "(heatmap takes --tsv)"),
        (&["cluster", "--tsv"][..], "takes --placement, --seconds,"),
        (
            &["fio", "--bogus", "1", "--inline", INLINE_JOB][..],
            "(fio takes --job, --inline, --attack-hz, --distance-cm, --scenario)",
        ),
    ] {
        let run = deepnote(args);
        let shown = args.join(" ");
        assert_eq!(run.code, Some(1), "deepnote {shown}: {}", run.stderr);
        let flag = args[1];
        assert!(
            run.stderr
                .starts_with(&format!("error: unknown flag for {}: {flag} ", args[0])),
            "deepnote {shown}: {}",
            run.stderr
        );
        assert!(
            run.stderr.contains(takes),
            "deepnote {shown}: {}",
            run.stderr
        );
        assert!(
            run.stdout.is_empty(),
            "deepnote {shown} ran: {}",
            run.stdout
        );
    }
}

#[test]
fn repeated_flags_are_usage_errors() {
    for (args, flag) in [
        (
            &["table2", "--seconds", "1", "--seconds", "0"][..],
            "--seconds",
        ),
        (&["fleet", "--drives", "3", "--drives", "0"][..], "--drives"),
        (&["fig2", "--tsv", "--tsv"][..], "--tsv"),
        (
            &[
                "fio",
                "--attack-hz",
                "650",
                "--attack-hz",
                "5000",
                "--inline",
                INLINE_JOB,
            ][..],
            "--attack-hz",
        ),
    ] {
        let run = deepnote(args);
        let shown = args.join(" ");
        assert_eq!(run.code, Some(1), "deepnote {shown}: {}", run.stderr);
        assert_eq!(
            run.stderr,
            format!("error: flag {flag} given twice\n"),
            "deepnote {shown}"
        );
        assert!(
            run.stdout.is_empty(),
            "deepnote {shown} ran: {}",
            run.stdout
        );
    }
}

#[test]
fn fio_runs_inline_and_job_files() {
    let run = deepnote(&["fio", "--inline", INLINE_JOB]);
    assert_eq!(run.code, Some(0), "{}", run.stderr);
    assert!(
        run.stdout.contains("inline: io=22.7MB, bw=22.7MB/s"),
        "{}",
        run.stdout
    );

    let path = std::env::temp_dir().join(format!("deepnote-cli-{}.fio", std::process::id()));
    std::fs::write(
        &path,
        "[global]\nbs=4k\nruntime=1\n\n[rand-write]\nrw=randwrite\n\n[seq-read]\nrw=read\n",
    )
    .unwrap();
    let run = deepnote(&["fio", "--job", path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(run.code, Some(0), "{}", run.stderr);
    let write = run.stdout.find("\nrand-write: io=").expect(&run.stdout);
    let read = run.stdout.find("\nseq-read: io=").expect(&run.stdout);
    assert!(write < read, "jobs out of file order: {}", run.stdout);
}

#[test]
fn fio_jobs_that_cannot_run_are_usage_errors() {
    for (job, error) in [
        (
            "rw=write bs=4k runtime=1 offset=100000g",
            "error: job inline ends at block",
        ),
        (
            "rw=write bs=4k runtime=1 size=18014398509481988k",
            "error: job file: line 5: bad size: 18014398509481988k",
        ),
        (
            "rw=write bs=4k runtime=18446744074",
            "error: job file: line 4: bad runtime: 18446744074",
        ),
        (
            "rw=read bs=4g runtime=1",
            "error: job file: line 1: bs must be a positive multiple of 512 up to 64m",
        ),
    ] {
        let run = deepnote(&["fio", "--inline", job]);
        assert_eq!(run.code, Some(1), "fio --inline {job:?}: {}", run.stderr);
        assert!(
            run.stderr.starts_with(error) && run.stderr.lines().count() == 1,
            "fio --inline {job:?}: {}",
            run.stderr
        );
        assert!(
            run.stdout.is_empty(),
            "fio --inline {job:?} ran: {}",
            run.stdout
        );
    }
}
