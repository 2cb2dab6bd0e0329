//! CLI contract of `deepnote`: the regenerators exit 0, and a flag the
//! command does not take, a zero count or duration, or a negative or
//! non-finite distance, is a usage error (exit 1, one `error:` line),
//! never a panic or a hang.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long one invocation may run before it is killed and counted as a
/// hang.
const DEADLINE: Duration = Duration::from_secs(30);

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
    ] {
        let run = deepnote(&[cmd, &format!("--{flag}"), value]);
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
