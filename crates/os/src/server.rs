//! The server OS: root filesystem, writeback daemon, command execution,
//! and crash escalation.

use crate::klog::{KernelLog, LogLevel};
use crate::service::{RestartPolicy, ServiceManager, SupervisionEvent};
use deepnote_blockdev::BlockDevice;
use deepnote_fs::{Filesystem, FsError, FsState};
use deepnote_sim::{Clock, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Commands installed in `/bin` by [`ServerOs::install`].
pub const INSTALLED_COMMANDS: [&str; 4] = ["ls", "cat", "ps", "sshd"];

/// Maximum buffered dirty writes before writers block on writeback.
const DIRTY_LIMIT: usize = 1_024;

/// How often buffered log appends are written back.
const WRITEBACK_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Availability state of the server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OsState {
    /// Up and serving.
    Running,
    /// The OS has crashed.
    Crashed {
        /// Virtual time of death.
        at: SimTime,
        /// Human-readable cause (mirrors the paper's observations).
        reason: String,
    },
}

/// Errors surfaced by OS-level calls.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OsError {
    /// The OS is down.
    Crashed {
        /// Cause recorded at crash time.
        reason: String,
    },
    /// A command or file access failed (EIO-style).
    InputOutput {
        /// What failed.
        what: String,
    },
    /// Installation/boot failure.
    Setup {
        /// Underlying filesystem error.
        fs: FsError,
    },
    /// No such command or file.
    NotFound,
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::Crashed { reason } => write!(f, "system crashed: {reason}"),
            OsError::InputOutput { what } => write!(f, "{what}: Input/output error"),
            OsError::Setup { fs } => write!(f, "setup failed: {fs}"),
            OsError::NotFound => write!(f, "No such file or directory"),
        }
    }
}

impl std::error::Error for OsError {}

/// An Ubuntu-16.04-like server whose root filesystem lives on the victim
/// device.
///
/// Drive it with [`ServerOs::tick`] (once per virtual second is the
/// convention used by the experiments) and exercise it with
/// [`ServerOs::exec`] / [`ServerOs::write_log`].
#[derive(Debug)]
pub struct ServerOs<D: BlockDevice> {
    fs: Filesystem<D>,
    clock: Clock,
    klog: KernelLog,
    state: OsState,
    /// Buffered (not yet written back) log appends: (path, offset, data).
    dirty: VecDeque<(String, u64, Vec<u8>)>,
    last_writeback: SimTime,
    log_cursor: u64,
    buffer_errors_seen: u64,
    services: ServiceManager,
}

impl<D: BlockDevice> ServerOs<D> {
    /// Formats the device, installs a minimal system tree (`/bin` with
    /// commands, `/var/log`, `/etc`), and boots.
    ///
    /// # Errors
    ///
    /// [`OsError::Setup`] if the filesystem cannot be created.
    pub fn install(dev: D, clock: Clock) -> Result<Self, OsError> {
        let mut fs = Filesystem::format(dev, clock.clone()).map_err(|fs| OsError::Setup { fs })?;
        let setup = |fs: &mut Filesystem<D>| -> Result<(), FsError> {
            fs.create("/bin")?;
            for cmd in INSTALLED_COMMANDS {
                let path = format!("/bin/{cmd}");
                fs.create_file(&path)?;
                // A plausible binary: a few KiB of deterministic bytes.
                let body: Vec<u8> = (0..6_000u32).map(|i| (i % 251) as u8).collect();
                fs.write_file(&path, 0, &body)?;
            }
            fs.create("/etc")?;
            fs.create_file("/etc/hostname")?;
            fs.write_file("/etc/hostname", 0, b"deepnote-server\n")?;
            fs.create("/var")?;
            fs.create("/var/log")?;
            fs.create_file("/var/log/syslog")?;
            fs.commit()
        };
        setup(&mut fs).map_err(|e| OsError::Setup { fs: e })?;
        // Model memory pressure: a bounded page cache means binaries and
        // metadata can be evicted and must be re-read from the device.
        fs.set_cache_limit(Some(96));
        let mut services = ServiceManager::new();
        services.register(
            "sshd.service",
            "sshd",
            RestartPolicy::OnFailure { max_restarts: 5 },
        );
        services.register(
            "cron.service",
            "ps",
            RestartPolicy::OnFailure { max_restarts: 5 },
        );
        services.register(
            "syslogd.service",
            "cat",
            RestartPolicy::OnFailure { max_restarts: 5 },
        );
        let now = clock.now();
        let mut klog = KernelLog::new(4_096);
        klog.log(
            now,
            LogLevel::Info,
            "Ubuntu 16.04 LTS deepnote-server boot complete",
        );
        Ok(ServerOs {
            fs,
            clock,
            klog,
            state: OsState::Running,
            dirty: VecDeque::new(),
            last_writeback: now,
            log_cursor: 0,
            buffer_errors_seen: 0,
            services,
        })
    }

    /// Whether the server is still running.
    pub fn running(&self) -> bool {
        matches!(self.state, OsState::Running)
    }

    /// The kernel log.
    pub fn klog(&self) -> &KernelLog {
        &self.klog
    }

    fn check_running(&self) -> Result<(), OsError> {
        match &self.state {
            OsState::Running => Ok(()),
            OsState::Crashed { reason, .. } => Err(OsError::Crashed {
                reason: reason.clone(),
            }),
        }
    }

    fn crash(&mut self, reason: impl Into<String>) {
        let reason = reason.into();
        let now = self.clock.now();
        self.klog.log(
            now,
            LogLevel::Critical,
            format!("Kernel panic - not syncing: {reason}"),
        );
        self.state = OsState::Crashed { at: now, reason };
    }

    /// Executes an installed command: reads its binary and (for `ls`) the
    /// directory it lists. Through the page cache this is free once warm;
    /// cold reads hit the device.
    ///
    /// # Errors
    ///
    /// [`OsError::Crashed`] when down, [`OsError::NotFound`] for unknown
    /// commands, [`OsError::InputOutput`] when the binary cannot be read —
    /// the paper's "inability to access … common Linux commands, such as
    /// ls".
    pub fn exec(&mut self, command: &str) -> Result<String, OsError> {
        self.check_running()?;
        let path = format!("/bin/{command}");
        if !INSTALLED_COMMANDS.contains(&command) {
            return Err(OsError::NotFound);
        }
        match self.fs.read_file(&path, 0, 6_000) {
            Ok(_) => {}
            Err(e) => {
                self.klog.log(
                    self.clock.now(),
                    LogLevel::Error,
                    format!("{command}: cannot access '{path}': Input/output error ({e})"),
                );
                return Err(OsError::InputOutput {
                    what: format!("{command}: cannot access '{path}'"),
                });
            }
        }
        // Minimal behaviours for the commands the experiments use.
        let out = match command {
            "ls" => match self.fs.list_dir("/") {
                Ok(entries) => entries
                    .into_iter()
                    .map(|e| e.name)
                    .collect::<Vec<_>>()
                    .join("  "),
                Err(e) => {
                    return Err(OsError::InputOutput {
                        what: format!("ls: reading directory '/' ({e})"),
                    })
                }
            },
            "cat" => String::new(),
            "ps" => "PID TTY TIME CMD\n1 ? 00:00:01 systemd".to_string(),
            "sshd" => "sshd: listening".to_string(),
            _ => unreachable!("command list checked above"),
        };
        Ok(out)
    }

    /// Appends a line to `/var/log/syslog` through the buffer cache (no
    /// immediate device I/O — the writeback daemon persists it).
    ///
    /// # Errors
    ///
    /// [`OsError::Crashed`] when down.
    pub fn write_log(&mut self, line: &str) -> Result<(), OsError> {
        self.check_running()?;
        let mut data = line.as_bytes().to_vec();
        data.push(b'\n');
        let len = data.len() as u64;
        self.dirty
            .push_back(("/var/log/syslog".to_string(), self.log_cursor, data));
        self.log_cursor += len;
        // Writers block (and the OS degrades) if dirty data piles up with
        // a dead disk underneath; drop oldest to bound memory, counting
        // them as lost writes.
        if self.dirty.len() > DIRTY_LIMIT {
            self.dirty.pop_front();
            self.klog.log(
                self.clock.now(),
                LogLevel::Warning,
                "dirty buffer limit reached; dropping oldest page (lost async write)",
            );
        }
        Ok(())
    }

    /// Runs the periodic daemons: page writeback (every 5 s) and the
    /// filesystem journal commit timer. Call roughly once per virtual
    /// second.
    ///
    /// On a root-filesystem journal abort the server crashes — the
    /// paper's Ubuntu failure, with the dmesg trail of buffer I/O errors
    /// leading up to it.
    pub fn tick(&mut self) -> &OsState {
        if !self.running() {
            return &self.state;
        }
        let now = self.clock.now();

        // Service supervision: every daemon does a unit of work; failed
        // daemons are restarted within their budget.
        let mut manager = std::mem::take(&mut self.services);
        let events = manager.supervise(|command| self.exec(command).is_ok());
        for event in events {
            let (level, text) = match event {
                SupervisionEvent::WorkFailed(i) => (
                    LogLevel::Error,
                    format!(
                        "systemd[1]: {}: main process exited with I/O error",
                        manager.services()[i].name
                    ),
                ),
                SupervisionEvent::Restarted(i) => (
                    LogLevel::Warning,
                    format!("systemd[1]: {}: restarted", manager.services()[i].name),
                ),
                SupervisionEvent::GaveUp(i) => (
                    LogLevel::Critical,
                    format!(
                        "systemd[1]: {}: start request repeated too quickly, giving up",
                        manager.services()[i].name
                    ),
                ),
            };
            self.klog.log(self.clock.now(), level, text);
        }
        self.services = manager;

        // Writeback daemon.
        if now.saturating_duration_since(self.last_writeback) >= WRITEBACK_INTERVAL {
            self.last_writeback = now;
            let mut budget = self.dirty.len();
            while budget > 0 {
                budget -= 1;
                let Some((path, offset, data)) = self.dirty.pop_front() else {
                    break;
                };
                match self.fs.write_file(&path, offset, &data) {
                    Ok(()) => {}
                    Err(FsError::JournalAborted { errno }) => {
                        self.dirty.push_front((path, offset, data));
                        self.crash(format!(
                            "journal aborted (error {errno}); root filesystem is gone"
                        ));
                        return &self.state;
                    }
                    Err(_) => {
                        let block = offset / 4096;
                        self.klog.log(
                            self.clock.now(),
                            LogLevel::Error,
                            format!(
                                "Buffer I/O error on dev sda1, logical block {block}, lost async page write"
                            ),
                        );
                        self.dirty.push_front((path, offset, data));
                        break; // retry next writeback pass
                    }
                }
            }
        }

        // Journal commit timer.
        let tick_result = self.fs.tick(now);
        // Surface any buffer I/O errors the commit path absorbed, like
        // the kernel's dmesg trail leading up to the crash.
        let errors_now = self.fs.buffer_io_errors();
        if errors_now > self.buffer_errors_seen {
            let new = errors_now - self.buffer_errors_seen;
            self.buffer_errors_seen = errors_now;
            self.klog.log(
                self.clock.now(),
                LogLevel::Error,
                format!("Buffer I/O error on dev sda1, lost async page write ({new} pages)"),
            );
        }
        if let Err(FsError::JournalAborted { errno }) = tick_result {
            self.klog.log(
                self.clock.now(),
                LogLevel::Critical,
                format!("EXT4-fs error (device sda1): journal has aborted (error {errno})"),
            );
            self.crash(format!(
                "attempt to access beyond end of journal; root filesystem aborted (error {errno})"
            ));
            return &self.state;
        }

        // A root filesystem that went read-only under us is fatal for a
        // server whose every service writes logs and state.
        if matches!(self.fs.state(), FsState::Aborted { .. }) {
            self.crash("root filesystem remounted read-only; all services failing");
        }
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_blockdev::{ChaosInjector, ChaosPlan, IoError, MemDisk};
    use deepnote_sim::SimRng;

    fn server() -> (ServerOs<MemDisk>, Clock) {
        let clock = Clock::new();
        let os = ServerOs::install(MemDisk::new(1 << 17), clock.clone()).unwrap();
        (os, clock)
    }

    #[test]
    fn install_and_exec() {
        let (mut os, _) = server();
        assert!(os.running());
        let out = os.exec("ls").unwrap();
        assert!(out.contains("bin") && out.contains("var"), "{out}");
        assert!(os.exec("ps").unwrap().contains("systemd"));
        assert_eq!(os.exec("nonexistent"), Err(OsError::NotFound));
    }

    #[test]
    fn buffered_log_writes_persist_via_writeback() {
        let (mut os, clock) = server();
        os.write_log("service started").unwrap();
        os.write_log("request handled").unwrap();
        clock.advance(SimDuration::from_secs(6));
        os.tick();
        assert!(os.running());
        let content = os.fs.read_file("/var/log/syslog", 0, 4_096).unwrap();
        let text = String::from_utf8(content).unwrap();
        assert!(
            text.contains("service started\nrequest handled\n"),
            "{text}"
        );
    }

    #[test]
    fn blocked_storage_crashes_server_with_dmesg_trail() {
        let clock = Clock::new();
        let mut os = ServerOs::install(
            ChaosInjector::new(MemDisk::new(1 << 17), ChaosPlan::quiet(), SimRng::seeded(0)),
            clock.clone(),
        )
        .unwrap();
        // Warm things up, then the attack begins.
        os.write_log("healthy").unwrap();
        clock.advance(SimDuration::from_secs(6));
        os.tick();
        os.fs
            .device_mut()
            .set_plan(ChaosPlan::fail_writes(IoError::NoResponse));
        let t0 = clock.now();
        let mut crashed_at = None;
        for _ in 0..200 {
            os.write_log("under attack").unwrap_or(());
            clock.advance(SimDuration::from_secs(1));
            if let OsState::Crashed { at, .. } = os.tick() {
                crashed_at = Some(*at);
                break;
            }
        }
        let at = crashed_at.expect("server should crash");
        let elapsed = (at - t0).as_secs_f64();
        // Writeback failures start logging right away; the journal commit
        // blocks for its 75 s patience and the crash lands near the
        // paper's ~81 s.
        assert!((75.0..90.0).contains(&elapsed), "crashed after {elapsed}");
        assert!(os.klog().count_containing("Buffer I/O error") >= 1);
        assert!(os.klog().count_containing("journal has aborted") >= 1);
        assert!(!os.running());
        // Everything is refused after death.
        assert!(matches!(os.exec("ls"), Err(OsError::Crashed { .. })));
        assert!(matches!(os.write_log("x"), Err(OsError::Crashed { .. })));
    }

    #[test]
    fn exec_fails_with_io_error_when_cold_read_blocked() {
        let clock = Clock::new();
        let mut os = ServerOs::install(
            ChaosInjector::new(MemDisk::new(1 << 17), ChaosPlan::quiet(), SimRng::seeded(0)),
            clock.clone(),
        )
        .unwrap();
        // Fail *all* I/O including reads; /bin/ls was cached during
        // install (written through the page cache), so force a cold read
        // by failing reads of a file never read before... `cat` binary was
        // also written at install and cached. To model a cold cache, we
        // drop to a fresh boot: re-mount from the device.
        let dev = {
            let fs = std::mem::replace(
                &mut os.fs,
                deepnote_fs::Filesystem::format(
                    ChaosInjector::new(
                        MemDisk::new(1 << 17),
                        ChaosPlan::quiet(),
                        SimRng::seeded(0),
                    ),
                    clock.clone(),
                )
                .unwrap(),
            );
            fs.unmount().unwrap()
        };
        let (fs2, _) = deepnote_fs::Filesystem::mount(dev, clock.clone()).unwrap();
        os.fs = fs2;
        os.fs
            .device_mut()
            .set_plan(ChaosPlan::fail_all(IoError::NoResponse));
        let err = os.exec("ls").unwrap_err();
        assert!(matches!(err, OsError::InputOutput { .. }), "{err:?}");
        assert_eq!(os.klog().count_containing("Input/output error"), 1);
        assert!(os.klog().count_containing("cannot access") > 0);
    }

    #[test]
    fn services_run_healthy_and_cascade_under_attack() {
        use crate::service::ServiceState;
        let clock = Clock::new();
        let mut os = ServerOs::install(
            ChaosInjector::new(MemDisk::new(1 << 17), ChaosPlan::quiet(), SimRng::seeded(0)),
            clock.clone(),
        )
        .unwrap();
        // Healthy: every service keeps running through many ticks, with
        // enough log traffic to churn the bounded page cache.
        for i in 0..30 {
            os.write_log(&format!("healthy traffic {i} {}", "x".repeat(200)))
                .unwrap();
            clock.advance(SimDuration::from_secs(1));
            os.tick();
        }
        assert_eq!(os.services.census(), (3, 0, 0), "{:?}", os.services);

        // The attack: all I/O (reads included — cold binary reloads) dies.
        os.fs
            .device_mut()
            .set_plan(ChaosPlan::fail_all(IoError::NoResponse));
        let mut dead_seen = 0;
        for _ in 0..40 {
            let _ = os.write_log("under attack");
            clock.advance(SimDuration::from_secs(1));
            if !os.running() {
                break;
            }
            os.tick();
            let (_, _, dead) = os.services.census();
            dead_seen = dead_seen.max(dead);
        }
        // With binaries evicted by the log churn, cold re-execs fail and
        // the supervisor gives up on at least one daemon before (or as)
        // the OS dies.
        assert!(
            dead_seen > 0 || !os.running(),
            "services: {:?}, state: {:?}",
            os.services,
            os.state
        );
        if dead_seen > 0 {
            assert!(os.klog().count_containing("systemd[1]") > 0);
            assert!(os
                .services
                .services()
                .iter()
                .any(|s| s.state == ServiceState::Dead || s.restarts > 0));
        }
    }

    #[test]
    fn dirty_limit_bounds_memory() {
        let (mut os, _) = server();
        for i in 0..2_000 {
            os.write_log(&format!("line {i}")).unwrap();
        }
        assert!(os.klog().count_containing("dirty buffer limit") > 0);
    }
}
