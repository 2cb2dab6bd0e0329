//! A dmesg-style kernel log.

use deepnote_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Log severity, printk-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LogLevel {
    /// Informational.
    Info,
    /// Something is degraded.
    Warning,
    /// An operation failed.
    Error,
    /// The system is dying.
    Critical,
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogLevel::Info => write!(f, "info"),
            LogLevel::Warning => write!(f, "warn"),
            LogLevel::Error => write!(f, "err"),
            LogLevel::Critical => write!(f, "crit"),
        }
    }
}

/// One log entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogEntry {
    /// When it was logged (virtual time).
    pub at: SimTime,
    /// Severity.
    pub level: LogLevel,
    /// Message text.
    pub message: String,
}

/// A bounded ring buffer of kernel messages.
///
/// # Example
///
/// ```
/// use deepnote_os::{KernelLog, LogLevel};
/// use deepnote_sim::SimTime;
///
/// let mut log = KernelLog::new(128);
/// log.log(SimTime::ZERO, LogLevel::Error, "Buffer I/O error on dev sda1");
/// assert_eq!(log.count_containing("Buffer I/O error"), 1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KernelLog {
    entries: VecDeque<LogEntry>,
    capacity: usize,
    dropped: u64,
}

impl KernelLog {
    /// Creates a log retaining up to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "log capacity must be positive");
        KernelLog {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an entry, evicting the oldest if full.
    pub fn log(&mut self, at: SimTime, level: LogLevel, message: impl Into<String>) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(LogEntry {
            at,
            level,
            message: message.into(),
        });
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained entries whose message contains `needle`.
    pub fn count_containing(&self, needle: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.message.contains(needle))
            .count()
    }

    /// Renders the log like `dmesg`.
    pub fn dmesg(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "[{:12.6}] <{}> {}\n",
                e.at.as_secs_f64(),
                e.level,
                e.message
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logs_and_counts() {
        let mut log = KernelLog::new(10);
        log.log(SimTime::ZERO, LogLevel::Info, "booting");
        log.log(
            SimTime::from_secs(1),
            LogLevel::Error,
            "Buffer I/O error on dev sda1, logical block 7",
        );
        log.log(
            SimTime::from_secs(2),
            LogLevel::Error,
            "Buffer I/O error on dev sda1, logical block 8",
        );
        assert_eq!(log.len(), 3);
        assert_eq!(log.count_containing("Buffer I/O error"), 2);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut log = KernelLog::new(2);
        log.log(SimTime::ZERO, LogLevel::Info, "one");
        log.log(SimTime::ZERO, LogLevel::Info, "two");
        log.log(SimTime::ZERO, LogLevel::Info, "three");
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.count_containing("one"), 0);
        assert_eq!(log.count_containing("three"), 1);
    }

    #[test]
    fn dmesg_format() {
        let mut log = KernelLog::new(4);
        log.log(
            SimTime::from_secs(81),
            LogLevel::Critical,
            "EXT4-fs error: journal has aborted",
        );
        let text = log.dmesg();
        assert!(
            text.contains("[   81.000000] <crit> EXT4-fs error"),
            "{text}"
        );
    }

    #[test]
    fn level_ordering() {
        assert!(LogLevel::Critical > LogLevel::Error);
        assert!(LogLevel::Error > LogLevel::Warning);
        assert!(LogLevel::Warning > LogLevel::Info);
    }
}
