//! Block-layer I/O errors.
//!
//! Errors carry Linux-style errno values so the filesystem and OS layers
//! can reproduce the paper's observed failure messages (JBD aborting with
//! error −5, buffer I/O errors in dmesg).

use deepnote_hdd::DriveError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Linux `EIO` (−5 in kernel error convention).
pub const EIO: i32 = 5;

/// A block-layer I/O failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoError {
    /// A medium error: the device reported it could not complete the
    /// transfer. Carries the errno (positive convention, e.g. [`EIO`]).
    Medium {
        /// Positive errno value.
        errno: i32,
    },
    /// The device did not answer within its deadline — the "no response"
    /// rows of the paper's Table 1.
    NoResponse,
    /// Request beyond the end of the device.
    OutOfRange,
    /// Malformed request (zero length, misaligned buffer).
    InvalidRequest,
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Medium { errno } => write!(f, "I/O error (errno {errno})"),
            IoError::NoResponse => write!(f, "device not responding"),
            IoError::OutOfRange => write!(f, "request beyond end of device"),
            IoError::InvalidRequest => write!(f, "invalid request"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<DriveError> for IoError {
    fn from(e: DriveError) -> Self {
        match e {
            DriveError::Unresponsive { .. } | DriveError::HeadsParked => IoError::NoResponse,
            DriveError::OutOfRange => IoError::OutOfRange,
            DriveError::EmptyOp => IoError::InvalidRequest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_errors_map_to_io_errors() {
        assert_eq!(
            IoError::from(DriveError::Unresponsive { after_ms_x1000: 1 }),
            IoError::NoResponse
        );
        assert_eq!(IoError::from(DriveError::HeadsParked), IoError::NoResponse);
        assert_eq!(IoError::from(DriveError::OutOfRange), IoError::OutOfRange);
        assert_eq!(IoError::from(DriveError::EmptyOp), IoError::InvalidRequest);
    }

    #[test]
    fn display_messages() {
        assert_eq!(IoError::NoResponse.to_string(), "device not responding");
        assert_eq!(
            IoError::Medium { errno: 5 }.to_string(),
            "I/O error (errno 5)"
        );
    }
}
