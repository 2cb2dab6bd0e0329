//! A shared virtual clock.
//!
//! Every component in a simulation (drive, filesystem, benchmark runner,
//! attacker) holds a clone of the same [`Clock`]. Whoever performs work
//! advances the clock by the virtual cost of that work; everyone else reads
//! the same timeline.

use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cheaply cloneable handle to a shared virtual clock.
///
/// Clones observe and mutate the same underlying instant. The clock is
/// monotonic: it can only move forward.
///
/// # Example
///
/// ```
/// use deepnote_sim::{Clock, SimDuration, SimTime};
///
/// let clock = Clock::new();
/// let observer = clock.clone();
/// clock.advance(SimDuration::from_secs(2));
/// assert_eq!(observer.now(), SimTime::from_secs(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    nanos: Arc<AtomicU64>,
}

impl Clock {
    /// Creates a clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Clock {
            nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Creates a clock already advanced to `start`.
    pub fn starting_at(start: SimTime) -> Self {
        Clock {
            nanos: Arc::new(AtomicU64::new(start.as_nanos())),
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.nanos.load(Ordering::SeqCst))
    }

    /// Advances the clock by `d` and returns the new instant.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let prev = self.nanos.fetch_add(d.as_nanos(), Ordering::SeqCst);
        SimTime::from_nanos(
            prev.checked_add(d.as_nanos())
                .expect("virtual clock overflow"),
        )
    }

    /// Advances the clock to `target` if it is in the future; otherwise
    /// leaves the clock unchanged. Returns the (possibly unchanged) current
    /// instant.
    pub fn advance_to(&self, target: SimTime) -> SimTime {
        let t = target.as_nanos();
        let mut cur = self.nanos.load(Ordering::SeqCst);
        while cur < t {
            match self
                .nanos
                .compare_exchange(cur, t, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return target,
                Err(actual) => cur = actual,
            }
        }
        SimTime::from_nanos(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_time() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(SimDuration::from_millis(7));
        assert_eq!(b.now(), SimTime::from_nanos(7_000_000));
        // A new clock is its own timeline.
        assert_eq!(Clock::new().now(), SimTime::ZERO);
    }

    #[test]
    fn advance_returns_new_instant() {
        let c = Clock::new();
        let t = c.advance(SimDuration::from_secs(1));
        assert_eq!(t, SimTime::from_secs(1));
        assert_eq!(c.now(), t);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = Clock::new();
        c.advance_to(SimTime::from_secs(5));
        assert_eq!(c.now(), SimTime::from_secs(5));
        // Going backwards is a no-op.
        c.advance_to(SimTime::from_secs(3));
        assert_eq!(c.now(), SimTime::from_secs(5));
    }

    #[test]
    fn starting_at_offsets_origin() {
        let c = Clock::starting_at(SimTime::from_secs(100));
        assert_eq!(c.now(), SimTime::from_secs(100));
        assert_eq!(
            c.advance(SimDuration::from_secs(1)),
            SimTime::from_secs(101)
        );
    }
}
