//! Deterministic discrete-event simulation substrate for the Deep Note
//! reproduction.
//!
//! Every experiment in this workspace runs on *virtual time*: a shared
//! [`Clock`] that components advance explicitly. This makes the whole
//! reproduction deterministic (a given seed always yields the same tables)
//! and fast (simulating an 81-second attack takes milliseconds of wall time).
//!
//! The crate provides four building blocks:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual
//!   timestamps and durations ([`time`]).
//! * [`Clock`] — a cheaply cloneable handle to a shared virtual clock
//!   ([`clock`]).
//! * [`EventQueue`] — the discrete-event queue: typed payloads popped in
//!   `(time, priority, insertion order)` order. The campaign event loop
//!   drives it ([`event`]).
//! * Statistics — [`OnlineStats`], [`Histogram`], and [`TimeSeries`]
//!   for measuring latency and sweeps ([`stats`], [`series`]).
//!
//! # Example
//!
//! ```
//! use deepnote_sim::{Clock, SimDuration};
//!
//! let clock = Clock::new();
//! clock.advance(SimDuration::from_millis(5));
//! assert_eq!(clock.now().as_millis_f64(), 5.0);
//! ```

// Not a serving-path crate (see DESIGN.md §7): the expect/unwrap sites
// here are arithmetic-overflow invariants on virtual time, where
// aborting beats silently wrapping the clock.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod clock;
pub mod event;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use clock::Clock;
pub use event::EventQueue;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::{Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
