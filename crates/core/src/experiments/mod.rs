//! Experiment harnesses: one per table/figure in the paper's evaluation,
//! plus the §5 ablations.
//!
//! * [`frequency`] — Figure 2 (a: sequential write, b: sequential read):
//!   throughput vs attack frequency for Scenarios 1–3.
//! * [`range`] — Table 1 (FIO throughput/latency vs distance) and Table 2
//!   (RocksDB `readwhilewriting` vs distance).
//! * [`crash`] — Table 3 (time-to-crash for Ext4, Ubuntu server,
//!   RocksDB).
//! * [`ablations`] — §5 studies: water conditions, enclosure materials,
//!   tolerance sensitivity.
//! * [`adaptive`] — the §3 remote attacker: frequency discovery from
//!   observed request latency alone.
//! * [`redundancy`] — RAID-1 mirrors, co-located vs acoustically
//!   separated.
//! * [`stealth`] — duty-cycled attacks against the latency-anomaly
//!   detector.
//! * [`heatmap`] — the full frequency × distance attack surface and the
//!   operator's exclusion radius.
//! * [`covert`] — the cited DiskFiltration threat, underwater: seek-noise
//!   exfiltration budgets.
//! * [`fio`] — any fio job file against the victim drive, optionally
//!   under a tone (`deepnote fio`).
//!
//! All harnesses run on virtual time and are deterministic for a fixed
//! seed; the full evaluation takes seconds of wall time.

pub mod ablations;
pub mod adaptive;
pub mod covert;
pub mod crash;
pub mod fio;
pub mod frequency;
pub mod heatmap;
pub mod range;
pub mod redundancy;
pub mod stealth;
