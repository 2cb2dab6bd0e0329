//! A sharded, replicated, traffic-serving storage cluster on virtual
//! time — the distributed-systems consequence of the paper's
//! single-drive findings.
//!
//! Deep Note (HotStorage '23) shows a 650 Hz tone at centimetres can
//! black out an HDD's I/O. One drive failing is a device story; what an
//! operator cares about is the *service*: does the key-value cluster
//! built on those drives keep answering? This crate builds that cluster
//! end to end on the workspace's virtual-time stacks:
//!
//! * [`node`] — a [`node::StorageNode`] is one enclosure/drive/LSM world
//!   ([`deepnote_kv::Db`] over [`deepnote_blockdev::HddDisk`]) at a tank
//!   position, bridged onto the shared cluster timeline through its busy
//!   window;
//! * [`placement`] — keys hash onto shards; shards replicate onto nodes
//!   either co-located in one rack or separated across acoustic fault
//!   domains;
//! * [`replication`] — quorum reads/writes with load shedding, plus the
//!   background repair queue that re-replicates through the real storage
//!   stacks (repair bandwidth is paid in virtual time and counted in
//!   bytes);
//! * [`health`] — probe-driven failure detection, restart backoff, and
//!   failover timing: the control plane sees round-trips, never physics;
//! * [`workload`] — a deterministic closed-loop client population;
//! * [`timeline`] — what the adversary transmits, phase by phase;
//! * [`metrics`] / [`report`] — per-phase goodput, tail latency, SLO and
//!   availability accounting, rendered as fixed-width reports;
//! * [`campaign`] — the event loop tying it together.
//!
//! The headline experiment ([`campaign::run_campaign`] with
//! [`campaign::CampaignConfig::paper_duel`]) runs the same attack
//! timeline against both placements: co-located replicas share the blast
//! radius and lose whole shards for the duration; separated replicas
//! keep serving quorum traffic and re-replicate around the damage.
//!
//! ```
//! use deepnote_cluster::prelude::*;
//! use deepnote_sim::SimDuration;
//!
//! let mut config = CampaignConfig::paper_duel(
//!     PlacementPolicy::Separated,
//!     SimDuration::from_secs(10),
//! );
//! config.workload.num_keys = 120; // keep the doctest quick
//! config.workload.clients = 2;
//! let report = run_campaign(&config).expect("launch and provision succeed");
//! assert!(report.metrics.phase("baseline").unwrap().success_ratio() > 0.99);
//! ```

pub mod campaign;
pub mod chaos;
pub mod client;
pub mod cluster;
pub mod error;
pub mod health;
pub mod integrity;
pub mod metrics;
pub mod node;
pub mod placement;
pub mod replication;
pub mod report;
pub mod timeline;
pub mod workload;

/// The common imports for driving cluster campaigns.
pub mod prelude {
    pub use crate::campaign::{run_campaign, run_matrix, CampaignConfig, TelemetryConfig};
    pub use crate::chaos::ChaosProfile;
    pub use crate::client::{ClientPolicy, ResilientClient};
    pub use crate::cluster::{Cluster, ClusterConfig};
    pub use crate::error::ClusterError;
    pub use crate::integrity::IntegrityConfig;
    pub use crate::metrics::{ClusterMetrics, ResilienceStats};
    pub use crate::placement::{PlacementPolicy, RackSpec};
    pub use crate::replication::ReplicationConfig;
    pub use crate::report::{render_duel, CampaignReport, EarlyWarning};
    pub use crate::timeline::{AttackLoad, AttackTimeline, Phase};
    pub use crate::workload::WorkloadSpec;
}
