//! A storage node: one enclosure/drive/LSM stack at a tank position.
//!
//! Each node is its own virtual-time world — a private [`Clock`] driving
//! a [`HddDisk`] under a [`Db`] — embedded in the cluster's shared
//! timeline through `busy_until`: requests dispatched at cluster time `t`
//! start at `max(t, busy_until)`, take whatever the private clock says
//! the stack charged, and push `busy_until` forward. A node wedged in an
//! 81-second WAL-sync retry is therefore unresponsive on the cluster
//! timeline for 81 seconds, exactly like a real server with a blocked
//! fsync.
//!
//! Every drive sits behind a [`ChaosInjector`] (quiet by default), and
//! the node itself can silently corrupt values it stores or returns
//! (see [`ChaosProfile`]): device-level flips are caught by the KV
//! store's own record checksums, so the truly dangerous corruption —
//! the kind only the cluster's end-to-end checksums can see — is
//! injected here, above the store, where no lower layer checks it.

use crate::chaos::ChaosProfile;
use crate::error::ClusterError;
use deepnote_acoustics::Distance;
use deepnote_blockdev::{BlockDevice, ChaosInjector, ChaosPlan, ChaosStats, HddDisk};
use deepnote_hdd::VibrationInput;
use deepnote_kv::{Db, DbConfig, DbError};
use deepnote_sim::{Clock, SimDuration, SimRng, SimTime};
use deepnote_telemetry::Tracer;

/// A node's drive: the mechanical model behind a seeded fault injector.
pub type ChaosDisk = ChaosInjector<HddDisk>;

/// The node's storage engine, present in every lifecycle state.
///
/// `Stopped` holds the bare drive inline: there is exactly one `Engine`
/// per node and the disk is moved, never copied, so the variant size gap
/// against the boxed `Running` database does not matter here.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Engine {
    /// Serving: the database owns the disk.
    Running(Box<Db<ChaosDisk>>),
    /// Crashed: the disk has been pulled out of the dead process and
    /// waits for a restart.
    Stopped(ChaosDisk),
    /// Transient marker while ownership moves between states.
    Swapping,
}

/// Why a restart attempt did not bring the node back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartOutcome {
    /// The boot probe saw the medium still unresponsive (attack ongoing).
    StillDead,
    /// The store reopened from the surviving on-disk state.
    Recovered,
    /// The on-disk state was unrecoverable; the node rejoined with a
    /// blank replacement drive (repairs must restore its data).
    RecoveredBlank,
}

/// Counters for one node's lifecycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NodeCounters {
    /// Fatal engine crashes observed.
    pub crashes: u64,
    /// Successful restarts.
    pub restarts: u64,
    /// Restart attempts that failed (medium still dead).
    pub failed_restarts: u64,
    /// Device-level faults injected by the drive's chaos plan (every
    /// kind, including drives since retired).
    pub injected_faults: u64,
    /// Values this node durably stored wrong (silent write corruption,
    /// preload included).
    pub corrupted_writes: u64,
    /// Values this node returned wrong while the stored copy was fine
    /// (transient read corruption).
    pub corrupted_reads: u64,
}

/// A read-only snapshot of one node's telemetry counters, taken at a
/// metrics scrape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeProbe {
    /// Whether the engine process is alive.
    pub running: bool,
    /// Residual off-track excursion under the current vibration (nm).
    pub offtrack_nm: f64,
    /// Drive retry attempts since the current drive was commissioned.
    pub seek_retries: u64,
    /// Failed block requests on the current drive.
    pub io_errors: u64,
    /// Injected chaos faults, drives since retired included.
    pub injected_faults: u64,
    /// WAL group syncs since the engine booted.
    pub wal_syncs: u64,
    /// Memtable flushes since the engine booted.
    pub flushes: u64,
    /// Compactions since the engine booted.
    pub compactions: u64,
    /// Filesystem journal commits since the engine booted.
    pub journal_commits: u64,
}

/// The result of dispatching one operation to a node.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResult {
    /// Whether the engine served the request.
    pub ok: bool,
    /// Whether the failure killed the engine (process crash).
    pub fatal: bool,
    /// Value returned by a get (`None` for puts and misses).
    pub value: Option<Vec<u8>>,
    /// Cluster-timeline instant the node finished the request.
    pub done: SimTime,
}

/// One replica server.
#[derive(Debug)]
pub struct StorageNode {
    id: usize,
    rack: usize,
    position: Distance,
    clock: Clock,
    engine: Engine,
    vibration: VibrationInput,
    busy_until: SimTime,
    db_config: DbConfig,
    /// Lifecycle counters. `injected_faults` stays zero here:
    /// `counters()` reads it from the devices.
    counters: NodeCounters,
    chaos: ChaosProfile,
    rng: SimRng,
    /// Chaos counters of drives this node has retired (blank swaps).
    retired_chaos: ChaosStats,
    /// Distinct devices built, used to fork a fresh RNG stream per drive.
    devices_built: u64,
    /// Shared trace sink on this node's track; re-applied to the engine
    /// after every swap.
    tracer: Tracer,
}

impl StorageNode {
    /// Brings up a node as a copy of the commissioned `image` (see
    /// [`commission`]), with its own clock and vibration input, whose
    /// drive and serving path inject the faults `chaos` describes, drawn
    /// from `rng`.
    pub fn launch_with(
        id: usize,
        rack: usize,
        position: Distance,
        image: &Db<ChaosDisk>,
        chaos: &ChaosProfile,
        mut rng: SimRng,
    ) -> Self {
        let clock = Clock::starting_at(image.clock().now());
        let image_dev = image.filesystem().device();
        // The drive's own RNG stream, forked exactly as `build_device`
        // forks one for a drive this node formats itself.
        let devices_built = 1;
        let mut dev = image_dev.replica(
            image_dev.inner().replica(clock.clone()),
            rng.fork(devices_built),
        );
        // The image was formatted with the plan disarmed: injected faults
        // are a serving-time phenomenon, and a commissioning burst would
        // abort the whole campaign instead of degrading it.
        dev.set_plan(chaos.device.clone());
        let (dev, vibration) = wire_device(dev, &clock);
        StorageNode {
            id,
            rack,
            position,
            engine: Engine::Running(Box::new(image.replica(dev, clock.clone()))),
            clock,
            vibration,
            busy_until: SimTime::ZERO,
            db_config: *image.config(),
            counters: NodeCounters::default(),
            chaos: chaos.clone(),
            rng,
            retired_chaos: ChaosStats::default(),
            devices_built,
            tracer: Tracer::disabled(),
        }
    }

    /// The node's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The rack this node sits in.
    pub fn rack(&self) -> usize {
        self.rack
    }

    /// Distance from the attack point.
    pub fn position(&self) -> Distance {
        self.position
    }

    /// The drive's vibration input (mount/stop attacks through this).
    pub fn vibration(&self) -> &VibrationInput {
        &self.vibration
    }

    /// Whether the engine process is alive.
    pub fn running(&self) -> bool {
        matches!(self.engine, Engine::Running(_))
    }

    /// Cluster-timeline instant until which the node is busy.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Lifecycle counters.
    pub fn counters(&self) -> NodeCounters {
        NodeCounters {
            injected_faults: self.chaos_stats().total(),
            ..self.counters
        }
    }

    /// Device-level chaos counters, including drives since retired.
    pub fn chaos_stats(&self) -> ChaosStats {
        let mut total = self.retired_chaos;
        if let Some(dev) = self.device() {
            total.merge(&dev.stats());
        }
        total
    }

    /// Faults injected by the current drive (a blank swap retires the
    /// count along with the drive).
    pub fn drive_faults(&self) -> u64 {
        self.device().map_or(0, ChaosInjector::injected)
    }

    fn device(&self) -> Option<&ChaosDisk> {
        match &self.engine {
            Engine::Running(db) => Some(db.filesystem().device()),
            Engine::Stopped(dev) => Some(dev),
            Engine::Swapping => None,
        }
    }

    /// Attaches a tracer to this node; every layer of the stack emits on
    /// track `id`. Survives engine crashes and drive swaps (the node
    /// re-applies the handle whenever the engine changes).
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.on_track(self.id as u32);
        self.apply_tracer();
    }

    /// Pushes the tracer down the current engine's stack.
    fn apply_tracer(&mut self) {
        if !self.tracer.is_enabled() {
            return;
        }
        let dev = match &mut self.engine {
            Engine::Running(db) => {
                db.set_tracer(self.tracer.clone());
                db.filesystem_mut().device_mut()
            }
            Engine::Stopped(dev) => dev,
            Engine::Swapping => return,
        };
        dev.set_tracer(self.tracer.clone());
        dev.inner_mut().set_tracer(self.tracer.clone());
    }

    /// Counters the campaign scrapes into metric series. Read-only: a
    /// probe never advances clocks or consumes randomness, so scraping
    /// cannot perturb the campaign. Engine counters read zero while the
    /// node is down (the process holding them is gone), and KV/fs
    /// counters restart from zero after a reboot — both visible as
    /// cliffs in the series, which is the point.
    pub fn probe(&self) -> NodeProbe {
        let (offtrack_nm, seek_retries, io_errors) = match self.device() {
            Some(dev) => (
                dev.inner().residual_offtrack_nm(),
                dev.inner().drive().retries_total(),
                dev.inner().read_errors() + dev.inner().write_errors(),
            ),
            None => (0.0, 0, 0),
        };
        let (wal_syncs, flushes, compactions, journal_commits) = match &self.engine {
            Engine::Running(db) => {
                let s = db.stats();
                (
                    s.wal_syncs,
                    s.flushes,
                    s.compactions,
                    db.filesystem().stats().journal_commits,
                )
            }
            _ => (0, 0, 0, 0),
        };
        NodeProbe {
            running: self.running(),
            offtrack_nm,
            seek_retries,
            io_errors,
            injected_faults: self.chaos_stats().total(),
            wal_syncs,
            flushes,
            compactions,
            journal_commits,
        }
    }

    /// Flips one seeded bit of `value` in place (no-op on empty values).
    fn flip_value(rng: &mut SimRng, value: &mut [u8]) {
        if value.is_empty() {
            return;
        }
        let bit = rng.below(value.len() as u64 * 8) as usize;
        value[bit / 8] ^= 1 << (bit % 8);
    }

    /// Loads `(key, value)` pairs before the campaign starts: provisioning
    /// time is off the books (`busy_until` is untouched), but the data and
    /// its on-disk footprint are real. With a `preload_flip` chaos rate,
    /// some records are silently stored corrupt — bad state already
    /// resident when the campaign begins.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeNotRunning`] on a stopped node;
    /// [`ClusterError::Provision`] if a write or the final flush fails.
    pub fn preload<'a>(
        &mut self,
        pairs: impl IntoIterator<Item = (&'a [u8], &'a [u8])>,
    ) -> Result<(), ClusterError> {
        let id = self.id;
        let flip = self.chaos.preload_flip;
        let Engine::Running(db) = &mut self.engine else {
            return Err(ClusterError::NodeNotRunning { node: id });
        };
        for (k, v) in pairs {
            if flip > 0.0 && self.rng.chance(flip) {
                let mut bad = v.to_vec();
                Self::flip_value(&mut self.rng, &mut bad);
                self.counters.corrupted_writes += 1;
                db.put(k, &bad)
            } else {
                db.put(k, v)
            }
            .map_err(|source| ClusterError::Provision { node: id, source })?;
        }
        db.flush()
            .map_err(|source| ClusterError::Provision { node: id, source })
    }

    /// Serves a get dispatched at cluster time `at`. With a `get_flip`
    /// chaos rate, a returned value may be transiently corrupted (the
    /// stored copy stays fine).
    pub fn serve_get(&mut self, at: SimTime, key: &[u8]) -> ServiceResult {
        let mut r = self.serve(at, |db| db.get(key));
        if r.ok && self.chaos.get_flip > 0.0 {
            if let Some(v) = r.value.as_mut() {
                if self.rng.chance(self.chaos.get_flip) {
                    Self::flip_value(&mut self.rng, v);
                    self.counters.corrupted_reads += 1;
                }
            }
        }
        r
    }

    /// Serves a put dispatched at cluster time `at`. With a `put_flip`
    /// chaos rate, the stored value may be silently corrupted — the
    /// store below checksums the *wrong* bytes faithfully, so only
    /// end-to-end verification can catch it.
    pub fn serve_put(&mut self, at: SimTime, key: &[u8], value: &[u8]) -> ServiceResult {
        if self.chaos.put_flip > 0.0 && self.rng.chance(self.chaos.put_flip) {
            let mut bad = value.to_vec();
            Self::flip_value(&mut self.rng, &mut bad);
            self.counters.corrupted_writes += 1;
            return self.serve(at, |db| db.put(key, &bad).map(|()| None));
        }
        self.serve(at, |db| db.put(key, value).map(|()| None))
    }

    fn serve<F>(&mut self, at: SimTime, f: F) -> ServiceResult
    where
        F: FnOnce(&mut Db<ChaosDisk>) -> Result<Option<Vec<u8>>, deepnote_kv::DbError>,
    {
        let start = self.busy_until.max(at);
        let Engine::Running(db) = &mut self.engine else {
            // Process down: connection refused, a network round-trip.
            return ServiceResult {
                ok: false,
                fatal: false,
                value: None,
                done: at + RTT,
            };
        };
        let t0 = self.clock.now();
        // Bridge this dispatch's private-clock window onto the cluster
        // timeline: events the stack emits at private time `t` land at
        // `start + (t - t0)`.
        self.tracer
            .set_offset(start.as_nanos() as i64 - t0.as_nanos() as i64);
        let outcome = f(db);
        let service = self.clock.now().saturating_duration_since(t0);
        self.busy_until = start + service + RTT;
        match outcome {
            Ok(value) => ServiceResult {
                ok: true,
                fatal: false,
                value,
                done: self.busy_until,
            },
            Err(e) => {
                let fatal = e.is_fatal();
                if fatal {
                    self.crash_engine();
                }
                ServiceResult {
                    ok: false,
                    fatal,
                    value: None,
                    done: self.busy_until,
                }
            }
        }
    }

    /// Pulls the disk out of a dead engine so its platters survive the
    /// process crash. On a node that is not running there is nothing to
    /// crash and the call is a (debug-asserted) no-op.
    fn crash_engine(&mut self) {
        if !matches!(self.engine, Engine::Running(_)) {
            debug_assert!(false, "crash_engine on a node that is not running");
            return;
        }
        let Engine::Running(db) = std::mem::replace(&mut self.engine, Engine::Swapping) else {
            return; // checked above; keeps the move below panic-free
        };
        // The device keeps its chaos state, stats, tracer and wired
        // vibration input; what the process held in memory is lost.
        self.engine = Engine::Stopped(db.into_device());
        self.counters.crashes += 1;
    }

    /// Attempts to reboot a crashed node at cluster time `at`.
    ///
    /// A raw boot probe (one sector read) checks whether the medium
    /// responds before the journal replay risks the disk: an open that
    /// dies half-way consumes the device, so a probe failure keeps the
    /// original platters for the next attempt. If the probe passes but
    /// recovery still fails, the drive is swapped for a blank unit and
    /// the node rejoins empty.
    /// Restarting a node that is not stopped is a (debug-asserted)
    /// no-op reported as [`RestartOutcome::StillDead`].
    pub fn try_restart(&mut self, at: SimTime) -> RestartOutcome {
        if !matches!(self.engine, Engine::Stopped(_)) {
            debug_assert!(false, "try_restart on a node that is not stopped");
            return RestartOutcome::StillDead;
        }
        let Engine::Stopped(mut disk) = std::mem::replace(&mut self.engine, Engine::Swapping)
        else {
            return RestartOutcome::StillDead; // checked above
        };
        let start = self.busy_until.max(at);
        let t0 = self.clock.now();
        self.tracer
            .set_offset(start.as_nanos() as i64 - t0.as_nanos() as i64);
        let mut probe = [0u8; 512];
        if disk.read_blocks(0, &mut probe).is_err() {
            let spent = self.clock.now().saturating_duration_since(t0);
            self.busy_until = start + spent;
            self.engine = Engine::Stopped(disk);
            self.counters.failed_restarts += 1;
            return RestartOutcome::StillDead;
        }
        // `open_with` consumes the device; snapshot its chaos history
        // first so a blank swap cannot lose it.
        let old_stats = disk.stats();
        let outcome = match Db::open_with(disk, self.clock.clone(), self.db_config) {
            Ok(db) => {
                self.engine = Engine::Running(Box::new(db));
                RestartOutcome::Recovered
            }
            Err(_) => {
                // The open consumed the device; commission a blank drive
                // (wrapped in a fresh chaos stream — new hardware, new
                // luck) and retire the old one's counters.
                self.retired_chaos.merge(&old_stats);
                // Format the replacement with its chaos plan disarmed
                // (as at launch): commissioning happens on the bench,
                // not in the blast zone. The plan arms once the engine
                // is serving.
                let (mut blank, vibration) = build_device(
                    &self.clock,
                    &self.chaos,
                    &mut self.rng,
                    &mut self.devices_built,
                );
                blank.set_plan(ChaosPlan::quiet());
                self.vibration = vibration;
                match Db::create_with(blank, self.clock.clone(), self.db_config) {
                    Ok(mut db) => {
                        db.filesystem_mut()
                            .device_mut()
                            .set_plan(self.chaos.device.clone());
                        self.engine = Engine::Running(Box::new(db));
                        RestartOutcome::RecoveredBlank
                    }
                    Err(_) => {
                        // Even the blank drive refuses (attack resumed
                        // mid-boot); stand the node down with another one.
                        let (blank, vibration) = build_device(
                            &self.clock,
                            &self.chaos,
                            &mut self.rng,
                            &mut self.devices_built,
                        );
                        self.vibration = vibration;
                        self.engine = Engine::Stopped(blank);
                        self.apply_tracer();
                        self.counters.failed_restarts += 1;
                        let spent = self.clock.now().saturating_duration_since(t0);
                        self.busy_until = start + spent;
                        return RestartOutcome::StillDead;
                    }
                }
            }
        };
        // A restart rebuilt the engine (and possibly the drive): the new
        // stack needs the tracer re-attached.
        self.apply_tracer();
        let spent = self.clock.now().saturating_duration_since(t0);
        self.busy_until = start + spent;
        self.counters.restarts += 1;
        outcome
    }
}

/// Formats the drive image a launch copies into every node: a fresh
/// drive behind a quiet injector, on its own clock, holding an empty
/// store with `db_config`. Every node of a launch would format the same
/// bytes in the same virtual time (the plan is disarmed and a quiet
/// drive draws no randomness), so one format serves them all. A blank
/// swap after a crash still formats its own drive, at the node's clock.
///
/// # Errors
///
/// The store error if the format fails.
pub fn commission(db_config: DbConfig) -> Result<Db<ChaosDisk>, DbError> {
    let clock = Clock::new();
    let dev = ChaosInjector::new(
        HddDisk::barracuda_500gb(clock.clone()),
        ChaosPlan::quiet(),
        SimRng::seeded(0),
    );
    Db::create_with(dev, clock, db_config)
}

/// Builds a fresh chaos-wrapped drive on `clock`, forking a dedicated
/// RNG stream for it, and returns it with its vibration handle.
fn build_device(
    clock: &Clock,
    chaos: &ChaosProfile,
    rng: &mut SimRng,
    devices_built: &mut u64,
) -> (ChaosDisk, VibrationInput) {
    *devices_built += 1;
    let dev = ChaosInjector::new(
        HddDisk::barracuda_500gb(clock.clone()),
        chaos.device.clone(),
        rng.fork(*devices_built),
    );
    wire_device(dev, clock)
}

/// Attaches `clock` and the drive's own vibration input to a node's
/// injector, and returns it with that vibration handle.
fn wire_device(dev: ChaosDisk, clock: &Clock) -> (ChaosDisk, VibrationInput) {
    let vibration = dev.inner().vibration();
    let dev = dev
        .with_clock(clock.clone())
        .with_vibration(vibration.clone());
    (dev, vibration)
}

/// Modeled network round-trip added to every dispatched request.
const RTT: SimDuration = SimDuration::from_micros(200);

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_core::testbed::Testbed;
    use deepnote_core::threat::AttackParams;
    use deepnote_structures::Scenario;

    impl StorageNode {
        /// Brings up a node with a freshly formatted drive and no chaos.
        pub(crate) fn launch(
            id: usize,
            rack: usize,
            position: Distance,
            db_config: DbConfig,
        ) -> Result<Self, ClusterError> {
            let image = commission(db_config)
                .map_err(|source| ClusterError::NodeLaunch { node: id, source })?;
            Ok(Self::launch_with(
                id,
                rack,
                position,
                &image,
                &ChaosProfile::off(),
                SimRng::seeded(id as u64),
            ))
        }
    }

    fn quick_config() -> DbConfig {
        DbConfig {
            wal_sync_every_ops: 8,
            wal_patience: SimDuration::from_secs(2),
            ..DbConfig::default()
        }
    }

    fn node() -> StorageNode {
        StorageNode::launch(0, 0, Distance::from_cm(1.0), quick_config()).expect("fresh launch")
    }

    #[test]
    fn serves_and_advances_busy_window() {
        let mut n = node();
        let w = n.serve_put(SimTime::ZERO, b"k", b"v");
        assert!(w.ok);
        assert!(w.done > SimTime::ZERO);
        let r = n.serve_get(w.done, b"k");
        assert!(r.ok);
        assert_eq!(r.value.as_deref(), Some(&b"v"[..]));
        assert!(n.busy_until() >= r.done);
    }

    #[test]
    fn requests_queue_behind_busy_window() {
        let mut n = node();
        let first = n.serve_put(SimTime::ZERO, b"a", b"1");
        // Dispatched "in the past" relative to the busy window: the reply
        // cannot arrive before the earlier work finishes.
        let second = n.serve_put(SimTime::ZERO, b"b", b"2");
        assert!(second.done > first.done);
    }

    #[test]
    fn attack_crashes_engine_and_preserves_platters() {
        let mut n = node();
        n.preload([(b"stable".as_slice(), b"value".as_slice())])
            .expect("preload");
        let testbed = Testbed::paper_default(Scenario::PlasticTower);
        testbed.mount_attack(n.vibration(), AttackParams::paper_best());
        // Hammer writes until a WAL group sync trips and the store dies.
        let mut t = SimTime::ZERO;
        let mut crashed = false;
        for i in 0..64u32 {
            let r = n.serve_put(t, format!("k{i}").as_bytes(), b"v");
            t = r.done;
            if r.fatal {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "attack never tripped a fatal sync");
        assert!(!n.running());
        assert_eq!(n.counters().crashes, 1);

        // Still under attack: the boot probe refuses.
        assert_eq!(n.try_restart(t), RestartOutcome::StillDead);

        // Attack over: the node reboots and the preloaded key survived.
        n.vibration().clear();
        let outcome = n.try_restart(t);
        assert_eq!(outcome, RestartOutcome::Recovered);
        assert!(n.running());
        let r = n.serve_get(n.busy_until(), b"stable");
        assert!(r.ok);
        assert_eq!(r.value.as_deref(), Some(&b"value"[..]));
    }

    #[test]
    fn stopped_node_refuses_fast() {
        let mut n = node();
        let testbed = Testbed::paper_default(Scenario::PlasticTower);
        testbed.mount_attack(n.vibration(), AttackParams::paper_best());
        let mut t = SimTime::ZERO;
        for i in 0..64u32 {
            let r = n.serve_put(t, format!("k{i}").as_bytes(), b"v");
            t = r.done;
            if r.fatal {
                break;
            }
        }
        assert!(!n.running());
        let at = n.busy_until() + SimDuration::from_secs(1);
        let refused = n.serve_get(at, b"k");
        assert!(!refused.ok && !refused.fatal);
        // Refusal is a round-trip, not a disk timeout.
        assert!(refused.done <= at + SimDuration::from_millis(1));
    }

    /// Node 0, copied from a freshly commissioned image.
    fn chaos_node(chaos: &ChaosProfile, seed: u64) -> StorageNode {
        chaos_node_with(quick_config(), chaos, seed)
    }

    fn chaos_node_with(config: DbConfig, chaos: &ChaosProfile, seed: u64) -> StorageNode {
        let image = commission(config).expect("commission");
        StorageNode::launch_with(
            0,
            0,
            Distance::from_cm(1.0),
            &image,
            chaos,
            SimRng::seeded(seed),
        )
    }

    fn corrupting_node(put_flip: f64, get_flip: f64) -> StorageNode {
        let mut chaos = ChaosProfile::off();
        chaos.put_flip = put_flip;
        chaos.get_flip = get_flip;
        chaos_node(&chaos, 42)
    }

    #[test]
    fn put_flip_corrupts_durably() {
        let mut n = corrupting_node(1.0, 0.0);
        let w = n.serve_put(SimTime::ZERO, b"k", b"value");
        assert!(w.ok, "the engine happily stores the wrong bytes");
        assert_eq!(n.counters().corrupted_writes, 1);
        let r = n.serve_get(w.done, b"k");
        assert!(r.ok);
        let got = r.value.expect("a value was stored");
        assert_ne!(got, b"value", "stored value should be flipped");
        // Exactly one bit differs: silent, plausible corruption.
        let diff: u32 = got
            .iter()
            .zip(b"value".iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn get_flip_is_transient() {
        let mut n = corrupting_node(0.0, 1.0);
        let w = n.serve_put(SimTime::ZERO, b"k", b"value");
        assert!(w.ok);
        assert_eq!(n.counters().corrupted_writes, 0);
        let r1 = n.serve_get(w.done, b"k");
        assert_ne!(r1.value.as_deref(), Some(&b"value"[..]));
        assert!(n.counters().corrupted_reads >= 1);
        // The stored copy is fine: a chaos-free reader would see it —
        // prove it by turning the flip off.
        n.chaos.get_flip = 0.0;
        let r2 = n.serve_get(r1.done, b"k");
        assert_eq!(r2.value.as_deref(), Some(&b"value"[..]));
    }

    #[test]
    fn preload_flip_corrupts_resident_data() {
        let mut chaos = ChaosProfile::off();
        chaos.preload_flip = 1.0;
        let mut n = chaos_node(&chaos, 7);
        n.preload([(b"k".as_slice(), b"value".as_slice())])
            .expect("preload");
        assert_eq!(n.counters().corrupted_writes, 1);
        let r = n.serve_get(SimTime::ZERO, b"k");
        assert_ne!(r.value.as_deref(), Some(&b"value"[..]));
    }

    #[test]
    fn device_chaos_surfaces_in_counters() {
        use deepnote_blockdev::DelayPlan;
        let mut chaos = ChaosProfile::off();
        // Every device request pays extra latency: any serve that does
        // I/O must show up in the injected-fault counter.
        chaos.device.delay = Some(DelayPlan {
            per_request: 1.0,
            extra: SimDuration::from_millis(1),
        });
        let mut n = chaos_node(&chaos, 3);
        let tracer = Tracer::ring(usize::MAX);
        n.set_tracer(&tracer);
        // Enough puts to force WAL syncs through the device (the WAL
        // buffers in memory between syncs, so one put may do no I/O).
        for i in 0..32u32 {
            let w = n.serve_put(SimTime::ZERO, &i.to_le_bytes(), b"v");
            assert!(w.ok);
        }
        assert!(n.counters().injected_faults > 0);
        assert_eq!(n.chaos_stats().total(), n.counters().injected_faults);
        assert_eq!(n.drive_faults(), n.counters().injected_faults);
        // Every injected fault is one traced instant on the node's track.
        let log = tracer.take();
        let traced = log
            .events
            .iter()
            .filter(|e| e.name == "chaos_fault" && e.track == 0)
            .count() as u64;
        assert_eq!(traced, n.counters().injected_faults);
    }

    #[test]
    fn replica_serves_like_a_self_formatted_node() {
        use deepnote_acoustics::Frequency;
        use deepnote_hdd::VibrationState;
        let chaos = ChaosProfile::full();
        // A WAL sync per op, so the sequence reaches the device often
        // enough for the chaos plan to fire.
        let config = DbConfig {
            wal_sync_every_ops: 1,
            ..quick_config()
        };
        let mut replica = chaos_node_with(config, &chaos, 9);
        // The same node, but its engine formatted its own drive the way
        // every node did before launches were commissioned from an
        // image: same RNG, one fork for the drive, plan armed after the
        // format.
        let mut own = chaos_node_with(config, &chaos, 9);
        let mut rng = SimRng::seeded(9);
        let mut devices_built = 0;
        let clock = Clock::new();
        let (mut dev, vibration) = build_device(&clock, &chaos, &mut rng, &mut devices_built);
        dev.set_plan(ChaosPlan::quiet());
        let mut db = Db::create_with(dev, clock.clone(), config).expect("format");
        db.filesystem_mut()
            .device_mut()
            .set_plan(chaos.device.clone());
        own.engine = Engine::Running(Box::new(db));
        own.clock = clock;
        own.vibration = vibration;
        assert_eq!(own.clock.now(), replica.clock.now());
        let traces = [Tracer::ring(usize::MAX), Tracer::ring(usize::MAX)];
        replica.set_tracer(&traces[0]);
        own.set_tracer(&traces[1]);

        let mut t = SimTime::ZERO;
        for i in 0..200u32 {
            if i == 100 {
                // Mild in-band vibration: the drives retry, drawing from
                // their copied RNGs, and chaos rates scale up.
                for n in [&replica, &own] {
                    n.vibration()
                        .set(Some(VibrationState::new(Frequency::from_hz(650.0), 0.076)));
                }
            }
            let key = format!("k{}", i % 40);
            let (a, b) = if i % 3 == 2 {
                (
                    replica.serve_get(t, key.as_bytes()),
                    own.serve_get(t, key.as_bytes()),
                )
            } else {
                let value = format!("v{i}");
                (
                    replica.serve_put(t, key.as_bytes(), value.as_bytes()),
                    own.serve_put(t, key.as_bytes(), value.as_bytes()),
                )
            };
            assert_eq!(a, b, "op {i}");
            t = a.done;
        }
        assert_eq!(replica.chaos_stats(), own.chaos_stats());
        assert_eq!(replica.counters(), own.counters());
        assert_eq!(replica.probe(), own.probe());
        let log = traces[0].take();
        assert_eq!(log, traces[1].take());
        // The sequence exercised what the copies must carry over.
        assert!(log.events.iter().any(|e| e.name == "chaos_fault"));
        assert!(replica.probe().seek_retries > 0);
    }

    #[test]
    fn replicas_of_one_image_share_no_clock_or_vibration() {
        let image = commission(quick_config()).expect("commission");
        let mut rng = SimRng::seeded(5);
        let mut nodes: Vec<StorageNode> = (0..3)
            .map(|n| {
                StorageNode::launch_with(
                    n,
                    n,
                    Distance::from_cm(1.0),
                    &image,
                    &ChaosProfile::full(),
                    rng.fork(n as u64),
                )
            })
            .collect();
        let t1 = nodes[1].clock.now();
        for i in 0..32u32 {
            assert!(nodes[0].serve_put(SimTime::ZERO, &i.to_le_bytes(), b"v").ok);
        }
        assert!(nodes[0].clock.now() > t1);
        assert_eq!(nodes[1].clock.now(), t1);
        assert_eq!(image.clock().now(), t1);

        let testbed = Testbed::paper_default(Scenario::PlasticTower);
        testbed.mount_attack(nodes[0].vibration(), AttackParams::paper_best());
        assert!(nodes[0].probe().offtrack_nm > 0.0);
        for n in &nodes[1..] {
            assert_eq!(n.probe().offtrack_nm, 0.0, "node {}", n.id());
        }
    }
}
