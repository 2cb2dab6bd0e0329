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

impl Engine {
    /// The drive, wherever it sits (none while in transit).
    fn device(&self) -> Option<&ChaosDisk> {
        match self {
            Engine::Running(db) => Some(db.filesystem().device()),
            Engine::Stopped(dev) => Some(dev),
            Engine::Swapping => None,
        }
    }

    fn device_mut(&mut self) -> Option<&mut ChaosDisk> {
        match self {
            Engine::Running(db) => Some(db.filesystem_mut().device_mut()),
            Engine::Stopped(dev) => Some(dev),
            Engine::Swapping => None,
        }
    }
}

/// One replica server.
#[derive(Debug)]
pub struct StorageNode {
    id: usize,
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
        position: Distance,
        image: &Db<ChaosDisk>,
        chaos: &ChaosProfile,
        rng: SimRng,
    ) -> Self {
        let mut node = StorageNode {
            id,
            position,
            clock: Clock::starting_at(image.clock().now()),
            engine: Engine::Swapping,
            vibration: VibrationInput::quiescent(),
            busy_until: SimTime::ZERO,
            db_config: *image.config(),
            counters: NodeCounters::default(),
            chaos: chaos.clone(),
            rng,
            retired_chaos: ChaosStats::default(),
            devices_built: 0,
            tracer: Tracer::disabled(),
        };
        node.engine = node.commission_drive(Some(image));
        node
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
        if let Some(dev) = self.engine.device() {
            total.merge(&dev.stats());
        }
        total
    }

    /// Faults injected by the current drive (a blank swap retires the
    /// count along with the drive).
    pub fn drive_faults(&self) -> u64 {
        self.engine.device().map_or(0, ChaosInjector::injected)
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
        if let Engine::Running(db) = &mut self.engine {
            db.set_tracer(self.tracer.clone());
        }
        if let Some(dev) = self.engine.device_mut() {
            dev.set_tracer(self.tracer.clone());
            dev.inner_mut().set_tracer(self.tracer.clone());
        }
    }

    /// Counters the campaign scrapes into metric series. Read-only: a
    /// probe never advances clocks or consumes randomness, so scraping
    /// cannot perturb the campaign. Engine counters read zero while the
    /// node is down (the process holding them is gone), and KV/fs
    /// counters restart from zero after a reboot — both visible as
    /// cliffs in the series, which is the point.
    pub fn probe(&self) -> NodeProbe {
        let (offtrack_nm, seek_retries, io_errors) = match self.engine.device() {
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
        let mut r = self.serve(at, |db| Ok(db.get(key)?.map(<[u8]>::to_vec)));
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

    /// Runs `f` on the store in a dispatch window that ends one network
    /// round-trip after the service; a fatal error crashes the engine.
    fn serve<F>(&mut self, at: SimTime, f: F) -> ServiceResult
    where
        F: FnOnce(&mut Db<ChaosDisk>) -> Result<Option<Vec<u8>>, DbError>,
    {
        if !self.running() {
            // Process down: connection refused, a network round-trip.
            return ServiceResult {
                ok: false,
                fatal: false,
                value: None,
                done: at + RTT,
            };
        }
        let outcome = self.window(at, RTT, |node| match &mut node.engine {
            Engine::Running(db) => f(db),
            // Not reached (checked above); a stopped store refuses.
            _ => Err(DbError::Closed),
        });
        let fatal = outcome.as_ref().is_err_and(DbError::is_fatal);
        if fatal {
            self.crash_engine();
        }
        ServiceResult {
            ok: outcome.is_ok(),
            fatal,
            value: outcome.ok().flatten(),
            done: self.busy_until,
        }
    }

    /// Runs `work` in the node's next dispatch window, the one bridge
    /// from its private clock to the cluster timeline: the window opens
    /// at `start = max(busy_until, at)`, an event the stack emits at
    /// private time `t` lands at `start + (t - t0)`, and `busy_until`
    /// moves to `start` plus the private time `work` took plus `extra`.
    fn window<R>(
        &mut self,
        at: SimTime,
        extra: SimDuration,
        work: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let start = self.busy_until.max(at);
        let t0 = self.clock.now();
        self.tracer
            .set_offset(start.as_nanos() as i64 - t0.as_nanos() as i64);
        let out = work(self);
        self.busy_until = start + self.clock.now().saturating_duration_since(t0) + extra;
        out
    }

    /// Takes the engine out for a lifecycle change, leaving `Swapping`
    /// until the caller puts the next one in. The engine must be running
    /// if `running` is set and stopped if not; anything else is a bug,
    /// debug-asserted, and returns `None`.
    fn take_engine(&mut self, running: bool) -> Option<Engine> {
        let ready = match self.engine {
            Engine::Running(_) => running,
            Engine::Stopped(_) => !running,
            Engine::Swapping => false,
        };
        if !ready {
            debug_assert!(false, "engine taken in the wrong state");
            return None;
        }
        Some(std::mem::replace(&mut self.engine, Engine::Swapping))
    }

    /// Pulls the disk out of a dead engine so its platters survive the
    /// process crash. The device keeps its chaos state, stats, tracer and
    /// wired vibration input; what the process held in memory is lost.
    fn crash_engine(&mut self) {
        let Some(Engine::Running(db)) = self.take_engine(true) else {
            return;
        };
        self.engine = Engine::Stopped(db.into_device());
        self.counters.crashes += 1;
    }

    /// Attempts to reboot a crashed node at cluster time `at`; its
    /// dispatch window charges the reboot's time and no round-trip.
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
        let Some(Engine::Stopped(disk)) = self.take_engine(false) else {
            return RestartOutcome::StillDead;
        };
        let outcome = self.window(at, SimDuration::ZERO, |node| node.reboot(disk));
        if outcome == RestartOutcome::StillDead {
            self.counters.failed_restarts += 1;
        } else {
            self.counters.restarts += 1;
        }
        outcome
    }

    /// Probes `disk`, then reopens the store on it or swaps in a blank
    /// drive (see [`StorageNode::try_restart`]).
    fn reboot(&mut self, mut disk: ChaosDisk) -> RestartOutcome {
        let mut probe = [0u8; 512];
        if disk.read_blocks(0, &mut probe).is_err() {
            self.engine = Engine::Stopped(disk);
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
                // The open consumed the device: retire its counters and
                // commission a blank drive (new hardware, new luck).
                self.retired_chaos.merge(&old_stats);
                self.engine = self.commission_drive(None);
                if self.running() {
                    RestartOutcome::RecoveredBlank
                } else {
                    RestartOutcome::StillDead
                }
            }
        };
        // A restart rebuilt the engine (and possibly the drive): the new
        // stack needs the tracer re-attached.
        self.apply_tracer();
        outcome
    }

    /// Commissions the node's next drive, a copy of `image` or a blank
    /// drive formatted here, and returns the engine on it. The one place
    /// of the commissioning rule (DESIGN.md §8): the store goes onto the
    /// drive with its chaos plan disarmed, and the plan is armed before
    /// the engine serves, since a commissioning burst would abort the
    /// campaign instead of degrading it. A blank drive that will not
    /// format leaves the node stopped on another blank drive.
    fn commission_drive(&mut self, image: Option<&Db<ChaosDisk>>) -> Engine {
        let mut engine = match image {
            Some(image) => {
                let dev = self.build_device(Some(image.filesystem().device()));
                Engine::Running(Box::new(image.replica(dev, self.clock.clone())))
            }
            None => {
                let dev = self.build_device(None);
                match Db::create_with(dev, self.clock.clone(), self.db_config) {
                    Ok(db) => Engine::Running(Box::new(db)),
                    Err(_) => Engine::Stopped(self.build_device(None)),
                }
            }
        };
        if let Some(dev) = engine.device_mut() {
            dev.set_plan(self.chaos.device.clone());
        }
        engine
    }

    /// Builds the node's next drive, disarmed, on its clock and RNG fork:
    /// a copy of the `image` drive or a fresh one. The node's vibration
    /// handle becomes the new drive's own input.
    fn build_device(&mut self, image: Option<&ChaosDisk>) -> ChaosDisk {
        self.devices_built += 1;
        let rng = self.rng.fork(self.devices_built);
        let dev = match image {
            Some(image) => image.replica(image.inner().replica(self.clock.clone()), rng),
            None => ChaosInjector::new(
                HddDisk::barracuda_500gb(self.clock.clone()),
                ChaosPlan::quiet(),
                rng,
            ),
        };
        self.vibration = dev.inner().vibration();
        dev.with_clock(self.clock.clone())
            .with_vibration(self.vibration.clone())
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
            position: Distance,
            db_config: DbConfig,
        ) -> Result<Self, ClusterError> {
            let image = commission(db_config)
                .map_err(|source| ClusterError::NodeLaunch { node: id, source })?;
            Ok(Self::launch_with(
                id,
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
        StorageNode::launch(0, Distance::from_cm(1.0), quick_config()).expect("fresh launch")
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

    /// Mounts the paper tone on `n` and writes until a WAL group sync
    /// kills the engine. Returns when the last reply came back.
    fn crash_under_tone(n: &mut StorageNode) -> SimTime {
        let testbed = Testbed::paper_default(Scenario::PlasticTower);
        testbed.mount_attack(n.vibration(), AttackParams::paper_best());
        let mut t = SimTime::ZERO;
        for i in 0..64u32 {
            let r = n.serve_put(t, format!("k{i}").as_bytes(), b"v");
            t = r.done;
            if r.fatal {
                return t;
            }
        }
        panic!("the tone never tripped a fatal sync");
    }

    /// Restarts `n` at `at` and checks what the restart charged: the
    /// busy window ends the private-clock time the restart took after
    /// `max(busy_until, at)`, with no network round-trip.
    fn timed_restart(n: &mut StorageNode, at: SimTime) -> RestartOutcome {
        let start = n.busy_until().max(at);
        let t0 = n.clock.now();
        let outcome = n.try_restart(at);
        let spent = n.clock.now().saturating_duration_since(t0);
        assert_eq!(n.busy_until(), start + spent, "{outcome:?}");
        outcome
    }

    #[test]
    fn a_restart_charges_its_private_time_and_counts_its_outcome() {
        let mut n = node();
        n.preload([(b"stable".as_slice(), b"value".as_slice())])
            .expect("preload");
        let t = crash_under_tone(&mut n);
        assert_eq!(n.busy_until(), t);

        // Under the tone the boot probe refuses and the platters stay.
        assert_eq!(timed_restart(&mut n, t), RestartOutcome::StillDead);
        assert!(!n.running());
        let c = n.counters();
        assert_eq!((c.crashes, c.restarts, c.failed_restarts), (1, 0, 1));
        assert!(n.busy_until() > t, "the failed probe took no time");

        // Tone off, restarted after the busy window: the store reopens
        // from the surviving platters.
        n.vibration().clear();
        let later = n.busy_until() + SimDuration::from_secs(1);
        assert_eq!(timed_restart(&mut n, later), RestartOutcome::Recovered);
        assert!(n.running());
        let c = n.counters();
        assert_eq!((c.crashes, c.restarts, c.failed_restarts), (1, 1, 1));
        assert!(n.busy_until() > later, "the reopen took no time");
    }

    #[test]
    fn a_blank_swap_keeps_the_retired_counts_and_arms_the_new_drive() {
        // Every block read comes back with one bit flipped: the boot
        // probe passes, the flipped superblock does not mount, and the
        // node rejoins on a blank drive. Every request is also delayed,
        // so any device I/O the new drive serves shows in its count.
        let mut chaos = ChaosProfile::off();
        chaos.device.read_flip_per_block = 1.0;
        chaos.device.delay = Some(deepnote_blockdev::DelayPlan {
            per_request: 1.0,
            extra: SimDuration::from_millis(1),
        });
        let mut n = chaos_node(&chaos, 11);
        let t = crash_under_tone(&mut n);
        n.vibration().clear();
        let before = n.chaos_stats();

        assert_eq!(timed_restart(&mut n, t), RestartOutcome::RecoveredBlank);
        assert!(n.running());
        let c = n.counters();
        assert_eq!((c.crashes, c.restarts, c.failed_restarts), (1, 1, 0));
        // The retired drive's count is kept, with the flips its probe
        // and mount read; the blank drive was formatted disarmed.
        let retired = n.chaos_stats();
        assert!(retired.read_flips > before.read_flips, "{retired:?}");
        assert_eq!(n.drive_faults(), 0);

        // Armed now: the WAL group sync of the eighth put is delayed.
        let mut at = n.busy_until();
        for i in 0..8u32 {
            let w = n.serve_put(at, &i.to_le_bytes(), b"v");
            assert!(w.ok, "put {i}");
            at = w.done;
        }
        assert!(n.drive_faults() > 0, "the new drive's plan never fired");
        let now = n.chaos_stats();
        assert_eq!(now.total(), retired.total() + n.drive_faults());
        assert_eq!(now.read_flips, retired.read_flips);
        assert_eq!(now.delays, retired.delays + n.drive_faults());
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
        own.rng = SimRng::seeded(9);
        own.devices_built = 0;
        own.clock = Clock::new();
        own.engine = own.commission_drive(None);
        assert!(own.running());
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
            assert_eq!(n.probe().offtrack_nm, 0.0, "node {}", n.id);
        }
    }
}
