//! The tracer: SimTime-stamped spans and instants in a bounded ring.
//!
//! A [`Tracer`] is a cheap-clone handle. Disabled (the default) it holds
//! nothing and every emit returns immediately — the serving path carries
//! it for free. Enabled, it appends [`TraceEvent`]s to a bounded buffer
//! behind a mutex; when the buffer fills, *new* events are counted as
//! dropped and the earliest window of the campaign is kept, so repeated
//! runs of the same seed still produce byte-identical logs.
//!
//! # Tracks and time offsets
//!
//! Every node in the cluster is its own virtual-time world (a private
//! [`deepnote_sim::Clock`]), embedded in the shared cluster timeline
//! through its `busy_until` bridging. Layers below the node (device,
//! filesystem, store) only know the private clock, so the tracer keeps a
//! per-track offset: the node sets `offset = dispatch_start − private_now`
//! before handing a request down, and every event emitted on that track
//! is shifted onto the cluster timeline at push time. Control-plane
//! emitters use [`CONTROL_TRACK`], whose offset is always zero.

use deepnote_sim::{SimDuration, SimTime};
use std::sync::{Arc, Mutex, MutexGuard};

/// The stack layer an event belongs to (the Perfetto category).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Tone propagation: what SPL each enclosure receives.
    Acoustics,
    /// The mechanical drive: servo excursions, retries, parks.
    Hdd,
    /// The block layer: I/O errors and injected chaos faults.
    Blockdev,
    /// The filesystem: journal commits.
    Fs,
    /// The KV store: WAL syncs, memtable flushes, compactions.
    Kv,
    /// The cluster control plane: quorums, failovers, repairs.
    Cluster,
}

impl Layer {
    /// Every layer, in filter-mask order.
    pub const ALL: [Layer; 6] = [
        Layer::Acoustics,
        Layer::Hdd,
        Layer::Blockdev,
        Layer::Fs,
        Layer::Kv,
        Layer::Cluster,
    ];

    /// The layer's stable name (the `cat` field of the Chrome export).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Acoustics => "acoustics",
            Layer::Hdd => "hdd",
            Layer::Blockdev => "blockdev",
            Layer::Fs => "fs",
            Layer::Kv => "kv",
            Layer::Cluster => "cluster",
        }
    }

    fn bit(self) -> u8 {
        match self {
            Layer::Acoustics => 1,
            Layer::Hdd => 1 << 1,
            Layer::Blockdev => 1 << 2,
            Layer::Fs => 1 << 3,
            Layer::Kv => 1 << 4,
            Layer::Cluster => 1 << 5,
        }
    }
}

/// One event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer (counters, ids, counts).
    U64(u64),
    /// A float (physical quantities; serialized with `null` for
    /// non-finite values, like the campaign report JSON).
    F64(f64),
    /// A static label.
    Str(&'static str),
    /// An owned label (phase names and other dynamic strings).
    Text(String),
}

/// Span vs point-in-time event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span: `at .. at + dur` (Chrome `ph: "X"`).
    Span,
    /// An instantaneous event (Chrome `ph: "i"`).
    Instant,
}

/// One collected event, already on the cluster timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Cluster-timeline start.
    pub at: SimTime,
    /// Span duration (zero for instants).
    pub dur: SimDuration,
    /// Span or instant.
    pub kind: EventKind,
    /// Originating layer.
    pub layer: Layer,
    /// Track (thread row in Perfetto): node id, or [`CONTROL_TRACK`].
    pub track: u32,
    /// Event name.
    pub name: &'static str,
    /// Structured arguments, in emission order.
    pub args: Vec<(&'static str, Value)>,
}

/// The track control-plane events are emitted on (its offset is pinned
/// to zero: control-plane emitters already speak cluster time).
pub const CONTROL_TRACK: u32 = u32::MAX;

/// Everything a tracer collected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
    /// Events rejected because the ring was full.
    pub dropped: u64,
}

#[derive(Debug)]
struct Ring {
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
    /// Per-track nanosecond offsets private-clock → cluster timeline,
    /// indexed by track id (tracks are small node ids in practice).
    offsets: Vec<i64>,
}

impl Ring {
    fn offset(&self, track: u32) -> i64 {
        if track == CONTROL_TRACK {
            return 0;
        }
        self.offsets.get(track as usize).copied().unwrap_or(0)
    }

    fn push(&mut self, mut ev: TraceEvent) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let shifted = ev.at.as_nanos() as i64 + self.offset(ev.track);
        ev.at = SimTime::from_nanos(shifted.max(0) as u64);
        self.events.push(ev);
    }
}

#[derive(Debug)]
struct Inner {
    /// Bitmask of enabled layers.
    filter: u8,
    ring: Mutex<Ring>,
}

/// A handle events are emitted through. Clone freely; all clones share
/// one buffer. The default handle is disabled and free to carry.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// The no-op tracer: every emit returns immediately.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer collecting every layer into a ring of `cap` events.
    pub fn ring(cap: usize) -> Self {
        Self::with_layers(cap, &Layer::ALL)
    }

    /// A tracer collecting only the given layers.
    pub fn with_layers(cap: usize, layers: &[Layer]) -> Self {
        let filter = layers.iter().fold(0u8, |m, l| m | l.bit());
        Tracer {
            inner: Some(Arc::new(Inner {
                filter,
                ring: Mutex::new(Ring {
                    events: Vec::new(),
                    cap,
                    dropped: 0,
                    offsets: Vec::new(),
                }),
            })),
        }
    }

    /// Whether any collection is active at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether events of `layer` would be collected. Callers use this
    /// to skip building argument vectors on the fast path.
    pub fn enabled(&self, layer: Layer) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.filter & layer.bit() != 0)
    }

    /// A poison-proof lock: a panicking emitter cannot exist (emits do
    /// not panic), but the serving path must not unwrap either way.
    fn lock(inner: &Inner) -> MutexGuard<'_, Ring> {
        match inner.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Sets the private-clock → cluster-timeline offset for `track`.
    /// Nodes call this at every dispatch, before work enters the stack.
    pub fn set_offset(&self, track: u32, offset_nanos: i64) {
        let Some(inner) = &self.inner else { return };
        if track == CONTROL_TRACK {
            return;
        }
        let mut ring = Self::lock(inner);
        let idx = track as usize;
        if ring.offsets.len() <= idx {
            ring.offsets.resize(idx + 1, 0);
        }
        ring.offsets[idx] = offset_nanos;
    }

    /// Emits an instantaneous event at `at` (track-local time).
    pub fn instant(
        &self,
        layer: Layer,
        track: u32,
        name: &'static str,
        at: SimTime,
        args: Vec<(&'static str, Value)>,
    ) {
        self.emit(
            layer,
            track,
            name,
            at,
            SimDuration::ZERO,
            EventKind::Instant,
            args,
        );
    }

    /// Emits a complete span `[at, at + dur]` (track-local time).
    pub fn span(
        &self,
        layer: Layer,
        track: u32,
        name: &'static str,
        at: SimTime,
        dur: SimDuration,
        args: Vec<(&'static str, Value)>,
    ) {
        self.emit(layer, track, name, at, dur, EventKind::Span, args);
    }

    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        layer: Layer,
        track: u32,
        name: &'static str,
        at: SimTime,
        dur: SimDuration,
        kind: EventKind,
        args: Vec<(&'static str, Value)>,
    ) {
        let Some(inner) = &self.inner else { return };
        if inner.filter & layer.bit() == 0 {
            return;
        }
        Self::lock(inner).push(TraceEvent {
            at,
            dur,
            kind,
            layer,
            track,
            name,
            args,
        });
    }

    /// Drains the collected log (events in emission order).
    pub fn take(&self) -> TraceLog {
        let Some(inner) = &self.inner else {
            return TraceLog::default();
        };
        let mut ring = Self::lock(inner);
        TraceLog {
            events: std::mem::take(&mut ring.events),
            dropped: std::mem::replace(&mut ring.dropped, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_collects_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert!(!t.enabled(Layer::Hdd));
        t.instant(Layer::Hdd, 0, "x", SimTime::ZERO, Vec::new());
        assert_eq!(t.take(), TraceLog::default());
    }

    #[test]
    fn events_are_collected_in_emission_order() {
        let t = Tracer::ring(8);
        t.instant(
            Layer::Cluster,
            CONTROL_TRACK,
            "a",
            SimTime::from_secs(1),
            Vec::new(),
        );
        t.span(
            Layer::Kv,
            0,
            "b",
            SimTime::from_secs(2),
            SimDuration::from_millis(5),
            vec![("n", Value::U64(3))],
        );
        let log = t.take();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].name, "a");
        assert_eq!(log.events[1].kind, EventKind::Span);
        assert_eq!(log.events[1].args, vec![("n", Value::U64(3))]);
        assert_eq!(log.dropped, 0);
        // take() drained it.
        assert!(t.take().events.is_empty());
    }

    #[test]
    fn layer_filter_suppresses_other_layers() {
        let t = Tracer::with_layers(8, &[Layer::Acoustics]);
        assert!(t.enabled(Layer::Acoustics));
        assert!(!t.enabled(Layer::Kv));
        t.instant(Layer::Kv, 0, "kv", SimTime::ZERO, Vec::new());
        t.instant(Layer::Acoustics, 0, "tone", SimTime::ZERO, Vec::new());
        let log = t.take();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].name, "tone");
    }

    #[test]
    fn full_ring_keeps_the_earliest_window_and_counts_drops() {
        let t = Tracer::ring(2);
        for i in 0..5u64 {
            t.instant(
                Layer::Cluster,
                CONTROL_TRACK,
                "e",
                SimTime::from_secs(i),
                Vec::new(),
            );
        }
        let log = t.take();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.dropped, 3);
        assert_eq!(log.events[0].at, SimTime::ZERO);
        assert_eq!(log.events[1].at, SimTime::from_secs(1));
    }

    #[test]
    fn track_offsets_map_private_clocks_onto_the_shared_timeline() {
        let t = Tracer::ring(8);
        // Node 3's private clock reads 2 s when the cluster is at 10 s.
        t.set_offset(3, 8_000_000_000);
        t.instant(Layer::Fs, 3, "commit", SimTime::from_secs(2), Vec::new());
        // Control events are never shifted.
        t.instant(
            Layer::Cluster,
            CONTROL_TRACK,
            "hb",
            SimTime::from_secs(10),
            Vec::new(),
        );
        let log = t.take();
        assert_eq!(log.events[0].at, SimTime::from_secs(10));
        assert_eq!(log.events[1].at, SimTime::from_secs(10));
    }

    #[test]
    fn negative_offsets_saturate_at_zero() {
        let t = Tracer::ring(8);
        t.set_offset(0, -5_000_000_000);
        t.instant(Layer::Hdd, 0, "io", SimTime::from_secs(1), Vec::new());
        let log = t.take();
        assert_eq!(log.events[0].at, SimTime::ZERO);
    }
}
