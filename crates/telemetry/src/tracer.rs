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
//! Every handle is bound to one track. [`Tracer::ring`] returns a handle
//! on [`CONTROL_TRACK`]; [`Tracer::on_track`] returns one on a node's
//! track that shares the same buffer. Every node in the cluster is its
//! own virtual-time world (a private [`deepnote_sim::Clock`]), embedded
//! in the shared cluster timeline through its `busy_until` bridging.
//! Layers below the node (device, filesystem, store) only know the
//! private clock, so the tracer keeps a per-track offset: the node sets
//! `offset = dispatch_start − private_now` before handing a request
//! down, and every event emitted on that track is shifted onto the
//! cluster timeline at push time. The control track's offset is always
//! zero.

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
    /// indexed by track id (tracks are small node ids in practice; the
    /// control track never gets an entry, so its offset reads zero).
    offsets: Vec<i64>,
}

impl Ring {
    fn push(&mut self, mut ev: TraceEvent) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let offset = self.offsets.get(ev.track as usize).copied().unwrap_or(0);
        let shifted = ev.at.as_nanos() as i64 + offset;
        ev.at = SimTime::from_nanos(shifted.max(0) as u64);
        self.events.push(ev);
    }
}

/// A handle events are emitted through, bound to one track. Clone
/// freely; all clones, and every handle [`Tracer::on_track`] derives,
/// share one buffer. The default handle is disabled and free to carry.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    ring: Option<Arc<Mutex<Ring>>>,
    track: u32,
}

impl Tracer {
    /// The no-op tracer: every emit returns immediately.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A tracer on [`CONTROL_TRACK`] collecting into a ring of `cap`
    /// events.
    pub fn ring(cap: usize) -> Self {
        Tracer {
            ring: Some(Arc::new(Mutex::new(Ring {
                events: Vec::new(),
                cap,
                dropped: 0,
                offsets: Vec::new(),
            }))),
            track: CONTROL_TRACK,
        }
    }

    /// A handle on `track` sharing this tracer's buffer (disabled if
    /// this one is).
    pub fn on_track(&self, track: u32) -> Self {
        Tracer {
            ring: self.ring.clone(),
            track,
        }
    }

    /// Whether any collection is active at all. Callers use this to skip
    /// building argument vectors on the fast path.
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// A poison-proof lock: a panicking emitter cannot exist (emits do
    /// not panic), but the serving path must not unwrap either way.
    fn lock(ring: &Mutex<Ring>) -> MutexGuard<'_, Ring> {
        match ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Sets this track's private-clock → cluster-timeline offset. Nodes
    /// call this at every dispatch, before work enters the stack; on the
    /// control track it does nothing.
    pub fn set_offset(&self, offset_nanos: i64) {
        let Some(ring) = &self.ring else { return };
        if self.track == CONTROL_TRACK {
            return;
        }
        let mut ring = Self::lock(ring);
        let idx = self.track as usize;
        if ring.offsets.len() <= idx {
            ring.offsets.resize(idx + 1, 0);
        }
        ring.offsets[idx] = offset_nanos;
    }

    /// Emits an instantaneous event at `at` (track-local time).
    pub fn instant(
        &self,
        layer: Layer,
        name: &'static str,
        at: SimTime,
        args: Vec<(&'static str, Value)>,
    ) {
        self.emit(layer, name, at, SimDuration::ZERO, EventKind::Instant, args);
    }

    /// Emits a complete span `[at, at + dur]` (track-local time).
    pub fn span(
        &self,
        layer: Layer,
        name: &'static str,
        at: SimTime,
        dur: SimDuration,
        args: Vec<(&'static str, Value)>,
    ) {
        self.emit(layer, name, at, dur, EventKind::Span, args);
    }

    fn emit(
        &self,
        layer: Layer,
        name: &'static str,
        at: SimTime,
        dur: SimDuration,
        kind: EventKind,
        args: Vec<(&'static str, Value)>,
    ) {
        let Some(ring) = &self.ring else { return };
        Self::lock(ring).push(TraceEvent {
            at,
            dur,
            kind,
            layer,
            track: self.track,
            name,
            args,
        });
    }

    /// Drains the collected log (events in emission order).
    pub fn take(&self) -> TraceLog {
        let Some(ring) = &self.ring else {
            return TraceLog::default();
        };
        let mut ring = Self::lock(ring);
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
        assert!(!t.on_track(0).is_enabled());
        t.on_track(0)
            .instant(Layer::Hdd, "x", SimTime::ZERO, Vec::new());
        assert_eq!(t.take(), TraceLog::default());
    }

    #[test]
    fn events_are_collected_in_emission_order() {
        let t = Tracer::ring(8);
        t.instant(Layer::Cluster, "a", SimTime::from_secs(1), Vec::new());
        t.on_track(0).span(
            Layer::Kv,
            "b",
            SimTime::from_secs(2),
            SimDuration::from_millis(5),
            vec![("n", Value::U64(3))],
        );
        let log = t.take();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].name, "a");
        assert_eq!(log.events[0].track, CONTROL_TRACK);
        assert_eq!(log.events[1].kind, EventKind::Span);
        assert_eq!(log.events[1].track, 0);
        assert_eq!(log.events[1].args, vec![("n", Value::U64(3))]);
        assert_eq!(log.dropped, 0);
        // take() drained it.
        assert!(t.take().events.is_empty());
    }

    #[test]
    fn full_ring_keeps_the_earliest_window_and_counts_drops() {
        let t = Tracer::ring(2);
        for i in 0..5u64 {
            t.instant(Layer::Cluster, "e", SimTime::from_secs(i), Vec::new());
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
        let node = t.on_track(3);
        // Node 3's private clock reads 2 s when the cluster is at 10 s.
        node.set_offset(8_000_000_000);
        node.instant(Layer::Fs, "commit", SimTime::from_secs(2), Vec::new());
        // Control events are never shifted, and setting an offset on the
        // control track does nothing.
        t.set_offset(5_000_000_000);
        t.instant(Layer::Cluster, "hb", SimTime::from_secs(10), Vec::new());
        let log = t.take();
        assert_eq!(log.events[0].at, SimTime::from_secs(10));
        assert_eq!(log.events[1].at, SimTime::from_secs(10));
    }

    #[test]
    fn negative_offsets_saturate_at_zero() {
        let t = Tracer::ring(8).on_track(0);
        t.set_offset(-5_000_000_000);
        t.instant(Layer::Hdd, "io", SimTime::from_secs(1), Vec::new());
        let log = t.take();
        assert_eq!(log.events[0].at, SimTime::ZERO);
    }
}
