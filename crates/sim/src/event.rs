//! The discrete-event queue.
//!
//! An event loop owns an [`EventQueue`] of typed payloads, pops the next
//! event, handles it, and pushes whatever it schedules next (a recurring
//! stream re-pushes itself). The queue only orders; the loop owns the
//! clock and decides what each payload means.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One pending event. Ordered by `(at, priority, seq)` only, so the
/// payload needs no `Ord`.
#[derive(Debug)]
struct Entry<K> {
    at: SimTime,
    priority: u8,
    seq: u64,
    payload: K,
}

impl<K> Entry<K> {
    fn key(&self) -> (SimTime, u8, u64) {
        (self.at, self.priority, self.seq)
    }
}

impl<K> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<K> Eq for Entry<K> {}

impl<K> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A deterministic min-queue of events carrying payloads of type `K`.
///
/// Events pop in `(time, priority, insertion order)` order: the earliest
/// time first; at an equal time the lower priority number first; at an
/// equal time and priority the one pushed first. The caller picks the
/// priorities, so the tie-break policy (which stream wins at an equal
/// instant) stays with the event loop that defines the streams.
///
/// # Example
///
/// ```
/// use deepnote_sim::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::with_capacity(3);
/// queue.push(SimTime::from_secs(2), 0, "late");
/// queue.push(SimTime::from_secs(1), 1, "second");
/// queue.push(SimTime::from_secs(1), 0, "first");
/// assert_eq!(queue.pop(), Some((SimTime::from_secs(1), "first")));
/// assert_eq!(queue.pop(), Some((SimTime::from_secs(1), "second")));
/// assert_eq!(queue.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(queue.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<K> {
    heap: BinaryHeap<Reverse<Entry<K>>>,
    seq: u64,
}

impl<K> EventQueue<K> {
    /// Creates an empty queue with room for `capacity` events. A loop
    /// whose recurring streams re-push themselves as they pop keeps its
    /// population near the number of streams, so sizing for that never
    /// reallocates mid-loop.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `payload` at `at`, breaking ties at an equal time by
    /// `priority` (lower pops first), then by insertion order.
    pub fn push(&mut self, at: SimTime, priority: u8, payload: K) {
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            at,
            priority,
            seq: self.seq,
            payload,
        }));
    }

    /// Removes and returns the next event, or `None` when the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(SimTime, K)> {
        self.heap
            .pop()
            .map(|Reverse(entry)| (entry.at, entry.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;
    use proptest::prelude::*;

    fn drain<K>(q: &mut EventQueue<K>) -> Vec<(SimTime, K)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn one_shot_fires_in_order() {
        // An earlier time pops first, whatever the priorities.
        let mut q = EventQueue::with_capacity(0);
        q.push(SimTime::from_secs(3), 0, 'c');
        q.push(SimTime::from_secs(1), u8::MAX, 'a');
        q.push(SimTime::from_secs(2), 7, 'b');
        q.push(SimTime::from_nanos(1_000_000_001), 0, 'x');
        assert_eq!(
            drain(&mut q),
            vec![
                (SimTime::from_secs(1), 'a'),
                (SimTime::from_nanos(1_000_000_001), 'x'),
                (SimTime::from_secs(2), 'b'),
                (SimTime::from_secs(3), 'c'),
            ]
        );
    }

    #[test]
    fn same_deadline_fires_in_insertion_order() {
        let mut q = EventQueue::with_capacity(5);
        for i in 0..5u32 {
            q.push(SimTime::from_secs(1), 2, i);
        }
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_scheduled_during_run_fire_if_due() {
        // Two recurring streams re-push themselves as they pop, the way
        // an event loop's heartbeat and sampler do; a one-shot pushed
        // mid-drain at an instant already reached still pops in order.
        let mut q = EventQueue::with_capacity(3);
        q.push(SimTime::from_secs(0), 1, "beat");
        q.push(SimTime::from_secs(0), 0, "tick");
        let mut log = Vec::new();
        while let Some((at, kind)) = q.pop() {
            log.push((at.as_nanos() / 1_000_000_000, kind));
            match kind {
                "beat" if at < SimTime::from_secs(6) => {
                    q.push(at + SimDuration::from_secs(3), 1, "beat")
                }
                "tick" if at < SimTime::from_secs(4) => {
                    q.push(at + SimDuration::from_secs(2), 0, "tick");
                    if at == SimTime::from_secs(2) {
                        q.push(at, 2, "now");
                    }
                }
                _ => {}
            }
        }
        assert_eq!(
            log,
            vec![
                (0, "tick"),
                (0, "beat"),
                (2, "tick"),
                (2, "now"),
                (3, "beat"),
                (4, "tick"),
                (6, "beat"),
            ]
        );
    }

    proptest! {
        /// The pop order is a stable sort of the pushes by
        /// `(time, priority)`, i.e. by `(time, priority, insertion index)`.
        #[test]
        fn pops_in_a_stable_sort_of_the_pushes(
            pushes in proptest::collection::vec((0u64..8, 0u8..4), 0..64)
        ) {
            let mut q = EventQueue::with_capacity(pushes.len());
            for (i, &(at, priority)) in pushes.iter().enumerate() {
                q.push(SimTime::from_nanos(at), priority, i);
            }
            let mut want: Vec<usize> = (0..pushes.len()).collect();
            want.sort_by_key(|&i| pushes[i]);
            let got: Vec<usize> = drain(&mut q).into_iter().map(|(_, i)| i).collect();
            prop_assert_eq!(got, want);
        }
    }
}
