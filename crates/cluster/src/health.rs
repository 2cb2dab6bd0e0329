//! Failure detection: heartbeats, probe timeouts, and down-time tracking.
//!
//! The monitor never reads the physics — it infers node health the way a
//! real control plane does, from probe round-trips on the cluster
//! timeline. A node wedged in a blocked WAL sync answers its probe tens
//! of seconds late, which is indistinguishable from a dead process, so
//! consecutive probe misses mark it down; a crashed engine refuses
//! immediately, which marks it down too.

use deepnote_sim::{SimDuration, SimTime};

/// A probe slower than this is a miss.
pub(crate) const PROBE_TIMEOUT: SimDuration = SimDuration::from_millis(250);

/// Consecutive misses before a node is marked down.
const MISS_THRESHOLD: u32 = 2;

/// Minimum spacing between restart attempts on a crashed node.
const RESTART_BACKOFF: SimDuration = SimDuration::from_secs(5);

/// The monitor's belief about one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Answering probes on time.
    Up,
    /// Missing probes, not yet declared down.
    Suspect {
        /// Consecutive misses so far.
        misses: u32,
    },
    /// Declared down.
    Down {
        /// When the node was declared down.
        since: SimTime,
    },
}

/// What a heartbeat round decided about one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// No change of state.
    None,
    /// The node was just declared down.
    WentDown,
    /// The node was just declared up again.
    CameUp,
}

/// Tracks probe history and health per node.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    states: Vec<NodeHealth>,
    last_restart_attempt: Vec<Option<SimTime>>,
}

impl HealthMonitor {
    /// A monitor that believes all `nodes` are up.
    pub fn new(nodes: usize) -> Self {
        HealthMonitor {
            states: vec![NodeHealth::Up; nodes],
            last_restart_attempt: vec![None; nodes],
        }
    }

    /// Current belief about `node`.
    pub fn state(&self, node: usize) -> NodeHealth {
        self.states[node]
    }

    /// Whether `node` is believed serviceable.
    pub fn is_up(&self, node: usize) -> bool {
        !matches!(self.states[node], NodeHealth::Down { .. })
    }

    /// `is_up` for every node, as a mask.
    pub fn up_mask(&self) -> Vec<bool> {
        (0..self.states.len()).map(|n| self.is_up(n)).collect()
    }

    /// Records a probe outcome for `node`: the probe was issued at `now`
    /// and answered (or refused) with round-trip `rtt`; `ok` is whether
    /// the engine served it.
    pub fn observe_probe(
        &mut self,
        node: usize,
        now: SimTime,
        rtt: SimDuration,
        ok: bool,
    ) -> Transition {
        let missed = !ok || rtt > PROBE_TIMEOUT;
        let state = &mut self.states[node];
        if missed {
            match *state {
                NodeHealth::Down { .. } => Transition::None,
                NodeHealth::Up => {
                    *state = NodeHealth::Suspect { misses: 1 };
                    Transition::None
                }
                NodeHealth::Suspect { misses } => {
                    let misses = misses + 1;
                    if misses >= MISS_THRESHOLD {
                        *state = NodeHealth::Down { since: now };
                        Transition::WentDown
                    } else {
                        *state = NodeHealth::Suspect { misses };
                        Transition::None
                    }
                }
            }
        } else {
            match *state {
                NodeHealth::Up => Transition::None,
                NodeHealth::Suspect { .. } => {
                    *state = NodeHealth::Up;
                    Transition::None
                }
                NodeHealth::Down { .. } => {
                    *state = NodeHealth::Up;
                    Transition::CameUp
                }
            }
        }
    }

    /// Marks `node` down immediately (a coordinator saw a fatal error
    /// from it — faster than waiting for probes to miss).
    pub fn mark_down(&mut self, node: usize, now: SimTime) -> Transition {
        match self.states[node] {
            NodeHealth::Down { .. } => Transition::None,
            _ => {
                self.states[node] = NodeHealth::Down { since: now };
                Transition::WentDown
            }
        }
    }

    /// How long `node` has been down at `now` (zero when up).
    pub fn down_for(&self, node: usize, now: SimTime) -> SimDuration {
        match self.states[node] {
            NodeHealth::Down { since } => now.saturating_duration_since(since),
            _ => SimDuration::ZERO,
        }
    }

    /// Whether the operator should try rebooting `node` at `now`, and if
    /// so, records the attempt.
    pub fn take_restart_slot(&mut self, node: usize, now: SimTime) -> bool {
        if !matches!(self.states[node], NodeHealth::Down { .. }) {
            return false;
        }
        let due = match self.last_restart_attempt[node] {
            None => self.down_for(node, now) >= RESTART_BACKOFF,
            Some(last) => now.saturating_duration_since(last) >= RESTART_BACKOFF,
        };
        if due {
            self.last_restart_attempt[node] = Some(now);
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HealthMonitor {
        HealthMonitor::new(3)
    }

    #[test]
    fn misses_accumulate_to_down() {
        let mut m = monitor();
        let t = SimTime::from_secs(1);
        let slow = SimDuration::from_secs(1);
        assert_eq!(m.observe_probe(0, t, slow, true), Transition::None);
        assert_eq!(m.state(0), NodeHealth::Suspect { misses: 1 });
        assert_eq!(m.observe_probe(0, t, slow, true), Transition::WentDown);
        assert!(!m.is_up(0));
        // Other nodes untouched.
        assert!(m.is_up(1));
    }

    #[test]
    fn fast_probe_clears_suspicion_and_down() {
        let mut m = monitor();
        let t = SimTime::from_secs(1);
        let fast = SimDuration::from_millis(1);
        let slow = SimDuration::from_secs(1);
        m.observe_probe(0, t, slow, true);
        assert_eq!(m.observe_probe(0, t, fast, true), Transition::None);
        assert_eq!(m.state(0), NodeHealth::Up);
        m.mark_down(0, t);
        assert_eq!(m.observe_probe(0, t, fast, true), Transition::CameUp);
        assert!(m.is_up(0));
    }

    #[test]
    fn refused_probe_is_a_miss_even_when_fast() {
        let mut m = monitor();
        let t = SimTime::from_secs(1);
        let fast = SimDuration::from_millis(1);
        m.observe_probe(0, t, fast, false);
        m.observe_probe(0, t, fast, false);
        assert!(!m.is_up(0));
    }

    #[test]
    fn down_for_measures_from_declaration() {
        let mut m = monitor();
        m.mark_down(2, SimTime::from_secs(10));
        assert_eq!(
            m.down_for(2, SimTime::from_secs(25)),
            SimDuration::from_secs(15)
        );
        assert_eq!(m.down_for(0, SimTime::from_secs(25)), SimDuration::ZERO);
    }

    #[test]
    fn restart_slots_respect_backoff() {
        let mut m = monitor();
        m.mark_down(1, SimTime::ZERO);
        // Too soon after going down.
        assert!(!m.take_restart_slot(1, SimTime::from_secs(1)));
        assert!(m.take_restart_slot(1, SimTime::from_secs(6)));
        // Backoff applies between attempts.
        assert!(!m.take_restart_slot(1, SimTime::from_secs(8)));
        assert!(m.take_restart_slot(1, SimTime::from_secs(12)));
        // Up nodes never get a slot.
        assert!(!m.take_restart_slot(0, SimTime::from_secs(60)));
    }
}
