//! A systemd-like service manager.
//!
//! The paper's "crucial processes" are daemons whose binaries and state
//! live on the attacked disk. [`ServiceManager`] supervises a set of
//! services: each tick every running service does a unit of work (an
//! exec of its binary — a page-cache hit when warm, a device read when
//! evicted), failures are logged, and failed services are restarted up
//! to their policy's budget. Under a sustained attack, restarts need
//! cold reads that never complete, so services cascade into `Dead` —
//! the texture behind the paper's "inability to access all files".

use serde::{Deserialize, Serialize};

/// What to do when a service fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestartPolicy {
    /// Leave it failed.
    Never,
    /// Restart, up to `max_restarts` times over the service's lifetime.
    OnFailure {
        /// Lifetime restart budget.
        max_restarts: u32,
    },
}

/// Lifecycle state of one service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceState {
    /// Healthy and doing work.
    Running,
    /// Last work unit failed; eligible for restart.
    Failed,
    /// Restart budget exhausted; requires manual intervention.
    Dead,
}

/// One supervised service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Service {
    /// Unit name (e.g. "sshd.service").
    pub name: String,
    /// The `/bin` command this service runs.
    pub command: String,
    /// Restart policy.
    pub policy: RestartPolicy,
    /// Current state.
    pub state: ServiceState,
    /// Restarts consumed.
    pub restarts: u32,
}

/// The supervisor: a plain data structure driven by the OS tick (the OS
/// owns the filesystem; the manager only decides *what* to exec).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceManager {
    services: Vec<Service>,
}

/// A supervision decision for the OS to carry out this tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisionEvent {
    /// Service `index` failed its work unit.
    WorkFailed(usize),
    /// Service `index` was restarted successfully.
    Restarted(usize),
    /// Service `index` exhausted its restart budget.
    GaveUp(usize),
}

impl ServiceManager {
    /// An empty manager.
    pub fn new() -> Self {
        ServiceManager::default()
    }

    /// Registers a service in the `Running` state.
    ///
    /// # Panics
    ///
    /// Panics on duplicate unit names.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        command: impl Into<String>,
        policy: RestartPolicy,
    ) {
        let name = name.into();
        assert!(
            self.services.iter().all(|s| s.name != name),
            "duplicate service name: {name}"
        );
        self.services.push(Service {
            name,
            command: command.into(),
            policy,
            state: ServiceState::Running,
            restarts: 0,
        });
    }

    /// The supervised services.
    pub fn services(&self) -> &[Service] {
        &self.services
    }

    /// Runs one supervision round. `exec` attempts a unit of work (or a
    /// restart) for a command and reports success. Returns the events
    /// that occurred, in service order.
    pub fn supervise(&mut self, mut exec: impl FnMut(&str) -> bool) -> Vec<SupervisionEvent> {
        let mut events = Vec::new();
        for i in 0..self.services.len() {
            let (state, command, policy, restarts) = {
                let s = &self.services[i];
                (s.state, s.command.clone(), s.policy, s.restarts)
            };
            match state {
                ServiceState::Running => {
                    if !exec(&command) {
                        self.services[i].state = ServiceState::Failed;
                        events.push(SupervisionEvent::WorkFailed(i));
                    }
                }
                ServiceState::Failed => match policy {
                    RestartPolicy::Never => {
                        self.services[i].state = ServiceState::Dead;
                        events.push(SupervisionEvent::GaveUp(i));
                    }
                    RestartPolicy::OnFailure { max_restarts } => {
                        if restarts >= max_restarts {
                            self.services[i].state = ServiceState::Dead;
                            events.push(SupervisionEvent::GaveUp(i));
                        } else if exec(&command) {
                            self.services[i].state = ServiceState::Running;
                            self.services[i].restarts += 1;
                            events.push(SupervisionEvent::Restarted(i));
                        } else {
                            self.services[i].restarts += 1;
                            events.push(SupervisionEvent::WorkFailed(i));
                            if self.services[i].restarts >= max_restarts {
                                self.services[i].state = ServiceState::Dead;
                                events.push(SupervisionEvent::GaveUp(i));
                            }
                        }
                    }
                },
                ServiceState::Dead => {}
            }
        }
        events
    }
}

#[cfg(test)]
impl ServiceManager {
    /// A service by name, for tests.
    pub(crate) fn service(&self, name: &str) -> Option<&Service> {
        self.services.iter().find(|s| s.name == name)
    }

    /// Number of services in each state: `(running, failed, dead)`, for
    /// tests.
    pub(crate) fn census(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for s in &self.services {
            match s.state {
                ServiceState::Running => counts.0 += 1,
                ServiceState::Failed => counts.1 += 1,
                ServiceState::Dead => counts.2 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> ServiceManager {
        let mut m = ServiceManager::new();
        m.register(
            "sshd.service",
            "sshd",
            RestartPolicy::OnFailure { max_restarts: 3 },
        );
        m.register("cron.service", "ps", RestartPolicy::Never);
        m
    }

    #[test]
    fn healthy_services_stay_running() {
        let mut m = manager();
        let events = m.supervise(|_| true);
        assert!(events.is_empty());
        assert_eq!(m.census(), (2, 0, 0));
    }

    #[test]
    fn failure_then_successful_restart() {
        let mut m = manager();
        let mut fail_once = true;
        m.supervise(|_| {
            let ok = !fail_once;
            fail_once = false;
            ok
        });
        assert_eq!(m.census(), (1, 1, 0)); // sshd failed, cron ran (second exec ok)
        let events = m.supervise(|_| true);
        assert!(
            events.contains(&SupervisionEvent::Restarted(0)),
            "{events:?}"
        );
        assert_eq!(m.census(), (2, 0, 0));
        assert_eq!(m.service("sshd.service").unwrap().restarts, 1);
    }

    #[test]
    fn persistent_failure_exhausts_budget() {
        let mut m = manager();
        for _ in 0..10 {
            m.supervise(|_| false);
        }
        let sshd = m.service("sshd.service").unwrap();
        assert_eq!(sshd.state, ServiceState::Dead);
        assert!(sshd.restarts >= 3);
        // Never-restart service died on first failure pass.
        assert_eq!(m.service("cron.service").unwrap().state, ServiceState::Dead);
        assert_eq!(m.census(), (0, 0, 2));
    }

    #[test]
    #[should_panic(expected = "duplicate service")]
    fn duplicate_names_rejected() {
        let mut m = manager();
        m.register("sshd.service", "sshd", RestartPolicy::Never);
    }
}
