//! Cluster construction.

use std::rc::Rc;

use rfp_simnet::{SimHandle, Simulation};

use crate::engine::WireLanes;
use crate::fault::FabricFaults;
use crate::machine::{Machine, MachineId};
use crate::profile::ClusterProfile;
use crate::qp::{Qp, Transport};

/// A set of machines behind one switch, sharing a timing profile.
///
/// The paper's testbed is `Cluster::new(&mut sim, paper_testbed(), 8)`
/// with machine 0 conventionally acting as the server.
pub struct Cluster {
    handle: SimHandle,
    profile: ClusterProfile,
    machines: Vec<Rc<Machine>>,
    fabric: Rc<FabricFaults>,
    wire: WireLanes,
}

impl Cluster {
    /// Builds `n` machines with the given profile.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(sim: &mut Simulation, profile: ClusterProfile, n: usize) -> Self {
        assert!(n > 0, "cluster needs at least one machine");
        let handle = sim.handle();
        let machines = (0..n)
            .map(|i| Machine::new(MachineId(i), handle.clone(), profile.nic.clone()))
            .collect();
        let wire = WireLanes::new(&handle);
        Cluster {
            handle,
            profile,
            machines,
            fabric: Rc::new(FabricFaults::default()),
            wire,
        }
    }

    /// Cluster-wide fabric fault state (link degradation) shared by
    /// every QP created through this cluster.
    pub fn fabric(&self) -> &Rc<FabricFaults> {
        &self.fabric
    }

    /// The shared timing profile.
    pub fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    /// The simulation handle the cluster was built on.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the cluster has no machines (never true; see `new`).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Machine `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn machine(&self, i: usize) -> Rc<Machine> {
        Rc::clone(&self.machines[i])
    }

    /// Registers every machine's NIC instruments into `registry` under
    /// `nic.<machine-index>.*`.
    pub fn attach_metrics(&self, registry: &rfp_simnet::MetricsRegistry) {
        for (i, m) in self.machines.iter().enumerate() {
            m.nic().attach_metrics(registry, &format!("nic.{i}"));
        }
    }

    /// Attaches `recorder` to every machine's NIC: wire-level loss and
    /// retransmit events land in the shared flight recorder, tagged
    /// with the machine index.
    pub fn attach_recorder(&self, recorder: &rfp_simnet::FlightRecorder) {
        for (i, m) in self.machines.iter().enumerate() {
            m.nic().attach_recorder(recorder, i as u32);
        }
    }

    /// Creates an RC queue pair from machine `from` to machine `to`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range or equal (loopback QPs are
    /// not modelled — local memory is accessed directly).
    pub fn qp(&self, from: usize, to: usize) -> Rc<Qp> {
        self.qp_typed(from, to, Transport::Rc)
    }

    /// Creates a queue pair of the given transport type (paper §5: RC is
    /// required for one-sided READ; UC/UD trade reliability for message
    /// rate).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Cluster::qp`].
    pub fn qp_typed(&self, from: usize, to: usize, transport: Transport) -> Rc<Qp> {
        assert_ne!(from, to, "loopback QP: access local memory directly");
        Qp::with_transport(
            self.machine(from),
            self.machine(to),
            self.profile.link.clone(),
            Rc::clone(&self.fabric),
            self.wire,
            transport,
        )
    }

    /// A factory that mints fresh RC queue pairs from `from` to `to`
    /// without borrowing the cluster — the re-establishment hook a
    /// recovering client installs. Each call picks up the endpoints'
    /// *current* QP epochs, so QPs minted after a QP-error fault are
    /// healthy.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Cluster::qp`].
    pub fn qp_factory(&self, from: usize, to: usize) -> impl Fn() -> Rc<Qp> {
        assert_ne!(from, to, "loopback QP: access local memory directly");
        let local = self.machine(from);
        let remote = self.machine(to);
        let link = self.profile.link.clone();
        let (fabric, wire) = (Rc::clone(&self.fabric), self.wire);
        move || {
            Qp::with_transport(
                Rc::clone(&local),
                Rc::clone(&remote),
                link.clone(),
                Rc::clone(&fabric),
                wire,
                Transport::Rc,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ClusterProfile;

    #[test]
    fn builds_requested_machines() {
        let mut sim = Simulation::new(0);
        let c = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 8);
        assert_eq!(c.len(), 8);
        assert_eq!(c.machine(7).id(), MachineId(7));
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn rejects_loopback_qp() {
        let mut sim = Simulation::new(0);
        let c = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let _ = c.qp(1, 1);
    }
}
