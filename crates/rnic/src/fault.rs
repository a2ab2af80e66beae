//! Fault state consulted by the verb delivery paths.
//!
//! The chaos subsystem (`rfp-chaos`) injects faults by flipping the
//! cells below at scheduled sim instants; the NIC/QP code reads them on
//! every operation. All state is plain `Cell`s — checking a fault costs
//! one load and schedules nothing, so an idle fault plan leaves the
//! event stream (and therefore every metric and trace byte) unchanged.
//!
//! Fault classes:
//!
//! * **crash** — the machine's software is down. Verbs issued *by* it
//!   fail immediately ([`VerbError::LocalDown`]); verbs targeting it
//!   fail after the wire round trip ([`VerbError::RemoteDown`]), the
//!   way a real initiator only learns of a dead peer from the NACK /
//!   retry-exhausted completion.
//! * **QP error** — bumping [`MachineFaults::bump_qp_epoch`] moves every
//!   QP attached to the machine to the error state
//!   ([`VerbError::QpError`]); they must be re-established (a new QP
//!   picks up the current epoch).
//! * **loss burst** — [`MachineFaults::set_extra_loss`] raises the drop
//!   probability of unreliable (UC/UD) traffic touching the machine and
//!   makes reliable (RC) traffic pay occasional retransmission delays.
//! * **straggler** — [`MachineFaults::set_cpu_factor`] inflates
//!   explicit CPU costs ([`ThreadCtx::busy`](crate::ThreadCtx::busy))
//!   on the machine's cores.
//! * **link degradation** — [`FabricFaults::set_link_factor`] scales
//!   wire propagation cluster-wide.
//! * **slow link (gray)** — [`MachineFaults::set_wire_lag`] adds a
//!   jittered per-leg latency to every wire traversal touching the
//!   machine: the fail-slow NIC/cable that degrades tail latency
//!   without ever tripping an error completion.
//! * **asymmetric partition** — [`MachineFaults::block_to`] drops all
//!   traffic this machine sends *toward* one destination while the
//!   reverse direction keeps flowing, the way a bad switch rule or a
//!   one-way link failure partitions a real fabric. An op whose request
//!   leg is cut fails like a dead peer (after the retry-exhausted round
//!   trip, no remote side effect); an op whose *completion* leg is cut
//!   may land its payload remotely and still fail locally.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Weak;

use rfp_simnet::Replan;

/// Error completion of an RDMA verb under injected faults.
///
/// On a healthy cluster no verb ever returns one of these; the
/// infallible verb wrappers rely on that and panic if proven wrong.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum VerbError {
    /// The issuing machine is crashed; nothing was put on the wire.
    LocalDown,
    /// The target machine is crashed; the op failed after the NACK /
    /// retry-exhausted round trip.
    RemoteDown,
    /// The queue pair is in the error state (its endpoint's QP epoch
    /// advanced since creation); it must be re-established.
    QpError,
}

impl fmt::Display for VerbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerbError::LocalDown => write!(f, "local machine is down"),
            VerbError::RemoteDown => write!(f, "remote machine is down"),
            VerbError::QpError => write!(f, "queue pair in error state"),
        }
    }
}

impl std::error::Error for VerbError {}

/// Mutable fault state of one machine.
#[derive(Debug)]
pub struct MachineFaults {
    crashed: Cell<bool>,
    extra_loss: Cell<f64>,
    cpu_factor: Cell<f64>,
    qp_epoch: Cell<u64>,
    torn_dma: Cell<f64>,
    bitflip: Cell<f64>,
    wire_lag: Cell<u64>,
    /// Bitmask of destination machines this machine cannot reach
    /// (bit `d` set = traffic toward machine `d` is dropped).
    blocked_out: Cell<u64>,
    /// The plans made from the crash flag or the CPU factor (the
    /// machine's ring sweeps), told when either changes.
    planners: Planners,
}

/// Plans to tell of a fault change.
#[derive(Default)]
struct Planners(RefCell<Vec<Weak<dyn Replan>>>);

impl fmt::Debug for Planners {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} planners", self.0.borrow().len())
    }
}

impl Default for MachineFaults {
    fn default() -> Self {
        MachineFaults {
            crashed: Cell::new(false),
            extra_loss: Cell::new(0.0),
            cpu_factor: Cell::new(1.0),
            qp_epoch: Cell::new(0),
            torn_dma: Cell::new(0.0),
            bitflip: Cell::new(0.0),
            wire_lag: Cell::new(0),
            blocked_out: Cell::new(0),
            planners: Planners::default(),
        }
    }
}

impl MachineFaults {
    /// Whether the machine's software is currently down.
    pub fn is_crashed(&self) -> bool {
        self.crashed.get()
    }

    /// Marks the machine crashed / restarted.
    pub fn set_crashed(&self, down: bool) {
        if self.crashed.replace(down) != down {
            self.changed();
        }
    }

    /// Has `planner` re-plan ([`Replan::replan`]) whenever the crash
    /// flag or the CPU factor changes; one already told is not added
    /// twice.
    pub fn add_planner(&self, planner: Weak<dyn Replan>) {
        let mut planners = self.planners.0.borrow_mut();
        if !planners.iter().any(|p| Weak::ptr_eq(p, &planner)) {
            planners.push(planner);
        }
    }

    /// Tells every live planner of a change, forgetting dropped ones.
    fn changed(&self) {
        let mut i = 0;
        loop {
            let planner = {
                let mut planners = self.planners.0.borrow_mut();
                let Some(planner) = planners.get(i) else {
                    break;
                };
                match planner.upgrade() {
                    Some(planner) => planner,
                    None => {
                        planners.swap_remove(i);
                        continue;
                    }
                }
            };
            planner.replan();
            i += 1;
        }
    }

    /// Additional drop probability for unreliable traffic touching this
    /// machine (0 outside loss-burst windows).
    pub fn extra_loss(&self) -> f64 {
        self.extra_loss.get()
    }

    /// Opens/closes a loss-burst window.
    pub fn set_extra_loss(&self, p: f64) {
        self.extra_loss.set(p.clamp(0.0, 1.0));
    }

    /// Multiplier on explicit CPU costs of this machine's threads
    /// (1.0 = healthy, >1 = straggler).
    pub fn cpu_factor(&self) -> f64 {
        self.cpu_factor.get()
    }

    /// Sets the straggler multiplier.
    pub fn set_cpu_factor(&self, factor: f64) {
        let factor = factor.max(0.0);
        if self.cpu_factor.replace(factor) != factor {
            self.changed();
        }
    }

    /// Current QP generation; QPs created against an older generation
    /// are in the error state.
    pub fn qp_epoch(&self) -> u64 {
        self.qp_epoch.get()
    }

    /// Transitions every QP attached to this machine to the error
    /// state.
    pub fn bump_qp_epoch(&self) {
        self.qp_epoch.set(self.qp_epoch.get() + 1);
    }

    /// Probability that a READ of this machine's memory observes a torn
    /// image: the fetch completes mid-write and returns a spliced
    /// old/new buffer (0 outside torn-DMA fault windows).
    pub fn torn_dma(&self) -> f64 {
        self.torn_dma.get()
    }

    /// Opens/closes a torn-DMA window.
    pub fn set_torn_dma(&self, p: f64) {
        self.torn_dma.set(p.clamp(0.0, 1.0));
    }

    /// Probability that a READ of this machine's memory returns an image
    /// with one flipped bit (0 outside bit-flip fault windows).
    pub fn bitflip(&self) -> f64 {
        self.bitflip.get()
    }

    /// Opens/closes a memory bit-flip window.
    pub fn set_bitflip(&self, p: f64) {
        self.bitflip.set(p.clamp(0.0, 1.0));
    }

    /// Mean added wire latency, in nanoseconds, per one-way traversal
    /// touching this machine (0 outside slow-link fault windows). The
    /// QP layer jitters the actual per-leg extra around this mean.
    pub fn wire_lag_ns(&self) -> u64 {
        self.wire_lag.get()
    }

    /// Opens/closes a slow-link window: every wire leg touching this
    /// machine pays roughly `mean_ns` extra, jittered, without any
    /// error completion — the canonical gray-failure link.
    pub fn set_wire_lag(&self, mean_ns: u64) {
        self.wire_lag.set(mean_ns);
    }

    /// Whether traffic from this machine toward machine `dst` is
    /// currently dropped by an asymmetric partition.
    pub fn blocks_to(&self, dst: usize) -> bool {
        debug_assert!(dst < 64, "partition mask holds 64 machines");
        self.blocked_out.get() & (1u64 << dst) != 0
    }

    /// Cuts the directed link from this machine toward `dst` (the
    /// reverse direction is governed by `dst`'s own mask).
    pub fn block_to(&self, dst: usize) {
        assert!(dst < 64, "partition mask holds 64 machines");
        self.blocked_out.set(self.blocked_out.get() | (1u64 << dst));
    }

    /// Heals the directed link from this machine toward `dst`.
    pub fn unblock_to(&self, dst: usize) {
        assert!(dst < 64, "partition mask holds 64 machines");
        self.blocked_out
            .set(self.blocked_out.get() & !(1u64 << dst));
    }
}

/// Cluster-wide fabric fault state shared by every QP.
#[derive(Debug)]
pub struct FabricFaults {
    link_factor: Cell<f64>,
}

impl Default for FabricFaults {
    fn default() -> Self {
        FabricFaults {
            link_factor: Cell::new(1.0),
        }
    }
}

impl FabricFaults {
    /// Multiplier on wire propagation delay (1.0 = healthy).
    pub fn link_factor(&self) -> f64 {
        self.link_factor.get()
    }

    /// Sets the link-degradation multiplier.
    pub fn set_link_factor(&self, factor: f64) {
        self.link_factor.set(factor.max(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_healthy() {
        let m = MachineFaults::default();
        assert!(!m.is_crashed());
        assert_eq!(m.extra_loss(), 0.0);
        assert_eq!(m.cpu_factor(), 1.0);
        assert_eq!(m.qp_epoch(), 0);
        assert_eq!(m.torn_dma(), 0.0);
        assert_eq!(m.bitflip(), 0.0);
        assert_eq!(m.wire_lag_ns(), 0);
        assert!(!m.blocks_to(0));
        assert_eq!(FabricFaults::default().link_factor(), 1.0);
    }

    #[test]
    fn partition_mask_is_directional_and_reversible() {
        let m = MachineFaults::default();
        m.block_to(3);
        assert!(m.blocks_to(3));
        assert!(!m.blocks_to(0), "other destinations unaffected");
        m.block_to(0);
        assert!(m.blocks_to(0) && m.blocks_to(3));
        m.unblock_to(3);
        assert!(!m.blocks_to(3));
        assert!(m.blocks_to(0), "unblock only heals one link");
    }

    #[test]
    fn integrity_fault_probabilities_are_clamped() {
        let m = MachineFaults::default();
        m.set_torn_dma(2.0);
        assert_eq!(m.torn_dma(), 1.0);
        m.set_bitflip(-1.0);
        assert_eq!(m.bitflip(), 0.0);
    }

    #[test]
    fn loss_is_clamped_to_probability_range() {
        let m = MachineFaults::default();
        m.set_extra_loss(1.5);
        assert_eq!(m.extra_loss(), 1.0);
        m.set_extra_loss(-0.5);
        assert_eq!(m.extra_loss(), 0.0);
    }

    #[test]
    fn qp_epoch_is_monotone() {
        let m = MachineFaults::default();
        m.bump_qp_epoch();
        m.bump_qp_epoch();
        assert_eq!(m.qp_epoch(), 2);
    }
}
