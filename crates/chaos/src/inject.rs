//! Delivery of a [`FaultPlan`] into a running simulation.
//!
//! [`install`] spawns one controller task per scheduled event. Each
//! controller sleeps (idle — injection consumes no simulated CPU) until
//! its instant, flips the corresponding fault state in `rfp-rnic`
//! ([`MachineFaults`](rfp_rnic::MachineFaults) /
//! [`FabricFaults`](rfp_rnic::FabricFaults)), and reverts it when the
//! window closes. Crash events additionally drive the restart protocol:
//! cold restarts wipe every registered memory region, and an optional
//! restart hook lets the application layer rebuild its process state
//! (e.g. [`RfpServerConn::recover_after_restart`]
//! (rfp_core::RfpServerConn::recover_after_restart)) before the machine
//! comes back.
//!
//! All `fault.*` instruments and `chaos.*` flight events are created
//! lazily at fire time, so a plan whose events never fire inside the
//! run window — or an empty plan — leaves metrics and the event log
//! byte-identical to a run with no injector at all.

use std::rc::Rc;

use rfp_rnic::Cluster;
use rfp_simnet::{FlightRecorder, MetricsRegistry, Severity, SimTime, Simulation};

use crate::plan::{FaultKind, FaultPlan};

/// Details of one completed crash/restart cycle, passed to the restart
/// hook at the restart instant (while the machine is still marked
/// crashed, after a cold wipe has already zeroed registered memory).
#[derive(Clone, Copy, Debug)]
pub struct Restart {
    /// The machine that crashed.
    pub machine: usize,
    /// Whether registered memory survived.
    pub warm: bool,
    /// When the crash struck.
    pub crashed_at: SimTime,
    /// When the restart completes (the hook runs at this instant).
    pub restored_at: SimTime,
}

/// A hook invoked at each restart instant (see
/// [`InjectorSinks::on_restart`]).
pub type RestartHook = Rc<dyn Fn(&Restart)>;

/// Telemetry sinks and application hooks for an injector.
#[derive(Clone, Default)]
pub struct InjectorSinks {
    /// Receives `fault.*` counters (created lazily at fire time).
    pub registry: Option<MetricsRegistry>,
    /// Runs at each restart instant, before the machine is unmarked.
    pub on_restart: Option<RestartHook>,
    /// Receives one `chaos.*` root event per injected fault window —
    /// the cause-chain anchor a dump-on-anomaly bundle points back to —
    /// and one `chaos.fault_end` event when the window closes.
    pub recorder: Option<FlightRecorder>,
}

impl std::fmt::Debug for InjectorSinks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InjectorSinks")
            .field("registry", &self.registry.is_some())
            .field("on_restart", &self.on_restart.is_some())
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

impl InjectorSinks {
    fn count(&self, name: &str) {
        if let Some(reg) = &self.registry {
            reg.counter(name).incr();
        }
    }

    /// The root event of a fault window opening at `at`.
    fn flight(&self, at: SimTime, kind: &'static str, detail: String) {
        if let Some(rec) = &self.recorder {
            rec.record(at, None, 0, Severity::Warn, kind, detail);
        }
    }

    /// The fault window that opened is over (reverted, healed,
    /// restarted) at `at`.
    fn ended(&self, at: SimTime, detail: String) {
        if let Some(rec) = &self.recorder {
            rec.record(at, None, 0, Severity::Info, "chaos.fault_end", detail);
        }
    }
}

/// Spawns the plan's controller tasks into `sim`.
///
/// Overlapping windows of the *same* fault kind on the same target are
/// not composed — the later revert wins — so plans should keep same-kind
/// windows disjoint (the builders in [`FaultPlan`] make that easy to
/// arrange).
///
/// # Panics
///
/// Panics if an event targets a machine index outside the cluster.
pub fn install(sim: &mut Simulation, cluster: &Cluster, plan: &FaultPlan, sinks: InjectorSinks) {
    for event in plan.events() {
        if let FaultKind::LossBurst { machine, .. }
        | FaultKind::Straggler { machine, .. }
        | FaultKind::QpError { machine }
        | FaultKind::Crash { machine, .. }
        | FaultKind::TornDma { machine, .. }
        | FaultKind::BitFlip { machine, .. }
        | FaultKind::SlowLink { machine, .. } = &event.kind
        {
            assert!(
                *machine < cluster.len(),
                "fault targets machine {machine} outside the {}-machine cluster",
                cluster.len()
            );
        }
        if let FaultKind::Partition { from, to } = &event.kind {
            assert!(
                *from < cluster.len() && *to < cluster.len(),
                "partition {from} -> {to} exceeds the {}-machine cluster",
                cluster.len()
            );
            assert_ne!(from, to, "a machine cannot be partitioned from itself");
        }
    }

    for event in plan.events().iter().cloned() {
        let handle = cluster.handle().clone();
        let fabric = Rc::clone(cluster.fabric());
        let target = match &event.kind {
            FaultKind::LossBurst { machine, .. }
            | FaultKind::Straggler { machine, .. }
            | FaultKind::QpError { machine }
            | FaultKind::Crash { machine, .. }
            | FaultKind::TornDma { machine, .. }
            | FaultKind::BitFlip { machine, .. }
            | FaultKind::SlowLink { machine, .. } => Some(cluster.machine(*machine)),
            FaultKind::Partition { from, .. } => Some(cluster.machine(*from)),
            FaultKind::LinkDegrade { .. } => None,
        };
        let sinks = sinks.clone();
        sim.spawn(async move {
            let now = handle.now();
            if event.at > now {
                handle.sleep(event.at.since(now)).await;
            }
            let at = handle.now();
            match event.kind {
                FaultKind::LossBurst { machine, loss } => {
                    let m = target.expect("loss burst has a target");
                    m.faults().set_extra_loss(loss);
                    sinks.count("fault.loss_bursts");
                    sinks.flight(
                        at,
                        "chaos.loss_burst",
                        format!("machine {machine}: loss burst {loss:.3}"),
                    );
                    handle.sleep(event.duration).await;
                    m.faults().set_extra_loss(0.0);
                    sinks.ended(handle.now(), format!("machine {machine}: loss burst over"));
                }
                FaultKind::LinkDegrade { factor } => {
                    fabric.set_link_factor(factor);
                    sinks.count("fault.link_degrades");
                    sinks.flight(
                        at,
                        "chaos.link_degrade",
                        format!("fabric: link degraded {factor:.2}x"),
                    );
                    handle.sleep(event.duration).await;
                    fabric.set_link_factor(1.0);
                    sinks.ended(handle.now(), "fabric: link restored".to_string());
                }
                FaultKind::Straggler { machine, factor } => {
                    let m = target.expect("straggler has a target");
                    m.faults().set_cpu_factor(factor);
                    sinks.count("fault.stragglers");
                    sinks.flight(
                        at,
                        "chaos.straggler",
                        format!("machine {machine}: straggling {factor:.2}x"),
                    );
                    handle.sleep(event.duration).await;
                    m.faults().set_cpu_factor(1.0);
                    sinks.ended(handle.now(), format!("machine {machine}: straggler over"));
                }
                FaultKind::TornDma { machine, p } => {
                    let m = target.expect("torn dma has a target");
                    m.faults().set_torn_dma(p);
                    sinks.count("fault.torn_dma");
                    sinks.flight(
                        at,
                        "chaos.torn_dma",
                        format!("machine {machine}: torn-DMA window p={p:.3}"),
                    );
                    handle.sleep(event.duration).await;
                    m.faults().set_torn_dma(0.0);
                    sinks.ended(handle.now(), format!("machine {machine}: torn-DMA over"));
                }
                FaultKind::BitFlip { machine, p } => {
                    let m = target.expect("bit flip has a target");
                    m.faults().set_bitflip(p);
                    sinks.count("fault.bit_flips");
                    sinks.flight(
                        at,
                        "chaos.bit_flip",
                        format!("machine {machine}: bit-flip window p={p:.3}"),
                    );
                    handle.sleep(event.duration).await;
                    m.faults().set_bitflip(0.0);
                    sinks.ended(handle.now(), format!("machine {machine}: bit-flip over"));
                }
                FaultKind::SlowLink { machine, lag_ns } => {
                    let m = target.expect("slow link has a target");
                    m.faults().set_wire_lag(lag_ns);
                    sinks.count("fault.slow_links");
                    sinks.flight(
                        at,
                        "chaos.slow_link",
                        format!("machine {machine}: slow link +{lag_ns}ns/leg"),
                    );
                    handle.sleep(event.duration).await;
                    m.faults().set_wire_lag(0);
                    sinks.ended(handle.now(), format!("machine {machine}: slow link over"));
                }
                FaultKind::Partition { from, to } => {
                    let m = target.expect("partition has a source");
                    m.faults().block_to(to);
                    sinks.count("fault.partition");
                    sinks.flight(
                        at,
                        "chaos.partition",
                        format!("partition: {from} -> {to} cut (one direction)"),
                    );
                    handle.sleep(event.duration).await;
                    m.faults().unblock_to(to);
                    sinks.ended(handle.now(), format!("partition: {from} -> {to} healed"));
                }
                FaultKind::QpError { machine } => {
                    let m = target.expect("qp error has a target");
                    m.faults().bump_qp_epoch();
                    sinks.count("fault.qp_errors");
                    sinks.flight(
                        at,
                        "chaos.qp_error",
                        format!("machine {machine}: QPs transitioned to error"),
                    );
                }
                FaultKind::Crash { machine, warm } => {
                    let m = target.expect("crash has a target");
                    m.faults().set_crashed(true);
                    sinks.count(if warm {
                        "fault.crashes_warm"
                    } else {
                        "fault.crashes_cold"
                    });
                    sinks.flight(
                        at,
                        "chaos.crash",
                        format!(
                            "machine {machine}: crashed ({})",
                            if warm { "warm" } else { "cold" }
                        ),
                    );
                    handle.sleep(event.duration).await;
                    if !warm {
                        // Registered memory did not survive: the machine
                        // comes back with zeroed regions.
                        m.wipe_memory();
                    }
                    let restart = Restart {
                        machine,
                        warm,
                        crashed_at: at,
                        restored_at: handle.now(),
                    };
                    if let Some(hook) = &sinks.on_restart {
                        hook(&restart);
                    }
                    m.faults().set_crashed(false);
                    sinks.ended(
                        restart.restored_at,
                        format!(
                            "machine {machine}: restarted ({})",
                            if warm { "warm" } else { "cold" }
                        ),
                    );
                }
            }
        });
    }
}
