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

/// One fault window as [`install`] delivers it: `set(true)` arms the
/// fault and `set(false)` reverts it; `counter` names its `fault.*`
/// counter, `root` its `chaos.*` root event, and `opened` / `ended`
/// are the details of that root and of its `chaos.fault_end` event.
struct Window<'a> {
    set: Box<dyn Fn(bool) + 'a>,
    counter: &'static str,
    root: &'static str,
    opened: String,
    ended: String,
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
    let machines = cluster.len();
    for event in plan.events().iter().cloned() {
        // The machine a fault acts on: a partition's source, whose NIC
        // blocks the cut direction; a link degradation acts on the
        // fabric instead.
        let machine = match event.kind {
            FaultKind::LinkDegrade { .. } => None,
            FaultKind::Partition { from, to } => {
                assert!(
                    to < machines,
                    "partition {from} -> {to} exceeds the {machines}-machine cluster"
                );
                assert_ne!(from, to, "a machine cannot be partitioned from itself");
                Some(from)
            }
            FaultKind::LossBurst { machine, .. }
            | FaultKind::Straggler { machine, .. }
            | FaultKind::QpError { machine }
            | FaultKind::Crash { machine, .. }
            | FaultKind::TornDma { machine, .. }
            | FaultKind::BitFlip { machine, .. }
            | FaultKind::SlowLink { machine, .. } => Some(machine),
        };
        let target = machine.map(|m| {
            assert!(
                m < machines,
                "fault targets machine {m} outside the {machines}-machine cluster"
            );
            cluster.machine(m)
        });
        let handle = cluster.handle().clone();
        let fabric = Rc::clone(cluster.fabric());
        let sinks = sinks.clone();
        sim.spawn(async move {
            handle.sleep_until(event.at).await;
            let at = handle.now();
            let m = || target.as_deref().expect("a machine fault has a target");
            let window = match event.kind {
                FaultKind::LossBurst { machine, loss } => Window {
                    set: Box::new(move |on| {
                        m().faults().set_extra_loss(if on { loss } else { 0.0 })
                    }),
                    counter: "fault.loss_bursts",
                    root: "chaos.loss_burst",
                    opened: format!("machine {machine}: loss burst {loss:.3}"),
                    ended: format!("machine {machine}: loss burst over"),
                },
                FaultKind::LinkDegrade { factor } => Window {
                    set: Box::new(move |on| fabric.set_link_factor(if on { factor } else { 1.0 })),
                    counter: "fault.link_degrades",
                    root: "chaos.link_degrade",
                    opened: format!("fabric: link degraded {factor:.2}x"),
                    ended: "fabric: link restored".to_string(),
                },
                FaultKind::Straggler { machine, factor } => Window {
                    set: Box::new(move |on| {
                        m().faults().set_cpu_factor(if on { factor } else { 1.0 })
                    }),
                    counter: "fault.stragglers",
                    root: "chaos.straggler",
                    opened: format!("machine {machine}: straggling {factor:.2}x"),
                    ended: format!("machine {machine}: straggler over"),
                },
                FaultKind::TornDma { machine, p } => Window {
                    set: Box::new(move |on| m().faults().set_torn_dma(if on { p } else { 0.0 })),
                    counter: "fault.torn_dma",
                    root: "chaos.torn_dma",
                    opened: format!("machine {machine}: torn-DMA window p={p:.3}"),
                    ended: format!("machine {machine}: torn-DMA over"),
                },
                FaultKind::BitFlip { machine, p } => Window {
                    set: Box::new(move |on| m().faults().set_bitflip(if on { p } else { 0.0 })),
                    counter: "fault.bit_flips",
                    root: "chaos.bit_flip",
                    opened: format!("machine {machine}: bit-flip window p={p:.3}"),
                    ended: format!("machine {machine}: bit-flip over"),
                },
                FaultKind::SlowLink { machine, lag_ns } => Window {
                    set: Box::new(move |on| m().faults().set_wire_lag(if on { lag_ns } else { 0 })),
                    counter: "fault.slow_links",
                    root: "chaos.slow_link",
                    opened: format!("machine {machine}: slow link +{lag_ns}ns/leg"),
                    ended: format!("machine {machine}: slow link over"),
                },
                FaultKind::Partition { from, to } => Window {
                    set: Box::new(move |on| {
                        if on {
                            m().faults().block_to(to)
                        } else {
                            m().faults().unblock_to(to)
                        }
                    }),
                    counter: "fault.partition",
                    root: "chaos.partition",
                    opened: format!("partition: {from} -> {to} cut (one direction)"),
                    ended: format!("partition: {from} -> {to} healed"),
                },
                FaultKind::QpError { machine } => {
                    m().faults().bump_qp_epoch();
                    sinks.count("fault.qp_errors");
                    let what = format!("machine {machine}: QPs transitioned to error");
                    sinks.flight(at, "chaos.qp_error", what);
                    return;
                }
                FaultKind::Crash { machine, warm } => {
                    let how = if warm { "warm" } else { "cold" };
                    m().faults().set_crashed(true);
                    sinks.count(&format!("fault.crashes_{how}"));
                    sinks.flight(
                        at,
                        "chaos.crash",
                        format!("machine {machine}: crashed ({how})"),
                    );
                    handle.sleep(event.duration).await;
                    if !warm {
                        // Registered memory did not survive: the machine
                        // comes back with zeroed regions.
                        m().wipe_memory();
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
                    m().faults().set_crashed(false);
                    let what = format!("machine {machine}: restarted ({how})");
                    sinks.ended(restart.restored_at, what);
                    return;
                }
            };
            (window.set)(true);
            sinks.count(window.counter);
            sinks.flight(at, window.root, window.opened);
            handle.sleep(event.duration).await;
            (window.set)(false);
            sinks.ended(handle.now(), window.ended);
        });
    }
}
