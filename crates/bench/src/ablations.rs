//! Ablations beyond the paper's figures — the design-choice checks
//! DESIGN.md calls out:
//!
//! * transports — RFP (RC) vs server-reply (RC) vs HERD-style (UC/UD),
//!   with and without packet loss (§5's discussion, made measurable),
//! * NIC generations — the in/out asymmetry and the resulting system
//!   ordering across ConnectX-2/-3/-4-class hardware (§2.2's "appears
//!   on all these different versions"),
//! * EREW — Jakiro's partitioned store vs the same store behind one
//!   lock (§4.1's design choice),
//! * parameter selection — the §3.2 enumeration vs naive fetch sizes,
//! * pipelining — posted verbs and doorbell batching (§2.2's excluded
//!   optimizations),
//! * load-latency — think-time clients sweeping offered load.

use std::io::{self, Write};

use rfp_core::RfpConfig;
use rfp_kvstore::{
    spawn_farm, spawn_herd, spawn_jakiro, spawn_jakiro_shared, spawn_pilaf, spawn_server_reply_kv,
    SystemConfig,
};
use rfp_rnic::{ClusterProfile, LinkProfile, NicProfile};
use rfp_simnet::SimSpan;
use rfp_workload::{OpMix, ValueSize, WorkloadSpec};

use crate::kvrun::run_kv;
use crate::micro;
use crate::{kv_cfg, preselect, row, warmup, window, KEYS};

/// Transports: the three paradigms head-to-head, then the HERD-style
/// system under increasing packet loss (reliability is not free to give
/// up).
pub fn ablation_transports(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# ablation_transports: RC-RFP vs RC-server-reply vs UC/UD HERD-style"
    )?;
    let cfg = kv_cfg();
    row(
        w,
        "transports",
        "jakiro_rc_rfp",
        "lossless",
        run_kv(spawn_jakiro, &cfg, warmup(), window()).mops,
    )?;
    row(
        w,
        "transports",
        "server_reply_rc",
        "lossless",
        run_kv(spawn_server_reply_kv, &cfg, warmup(), window()).mops,
    )?;
    row(
        w,
        "transports",
        "herd_uc_ud",
        "lossless",
        run_kv(spawn_herd, &cfg, warmup(), window()).mops,
    )?;
    for loss_pct in [0.1f64, 1.0, 5.0] {
        let mut cfg = kv_cfg();
        cfg.profile.nic.unreliable_loss = loss_pct / 100.0;
        let run = run_kv(spawn_herd, &cfg, warmup(), window());
        row(
            w,
            "transports",
            "herd_uc_ud",
            format!("loss_{loss_pct}pct"),
            run.mops,
        )?;
        row(
            w,
            "transports",
            "herd_p99_us",
            format!("loss_{loss_pct}pct"),
            run.p99_us,
        )?;
    }
    Ok(())
}

/// NIC generations: asymmetry and system peaks on ConnectX-2/-3/-4.
fn ablation_nic_generations(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# ablation_nic_generations: asymmetry and peaks across hardware"
    )?;
    let generations: [(&str, NicProfile); 3] = [
        ("connectx2", NicProfile::connectx2_40g()),
        ("connectx3", NicProfile::connectx3_40g()),
        ("connectx4", NicProfile::connectx4_100g()),
    ];
    for (name, nic) in generations {
        let profile = ClusterProfile {
            nic,
            link: LinkProfile::infiniscale(),
        };
        let inb = micro::inbound_mops_with(profile.clone(), 5, 32, window());
        let out = micro::outbound_mops_with(profile.clone(), 4, 32, window());
        row(w, "nic_gen", &format!("{name}_inbound"), 32, inb)?;
        row(w, "nic_gen", &format!("{name}_outbound"), 32, out)?;
        row(w, "nic_gen", &format!("{name}_asymmetry"), 32, inb / out)?;

        let cfg = SystemConfig {
            profile,
            ..kv_cfg()
        };
        let jak = run_kv(spawn_jakiro, &cfg, warmup(), window()).mops;
        let sr = run_kv(spawn_server_reply_kv, &cfg, warmup(), window()).mops;
        row(w, "nic_gen", &format!("{name}_jakiro"), 32, jak)?;
        row(w, "nic_gen", &format!("{name}_server_reply"), 32, sr)?;
        row(w, "nic_gen", &format!("{name}_gain"), 32, jak / sr)?;
    }
    Ok(())
}

/// EREW vs one shared lock, across GET ratios: the partitioned design's
/// write-insensitivity is where it earns its keep.
fn ablation_erew(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# ablation_erew: EREW partitions vs shared-lock store")?;
    for (label, mix) in [
        ("95", OpMix::READ_INTENSIVE),
        ("50", OpMix::BALANCED),
        ("5", OpMix::WRITE_INTENSIVE),
    ] {
        let mut cfg = kv_cfg();
        cfg.spec.mix = mix;
        let erew = run_kv(spawn_jakiro, &cfg, warmup(), window()).mops;
        let shared = run_kv(spawn_jakiro_shared, &cfg, warmup(), window()).mops;
        row(w, "erew", "erew", label, erew)?;
        row(w, "erew", "shared_lock", label, shared)?;
    }
    Ok(())
}

/// Parameter selection vs naive fetch sizes on a mid-size workload
/// (600 B results — squarely between the grid points, where getting `F`
/// wrong costs a second READ on every call).
fn ablation_param_selection(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# ablation_param_selection: selected (R,F) vs naive choices, 600B values"
    )?;
    let picked = preselect(vec![605], SimSpan::nanos(350));
    writeln!(w, "# selector picked R={} F={}", picked.r, picked.f)?;

    let run_with = |r: u32, f: usize| {
        let cfg = SystemConfig {
            spec: WorkloadSpec {
                key_count: KEYS,
                values: ValueSize::Fixed(600),
                ..WorkloadSpec::paper_default()
            },
            rfp: RfpConfig {
                retry_threshold: r,
                fetch_size: f,
                check_cpu: SimSpan::nanos(30),
                post_cpu: SimSpan::nanos(50),
                ..RfpConfig::default()
            },
            ..SystemConfig::default()
        };
        run_kv(spawn_jakiro, &cfg, warmup(), window())
    };

    let selected = run_with(picked.r, picked.f);
    row(w, "params", "selected", picked.f, selected.mops)?;
    row(
        w,
        "params",
        "selected_extra_read_frac",
        picked.f,
        // Extra reads per call under the chosen F.
        selected.inbound_per_req - 2.0,
    )?;
    for naive_f in [64usize.max(rfp_core::RESP_HDR), 256, 2048, 8192] {
        let run = run_with(5, naive_f);
        row(w, "params", "naive", naive_f, run.mops)?;
    }
    Ok(())
}

/// Pipelining / doorbell batching — the optimizations the paper sets
/// aside in §2.2: per-thread read throughput vs in-flight window depth,
/// posted (one doorbell per READ) vs doorbell-batched (one per window).
/// Depth 1 is the synchronous client. The two series are equal at every
/// depth: the client NIC's out-bound engine binds before the issue cost
/// a shared doorbell saves.
pub fn ablation_pipelining(w: &mut dyn Write) -> io::Result<()> {
    use rfp_rnic::Cluster;
    use rfp_simnet::Simulation;
    use std::rc::Rc;

    writeln!(
        w,
        "# ablation_pipelining: ONE client thread reading 32B, vs in-flight depth"
    )?;
    writeln!(
        w,
        "# (depth hides the round trip until the issuing NIC's out-bound engine caps)"
    )?;
    let run = |depth: usize, batched: bool| -> f64 {
        let mut sim = Simulation::new(105);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
        let server = cluster.machine(0);
        let remote = server.alloc_mr(4096);
        for t in 0..1usize {
            let qp = cluster.qp(1, 0);
            let client = cluster.machine(1);
            let local = client.alloc_mr(4096);
            let thread = client.thread(format!("c{t}"));
            let r = Rc::clone(&remote);
            sim.spawn(async move {
                let mut completions = Vec::new();
                loop {
                    if batched {
                        let entries: Vec<_> = (0..depth)
                            .map(|i| (Rc::clone(&local), i * 64, Rc::clone(&r), i * 64, 32))
                            .collect();
                        qp.post_read_batch(&thread, &entries, &mut completions)
                            .await;
                        for c in &completions {
                            c.wait(&thread).await;
                        }
                    } else {
                        completions.clear();
                        for i in 0..depth {
                            completions
                                .push(qp.read_post(&thread, &local, i * 64, &r, i * 64, 32).await);
                        }
                        for c in &completions {
                            c.wait(&thread).await;
                        }
                    }
                }
            });
        }
        sim.run_for(SimSpan::millis(1));
        server.nic().reset_counters();
        let t0 = sim.now();
        sim.run_for(window());
        server.nic().counters().inbound_ops as f64 / (sim.now() - t0).as_secs_f64() / 1e6
    };
    for depth in [1usize, 2, 4, 8, 16] {
        row(w, "pipelining", "posted", depth, run(depth, false))?;
        row(w, "pipelining", "doorbell_batched", depth, run(depth, true))?;
    }
    Ok(())
}

/// Latency vs offered load: think-time clients sweep the arrival rate
/// from light load to saturation; the latency knee appears where each
/// system's bottleneck resource saturates (the classic curve the
/// paper's peak-throughput methodology summarises in one point).
fn ablation_load_latency(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# ablation_load_latency: mean think time (us) -> mops, p50, p99 (us)"
    )?;
    for think_us in [50u64, 20, 10, 5, 2, 1, 0] {
        let mut cfg = kv_cfg();
        cfg.think_time = SimSpan::micros(think_us);
        for (name, run) in [
            ("jakiro", run_kv(spawn_jakiro, &cfg, warmup(), window())),
            (
                "server_reply",
                run_kv(spawn_server_reply_kv, &cfg, warmup(), window()),
            ),
        ] {
            row(w, "load", &format!("{name}_mops"), think_us, run.mops)?;
            row(w, "load", &format!("{name}_p50_us"), think_us, run.p50_us)?;
            row(w, "load", &format!("{name}_p99_us"), think_us, run.p99_us)?;
        }
    }
    Ok(())
}

/// The §5 FaRM comparison: the three bypass/fetch designs head-to-head
/// on ops and bytes per GET. FaRM-style neighborhood reads use the
/// fewest server ops but the most bytes; Jakiro sits in between on
/// bytes while keeping the server involved; Pilaf pays the op
/// amplification.
fn ablation_farm(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# ablation_farm: Jakiro vs Pilaf-style vs FaRM-style, uniform, 32B values"
    )?;
    for (label, mix) in [("95", OpMix::READ_INTENSIVE), ("50", OpMix::BALANCED)] {
        let mut cfg = kv_cfg();
        cfg.spec.mix = mix;
        for (name, run) in [
            ("jakiro", run_kv(spawn_jakiro, &cfg, warmup(), window())),
            ("pilaf", run_kv(spawn_pilaf, &cfg, warmup(), window())),
            ("farm", run_kv(spawn_farm, &cfg, warmup(), window())),
        ] {
            row(w, "farm", &format!("{name}_mops"), label, run.mops)?;
            row(
                w,
                "farm",
                &format!("{name}_inbound_ops_per_req"),
                label,
                run.inbound_per_req.max(run.bypass_ops_per_get),
            )?;
            row(
                w,
                "farm",
                &format!("{name}_inbound_bytes_per_req"),
                label,
                run.inbound_bytes_per_req,
            )?;
        }
    }
    Ok(())
}

/// Registry of the ablation experiments.
pub const ABLATIONS: &[(&str, crate::figures::ExperimentFn)] = &[
    ("ablation_transports", ablation_transports),
    ("ablation_nic_generations", ablation_nic_generations),
    ("ablation_erew", ablation_erew),
    ("ablation_param_selection", ablation_param_selection),
    ("ablation_pipelining", ablation_pipelining),
    ("ablation_load_latency", ablation_load_latency),
    ("ablation_farm", ablation_farm),
];
