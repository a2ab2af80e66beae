//! One function per paper figure/table. Each writes CSV rows
//! `figure,series,x,y` (comments prefixed `#`) mirroring the axes the
//! paper plots; `EXPERIMENTS.md` records the comparison against the
//! paper's reported values.

use std::io::{self, Write};
use std::rc::Rc;

use rfp_core::{connect, serve_loop, Params, RfpConfig, RESP_HDR};
use rfp_kvstore::{
    spawn_jakiro, spawn_memcached, spawn_pilaf, spawn_server_reply_kv, SystemConfig,
};
use rfp_paradigms::sr_connect;
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{SimSpan, Simulation};
use rfp_workload::{KeyDist, OpMix, ValueSize, WorkloadSpec};

use crate::kvrun::{run_kv, KvRun};
use crate::micro;
use crate::{kv_cfg, prerun_results, preselect, row, warmup, window, KEYS};

/// Figure 3: out-bound IOPS vs number of server threads, with the
/// saturated in-bound rate for comparison (32 B payloads).
fn fig03(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# fig03: IOPS (MOPS) of out-bound vs in-bound one-sided ops, 32B"
    )?;
    let inbound = micro::inbound_mops(5, 32, window());
    for threads in [1usize, 2, 4, 6, 8, 10, 12, 14, 16] {
        let out = micro::outbound_mops(threads, 32, window());
        row(w, "fig03", "outbound", threads, out)?;
        row(w, "fig03", "inbound", threads, inbound)?;
    }
    Ok(())
}

/// Figure 4: server in-bound IOPS vs total client threads (7…70).
fn fig04(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# fig04: server in-bound IOPS vs client threads, 32B reads"
    )?;
    for per_machine in 1..=10usize {
        let mops = micro::inbound_mops(per_machine, 32, window());
        row(w, "fig04", "inbound", per_machine * 7, mops)?;
    }
    Ok(())
}

/// Figure 5: IOPS of both directions vs payload size.
fn fig05(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# fig05: IOPS vs data size; directions converge past ~2KB"
    )?;
    for bytes in [32usize, 64, 128, 256, 512, 1024, 2048, 4096] {
        let inb = micro::inbound_mops(5, bytes, window());
        let out = micro::outbound_mops(4, bytes, window());
        row(w, "fig05", "inbound", bytes, inb)?;
        row(w, "fig05", "outbound", bytes, out)?;
    }
    Ok(())
}

/// Figure 6: server-bypass throughput collapse as the RDMA rounds per
/// request grow (bypass access amplification).
fn fig06(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# fig06: 21 bypass clients, k dependent reads per request"
    )?;
    for rounds in 2..=15u32 {
        let (reqs, iops) = micro::amplified_throughput(rounds, window());
        row(w, "fig06", "throughput", rounds, reqs)?;
        row(w, "fig06", "iops", rounds, iops)?;
    }
    Ok(())
}

/// Raw RFP/server-reply echo rig for Figure 9: 35 clients, minimal
/// result size, swept process time.
fn echo_throughput(server_reply: bool, p: SimSpan) -> f64 {
    let mut sim = Simulation::new(104);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 8);
    let server_m = cluster.machine(0);
    let cfg = RfpConfig {
        // F = S minimal: the response header alone carries the 1-byte
        // result (F and S are 1 byte in the paper's Figure 9; the
        // header is our floor).
        fetch_size: RESP_HDR + 1,
        enable_mode_switch: false,
        check_cpu: SimSpan::nanos(30),
        post_cpu: SimSpan::nanos(50),
        req_capacity: 256,
        resp_capacity: 256,
        ..RfpConfig::default()
    };
    // Enough server threads that CPU never binds before the paradigms'
    // own limits do (the paper's Figure 9 isolates the transports).
    let threads = 16usize;
    let mut server_conns: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
    let completed = Rc::new(std::cell::Cell::new(0u64));

    let mut idx = 0usize;
    for m in 0..7 {
        let client_m = cluster.machine(1 + m);
        for t in 0..5 {
            let (cl, sc) = if server_reply {
                sr_connect(
                    &client_m,
                    &server_m,
                    cluster.qp(1 + m, 0),
                    cluster.qp(0, 1 + m),
                    cfg.clone(),
                )
            } else {
                connect(
                    &client_m,
                    &server_m,
                    cluster.qp(1 + m, 0),
                    cluster.qp(0, 1 + m),
                    cfg.clone(),
                )
            };
            server_conns[idx % threads].push(Rc::new(sc));
            idx += 1;
            let thread = client_m.thread(format!("c{m}.{t}"));
            let done = Rc::clone(&completed);
            sim.spawn(async move {
                loop {
                    cl.call(&thread, &[7u8]).await;
                    done.set(done.get() + 1);
                }
            });
        }
    }
    for (s, conns) in server_conns.into_iter().enumerate() {
        let thread = server_m.thread(format!("s{s}"));
        sim.spawn(serve_loop(
            thread,
            conns,
            move |_req: &[u8]| (vec![1u8], p),
            SimSpan::nanos(100),
        ));
    }

    sim.run_for(warmup());
    completed.set(0);
    let t0 = sim.now();
    sim.run_for(window());
    completed.get() as f64 / (sim.now() - t0).as_secs_f64() / 1e6
}

/// Figure 9: repeated remote fetching vs server-reply across server
/// process time `P` (the crossover that defines `N`).
fn fig09(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# fig09: raw paradigms, F=S minimal, vs process time (us)"
    )?;
    for p_us in 1..=15u64 {
        let p = SimSpan::micros(p_us);
        row(
            w,
            "fig09",
            "remote_fetching",
            p_us,
            echo_throughput(false, p),
        )?;
        row(w, "fig09", "server_reply", p_us, echo_throughput(true, p))?;
    }
    Ok(())
}

/// Figure 10: Jakiro throughput vs number of client threads (7…70),
/// 6 server threads, uniform 95% GET, 32 B values. Also prints the
/// §4.3 round-trip accounting.
pub fn fig10(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# fig10: Jakiro vs client threads; plus inbound ops/request"
    )?;
    for per_machine in 1..=10usize {
        let cfg = SystemConfig {
            clients_per_machine: per_machine,
            ..kv_cfg()
        };
        let run = run_kv(spawn_jakiro, &cfg, warmup(), window());
        row(w, "fig10", "jakiro", per_machine * 7, run.mops)?;
        row(
            w,
            "fig10",
            "inbound_per_req",
            per_machine * 7,
            run.inbound_per_req,
        )?;
    }
    Ok(())
}

/// Figure 11: Jakiro vs the Pilaf-style store, uniform 50% GET,
/// 20 Gbps NICs, value sizes 32…256 B.
fn fig11(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# fig11: Jakiro vs Pilaf, 50% GET, 20Gbps profile")?;
    for size in [32usize, 64, 128, 256] {
        let cfg = SystemConfig {
            profile: ClusterProfile::pilaf_testbed(),
            spec: WorkloadSpec {
                key_count: KEYS,
                mix: OpMix::BALANCED,
                values: ValueSize::Fixed(size),
                ..WorkloadSpec::paper_default()
            },
            ..SystemConfig::default()
        };
        let jakiro = run_kv(spawn_jakiro, &cfg, warmup(), window());
        let pilaf = run_kv(spawn_pilaf, &cfg, warmup(), window());
        row(w, "fig11", "jakiro", size, jakiro.mops)?;
        row(w, "fig11", "pilaf", size, pilaf.mops)?;
        row(
            w,
            "fig11",
            "pilaf_ops_per_get",
            size,
            pilaf.bypass_ops_per_get,
        )?;
    }
    Ok(())
}

/// Figure 12: the three RPC systems vs server thread count, 32 B
/// values, uniform 95% GET.
fn fig12(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# fig12: throughput vs server threads")?;
    for threads in [1usize, 2, 4, 6, 8, 10, 12, 14, 16] {
        let cfg = SystemConfig {
            server_threads: threads,
            ..kv_cfg()
        };
        row(
            w,
            "fig12",
            "jakiro",
            threads,
            run_kv(spawn_jakiro, &cfg, warmup(), window()).mops,
        )?;
        row(
            w,
            "fig12",
            "server_reply",
            threads,
            run_kv(spawn_server_reply_kv, &cfg, warmup(), window()).mops,
        )?;
        row(
            w,
            "fig12",
            "rdma_memcached",
            threads,
            run_kv(spawn_memcached, &cfg, warmup(), window()).mops,
        )?;
    }
    Ok(())
}

fn peak_cfgs() -> (SystemConfig, SystemConfig, SystemConfig) {
    // Each system at the configuration where it peaks on 32 B uniform
    // 95% GET (paper §4.4.3): Jakiro/ServerReply 6 threads, Memcached 16.
    let base = kv_cfg();
    let mcd = SystemConfig {
        server_threads: 16,
        ..base.clone()
    };
    (base.clone(), base, mcd)
}

fn cdf_rows(w: &mut dyn Write, fig: &str, series: &str, run: &KvRun) -> io::Result<()> {
    for (lat_us, p) in run.cdf.iter().step_by(5) {
        row(w, fig, series, format!("{lat_us:.2}"), *p)?;
    }
    row(
        w,
        fig,
        &format!("{series}_mean_us"),
        "-",
        run.mean_latency_us,
    )?;
    Ok(())
}

/// Figure 13: latency CDF of the three systems at peak throughput,
/// uniform read-intensive.
fn fig13(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# fig13: latency CDF (x=us, y=cumulative probability)")?;
    let (jc, sc, mc) = peak_cfgs();
    cdf_rows(
        w,
        "fig13",
        "jakiro",
        &run_kv(spawn_jakiro, &jc, warmup(), window()),
    )?;
    cdf_rows(
        w,
        "fig13",
        "server_reply",
        &run_kv(spawn_server_reply_kv, &sc, warmup(), window()),
    )?;
    cdf_rows(
        w,
        "fig13",
        "rdma_memcached",
        &run_kv(spawn_memcached, &mc, warmup(), window()),
    )?;
    Ok(())
}

fn fig14_cfg(p_us: u64, enable_switch: bool) -> SystemConfig {
    let mut cfg = kv_cfg();
    cfg.server_threads = 16;
    cfg.extra_process = SimSpan::micros(p_us);
    cfg.rfp.enable_mode_switch = enable_switch;
    cfg
}

/// Figure 14: Jakiro (with and without the hybrid switch) vs
/// ServerReply across request process time; 16 server / 35 client
/// threads.
fn fig14(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# fig14: throughput vs request process time (us)")?;
    for p_us in 1..=12u64 {
        let jak = run_kv(spawn_jakiro, &fig14_cfg(p_us, true), warmup(), window());
        let jak_ns = run_kv(spawn_jakiro, &fig14_cfg(p_us, false), warmup(), window());
        let sr = run_kv(
            spawn_server_reply_kv,
            &fig14_cfg(p_us, true),
            warmup(),
            window(),
        );
        row(w, "fig14", "jakiro", p_us, jak.mops)?;
        row(w, "fig14", "jakiro_no_switch", p_us, jak_ns.mops)?;
        row(w, "fig14", "server_reply", p_us, sr.mops)?;
    }
    Ok(())
}

/// Figure 15: client CPU utilisation of Jakiro across process time —
/// 100% while remote fetching, dropping once the hybrid mechanism
/// settles in server-reply mode.
fn fig15(w: &mut dyn Write) -> io::Result<()> {
    writeln!(
        w,
        "# fig15: Jakiro client CPU utilisation (%) vs process time"
    )?;
    for p_us in 1..=12u64 {
        let run = run_kv(spawn_jakiro, &fig14_cfg(p_us, true), warmup(), window());
        row(w, "fig15", "client_cpu", p_us, run.client_util * 100.0)?;
    }
    Ok(())
}

/// Figure 16: throughput vs GET percentage (uniform keys).
fn fig16(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# fig16: throughput vs GET%, uniform, 32B values")?;
    for (label, mix) in [
        ("95", OpMix::READ_INTENSIVE),
        ("50", OpMix::BALANCED),
        ("5", OpMix::WRITE_INTENSIVE),
    ] {
        let (mut jc, mut sc, mut mc) = peak_cfgs();
        jc.spec.mix = mix;
        sc.spec.mix = mix;
        mc.spec.mix = mix;
        row(
            w,
            "fig16",
            "jakiro",
            label,
            run_kv(spawn_jakiro, &jc, warmup(), window()).mops,
        )?;
        row(
            w,
            "fig16",
            "server_reply",
            label,
            run_kv(spawn_server_reply_kv, &sc, warmup(), window()).mops,
        )?;
        row(
            w,
            "fig16",
            "rdma_memcached",
            label,
            run_kv(spawn_memcached, &mc, warmup(), window()).mops,
        )?;
    }
    Ok(())
}

/// Figure 17: throughput vs value size 32 B…8 KB (three systems), plus
/// the §4.4.3 mixed-size run; Jakiro's `(R, F)` come from the selection
/// pre-run.
fn fig17(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# fig17: throughput vs value size; params from pre-run")?;
    let mixed = prerun_results(ValueSize::Uniform { min: 32, max: 8192 });
    let Params { r, f } = preselect(mixed, SimSpan::nanos(200));
    writeln!(w, "# selected R={r} F={f} from mixed 32..8192 pre-run")?;
    for size in [32usize, 64, 128, 256, 512, 1024, 2048, 4096, 8192] {
        let make = |mix_threads: usize| SystemConfig {
            server_threads: mix_threads,
            spec: WorkloadSpec {
                key_count: KEYS,
                values: ValueSize::Fixed(size),
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
        row(
            w,
            "fig17",
            "jakiro",
            size,
            run_kv(spawn_jakiro, &make(6), warmup(), window()).mops,
        )?;
        row(
            w,
            "fig17",
            "server_reply",
            size,
            run_kv(spawn_server_reply_kv, &make(6), warmup(), window()).mops,
        )?;
        row(
            w,
            "fig17",
            "rdma_memcached",
            size,
            run_kv(spawn_memcached, &make(16), warmup(), window()).mops,
        )?;
    }
    // The mixed-size run (§4.4.3 text: Jakiro 3.58, ServerReply 1.49,
    // RDMA-Memcached 1.02 MOPS).
    let mixed = |threads: usize| SystemConfig {
        server_threads: threads,
        spec: WorkloadSpec {
            key_count: KEYS,
            values: ValueSize::Uniform { min: 32, max: 8192 },
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
    row(
        w,
        "fig17",
        "jakiro",
        "mixed",
        run_kv(spawn_jakiro, &mixed(6), warmup(), window()).mops,
    )?;
    row(
        w,
        "fig17",
        "server_reply",
        "mixed",
        run_kv(spawn_server_reply_kv, &mixed(6), warmup(), window()).mops,
    )?;
    row(
        w,
        "fig17",
        "rdma_memcached",
        "mixed",
        run_kv(spawn_memcached, &mixed(16), warmup(), window()).mops,
    )?;
    Ok(())
}

/// Figure 18: Jakiro throughput vs value size under different fixed
/// fetch sizes `F` — the ablation behind the `F` selection.
fn fig18(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# fig18: Jakiro vs value size for several fetch sizes F")?;
    let mixed = prerun_results(ValueSize::Uniform { min: 32, max: 2048 });
    let Params { r, f: f_sel } = preselect(mixed, SimSpan::nanos(200));
    writeln!(w, "# selector would pick R={r} F={f_sel} for 32..2048")?;
    for f in [256usize, 448, 512, 640, 1024] {
        for size in [32usize, 64, 128, 256, 384, 512, 640, 768, 1024, 2048] {
            let cfg = SystemConfig {
                spec: WorkloadSpec {
                    key_count: KEYS,
                    values: ValueSize::Fixed(size),
                    ..WorkloadSpec::paper_default()
                },
                rfp: RfpConfig {
                    retry_threshold: 5,
                    fetch_size: f,
                    check_cpu: SimSpan::nanos(30),
                    post_cpu: SimSpan::nanos(50),
                    ..RfpConfig::default()
                },
                ..SystemConfig::default()
            };
            let run = run_kv(spawn_jakiro, &cfg, warmup(), window());
            row(w, "fig18", &format!("F{f}"), size, run.mops)?;
        }
    }
    Ok(())
}

/// Figure 19: throughput vs GET percentage under Zipf(0.99) keys.
fn fig19(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# fig19: throughput vs GET%, zipf(.99), 32B values")?;
    for (label, mix) in [
        ("95", OpMix::READ_INTENSIVE),
        ("50", OpMix::BALANCED),
        ("5", OpMix::WRITE_INTENSIVE),
    ] {
        let (mut jc, mut sc, mut mc) = peak_cfgs();
        for c in [&mut jc, &mut sc, &mut mc] {
            c.spec.mix = mix;
            c.spec.keys = KeyDist::Zipf(0.99);
        }
        row(
            w,
            "fig19",
            "jakiro",
            label,
            run_kv(spawn_jakiro, &jc, warmup(), window()).mops,
        )?;
        row(
            w,
            "fig19",
            "server_reply",
            label,
            run_kv(spawn_server_reply_kv, &sc, warmup(), window()).mops,
        )?;
        row(
            w,
            "fig19",
            "rdma_memcached",
            label,
            run_kv(spawn_memcached, &mc, warmup(), window()).mops,
        )?;
    }
    Ok(())
}

/// Figure 20: latency CDF under the skewed read-intensive workload.
fn fig20(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# fig20: latency CDF, zipf(.99) 95% GET")?;
    let (mut jc, mut sc, mut mc) = peak_cfgs();
    for c in [&mut jc, &mut sc, &mut mc] {
        c.spec.keys = KeyDist::Zipf(0.99);
    }
    cdf_rows(
        w,
        "fig20",
        "jakiro",
        &run_kv(spawn_jakiro, &jc, warmup(), window()),
    )?;
    cdf_rows(
        w,
        "fig20",
        "server_reply",
        &run_kv(spawn_server_reply_kv, &sc, warmup(), window()),
    )?;
    cdf_rows(
        w,
        "fig20",
        "rdma_memcached",
        &run_kv(spawn_memcached, &mc, warmup(), window()),
    )?;
    Ok(())
}

/// Table 3: remote-fetch retry statistics across the four workloads
/// (uniform/skewed × 95%/5% GET).
fn table3(w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "# table3: fetch attempts needing retries, per workload")?;
    for (label, keys, mix) in [
        ("uniform_95get", KeyDist::Uniform, OpMix::READ_INTENSIVE),
        ("uniform_5get", KeyDist::Uniform, OpMix::WRITE_INTENSIVE),
        ("skewed_95get", KeyDist::Zipf(0.99), OpMix::READ_INTENSIVE),
        ("skewed_5get", KeyDist::Zipf(0.99), OpMix::WRITE_INTENSIVE),
    ] {
        let mut cfg = kv_cfg();
        cfg.spec.keys = keys;
        cfg.spec.mix = mix;
        let run = run_kv(spawn_jakiro, &cfg, warmup(), window());
        // The paper's N counts failed-fetch *retries*; max attempts is
        // therefore max N + 1.
        row(
            w,
            "table3",
            &format!("{label}_pct_n_gt1"),
            "-",
            run.frac_retries_gt1 * 100.0,
        )?;
        row(
            w,
            "table3",
            &format!("{label}_max_n"),
            "-",
            run.max_attempts.saturating_sub(1) as f64,
        )?;
        row(
            w,
            "table3",
            &format!("{label}_switches"),
            "-",
            run.switches_to_reply as f64,
        )?;
    }
    Ok(())
}

/// An experiment runner writing its CSV rows to the given sink.
pub type ExperimentFn = fn(&mut dyn Write) -> io::Result<()>;

/// Registry of all experiments (name, runner).
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("fig03_asymmetry", fig03),
    ("fig04_inbound_scaling", fig04),
    ("fig05_size_sweep", fig05),
    ("fig06_amplification", fig06),
    ("fig09_process_time", fig09),
    ("fig10_jakiro_clients", fig10),
    ("fig11_vs_pilaf", fig11),
    ("fig12_server_threads", fig12),
    ("fig13_latency_cdf", fig13),
    ("fig14_mode_switch", fig14),
    ("fig15_client_cpu", fig15),
    ("fig16_get_ratio", fig16),
    ("fig17_value_size", fig17),
    ("fig18_fetch_size", fig18),
    ("fig19_skew", fig19),
    ("fig20_skew_cdf", fig20),
    ("table3_retries", table3),
];
