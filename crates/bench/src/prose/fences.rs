//! Every fence EXPERIMENTS.md and README.md hold: which committed file
//! each renders from, which series or cells, at which x values.

use super::Body::{Golden, Sweep, Text};
use super::Col::{Flag, Metric, Over, Raised};
use super::Fmt::{Fixed, Pct, Times};
use super::Row::{Other, Predicted, Ratio, Series};
use super::Val::{Bench, Div, Peak, Y};
use super::{Body, Col, Fence, Fmt, Row};

const fn fence(name: &'static str, body: Body) -> Fence {
    Fence { name, body }
}

const fn golden(
    golden: &'static str,
    axis: &'static str,
    xs: &'static [&'static str],
    x_unit: &'static str,
    rows: &'static [Row],
) -> Body {
    Golden {
        golden,
        axis,
        xs,
        x_unit,
        rows,
    }
}

const fn sweep(
    sweep: &'static str,
    head: &'static str,
    cells: &'static [(&'static str, &'static str)],
    cols: &'static [Col],
) -> Body {
    Sweep {
        sweep,
        head,
        cells,
        cols,
    }
}

/// A count, as printed.
const fn count(head: &'static str, metric: &'static str) -> Col {
    Metric(head, metric, 1.0, Fixed(0))
}

const MOPS: Fmt = Fixed(2);

const FIG09: &str = "fig09_process_time";
const FIG12: &str = "fig12_server_threads";
const FIG16: &str = "fig16_get_ratio";
const TABLE3_CSV: &str = "table3_retries";
const NIC_GEN: &str = "ablation_nic_generations";
const PARAMS: &str = "ablation_param_selection";
const FARM_CSV: &str = "ablation_farm";

const SUMMARY: &str = "\
| Exp | What it shows | Shape reproduced? |
|---|---|---|
| Fig 3 | in/out-bound asymmetry vs server threads | ✅ ({0} vs the paper's ≈{p:asymmetry}×) |
| Fig 4 | in-bound saturation + droop vs client threads | ✅ |
| Fig 5 | IOPS vs size, 2 KB convergence | ✅ |
| Fig 6 | bypass access amplification | ✅ |
| Table 1 | design-space taxonomy | ✅ (typed + verified against transports) |
| Fig 9 | repeated fetching vs server-reply crossover | ✅ knee, later convergence (remote fetching ÷ server-reply {1} at P = 1 µs, {2} at 7 µs, where the paper's are within {p:fig9_converged_pct}%) |
| Fig 10 | Jakiro vs client threads, round-trip count | ✅ ({3} in-bound ops per call at 35 threads vs the paper's {p:inbound_ops_per_get}) |
| Fig 11 | Jakiro vs Pilaf-style store | ✅ ({4} vs the paper's {p:fig11_gain}×) |
| Fig 12 | three systems vs server threads | ✅ (Jakiro ÷ ServerReply peaks {5} vs the paper's ~{p:fig12_gain}×) |
| Fig 13 | latency CDF ordering + tails | ✅ (Jakiro mean {6} µs vs the paper's {p:jakiro_mean_us}) |
| Fig 14 | hybrid switch across process time | ✅ |
| Fig 15 | client CPU collapse at the switch point | ✅ ({7}% → {8}% across P = 7 µs vs the paper's {p:cpu_fetching_pct}% → <{p:cpu_switched_pct}%) |
| Fig 16 | GET-ratio insensitivity of Jakiro | ✅ (Jakiro ÷ Memcached at 95% PUT {9} vs the paper's {p:fig16_gain}×) |
| Fig 17 | value-size sweep + bandwidth convergence | ✅ (mixed-size run deviates; see note) |
| Fig 18 | fetch-size ablation | ✅ (weaker F-sensitivity; see note) |
| Fig 19 | skewed workload | ✅ direction (Memcached {10} vs the paper's {p:fig19_memcached_mops} MOPS at 95% GET) |
| Fig 20 | skewed latency CDF | ✅ |
| Table 3 | retry statistics | ✅ ({11}% of uniform 95% GET calls with N > 1 vs the paper's {p:table3_uniform95_pct}%; no spurious switch) |";

const MEANS: &str = "\
| mean latency (µs) | paper | uniform (Figure 13) | Zipf 0.99 (Figure 20) |
|---|---|---|---|
| Jakiro | {p:jakiro_mean_us} | {0} | {1} |
| ServerReply | {p:server_reply_mean_us} | {2} | {3} |
| RDMA-Memcached | {p:memcached_mean_us} | {4} | {5} |";

const TABLE3: &str = "\
| workload | paper: N > 1 / max N | measured: N > 1 / max N / mode switches |
|---|---|---|
| uniform 95% GET | {p:table3_uniform95_pct}% / {p:table3_uniform95_max} | {0}% / {1} / {2} |
| uniform 5% GET | {p:table3_uniform5_pct}% / {p:table3_uniform5_max} | {3}% / {4} / {5} |
| skewed 95% GET | {p:table3_skewed95_pct}% / {p:table3_skewed95_max} | {6}% / {7} / {8} |
| skewed 5% GET | {p:table3_skewed5_pct}% / {p:table3_skewed5_max} | {9}% / {10} / {11} |";

const NIC_GENERATIONS: &str = "\
| profile | in ÷ out | Jakiro (MOPS) | Jakiro ÷ ServerReply |
|---|---|---|---|
| ConnectX-2 class | {0} | {1} | {2} |
| ConnectX-3 class (the paper's) | {3} | {4} | {5} |
| ConnectX-4 class | {6} | {7} | {8} |";

const PARAM_SELECTION: &str = "\
| F | 64 B | 256 B | 640 B, the pick | 2048 B | 8192 B |
|---|---|---|---|---|---|
| MOPS | {0} | {1} | {2} ({5} of calls read twice) | {3} | {4} |";

const FARM: &str = "\
| system | 95% GET: MOPS | in-bound ops / request | bytes / request | 50% GET: MOPS | ops | bytes |
|---|---|---|---|---|---|---|
| Jakiro | {0} | {1} | {2} | {3} | {4} | {5} |
| Pilaf-style | {6} | {7} | {8} | {9} | {10} | {11} |
| FaRM-style | {12} | {13} | {14} | {15} | {16} | {17} |";

const HEADLINE: &str = "It runs the Figure 16 and 11 configurations, where the goldens \
put Jakiro at {0} ServerReply (95% GET) and {1} the Pilaf-style store (50% GET), and \
checks that the server NIC stays in-bound-only under RFP.";

const README_HEADLINE: &str = "\
| Quantity | Paper | This repo |
|---|---|---|
| In-bound peak (32 B) | {p:inbound_mops} MOPS | {0} MOPS |
| Out-bound peak (32 B) | {p:outbound_mops} MOPS | {1} MOPS |
| Jakiro peak (uniform 95% GET) | {p:jakiro_mops} MOPS | {2} MOPS |
| Server in-bound ops per Jakiro GET | {p:inbound_ops_per_get} | {3} |
| ServerReply peak | {p:server_reply_mops} MOPS | {4} MOPS |
| RDMA-Memcached peak (16 threads) | {p:memcached_mops} MOPS | {5} MOPS |
| Client CPU, remote-fetch → reply mode | {p:cpu_fetching_pct}% → <{p:cpu_switched_pct}% | {6}% → {7}% |
| Jakiro over server-reply / server-bypass | {p:gain_lo}×–{p:gain_hi}× | {8} / {9} |";

const PIPELINE_IDLE: &str = "cuts low-load server poll utilisation from {0} to {1} and \
leaves saturated throughput at {2} kops";

const FLEET_HOT: &str = "Isolation comes from admission (DESIGN §14): while tenant 0 floods, \
the worst cold tenant keeps {0} of its baseline goodput.";

const FAILOVER_TAX: &str = "On the GET-heavy bar (95/5, 32 B, 16 workers, 5 ms) replication \
runs {0} ops off, {1} sync and {2} async: a sync tax of {3}.";

/// Every fence the documents hold, laid out one row or cell per line.
#[rustfmt::skip]
pub(super) const FENCES: &[Fence] = &[
    fence("summary", Text(SUMMARY, &[
        (Div(&Peak("fig03_asymmetry", "inbound"), &Peak("fig03_asymmetry", "outbound")), Times(1)),
        (Div(&Y(FIG09, "remote_fetching", "1"), &Y(FIG09, "server_reply", "1")), Times(1)),
        (Div(&Y(FIG09, "remote_fetching", "7"), &Y(FIG09, "server_reply", "7")), Times(2)),
        (Y("fig10_jakiro_clients", "inbound_per_req", "35"), MOPS),
        (Div(&Y("fig11_vs_pilaf", "jakiro", "32"), &Y("fig11_vs_pilaf", "pilaf", "32")), Times(1)),
        (Div(&Peak(FIG12, "jakiro"), &Peak(FIG12, "server_reply")), Times(1)),
        (Y("fig13_latency_cdf", "jakiro_mean_us", "-"), Fixed(2)),
        (Y("fig15_client_cpu", "client_cpu", "6"), Fixed(0)),
        (Y("fig15_client_cpu", "client_cpu", "7"), Fixed(0)),
        (Div(&Y(FIG16, "jakiro", "5"), &Y(FIG16, "rdma_memcached", "5")), Times(1)),
        (Y("fig19_skew", "rdma_memcached", "95"), MOPS),
        (Y(TABLE3_CSV, "uniform_95get_pct_n_gt1", "-"), Fixed(2)),
    ])),
    fence("fig03", golden("fig03_asymmetry", "server threads", &["1", "2", "4", "6", "8", "16"], "", &[
        Series("out-bound (MOPS)", "outbound", MOPS),
        Series("in-bound (MOPS)", "inbound", MOPS),
        Ratio("in ÷ out", "inbound", "outbound", Times(1)),
    ])),
    fence("fig04", golden("fig04_inbound_scaling", "client threads", &["7", "14", "21", "35", "49", "56", "63", "70"], "", &[
        Series("in-bound (MOPS)", "inbound", MOPS),
    ])),
    fence("fig05", golden("fig05_size_sweep", "size", &["32", "256", "512", "1024", "2048", "4096"], " B", &[
        Series("in-bound (MOPS)", "inbound", MOPS),
        Series("out-bound (MOPS)", "outbound", MOPS),
    ])),
    fence("fig06", golden("fig06_amplification", "dependent reads per request", &["2", "3", "4", "5", "10", "15"], "", &[
        Series("requests (MOPS)", "throughput", MOPS),
        Series("raw IOPS (MOPS)", "iops", MOPS),
    ])),
    fence("fig09", golden(FIG09, "P", &["1", "3", "5", "6", "7", "9", "12", "15"], " µs", &[
        Series("remote fetching (MOPS)", "remote_fetching", MOPS),
        Series("server-reply (MOPS)", "server_reply", MOPS),
        Ratio("fetching ÷ reply", "remote_fetching", "server_reply", Times(2)),
    ])),
    fence("fig10", golden("fig10_jakiro_clients", "client threads", &["7", "14", "21", "28", "35", "42", "49", "56", "63", "70"], "", &[
        Series("measured (MOPS)", "jakiro", MOPS),
        Predicted("model, DESIGN §5 (MOPS)", MOPS),
        Series("in-bound ops per call", "inbound_per_req", MOPS),
    ])),
    fence("fig11", golden("fig11_vs_pilaf", "value size", &["32", "128", "256"], " B", &[
        Series("Jakiro (MOPS)", "jakiro", MOPS),
        Series("Pilaf-style (MOPS)", "pilaf", MOPS),
        Ratio("Jakiro ÷ Pilaf", "jakiro", "pilaf", Times(1)),
        Series("Pilaf ops per GET", "pilaf_ops_per_get", MOPS),
    ])),
    fence("fig12", golden(FIG12, "server threads", &["1", "2", "4", "6", "8", "16"], "", &[
        Series("Jakiro (MOPS)", "jakiro", MOPS),
        Series("ServerReply (MOPS)", "server_reply", MOPS),
        Series("RDMA-Memcached (MOPS)", "rdma_memcached", MOPS),
    ])),
    fence("fig16_fig19", golden(FIG16, "GET %", &["95", "50", "5"], "", &[
        Series("Jakiro, uniform (MOPS)", "jakiro", MOPS),
        Series("ServerReply, uniform (MOPS)", "server_reply", MOPS),
        Series("RDMA-Memcached, uniform (MOPS)", "rdma_memcached", MOPS),
        Ratio("Jakiro ÷ Memcached, uniform", "jakiro", "rdma_memcached", Times(1)),
        Other("fig19_skew", "Jakiro, Zipf 0.99 (MOPS)", "jakiro", MOPS),
        Other("fig19_skew", "ServerReply, Zipf 0.99 (MOPS)", "server_reply", MOPS),
        Other("fig19_skew", "RDMA-Memcached, Zipf 0.99 (MOPS)", "rdma_memcached", MOPS),
    ])),
    fence("fig13_fig20", Text(MEANS, &[
        (Y("fig13_latency_cdf", "jakiro_mean_us", "-"), Fixed(2)),
        (Y("fig20_skew_cdf", "jakiro_mean_us", "-"), Fixed(2)),
        (Y("fig13_latency_cdf", "server_reply_mean_us", "-"), Fixed(1)),
        (Y("fig20_skew_cdf", "server_reply_mean_us", "-"), Fixed(1)),
        (Y("fig13_latency_cdf", "rdma_memcached_mean_us", "-"), Fixed(1)),
        (Y("fig20_skew_cdf", "rdma_memcached_mean_us", "-"), Fixed(1)),
    ])),
    fence("fig14", golden("fig14_mode_switch", "P", &["1", "2", "4", "6", "7", "8", "10", "12"], " µs", &[
        Series("Jakiro (MOPS)", "jakiro", MOPS),
        Series("Jakiro, no switch (MOPS)", "jakiro_no_switch", MOPS),
        Series("ServerReply (MOPS)", "server_reply", MOPS),
        Ratio("Jakiro ÷ ServerReply", "jakiro", "server_reply", Times(2)),
        Other("fig15_client_cpu", "Jakiro client CPU (%)", "client_cpu", Fixed(0)),
    ])),
    fence("fig17", golden("fig17_value_size", "value size", &["32", "256", "512", "1024", "2048", "4096", "8192", "mixed"], " B", &[
        Series("Jakiro (MOPS)", "jakiro", MOPS),
        Series("ServerReply (MOPS)", "server_reply", MOPS),
        Series("RDMA-Memcached (MOPS)", "rdma_memcached", MOPS),
        Ratio("Jakiro ÷ ServerReply", "jakiro", "server_reply", Times(2)),
    ])),
    fence("fig18", golden("fig18_fetch_size", "value size", &["32", "256", "512", "640", "1024", "2048"], " B", &[
        Series("F = 256 (MOPS)", "F256", MOPS),
        Series("F = 448, the selector's pick (MOPS)", "F448", MOPS),
        Series("F = 512 (MOPS)", "F512", MOPS),
        Series("F = 640 (MOPS)", "F640", MOPS),
        Series("F = 1024 (MOPS)", "F1024", MOPS),
    ])),
    fence("table3", Text(TABLE3, &[
        (Y(TABLE3_CSV, "uniform_95get_pct_n_gt1", "-"), Fixed(2)),
        (Y(TABLE3_CSV, "uniform_95get_max_n", "-"), Fixed(0)),
        (Y(TABLE3_CSV, "uniform_95get_switches", "-"), Fixed(0)),
        (Y(TABLE3_CSV, "uniform_5get_pct_n_gt1", "-"), Fixed(2)),
        (Y(TABLE3_CSV, "uniform_5get_max_n", "-"), Fixed(0)),
        (Y(TABLE3_CSV, "uniform_5get_switches", "-"), Fixed(0)),
        (Y(TABLE3_CSV, "skewed_95get_pct_n_gt1", "-"), Fixed(2)),
        (Y(TABLE3_CSV, "skewed_95get_max_n", "-"), Fixed(0)),
        (Y(TABLE3_CSV, "skewed_95get_switches", "-"), Fixed(0)),
        (Y(TABLE3_CSV, "skewed_5get_pct_n_gt1", "-"), Fixed(2)),
        (Y(TABLE3_CSV, "skewed_5get_max_n", "-"), Fixed(0)),
        (Y(TABLE3_CSV, "skewed_5get_switches", "-"), Fixed(0)),
    ])),
    fence("ablation_transports", golden("ablation_transports", "packet loss", &["lossless", "loss_0.1pct", "loss_1pct", "loss_5pct"], "", &[
        Series("Jakiro, RC RFP", "jakiro_rc_rfp", MOPS),
        Series("ServerReply, RC", "server_reply_rc", MOPS),
        Series("HERD-style, UC/UD", "herd_uc_ud", MOPS),
        Series("HERD-style p99 (µs)", "herd_p99_us", Fixed(1)),
    ])),
    fence("ablation_nic_generations", Text(NIC_GENERATIONS, &[
        (Y(NIC_GEN, "connectx2_asymmetry", "32"), Times(1)),
        (Y(NIC_GEN, "connectx2_jakiro", "32"), MOPS),
        (Y(NIC_GEN, "connectx2_gain", "32"), Times(1)),
        (Y(NIC_GEN, "connectx3_asymmetry", "32"), Times(1)),
        (Y(NIC_GEN, "connectx3_jakiro", "32"), MOPS),
        (Y(NIC_GEN, "connectx3_gain", "32"), Times(1)),
        (Y(NIC_GEN, "connectx4_asymmetry", "32"), Times(1)),
        (Y(NIC_GEN, "connectx4_jakiro", "32"), MOPS),
        (Y(NIC_GEN, "connectx4_gain", "32"), Times(1)),
    ])),
    fence("ablation_erew", golden("ablation_erew", "GET %", &["95", "50", "5"], "", &[
        Series("EREW partitions", "erew", MOPS),
        Series("one shared lock", "shared_lock", MOPS),
        Ratio("EREW ÷ shared", "erew", "shared_lock", Times(1)),
    ])),
    fence("ablation_param_selection", Text(PARAM_SELECTION, &[
        (Y(PARAMS, "naive", "64"), MOPS),
        (Y(PARAMS, "naive", "256"), MOPS),
        (Y(PARAMS, "selected", "640"), MOPS),
        (Y(PARAMS, "naive", "2048"), MOPS),
        (Y(PARAMS, "naive", "8192"), MOPS),
        (Y(PARAMS, "selected_extra_read_frac", "640"), Pct(1)),
    ])),
    fence("ablation_pipelining", golden("ablation_pipelining", "in-flight depth", &["1", "2", "4", "8", "16"], "", &[
        Series("posted", "posted", MOPS),
        Series("doorbell-batched", "doorbell_batched", MOPS),
    ])),
    fence("ablation_farm", Text(FARM, &[
        (Y(FARM_CSV, "jakiro_mops", "95"), MOPS),
        (Y(FARM_CSV, "jakiro_inbound_ops_per_req", "95"), MOPS),
        (Y(FARM_CSV, "jakiro_inbound_bytes_per_req", "95"), Fixed(0)),
        (Y(FARM_CSV, "jakiro_mops", "50"), MOPS),
        (Y(FARM_CSV, "jakiro_inbound_ops_per_req", "50"), MOPS),
        (Y(FARM_CSV, "jakiro_inbound_bytes_per_req", "50"), Fixed(0)),
        (Y(FARM_CSV, "pilaf_mops", "95"), MOPS),
        (Y(FARM_CSV, "pilaf_inbound_ops_per_req", "95"), MOPS),
        (Y(FARM_CSV, "pilaf_inbound_bytes_per_req", "95"), Fixed(0)),
        (Y(FARM_CSV, "pilaf_mops", "50"), MOPS),
        (Y(FARM_CSV, "pilaf_inbound_ops_per_req", "50"), MOPS),
        (Y(FARM_CSV, "pilaf_inbound_bytes_per_req", "50"), Fixed(0)),
        (Y(FARM_CSV, "farm_mops", "95"), MOPS),
        (Y(FARM_CSV, "farm_inbound_ops_per_req", "95"), MOPS),
        (Y(FARM_CSV, "farm_inbound_bytes_per_req", "95"), Fixed(0)),
        (Y(FARM_CSV, "farm_mops", "50"), MOPS),
        (Y(FARM_CSV, "farm_inbound_ops_per_req", "50"), MOPS),
        (Y(FARM_CSV, "farm_inbound_bytes_per_req", "50"), Fixed(0)),
    ])),
    fence("ablation_load_latency", golden("ablation_load_latency", "mean think time", &["50", "20", "10", "5", "2", "0"], " µs", &[
        Series("Jakiro (MOPS)", "jakiro_mops", MOPS),
        Series("Jakiro p99 (µs)", "jakiro_p99_us", Fixed(1)),
        Series("ServerReply (MOPS)", "server_reply_mops", MOPS),
        Series("ServerReply p99 (µs)", "server_reply_p99_us", Fixed(1)),
    ])),
    fence("headline", Text(HEADLINE, &[
        (Div(&Y(FIG16, "jakiro", "95"), &Y(FIG16, "server_reply", "95")), Times(1)),
        (Div(&Y("fig11_vs_pilaf", "jakiro", "32"), &Y("fig11_vs_pilaf", "pilaf", "32")), Times(1)),
    ])),
    fence("chaos", sweep("chaos", "scenario", &[
        ("baseline", "baseline"),
        ("loss burst, 30% for 1 ms", "loss_burst"),
        ("link degrade, 8× for 1 ms", "link_degrade"),
        ("straggler, 4× CPU for 1 ms", "straggler"),
        ("QP error", "qp_error"),
        ("warm restart, 300 µs down", "warm_restart"),
        ("cold restart, 300 µs down", "cold_restart"),
        ("mixed, 6 random events", "mixed"),
        ("overload straggler, 64× CPU + 25 µs deadline", "overload_straggler"),
    ], &[
        count("completed", ".completed"),
        count("lost acked", ".lost_acked"),
        count("stale reads", ".stale_reads"),
        count("not found", ".not_found"),
        count("max recovery (µs)", ".recovery_us_max"),
        count("sheds", ".sheds"),
        count("rejected", ".rejected"),
    ])),
    fence("overload", sweep("overload", "offered load", &[
        ("0.5×", "x0.5"), ("1×", "x1"), ("2×", "x2"), ("3×", "x3"), ("4×", "x4"),
    ], &[
        count("goodput, off (kops)", ".off.goodput_kops"),
        count("goodput, on (kops)", ".on.goodput_kops"),
        Metric("p99, off (µs)", ".off.p99_ns", 1000.0, Fixed(1)),
        Metric("p99, on (µs)", ".on.p99_ns", 1000.0, Fixed(1)),
        Metric("shed, on", ".on.shed_permille", 1000.0, Pct(1)),
    ])),
    fence("integrity", sweep("integrity", "fault rate", &[
        ("0, integrity off", "p0.000.off"),
        ("0", "p0.000.on"),
        ("0.005", "p0.005.on"),
        ("0.02", "p0.020.on"),
        ("0.05", "p0.050.on"),
    ], &[
        count("kops", ".kops"),
        count("torn detected", ".torn"),
        count("CRC fails", ".crc_fail"),
        count("refetches", ".retries"),
    ])),
    fence("pipeline", sweep("pipeline", "W", &[
        ("1", "w1"), ("2", "w2"), ("4", "w4"), ("8", "w8"), ("16", "w16"),
    ], &[
        count("32 B (kops)", ".p32.kops"),
        count("512 B (kops)", ".p512.kops"),
        Metric("reads / doorbell", ".p32.reads_per_doorbell_milli", 1000.0, Fixed(2)),
        Metric("issue / READ (ns)", ".p32.issue_per_read_ps", 1000.0, Fixed(0)),
    ])),
    fence("pipeline_idle", Text(PIPELINE_IDLE, &[
        (Bench("pipeline", "idle_util_fixed_milli", 1000.0), Fixed(3)),
        (Bench("pipeline", "idle_util_adaptive_milli", 1000.0), Fixed(3)),
        (Bench("pipeline", "sat_adaptive_kops", 1.0), Fixed(0)),
    ])),
    fence("doctor", sweep("doctor", "scenario → signature", &[
        ("clean → none", "clean"),
        ("straggler ×16 → retry_spike", "straggler"),
        ("loss burst 0.7 → latency_regression", "loss_burst"),
        ("gray slow link +20 µs → gray_failure", "gray_slow_link"),
        ("bit flip 0.05 → corruption_burst", "bit_flip"),
        ("straggler ×64 + 25 µs deadline → overload_shedding", "overload"),
        ("warm crash, 300 µs down → connection_drop", "warm_crash"),
        ("failover_clean → none", "failover_clean"),
        ("primary crash → failover", "failover"),
        ("cores_clean → none", "cores_clean"),
        ("cores_hot, Zipf 0.99, no stealing → core_imbalance", "cores_hot"),
    ], &[
        count("completed", ".completed"),
        Raised("anomalies raised", "completed"),
    ])),
    fence("fleet", sweep("fleet", "logical clients", &[("100 000", "n100000")], &[
        Metric("kops", ".ops", 1000.0, Fixed(1)),
        Metric("scan slots / request", ".scan_slots_per_req_milli", 1000.0, Fixed(2)),
        count("server MR bytes", ".server_mr_bytes"),
        count("server QP endpoints", ".server_qp_endpoints"),
        count("leases", ".leases"),
        count("evictions", ".evictions"),
    ])),
    fence("fleet_hot", Text(FLEET_HOT, &[
        (Bench("fleet", "hot.cold_ratio_permille_min", 1000.0), Pct(1)),
    ])),
    fence("failover", sweep("failover", "scenario, ack", &[
        ("crash, sync", "crash_sync"),
        ("crash, async", "crash_async"),
        ("partition, sync", "partition_sync"),
        ("partition, async", "partition_async"),
    ], &[
        count("completed, 2 clients", "_2.completed"),
        count("completed, 4", "_4.completed"),
        count("failovers, 2", "_2.failovers"),
        count("failovers, 4", "_4.failovers"),
        count("max failover µs, 2", "_2.failover_us_max"),
        count("max failover µs, 4", "_4.failover_us_max"),
        Flag("linearizable, 2", "_2.linearizable"),
        Flag("linearizable, 4", "_4.linearizable"),
    ])),
    fence("failover_tax", Text(FAILOVER_TAX, &[
        (Bench("failover", "tax.off_ops", 1.0), Fixed(0)),
        (Bench("failover", "tax.sync_ops", 1.0), Fixed(0)),
        (Bench("failover", "tax.async_ops", 1.0), Fixed(0)),
        (Bench("failover", "tax.sync_tax_bp", 10_000.0), Pct(2)),
    ])),
    fence("grayfail", sweep("grayfail", "fault", &[
        ("none", "clean"),
        ("slow link", "slow_link"),
        ("flaky link", "flaky_link"),
        ("slow server", "slow_server"),
    ], &[
        count("read p99, baseline (µs)", "_baseline.read_p99_us"),
        count("routing", "_routing.read_p99_us"),
        count("demotions", "_routing.demotions"),
        count("budget spent", "_routing.budget_spent"),
    ])),
    fence("cores", sweep("cores", "cores", &[("1", "c1"), ("2", "c2"), ("4", "c4"), ("8", "c8")], &[
        Metric("uniform (kops)", ".uniform.ops", 1000.0, Fixed(0)),
        Over("÷ 1 core", ".uniform.ops", "c1.uniform.ops", Times(2)),
        Metric("zipf (kops)", ".zipf.ops", 1000.0, Fixed(0)),
        count("zipf steals", ".zipf.steals"),
        Metric("zipf imbalance", ".zipf.imbalance_milli", 1000.0, Fixed(2)),
        Metric("no steal (kops)", ".zipf_nosteal.ops", 1000.0, Fixed(0)),
        Metric("no-steal imbalance", ".zipf_nosteal.imbalance_milli", 1000.0, Fixed(2)),
    ])),
    fence("readme_headline", Text(README_HEADLINE, &[
        (Peak("fig03_asymmetry", "inbound"), MOPS),
        (Peak("fig03_asymmetry", "outbound"), MOPS),
        (Peak("fig10_jakiro_clients", "jakiro"), MOPS),
        (Y("fig10_jakiro_clients", "inbound_per_req", "35"), MOPS),
        (Peak(FIG12, "server_reply"), MOPS),
        (Y(FIG12, "rdma_memcached", "16"), MOPS),
        (Y("fig15_client_cpu", "client_cpu", "1"), Fixed(0)),
        (Y("fig15_client_cpu", "client_cpu", "7"), Fixed(0)),
        (Div(&Y(FIG16, "jakiro", "95"), &Y(FIG16, "server_reply", "95")), Times(1)),
        (Div(&Y("fig11_vs_pilaf", "jakiro", "32"), &Y("fig11_vs_pilaf", "pilaf", "32")), Times(1)),
    ])),
];
