//! The four workloads and the rigs that run them.
//!
//! Every rig is assembled through public spawners of the crates under
//! test; the only benchmark-owned load generator is the pipelined echo
//! client (shaped after `rfp-bench`'s `pipeline` binary). All loops are
//! **closed**: a client issues its next call only after the previous
//! one (or its window) completed, as in the paper's methodology.

use std::cell::Cell;
use std::rc::Rc;

use rand::{Rng, SeedableRng};
use rfp_core::{
    connect, serve_loop, IdlePolicy, Reactor, RfpClient, RfpConfig, RfpTelemetry, RESP_HDR,
};
use rfp_kvstore::{
    spawn_cores_kv, spawn_jakiro, CoresConfig, CoresKv, KvStats, KvSystem, SystemConfig,
};
use rfp_rnic::{Cluster, ClusterProfile, Machine, ThreadCtx};
use rfp_simnet::{Histogram, MetricsRegistry, SimSpan, Simulation, SpanRecorder};
use rfp_workload::{OpMix, ValueSize, WorkloadSpec};

/// Simulated warm-up that belongs to set-up, discarded by the reset.
pub const WARMUP: SimSpan = SimSpan::millis(2);

/// One named workload: how to build its rig and how long one of its
/// equal sim-time windows is.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Simulated length of one measurement window. Sized so that the
    /// 21-window ledger holds ≥ 400 k calls (p99.9 keeps ≥ 400 samples
    /// beyond it) and takes 5–7 s of host time on the reference box.
    pub window: SimSpan,
    /// Whether the sequential `call` path (rather than
    /// `call_pipelined`) carries the load.
    pub sequential: bool,
    build: fn(u64, bool) -> Rig,
}

/// The workload set, in the order `--all` runs it.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "jakiro_get95_32b",
        window: SimSpan::millis(5),
        sequential: true,
        build: |seed, _| kv_rig(seed, WorkloadSpec::paper_default(), spawn_jakiro),
    },
    Workload {
        name: "jakiro_put50_mixed",
        window: SimSpan::millis(5),
        sequential: true,
        build: |seed, _| {
            let spec = WorkloadSpec {
                mix: OpMix::BALANCED,
                values: ValueSize::Uniform { min: 32, max: 1024 },
                ..WorkloadSpec::paper_default()
            };
            kv_rig(seed, spec, spawn_jakiro)
        },
    },
    Workload {
        name: "echo_w16_32b",
        window: SimSpan::millis(30),
        sequential: false,
        build: echo,
    },
    Workload {
        name: "cores4_zipf99",
        window: SimSpan::millis(10),
        sequential: false,
        build: |seed, _| cores(seed),
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Set-up as a user pays it: build the rig (cluster, connections,
    /// preload), run the warm-up, discard its measurements. `traced`
    /// turns request-lifecycle telemetry on where the rig does not
    /// already carry it (the echo rig).
    pub fn set_up(&self, seed: u64, traced: bool) -> Rig {
        let mut rig = (self.build)(seed, traced);
        rig.sim.run_for(WARMUP);
        rig.reset();
        rig
    }
}

/// The system under a rig. The echo rig fills a [`KvSystem`] too (its
/// fields are the generic ones: cluster, stats, registry, spans,
/// threads, endpoints), so one harvest path serves three workloads.
pub enum Sys {
    /// `spawn_jakiro`-shaped systems, and the echo rig.
    Kv(KvSystem),
    /// The multi-core reactor rig.
    Cores(CoresKv),
}

/// A running closed-loop system plus the simulation that drives it.
pub struct Rig {
    /// The event loop; `run_for` advances every client and server.
    pub sim: Simulation,
    /// What is being driven.
    pub sys: Sys,
    /// Responses whose bytes differed from what was sent (echo rig;
    /// the KV rigs' own client loops panic on an undecodable response).
    pub mismatched: Rc<Cell<u64>>,
    /// Most calls the clients can have handed to the transport but not
    /// yet booked (or the reverse) at any instant: the pipelined
    /// drivers book a batch when it returns, the transport books each
    /// call as it completes.
    pub in_flight_bound: u64,
}

macro_rules! field {
    ($self:ident, $s:ident => $e:expr) => {
        match &$self.sys {
            Sys::Kv($s) => $e,
            Sys::Cores($s) => $e,
        }
    };
}

impl Rig {
    /// Discards everything measured so far.
    pub fn reset(&self) {
        field!(self, s => s.reset_measurements());
        self.mismatched.set(0);
    }

    /// Shared completion/latency/outcome counters.
    pub fn stats(&self) -> &KvStats {
        field!(self, s => &s.stats)
    }

    /// Calls refused or answered wrongly since the reset.
    pub fn failed(&self) -> u64 {
        let st = self.stats();
        st.rejected_busy.get() + st.rejected_shed.get() + self.mismatched.get()
    }

    /// The simulated cluster; machine 0 is the server.
    pub fn cluster(&self) -> &Cluster {
        field!(self, s => &s.cluster)
    }

    /// The server machine.
    pub fn server(&self) -> &Rc<Machine> {
        field!(self, s => &s.server_machine)
    }

    /// Every client thread.
    pub fn client_threads(&self) -> &[Rc<ThreadCtx>] {
        field!(self, s => &s.client_threads)
    }

    /// Every client endpoint.
    pub fn rfp_clients(&self) -> &[Rc<RfpClient>] {
        field!(self, s => &s.rfp_clients)
    }

    /// The rig's instrument registry.
    pub fn registry(&self) -> &MetricsRegistry {
        field!(self, s => &s.registry)
    }

    /// Retained request spans, where the rig exposes them.
    pub fn spans(&self) -> Option<&SpanRecorder> {
        match &self.sys {
            Sys::Kv(s) => Some(&s.spans),
            Sys::Cores(_) => None,
        }
    }

    /// The multi-core reactor, where the rig exposes one.
    pub fn reactor(&self) -> Option<&Reactor> {
        match &self.sys {
            Sys::Kv(_) => None,
            Sys::Cores(s) => Some(&s.reactor),
        }
    }

    /// Checks what can be checked from outside about the outputs since
    /// the reset; returns one line per violated condition.
    ///
    /// The echo rig compares every payload itself, and the KV rigs'
    /// client loops panic on a response that does not decode, so what
    /// is left is conservation: every call the transport finished was
    /// accounted for exactly once, as a completion or as a failure, and
    /// each cost the server NIC at least its request WRITE and one
    /// fetch READ.
    pub fn check_outputs(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let st = self.stats();
        let (completed, failed) = (st.completed.get(), self.failed());
        if completed == 0 {
            problems.push("no call completed".into());
        }
        if self.mismatched.get() != 0 {
            problems.push(format!(
                "{} echoed payloads differed",
                self.mismatched.get()
            ));
        }
        let calls: u64 = self.rfp_clients().iter().map(|c| c.stats().calls()).sum();
        if calls.abs_diff(completed + failed) > self.in_flight_bound {
            problems.push(format!(
                "transport finished {calls} calls, driver booked {completed} + {failed} \
                 (may differ by {})",
                self.in_flight_bound
            ));
        }
        let (gets, puts) = (st.gets.get(), st.puts.get());
        if gets + puts != 0 && gets + puts != completed {
            problems.push(format!(
                "{gets} GETs + {puts} PUTs != {completed} completed"
            ));
        }
        let inbound = self.server().nic().counters().inbound_ops;
        if inbound + 2 * self.in_flight_bound < 2 * completed {
            problems.push(format!("{inbound} in-bound ops for {completed} calls"));
        }
        problems
    }

    /// Requests served per server thread / reactor core. On the
    /// `KvSystem` rigs this count is not cleared by the reset, so it
    /// includes the warm-up.
    pub fn served_per_thread(&self) -> Vec<u64> {
        match &self.sys {
            Sys::Kv(s) => s.served_per_thread(),
            Sys::Cores(s) => s.served_per_core(),
        }
    }
}

/// A `SystemConfig::default()` system (7×5 clients, 6 server threads,
/// uniform keys, hybrid switch on, 0.2 % outliers) over 2000 keys.
fn kv_rig(
    seed: u64,
    spec: WorkloadSpec,
    spawn: fn(&mut Simulation, &SystemConfig) -> KvSystem,
) -> Rig {
    let cfg = SystemConfig {
        spec: WorkloadSpec {
            key_count: 2000,
            ..spec
        },
        seed,
        ..SystemConfig::default()
    };
    let mut sim = Simulation::new(seed);
    let sys = spawn(&mut sim, &cfg);
    Rig {
        sim,
        sys: Sys::Kv(sys),
        mismatched: Rc::default(),
        in_flight_bound: cfg.total_clients() as u64,
    }
}

/// Another system (`spawn_server_reply_kv`, `spawn_pilaf`) on
/// `jakiro_get95_32b`'s configuration, warm and reset.
pub fn comparator(seed: u64, spawn: fn(&mut Simulation, &SystemConfig) -> KvSystem) -> Rig {
    let mut rig = kv_rig(seed, WorkloadSpec::paper_default(), spawn);
    rig.sim.run_for(WARMUP);
    rig.reset();
    rig
}

fn cores(seed: u64) -> Rig {
    let cfg = CoresConfig {
        skew: Some(0.99),
        seed,
        ..CoresConfig::default()
    };
    let mut sim = Simulation::new(seed);
    let sys = spawn_cores_kv(&mut sim, &cfg);
    Rig {
        sim,
        sys: Sys::Cores(sys),
        mismatched: Rc::default(),
        // Each client draws `window × cores` GETs at a time.
        in_flight_bound: (cfg.total_clients() * cfg.window * cfg.cores) as u64,
    }
}

/// Ring window of the echo rig.
const ECHO_WINDOW: usize = 16;
/// Echo payload bytes.
const ECHO_PAYLOAD: usize = 32;
/// Calls per `call_pipelined` invocation are drawn from the seed in
/// `ECHO_BATCH_MIN..=ECHO_BATCH_MAX` (mean 64, as in `rfp-bench`'s
/// pipeline sweep): the ring refills several times per batch, and the
/// drain at each batch's end is the one thing in this rig the seed can
/// move — without it every seed would print the same latencies.
const ECHO_BATCH_MIN: usize = 48;
const ECHO_BATCH_MAX: usize = 80;

/// One client, one connection, one echoing server thread; the client
/// streams batches through `call_pipelined` and compares every echoed
/// payload byte for byte.
fn echo(seed: u64, traced: bool) -> Rig {
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let (server_m, client_m) = (cluster.machine(0), cluster.machine(1));
    let registry = MetricsRegistry::new();
    let spans = SpanRecorder::new(4096);
    if traced {
        cluster.attach_metrics(&registry);
    }
    let cfg = RfpConfig {
        window: ECHO_WINDOW,
        // Whole response (header + payload) in one READ.
        fetch_size: RESP_HDR + ECHO_PAYLOAD,
        enable_mode_switch: false,
        telemetry: traced.then(|| RfpTelemetry {
            registry: registry.clone(),
            spans: spans.clone(),
            prefix: "rfp.client.0".into(),
            track: 0,
        }),
        ..RfpConfig::default()
    };
    let (client, conn) = connect(
        &client_m,
        &server_m,
        cluster.qp(1, 0),
        cluster.qp(0, 1),
        cfg,
    );
    let conn = Rc::new(conn);
    sim.spawn(serve_loop(
        server_m.thread("server"),
        vec![Rc::clone(&conn)],
        |req: &[u8]| (req.to_vec(), SimSpan::ZERO),
        IdlePolicy::fixed(SimSpan::nanos(100)),
    ));

    let client = Rc::new(client);
    let thread = client_m.thread("client");
    let stats = Rc::new(KvStats::default());
    let mismatched = Rc::new(Cell::new(0u64));
    {
        let (client, thread) = (Rc::clone(&client), Rc::clone(&thread));
        let (stats, mismatched) = (Rc::clone(&stats), Rc::clone(&mismatched));
        // Request bytes come from the seed; bytes 0..8 carry the batch
        // number, so a stale response left in a ring slot by the
        // previous batch can never compare equal.
        let mut rng = rand::rngs::StdRng::seed_from_u64(rfp_simnet::derive_seed(seed, 0xEC40));
        let mut pool: Vec<Vec<u8>> = (0..ECHO_BATCH_MAX)
            .map(|_| (0..ECHO_PAYLOAD).map(|_| rng.gen::<u8>()).collect())
            .collect();
        sim.spawn(async move {
            for batch in 0u64.. {
                let reqs = &mut pool[..rng.gen_range(ECHO_BATCH_MIN..=ECHO_BATCH_MAX)];
                for req in reqs.iter_mut() {
                    req[..8].copy_from_slice(&batch.to_le_bytes());
                }
                let outs = client.call_pipelined(&thread, reqs).await;
                for (req, out) in reqs.iter().zip(&outs) {
                    if out.data != *req {
                        mismatched.set(mismatched.get() + 1);
                        continue;
                    }
                    stats.completed.incr();
                    stats.latency.record(out.info.latency);
                }
            }
        });
    }

    Rig {
        sim,
        sys: Sys::Kv(KvSystem {
            server_machine: server_m,
            cluster,
            stats,
            registry,
            spans,
            client_threads: vec![thread],
            rfp_clients: vec![client],
            server_conns: vec![vec![conn]],
        }),
        mismatched,
        in_flight_bound: ECHO_BATCH_MAX as u64,
    }
}

/// The `p`-th latency percentile in µs, read off the linearly
/// interpolated empirical CDF over *distinct* latency values (0 when
/// nothing was recorded).
///
/// Modelled latencies sit on a coarse lattice — every cost is a
/// constant, the commonest step being the 89 ns in-bound service time —
/// so the nearest-rank percentile jumps by ~1 % or not at all. Between
/// the nearest-rank value `v` and the next distinct value below it
/// this reads `v_prev + (v − v_prev)·(p − F(v_prev)) / (F(v) − F(v_prev))`,
/// which moves in proportion to how the mass shifts.
pub fn percentile_us(h: &Histogram, p: f64) -> f64 {
    let Some(v) = h.percentile(p) else { return 0.0 };
    let n = h.len() as f64;
    let at_most = h.frac_at_most(v);
    let below = match v.as_nanos() {
        0 => 0.0,
        ns => h.frac_at_most(SimSpan::nanos(ns - 1)),
    };
    if below == 0.0 {
        return v.as_micros_f64();
    }
    // Nearest rank `ceil(count_below − 0.5)` = `count_below`: the
    // largest sample still below `v`.
    let count_below = (below * n).round();
    let prev = h
        .percentile(100.0 * (count_below - 0.5) / n)
        .expect("histogram is not empty");
    let t = (p / 100.0 - below) / (at_most - below);
    prev.as_micros_f64() + (v.as_micros_f64() - prev.as_micros_f64()) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_distinct_values() {
        let h = Histogram::new();
        // 40 % at 1 µs, 60 % at 2 µs.
        for _ in 0..40 {
            h.record(SimSpan::micros(1));
        }
        for _ in 0..60 {
            h.record(SimSpan::micros(2));
        }
        assert_eq!(percentile_us(&h, 40.0), 1.0); // F(1 µs) = 0.4 exactly
        assert!((percentile_us(&h, 70.0) - 1.5).abs() < 1e-9); // halfway up the 2 µs step
        assert_eq!(percentile_us(&h, 100.0), 2.0);
        assert_eq!(percentile_us(&h, 10.0), 1.0); // nothing below the lowest value
        assert_eq!(percentile_us(&Histogram::new(), 50.0), 0.0);
    }

    #[test]
    fn every_workload_sets_up_and_completes_calls() {
        for w in &WORKLOADS {
            let mut rig = w.set_up(7, false);
            assert_eq!(rig.stats().completed.get(), 0, "{}: reset", w.name);
            rig.sim.run_for(SimSpan::micros(500));
            assert!(rig.stats().completed.get() > 100, "{}", w.name);
            assert_eq!(rig.failed(), 0, "{}", w.name);
        }
    }
}
