//! The §3.2 parameter-selection procedure in action.
//!
//! RFP needs two parameters: the retry threshold `R` and the fetch size
//! `F`. The paper bounds the search to `R ∈ [1, N]`, `F ∈ [L, H]` —
//! all three bounds derived from the hardware — then enumerates
//! Equation 2 over a pre-run's sampled result sizes. This example shows
//! each stage: the hardware brackets, the chosen parameters for several
//! workload shapes, and a simulation cross-check that the chosen fetch
//! size actually avoids second READs for the common case.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example param_tuning
//! ```

use rfp_repro::core::{ParamSelector, WorkloadSample};
use rfp_repro::rnic::{ClusterProfile, NicProfile};
use rfp_repro::simnet::SimSpan;
use rfp_repro::workload::ValueSize;

fn main() {
    let profile = ClusterProfile::paper_testbed();
    let selector = ParamSelector::new(profile.nic.clone(), profile.link.clone());

    // Stage 1: hardware brackets.
    let (l, h) = selector.detect_l_h();
    println!("hardware brackets from the IOPS-vs-size curve: L = {l} B, H = {h} B");
    let probe = WorkloadSample {
        result_sizes: vec![1],
        process_time: SimSpan::ZERO,
        request_size: 64,
        client_threads: 35,
        client_machines: 7,
    };
    let n = selector.derive_n(&probe);
    println!("retry budget from the Figure 9 crossover:      N = {n}");
    println!("(the paper's ConnectX-3 yields L=256, H=1024, N=5)\n");

    // Stage 2: per-workload selection.
    println!("{:<34} {:>4} {:>6}", "workload (result sizes)", "R", "F");
    for (label, values) in [
        ("fixed 32 B (paper default)", ValueSize::Fixed(32)),
        ("fixed 600 B", ValueSize::Fixed(600)),
        (
            "uniform 32..2048 B",
            ValueSize::Uniform { min: 32, max: 2048 },
        ),
        (
            "uniform 32..8192 B (§4.4.3)",
            ValueSize::Uniform { min: 32, max: 8192 },
        ),
    ] {
        let sample = WorkloadSample {
            result_sizes: values.samples(64, 3).iter().map(|s| s + 5).collect(),
            process_time: SimSpan::nanos(200),
            request_size: 64,
            client_threads: 35,
            client_machines: 7,
        };
        let p = selector.select(&sample);
        println!("{label:<34} {:>4} {:>6}", p.r, p.f);
    }

    // Stage 3: why it matters — throughput estimates across F for the
    // 600 B workload (the interior optimum the paper's Figure 18 shows).
    println!("\nmodelled Jakiro-style throughput for 600 B results:");
    let sample = WorkloadSample {
        result_sizes: vec![605],
        process_time: SimSpan::nanos(200),
        request_size: 64,
        client_threads: 35,
        client_machines: 7,
    };
    for f in [256usize, 448, 640, 1024] {
        let t = selector.rfp_throughput(5, f, &sample, 605).mops;
        let second_read = if f < 605 + 16 { "yes" } else { "no " };
        println!("  F = {f:>5}: {t:>5.2} MOPS   (second READ needed: {second_read})");
    }
    println!("\nundersized F halves the op budget; oversized F wastes line rate —");
    println!("the enumeration lands on the smallest F that covers the common result.");

    // Show the 20 Gbps variant shifts the brackets.
    let slow = ParamSelector::new(NicProfile::connectx_20g(), profile.link.clone());
    let (l2, h2) = slow.detect_l_h();
    println!("\non the 20 Gbps NIC variant the brackets move: L = {l2} B, H = {h2} B");
}
