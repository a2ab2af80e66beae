#!/usr/bin/env bash
# Full local CI: build, tests, lints, formatting, sweep smokes, goldens.
set -euo pipefail
cd "$(dirname "$0")/.."

# Plurality counters (code lines, knobs, ring-drain copies, doc lines):
# printed for the record. Four are gated: a config field nobody sets, or
# only tests set, is a constant, not a knob; a pub fn or const nobody
# else names is private or gone; and a pub struct only tests reach is
# test support, not API (count.sh says how it decides and what it
# allows).
counts=$(scripts/count.sh)
echo "$counts"
grep -qx 'dormant knobs: 0' <<<"$counts"
grep -qx 'test-only knobs: 0' <<<"$counts"
grep -qx 'unreferenced pub items: 0' <<<"$counts"
grep -qx 'test-only pub types: 0' <<<"$counts"
# DESIGN.md is one architecture chapter, not a log of changes
# (CHANGES.md and EXPERIMENTS.md hold history and measurements): it
# stays within 900 lines. README.md and EXPERIMENTS.md are capped at
# their line counts when the caps came in, 296 and 495; a change that
# cuts either file lowers its cap.
awk '$1 " " $2 " " $3 == "doc lines: DESIGN.md" { seen = 1
       if ($4 + 0 > 900) { print "DESIGN.md: " $4 + 0 " lines, over 900"; exit 1 }
       if ($6 + 0 > 495) { print "EXPERIMENTS.md: " $6 + 0 " lines, over 495"; exit 1 }
       if ($8 + 0 > 296) { print "README.md: " $8 + 0 " lines, over 296"; exit 1 } }
     END { if (!seen) { print "count.sh printed no DESIGN.md line count"; exit 1 } }' <<<"$counts"

cargo build --release
cargo test -q
# One invocation: `default-members` spans the root package and every
# crate under crates/.
cargo clippy -- -D warnings
cargo fmt --check
# The repo benchmark is a frozen caller of the rig API in its own
# workspace: a change that breaks it must fail here, not in the pipeline.
cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets
# ...and must still run: one short end-to-end pass whose result line
# reports every output check as holding — and whose allocation count
# (exact per seed) stays at the floor. A value gate, not a shape gate.
# The echo bar keeps two allocations per call (2.016): the benchmark
# owns its rig, whose handler is a closure returning its own reply Vec
# and whose call_pipelined hands back owned results, one copy of what
# the engine lends per call, plus the per-batch result Vec. Its
# telemetry-on twins — a Jakiro client reports into a registry and
# files one span per call — run the whole KV path, which allocates
# nothing per call: the reactor lends the handler its reply buffer, the
# call engine lends the driver the fetched result, and a PUT of an
# unchanged length overwrites the stored value in place. 0.002 on 32 B
# GETs and on the 4-core reactor (2.100 and 2.002 when the reply and
# CallResult.data were fresh per call; 6.992 and 6.980 when the op
# draw, request encode, server pickup, reply and outcome booking each
# copied a payload); 0.505 on mixed PUTs (2.845, 7.000), whose
# uniform 32-1024 B values change length on nearly every update, each
# boxed once into the store. Two bars are
# gated on their throughput too (sim_mops, exact per seed): the W = 16
# echo pipeline — 1.034 with rounds that post without waiting and reap
# the older half, 0.883 with lock-step rounds — and the 4-core
# Zipf(0.99) reactor — 3.602 with overlapped client rounds, 3.604
# before them, 2.914 when every ring was scanned in full, 2.063 with a
# fixed 8-request steal batch. The echo bar's peak RSS is gated too:
# latency histograms keep (value, count) runs, so memory grows with
# distinct latencies, not calls — about 4.2 MiB, against 6.9 MiB when
# every call kept its sample. So is the Jakiro bars': a client's six
# connections, one per server thread, record into the one latency cell
# the registry exports for the client — about 6.2 MiB on 32 B GETs and
# 9.7 on mixed PUTs, against 7.1 and 11.5 with a cell per connection
# (9.4 before each of the 210 connections kept a payload buffer as
# large as the largest value it fetched).
ledger_smoke() { # <workload> <host_allocs_per_call ceiling> [sim_mops floor or ''] [host_peak_rss_mib ceiling]
  local ledger
  ledger=$(cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$1" --seed 42 --seconds 1 --trace 0)
  tail -n 1 <<<"$ledger" | grep -q '"correct": true'
  ledger_gate "$ledger" host_allocs_per_call '>' "$2"
  if [[ -n ${3:-} ]]; then ledger_gate "$ledger" sim_mops '<' "$3"; fi
  if [[ $# -ge 4 ]]; then ledger_gate "$ledger" host_peak_rss_mib '>' "$4"; fi
}
ledger_gate() { # <ledger output> <metric> <'>' fails above | '<' fails below> <bound>
  awk -v m="$2" -v op="$3" -v bound="$4" '$1 == m { seen = 1
         if (op == ">" ? $3 > bound : $3 < bound) { print m " " $3 " " op " " bound; exit 1 } }
       END { if (!seen) { print m " not printed"; exit 1 } }' <<<"$1"
}
ledger_smoke echo_w16_32b 2.1 1.0 5.0
ledger_smoke jakiro_get95_32b 0.1 '' 6.6
ledger_smoke jakiro_put50_mixed 0.6 '' 10.4
ledger_smoke cores4_zipf99 0.1 3.4
# The allocation budget of the hot path, on the build that ships the
# numbers (`cargo test -q` above ran it unoptimized) — and the executor's
# ordering rules (lazy chains against eager ones, lanes against plain
# events, resumes), the sweep's, and the NIC engine's verb × transport ×
# fault table, which pins every hop's instant: all only worth anything
# in that build.
cargo test -q --release -p rfp-core --test alloc_budget
cargo test -q --release -p rfp-simnet -p rfp-rnic -p rfp-core --lib

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Sweep smokes. Every binary asserts its own bars and exits non-zero on
# a violation. The four chaos-rig sweeps (chaos, doctor, failover,
# grayfail) hold every run to the rig's one judge, ChaosKv::violations:
# no stale read; no lost acked write unless acks are async; with bounded
# ops, every client finishes and (no cold wipe, no async) the history
# linearizes; on a replica pair, the primary applied every acked PUT and
# no PUT twice, save where a promotion, a return failover or a restart
# excuses it. Their own bars:
#   chaos      the judge in every scenario, the mixed plan included;
#              more NotFound GETs after a cold restart than a warm one
#   overload   shed cost (2 in-bound, 0 out-bound NIC ops per shed) and
#              the goodput plateau (controlled goodput at 4x saturation
#              >= 70% of peak, uncontrolled below it)
#   integrity  zero corrupt payloads ever reach a caller across the
#              fault-rate sweep, and the fault knobs actually fire
#   pipeline   window scaling (>= 2x single-client 32 B throughput at
#              W >= 8), monotone doorbell-batched issue-cost decay,
#              adaptive idle backoff free at saturation, its two payloads
#              on either side of the in-bound knee
#   doctor     the judge's safety invariants on every chaos-rig row;
#              the fault-class detection matrix (every injected class
#              surfaces as its signature anomaly with an intact cause
#              chain; the clean baseline raises nothing)
#   fleet      10^5 logical clients within the 64-QP-endpoint budget,
#              lease churn firing, >= 80% cold-tenant goodput under a
#              hot one (that idle logical clients cost nothing is a
#              kvstore test: the run is byte-identical at 10^5 and at
#              one logical client per driver)
#   failover   the judge (async cells included: no read runs
#              backwards), failover time inside budget, sync
#              replication tax on the 32 B bar under 5%
#   grayfail   each fail-slow fault inflates the unmitigated read p99
#              past 3x clean while scored routing stays within it and
#              leaves a recorded routing.demote chain; the judge; retry
#              amplification under the budget bound (0 tokens here: no
#              fail-slow call exhausts; core's failover test
#              retry_budget_bounds_a_storm_against_dead_replicas proves
#              the bound on a real storm)
#   cores      uniform 4-core throughput >= 3x one core, the skewed worst
#              case within 1.25x of uniform with stealing and collapsed
#              without
# Here each is additionally pinned to be deterministic run-to-run under
# a fixed seed (CSV and exported registry byte-identical), and to
# reproduce the *values* of its committed BENCH_<sweep>.json byte for
# byte: a PR that moves a committed number must commit the new file.
# (`cargo test` above has already failed if two cells of one committed
# sweep are identical in every metric: crates/bench/tests/distinct_cells.rs.)
# Each run writes its BENCH json into a scratch directory of its own,
# never over the committed file. Each run's host wall-clock seconds are
# printed for the record (ungated: the box's speed drifts).
root=$PWD
for sweep in chaos overload integrity pipeline doctor fleet failover grayfail cores; do
  for run in a b; do
    mkdir "$tmp/${sweep}_$run"
    TIMEFORMAT="sweep $sweep $run: %1R s"
    time (cd "$tmp/${sweep}_$run" && cargo run -q --release --manifest-path "$root/Cargo.toml" \
      -p rfp-bench --bin "$sweep" 42 > stdout.csv)
  done
  cmp "$tmp/${sweep}_a/stdout.csv" "$tmp/${sweep}_b/stdout.csv"
  cmp "$tmp/${sweep}_a/BENCH_$sweep.json" "$tmp/${sweep}_b/BENCH_$sweep.json"
  git show "HEAD:BENCH_$sweep.json" | cmp - "$tmp/${sweep}_a/BENCH_$sweep.json"
done
# The chaos-rig sweeps once more at a second seed: every bar and the
# judge must hold there too. Exit status only; nothing is compared.
for sweep in chaos doctor failover grayfail; do
  mkdir "$tmp/${sweep}_seed7"
  (cd "$tmp/${sweep}_seed7" && cargo run -q --release --manifest-path "$root/Cargo.toml" \
    -p rfp-bench --bin "$sweep" 7 > stdout.csv)
done

# Goldens: the paper figures and the ablations must reproduce the
# committed experiments/*.csv byte for byte. (Run from the scratch
# directory: `--csv experiments` must not overwrite the committed
# goldens.)
golden() {
  (cd "$tmp" && cargo run -q --release --manifest-path "$root/Cargo.toml" \
    -p rfp-bench --bin "$@" > /dev/null)
}
golden all_figures -- --csv experiments
golden ablations -- experiments
for golden in experiments/*.csv; do
  cmp "$golden" "$tmp/$golden"
done
