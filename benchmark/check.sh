#!/usr/bin/env bash
# Self-check of the perf ledger: is it repeatable enough to gate on?
#
# Runs every workload (end-to-end pass and traced pass) twice on seed 42
# and the end-to-end pass once on a held-out seed, then fails unless
#   * every sim-clock and allocation number of the two seed-42 sets is
#     bit-identical,
#   * host_ref_units_per_call and host_peak_rss_mib of the two sets agree
#     within their bounds in BENCHMARK.json, setup_s within 0.1 s (two
#     single runs are compared here, not two medians of ten),
#   * nothing failed, every output check held, trace.sim_identical is 1
#     and core.phase.residual_ns is 0,
#   * the held-out seed's sim_mops, sim_p50_us and
#     sim_inbound_ops_per_call sit within 2 % of seed 42 (tails are
#     printed, not gated, across seeds).
# Prints the observed difference beside each bound. ~4 minutes.
#
# usage: benchmark/check.sh [held-out-seed]
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
held_out="${1:-20170423}"
out="$here/out/check"
mkdir -p "$out"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
run() { cargo run -q --release --offline --manifest-path "$here/Cargo.toml" -- "$@"; }

workloads="jakiro_get95_32b jakiro_put50_mixed echo_w16_32b cores4_zipf99"
for w in $workloads; do
    for set in a b; do
        echo "== $w, seed 42, set $set" >&2
        run --workload "$w" --seed 42 --seconds 10 --trace 0 | tail -n 1 >"$out/$set.$w.e2e.json"
        run --workload "$w" --seed 42 --seconds 10 --trace 1 | tail -n 1 >"$out/$set.$w.layers.json"
    done
    echo "== $w, held-out seed $held_out" >&2
    run --workload "$w" --seed "$held_out" --seconds 10 --trace 0 | tail -n 1 >"$out/held.$w.e2e.json"
done

python3 - "$here/../BENCHMARK.json" "$out" $workloads <<'EOF'
import json, sys

bench = json.load(open(sys.argv[1]))
out, workloads = sys.argv[2], sys.argv[3:]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
HOST_E2E = {"host_ref_units_per_call", "host_peak_rss_mib"}
HELD_OUT_GATED = {"sim_mops", "sim_p50_us", "sim_inbound_ops_per_call"}
failures = []


def load(tag, w, kind):
    return json.load(open(f"{out}/{tag}.{w}.{kind}.json"))


def rel(a, b):
    return abs(a - b) / abs(a) if a else float(a != b)


for w in workloads:
    print(f"\n{w}")
    runs = {(t, k): load(t, w, k) for t in "ab" for k in ("e2e", "layers")}
    runs["held", "e2e"] = load("held", w, "e2e")
    for (tag, kind), r in runs.items():
        if not r["correct"] or r["failed"] != 0:
            failures.append(f"{w} {tag} {kind}: correct={r['correct']} failed={r['failed']}")

    a, b, held = (runs[t, "e2e"]["metrics"] for t in ("a", "b", "held"))
    print(f"  {'end-to-end metric':28} {'seed 42':>14} {'a vs b':>10} {'bound':>8} {'held-out':>14} {'vs 42':>8}")
    for name, bound in bounds.items():
        va, vb, vh = a[name]["value"], b[name]["value"], held[name]["value"]
        if name in HOST_E2E:
            ok = rel(va, vb) <= bound
            limit = f"{100 * bound:.0f}%"
        elif name == "setup_s":
            ok = abs(va - vb) <= 0.1
            limit = "0.1 s"
        else:
            ok = va == vb
            limit = "exact"
        if not ok:
            failures.append(f"{w} {name}: {va!r} vs {vb!r} (limit {limit})")
        gated = name in HELD_OUT_GATED
        if gated and rel(va, vh) > 0.02:
            failures.append(f"{w} {name}: held-out seed {vh!r} vs seed 42 {va!r} (limit 2%)")
        print(
            f"  {name:28} {va:14.6g} {100 * rel(va, vb):9.3f}% {limit:>8} "
            f"{vh:14.6g} {100 * rel(va, vh):7.2f}%{' (gated 2%)' if gated else ''}"
        )

    la, lb = (runs[t, "layers"]["metrics"] for t in "ab")
    moved = [n for n in la if "host" not in n and la[n]["value"] != lb[n]["value"]]
    for n in moved:
        failures.append(f"{w} {n}: {la[n]['value']!r} vs {lb[n]['value']!r} (limit exact)")
    exact = sum("host" not in n for n in la)
    print(f"  per-layer: {exact - len(moved)} of {exact} sim/alloc/count metrics bit-identical")
    for n in la:
        if "host" in n:
            va, vb = la[n]["value"], lb[n]["value"]
            print(f"  {n:36} {va:14.6g} {100 * rel(va, vb):9.3f}%   (host, not gated)")
    for t, layers in (("a", la), ("b", lb)):
        if layers["trace.sim_identical"]["value"] != 1:
            failures.append(f"{w} {t}: trace.sim_identical != 1")
        if layers["core.phase.residual_ns"]["value"] != 0:
            failures.append(f"{w} {t}: core.phase.residual_ns != 0")
        if layers["failed_share"]["value"] != 0:
            failures.append(f"{w} {t}: failed_share != 0")

print()
for f in failures:
    print("FAIL", f)
print("check.sh:", "FAILED" if failures else "ok")
sys.exit(1 if failures else 0)
EOF
