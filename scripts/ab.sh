#!/usr/bin/env bash
# Alternating paired run of two already-built `rfp-perf-ledger` binaries
# on one workload: the measurement every host-clock claim rests on
# (choosing-metrics §8). A is the baseline (the parent commit's build),
# B the candidate.
#
#   scripts/ab.sh <ledger-A> <ledger-B> <workload> \
#       [metric=host_ref_units_per_call] [pairs=10] [seed=42] [seconds=10]
#
# Each pair runs both sides with the same --seed and --seconds, and the
# side that goes first alternates from pair to pair. Prints every run,
# each side's median and quartiles, the share of pairs B wins (ties
# count for neither) and whether that shows a gain: B wins at least nine
# tenths of the pairs and the medians lie further apart than A's own
# inter-quartile range. Exits non-zero if a `sim_*` or `ok_share` line
# differs between the sides, if a side's `sim_*`, `ok_share` or
# `host_allocs_per_call` line differs from its own first run — those are
# exact per seed, so a difference is a behaviour change, not noise — or
# if B's `host_allocs_per_call` is above A's. A change that lowers
# allocations on purpose can therefore be measured.
#
# Build the two binaries from separate checkouts into separate target
# directories (`cargo build --release --offline --manifest-path
# benchmark/Cargo.toml`). A metric with a dot in its name is a per-layer
# one and is read from `--trace 1`. Reads the binaries' stdout only.
set -euo pipefail

if (($# < 3)); then
  awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' "$0" >&2
  exit 2
fi
a=$1 b=$2 workload=$3
metric=${4:-host_ref_units_per_call} pairs=${5:-10} seed=${6:-42} seconds=${7:-10}
trace=0
[[ $metric == *.* ]] && trace=1

# Which way is better comes from the benchmark's own declaration.
root=$(cd "$(dirname "$0")/.." && pwd)
better=$(awk -v m="\"name\": \"$metric\"" 'index($0, m) && match($0, /"better": "[a-z]+"/) {
  print substr($0, RSTART + 11, RLENGTH - 12) }' "$root/BENCHMARK.json")
[[ $better == lower || $better == higher ]] || { echo "ab.sh: BENCHMARK.json declares no metric '$metric'" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run() { # <side> <binary> <pair>
  local out=$tmp/$1.$3 value
  "$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" > "$out"
  value=$(awk -v m="$metric" '$1 == m { print $3 }' "$out")
  [[ -n $value ]] || { echo "ab.sh: side $1 printed no '$metric'" >&2; exit 2; }
  { grep -E '^(sim_[a-z0-9_]+|ok_share|host_allocs_per_call) ' "$out" || true; } > "$out.own"
  grep -v '^host_allocs_per_call ' "$out.own" > "$out.exact" || true
  awk '$1 == "host_allocs_per_call" { print $3 }' "$out" > "$out.allocs"
  echo "$value" >> "$tmp/$1.values"
  printf 'pair %2d  %s  %s\n' "$3" "$1" "$value"
}

echo "# $workload $metric ($better is better): $pairs pairs, --seed $seed --seconds $seconds --trace $trace"
echo "# A = $a"
echo "# B = $b"
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    run A "$a" "$i"
    run B "$b" "$i"
  else
    run B "$b" "$i"
    run A "$a" "$i"
  fi
  for side in A B; do
    if ! diff "$tmp/$side.1.own" "$tmp/$side.$i.own"; then
      echo "FAIL: pair $i: side $side differs from its own first run on a line that is exact per seed"
      exit 1
    fi
  done
  if ! diff "$tmp/A.$i.exact" "$tmp/B.$i.exact"; then
    echo "FAIL: pair $i: a sim_* or ok_share line differs between the sides (< A, > B)"
    exit 1
  fi
  if ! awk 'NR == FNR { a = $1; next } { exit !($1 + 0 <= a + 0) }' "$tmp/A.$i.allocs" "$tmp/B.$i.allocs"; then
    echo "FAIL: pair $i: B allocates more per call than A ($(cat "$tmp/B.$i.allocs") > $(cat "$tmp/A.$i.allocs"))"
    exit 1
  fi
done

paste "$tmp/A.values" "$tmp/B.values" | awk -v better="$better" '
  # Quantile p of v[1..n] (sorted), linear interpolation between ranks.
  function quantile(v, n, p,    h, lo) {
    h = (n - 1) * p + 1; lo = int(h)
    return v[lo] + (h - lo) * (v[lo < n ? lo + 1 : lo] - v[lo])
  }
  function sorted(src, dst, n,    i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j] < dst[j - 1]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
  }
  function report(side, v, n) {
    q1 = quantile(v, n, .25); med = quantile(v, n, .5); q3 = quantile(v, n, .75)
    printf "%s  median %.6g  quartiles %.6g .. %.6g  (IQR %.3g)\n", side, med, q1, q3, q3 - q1
  }
  { a[NR] = $1 + 0; b[NR] = $2 + 0
    if (better == "lower" ? $2 < $1 : $2 > $1) wins++; else if ($1 != $2) losses++ }
  END {
    sorted(a, sa, NR); sorted(b, sb, NR)
    report("A", sa, NR); amed = med; aiqr = q3 - q1
    report("B", sb, NR)
    gap = better == "lower" ? amed - med : med - amed
    printf "B vs A: median %+.1f %%, B wins %d of %d pairs (%d losses, %d ties)\n",
      100 * (med - amed) / amed, wins, NR, losses, NR - wins - losses
    shown = (wins >= 0.9 * NR && gap > aiqr)
    printf "gain %s: needs >= 90 %% of pairs won and medians further apart than the IQR of A (%.3g vs %.3g)\n",
      (shown ? "shown" : "NOT shown"), gap, aiqr
  }'
