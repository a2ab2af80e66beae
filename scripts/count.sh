#!/usr/bin/env bash
# Plurality counters: how much code, how many knobs, how many copies of
# the server's ring drain and of the bypass stores' cell. CHANGES.md quotes the before/after of a
# simplification PR from here instead of ad-hoc greps; ci.sh gates four
# lines, the dormant-knob, test-only-knob, unreferenced-pub-item and
# test-only-pub-type counts.
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-comment, non-blank lines above a file's `#[cfg(test)]` module.
code_lines() {
  local n=0 f
  for f in "$@"; do
    n=$((n + $(sed '/^#\[cfg(test)\]/,$d' "$f" | grep -v '^\s*//' | grep -vc '^\s*$' || true)))
  done
  echo "$n"
}

src_files() { find "$@" -path '*/src/*' -name '*.rs' | sort; }

echo "code lines per crate (src/, tests and comments excluded):"
for crate in crates/*/; do
  mapfile -t files < <(src_files "$crate")
  printf '  %-10s %6d\n' "$(basename "$crate")" "$(code_lines "${files[@]}")"
done
mapfile -t all < <(src_files crates)
printf '  %-10s %6d\n' total "$(code_lines "${all[@]}")"
echo "raw lines under crates/*/src: $(cat "${all[@]}" | wc -l)"
echo "server scan files (code lines): reactor.rs $(code_lines crates/core/src/reactor.rs)" \
  "+ server.rs $(code_lines crates/core/src/server.rs)" \
  "+ replica.rs $(code_lines crates/kvstore/src/replica.rs)"
echo "bypass store files (code lines): cell.rs $(code_lines crates/kvstore/src/cell.rs)" \
  "+ cuckoo.rs $(code_lines crates/kvstore/src/cuckoo.rs)" \
  "+ hopscotch.rs $(code_lines crates/kvstore/src/hopscotch.rs)"
echo "pub struct *Config: $(cat "${all[@]}" | grep -cE '^\s*pub struct \w*Config\b')"
echo "pub enabled: bool: $(cat "${all[@]}" | grep -cE '^\s*pub enabled: bool')"

# Every `pub` field of a knob-carrying struct — a `pub struct` named
# `*Config`, `*Costs`, `*Policy`, `*Profile` or `*Spec` — as
# "Struct::field: Type".
config_fields() {
  awk '/^[ \t]*pub struct [A-Za-z]*(Config|Costs|Policy|Profile|Spec)[ \t{]/ { s = $3; next }
       s != "" && /^\}/ { s = "" }
       s != "" && /^[ \t]*pub [a-z_0-9]+:/ { sub(/^[ \t]*pub /, ""); print s "::" $0 }' "${all[@]}"
}
fields=$(config_fields)
echo "pub fields of pub struct *Config|*Costs|*Policy|*Profile|*Spec: $(grep -c . <<<"$fields")" \
  "($(grep -c ': bool,$' <<<"$fields") of them \`: bool\`)"

# Dormant knobs: config fields set nowhere but in their own `Default`
# impl — no `name:` (or shorthand `name,`) in a struct literal and no
# `.name =` in any source, test, example or benchmark file, once field
# declarations, `impl Default` blocks and comments are set aside. The
# scan goes by field name, so a name two structs share can hide a
# dormant field but never invent one. A dormant knob has one value in
# use: make it a `const` next to the code that reads it.
# Allowed: `CoresConfig::window` — nobody sets it, but the frozen
# benchmark reads it (benchmark/src/rigs.rs), so it stays a `pub` field.
allowed_dormant='CoresConfig::window'
mapfile -t scanned < <(find crates src benchmark/src tests examples -name '*.rs' -not -path '*/target/*' | sort)
# The lines of the given files that can set a field: field
# declarations, `impl Default` blocks and comments set aside. With
# `prod`, a file's lines from its first `#[cfg(test)]` on are set aside
# too.
setters() { # [prod] <file>...
  local prod=0
  [[ $1 == prod ]] && { prod=1; shift; }
  awk -v prod="$prod" 'FNR == 1 { t = 0 }
       prod && /^[ \t]*#\[cfg\(test\)\]/ { t = 1 }
       t { next }
       /^impl Default for / { d = 1 }
       d { if (/^\}/) d = 0; next }
       /^[ \t]*\/\// { next }
       /^[ \t]*pub(\([a-z]+\))? [a-z_0-9]+:/ { next }
       { print }' "$@"
}
sets() { # <field name> <setter lines>
  grep -qE "(^|[^A-Za-z0-9_:.])$1: |^[ \t]*$1,\$|[{,] $1 [,}]|\.$1 [-+*/|&]?= " <<<"$2"
}
settable=$(setters "${scanned[@]}")
dormant=()
while IFS= read -r field; do
  grep -qx "$field" <<<"$allowed_dormant" && continue
  sets "${field##*::}" "$settable" || dormant+=("$field")
done < <(sed 's/: .*//' <<<"$fields")
echo "dormant knobs: ${#dormant[@]}"
for field in "${dormant[@]}"; do echo "  $field"; done

# Test-only knobs: config fields that something sets, but only test
# code — a crate's tests/, examples/, or a file below its first
# `#[cfg(test)]` line. A field stays settable only when production
# callers set it to different values; one that only a test turns is
# a `const`, and the test reaches its behaviour through a scenario.
# Same name-based scan as the dormant one, so a name two structs share
# can hide a test-only field but never invent one.
# Allowed: `ChaosConfig::reactor_steal` — chaos/tests/cores_restart.rs
# needs 4 stealing cores behind 6 clients, a shape no sweep runs.
allowed_test_only='ChaosConfig::reactor_steal'
mapfile -t prod_files < <(printf '%s\n' "${scanned[@]}" | grep -vE '(^|/)(tests|examples)/')
prod_settable=$(setters prod "${prod_files[@]}")
test_only=()
while IFS= read -r field; do
  name=${field##*::}
  grep -qx "$field" <<<"$allowed_test_only" && continue
  sets "$name" "$settable" && ! sets "$name" "$prod_settable" && test_only+=("$field")
done < <(sed 's/: .*//' <<<"$fields")
echo "test-only knobs: ${#test_only[@]}"
for field in "${test_only[@]}"; do echo "  $field"; done

# Unreferenced pub items: a `pub fn` or `pub const` under crates/*/src
# whose name appears in no other scanned file. A `pub use` re-export
# (single- or multi-line) is not a caller. Types are left out: a future,
# guard, view or error type is reached through the signature of a pub fn
# that is called, without anyone naming it. An item used only in its own
# file is private; one used nowhere is deleted.
# Allowed, each kept for a named open item of ROADMAP.md:
#   events_for        4(b) the flight recorder's per-connection query
#   write_prometheus  4(f) the registry's text exposition
allowed_unreferenced='events_for write_prometheus'
refs=$(awk 'FNR == 1 { skip = 0 }
            skip { if (/;/) skip = 0; next }
            /^[ \t]*pub(\([a-z]+\))? use / { if (!/;/) skip = 1; next }
            { n = split($0, t, /[^A-Za-z0-9_]+/)
              for (i = 1; i <= n; i++) if (t[i] != "") print t[i] "\t" FILENAME }' "${scanned[@]}" | sort -u)
pub_items=$(awk '/^[ \t]*pub (async |const |unsafe )*(fn|const) [A-Za-z_]/ {
                   line = $0; sub(/^[ \t]*pub (async |const |unsafe )*(fn|const) /, "", line)
                   match(line, /^[A-Za-z_][A-Za-z0-9_]*/); print substr(line, 1, RLENGTH) "\t" FILENAME }' "${all[@]}")
unreferenced=$(awk -F'\t' -v allowed="$allowed_unreferenced" '
  BEGIN { split(allowed, a, " "); for (i in a) ok[a[i]] = 1 }
  NR == FNR { files[$1]++; has[$1, $2] = 1; next }
  !($1 in ok) && files[$1] - has[$1, $2] == 0 { print "  " $2 ": " $1 }' \
  <(echo "$refs") <(echo "$pub_items"))
echo "unreferenced pub items: $(grep -c . <<<"$unreferenced" || true)"
[[ -z $unreferenced ]] || echo "$unreferenced"
# Test-only pub types: a `pub struct` under crates/*/src whose name
# appears outside its own file, but only in test code — a crate's
# tests/, examples/, or a file below its first `#[cfg(test)]` line. A
# `pub use` re-export or a comment is not a user. A struct named in no other file is
# not counted, and neither is one that production code outside its file
# gets back from a pub fn (`-> Name`, `-> Vec<Name>`, …) by calling it:
# as the unreferenced scan says, such a type is reached through a
# signature. A type only tests reach is test support: it moves into the
# test that needs it, or is deleted.
# Allowed: `OnlineTuner` — §3.2's online re-selection of (R, F), which
# only core/tests/online_tuning.rs drives (ROADMAP "Parked": online
# self-tuning).
allowed_test_only_types='OnlineTuner'
typed_refs=$(awk 'FNR == 1 { skip = 0; t = (FILENAME ~ /(^|\/)(tests|examples)\//) }
                  /^[ \t]*#\[cfg\(test\)\]/ { t = 1 }
                  /^[ \t]*\/\// { next }
                  skip { if (/;/) skip = 0; next }
                  /^[ \t]*pub(\([a-z]+\))? use / { if (!/;/) skip = 1; next }
                  { n = split($0, w, /[^A-Za-z0-9_]+/)
                    for (i = 1; i <= n; i++) if (w[i] != "") print w[i] "\t" FILENAME "\t" (t ? "test" : "prod") }' \
  "${scanned[@]}" | sort -u)
pub_structs=$(awk '/^[ \t]*pub struct [A-Za-z_]/ {
                     line = $0; sub(/^[ \t]*pub struct /, "", line)
                     match(line, /^[A-Za-z_][A-Za-z0-9_]*/); print substr(line, 1, RLENGTH) "\t" FILENAME }' "${all[@]}")
# "Type<TAB>fn" for every type named after the `->` of a pub fn's
# signature above its file's `#[cfg(test)]` line.
returned=$(awk 'FNR == 1 { t = 0; sig = 0 }
                /^[ \t]*#\[cfg\(test\)\]/ { t = 1 }
                t { next }
                /^[ \t]*pub (async |const |unsafe )*fn [A-Za-z_]/ {
                  f = $0; sub(/^[ \t]*pub (async |const |unsafe )*fn /, "", f)
                  match(f, /^[A-Za-z_][A-Za-z0-9_]*/); f = substr(f, 1, RLENGTH); sig = 1 }
                sig && /->/ { r = $0; sub(/^.*->/, "", r); sub(/[{;].*$/, "", r)
                  n = split(r, w, /[^A-Za-z0-9_]+/)
                  for (i = 1; i <= n; i++) if (w[i] != "" && w[i] != "Self") print w[i] "\t" f }
                sig && /[{;]/ { sig = 0 }' "${all[@]}" | sort -u)
test_only_types=$(awk -F'\t' -v allowed="$allowed_test_only_types" '
  BEGIN { split(allowed, a, " "); for (i in a) ok[a[i]] = 1 }
  FILENAME == ARGV[1] { users[$1 "\t" $2] = users[$1 "\t" $2] " " $3; names[$1] = names[$1] " " $2; next }
  FILENAME == ARGV[2] { via[$1] = via[$1] " " $2; next }
  $1 in ok { next }
  { prod = 0; tests = 0
    n = split(names[$1], fs, " ")
    for (i = 1; i <= n; i++) if (fs[i] != $2) {
      if (users[$1 "\t" fs[i]] ~ /prod/) prod++; else tests++ }
    m = split(via[$1], fns, " ")
    for (j = 1; j <= m; j++) {
      k = split(names[fns[j]], gs, " ")
      for (i = 1; i <= k; i++) if (gs[i] != $2 && users[fns[j] "\t" gs[i]] ~ /prod/) prod++ }
    if (tests > 0 && prod == 0) print "  " $2 ": " $1 }' \
  <(echo "$typed_refs") <(echo "$returned") <(echo "$pub_structs"))
echo "test-only pub types: $(grep -c . <<<"$test_only_types" || true)"
[[ -z $test_only_types ]] || echo "$test_only_types"
echo "try_recv( call sites under crates/*/src:"
grep -c 'try_recv(' "${all[@]}" | grep -v ':0$' | sed 's/^/  /'
echo "doc lines: DESIGN.md $(wc -l < DESIGN.md), EXPERIMENTS.md $(wc -l < EXPERIMENTS.md)," \
  "README.md $(wc -l < README.md)"
