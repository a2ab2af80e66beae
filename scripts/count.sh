#!/usr/bin/env bash
# Plurality counters: how much code, how many knobs, how many copies of
# the server's ring drain. Printed, never gated — CHANGES.md quotes the
# before/after of a simplification PR from here instead of ad-hoc greps.
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
echo "pub struct *Config: $(cat "${all[@]}" | grep -cE '^\s*pub struct \w*Config\b')"
echo "pub enabled: bool: $(cat "${all[@]}" | grep -cE '^\s*pub enabled: bool')"
echo "try_recv( call sites under crates/*/src:"
grep -c 'try_recv(' "${all[@]}" | grep -v ':0$' | sed 's/^/  /'
