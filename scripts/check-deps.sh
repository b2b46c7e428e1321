#!/usr/bin/env bash
# Fails when a workspace crate declares a (dev-)dependency that none of
# its .rs files names (`dep::…`): the crate's own tree plus every target
# its manifest declares by path (the integration tests and examples live
# outside their crate's directory).
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for manifest in crates/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  mapfile -t sources < <(
    find "$dir" -name '*.rs'
    sed -n 's/^path = "\(.*\)"$/\1/p' "$manifest" | sed "s|^|$dir/|"
  )
  deps=$(awk '
    /^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
    on && /^[a-z]/ { sub(/[ .=].*/, ""); print }
  ' "$manifest")
  for dep in $deps; do
    if ! grep -Eq "(^|[^A-Za-z0-9_])${dep//-/_}::" "${sources[@]}"; then
      echo "$manifest: dependency '$dep' is named by no .rs file of the crate"
      status=1
    fi
  done
done
exit $status
