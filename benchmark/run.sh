#!/usr/bin/env bash
# chronobench: builds the release server and the benchmark, then measures.
#
#   benchmark/run.sh [--seed N] [--seconds S]            every workload, both modes
#   benchmark/run.sh --agree [--against-seconds S]       end to end, 3 runs on each of two sides
#                                                        of the same tree, compared against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                        one measurement; last stdout line is JSON
#   benchmark/run.sh --emit-benchmark-json               the text of BENCHMARK.json
#
# Everything is built and written under CARGO_TARGET_DIR (default:
# target/ at the repository root); databases and result.json live in its
# chronobench/ subdirectory.  Nothing outside the checkout is touched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build_dir="${CARGO_TARGET_DIR:-target}"
case "$build_dir" in
    /*) ;;
    *) build_dir="$root/$build_dir" ;;
esac

# Build output goes to stderr: stdout carries results only.
# 1. the server, from the repository's own workspace and profile;
cargo build --release --offline --target-dir "$build_dir" \
    --manifest-path "$root/Cargo.toml" -p chronos-db --bin chronos >&2
# 2. the benchmark, a workspace of its own with path dependencies.
cargo build --release --offline --target-dir "$build_dir" \
    --manifest-path "$root/benchmark/Cargo.toml" >&2

exec "$build_dir/release/chronobench" \
    --chronos "$build_dir/release/chronos" --build-dir "$build_dir" "$@"
