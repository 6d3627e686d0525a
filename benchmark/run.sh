#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs it with
# the arguments given: the command BENCHMARK.json names. With no
# arguments it runs every workload, end to end and per layer.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_NET_OFFLINE=true CARGO_TARGET_DIR="$target" \
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/odpbench" "$@"
