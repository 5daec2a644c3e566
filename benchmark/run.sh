#!/usr/bin/env bash
# Builds the harness and runs the whole set: every workload untraced in a
# process of its own, then every workload traced (the traced run includes
# the probes). One JSON document on standard output, tables on standard
# error. Extra arguments are passed on: --seed N, --seconds S, or
# --repeat-check in place of the default --all.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline --quiet
target_dir="${CARGO_TARGET_DIR:-target}"
mode=--all
for arg in "$@"; do
  if [ "$arg" = --repeat-check ]; then mode=; fi
done
exec "$target_dir/release/fortress-benchmark" $mode "$@"
