#!/usr/bin/env bash
# Builds nocbench from source and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S]      every workload, tracing off
#   benchmark/run.sh --traced [--seed N]           every workload, traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                  one run (BENCHMARK.json's command)
#   benchmark/run.sh list | compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."

start=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
export NOCBENCH_BUILD_MS=$(( ($(date +%s%N) - start) / 1000000 ))
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/nocbench"

case " $* " in
  *" --workload "*) exec "$bin" run "$@" ;;
  " list "* | " compare "*) exec "$bin" "$@" ;;
  *) exec "$bin" all "$@" ;;
esac
