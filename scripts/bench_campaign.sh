#!/usr/bin/env bash
# Campaign throughput benchmark, end to end.
#
# Times the quick TCP Linux-3.13 campaign (200-strategy cap) three ways
# and writes BENCH_campaign.json at the repo root (appending the run to
# the file's `history` array rather than overwriting the trend):
#
#   1. memoized executor — the default runtime: snapshot forking plus
#      memoization (inert elision, OnState class sharing, no-op halt);
#      the JSON records how many runs memoization avoided
#   2. snapshot-fork executor — memoization off
#   3. from-scratch executor  — same binary, forking off
#
# Finally, a sharded rep runs the from-scratch campaign at S in {1,2,4}
# worker *processes* (the `snake shard-worker` executors, spawned from the
# binary built below), asserting outcome identity with the in-process run
# and recording strategies/sec per shard count in the JSON's `sharded`
# block. The >=1.6x S=4 scaling gate only arms on machines with >= 4 cores.
set -euo pipefail
cd "$(dirname "$0")/.."

# The sharded rep spawns worker processes from the release `snake` binary;
# `cargo bench` alone does not build workspace bins, so build it here.
cargo build --release -p snake-core --bin snake
SNAKE_BIN="$(pwd)/target/release/snake"
export SNAKE_BIN

cargo bench -p snake-bench --bench campaign_throughput
