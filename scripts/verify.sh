#!/usr/bin/env bash
# Tier-1 verification: hermetic build + full test suite + dependency guard.
#
# The workspace must build and test with NO network access and NO external
# crates. This script is the single command CI (and humans) run to check
# that; it fails if any Cargo.toml reintroduces a registry dependency.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dependency guard: no registry deps allowed =="
# Any `version = "..."` requirement in a dependency table means a registry
# dep (workspace-internal deps are path-only). `version.workspace = true`
# under [package] is fine, as is the workspace's own version key.
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    if awk '
        /^\[/ { in_deps = ($0 ~ /dependencies/) }
        in_deps && /version[[:space:]]*=/ { found = 1 }
        END { exit !found }
    ' "$manifest"; then
        echo "registry dependency found in $manifest" >&2
        bad=1
    fi
done
if grep -Rn 'crates-io\|registry+' Cargo.lock 2>/dev/null | head -1; then
    echo "Cargo.lock references a registry" >&2
    bad=1
fi
[ "$bad" -eq 0 ] || exit 1
echo "ok: all dependencies are path dependencies"

echo "== tier-1: offline release build =="
cargo build --release --offline --workspace

echo "== CLI: the release kooza binary round-trips a trace and rejects --format =="
# No test runs main.rs, its exit code or its stderr. A KTC trace converted
# to JSONL and back must come back byte-identical (the encoding is
# canonical, DESIGN.md §10), and an option a command does not take must
# fail the process with the option named on stderr.
kooza="${CARGO_TARGET_DIR:-target}/release/kooza"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$kooza" simulate --out "$tmp/t.ktc" --requests 300 >/dev/null
"$kooza" trace convert --in "$tmp/t.ktc" --out "$tmp/t.jsonl" >/dev/null
"$kooza" trace convert --in "$tmp/t.jsonl" --out "$tmp/back.ktc" >/dev/null
cmp "$tmp/t.ktc" "$tmp/back.ktc"
if "$kooza" fit --trace "$tmp/t.ktc" --format ktc >/dev/null 2>"$tmp/err"; then
    echo "kooza fit accepted --format" >&2
    exit 1
fi
if ! grep -q 'does not take --format' "$tmp/err"; then
    echo "kooza fit --format did not name the option:" >&2
    cat "$tmp/err" >&2
    exit 1
fi

echo "== tier-1: full test suite =="
# Also runs the KTC property, corruption and golden-fixture suites, the
# trace round trip and the fabric property suite.
cargo test -q --offline --workspace

echo "== lint gate: clippy clean at -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== doc gate: rustdoc clean at -D warnings =="
# A stale intra-doc link (to a renamed or deleted item) fails here
# instead of rendering as dead text. Cargo's note that the `kooza` bin
# and the `kooza` lib share an output filename is not a rustdoc warning
# and does not fail the step.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== benchmarks compile and smoke-run =="
# Every bench target runs in smoke mode. No step gates on wall time: a
# median measures the host it ran on. The incast curve's super-linearity
# and the fan-out-32 run's exact work (fabric_incast_32 in micro) are
# unit tests in kooza_bench::incast, run by the test suite above.
cargo bench --offline -p kooza-bench --bench micro -- --mode smoke >/dev/null
cargo bench --offline -p kooza-bench --bench trace_ingest -- --mode smoke >/dev/null

echo "== kbench: builds and smoke-runs every workload =="
# kbench (BENCHMARK.json) is a workspace of its own, so neither the build
# nor the test step above compiles it: a public-API break, or a change
# that fails its per-seed byte and count checks, would show only when the
# benchmark runs. One 1 s run per workload that BENCHMARK.json declares;
# its last line must report "correct": true and "failed": 0. No step reads
# its timings.
cargo build --release --offline --manifest-path kbench/Cargo.toml
workloads=$(awk -F'"' '
    /"workloads"/ { inside = 1; next }
    inside && /^[[:space:]]*\]/ { exit }
    inside && $2 == "name" { print $4 }
' BENCHMARK.json)
if [ -z "$workloads" ]; then
    echo "no workloads in BENCHMARK.json" >&2
    exit 1
fi
for workload in $workloads; do
    last=$(cargo run --release --offline --quiet --manifest-path kbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    if ! grep -Eq '^\{"correct": true, "attempted": [0-9]+, "failed": 0,' <<<"$last"; then
        echo "kbench $workload: $last" >&2
        exit 1
    fi
done

echo "== kbench_pairs: paired comparison script runs end to end =="
# The same freshly built binary on both sides: one 1 s model_pipeline
# pair checks that the script runs kbench, checks each run, prints a row
# for every end-to-end metric and finds the pair's exact counts
# identical. No step reads its timings.
kbench="${CARGO_TARGET_DIR:-kbench/target}/release/kbench"
pairs_out=$(scripts/kbench_pairs.sh "$kbench" "$kbench" model_pipeline 1 1 1)
rows=$(grep -Ec ' (yes|no|unresolved)$' <<<"$pairs_out")
if [ "$rows" -ne 6 ]; then
    echo "kbench_pairs printed $rows metric rows, expected 6" >&2
    exit 1
fi
if ! grep -qx 'exact counts: identical in 1/1 pairs' <<<"$pairs_out"; then
    echo "kbench_pairs did not find the pair's exact counts identical:" >&2
    tail -n 1 <<<"$pairs_out" >&2
    exit 1
fi

echo "== thread-count determinism: tables identical at KOOZA_THREADS=8 =="
# The test itself sweeps 1/2/8 via the thread override (and, since the
# KTC format landed, direct vs JSONL vs KTC ingest at each count);
# running it under KOOZA_THREADS=8 additionally exercises the env-var
# sizing path.
KOOZA_THREADS=8 cargo test -q --offline --test determinism

echo "== observability determinism: stripped --obs report identical at KOOZA_THREADS=8 =="
# Same sweep pattern: the test compares stripped JSONL at 1/2/8 threads
# internally; the env var exercises the sizing path on top.
KOOZA_THREADS=8 cargo test -q --offline --test obs_determinism

echo "== fault determinism: outcomes and obs identical under a nonzero fault plan =="
# With crashes, retries, failovers and re-replication active, the
# per-request outcome log and stripped obs report must still be
# byte-identical at 1/2/8 threads.
KOOZA_THREADS=8 cargo test -q --offline --test fault_determinism

echo "== shard determinism: sharded tables/obs identical at KOOZA_THREADS=8 =="
# The test sweeps 1/2/8 threads x 1/4 shards of a fault-free, ideal-link
# cluster internally; the env var exercises the sizing path on top.
# Shards=1 also pins the sharded entry point bit-identical to the
# one-shard hosting. Fault and rack runs always take one shard.
KOOZA_THREADS=8 cargo test -q --offline --test shard_determinism

echo "== fabric determinism: rack topology identical at KOOZA_THREADS=8, legacy path pinned to golden =="
# Rack mode, which runs on one shard, sweeps 1/2/8 threads internally;
# --topology none is compared byte-for-byte against fixtures generated
# before the fabric landed (tests/fixtures/pre_fabric_*.golden), healthy
# tables at 1 and 4 shards and a fault log asked for on 1 and on 4.
KOOZA_THREADS=8 cargo test -q --offline --test fabric_determinism

echo "verify: OK"
