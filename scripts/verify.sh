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

echo "== shard determinism: sharded tables/logs/obs identical at KOOZA_THREADS=8 =="
# The test sweeps 1/2/8 threads x 1/4 shards (healthy and fault-injected)
# internally; the env var exercises the sizing path on top. Shards=1 also
# pins the sharded entry point bit-identical to the one-shard hosting.
KOOZA_THREADS=8 cargo test -q --offline --test shard_determinism

echo "== fabric determinism: rack topology identical at KOOZA_THREADS=8, legacy path pinned to golden =="
# Rack mode sweeps 1/2/8 threads x 1/4 shards internally; --topology none
# is compared byte-for-byte against fixtures generated before the fabric
# landed (tests/fixtures/pre_fabric_*.golden).
KOOZA_THREADS=8 cargo test -q --offline --test fabric_determinism

echo "verify: OK"
