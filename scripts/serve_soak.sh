#!/usr/bin/env bash
# Serve soak: the seeded multi-concurrency load sweep (k = 1/4/16/64)
# against the sns-serve daemon, refreshing BENCH_serve.json with the
# machine header and, per level, the median req/s and client-side p99
# (with their min–max), the median p50, and shed (503) counts.
#
#   ./scripts/serve_soak.sh
#
# The sweep is deterministic end to end: the serving model trains from
# fixed seeds and the request schedule is a fixed function of the level,
# so two soaks differ only by machine noise (each level reports the
# median of five fresh-server attempts to damp that; compare levels by
# their medians).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -q -p sns-bench --bench serve_load

echo "==> BENCH_serve.json"
grep -oE '\{"concurrency":[^}]*\}' BENCH_serve.json || true
