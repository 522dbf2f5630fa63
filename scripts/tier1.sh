#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   ./scripts/tier1.sh
#
# Runs the release build, the full test suite, and clippy with warnings
# promoted to errors, from the repo root regardless of invocation dir.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# `cargo test` at the root only runs the root package; the serving stack
# and its substrates get exercised explicitly.
echo "==> cargo test -q -p sns-rt -p sns-core -p sns-serve -p sns-train -p sns-genmodel"
cargo test -q -p sns-rt -p sns-core -p sns-serve -p sns-train -p sns-genmodel

# The untrusted front-end: unit suites plus the seeded adversarial fuzz
# corpus (deep nesting, huge replication, truncated/mutated sources).
echo "==> cargo test -q -p sns-netlist -p sns-graphir -p sns-sampler"
cargo test -q -p sns-netlist -p sns-graphir -p sns-sampler

# The virtual synthesizer (including its fast-vs-reference bit-identity
# sweep in crates/vsynth/tests/bit_identity.rs) and the Circuitformer.
echo "==> cargo test -q -p sns-vsynth -p sns-circuitformer"
cargo test -q -p sns-vsynth -p sns-circuitformer

# No-new-panics gate: the untrusted pipeline (netlist/graphir/sampler),
# the network-facing serving layer (serve front-end, its binary, and the
# rt reactor substrate), the virtual synthesizer (labels every
# training design — a panic on one odd netlist kills a whole dataset
# build), and the self-training daemon (long-running; a panic hours into
# a soak loses the run) must stay free of
# unwrap/expect/panic!/unreachable! outside tests — every one of these
# is a remote crash when the input is hostile.
echo "==> no-new-panics grep gate (crates/{netlist,graphir,sampler,serve,vsynth,train}/src + rt net)"
panic_sites=$(
  for f in crates/netlist/src/*.rs crates/graphir/src/*.rs crates/sampler/src/*.rs \
           crates/serve/src/*.rs crates/serve/src/bin/*.rs crates/rt/src/net.rs \
           crates/vsynth/src/*.rs crates/train/src/*.rs crates/train/src/bin/*.rs; do
    # Cut each file at its #[cfg(test)] module; test code may panic freely.
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
  done | grep -E '\.unwrap\(\)|\.expect\(|panic!|unreachable!' | grep -vE ':\s*//' || true
)
if [ -n "$panic_sites" ]; then
  echo "panic-capable call sites in untrusted-input crates:"
  echo "$panic_sites"
  exit 1
fi

# Differential conformance: 200 fixed-seed random designs through the
# sim-vs-gates / vsynth-invariant / predictor-determinism / serve-identity
# oracles, the incremental-ECO oracle smoke (25 hierarchical designs x 3
# random module edits, incremental ≡ from-scratch bit-for-bit) with its
# content-hash identity/sensitivity/collision suite, plus bit-exact replay
# of every checked-in corpus regression and the nn serialization/optimizer
# property suite the oracles lean on.
echo "==> cargo test -q -p sns-conformance -p sns-nn"
cargo test -q -p sns-conformance -p sns-nn

# The serve end-to-end suite boots real servers with worker/queue limits
# tuned per test; keep it single-threaded so the limits stay meaningful
# on small machines.
echo "==> cargo test -q --test serve_e2e -- --test-threads=1"
cargo test -q --test serve_e2e -- --test-threads=1

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# Fast-vs-reference synthesis identity on the blessed corpus plus a
# quick generated sample; the full 2000-design sweep lives in
# ./scripts/vsynth_soak.sh.
echo "==> vsynth_soak (200 designs)"
SNS_VSYNTH_SOAK_N=200 cargo run --release -q -p sns-conformance --bin vsynth_soak

# Label-factory gate: a ~100-design smoke exercises the full
# generate → vsynth-label → filter → fine-tune → checkpoint loop, then
# the ≥500-design soak enforces the disagreement-trend acceptance
# criterion (quartile mean rel-err strictly decreasing). The trend gate
# is only statistically meaningful at soak scale — at 100 designs each
# quartile holds 25 designs and the prequential error is dominated by
# generator variance, so the smoke runs ungated.
echo "==> train_soak smoke (100 designs, ungated)"
cargo run --release -q -p sns-train --bin train_soak -- \
  --designs 100 --out /tmp/BENCH_train_smoke.json
echo "==> train_soak trend gate (500 designs)"
SNS_TRAIN_REQUIRE_TREND=1 cargo run --release -q -p sns-train --bin train_soak -- \
  --designs 500 --out /tmp/BENCH_train_tier1.json

# Informational: how the kernel-bench snapshot moved relative to HEAD.
# Never fails the gate — the absolute acceptance numbers live in
# BENCH_kernels.json itself.
echo "==> bench_diff (informational)"
./scripts/bench_diff.sh || true

echo "==> tier-1 OK"
