#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
# Run from the repository root.
set -euo pipefail

# Zero third-party crates: every package in the lockfile is a workspace
# member. A `source =` line means a registry crate came back.
if grep -q '^source = ' Cargo.lock; then
    echo "ci.sh: Cargo.lock lists registry crates:" >&2
    grep -B2 '^source = ' Cargo.lock >&2
    exit 1
fi

# Every cargo command runs --offline: the workspace has nothing to fetch
# (`cargo fmt` resolves no dependencies and takes no such flag).
cargo build --release --offline
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo fmt --check

# Rustdoc gate: a stale intra-doc link (a renamed or removed item) or a
# public doc that links a private item fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# Bench smoke: re-measures the hot-path kernels and validates the
# committed BENCH_hotpath.json baseline (fails on malformed JSON or a
# >2x regression of any fast kernel).
cargo run --offline --release -p decs-bench --bin hotpath -- --smoke

# Chaos smoke: re-runs the lossy-network matrix and the crash/restart
# schedules (hard-asserting that detections at every drop rate — and
# across every site crash/rejoin schedule — match the fault-free run,
# and that each schedule's sites actually restarted and rejoined) and
# validates the committed BENCH_chaos.json baseline.
cargo run --offline --release -p decs-bench --bin chaos -- --smoke

# Plan-sharing smoke: re-runs the overlap matrix (hard-asserting that the
# shared plan and the unshared reference interpreter detect identically
# at every overlap point) and validates the committed BENCH_sharing.json
# baseline (fails on malformed JSON or a 50%-overlap speedup below 1.5x).
cargo run --offline --release -p decs-bench --bin sharing -- --smoke

# Ingest smoke: re-runs 5 alternating columnar/per-event leg pairs
# (hard-asserting bit-identical detections) and validates the committed
# BENCH_ingest.json baseline (fails on malformed JSON, a columnar
# throughput under the 0.2 Meps floor, or a median columnar/per-event
# speedup below 80% of the committed one).
cargo run --offline --release -p decs-bench --bin ingest -- --smoke

# Recovery smoke: kills the coordinator mid-run at every snapshot
# interval (hard-asserting post-recovery detections match an
# uninterrupted, durability-off run) and validates the committed
# BENCH_recovery.json baseline.
cargo run --offline --release -p decs-bench --bin recovery -- --smoke

# Partition smoke: re-runs the replica-count matrix (hard-asserting that
# the N = 2 and N = 4 partitioned planes detect bit-identically to the
# single coordinator, and that cross-partition forwarding actually
# happened) and validates the committed BENCH_partition.json baseline.
cargo run --offline --release -p decs-bench --bin partition -- --smoke

# Timestamp-width smoke: re-measures the version-vector compare/join
# kernels at widths 2–128 and validates the committed
# BENCH_timewidth.json baseline (fails on malformed JSON, a >2x
# regression of a width-32 kernel, or a baseline width-32 speedup
# below 5x).
cargo run --offline --release -p decs-bench --bin timewidth -- --smoke

# Benchmark goldens: build the end-to-end benchmark offline into
# target/perfbench, check that its golden fingerprints reproduce the
# committed perfbench/expected.json, and run every workload once. Each run
# checks its detections against the golden fingerprint and, for `lossy`
# and `partitioned`, against the lossless and the N = 1 engine; a failed
# check exits nonzero. Building rewrites perfbench/Cargo.lock (its unused
# stub patches drop out), so the committed lockfile is put back after.
cp perfbench/Cargo.lock target/perfbench-Cargo.lock
built=0
CARGO_TARGET_DIR=target/perfbench cargo build --offline --release --quiet \
    --manifest-path perfbench/Cargo.toml && built=1
mv target/perfbench-Cargo.lock perfbench/Cargo.lock
[ "$built" = 1 ]
perfbench=target/perfbench/release/perfbench
"$perfbench" --golden | diff - perfbench/expected.json
for workload in shared_plan lossy partitioned; do
    "$perfbench" --workload "$workload" --seed 1 --seconds 1 --trace 0 \
        --scratch target/perfbench/scratch --expected perfbench/expected.json >/dev/null
done
rm -rf target/perfbench/scratch

echo "ci.sh: all tier-1 checks passed"
